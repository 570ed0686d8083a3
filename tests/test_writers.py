"""CSV writers: the column-wise formatter against the earlier per-row cells.

The reference writers below are the earlier runner code, which formatted
every row from a scalar state_metrics call and every cell with repr().  The
column-wise writers must produce the same bytes, including on the states
where the metrics take a special branch: an isotropic state (phi = 0), a -0.0
covariance, a state squeezed along position (phi = +pi/2) and a determinant a
rounding error below the uncertainty floor.  The vectorized cell formatter
must give repr()'s text for every double and str()'s for every int64.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import moment_vectors
from springkick import (
    KickNoiseModel,
    MechanicalParams,
    MomentVector,
    UnphysicalStateError,
    cycle_map,
    intra_period_trace,
    run_ensemble,
    state_metrics,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
from springkick import moments, runner
from springkick.cli import main
from springkick.config import read_config
from springkick.ensemble import TrajectoryResult
from springkick.moments import Samples, StateMetrics
from springkick.runner import (
    _CSV_BLOCK,
    ENSEMBLE_COLUMNS,
    OUTPUT_COLUMNS,
    _shortest_digits,
    _tables_text,
    run_config,
    write_ensemble_csv,
    write_intra_csv,
    write_trajectory_csv,
)

FIG = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
TAU = 1e-7

EDGE_STATES = [
    MomentVector(0.5, 0.0, 0.5),  # isotropic vacuum: phi = 0.0
    MomentVector(3.0, 0.0, 3.0),  # isotropic thermal
    MomentVector(1.0, -0.0, 2.0),  # -0.0 covariance, squeezed along q
    MomentVector(2.0, -0.0, 1.0),  # -0.0 covariance, squeezed along p
    MomentVector(3.0, 0.0, 1.0),  # sigma_p < sigma_q, qp = 0: phi = +pi/2
    MomentVector(0.5, 0.0, 0.5 - 2e-10),  # det a rounding error below 1/4
    MomentVector(100.0, math.sqrt(100.0 * 100.0 - 0.25 + 1e-8), 100.0),
]


def _fmt(x):
    return repr(float(x))


def _csv_row(cells):
    return ",".join(cells) + "\n"


def _metric_cells(m):
    return [
        _fmt(m.sigma_min),
        _fmt(m.squeezing_db),
        _fmt(m.phi_min),
        _fmt(m.purity),
        _fmt(m.entropy),
        _fmt(m.n_eff),
    ]


def _moment_cells(v):
    return [_fmt(v.sigma_q), _fmt(v.sigma_qp), _fmt(v.sigma_p)]


def reference_trajectory_csv(tau, samples):
    out = _csv_row(OUTPUT_COLUMNS)
    for n, v in samples:
        m = state_metrics(v)
        out += _csv_row([str(n), _fmt(n * tau)] + _moment_cells(v) + _metric_cells(m))
    return out


def reference_intra_csv(trace):
    out = _csv_row(("offset_s",) + OUTPUT_COLUMNS[2:])
    for s, v in trace:
        m = state_metrics(v)
        out += _csv_row([_fmt(s)] + _moment_cells(v) + _metric_cells(m))
    return out


def reference_ensemble_csv(tau, stats):
    mean, std = stats.mean, stats.std
    blocks = [
        mean.sigma_min,
        std.sigma_min,
        stats.squeezing_db_of_mean,
        mean.squeezing_db,
        std.squeezing_db,
        mean.phi_min,
        std.phi_min,
        mean.purity,
        std.purity,
        mean.entropy,
        std.entropy,
        mean.n_eff,
        std.n_eff,
    ]
    out = _csv_row(OUTPUT_COLUMNS + ENSEMBLE_COLUMNS)
    for row, (n, v, m) in enumerate(stats.trajectory0.samples):
        cells = [str(n), _fmt(n * tau)] + _moment_cells(v) + _metric_cells(m)
        out += _csv_row(cells + [_fmt(b[row]) for b in blocks])
    return out


def columns(pairs):
    """(kick, state) pairs as a run's kick and moment columns."""
    return np.array([n for n, _ in pairs]), np.array([v.as_array() for _, v in pairs])


def written(tmp_path, write, *args):
    path = tmp_path / "out.csv"
    write(str(path), *args)
    return path.read_bytes().decode("utf-8")


class TestTrajectoryCsv:
    def test_edge_states(self, tmp_path):
        samples = list(enumerate(EDGE_STATES))
        got = written(tmp_path, write_trajectory_csv, TAU, Samples(*columns(samples)))
        assert got == reference_trajectory_csv(TAU, samples)

    def test_edge_cells_take_their_branch(self, tmp_path):
        samples = Samples(*columns(list(enumerate(EDGE_STATES))))
        rows = written(tmp_path, write_trajectory_csv, TAU, samples)
        cells = [line.split(",") for line in rows.splitlines()[1:]]
        phi = OUTPUT_COLUMNS.index("phi_min_rad")
        purity = OUTPUT_COLUMNS.index("purity")
        assert cells[0][phi] == "0.0"
        assert cells[2][OUTPUT_COLUMNS.index("sigma_qp")] == "-0.0"
        assert cells[4][phi] == repr(math.pi / 2)
        assert cells[5][purity] == "1.0"

    def test_run_samples(self, tmp_path):
        cyc = cycle_map(FIG, TAU, 10.0)
        samples = stroboscopic_evolve(thermal_state(FIG), cyc, 20_000, 100)
        got = written(tmp_path, write_trajectory_csv, TAU, samples)
        assert got == reference_trajectory_csv(TAU, samples)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(moment_vectors(), min_size=1, max_size=20), st.floats(1e-9, 1e-5))
    def test_random_states(self, tmp_path_factory, states, tau):
        tmp_path = tmp_path_factory.mktemp("w")
        samples = [(3 * i, v) for i, v in enumerate(states)]
        got = written(tmp_path, write_trajectory_csv, tau, Samples(*columns(samples)))
        assert got == reference_trajectory_csv(tau, samples)


class TestIntraCsv:
    def test_stationary_trace(self, tmp_path):
        cyc = cycle_map(FIG, TAU, 10.0)
        trace = intra_period_trace(steady_state(cyc), cyc, 33)
        got = written(tmp_path, write_intra_csv, trace)
        assert got == reference_intra_csv(trace)

    def test_edge_states(self, tmp_path):
        trace = [(TAU * j / 7, v) for j, v in enumerate(EDGE_STATES)]
        got = written(tmp_path, write_intra_csv, trace)
        assert got == reference_intra_csv(trace)


class TestEnsembleCsv:
    def stats(self):
        noise = KickNoiseModel(mean_theta=10.0, variance=1e-3)
        return run_ensemble(FIG, TAU, noise, 1200, 100, n_traj=4, base_seed=5)

    def test_small_ensemble(self, tmp_path):
        stats = self.stats()
        got = written(tmp_path, write_ensemble_csv, TAU, stats)
        assert got == reference_ensemble_csv(TAU, stats)

    def test_edge_states_in_trajectory_zero(self, tmp_path):
        stats = self.stats()
        samples = list(zip(stats.kick_indices.tolist(), EDGE_STATES))
        stats = with_rows(stats, samples, len(samples))
        got = written(tmp_path, write_ensemble_csv, TAU, stats)
        assert got == reference_ensemble_csv(TAU, stats)

    def test_ragged_table_raises(self, tmp_path):
        stats = self.stats()
        samples = list(zip(stats.kick_indices.tolist(), EDGE_STATES))
        stats = with_rows(stats, samples, len(samples) + 1)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"differ in length: \[7, 7, .*8"):
            write_ensemble_csv(str(path), TAU, stats)
        assert not path.exists()


def with_rows(stats, samples, n_rows):
    """stats with trajectory 0 replaced by samples and the rest cut to n_rows."""
    return replace(
        stats,
        kick_indices=stats.kick_indices[:n_rows],
        mean=StateMetrics._make(x[:n_rows] for x in stats.mean),
        std=StateMetrics._make(x[:n_rows] for x in stats.std),
        trajectory0=TrajectoryResult(0, *columns(samples)),
    )


def bodies(tables):
    """The CSV body of each table, from one pass of _tables_text."""
    out = [b""] * len(tables)
    for k, text in _tables_text(tables):
        out[k] += text
    return out


def formatted_cells(values):
    """The cells _tables_text writes for a one-column table of values."""
    [body] = bodies([[values]])
    body = body.decode("ascii")
    assert body.endswith("\n") or not len(values)
    return body.split("\n")[:-1]


def repr_cells(values):
    return [str(v) if isinstance(v, int) else repr(v) for v in values.tolist()]


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


POWERS_OF_TWO = [y for k in range(-20, 61) for y in neighbours(2.0**k)]
POWERS_OF_TEN = [y for k in range(-5, 18) for y in neighbours(10.0**k)]
# Exact decimals: 0.5 * 10**k-scaled values, values exactly on a rounding tie
# at 17, 16, 15 and 15 digits, and 2**53 with its upper neighbour.
DECIMAL_TIES = [
    0.5,
    2.5,
    0.125,
    5e15,
    1234567890123456.25,
    2251799813685248.5,
    123456789012345.5,
    1000000000000005.0,
    2.0**53,
    2.0**53 + 2,
]
# Short decimals; the last two round at 16 digits to something other than
# their repr padded with a zero, so only the 15-digit candidate finds it.
SHORT_DECIMALS = [0.1, 0.3, 0.7, 9.87654321098765, 98765.4321098765, 0.000987654321]
# Cells of every text length: ints of 1 to 20 characters, and floats of 3 to
# 24, from the digit search (0.5 to 17-digit negatives) and from repr.
INT_LENGTHS = np.array([7, -7] + [10**k for k in range(19)] + [-(2**63)])
FLOAT_LENGTHS = np.array(
    [0.0, 0.5, -0.5]
    + [sign * round(1 / 7, d) for d in range(1, 18) for sign in (1, -1)]
    + [1e-05, -1.25e-05, 1.234567890123456e-05, 1.4285714285714285e16, -1.4285714285714285e16]
    + [-2.2250738585072014e-308]
)
FORMAT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


class TestCellFormat:
    @FORMAT_SETTINGS
    @given(st.lists(st.floats(allow_nan=False), max_size=40))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    @example(POWERS_OF_TWO)
    @example(POWERS_OF_TEN)
    @example([0.049999999999999996, 9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05])
    @example(DECIMAL_TIES)
    @example(SHORT_DECIMALS)
    def test_floats(self, values):
        x = np.array(values, dtype=float)
        assert formatted_cells(x) == repr_cells(x)
        assert formatted_cells(-x) == repr_cells(-x)

    @FORMAT_SETTINGS
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_bit_patterns(self, words):
        x = np.array(words, dtype=np.uint64).view(np.float64)
        x = x[~np.isnan(x)]
        assert formatted_cells(x) == repr_cells(x)

    @FORMAT_SETTINGS
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    @example([0, 1, -1, 9, 10, 100, 10**15, 10**16 - 1, 2**53 - 1, -(2**53 - 1)])
    @example([2**53, 2**53 + 1, 10**16, 10**17, 2**63 - 1, -(2**63)])
    def test_ints(self, values):
        x = np.array(values, dtype=np.int64)
        assert formatted_cells(x) == repr_cells(x)

    def test_table_across_blocks(self, monkeypatch):
        # Each cell's whole 26-byte window is written at its offset and runs
        # on over the next cells, whose own windows then put them right.
        # Cells of every length, and one-digit cells whose every window
        # overlaps 12 later ones, pin that the windows go in cell order.
        assert sorted({len(c) for c in repr_cells(INT_LENGTHS)}) == list(range(1, 21))
        assert sorted({len(c) for c in repr_cells(FLOAT_LENGTHS)}) == list(range(3, 25))
        for block in (1, 7, 4096, _CSV_BLOCK):
            monkeypatch.setattr(runner, "_CSV_BLOCK", block)
            rng = np.random.default_rng(7)
            n = 2 * block + len(FLOAT_LENGTHS)
            table = [
                np.arange(n) * 100,
                rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n),
                np.round(rng.uniform(-50, 50, n), 3),
                np.where(rng.random(n) < 0.1, 0.0, rng.random(n)),
                np.resize(INT_LENGTHS, n),
                np.resize(FLOAT_LENGTHS, n),
            ]
            digits = [np.arange(n) % 10]
            assert bodies([table, digits]) == [reference_body(table), reference_body(digits)]

    def test_powers_of_two_take_their_own_digits(self):
        # below a power of two the lower rounding gap is half the upper one;
        # every power of two in the digit search's range, with both of its
        # neighbours, gets repr's digits from the search itself, but for
        # exact decimal ties (the upper neighbours of 2**50 and 2**51)
        x = np.array([y for k in range(-13, 54) for y in neighbours(2.0**k)])
        assert x.min() >= 1e-4 and x.max() < 1e16
        certified = _shortest_digits(x)[2]
        assert [exact_tie(v) for v in x[~certified].tolist()] == [True, True]
        assert formatted_cells(x) == repr_cells(x)


def exact_tie(v):
    """Whether v lies exactly half-way between two decimals of 16 or of 17
    significant digits."""
    scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
    return scaled.denominator == 2 or (scaled.denominator == 1 and scaled.numerator % 10 == 5)


def random_table(width, n_rows, seed):
    """width columns of n_rows: ints, floats across the formatter's
    branches, and short decimals."""
    rng = np.random.default_rng(seed)
    columns = []
    for kind in rng.integers(0, 3, width):
        if kind == 0:
            columns.append(rng.integers(-(10**6), 10**6, n_rows))
        elif kind == 1:
            columns.append(rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 18, n_rows))
        else:
            columns.append(np.round(rng.uniform(-50, 50, n_rows), 3))
    return columns


def reference_body(columns):
    cells = [repr_cells(c) for c in columns]
    return "".join(",".join(row) + "\n" for row in zip(*cells)).encode()


# The first table ends exactly on a block edge; the next one crosses one.
ON_THE_EDGE = [(8, _CSV_BLOCK // 8, 1), (11, _CSV_BLOCK // 11 + 1, 2), (10, 33, 3)]


class TestOnePass:
    """Several tables formatted as one flat run of cells give the bytes of
    one pass per table."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 13), st.integers(0, 700), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=4,
        )
    )
    @example(ON_THE_EDGE)
    @example([(1, _CSV_BLOCK, 4), (3, 0, 5), (2, 1, 6)])
    def test_tables_split_back(self, shapes):
        tables = [random_table(*shape) for shape in shapes]
        together = bodies(tables)
        assert together == [bodies([t])[0] for t in tables]
        assert together == [reference_body(t) for t in tables]

    def test_ragged_table_raises_before_any_text(self):
        good = random_table(3, 10, 0)
        with pytest.raises(ValueError, match=r"differ in length: \[4, 5\]"):
            bodies([good, [np.arange(4), np.arange(5.0)]])


INI = """[mechanical]
omega_m = {omega_m!r}
gamma_m = 100.0
n_bar = {n_bar!r}
[kick]
theta = {theta!r}
[schedule]
tau = {tau!r}
n_kicks = 10000
stride = 100
intra_samples = 33
"""


def state_text(v, m):
    return (
        f"sigma_q = {v.sigma_q!r}, sigma_qp = {v.sigma_qp!r}, sigma_p = {v.sigma_p!r}",
        ", ".join(f"{name} = {x!r}" for name, x in zip(
            ("sigma_min", "phi_min_rad", "squeezing_db", "purity", "entropy_nats", "n_eff"), m
        )),
    )


class TestSummaryMetrics:
    """One metric_arrays call serves a run's rows, its intra rows and its
    stationary state; the summary's lines are state_metrics' text."""

    @pytest.mark.parametrize(
        "omega_m, n_bar, theta, tau",
        [(5e5, 10.0, 10.0, 1e-7), (5e5, 30.0, 1.0, 2e-7), (3e5, 100.0, 0.5, 5e-8)],
    )
    def test_stationary_and_final_lines(self, tmp_path, omega_m, n_bar, theta, tau):
        ini = tmp_path / "run.ini"
        ini.write_text(INI.format(omega_m=omega_m, n_bar=n_bar, theta=theta, tau=tau))
        assert main(["--config", str(ini), "--out", str(tmp_path / "run"), "--quiet"]) == 0
        summary = (tmp_path / "run.summary.txt").read_text().splitlines()
        params = MechanicalParams(omega_m=omega_m, gamma_m=100.0, n_bar=n_bar)
        cyc = cycle_map(params, tau, theta)
        v_inf = steady_state(cyc)
        moments_text, metrics_text = state_text(v_inf, state_metrics(v_inf))
        assert "stationary state: " + moments_text in summary
        assert "stationary metrics: " + metrics_text in summary
        n, v = stroboscopic_evolve(thermal_state(params), cyc, 10_000, 100)[-1]
        m = state_metrics(v)
        final = (
            f"final state (kick {n}): " + state_text(v, m)[0]
            + f", squeezing_db = {m.squeezing_db!r}, purity = {m.purity!r}"
        )
        assert final in summary
        trace = intra_period_trace(v_inf, cyc, 33)
        assert (tmp_path / "run.intra.csv").read_text() == reference_intra_csv(trace)

    def test_unphysical_intra_row_raises_and_writes_nothing(self, tmp_path, monkeypatch):
        # a flight that shrinks every state inside the period takes the
        # intra rows below the uncertainty floor; cycle_map's own flight over
        # the whole period is left alone
        ini = tmp_path / "run.ini"
        ini.write_text(INI.format(omega_m=5e5, n_bar=10.0, theta=10.0, tau=1e-7))
        config = read_config(str(ini))
        flight = moments._flight

        def shrinking(params, t):
            if 0.0 < t < 1e-7:
                return np.array([[0.1, 0.0], [0.0, 0.1]]), np.zeros(3)
            return flight(params, t)

        monkeypatch.setattr(moments, "_flight", shrinking)
        cyc = cycle_map(FIG, TAU, 10.0)
        with pytest.raises(UnphysicalStateError):
            intra_period_trace(steady_state(cyc), cyc, 33)
        with pytest.raises(UnphysicalStateError):
            run_config(config, str(tmp_path / "run"), quiet=True)
        assert list(tmp_path.iterdir()) == [ini]
