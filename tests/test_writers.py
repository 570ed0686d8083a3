"""CSV writers: the column-wise formatter against the earlier per-row cells.

The reference writers below are the earlier runner code, which formatted
every row from a scalar state_metrics call.  The column-wise writers must
produce the same bytes, including on the states where the metrics take a
special branch: an isotropic state (phi = 0), a -0.0 covariance, a state
squeezed along position (phi = +pi/2) and a determinant a rounding error
below the uncertainty floor.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import moment_vectors
from springkick import (
    KickNoiseModel,
    MechanicalParams,
    MomentVector,
    cycle_map,
    intra_period_trace,
    run_ensemble,
    state_metrics,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
from springkick.ensemble import TrajectoryResult
from springkick.moments import Samples
from springkick.runner import (
    ENSEMBLE_COLUMNS,
    OUTPUT_COLUMNS,
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
        n_rows = len(samples)
        trimmed = {
            name: getattr(stats, name)[:n_rows]
            for name in stats.__dataclass_fields__
            if name.endswith(("_mean", "_std")) or name == "kick_indices"
        }
        stats = replace(
            stats,
            trajectory0=TrajectoryResult(0, *columns(samples)),
            **trimmed,
        )
        got = written(tmp_path, write_ensemble_csv, TAU, stats)
        assert got == reference_ensemble_csv(TAU, stats)
