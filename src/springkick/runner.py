"""Run orchestration: named presets, trajectory/ensemble CSVs, summary report.

A run resolves the kick strength (direct theta, or theta from the pulse's
photon integral, evaluated without a time grid, plus a validity report),
evolves the stroboscopic map (in closed form where it is certified, else by
binary powers; one noisy ensemble when configured), and writes:

  <base>.csv           sampled trajectory, columns in OUTPUT_COLUMNS order
  <base>.summary.txt   parameters, rho(A), stationary-state metrics, onset,
                       validity report, ensemble tail statistics
  <base>.intra.csv     optional fine trace of one period at the fixed point

Every float cell is the text of Python's repr() (the shortest decimal that
reads back to the same double) and every integer cell (kick_index) plain
decimal digits, so values round-trip bit-exactly and repeated runs are
byte-identical.  Before its first byte, run_config evolves and checks
every row, so that a run that fails in its numerics writes no file: it
holds the sampled (n, 3) moment rows and their kicks, the intra-period rows
and the stationary state, checks every row against metric_arrays' own range
and physicality rules (_check_rows), and takes the summary's metrics, of the
stationary state and the final row, from one metric_arrays call.
Everything else is made one text block at a time: _tables_text asks each
table for a block's rows, makes their time_s and, with one metric_arrays
call per block, their metrics, and formats every cell of the block as one
flat sequence in numpy, calling repr() only for the cells it cannot
certify.  The text splits per file by the cells' lengths.
write_trajectory_csv, write_ensemble_csv and write_intra_csv are the same
writer for one table.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import replace
from itertools import chain

import numpy as np

from .config import EnsembleConfig, RunConfig, Schedule
from .ensemble import EnsembleStats, KickNoiseModel, run_ensemble, steady_tail_mean
from .moments import (
    CycleMap,
    MechanicalParams,
    MomentVector,
    NoStationaryStateError,
    StateMetrics,
    UnphysicalStateError,
    _check_physical,
    _check_range,
    _intra_rows,
    cycle_map,
    metric_arrays,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
# bound only because bench/tracing.py patches every name of its PATCHES list
# on this module: run_config reads stroboscopic_evolve's onset, takes its
# intra rows from _intra_rows, the summary's metrics from one metric_arrays
# call and each text block's metrics from one more
from .moments import intra_period_trace, squeezing_onset, state_metrics  # noqa: F401
from .pulses import (
    BathParams,
    CavityParams,
    MembraneParams,
    PulseSpec,
    coupling_g2,
    photon_integral,
    regime_check,
    temperature_for_occupancy,
)
# bound for bench/tracing.py's PATCHES as above: resolve_kick takes theta
# from photon_integral, so no run calls it
from .pulses import theta_from_physical  # noqa: F401

OUTPUT_COLUMNS = (
    "kick_index",
    "time_s",
    "sigma_q",
    "sigma_qp",
    "sigma_p",
    "sigma_min",
    "squeezing_db",
    "phi_min_rad",
    "purity",
    "entropy_nats",
    "n_eff",
)

ENSEMBLE_COLUMNS = (
    "sigma_min_mean",
    "sigma_min_std",
    "squeezing_db_of_mean",
    "squeezing_db_mean",
    "squeezing_db_std",
    "phi_min_rad_mean",
    "phi_min_rad_std",
    "purity_mean",
    "purity_std",
    "entropy_nats_mean",
    "entropy_nats_std",
    "n_eff_mean",
    "n_eff_std",
)

# The OUTPUT_COLUMNS name of each StateMetrics field: the field and its unit.
_METRIC_COLUMNS = StateMetrics(
    "sigma_min", "phi_min_rad", "squeezing_db", "purity", "entropy_nats", "n_eff"
)
# A state's columns, the moments then their metrics, and the StateMetrics
# field of each metric column
_STATE_COLUMNS = OUTPUT_COLUMNS[2:]
_METRIC_ORDER = [_METRIC_COLUMNS.index(name) for name in _STATE_COLUMNS[3:]]

# Cross-trajectory averages settle over the last this-fraction of kicks.
TAIL_FRACTION = 0.1

SCENARIO_NAMES = ("fig1", "fig2", "fig3")

_BASE_MECH = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
_BASE_SCHEDULE = Schedule(tau=1e-7, n_kicks=1_000_000, stride=100)


def scenario_config(name: str) -> RunConfig:
    """Named preset parameter sets.

    fig1: moderate occupancy (n_bar=10), theta=10, 1e6 kicks.
    fig2: hot start (n_bar=200), otherwise as fig1.
    fig3: fig1 plus Gaussian kick noise (variance 1e-3) averaged over 100
          trajectories with a fixed base seed.
    """
    if name == "fig1":
        return RunConfig(mechanical=_BASE_MECH, schedule=_BASE_SCHEDULE, theta=10.0)
    if name == "fig2":
        return RunConfig(
            mechanical=replace(_BASE_MECH, n_bar=200.0),
            schedule=_BASE_SCHEDULE,
            theta=10.0,
        )
    if name == "fig3":
        return RunConfig(
            mechanical=_BASE_MECH,
            schedule=_BASE_SCHEDULE,
            theta=10.0,
            ensemble=EnsembleConfig(variance=1e-3, trajectories=100, base_seed=12345),
        )
    raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


def _fmt(x) -> str:
    return repr(float(x))


def resolve_kick(config: RunConfig) -> tuple[float, list[str]]:
    """Kick strength for a run, with provenance lines for the summary.

    Direct theta passes through (no cavity, so no validity report).  The
    physical route computes g2 and photon_integral's integral and peak,
    without a time grid, takes theta = 2 g2 integral, grades the model
    inequalities against the bath (defaults: cutoff 100*kappa, temperature
    from the Bose inversion at n_bar), and reports both.
    """
    if config.theta is not None:
        lines = [
            f"kick theta = {_fmt(config.theta)}  (given directly)",
            "validity report skipped: direct kick strength carries no pulse or"
            " cavity parameters",
        ]
        return config.theta, lines

    phys = config.physical
    mech = config.mechanical
    pulse = PulseSpec(
        shape=phys.shape,
        duration_tau_p=phys.pulse_duration,
        peak_power=phys.peak_power,
        period_tau=config.schedule.tau,
    )
    cavity = CavityParams(
        length_L=phys.cavity_length,
        kappa_0=phys.kappa_0,
        wavelength=phys.wavelength,
        kappa_loss=phys.kappa_loss,
    )
    membrane = MembraneParams(mass=phys.mass, reflectivity_R=phys.reflectivity)
    g2 = coupling_g2(cavity, membrane, mech.omega_m)
    integral, peak = photon_integral(pulse, cavity)
    theta = 2.0 * g2 * integral

    cutoff = temperature = None
    if config.bath is not None:
        cutoff = config.bath.omega_c_cutoff
        temperature = config.bath.temperature
    if cutoff is None:
        cutoff = 100.0 * cavity.kappa
    if temperature is None:
        temperature = temperature_for_occupancy(mech.omega_m, mech.n_bar)
    bath = BathParams(omega_c_cutoff=cutoff, temperature=temperature)

    # Model-validity scale: thermal width, sigma_q = n_bar + 1/2.
    q2_estimate = mech.n_bar + 0.5
    report = regime_check(pulse, cavity, mech, bath, q2_estimate, g2)

    lines = [
        f"kick theta = {_fmt(theta)}  (from pulse chain)",
        f"coupling g2 = {_fmt(g2)}",
        f"peak intracavity photon number = {_fmt(peak)}",
        f"photon number integral = {_fmt(integral)}",
        f"bath: omega_c_cutoff = {_fmt(bath.omega_c_cutoff)}, temperature ="
        f" {_fmt(bath.temperature)}",
        "validity report:",
    ]
    lines.extend("  " + ln for ln in report.lines())
    lines.append(f"  hard pass: {report.hard_pass}")
    return theta, lines


def _csv_row(cells) -> str:
    return ",".join(cells) + "\n"


# Cells per block of _tables_text, which takes whole rows, of one table or
# several, and makes the rows' time_s and metrics per block as well, so this
# also bounds the metrics' temporaries: 1,117 rows of OUTPUT_COLUMNS.  At
# its peak _cells_text holds about 115 bytes of temporaries per cell
# (tracemalloc), 1.4 MB at this size.  Larger blocks amortise numpy's
# per-call overhead, metric_arrays' too: on a 2-core Xeon, bench/run.py's
# deterministic workload (fig1 and fig2 through the CLI) took 10-14% less
# wall time at 12,288 cells than at 4,096, and about the same as at 8,192.
_CSV_BLOCK = 12288
# Rows per pass of _check_rows: 1 MB per float64 temporary.  Once freed,
# temporaries this large also lift glibc malloc's dynamic mmap and trim
# thresholds above a text block's 1.4 MB, so that the text pass reuses its
# heap block after block.  Checked _CSV_BLOCK rows at a time, fig1 at stride
# 1 over 10^6 kicks through the CLI took 282k minor page faults instead of
# 27k, and about 25% more wall time (2-core Xeon, glibc).
_CHECK_ROWS = 1 << 17
# Bytes per cell: the longest float and int reprs
# ('-2.2250738585072014e-308', '-9223372036854775808') have 24, their
# separator one more, and a cell's window starts one byte early.
_CELL = 26
# Where a cell's 17 digits start in its row of '0' padding.
_DIGITS_AT = 4
_ROW = _DIGITS_AT + 17
_E16, _E17 = 10**16, 10**17
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(x):
    """(hi, lo) with hi + lo == x, each half at most 26 bits wide (Veltkamp)."""
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


# 10**s for s = 0..22, every one an exact double, and its split.
_POW10 = 10.0 ** np.arange(23)
_POW10_HI, _POW10_LO = _split(_POW10)


def _group_tables():
    """For each 4-digit group 0000..9999: its ASCII text as one uint32, and
    its count of trailing zeros (4 for 0000)."""
    groups = np.arange(10_000, dtype=np.uint16)
    text = np.empty((10_000, 4), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        text[:, j] = groups // scale % 10 + ord("0")
    zeros = np.full(10_000, 3, np.uint8)
    zeros[0] = 4
    for n, scale in ((2, 1000), (1, 100), (0, 10)):
        zeros[groups % scale > 0] = n
    return text.view(np.uint32)[:, 0], zeros


_GROUP_TEXT, _GROUP_ZEROS = _group_tables()
# _CELL bytes as one item: a gather of such items copies each cell's bytes as
# one, about three times faster than a gather of rows of a 2-d byte array.
_CELL_ITEM = np.dtype(f"V{_CELL}")
# _PREFIX[m] is 1 at the first m of a cell's _CELL bytes and 0 after them.
_PREFIX = (np.arange(_CELL) < np.arange(_CELL + 1)[:, None]).astype(np.uint8).view(_CELL_ITEM)[:, 0]


def _divmod(x, d: int):
    """divmod of a non-negative int64 array by a scalar (// beats % by far)."""
    q = x // d
    return q, x - q * d


def _shortest_digits(a):
    """repr's digits of doubles 1e-4 <= a < 1e16: the shortest that read back.

    Returns (digits, decpt, ok).  digits is an int64 of 17 digits, repr's
    digits padded with trailing zeros; a ~ 0.d1d2... * 10**decpt; ok is False
    where repr's digits are not certified: at an exact decimal tie, or where
    log10 put a a decade off.

    The double-double hi + lo = a * 10**(16 - k), with k = floor(log10 a), is
    exact (Dekker's two-product of Veltkamp splits; 10**s is exact for s <=
    22).  Its integer part B has 17 digits.  B and the fraction past it round
    to the nearest 17-, 16- and 15-digit candidates, each straight from the
    exact value.  repr keeps the shortest candidate that reads back to a.  A
    repr of 15 or fewer digits is the 15-digit candidate less its trailing
    zeros, since 15-digit decimals lie further apart than an ulp (Steele &
    White 1990; Loitsch, PLDI 2010), and the nearest 17-digit candidate
    always reads back.  Whether a 15- or 16-digit candidate c reads back is
    one correctly rounded division, float(c) / 10**e == a, exact because
    both operands are (W. D. Clinger, PLDI 1990): in units of the 16th
    digit, c of 15 digits is an even integer below 2**54, c of 16 digits an
    integer up to 2**53, and 10**e <= 10**19.  A 16-digit c past 2**53 lies
    within 2**-54 a of a, inside its rounding interval, so it always reads
    back.  Below a power of two the nearest 16-digit candidate could miss
    the narrow lower gap while the next one up fits, and repr would keep
    that one; no power of two in [1e-4, 1e16) has such a candidate.
    """
    k = np.floor(np.log10(a)).astype(np.intp)
    s = 16 - k
    p, p_hi, p_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    a_hi, a_lo = _split(a)
    hi = a * p
    del p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    del p_hi, p_lo, a_hi, a_lo
    lo_int = np.floor(lo)
    # in [0, 1]; it may round up to 1.0 from below, never down to 0.0 or
    # onto 0.5 from a value that is not 0.5
    frac = lo - lo_int
    del lo
    b17 = hi.astype(np.int64) + lo_int.astype(np.int64)
    del hi, lo_int
    # log10 can put a number next to a power of ten a decade off: fall back
    ok = (b17 >= _E16) & (b17 < _E17)
    b16, d17 = _divmod(b17, 10)
    b15, r15 = _divmod(b17, 100)
    rest = frac > 0.0
    c17 = b17 + (frac > 0.5)
    del b17
    c16 = b16 + ((d17 > 5) | ((d17 == 5) & rest))
    del b16
    c15 = b15 + ((r15 > 50) | ((r15 == 50) & rest))
    del b15, r15
    e = _POW10[s - 1]
    del s
    is15 = (c15 * 10).astype(float) / e == a
    is16 = (c16 > 2**53) | (c16.astype(float) / e == a)
    del e
    # a kept candidate half-way between two decimals of its length falls
    # back: its other neighbour reads back too
    tie16 = (d17 == 5) & ~rest
    ok &= ~(~is15 & ((tie16 & is16) | ((frac == 0.5) & ~is16)))
    digits = np.where(is15, c15 * 100, np.where(is16, c16 * 10, c17))
    # 99...9 rounded up to 10**17 would need a to be the double nearest a
    # power of ten and below it, and no such double lies in [1e-4, 1e16)
    ok &= digits < _E17
    return digits, k + 1, ok


def _cells_text(x, is_int, seps, big):
    """Text of a flat run of cells, each followed by its separator byte.

    x holds every cell as a double and is_int flags the int cells.  Integers
    below 2**53 stay exact in x; big maps the index of every other int cell
    to its exact value.  A float with 1e-4 <= |x| < 1e16 gets repr's digits
    from _shortest_digits, an int with 1 <= |x| < 2**53 its own digits the
    same way, and each is laid out in a window of _CELL bytes.  Every other
    cell (zeros, exponent notation, ints from 2**53, non-finite values,
    digits that are not certified) takes repr(float) or str(int).

    Each cell's text and separator open its window, and the windows are
    packed by offset: a cell's offset is the running sum of the lengths
    before it, and one assignment, in cell order, writes every whole window
    at its offset.  A window runs on past its cell's end over up to 12 later
    cells (of two bytes each, at the least), and each of those cells'
    windows overwrites the bytes past the previous cell's end.  So the text
    is right only because numpy assigns a 1-d integer index into a 1-d array
    in index order, the order in which a repeated index keeps its last
    value; numpy's indexing notes do not promise that order for advanced
    assignment in general, and test_table_across_blocks pins it.  Returns
    the text as a uint8 array and the n + 1 offsets: the bytes before each
    cell, and after the last.
    """
    n = len(x)
    a = np.abs(x)
    ok = (a >= np.where(is_int, 1.0, 1e-4)) & (a < np.where(is_int, 2.0**53, 1e16))
    np.copyto(a, 1.0, where=~ok)
    digits, decpt, certified = _shortest_digits(a)
    del a
    ok &= certified
    decpt = np.where(ok, decpt, 1)  # keeps a falling-back cell's layout in range

    # The digits as ASCII: a lead digit and four 4-digit groups.
    lead, rest = _divmod(digits, _E16)
    del digits
    halves = np.empty((n, 2), np.int64)
    halves[:, 0], halves[:, 1] = _divmod(rest, 10**8)
    del rest
    groups = np.empty((n, 4), np.int64)
    groups[:, 0::2], groups[:, 1::2] = _divmod(halves, 10**4)
    del halves
    zeros = _GROUP_ZEROS[groups]
    trailing = zeros[:, 0]
    for j in (1, 2, 3):
        trailing = np.where(zeros[:, j] == 4, trailing + 4, zeros[:, j])
    del zeros
    n_digits = 17 - trailing  # the lead digit is never 0
    # Each cell's digits in a row of '0' padding, after two bytes of margin.
    buf = np.full(2 + n * _ROW + _CELL, ord("0"), np.uint8)
    rows = buf[2 : 2 + n * _ROW].reshape(n, _ROW)
    rows[:, _DIGITS_AT] += lead.astype(np.uint8)
    rows[:, _DIGITS_AT + 1 :] = _GROUP_TEXT[groups].view(np.uint8)
    del lead, groups, rows

    # A cell's text less its '.' is a run of its row, from the units digit
    # (the 0 of 0.00ddd) to the last digit, with one byte in front for a
    # '-'.  Its window holds that run from one byte earlier: text before the
    # '.' comes from the window one byte on, text after it from the window.
    neg = x < 0
    start = np.minimum(decpt, 1) + (_DIGITS_AT - 1) - neg
    dot = np.maximum(decpt, 1) + neg
    end = dot + ~is_int * (1 + np.maximum(n_digits - decpt, 1))
    del decpt, n_digits
    windows = np.ndarray((len(buf) - _CELL + 1,), _CELL_ITEM, buf, strides=(1,))
    after = windows[np.arange(1, 1 + n * _ROW, _ROW) + start].view(np.uint8)
    del buf, windows, start
    flat = np.empty_like(after)
    np.subtract(after[1:], after[:-1], out=flat[:-1])
    flat[:-1] *= _PREFIX[dot].view(np.uint8)[:-1]
    flat[:-1] += after[:-1]
    del after
    text = flat.reshape(n, _CELL)
    cell_at = np.arange(0, n * _CELL, _CELL)
    flat[cell_at + dot] = ord(".")  # an int's is overwritten next
    flat[cell_at + end] = seps
    flat[cell_at[neg]] = ord("-")
    del cell_at, dot, neg
    # The cells that fall back, written over their windows in one scatter.
    fall = np.flatnonzero(~ok)
    if fall.size:
        cells = [
            str(big.get(f, int(v))) if flag else repr(v)
            for f, v, flag in zip(fall.tolist(), x[fall].tolist(), is_int[fall].tolist())
        ]
        width = np.array([len(c) for c in cells])
        first = np.cumsum(width) - width
        chars = np.frombuffer("".join(cells).encode(), np.uint8)
        text[np.repeat(fall, width), np.arange(len(chars)) - np.repeat(first, width)] = chars
        text[fall, width] = seps[fall]
        end[fall] = width
    end += 1
    offsets = np.zeros(n + 1, np.intp)
    np.cumsum(end, out=offsets[1:])
    del end
    size = int(offsets[-1])
    packed = np.empty(size + _CELL, np.uint8)
    windows = np.ndarray((size + 1,), _CELL_ITEM, packed, strides=(1,))
    windows[offsets[:-1]] = flat.view(_CELL_ITEM)
    return packed[:size], offsets


def _states(*row_blocks):
    """The (n, 3) moment rows of every block, in order, as the nine
    _STATE_COLUMNS: sigma_q, sigma_qp, sigma_p and their six metrics, from
    one metric_arrays call."""
    moments = np.concatenate([np.transpose(rows) for rows in row_blocks], axis=1, dtype=float)
    metrics = metric_arrays(*moments)
    return [*moments, *(metrics[i] for i in _METRIC_ORDER)]


def _block_text(tables, block):
    """Yield (k, text) for the rows r0:r1 of each table k of a block of
    (k, r0, r1), formatted as one flat run of cells by _cells_text.  Each
    table is asked for its rows r0:r1 once, and the moment rows of every
    table in the block take one metric_arrays call (_states)."""
    parts = [tables[k][2](r0, r1) for k, r0, r1 in block]
    moment_rows = [c for columns in parts for c in columns if np.ndim(c) == 2]
    if moment_rows:
        states = _states(*moment_rows)
        cuts = np.cumsum([0] + [len(rows) for rows in moment_rows]).tolist()
        each = iter([c[lo:hi] for c in states] for lo, hi in zip(cuts, cuts[1:]))
        parts = [[x for c in columns for x in (next(each) if np.ndim(c) == 2 else [c])]
                 for columns in parts]
    n = sum((r1 - r0) * len(columns) for (_, r0, r1), columns in zip(block, parts))
    x = np.empty(n)
    is_int = np.empty(n, bool)
    seps = np.empty(n, np.uint8)
    big = {}  # the int cells that a double does not hold, by index
    ends = []
    for (_, r0, r1), columns in zip(block, parts):
        at, n_cols = ends[-1] if ends else 0, len(columns)
        cells = slice(at, at + (r1 - r0) * n_cols)
        flags = [c.dtype.kind in "iu" for c in columns]
        is_int[cells].reshape(-1, n_cols)[:] = flags
        seps[cells].reshape(-1, n_cols)[:] = [ord(",")] * (n_cols - 1) + [ord("\n")]
        grid = x[cells].reshape(-1, n_cols)
        for j, (c, flag) in enumerate(zip(columns, flags)):
            grid[:, j] = c
            if flag:
                for row in np.flatnonzero((c >= 2**53) | (c <= -(2**53))).tolist():
                    big[at + row * n_cols + j] = int(c[row])
        ends.append(cells.stop)
    text, offsets = _cells_text(x, is_int, seps, big)
    offsets = offsets[[0] + ends].tolist()
    for (k, _, _), lo, hi in zip(block, offsets, offsets[1:]):
        yield k, text[lo:hi].tobytes()


def _check_lengths(lengths) -> None:
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")


def _table(table):
    """(n_rows, width, columns) of a table as _tables_text takes it, with
    columns(r0, r1) its columns for rows r0:r1 and width its cells per row."""
    if len(table) == 2 and callable(table[1]):
        n_rows, columns = table
    else:
        arrays = [np.asarray(c) for c in table]
        lengths = [len(c) for c in arrays]
        _check_lengths(lengths)
        n_rows = lengths[0] if lengths else 0

        def columns(r0, r1):
            return [c[r0:r1] for c in arrays]

    width = sum(len(_STATE_COLUMNS) if np.ndim(c) == 2 else 1 for c in columns(0, 0))
    return n_rows, width, columns


def _tables_text(tables):
    """CSV bodies of several tables of int and float columns, in one pass.

    A table is a list of equal-length columns, or (n_rows, columns) with
    columns(r0, r1) the list of its columns for rows r0:r1.  Among a table's
    columns an (n, 3) array of moment rows stands for the nine
    _STATE_COLUMNS: the moments and their metrics, made per block.  The rows
    of every table, in order, go into blocks of up to _CSV_BLOCK cells, a
    block taking rows of as many tables as fit, and each block is formatted
    as one flat run of cells (_block_text), each cell with its separator
    (',' or, at the end of a row, '\\n') and its int flag.  Yields (k, text)
    for the text of table k in each block, in order: table k's body, for
    every row ",".join(cells) + "\\n" with repr() of each float cell and
    str() of each int cell, is the concatenation of its texts.  Raises
    ValueError, before it yields anything, if a list's columns differ in
    length.
    """
    tables = [_table(table) for table in tables]
    block, room = [], _CSV_BLOCK
    for k, (n_rows, width, _) in enumerate(tables):
        r = 0
        while r < n_rows:
            fit = room // width
            if fit == 0 and block:
                yield from _block_text(tables, block)
                block, room = [], _CSV_BLOCK
                continue
            # a row wider than a block makes a block of its own
            rows = min(n_rows - r, max(fit, 1))
            block.append((k, r, r + rows))
            room -= rows * width
            r += rows
    if block:
        yield from _block_text(tables, block)


def _write_tables(tables) -> None:
    """Write each (path, header, table) as a CSV, the table as _tables_text
    takes it with its columns in header order, all of them formatted in one
    pass of _tables_text.  Each file is opened when its text begins, and
    written block by block."""
    bodies = _tables_text([table for _, _, table in tables])
    with ExitStack() as stack:
        files = []
        # the last table's file is opened even where the table has no row
        for k, text in chain(bodies, [(len(tables) - 1, b"")]):
            for path, header, _ in tables[len(files) : k + 1]:
                files.append(stack.enter_context(open(path, "wb")))
                files[-1].write(_csv_row(header).encode())
            files[k].write(text)


_INTRA_COLUMNS = ("offset_s",) + _STATE_COLUMNS


def _check_rows(kicks, rows) -> None:
    """Raise where metric_arrays would on one of the (n, 3) moment rows,
    _CHECK_ROWS rows at a time: _check_range's DivergenceError, then
    _check_physical's errors, each naming the row's kick where kicks are
    given.  Rows that pass take their metrics while their file is written."""
    for lo in range(0, len(rows), _CHECK_ROWS):
        q, qp, p = np.transpose(rows[lo : lo + _CHECK_ROWS])
        at = None if kicks is None else kicks[lo : lo + _CHECK_ROWS]
        _check_range(q, qp, p, at)
        _check_physical(q, qp, p, at)


def _trajectory_table(tau: float, kicks, moments, extra=()):
    """OUTPUT_COLUMNS for the (n, 3) moment rows sampled at the given kick
    indices, then the extra columns, as (n_rows, columns) for _tables_text:
    time_s and the metrics are made a block at a time.  Raises, before any
    text, ValueError if the columns differ in length, then _check_rows'
    errors."""
    _check_lengths([len(kicks)] * 2 + [len(moments)] * len(_STATE_COLUMNS) + [len(c) for c in extra])
    _check_rows(kicks, moments)

    def columns(r0, r1):
        k = kicks[r0:r1]
        return [k, k * tau, moments[r0:r1]] + [c[r0:r1] for c in extra]

    return len(kicks), columns


def _ensemble_table(tau: float, stats: EnsembleStats):
    """Trajectory 0's OUTPUT_COLUMNS, then the ENSEMBLE_COLUMNS block."""
    extra = {"squeezing_db_of_mean": stats.squeezing_db_of_mean}
    for name, mean, std in zip(_METRIC_COLUMNS, stats.mean, stats.std):
        extra[name + "_mean"] = mean
        extra[name + "_std"] = std
    t0 = stats.trajectory0
    return _trajectory_table(tau, t0.kicks, t0.moments, [extra[name] for name in ENSEMBLE_COLUMNS])


def write_trajectory_csv(path: str, tau: float, samples) -> None:
    """Deterministic run: one row per sampled kick, OUTPUT_COLUMNS order."""
    _write_tables([(path, OUTPUT_COLUMNS, _trajectory_table(tau, samples.kicks, samples.moments))])


def write_ensemble_csv(path: str, tau: float, stats: EnsembleStats) -> None:
    """Ensemble run: base columns are trajectory 0, then the mean/std block."""
    _write_tables([(path, OUTPUT_COLUMNS + ENSEMBLE_COLUMNS, _ensemble_table(tau, stats))])


def write_intra_csv(path: str, trace) -> None:
    """Fine-grained single-period trace at the stationary state."""
    offsets = np.array([s for s, _ in trace], dtype=float)
    rows = np.array([v.as_array() for _, v in trace])
    _check_rows(None, rows)
    _write_tables([(path, _INTRA_COLUMNS, [offsets, rows])])


def _moment_text(values) -> str:
    q, qp, p = values
    return f"sigma_q = {_fmt(q)}, sigma_qp = {_fmt(qp)}, sigma_p = {_fmt(p)}"


def output_paths(out: str) -> tuple[str, str, str]:
    """(csv, summary, intra) paths for one output stem or .csv path."""
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".csv", base + ".summary.txt", base + ".intra.csv"


def _stationary(cycle: CycleMap) -> tuple[MomentVector | None, str]:
    """The stationary state, or None and the summary line that says why."""
    try:
        return steady_state(cycle), ""
    except NoStationaryStateError as exc:
        return None, f"stationary state: none ({exc})"
    except UnphysicalStateError as exc:
        return None, (
            "stationary state: map fixed point is unphysical, model validity"
            f" exceeded ({exc})"
        )


def run_config(config: RunConfig, out: str, quiet: bool = False) -> list[str]:
    """Execute one configured run and write its outputs.

    Returns the list of paths written.  Raises ConfigError/ValueError for
    bad inputs, OSError for unwritable outputs, DivergenceError for numerical
    blow-up; the CLI maps these to exit codes.  A run that fails in its
    numerics writes no file.  Before the first byte the run holds the
    sampled moment rows and kicks (32 bytes a row), the intra-period rows
    and the stationary state, checks every row as metric_arrays would
    (_check_rows, _intra_rows), and takes the summary's metrics from one
    metric_arrays call.  Its tables are then formatted in one pass, a text
    block at a time, each block's time_s and metrics made with it.
    """
    csv_path, summary_path, intra_path = output_paths(out)
    mech = config.mechanical
    sched = config.schedule

    theta, kick_lines = resolve_kick(config)
    cycle = cycle_map(mech, sched.tau, theta)
    v_inf, no_stationary = _stationary(cycle)

    ens = config.ensemble
    ensemble = ens is not None and ens.enabled
    if ensemble:
        mean = ens.mean_theta if ens.mean_theta is not None else theta
        noise = KickNoiseModel(mean_theta=mean, variance=ens.variance)
        stats = run_ensemble(
            mech,
            sched.tau,
            noise,
            sched.n_kicks,
            sched.stride,
            n_traj=ens.trajectories,
            base_seed=ens.base_seed,
        )
    else:
        samples = stroboscopic_evolve(thermal_state(mech), cycle, sched.n_kicks, sched.stride)
    intra = sched.intra_samples >= 2 and v_inf is not None
    if intra:
        offsets, intra_rows = _intra_rows(v_inf, cycle, sched.intra_samples)
    # the summary's states, the stationary state and a deterministic run's
    # final row, take one metric_arrays call before any file is opened
    summary_rows = [] if v_inf is None else [[v_inf.as_array()]]
    if not ensemble:
        summary_rows.append(samples.moments[-1:])
    if summary_rows:
        states = dict(zip(_STATE_COLUMNS, _states(*summary_rows)))

    summary: list[str] = []
    summary.append("run summary")
    summary.append(
        f"mechanical: omega_m = {_fmt(mech.omega_m)}, gamma_m = {_fmt(mech.gamma_m)},"
        f" n_bar = {_fmt(mech.n_bar)}"
    )
    summary.append(
        f"schedule: tau = {_fmt(sched.tau)}, n_kicks = {sched.n_kicks},"
        f" stride = {sched.stride}"
    )
    summary.extend(kick_lines)
    summary.append(f"cycle spectral radius rho(A) = {_fmt(cycle.spectral_radius)}")
    if v_inf is None:
        summary.append(no_stationary)
    else:
        summary.append(
            "stationary state: " + _moment_text((v_inf.sigma_q, v_inf.sigma_qp, v_inf.sigma_p))
        )
        summary.append(
            "stationary metrics: "
            + ", ".join(f"{name} = {_fmt(states[name][0])}" for name in _METRIC_COLUMNS)
        )

    if ensemble:
        tables = [(csv_path, OUTPUT_COLUMNS + ENSEMBLE_COLUMNS, _ensemble_table(sched.tau, stats))]
        tail = steady_tail_mean(stats, TAIL_FRACTION)
        summary.append(
            f"ensemble: trajectories = {ens.trajectories}, variance ="
            f" {_fmt(ens.variance)}, mean theta = {_fmt(mean)}, base_seed ="
            f" {ens.base_seed}"
        )
        summary.append(
            f"ensemble tail averages (last {TAIL_FRACTION:.0%} of kicks):"
        )
        summary.append(
            f"  squeezing_db_of_mean = {_fmt(tail['squeezing_db_of_mean'])}"
            "  (dB of the averaged minimum variance; default convention)"
        )
        summary.append(
            f"  squeezing_db_mean = {_fmt(tail['squeezing_db_mean'])}"
            "  (average of per-trajectory dB values)"
        )
        summary.append(f"  sigma_min_mean = {_fmt(tail['sigma_min_mean'])}")
        summary.append(f"  purity_mean = {_fmt(tail['purity_mean'])}")
        summary.append(f"  entropy_nats_mean = {_fmt(tail['entropy_mean'])}")
        summary.append(f"  n_eff_mean = {_fmt(tail['n_eff_mean'])}")
        summary.append(
            f"final row (kick {stats.kick_indices[-1]}): sigma_min_mean ="
            f" {_fmt(stats.mean.sigma_min[-1])}, sigma_min_std ="
            f" {_fmt(stats.std.sigma_min[-1])}"
        )
    else:
        tables = [(csv_path, OUTPUT_COLUMNS,
                   _trajectory_table(sched.tau, samples.kicks, samples.moments))]
        onset = samples.onset
        if onset is None:
            summary.append(
                "squeezing onset: none certified within"
                f" {sched.n_kicks} kicks (run ends unsqueezed or too short)"
            )
        else:
            summary.append(
                f"squeezing onset: kick {onset} (squeezing_db < 0 from here on)"
            )
        summary.append(
            f"final state (kick {int(samples.kicks[-1])}): "
            + _moment_text(samples.moments[-1].tolist())
            + f", squeezing_db = {_fmt(states['squeezing_db'][-1])}, "
            f"purity = {_fmt(states['purity'][-1])}"
        )

    if sched.intra_samples >= 2:
        if intra:
            tables.append((intra_path, _INTRA_COLUMNS, [offsets, intra_rows]))
            summary.append(
                f"intra-period trace: {sched.intra_samples} samples across one"
                f" period at the stationary state -> {intra_path}"
            )
        else:
            summary.append(
                "intra-period trace skipped: no stationary state to sample"
            )
    _write_tables(tables)
    written = [path for path, _, _ in tables]

    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(summary) + "\n")
    written.append(summary_path)

    if not quiet:
        for line in summary:
            print(line)
        for path in written:
            print(f"wrote {path}")
    return written
