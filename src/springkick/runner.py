"""Run orchestration: named presets, trajectory/ensemble CSVs, summary report.

A run resolves the kick strength (direct theta, or the pulse -> intracavity
field -> theta chain plus a validity report), evolves the stroboscopic map
(in closed form where it is certified, else by binary powers; one noisy
ensemble when configured), and writes:

  <base>.csv           sampled trajectory, columns in OUTPUT_COLUMNS order
  <base>.summary.txt   parameters, rho(A), stationary-state metrics, onset,
                       validity report, ensemble tail statistics
  <base>.intra.csv     optional fine trace of one period at the fixed point

Every float cell is the text of Python's repr() (the shortest decimal that
reads back to the same double) and every integer cell (kick_index) plain
decimal digits, so values round-trip bit-exactly and repeated runs are
byte-identical.  _csv_body lays the cells out for a whole block of rows at
once in numpy and calls repr() only for the cells it cannot certify.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import EnsembleConfig, RunConfig, Schedule
from .ensemble import EnsembleStats, KickNoiseModel, run_ensemble, steady_tail_mean
from .moments import (
    CycleMap,
    MechanicalParams,
    NoStationaryStateError,
    StateMetrics,
    UnphysicalStateError,
    cycle_map,
    intra_period_trace,
    metric_arrays,
    state_metrics,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
# bound only because bench/tracing.py patches every name of its PATCHES list
# on this module; run_config reads stroboscopic_evolve's onset instead
from .moments import squeezing_onset  # noqa: F401
from .pulses import (
    BathParams,
    CavityParams,
    MembraneParams,
    PulseSpec,
    coupling_g2,
    regime_check,
    temperature_for_occupancy,
    theta_from_physical,
)

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
    physical route computes g2 and the intracavity trace, grades the model
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
    theta, trace = theta_from_physical(pulse, cavity, membrane, mech.omega_m)

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
        f"peak intracavity photon number = {_fmt(trace.peak)}",
        f"photon number integral = {_fmt(trace.integral())}",
        f"bath: omega_c_cutoff = {_fmt(bath.omega_c_cutoff)}, temperature ="
        f" {_fmt(bath.temperature)}",
        "validity report:",
    ]
    lines.extend("  " + ln for ln in report.lines())
    lines.append(f"  hard pass: {report.hard_pass}")
    return theta, lines


def _csv_row(cells) -> str:
    return ",".join(cells) + "\n"


# Rows per block of _csv_body.  A block's temporaries take a few hundred
# bytes per cell; a few thousand cells per block amortise numpy's per-call
# overhead.
_CSV_BLOCK = 256
# Text bytes per cell with its separator: the longest float and int reprs
# ('-2.2250738585072014e-308', '-9223372036854775808') have 24.
_CELL = 25
# Where a cell's 17 digits start in its row of '0' padding.
_DIGITS_AT = 4
_ROW = _DIGITS_AT + 17
# A rounding or round-trip test closer than this to its boundary (in units of
# the 17th digit, which the arithmetic resolves to about 1e-14) falls back.
_TIE = 1e-9
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
# _PREFIX[m] is 1 at the first m of a cell's _CELL bytes and 0 after them.
_PREFIX = (np.arange(_CELL) < np.arange(_CELL + 1)[:, None]).astype(np.uint8)


def _divmod(x, d: int):
    """divmod of a non-negative int64 array by a scalar (// beats % by far)."""
    q = x // d
    return q, x - q * d


def _shortest_digits(a):
    """repr's digits of doubles 1e-4 <= a < 1e16: the shortest that read back.

    Returns (digits, decpt, ok).  digits is an int64 of 17 digits, repr's
    digits padded with trailing zeros; a ~ 0.d1d2... * 10**decpt; ok is False
    where a rounding or round-trip test lies within _TIE of its boundary.

    The double-double hi + lo = a * 10**(16 - k), with k = floor(log10 a), is
    exact (Dekker's two-product of Veltkamp splits; 10**s is exact for s <=
    22).  Its integer part B has 17 digits.  B and the fraction past it round
    to 17, 16 and 15 digits, each straight from the exact value.  repr keeps
    the shortest candidate within half an ulp of a, or within a quarter ulp
    below a power of two, whose lower gap is half as wide.  The 17-digit
    candidate always is: it lies at most 0.5 of the 17th digit from a, and
    half an ulp is more than 0.55 of it.  A repr of 15 or fewer digits is
    the 15-digit candidate less its trailing zeros, since 15-digit decimals
    lie further apart than an ulp (Steele & White 1990; Loitsch, PLDI 2010).
    Below a power of two the nearest candidate of a length could miss the
    narrow gap while the next one up fits, and repr would keep that one; no
    power of two in [1e-4, 1e16) has such a length.
    """
    k = np.floor(np.log10(a)).astype(np.intp)
    s = 16 - k
    p, p_hi, p_lo = _POW10[s], _POW10_HI[s], _POW10_LO[s]
    a_hi, a_lo = _split(a)
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    lo_int = np.floor(lo)
    frac = lo - lo_int
    b17 = hi.astype(np.int64) + lo_int.astype(np.int64)
    # log10 can put a number next to a power of ten a decade off: fall back
    ok = (b17 >= _E16) & (b17 < _E17)
    b16, d17 = _divmod(b17, 10)
    b15, d16 = _divmod(b16, 10)
    # a past its 16th and its 15th digit, in units of the 17th digit
    r16 = d17 + frac  # in [0, 10)
    r15 = d16 * 10 + r16  # in [0, 100)
    up17, up16, up15 = frac > 0.5, r16 > 5.0, r15 > 50.0
    mant, exp = np.frexp(a)
    half_ulp = np.ldexp(p, exp - 54)  # in units of the 17th digit
    below = np.where(mant == 0.5, 0.5 * half_ulp, half_ulp)
    gap16 = np.where(up16, 10.0 - r16, r16)  # a to its 16-digit rounding
    gap15 = np.where(up15, 100.0 - r15, r15)
    lim16 = np.where(up16, half_ulp, below)
    lim15 = np.where(up15, half_ulp, below)
    margin = np.abs(frac - 0.5)
    for m in (r16 - 5.0, r15 - 50.0, gap16 - lim16, gap15 - lim15):
        np.minimum(margin, np.abs(m, out=m), out=margin)
    ok &= margin > _TIE
    digits = np.where(
        gap15 < lim15,
        (b15 + up15) * 100,
        np.where(gap16 < lim16, (b16 + up16) * 10, b17 + up17),
    )
    # 99...9 rounded up to 10**17 would need a to be the double nearest a
    # power of ten and below it, and no such double lies in [1e-4, 1e16)
    ok &= digits < _E17
    return digits, k + 1, ok


def _block_text(cols) -> bytes:
    """CSV text of a block of rows, given as equal-length int and float columns.

    Every cell goes into a double; integers below 2**53 stay exact there.  A
    float with 1e-4 <= |x| < 1e16 gets repr's digits from _shortest_digits,
    an int with 1 <= |x| < 2**53 its own digits the same way, and each is
    laid out in a uint8 row of _CELL bytes.  Every other cell (zeros,
    exponent notation, ints from 2**53, non-finite values, digits that are
    not certified) takes repr(float) or str(int).  A prefix mask then keeps
    each cell's text and separator.
    """
    n_rows, n_cols = len(cols[0]), len(cols)
    n = n_rows * n_cols
    is_int = np.array([c.dtype.kind in "iu" for c in cols])
    x = np.empty((n_rows, n_cols))
    for j, c in enumerate(cols):
        x[:, j] = c
    a = np.abs(x)
    ok = (a >= np.where(is_int, 1.0, 1e-4)) & (a < np.where(is_int, 2.0**53, 1e16))
    np.copyto(a, 1.0, where=~ok)
    digits, decpt, certified = _shortest_digits(a)
    ok &= certified
    decpt = np.where(ok, decpt, 1)  # keeps a falling-back cell's layout in range

    # The digits as ASCII: a lead digit and four 4-digit groups.
    lead, rest = _divmod(digits, _E16)
    halves = np.empty(rest.shape + (2,), np.int64)
    halves[..., 0], halves[..., 1] = _divmod(rest, 10**8)
    groups = np.empty(rest.shape + (4,), np.int64)
    groups[..., 0::2], groups[..., 1::2] = _divmod(halves, 10**4)
    zeros = _GROUP_ZEROS[groups]
    trailing = zeros[..., 0]
    for j in (1, 2, 3):
        trailing = np.where(zeros[..., j] == 4, trailing + 4, zeros[..., j])
    n_digits = 17 - trailing  # the lead digit is never 0
    # Each cell's digits in a row of '0' padding, after two bytes of margin.
    buf = np.full(2 + n * _ROW + _CELL, ord("0"), np.uint8)
    rows = buf[2 : 2 + n * _ROW].reshape(n_rows, n_cols, _ROW)
    rows[..., _DIGITS_AT] += lead.astype(np.uint8)
    rows[..., _DIGITS_AT + 1 :] = _GROUP_TEXT[groups].view(np.uint8)

    # A cell's text less its '.' is one window of its row, from the units
    # digit (the 0 of 0.00ddd) to the last digit, with one byte in front for
    # a '-'.  Text before the '.' comes from that window, text after it from
    # the window one byte earlier.
    neg = x < 0
    start = np.minimum(decpt, 1) + (_DIGITS_AT - 1) - neg
    dot = np.maximum(decpt, 1) + neg
    end = dot + ~is_int * (1 + np.maximum(n_digits - decpt, 1))
    windows = np.ndarray((len(buf) - _CELL + 1, _CELL), np.uint8, buf, strides=(1, 1))
    at = np.arange(2, 2 + n * _ROW, _ROW) + start.reshape(-1)
    text = windows[at]
    after = windows[at - 1]
    text -= after
    text *= _PREFIX[dot.reshape(-1)]
    text += after
    seps = np.full(n_cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    flat = text.reshape(-1)
    cell_at = np.arange(0, n * _CELL, _CELL).reshape(n_rows, n_cols)
    flat[cell_at + dot] = ord(".")  # an int's is overwritten next
    flat[cell_at + end] = seps
    flat[cell_at[neg]] = ord("-")
    # The cells that fall back, written over their rows in one scatter.
    end = end.reshape(-1)
    fall = np.flatnonzero(~ok)
    if fall.size:
        cells = [repr(v) for v in x.reshape(-1)[fall].tolist()]
        for k in np.flatnonzero(is_int[fall % n_cols]).tolist():
            row, col = divmod(int(fall[k]), n_cols)
            cells[k] = str(int(cols[col][row]))
        width = np.array([len(c) for c in cells])
        first = np.cumsum(width) - width
        chars = np.frombuffer("".join(cells).encode(), np.uint8)
        text[np.repeat(fall, width), np.arange(len(chars)) - np.repeat(first, width)] = chars
        text[fall, width] = seps[fall % n_cols]
        end[fall] = width
    return text[_PREFIX[end + 1].view(bool)].tobytes()


def _csv_body(columns):
    """CSV body of a table of int and float columns, _CSV_BLOCK rows at a time.

    Returns an iterator of bytes whose concatenation holds, for every row,
    ",".join(cells) + "\n", with repr() of each float cell and str() of each
    int cell.  Raises ValueError if the columns differ in length.
    """
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    n_rows = lengths[0] if lengths else 0
    return (
        _block_text([c[i : i + _CSV_BLOCK] for c in columns])
        for i in range(0, n_rows, _CSV_BLOCK)
    )


def _state_columns(moments) -> dict[str, np.ndarray]:
    """Moment and metric columns of OUTPUT_COLUMNS, by name, from (n, 3) moments."""
    q, qp, p = np.ascontiguousarray(np.transpose(moments), dtype=float)
    columns = {"sigma_q": q, "sigma_qp": qp, "sigma_p": p}
    columns.update(zip(_METRIC_COLUMNS, metric_arrays(q, qp, p)))
    return columns


def _sampled_columns(tau: float, kicks: np.ndarray, moments) -> dict[str, np.ndarray]:
    """All OUTPUT_COLUMNS for moments sampled at the given kick indices."""
    columns = _state_columns(moments)
    columns["kick_index"] = kicks
    columns["time_s"] = kicks * tau
    return columns


def _write_table(path: str, header, columns: dict[str, np.ndarray]) -> None:
    """One CSV row per entry of the columns, in header order."""
    body = _csv_body([columns[name] for name in header])
    with open(path, "wb") as fh:
        fh.write(_csv_row(header).encode())
        fh.writelines(body)


def write_trajectory_csv(path: str, tau: float, samples) -> None:
    """Deterministic run: one row per sampled kick, OUTPUT_COLUMNS order."""
    columns = _sampled_columns(tau, samples.kicks, samples.moments)
    _write_table(path, OUTPUT_COLUMNS, columns)


def write_ensemble_csv(path: str, tau: float, stats: EnsembleStats) -> None:
    """Ensemble run: base columns are trajectory 0, then the mean/std block."""
    traj0 = stats.trajectory0
    columns = _sampled_columns(tau, traj0.kicks, traj0.moments)
    for name, mean, std in zip(_METRIC_COLUMNS, stats.mean, stats.std):
        columns[name + "_mean"] = mean
        columns[name + "_std"] = std
    columns["squeezing_db_of_mean"] = stats.squeezing_db_of_mean
    _write_table(path, OUTPUT_COLUMNS + ENSEMBLE_COLUMNS, columns)


def write_intra_csv(path: str, trace) -> None:
    """Fine-grained single-period trace at the stationary state."""
    columns = _state_columns([v.as_array() for _, v in trace])
    columns["offset_s"] = np.array([s for s, _ in trace], dtype=float)
    _write_table(path, ("offset_s",) + OUTPUT_COLUMNS[2:], columns)


def _steady_lines(cycle: CycleMap) -> tuple[list[str], object | None]:
    lines = [f"cycle spectral radius rho(A) = {_fmt(cycle.spectral_radius)}"]
    try:
        v_inf = steady_state(cycle)
    except NoStationaryStateError as exc:
        lines.append(f"stationary state: none ({exc})")
        return lines, None
    except UnphysicalStateError as exc:
        lines.append(
            "stationary state: map fixed point is unphysical, model validity"
            f" exceeded ({exc})"
        )
        return lines, None
    m = state_metrics(v_inf)
    lines.append(
        "stationary state: "
        f"sigma_q = {_fmt(v_inf.sigma_q)}, "
        f"sigma_qp = {_fmt(v_inf.sigma_qp)}, "
        f"sigma_p = {_fmt(v_inf.sigma_p)}"
    )
    lines.append(
        "stationary metrics: "
        + ", ".join(f"{name} = {_fmt(x)}" for name, x in zip(_METRIC_COLUMNS, m))
    )
    return lines, v_inf


def output_paths(out: str) -> tuple[str, str, str]:
    """(csv, summary, intra) paths for one output stem or .csv path."""
    base = out[:-4] if out.endswith(".csv") else out
    return base + ".csv", base + ".summary.txt", base + ".intra.csv"


def run_config(config: RunConfig, out: str, quiet: bool = False) -> list[str]:
    """Execute one configured run and write its outputs.

    Returns the list of paths written.  Raises ConfigError/ValueError for
    bad inputs, OSError for unwritable outputs, DivergenceError for numerical
    blow-up; the CLI maps these to exit codes.
    """
    csv_path, summary_path, intra_path = output_paths(out)
    mech = config.mechanical
    sched = config.schedule

    theta, kick_lines = resolve_kick(config)
    cycle = cycle_map(mech, sched.tau, theta)

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
    steady_lines, v_inf = _steady_lines(cycle)
    summary.extend(steady_lines)

    written = []
    ens = config.ensemble
    if ens is not None and ens.enabled:
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
        write_ensemble_csv(csv_path, sched.tau, stats)
        written.append(csv_path)
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
        v0 = thermal_state(mech)
        samples = stroboscopic_evolve(v0, cycle, sched.n_kicks, sched.stride)
        write_trajectory_csv(csv_path, sched.tau, samples)
        written.append(csv_path)
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
        n_final, v_final = samples[-1]
        m_final = state_metrics(v_final)
        summary.append(
            f"final state (kick {n_final}): "
            f"sigma_q = {_fmt(v_final.sigma_q)}, "
            f"sigma_qp = {_fmt(v_final.sigma_qp)}, "
            f"sigma_p = {_fmt(v_final.sigma_p)}, "
            f"squeezing_db = {_fmt(m_final.squeezing_db)}, "
            f"purity = {_fmt(m_final.purity)}"
        )

    if sched.intra_samples >= 2:
        if v_inf is None:
            summary.append(
                "intra-period trace skipped: no stationary state to sample"
            )
        else:
            trace = intra_period_trace(v_inf, cycle, sched.intra_samples)
            write_intra_csv(intra_path, trace)
            written.append(intra_path)
            summary.append(
                f"intra-period trace: {sched.intra_samples} samples across one"
                f" period at the stationary state -> {intra_path}"
            )

    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(summary) + "\n")
    written.append(summary_path)

    if not quiet:
        for line in summary:
            print(line)
        for path in written:
            print(f"wrote {path}")
    return written
