"""Run orchestration: named presets, trajectory/ensemble CSVs, summary report.

A run resolves the kick strength (direct theta, or the pulse -> intracavity
field -> theta chain plus a validity report), iterates the stroboscopic map
(one noisy ensemble when configured), and writes:

  <base>.csv           sampled trajectory, columns in OUTPUT_COLUMNS order
  <base>.summary.txt   parameters, rho(A), stationary-state metrics, onset,
                       validity report, ensemble tail statistics
  <base>.intra.csv     optional fine trace of one period at the fixed point

Float cells use repr(), so every value round-trips bit-exactly and repeated
runs are byte-identical.
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
    UnphysicalStateError,
    cycle_map,
    intra_period_trace,
    metric_arrays,
    # unused since run_config reads samples.onset, but bench/tracing.py
    # patches every name of its PATCHES list on this module
    squeezing_onset,  # noqa: F401
    state_metrics,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
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


def _state_columns(states) -> dict[str, list[float]]:
    """Moment and metric columns of OUTPUT_COLUMNS, by name, one row per state."""
    states = list(states)
    q = np.array([v.sigma_q for v in states], dtype=float)
    qp = np.array([v.sigma_qp for v in states], dtype=float)
    p = np.array([v.sigma_p for v in states], dtype=float)
    sigma_min, phi_min, squeezing_db, purity, entropy, n_eff = metric_arrays(q, qp, p)
    columns = (q, qp, p, sigma_min, squeezing_db, phi_min, purity, entropy, n_eff)
    return {name: x.tolist() for name, x in zip(OUTPUT_COLUMNS[2:], columns)}


def _sampled_columns(tau: float, kicks, states) -> dict[str, list]:
    """All OUTPUT_COLUMNS for states sampled at the given kick indices."""
    columns = _state_columns(states)
    columns["kick_index"] = [int(n) for n in kicks]
    columns["time_s"] = (np.array(columns["kick_index"], dtype=float) * tau).tolist()
    return columns


def _write_table(path: str, header, columns: dict[str, list]) -> None:
    """One CSV row per entry of the columns, in header order, cells in repr."""
    cells = [map(repr, columns[name]) for name in header]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_row(header))
        fh.writelines(map(_csv_row, zip(*cells)))


def write_trajectory_csv(path: str, tau: float, samples) -> None:
    """Deterministic run: one row per sampled kick, OUTPUT_COLUMNS order."""
    columns = _sampled_columns(tau, (n for n, _ in samples), (v for _, v in samples))
    _write_table(path, OUTPUT_COLUMNS, columns)


def write_ensemble_csv(path: str, tau: float, stats: EnsembleStats) -> None:
    """Ensemble run: base columns are trajectory 0, then the mean/std block."""
    traj0 = stats.trajectory0.samples
    columns = _sampled_columns(tau, (n for n, _, _ in traj0), (v for _, v, _ in traj0))
    for name in ENSEMBLE_COLUMNS:
        # EnsembleStats fields are the column names without their unit
        field = name.replace("_rad", "").replace("_nats", "")
        columns[name] = getattr(stats, field).tolist()
    _write_table(path, OUTPUT_COLUMNS + ENSEMBLE_COLUMNS, columns)


def write_intra_csv(path: str, trace) -> None:
    """Fine-grained single-period trace at the stationary state."""
    columns = _state_columns(v for _, v in trace)
    columns["offset_s"] = [float(s) for s, _ in trace]
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
        f"sigma_min = {_fmt(m.sigma_min)}, "
        f"phi_min_rad = {_fmt(m.phi_min)}, "
        f"squeezing_db = {_fmt(m.squeezing_db)}, "
        f"purity = {_fmt(m.purity)}, "
        f"entropy_nats = {_fmt(m.entropy)}, "
        f"n_eff = {_fmt(m.n_eff)}"
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
        last = stats.trajectory0.samples[-1]
        summary.append(
            f"final row (kick {last[0]}): sigma_min_mean ="
            f" {_fmt(stats.sigma_min_mean[-1])}, sigma_min_std ="
            f" {_fmt(stats.sigma_min_std[-1])}"
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
