"""Checks of each workload's outputs against computations made apart from springkick.

The reference values come from mpmath at 40 to 60 digits (the period map
from mpmath.expm of the augmented 4x4 drift, stationary states from an
mpmath linear solve, closed-form and quadrature pulse integrals) or from
properties the outputs must have (det >= 1/4, the onset between two rows,
byte-identical repeats).  The one exception is trajectory 0 of an ensemble,
which must be bit-identical to springkick's own single-trajectory path.

Each check_* function returns a list of problems; an empty list passes.

    python3 bench/check.py resonance   recompute the resonance reference table
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
import sys
from fractions import Fraction

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402

DPS = 40
RES_DPS = 60
# Componentwise agreement of float64 outputs with the high-precision value;
# sigma_qp is measured against sqrt(sigma_q sigma_p), its natural scale.
# Stationary states and intra-period rows agree to about 1e-11 and metrics to
# 4e-11; trajectory rows, after up to 1e6 float64 kicks, to about 1.5e-10.
STATE_RTOL = 1e-9
ROW_RTOL = 1e-8
METRIC_RTOL = 1e-9
# theta from the program's trapezoid on its default grid, against the exact
# integral: the grid steps are 1/1000 of the fastest time scale.
THETA_RTOL = 1e-5
# Largest |z| allowed between an ensemble's n_eff_mean column and the exact
# mean recursion.
Z_MAX = 6.0
# Rows of each deterministic CSV checked against the closed form.
SAMPLED_ROWS = 8

OUTPUT_COLUMNS = [
    "kick_index", "time_s", "sigma_q", "sigma_qp", "sigma_p", "sigma_min",
    "squeezing_db", "phi_min_rad", "purity", "entropy_nats", "n_eff",
]
ENSEMBLE_COLUMNS = [
    "sigma_min_mean", "sigma_min_std", "squeezing_db_of_mean", "squeezing_db_mean",
    "squeezing_db_std", "phi_min_rad_mean", "phi_min_rad_std", "purity_mean",
    "purity_std", "entropy_nats_mean", "entropy_nats_std", "n_eff_mean", "n_eff_std",
]
INTRA_COLUMNS = ["offset_s"] + OUTPUT_COLUMNS[2:]


# ---------------------------------------------------------------- reference


class Period:
    """One kick-then-flight period at high precision: v -> A v + c."""

    def __init__(self, omega, gamma, n_bar, tau, theta, dps=DPS):
        self.dps = dps
        self.omega, self.gamma, self.n_bar = omega, gamma, n_bar
        self.tau, self.theta = tau, theta
        with mp.workdps(dps):
            self.M, self.c = self.flow(tau)
            th = mp.mpf(theta)
            self.K = mp.matrix([[1, 0, 0], [-2 * th, 1, 0], [4 * th * th, -4 * th, 1]])
            self.A = self.M * self.K

    def flow(self, s):
        """Exact free flight for time s: (M, c) from expm of the augmented drift."""
        with mp.workdps(self.dps):
            w, g = mp.mpf(self.omega), mp.mpf(self.gamma)
            F = mp.matrix(4, 4)
            F[0, 1] = 2 * w
            F[1, 0], F[1, 1], F[1, 2] = -w, -g, w
            F[2, 1], F[2, 2] = -2 * w, -2 * g
            F[2, 3] = g * (2 * mp.mpf(self.n_bar) + 1)
            E = mp.expm(F * mp.mpf(s))
            M = mp.matrix([[E[i, j] for j in range(3)] for i in range(3)])
            c = mp.matrix([E[i, 3] for i in range(3)])
            return M, c

    def stationary(self):
        with mp.workdps(self.dps):
            return mp.lu_solve(mp.eye(3) - self.A, self.c)

    def radius(self):
        with mp.workdps(self.dps):
            return max(abs(x) for x in mp.eig(self.A, left=False, right=False))

    def state(self, v0, n):
        """Closed form A^n (v0 - v_inf) + v_inf."""
        with mp.workdps(self.dps):
            v_inf = self.stationary()
            return self.A ** int(n) * (mp.matrix(v0) - v_inf) + v_inf


def hp_metrics(v) -> dict:
    """Metrics of a state at high precision, with the same conventions."""
    with mp.workdps(DPS):
        q, qp, p = (mp.mpf(x) for x in v)
        d = p - q
        spread = mp.sqrt(d * d + 4 * qp * qp)
        sigma_min = (p + q - spread) / 2
        nu = mp.sqrt(max(q * p - qp * qp, mp.mpf(1) / 4))
        a, b = nu + mp.mpf(1) / 2, nu - mp.mpf(1) / 2
        entropy = a * mp.log(a) - (b * mp.log(b) if b > 0 else 0)
        return dict(
            sigma_min=sigma_min,
            squeezing_db=10 * mp.log10(2 * sigma_min),
            phi_min_rad=mp.atan2(-2 * qp, d) / 2 if spread > 0 else mp.mpf(0),
            purity=1 / (2 * nu),
            entropy_nats=entropy,
            n_eff=(p + q - 1) / 2,
            # conditioning of phi: |d phi| ~ eps (p + q) / spread
            phi_scale=(p + q) / spread if spread > 0 else mp.inf,
        )


def _state_problems(label, got, ref, rtol=STATE_RTOL) -> list[str]:
    q, qp, p = (mp.mpf(x) for x in ref)
    scales = (abs(q), mp.sqrt(abs(q * p)), abs(p))
    out = []
    for name, g, r, s in zip(("sigma_q", "sigma_qp", "sigma_p"), got, ref, scales):
        err = abs(mp.mpf(g) - r) / s
        if not err <= rtol:
            out.append(f"{label}: {name} = {g!r}, reference {mp.nstr(r, 17)} (rel err {mp.nstr(err, 3)})")
    return out


def _metric_problems(label, got: dict, state) -> list[str]:
    """Metric columns of a state against their high-precision values at that state."""
    ref = hp_metrics(state)
    out = []
    for name in ("sigma_min", "squeezing_db", "phi_min_rad", "purity", "entropy_nats", "n_eff"):
        g, r = mp.mpf(got[name]), ref[name]
        if name == "phi_min_rad":
            tol = METRIC_RTOL + 1e-13 * ref["phi_scale"]
        elif name in ("squeezing_db", "entropy_nats"):
            tol = METRIC_RTOL * max(1, abs(r))
        else:
            tol = METRIC_RTOL * abs(r)
        if not abs(g - r) <= tol:
            out.append(f"{label}: {name} = {got[name]!r}, reference {mp.nstr(r, 17)}")
    return out


# ---------------------------------------------------------------- parsing


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_summary(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


_NUM = r"(-?[0-9][0-9.e+-]*|-?inf|nan)"


def summary_fields(text: str, prefix: str) -> dict | None:
    """key = value pairs of the summary line starting with prefix, as floats."""
    for line in text.splitlines():
        if line.strip().startswith(prefix):
            return {k: float(v) for k, v in re.findall(r"(\w+) = " + _NUM, line)}
    return None


def summary_value(text: str, pattern: str) -> str | None:
    m = re.search(pattern, text, re.M)
    return m.group(1) if m else None


def _stationary_problems(label, text, period: Period) -> list[str]:
    st = summary_fields(text, "stationary state: sigma_q")
    if st is None:
        line = summary_value(text, r"^(stationary state: .*)$")
        return [f"{label}: no stationary state printed ({line}); reference rho(A) = "
                f"{mp.nstr(period.radius(), 12)}"]
    got = (st["sigma_q"], st["sigma_qp"], st["sigma_p"])
    ref = period.stationary()
    out = _state_problems(f"{label} stationary", got, ref)
    metrics = summary_fields(text, "stationary metrics:")
    if metrics is None:
        out.append(f"{label}: no stationary metrics line")
    else:
        out += _metric_problems(f"{label} stationary metrics", metrics, ref)
    return out


# ---------------------------------------------------------------- workloads


def _thermal(n_bar):
    return [n_bar + 0.5, 0.0, n_bar + 0.5]


def sampled_rows(label, seed, n_rows) -> list[int]:
    """Row numbers checked against the closed form: first, last and a seeded few."""
    rng = random.Random(f"rows:{label}:{seed}")
    return sorted({0, n_rows - 1, *rng.sample(range(1, n_rows - 1), SAMPLED_ROWS)})


def check_trajectory_csv(label, path, period: Period, v0, n_kicks, stride, seed) -> list[str]:
    """Rows of a deterministic run: layout, det >= 1/4, sampled rows vs the closed form."""
    header, rows = read_csv(path)
    out = []
    if header != OUTPUT_COLUMNS:
        return [f"{label}: header {header}"]
    kicks = list(range(0, n_kicks + 1, stride))
    if kicks[-1] != n_kicks:
        kicks.append(n_kicks)
    if [int(r[0]) for r in rows] != kicks:
        return [f"{label}: kick indices are not 0, {stride}, ..., {n_kicks}"]
    quarter = Fraction(1, 4)
    for r in rows:
        q, qp, p = (Fraction(float(x)) for x in r[2:5])
        # exact det of the printed values, allowing rounding at operand scale
        if q * p - qp * qp < quarter - Fraction(1e-12) * q * p:
            out.append(f"{label}: row kick {r[0]} has det {float(q * p - qp * qp)!r} < 1/4")
            break
        if float(r[1]) != int(r[0]) * period.tau:
            out.append(f"{label}: row kick {r[0]} time_s {r[1]}")
            break
    for i in sampled_rows(label, seed, len(rows)):
        r = rows[i]
        got = [float(x) for x in r[2:5]]
        ref = period.state(v0, int(r[0]))
        out += _state_problems(f"{label} row kick {r[0]}", got, ref, ROW_RTOL)
        named = dict(zip(OUTPUT_COLUMNS[5:], (float(x) for x in r[5:11])))
        out += _metric_problems(f"{label} row kick {r[0]}", named, got)
    return out


def check_onset(label, text, rows, period: Period) -> list[str]:
    """The printed onset N against the sampled rows on either side of it.

    From the row before N, the map is applied kick by kick at high precision
    up to the row at or after N: the last unsqueezed kick on the way must be
    N - 1, and the state reached must match that row.  Every row from N on
    must be squeezed.  sigma_min dips below vacuum and back between rows
    before the onset, so the row before it may be squeezed itself.
    """
    onset = summary_value(text, r"^squeezing onset: kick (\d+)")
    if onset is None:
        return [f"{label}: no squeezing onset printed"]
    n = int(onset)
    i_after = next((i for i, r in enumerate(rows) if int(r[0]) >= n), None)
    if i_after is None or i_after == 0:
        return [f"{label}: onset {n} is not between two rows"]
    before, after = rows[i_after - 1], rows[i_after]
    out = []
    with mp.workdps(period.dps):
        v = mp.matrix([float(x) for x in before[2:5]])
        last = None
        for k in range(int(before[0]), int(after[0]) + 1):
            if k > int(before[0]):
                v = period.A * v + period.c
            q, qp, p = v
            if p + q - mp.sqrt((p - q) ** 2 + 4 * qp * qp) >= 1:
                last = k
    if last != n - 1:
        out.append(f"{label}: onset {n}, but between kicks {before[0]} and {after[0]} the "
                   f"last unsqueezed kick is {last}")
    out += _state_problems(f"{label} row kick {after[0]} from row {before[0]}",
                           [float(x) for x in after[2:5]], v, ROW_RTOL)
    if any(not float(r[6]) < 0.0 for r in rows[i_after:]):
        out.append(f"{label}: a row at or after onset {n} is not squeezed")
    return out


def check_deterministic(out_dir, seed) -> list[str]:
    out = []
    for name in ("fig1", "fig2"):
        period = Period(W.FIG_OMEGA, W.FIG_GAMMA, W.FIG_NBAR[name], W.FIG_TAU, W.FIG_THETA)
        v0 = _thermal(W.FIG_NBAR[name])
        text = read_summary(os.path.join(out_dir, name + ".summary.txt"))
        path = os.path.join(out_dir, name + ".csv")
        out += check_trajectory_csv(name, path, period, v0, W.DET_KICKS, W.STRIDE, seed)
        out += _stationary_problems(name, text, period)
        _, rows = read_csv(path)
        out += check_onset(name, text, rows, period)
        final = summary_fields(text, "final state")
        last = [float(x) for x in rows[-1][2:5]]
        if final is None or [final["sigma_q"], final["sigma_qp"], final["sigma_p"]] != last:
            out.append(f"{name}: final state line does not match the last row")
    return out


def mean_recursion(n_bar, tau, theta, variance, kicks):
    """Exact E[x_n] at the given kicks: E[x_{n+1}] = M E[K(theta)] E[x_n] + c,
    with E[theta^2] = mu^2 + sigma^2 in E[K]."""
    period = Period(W.FIG_OMEGA, W.FIG_GAMMA, n_bar, tau, theta)
    with mp.workdps(DPS):
        mu = mp.mpf(theta)
        EK = mp.matrix([[1, 0, 0], [-2 * mu, 1, 0], [4 * (mu * mu + mp.mpf(variance)), -4 * mu, 1]])
        A = period.M * EK
        x_inf = mp.lu_solve(mp.eye(3) - A, period.c)
        x0 = mp.matrix(_thermal(n_bar))
        return {n: A ** int(n) * (x0 - x_inf) + x_inf for n in kicks}


def _trajectory0_problems(label, rows, seed, n_kicks, stride) -> list[str]:
    """Base columns must be bit-identical to run_trajectory(trajectory_seed(seed, 0))."""
    import springkick

    params = springkick.MechanicalParams(W.FIG_OMEGA, W.FIG_GAMMA, W.FIG_NBAR["fig3"])
    noise = springkick.KickNoiseModel(W.FIG_THETA, W.FIG_VARIANCE)
    traj = springkick.run_trajectory(
        params, W.FIG_TAU, noise, n_kicks, stride, springkick.trajectory_seed(seed, 0)
    )
    if len(traj.samples) != len(rows):
        return [f"{label}: {len(rows)} rows, trajectory 0 has {len(traj.samples)} samples"]
    for r, (n, v, m) in zip(rows, traj.samples):
        want = [str(n)] + [
            repr(float(x))
            for x in (n * W.FIG_TAU, v.sigma_q, v.sigma_qp, v.sigma_p, m.sigma_min,
                      m.squeezing_db, m.phi_min, m.purity, m.entropy, m.n_eff)
        ]
        if r[:11] != want:
            return [f"{label}: trajectory 0 differs from run_trajectory at kick {n}"]
    return []


def check_ensemble_csv(label, path, seed, n_kicks, n_traj) -> list[str]:
    header, rows = read_csv(path)
    if header != OUTPUT_COLUMNS + ENSEMBLE_COLUMNS:
        return [f"{label}: header {header}"]
    kicks = [int(r[0]) for r in rows]
    if kicks != list(range(0, n_kicks + 1, W.STRIDE)):
        return [f"{label}: kick indices are not 0, {W.STRIDE}, ..., {n_kicks}"]
    out = _trajectory0_problems(label, rows, seed, n_kicks, W.STRIDE)
    exact = mean_recursion(W.FIG_NBAR["fig3"], W.FIG_TAU, W.FIG_THETA, W.FIG_VARIANCE, kicks)
    i_mean = header.index("n_eff_mean")
    i_std = header.index("n_eff_std")
    z_max, at = 0.0, None
    for r in rows:
        x = exact[int(r[0])]
        mean_ref = (x[0] + x[2] - 1) / 2
        mean, std = float(r[i_mean]), float(r[i_std])
        if std == 0.0:
            # identical trajectories (the start): the mean is exact
            if abs(mean - mean_ref) > 1e-12 * abs(mean_ref):
                out.append(f"{label}: kick {r[0]} n_eff_mean {mean!r} with zero spread, exact {mp.nstr(mean_ref, 17)}")
            continue
        z = float((mean - mean_ref) / (std / math.sqrt(n_traj - 1)))
        if not abs(z) <= z_max:
            z_max, at = abs(z), r[0]
    if not z_max <= Z_MAX:
        out.append(f"{label}: n_eff_mean is {z_max:.2f} standard errors from the exact mean at kick {at}")
    return out


def _tail_problems(label, rows, header, tail: dict) -> list[str]:
    """Tail averages over the last 10% of kicks, recomputed from the CSV."""
    kicks = [int(r[0]) for r in rows]
    cut = kicks[-1] - int(0.1 * kicks[-1])
    sel = [r for r, n in zip(rows, kicks) if n > cut]
    out = []
    for key, col in (("sigma_min_mean", "sigma_min_mean"), ("n_eff_mean", "n_eff_mean"),
                     ("purity_mean", "purity_mean")):
        i = header.index(col)
        ref = math.fsum(float(r[i]) for r in sel) / len(sel)
        got = tail.get(key)
        if got is None or not abs(got - ref) <= 1e-12 * abs(ref):
            out.append(f"{label}: tail {key} = {got!r}, mean of the last rows {ref!r}")
    sm = tail.get("sigma_min_mean")
    db = tail.get("squeezing_db_of_mean")
    if sm is not None and (db is None or abs(db - 10 * math.log10(2 * sm)) > 1e-12 * abs(db)):
        out.append(f"{label}: tail squeezing_db_of_mean {db!r} is not 10 log10(2 sigma_min_mean)")
    return out


def check_ensemble(out_dir, seed) -> list[str]:
    path = os.path.join(out_dir, "fig3.csv")
    text = read_summary(os.path.join(out_dir, "fig3.summary.txt"))
    out = check_ensemble_csv("fig3", path, W.base_seed(seed), W.ENS_KICKS, W.ENS_WIDTH)
    period = Period(W.FIG_OMEGA, W.FIG_GAMMA, W.FIG_NBAR["fig3"], W.FIG_TAU, W.FIG_THETA)
    out += _stationary_problems("fig3", text, period)
    header, rows = read_csv(path)
    tail = {}
    for key in ("squeezing_db_of_mean", "sigma_min_mean", "purity_mean", "n_eff_mean"):
        v = summary_value(text, rf"^  {key} = {_NUM}")
        if v is not None:
            tail[key] = float(v)
    return out + _tail_problems("fig3", rows, header, tail)


def check_wide(out_dir, seed) -> list[str]:
    path = os.path.join(out_dir, "wide.csv")
    out = check_ensemble_csv("wide", path, W.base_seed(seed), W.WIDE_KICKS, W.WIDE_WIDTH)
    header, rows = read_csv(path)
    tail = {}
    with open(os.path.join(out_dir, "wide.tail.txt"), encoding="utf-8") as fh:
        for line in fh:
            k, v = line.split(" = ")
            tail[k] = float(v)
    return out + _tail_problems("wide", rows, header, tail)


# ---------------------------------------------------------------- pulses

HBAR = mp.mpf("6.62607015e-34") / (2 * mp.pi)  # h is exact in SI since 2019
C_LIGHT = mp.mpf(299792458)


def photon_integral(kick: dict, tau: float) -> mp.mpf:
    """Integral of |alpha|^2 over the grid's span [0, min(tau, end + 40/kappa)],
    alpha' = -kappa alpha + E0(t): closed form for rectangular pulses, mpmath
    quadrature of the erf solution for gaussian ones."""
    with mp.workdps(30):
        kappa = mp.mpf(kick["kappa_0"]) + mp.mpf(kick.get("kappa_loss", 0.0))
        tp = mp.mpf(kick["pulse_duration"])
        omega_c = 2 * mp.pi * C_LIGHT / mp.mpf(kick["wavelength"])
        E = mp.sqrt(2 * mp.mpf(kick["peak_power"]) * mp.mpf(kick["kappa_0"]) / (HBAR * omega_c))
        rect = kick["shape"] == "rectangular"
        end = tp if rect else 4 * tp
        T = min(mp.mpf(tau), end + 40 / kappa)
        if rect:
            a_end = E / kappa * (1 - mp.exp(-kappa * tp))
            on = (E / kappa) ** 2 * (
                tp - 2 * (1 - mp.exp(-kappa * tp)) / kappa + (1 - mp.exp(-2 * kappa * tp)) / (2 * kappa)
            )
            return on + a_end**2 * (1 - mp.exp(-2 * kappa * (T - tp))) / (2 * kappa)
        # E0(t) = E exp(-c (t - m)^2); alpha = E e^{-kappa t} int_0^t e^{kappa s - c (s-m)^2} ds
        m = tp / 2
        c = 2 * mp.log(2) / tp**2
        s0 = m + kappa / (2 * c)
        pref = E * mp.exp(kappa * m + kappa**2 / (4 * c)) * mp.sqrt(mp.pi / c) / 2
        rc = mp.sqrt(c)

        def alpha(t):
            return pref * mp.exp(-kappa * t) * (mp.erf(rc * (t - s0)) + mp.erf(rc * s0))

        pts = [0, m, 2 * m, 4 * tp] + [4 * tp + j / kappa for j in (1, 4, 16) if 4 * tp + j / kappa < T] + [T]
        return mp.quad(lambda t: alpha(t) ** 2, pts)


def coupling_g2(kick: dict, omega_m: float) -> mp.mpf:
    with mp.workdps(30):
        R = mp.mpf(kick["reflectivity"])
        pref = 16 * mp.pi**2 * C_LIGHT * HBAR / (
            mp.mpf(kick["wavelength"]) ** 2 * mp.mpf(kick["cavity_length"]) * mp.mpf(kick["mass"]) * mp.mpf(omega_m)
        )
        return pref * mp.sqrt(R / (1 - R))


def check_sweep_point(point: dict, out_dir: str, code: int) -> list[str]:
    name = point["name"]
    if code != 0:
        return [f"{name}: exit code {code}"]
    text = read_summary(os.path.join(out_dir, name + ".summary.txt"))
    out = []
    kick = point["kick"]
    if "theta" in kick:
        theta = kick["theta"]
    else:
        theta_s = summary_value(text, rf"^kick theta = {_NUM}")
        g2_s = summary_value(text, rf"^coupling g2 = {_NUM}")
        integral_s = summary_value(text, rf"^photon number integral = {_NUM}")
        if None in (theta_s, g2_s, integral_s):
            return [f"{name}: pulse-chain lines missing from the summary"]
        g2 = coupling_g2(kick, point["omega_m"])
        integral = photon_integral(kick, point["tau"])
        for label, got, ref, tol in (
            ("coupling g2", g2_s, g2, 1e-12),
            ("photon number integral", integral_s, integral, THETA_RTOL),
            ("kick theta", theta_s, 2 * g2 * integral, THETA_RTOL),
        ):
            if not abs(mp.mpf(float(got)) - ref) <= tol * abs(ref):
                out.append(f"{name}: {label} = {got}, reference {mp.nstr(ref, 12)}")
        if "validity report:" not in text:
            out.append(f"{name}: no validity report")
        theta = float(theta_s)
    dps = RES_DPS if point["expect_fault"] else DPS
    period = Period(point["omega_m"], point["gamma_m"], point["n_bar"], point["tau"], theta, dps)
    st = _stationary_problems(name, text, period)
    out += st
    if st:
        return out
    # the intra-period trace: kicked stationary state, flown for s = j tau/(n-1)
    header, rows = read_csv(os.path.join(out_dir, name + ".intra.csv"))
    if header != INTRA_COLUMNS or len(rows) != W.SWEEP_INTRA:
        return out + [f"{name}: intra-period trace layout"]
    v_inf = period.stationary()
    with mp.workdps(dps):
        kicked = period.K * v_inf
    for j in (0, W.SWEEP_INTRA // 2, W.SWEEP_INTRA - 1):
        s = point["tau"] * j / (W.SWEEP_INTRA - 1)
        if float(rows[j][0]) != s:
            out.append(f"{name}: intra row {j} offset {rows[j][0]}, expected {s!r}")
            continue
        M, c = period.flow(s)
        with mp.workdps(dps):
            ref = M * kicked + c
        got = [float(x) for x in rows[j][1:4]]
        out += _state_problems(f"{name} intra row {j}", got, ref)
        out += _metric_problems(
            f"{name} intra row {j}", dict(zip(INTRA_COLUMNS[4:], (float(x) for x in rows[j][4:]))), got
        )
    return out


def check_sweep(out_dir, seed, codes: dict) -> tuple[list[str], list[str]]:
    """(problems, failed): a point marked expect_fault that fails its checks is a
    failed operation; any other problem is a wrong output."""
    problems, failed = [], []
    for point in W.sweep_points(seed):
        p = check_sweep_point(point, out_dir, codes[point["name"]])
        if p and point["expect_fault"]:
            failed.append(point["name"])
        else:
            problems += p
    return problems, failed


def check_repeats(rounds: list[dict]) -> list[str]:
    """Every round's outputs must be byte-identical to the first round's."""
    first = rounds[0]["hashes"]
    for i, r in enumerate(rounds[1:], 1):
        if r["hashes"] != first:
            diff = sorted(k for k in set(first) | set(r["hashes"]) if first.get(k) != r["hashes"].get(k))
            return [f"round {i} outputs differ from round 0: {diff[:5]}"]
        if r["codes"] != rounds[0]["codes"]:
            return [f"round {i} exit codes differ from round 0"]
    return []


def check_outputs(workload, out_dir, seed, codes: dict) -> tuple[list[str], list[str]]:
    """(problems, failed operations) for the last round's outputs."""
    if workload == "deterministic":
        bad = [f"{k}: exit code {c}" for k, c in codes.items() if c != 0]
        return bad or check_deterministic(out_dir, seed), []
    if workload == "ensemble":
        bad = [f"fig3: exit code {codes['fig3']}"] if codes["fig3"] != 0 else []
        return bad or check_ensemble(out_dir, seed), []
    if workload == "ensemble-wide":
        return check_wide(out_dir, seed), []
    return check_sweep(out_dir, seed, codes)


def resonance_table() -> None:
    """Print the resonance points: rho(A), stationary state and sigma_min at 60 digits."""
    r = W.RESONANCE
    for k in (1, 2, 3):
        period = Period(r["omega_m"], r["gamma_m"], r["n_bar"], k * math.pi / r["omega_m"],
                        r["theta"], RES_DPS)
        v = period.stationary()
        m = hp_metrics(v)
        print(
            f"k={k}: rho(A) = {mp.nstr(period.radius(), 12)}, sigma_q = {mp.nstr(v[0], 8)}, "
            f"sigma_qp = {mp.nstr(v[1], 8)}, sigma_p = {mp.nstr(v[2], 8)}, "
            f"sigma_min = {mp.nstr(m['sigma_min'], 10)} ({mp.nstr(m['squeezing_db'], 4)} dB)"
        )


if __name__ == "__main__":
    if sys.argv[1:] == ["resonance"]:
        resonance_table()
    else:
        raise SystemExit("usage: python3 bench/check.py resonance")
