"""Independent oracles the library must agree with.

Deliberately use different algorithms from the package: componentwise RK4
and the moment equations written out as a matrix instead of the closed-form
flight, brute-force phase scanning instead of the closed-form minimum,
iteration to convergence and a 60-digit 3x3 solve instead of the 2x2 map's
limit, mpmath's eigenvalues of the 3x3 map instead of the 2x2 map's trace,
high-precision matrix powers of the period map instead of its closed-form
power, the period map iterated kick by kick instead of powered, and a noisy
ensemble stepped kick by kick instead of composed from segment maps.

The 3x3 route is the reference those loops run on: the period as an affine
map v -> A v + b on the moment vector v = (sigma_q, sigma_qp, sigma_p),
with A = M(tau) K(theta).  M(t) is the congruence by the package's flight F
(its symmetric Kronecker square), b = v_inh(t) the flight's noise, and
K(theta) the image of the shear p -> p - 2 theta q on the moments.
"""

import itertools
import math

import mpmath as mp
import numpy as np

from springkick import (
    VACUUM_VARIANCE,
    CycleMap,
    DivergenceError,
    KickNoiseModel,
    MomentVector,
    NoStationaryStateError,
)
from springkick.ensemble import _generator
from springkick.moments import (
    MechanicalParams,
    Samples,
    _check_finite,
    _check_physical,
    _congruence,
    _flight,
    _sample_indices,
)


def flight_map(params: MechanicalParams, t: float):
    """(M, v_inh) of the free flight over t on the moments, as arrays: M is
    the congruence by _flight's F.  Raises ValueError unless t is finite and
    >= 0."""
    F, v_inh = _flight(params, t)
    return np.array(_congruence(F)), np.array(v_inh)


def propagate(v: MomentVector, params: MechanicalParams, t: float) -> MomentVector:
    """v after the free flight over t, M v + v_inh."""
    M, v_inh = flight_map(params, t)
    return MomentVector(*(M @ v.as_array() + v_inh).tolist())


def kick_matrix(theta: float) -> np.ndarray:
    """K(theta), the image on the moments of the shear p -> p - 2 theta q."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [-2.0 * theta, 1.0, 0.0],
            [4.0 * theta * theta, -4.0 * theta, 1.0],
        ]
    )


def period_map(cycle: CycleMap):
    """(A, b) of the cycle's period v -> A v + b on the moments:
    A = M(tau) K(theta) and b = v_inh(tau)."""
    M = np.array(_congruence(cycle.F.tolist()))
    return M @ kick_matrix(cycle.theta), cycle.v_inh


def _unpack_cycle(cycle: CycleMap):
    # Python floats: same IEEE doubles, but the hot loops run on them faster
    # and overflow to inf silently instead of spamming numpy warnings.
    m0, m1, m2 = _congruence(cycle.F.tolist())
    return (*m0, *m1, *m2, *cycle.v_inh.tolist())


# Kicks after which _iterate checks the rows it has sampled since its last
# check: one array check, a few microseconds, per at least 5 ms of kicks at
# stride 1, and one per sample at strides above it.
_PHYSICAL_SPAN = 1 << 14


def _iterate(
    v0: MomentVector,
    cycle: CycleMap,
    n_kicks: int,
    sample_stride: int = 1,
) -> Samples:
    """stroboscopic_evolve's samples and onset, iterating the map kick by kick.

    The reference loop for stroboscopic_evolve, which evaluates powers of
    the period map instead.  Every period is tested for squeezing in the
    same pass.  Raises DivergenceError at the first sampled state whose
    determinant float64 no longer holds (_check_finite), without iterating
    past it, and with _check_physical's error at the first unphysical
    sampled state, iterating about _PHYSICAL_SPAN kicks past it at most.
    """
    kicks = _sample_indices(n_kicks, sample_stride).tolist()
    theta = cycle.theta
    t2 = 2.0 * theta
    t4 = 4.0 * theta
    t4sq = t4 * theta
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cycle)
    hypot = math.hypot

    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    # 2*sigma_min >= 2*vacuum: the state at this kick is not squeezed.  This
    # keeps the subtraction that metric_arrays replaced with det/(larger
    # eigenvalue): its error is about eps*(p + q), so it can misjudge a kick
    # only when sigma_min is that close to 1/2, and the stable form would add
    # a division to every kick of the hot loop.  hypot, not the square root
    # of d^2 + 4 qp^2, which overflows to inf from moments of about 1e154.
    last_unsqueezed = 0 if p + q - hypot(p - q, 2.0 * qp) >= 1.0 else -1
    rows = [(q, qp, p)]
    checked = 1  # rows[:checked] have met _check_physical; rows[0] is v0
    for n, end in itertools.pairwise(kicks):
        for k in range(n + 1, end + 1):
            qp_k = qp - t2 * q
            p_k = p - t4 * qp + t4sq * q
            q_new = m00 * q + m01 * qp_k + m02 * p_k + b0
            qp = m10 * q + m11 * qp_k + m12 * p_k + b1
            p = m20 * q + m21 * qp_k + m22 * p_k + b2
            q = q_new
            if p + q - hypot(p - q, 2.0 * qp) >= 1.0:
                last_unsqueezed = k
        _check_finite((end,), q, qp, p)
        rows.append((q, qp, p))
        if end - kicks[checked - 1] >= _PHYSICAL_SPAN or end == n_kicks:
            _check_physical(*np.array(rows[checked:]).T, kicks[checked:len(rows)])
            checked = len(rows)
    moments = np.array(rows, dtype=float)
    onset = None if last_unsqueezed == n_kicks else last_unsqueezed + 1
    return Samples(np.array(kicks), moments, onset)


def rk4_free(omega_m: float, gamma_m: float, n_bar: float, v0, t_total: float, n_steps: int):
    """Fixed-step RK4 for the free-evolution moment equations.

    d(sigma_q)/dt  =  2 w sigma_qp
    d(sigma_qp)/dt = -w sigma_q - g sigma_qp + w sigma_p
    d(sigma_p)/dt  = -2 w sigma_qp - 2 g sigma_p + g (2 n_bar + 1)
    """
    w, g = omega_m, gamma_m
    drive = g * (2.0 * n_bar + 1.0)

    def rhs(q, c, p):
        return (
            2.0 * w * c,
            -w * q - g * c + w * p,
            -2.0 * w * c - 2.0 * g * p + drive,
        )

    h = t_total / n_steps
    q, c, p = float(v0[0]), float(v0[1]), float(v0[2])
    for _ in range(n_steps):
        a1, b1, c1 = rhs(q, c, p)
        a2, b2, c2 = rhs(q + 0.5 * h * a1, c + 0.5 * h * b1, p + 0.5 * h * c1)
        a3, b3, c3 = rhs(q + 0.5 * h * a2, c + 0.5 * h * b2, p + 0.5 * h * c2)
        a4, b4, c4 = rhs(q + h * a3, c + h * b3, p + h * c3)
        q += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        c += (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        p += (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    return np.array([q, c, p])


def drift_matrix(omega_m: float, gamma_m: float, n_bar: float):
    """(B, b) of the free-evolution moment equations dv/dt = B v + b, as
    written out in rk4_free."""
    w, g = omega_m, gamma_m
    B = np.array([[0.0, 2.0 * w, 0.0], [-w, -g, w], [0.0, -2.0 * w, -2.0 * g]])
    b = np.array([0.0, 0.0, g * (2.0 * n_bar + 1.0)])
    return B, b


def phase_scan_min(sigma_q: float, sigma_qp: float, sigma_p: float, n: int = 10_000):
    """Minimum rotated variance by brute-force scan, refined once.

    variance(phi) = sigma_q cos^2 + sigma_p sin^2 + sigma_qp sin(2 phi).
    A coarse n-point scan over (-pi/2, pi/2] brackets the minimum; a second
    n-point scan inside the bracket pins it to ~(pi/n^2) in phase.  The
    variance has period pi, so the bracket runs one coarse step either side
    of the coarse minimum even across +-pi/2, and the phase returned may lie
    just outside (-pi/2, pi/2].
    """

    def variance(phi):
        c, s = np.cos(phi), np.sin(phi)
        return sigma_q * c * c + sigma_p * s * s + sigma_qp * np.sin(2.0 * phi)

    phis = np.linspace(-np.pi / 2, np.pi / 2, n, endpoint=True)
    var = variance(phis)
    i = int(np.argmin(var))
    step = phis[1] - phis[0]
    fine = np.linspace(phis[i] - step, phis[i] + step, n)
    var_f = variance(fine)
    j = int(np.argmin(var_f))
    return float(var_f[j]), float(fine[j])


_FIXED_POINT_BLOCK = 4096


def steady_state_iterative(
    cycle: CycleMap,
    v0: MomentVector | None = None,
    rel_tol: float = 1e-12,
    max_kicks: int = 20_000_000,
) -> MomentVector:
    """Fixed point of the cycle map by iterating periods until the relative
    change per period drops below rel_tol; cross-checks steady_state.

    Tests the last period of each _FIXED_POINT_BLOCK-kick block, so it may
    run up to one block past the first converged period.  A run that blows
    up raises DivergenceError (or UnphysicalStateError).
    """
    v = MomentVector(VACUUM_VARIANCE, 0.0, VACUUM_VARIANCE) if v0 is None else v0
    for done in range(0, max_kicks, _FIXED_POINT_BLOCK):
        m = min(_FIXED_POINT_BLOCK, max_kicks - done)
        # stride m - 1 samples exactly the states around the block's last period
        samples = _iterate(v, cycle, m, max(m - 1, 1))
        a, b = samples.moments[-2:]
        v = samples[-1][1]
        if np.sum(np.abs(b - a)) <= rel_tol * np.sum(np.abs(b)):
            return v
    raise NoStationaryStateError(
        f"iteration did not converge to relative change {rel_tol} "
        f"within {max_kicks} kicks"
    )


def _mp_period(omega_m, gamma_m, n_bar, tau, theta):
    """(A, c) of one period v -> A v + c at mpmath's working precision: the
    flight is mpmath's expm of the augmented 4x4 drift (the moment
    equations of rk4_free), the kick its 3x3 shear."""
    w, g = mp.mpf(omega_m), mp.mpf(gamma_m)
    B = mp.matrix(4, 4)
    B[0, 1] = 2 * w
    B[1, 0], B[1, 1], B[1, 2] = -w, -g, w
    B[2, 1], B[2, 2] = -2 * w, -2 * g
    B[2, 3] = g * (2 * mp.mpf(n_bar) + 1)
    E = mp.expm(B * mp.mpf(tau))
    M = mp.matrix([[E[i, j] for j in range(3)] for i in range(3)])
    c = mp.matrix([E[i, 3] for i in range(3)])
    th = mp.mpf(theta)
    return M * mp.matrix([[1, 0, 0], [-2 * th, 1, 0], [4 * th * th, -4 * th, 1]]), c


def mp_radius(omega_m, gamma_m, n_bar, tau, theta, dps=60):
    """rho(A) at dps digits, the largest modulus of mpmath's eigenvalues of
    the 3x3 A.  Near a triple eigenvalue (tau near k pi/omega_m) these keep
    about a third of the digits, still far more than float64's."""
    with mp.workdps(dps):
        A, _ = _mp_period(omega_m, gamma_m, n_bar, tau, theta)
        return max(abs(x) for x in mp.eig(A, left=False, right=False))


def mp_stationary(omega_m, gamma_m, n_bar, tau, theta, dps=60):
    """The stationary state (I - A)^{-1} c at dps digits, by mpmath's LU solve."""
    with mp.workdps(dps):
        A, c = _mp_period(omega_m, gamma_m, n_bar, tau, theta)
        return mp.lu_solve(mp.eye(3) - A, c)


def mp_period_states(omega_m, gamma_m, n_bar, tau, theta, v0, kicks, dps=40):
    """States after each of kicks periods, at dps digits: A^n (v0 - v_inf) + v_inf.

    A and c come from _mp_period, v_inf is the fixed point of an mpmath
    linear solve (0 at gamma_m = 0, where there is no bath and I - A is
    singular), and A^n mpmath's integer matrix power.
    """
    with mp.workdps(dps):
        A, c = _mp_period(omega_m, gamma_m, n_bar, tau, theta)
        v_inf = mp.lu_solve(mp.eye(3) - A, c) if gamma_m else mp.matrix(3, 1)
        d = mp.matrix([mp.mpf(x) for x in v0]) - v_inf
        return [A ** int(n) * d + v_inf for n in kicks]


def row_error(got, ref) -> float:
    """Largest relative error of a moment vector's entries against a
    high-precision one; sigma_qp is measured against sqrt(sigma_q sigma_p),
    its natural scale, as bench/check.py measures rows."""
    q, qp, p = ref
    scales = (abs(q), mp.sqrt(abs(q * p)), abs(p))
    return max(float(abs(mp.mpf(float(x)) - r) / s) for x, r, s in zip(got, ref, scales))


# Kicks whose 2 theta, 4 theta and 4 theta^2 lockstep_run_block forms together.
THETA_ROWS = 64


def lockstep_run_block(
    cycle: CycleMap,
    v0: MomentVector,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    seeds: list[int],
) -> np.ndarray:
    """The noisy ensemble stepped one kick at a time, all trajectories in lockstep.

    Same draws and the same sampled cube as ensemble._run_block, which
    composes segment maps instead.  The update has the expression structure
    of the scalar loop _iterate, so a zero-variance block is
    bit-identical to the deterministic iteration.
    """
    kicks = _sample_indices(n_kicks, stride).tolist()
    # M's columns as (3, 1) arrays: row r of c0*q + c1*qp_k + c2*p_k + b is
    # m_r0*q + m_r1*qp_k + m_r2*p_k + b_r, the scalar loop's sum in its order
    c0, c1, c2 = np.hsplit(np.array(_congruence(cycle.F.tolist())), 3)
    b = cycle.v_inh[:, None]

    gens = [_generator(s) for s in seeds]
    mean = noise.mean_theta
    std = noise.std

    x = np.repeat(v0.as_array()[:, None], len(seeds), axis=1)
    cube = np.empty((len(kicks), len(seeds), 3))
    cube[0] = x.T
    row = 1

    # each trajectory's n_kicks draws in one call: the stream does not
    # depend on how it is cut
    draws = np.empty((n_kicks, len(seeds)))
    for i, g in enumerate(gens):
        draws[:, i] = g.normal(mean, std, size=n_kicks)
    n = 0
    for j in range(0, n_kicks, THETA_ROWS):
        th = draws[j : j + THETA_ROWS]
        t4s = 4.0 * th
        for t2, t4, t4sq in zip(2.0 * th, t4s, t4s * th):
            q, qp, p = x
            qp_k = qp - t2 * q
            p_k = p - t4 * qp + t4sq * q
            x = c0 * q + c1 * qp_k + c2 * p_k + b
            n += 1
            if n == kicks[row]:
                if not np.isfinite(x).all():
                    raise DivergenceError(f"moments diverged (non-finite) at kick {n}")
                cube[row] = x.T
                row += 1
    return cube


def mp_noisy_states(omega_m, gamma_m, n_bar, tau, thetas, v0, kicks, dps=30):
    """States after each of kicks periods of a noisy run, at dps digits.

    Kick n has strength thetas[n - 1], taken exactly as the float it is;
    the flight is mpmath's expm of the augmented 4x4 drift, as in
    mp_period_states, and every period is applied in turn.
    """
    with mp.workdps(dps):
        w, g = mp.mpf(omega_m), mp.mpf(gamma_m)
        B = mp.matrix(4, 4)
        B[0, 1] = 2 * w
        B[1, 0], B[1, 1], B[1, 2] = -w, -g, w
        B[2, 1], B[2, 2] = -2 * w, -2 * g
        B[2, 3] = g * (2 * mp.mpf(n_bar) + 1)
        E = mp.expm(B * mp.mpf(tau))
        (m00, m01, m02, c0), (m10, m11, m12, c1), (m20, m21, m22, c2) = (
            [E[i, j] for j in range(4)] for i in range(3)
        )
        q, qp, p = (mp.mpf(float(x)) for x in v0)
        out, want = [], set(kicks)
        if 0 in want:
            out.append((q, qp, p))
        for n, th in enumerate(thetas[: max(kicks)], start=1):
            t2 = 2 * mp.mpf(float(th))
            qp_k = qp - t2 * q
            p_k = p - 2 * t2 * qp + t2 * t2 * q
            q, qp, p = (
                m00 * q + m01 * qp_k + m02 * p_k + c0,
                m10 * q + m11 * qp_k + m12 * p_k + c1,
                m20 * q + m21 * qp_k + m22 * p_k + c2,
            )
            if n in want:
                out.append((q, qp, p))
        return out
