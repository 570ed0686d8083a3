"""Independent oracles the library must agree with.

Deliberately use different algorithms from the package: componentwise RK4
and the moment equations written out as a matrix instead of the closed-form
flight, brute-force phase scanning instead of the closed-form minimum,
iteration to convergence instead of the direct fixed-point solve.
"""

import numpy as np

from springkick import (
    VACUUM_VARIANCE,
    CycleMap,
    MomentVector,
    NoStationaryStateError,
    stroboscopic_evolve,
)


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
        (_, prev), (_, v) = stroboscopic_evolve(v, cycle, m, max(m - 1, 1))[-2:]
        a, b = prev.as_array(), v.as_array()
        if np.sum(np.abs(b - a)) <= rel_tol * np.sum(np.abs(b)):
            return v
    raise NoStationaryStateError(
        f"iteration did not converge to relative change {rel_tol} "
        f"within {max_kicks} kicks"
    )
