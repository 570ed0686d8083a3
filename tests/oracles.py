"""Independent oracles the library must agree with.

Deliberately use different algorithms from the package: componentwise RK4
instead of a matrix exponential, scaling-and-squaring Taylor series instead
of scipy, brute-force phase scanning instead of the closed-form minimum.
Written and frozen before the tests that consume them.
"""

import math

import numpy as np


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


def taylor_expm(B: np.ndarray, t: float) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring a Taylor series.

    Scales Bt down to norm <= 1/2 (keeps the series well conditioned), sums
    terms until they stop changing the result, then squares back up.
    """
    A = np.asarray(B, dtype=float) * t
    nrm = np.linalg.norm(A, ord=np.inf)
    scal = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    A = A / (2.0**scal)
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 60):
        term = term @ A / k
        nxt = out + term
        if np.array_equal(nxt, out):
            break
        out = nxt
    for _ in range(scal):
        out = out @ out
    return out


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
