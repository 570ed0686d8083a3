"""Second-moment dynamics of a kicked, damped mechanical mode.

A zero-mean Gaussian state of a single mechanical mode (dimensionless
quadratures with [q, p] = i, vacuum variance 1/2) is fully described by the
vector of second moments (var q, sym cov qp, var p).  Between kicks the mode
undergoes damped harmonic evolution in contact with a thermal bath, which is
linear in the moments; a kick is an instantaneous momentum shear
p -> p - 2*theta*q produced by a short burst of intracavity light stiffening
the trap.  On the covariance matrix Sigma of (q, p) one period is the 2x2
map Sigma -> T Sigma T^T + N, with T the flight after the shear: a run
evaluates its n-th power at each sampled kick directly, not kick by kick,
and the stationary state is that evaluator's limit.  On the moment vector
the same period is a 3x3 affine map v -> A v + v_inh, with
rho(A) = max |lambda(T)|^2; tests/oracles.py keeps that route as the
reference the tests check against.

Every evaluator, here and in the ensemble, forms its 2x2 algebra from the
same four helpers, one product at a time in a fixed order: T(theta) from
_shear, the moment maps Sigma -> P Sigma P^T and Sigma -> U Sigma + Sigma U^T
from _congruence and _lyapunov, and each row applied to a state by _dot.
None goes through numpy's matrix product, whose rounding depends on the
BLAS kernel picked at run time, so a run's bytes do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

VACUUM_VARIANCE = 0.5
UNCERTAINTY_FLOOR = 0.25  # minimum of var(q)*var(p) - cov^2 for a physical state
UNCERTAINTY_ATOL = 1e-9


class DivergenceError(RuntimeError):
    """Raised when evolved moments leave float64: their determinant is no
    longer finite, or no longer resolved against the uncertainty floor."""


class NoStationaryStateError(RuntimeError):
    """Raised when the cyclic map has no attracting fixed point, or when a
    float64 solve for it returns a state that cannot be its fixed point."""


class UnphysicalStateError(ValueError):
    """Raised when moments violate the uncertainty floor det >= 1/4.

    The drift keeps thermal-neighborhood states physical but is not a
    completely positive map on arbitrary Gaussian states; strong kicks can
    push the iteration (or its fixed point) past the floor, which marks the
    model leaving its validity domain rather than a numerical bug.
    """


# Bound on omega_m and gamma_m: below it the products of two rates that the
# flight forms, up to 2 omega_m^2, are finite
_MAX_RATE = 2.0**511


@dataclass(frozen=True)
class MechanicalParams:
    """Mechanical mode: angular frequency, energy damping rate, bath occupancy."""

    omega_m: float
    gamma_m: float
    n_bar: float

    def __post_init__(self):
        if not (0 < self.omega_m < _MAX_RATE):
            raise ValueError(f"omega_m must be > 0 and below 2^511, got {self.omega_m}")
        if not (0 <= self.gamma_m < _MAX_RATE):
            raise ValueError(f"gamma_m must be >= 0 and below 2^511, got {self.gamma_m}")
        if not (math.isfinite(self.n_bar) and self.n_bar >= 0):
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


def _det_and_tol(q, qp, p):
    """det = q*p - qp^2 of states (q, qp, p), and the rounding it is judged
    with: tol, at the operands' scale, not det's (after strong kicks sigma_p
    ~ theta^2 sigma_q while det, a cancellation of products, stays near 1/4)."""
    return q * p - qp * qp, 1e-12 * (q * p + qp * qp)


def _check_physical(q, qp, p, kicks=None) -> None:
    """The one physicality rule: raise unless every state (q, qp, p), floats
    or arrays, has positive variances and det = q*p - qp^2 >= 1/4, up to
    _det_and_tol's rounding.  With kicks, the kick of each state of the
    arrays' rows (with a column per trajectory, if any), the error names the
    first offending state and its kick; without, the smallest value."""
    any_of = np.any if isinstance(q, np.ndarray) else bool

    def first(x, bad):
        if kicks is None:
            return np.min(x), ""
        at = tuple(np.argwhere(bad)[0])
        return x[at], f" at kick {kicks[at[0]]}"

    for name, x in (("sigma_q", q), ("sigma_p", p)):
        if any_of(x <= 0):
            value, at = first(x, x <= 0)
            raise ValueError(f"{name} must be > 0, got {value}{at}")
    det, tol = _det_and_tol(q, qp, p)
    # det < 1/4 - max(UNCERTAINTY_ATOL, tol), with no numpy call on floats
    bad = (det < UNCERTAINTY_FLOOR - tol) & (det < UNCERTAINTY_FLOOR - UNCERTAINTY_ATOL)
    if any_of(bad):
        value, at = first(det, bad)
        raise UnphysicalStateError(
            f"uncertainty relation violated: sigma_q*sigma_p - sigma_qp^2 = {value} < 1/4{at}"
        )


@dataclass(frozen=True)
class MomentVector:
    """Second moments (var q, sym cov qp, var p) of a zero-mean Gaussian state."""

    sigma_q: float
    sigma_qp: float
    sigma_p: float

    def __post_init__(self):
        for name in ("sigma_q", "sigma_qp", "sigma_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_physical(self.sigma_q, self.sigma_qp, self.sigma_p)

    @property
    def det(self) -> float:
        """Determinant of the 2x2 covariance matrix, >= 1/4 for physical states."""
        return self.sigma_q * self.sigma_p - self.sigma_qp * self.sigma_qp

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_q, self.sigma_qp, self.sigma_p])


@dataclass(frozen=True, eq=False)
class CycleMap:
    """One full period: kick, then free evolution for tau.

    On the covariance matrix Sigma the period is Sigma -> T Sigma T^T + N,
    with F the 2x2 flight over tau (_flight), T = F S(theta) the flight after
    the shear S(theta) = [[1, 0], [-2 theta, 1]], and N = v_inh as a 2x2.
    The spectral radius rho(A) = max |lambda(T)|^2 of the same period as a
    3x3 map A on the moments decides whether repeated cycles converge to a
    stationary state.

    The map holds its evaluator, built on first use and then kept (see
    stroboscopic_evolve): steady_state reads its limit, and a run adds only
    its initial state.  A map read only for F and v_inh, as the ensemble
    reads it, never builds one.
    """

    tau: float
    theta: float
    params: MechanicalParams
    F: np.ndarray
    v_inh: np.ndarray
    spectral_radius: float
    T: np.ndarray

    @cached_property
    def _evaluator(self) -> "_Evaluator":
        return _closed_form(self) or _powers(self)


class StateMetrics(NamedTuple):
    """Derived observables of a Gaussian state, one field per metric.

    Floats from state_metrics; arrays of the same fields from metric_arrays
    and from the ensemble statistics.
    """

    sigma_min: float
    phi_min: float
    squeezing_db: float
    purity: float
    entropy: float
    n_eff: float


def thermal_state(params: MechanicalParams) -> MomentVector:
    """Equilibrium state of the bare mode: both variances n_bar + 1/2, no correlation."""
    v = params.n_bar + 0.5
    return MomentVector(v, 0.0, v)


# g t at or below which the diagonal of J is summed from non-negative
# terms.  Above it, (F F^T)_ii <= e^{-u} (1 + u + u^2/2) when underdamped or
# critical, so 1 - (F F^T)_ii cancels by less than e/(e - 2.5) ~ 12.
_SERIES_DAMPING = 1.0
# |2 omega_d t|^2 at or below which g1 and g2 come from their Taylor series
_SERIES_PHASE = 4.0


def _series(z: float, n: int, step: int) -> float:
    """sum_{k>=0} z^k / (n + step*k)!, summed until the terms stop counting."""
    term = 1.0 / math.factorial(n)
    total = term
    while abs(term) > 1e-17 * abs(total):
        for _ in range(step):
            n += 1
            term /= n
        term *= z
        total += term
    return total


def _g1(w: float) -> float:
    """(y - sin y)/y at w = y^2, continued to w = -Y^2 < 0 as 1 - sinh(Y)/Y."""
    if abs(w) <= _SERIES_PHASE:
        return w * _series(-w, 3, 2)
    if w > 0:
        y = math.sqrt(w)
        return 1.0 - math.sin(y) / y
    y = math.sqrt(-w)
    return 1.0 - math.sinh(y) / y


def _g2(w: float) -> float:
    """(y^2/2 - 1 + cos y)/y^2 at w = y^2, continued to w < 0 with cosh."""
    if abs(w) <= _SERIES_PHASE:
        return w * _series(-w, 4, 2)
    if w > 0:
        h = math.sin(0.5 * math.sqrt(w))
        return 0.5 - 2.0 * h * h / w
    h = math.sinh(0.5 * math.sqrt(-w))
    return 0.5 + 2.0 * h * h / w


def _slow_mode_j00(g: float, t: float, z: float, r1: float) -> float:
    """J_00 = (1 - (F F^T)_00)/(2 g) for a strongly overdamped mode.

    F's eigenvalues are -g/2 +- k; with z = 2 k t, r = g/(2 k) = 1 + r1 and
    u = g t = r z, e^u (1 - (F F^T)_00) = e^{rz} - 1 - r sinh z - r^2 (cosh z - 1).
    For r near 1 (g > 4 w) the general forms cancel by about g^2/(4 w^2):
    the slow mode barely decays and (F F^T)_00 sits near e^{-r1 z}.  For
    z < 2 this sums sum_{n>=3} z^n/n! r^a (r^{n-a} - 1), a = 2 - n mod 2,
    whose terms are all positive; for z >= 2 it combines the three decays
    of F F^T, e^{-r1 z}, e^{-u} and e^{-u-z}, which cancel by less than a
    factor 1/(1 - 1.5/z).
    """
    u = g * t
    r = 1.0 + r1
    if z < 2.0:
        log_r = math.log1p(r1)
        total, term, n = 0.0, 0.5 * z * z, 2
        while True:
            n += 1
            term *= z / n
            a = 2 - n % 2
            part = term * r**a * math.expm1((n - a) * log_r)
            total += part
            if part <= 1e-17 * total:
                return math.exp(-u) * total / (2.0 * g)
    return (
        -0.5 * r * (r + 1.0) * math.expm1(-r1 * z)
        + r1 * (r + 1.0) * math.expm1(-u)
        - 0.5 * r * r1 * math.expm1(-u - z)
    ) / (2.0 * g)


def _dot(row, x):
    """row[0] x[0] + row[1] x[1] + ..., summed left to right: one row of a
    map applied to a state.  Floats or arrays, broadcast as numpy does, so
    row's entries may also be a map's columns, applying every row at once."""
    total = row[0] * x[0]
    for a, b in zip(row[1:], x[1:]):
        total = total + a * b
    return total


def _shear(F, theta) -> tuple:
    """T = F S(theta), the flight F after the shear S(theta) = [[1, 0],
    [-2 theta, 1]], as nested pairs, one entry at a time; theta a float or
    an array of draws.  2 theta f rounds once however it is grouped, so
    theta (2 f) costs no array operation more than it must."""
    (f00, f01), (f10, f11) = F
    return (f00 - theta * (2.0 * f01), f01), (f10 - theta * (2.0 * f11), f11)


def _congruence(P) -> tuple:
    """Rows of Sigma -> P Sigma P^T on the moments (sigma_q, sigma_qp,
    sigma_p), for a 2x2 P as nested sequences: P's symmetric Kronecker square."""
    (a, b), (c, d) = P
    return (
        (a * a, 2 * a * b, b * b),
        (a * c, a * d + b * c, b * d),
        (c * c, 2 * c * d, d * d),
    )


def _lyapunov(P) -> tuple:
    """Rows of Sigma -> P Sigma + Sigma P^T on the moments, for a 2x2 P as
    nested sequences, as _congruence gives those of P Sigma P^T."""
    (a, b), (c, d) = P
    return ((2 * a, 2 * b, 0.0), (c, a + d, b), (0.0, 2 * c, 2 * d))


def _flight(params: MechanicalParams, t: float) -> tuple:
    """The flight F over duration t as nested float pairs, and v_inh as
    three floats, of the free-evolution moment equations.

    With w = omega_m and g = gamma_m, the moments evolve as

        d/dt sigma_q  =  2 w sigma_qp
        d/dt sigma_qp =  w (sigma_p - sigma_q) - g sigma_qp
        d/dt sigma_p  = -2 w sigma_qp - 2 g sigma_p + g (2 n_bar + 1)

    The moments are the covariance Sigma of (q, p), so this is
    dSigma/dt = G Sigma + Sigma G^T + D with G = [[0, w], [-w, -g]] and
    D = diag(0, c), c = g (2 n_bar + 1).  So the moments map by the
    symmetric Kronecker square of the flight
    F = e^{G t} = e^{-g t/2} [C I + S (G + g/2 I)], with C = cos(omega_d t),
    S = sin(omega_d t)/omega_d and omega_d^2 = w^2 - g^2/4 (cosh/sinh when
    that is negative, C = 1 and S = t at critical damping), and v_inh = c J with
    J = int_0^t F e2 e2^T F^T ds = (I - F F^T)/(2 g).  J is summed from
    terms that do not cancel, so each of its entries keeps its own relative
    accuracy even where I - F F^T is tiny (g t ~ 1e-5 at the presets) and
    is exactly zero at g = 0 or t = 0.  Raises ValueError unless t is finite
    and >= 0.
    """
    w, g = params.omega_m, params.gamma_m
    source = g * (2.0 * params.n_bar + 1.0)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    u = g * t
    wd2 = (w - 0.5 * g) * (w + 0.5 * g)
    # F = [[f00, f01], [-f01, f11]]; s is e^{-g t/2} S
    if wd2 < 0.0:
        # from F's real eigenvalues -g/2 +- k, so that nothing overflows:
        # with r = g/(2k) = 1 + r1, f00, f11 = ((1 +- r) slow + (1 -+ r) fast)/2,
        # and r1 and the slow rate g/2 - k = r1 k come without cancellation;
        # taken as slow/fast -+ r1 (fast - slow)/2, so that F(0) = I exactly
        k = math.sqrt(-wd2)
        z = 2.0 * k * t
        r1 = 2.0 * w * w / (k * (g + 2.0 * k))
        slow = math.exp(-r1 * k * t)
        fast = math.exp(-0.5 * (u + z))
        s = -slow * math.expm1(-z) / (2.0 * k)
        half_gap = 0.5 * r1 * (slow - fast)
        f00 = slow + half_gap
        f11 = fast - half_gap
    else:
        if wd2 > 0.0:
            wd = math.sqrt(wd2)
            c = math.exp(-0.5 * u)
            s = c * math.sin(wd * t) / wd
            c *= math.cos(wd * t)
        else:
            c = math.exp(-0.5 * u)
            s = c * t
        f00 = c + 0.5 * g * s
        f11 = c - 0.5 * g * s
    f01 = w * s
    # (I - F F^T)_01 = e^{-g t} g w S^2 exactly
    j01 = 0.5 * w * s * s
    if u <= _SERIES_DAMPING:
        # 2 g J_00 e^{g t} = expm1(g t) - g C S - g^2 S^2 / 2
        #   = u g1(y) + u^2 g2(y) + (expm1(u) - u - u^2/2),  y = 2 omega_d t,
        # three non-negative terms when underdamped, divided here by
        # 2 g = 2 u / t; J_11 has + g C S and u (2 - g1) in place of u g1.
        w4 = 4.0 * wd2 * t * t
        g1 = _g1(w4)
        rest = u * _g2(w4) + u * u * _series(u, 3, 1)
        half_t = 0.5 * t * math.exp(-u)
        j00 = half_t * (g1 + rest)
        j11 = half_t * (2.0 - g1 + rest)
    else:
        j00 = (1.0 - (f00 * f00 + f01 * f01)) / (2.0 * g)
        j11 = (1.0 - (f01 * f01 + f11 * f11)) / (2.0 * g)
    if g > 4.0 * w:
        # (F F^T)_00 can sit near 1 at any g t; see _slow_mode_j00
        j00 = _slow_mode_j00(g, t, z, r1)
    return ((f00, f01), (-f01, f11)), (source * j00, source * j01, source * j11)


def _kick(q: float, qp: float, p: float, theta: float) -> tuple[float, float, float]:
    """Moments (q, qp, p) after the momentum shear p -> p - 2*theta*q:
    var q unchanged."""
    t4 = 4.0 * theta
    return q, qp - (2.0 * theta) * q, p - t4 * qp + (t4 * theta) * q


def cycle_map(params: MechanicalParams, tau: float, theta: float) -> CycleMap:
    """Map of one full period: kick of strength theta, then free decay for tau."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not math.isfinite(4.0 * theta * theta):
        raise ValueError(f"theta = {theta} overflows the kick map: 4 theta^2 is not finite")
    F, v_inh = _flight(params, tau)
    T = _shear(F, theta)
    # A's eigenvalues are the pairwise products of T's, whose product is
    # det T = delta^2 = e^{-gamma tau}: so rho(A) = max |lambda(T)|^2, which
    # is delta^2 for a complex pair and (|h| + sqrt(h^2 - delta^2))^2 for a
    # real one, h = tr T/2, with h^2 - delta^2 factored so it does not cancel
    decay = params.gamma_m * tau
    h = abs(0.5 * (T[0][0] + T[1][1]))
    delta = math.exp(-0.5 * decay)
    if h < delta:
        rho = math.exp(-decay)
    else:
        rho = h + math.sqrt((h - delta) * (h + delta))
        rho *= rho
    return CycleMap(
        tau=tau,
        theta=theta,
        params=params,
        F=np.array(F),
        v_inh=np.array(v_inh),
        spectral_radius=rho,
        T=np.array(T),
    )


# stroboscopic_evolve does not step kick by kick: it evaluates the state
# after n kicks directly, in closed form where that is certified
# (_closed_form) and by binary powers of the period map elsewhere
# (_powers).  The noisy ensemble does not step kick by kick either:
# ensemble._run_block composes segments of kicks into 2x2 maps
# Sigma -> P Sigma P^T + Q and chains those.  The kick-by-kick loop is kept
# in tests/oracles.py as the reference both are tested against.


def _sample_indices(n_kicks: int, stride: int) -> np.ndarray:
    """Kicks at which a run records its state, as an int64 array: 0, every
    stride-th, and n_kicks.

    The one sampling rule of every evolve.  Raises ValueError unless
    n_kicks >= 0 and stride >= 1.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    idx = np.arange(0, n_kicks + 1, stride, dtype=np.int64)
    if idx[-1] != n_kicks:
        idx = np.append(idx, np.int64(n_kicks))
    return idx


def _check_finite(kicks, q, qp, p) -> None:
    """Raise DivergenceError at the first state sampled at kicks whose
    determinant sigma_q*sigma_p - sigma_qp^2 float64 no longer holds: not
    finite, which comes from moments of about 1e154, or lost to rounding,
    det <= _det_and_tol's tol where that tol exceeds 1/8, so that det can
    neither pass nor fail the floor 1/4 - tol of _check_physical, which
    runs after it.

    q, qp and p are arrays with a row per kick (and a column per
    trajectory) under the caller's np.errstate, or floats for one kick.
    """
    det, tol = _det_and_tol(q, qp, p)
    lost = ~np.isfinite(det) | ((det <= tol) & (tol > UNCERTAINTY_FLOOR - tol))
    if not lost.any():
        return
    q, qp, p, det, lost = np.atleast_1d(q, qp, p, det, lost)
    at = tuple(np.argwhere(lost)[0])
    why = "determinant lost to rounding" if np.isfinite(det[at]) else "out of float64 range"
    raise DivergenceError(
        f"moments diverged ({why}) at kick {kicks[at[0]]}:"
        f" ({float(q[at])}, {float(qp[at])}, {float(p[at])})"
    )


@dataclass(frozen=True, eq=False)
class Samples:
    """Sampled states of one run as columns, and its squeezing onset: row i
    of the (n, 3) moments is (sigma_q, sigma_qp, sigma_p) after kicks[i]
    kicks, and samples[i] builds the pair (kick, MomentVector)."""

    kicks: np.ndarray
    moments: np.ndarray
    onset: int | None = None

    def __len__(self) -> int:
        return len(self.kicks)

    def __getitem__(self, i: int) -> tuple[int, MomentVector]:
        return int(self.kicks[i]), MomentVector(*self.moments[i].tolist())


# Kicks per block of stroboscopic_evolve's sampled rows and onset scan: its
# float64 temporaries of this length peak near 3 MB (tracemalloc, fig1),
# where a whole 10^6-kick scan at once would take about 200 MB.  The scan
# tests only the kicks after the last sampled one that tests unsqueezed, up
# to the onset envelope's kick n* (_squeezed_from): at stride 100, 3,810
# kicks at fig1 and 2,621 at fig2.
_ONSET_CHUNK = 1 << 14
# sin(phi) below which stroboscopic_evolve takes _powers instead.  Near
# sin(phi) = 0 T is close to delta times a Jordan block, the pair turns real,
# and the closed form's terms grow like 1/sin^3(phi) while their sum does
# not, so their rounding does: at sin(phi) = 0.01 the first row of one run
# strayed 1.1e-10 from 40 digits; at 0.1, 9000 random runs of up to 2000
# kicks kept every row within 1e-10 (tests/test_closed_form.py).  The
# sweep's resonance points tau = k pi/omega_m sit at |cos(phi)| - 1 ~ 2e-12 to
# 6e-12 (a real pair) and its other points at sin(phi) >= 0.34.
_MIN_SIN_PHI = 0.1
# gamma_m tau above which stroboscopic_evolve takes _powers instead.  The
# form works with T/delta, delta = e^{-gamma_m tau/2}; up to here
# delta >= 1e-152, so T's entries, of order delta, stay far above the
# subnormal range where dividing by delta would bring back lost digits as
# noise.  Such a flight damps the transient by e^{-700} per kick: every
# state from the first kick on is the fixed point to float64.
_MAX_DECAY = 700.0

# Decimal digits of the phase computation, and pi to 60 digits, enough to
# reduce flight phases up to _MAX_PHASE rad to [-pi, pi] without losing any
# of them; past it stroboscopic_evolve takes _powers instead
_PHASE_DIGITS = 50
_MAX_PHASE = 1e15
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
# The phase of kick n is taken as that of n_hi * _PHASE_STEP + n_lo kicks,
# both parts below 2^29, so that _reduce_phase is exact for n below 2^53
_PHASE_STEP = 2**29


def _split(x: Decimal, parts: int) -> tuple[float, ...]:
    """x as a sum of floats, all but the last rounded to 24 significant bits,
    so that their products with whole numbers below 2^29 are exact."""
    out = []
    for _ in range(parts - 1):
        out.append(float(np.float32(x)))
        x -= Decimal(out[-1])
    return (*out, float(x))


with localcontext() as _ctx:
    _ctx.prec = _PHASE_DIGITS
    _TWO_PI = _split(2 * _PI, 3)


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x at the context's precision: x reduced to [-pi, pi],
    then the Taylor series."""
    x -= 2 * _PI * (x / (2 * _PI)).to_integral_value()
    x2 = x * x
    c = term_c = Decimal(1)
    s = term_s = x
    k = 0
    while True:
        k += 2
        term_c *= -x2 / (k * (k - 1))
        term_s *= -x2 / (k * (k + 1))
        if c + term_c == c and s + term_s == s:
            return c, s
        c += term_c
        s += term_s


def _eigenphase(cycle: CycleMap) -> tuple[tuple[float, float, float], ...]:
    """phi of T's eigenvalues e^{-gamma tau/2 +- i phi}, from the physics,
    and _PHASE_STEP phi reduced to [-pi, pi], each as a _split sum of three
    floats.

    cos(phi) = tr T e^{gamma tau/2}/2 = C - theta omega_m S, with C and S of
    _flight, here at _PHASE_DIGITS digits from the float inputs;
    phi is then math.acos's value after one Newton step.  The caller has
    checked that |cos(phi)| < 1, sin(phi) >= _MIN_SIN_PHI and
    gamma_m tau <= _MAX_DECAY.
    """
    params = cycle.params
    w, g, t, theta = map(Decimal, (params.omega_m, params.gamma_m, cycle.tau, cycle.theta))
    with localcontext() as ctx:
        ctx.prec = _PHASE_DIGITS
        wd2 = w * w - g * g / 4
        if wd2 >= 0:
            wd = wd2.sqrt()
            c, s = _cos_sin(wd * t)
            s = s / wd if wd else t
        else:
            k = (-wd2).sqrt()
            e = (k * t).exp()
            c = (e + 1 / e) / 2
            s = (e - 1 / e) / (2 * k)
        cos_phi = c - theta * w * s
        phi = Decimal(math.acos(float(cos_phi)))
        c, s = _cos_sin(phi)
        phi += (c - cos_phi) / s
        step = _PHASE_STEP * phi
        step -= 2 * _PI * (step / (2 * _PI)).to_integral_value()
        return _split(phi, 3), _split(step, 3)


def _reduce_phase(n: np.ndarray, x: tuple[float, float, float], turns: float) -> np.ndarray:
    """n x - 2 pi k with k = rint(n turns), turns = x/(2 pi), for the _split
    sum x and whole n below 2^29 as floats.

    n x_0 and k 2 pi_0 are exact, so is their difference, and the rest is
    below 2 pi in size: the result is off by about its own rounding.
    """
    k = np.rint(n * turns)
    a = (n * x[0] - k * _TWO_PI[0]) - k * _TWO_PI[1]
    a += (n * x[1] - k * _TWO_PI[2]) + n * x[2]
    return a


# Share of a state's trace by which every kick past _squeezed_from's bound
# sits below the vacuum line: 2 sigma_min <= 1 - 2e-6 (sigma_q + sigma_p).
# The scan's test can misjudge a kick only by the rows' evaluation error,
# which tests/test_closed_form.py bounds by 1e-10 of a row (ROW_BOUND), and
# at the presets is a few ulp; the bound's own rounding is as small.  It
# costs about 2e-6 (sigma_q + sigma_p)/(1 - 2 sigma_min) / (gamma_m tau)
# kicks of scan: 2 at fig1, 269 at fig2.
_ENVELOPE_MARGIN = 1e-6


def _squeezed_from(limit, const, weights, phi: float, expm1_r: float, decay: float) -> int | None:
    """A kick from which every state of the closed form (see
    stroboscopic_evolve), row i const[i] + _dot(weights[i], terms(n)), is
    squeezed with room to spare, or None where the form's limit is not.

    For the minor axis v of the limit x_inf = const - w_3/expm1_r, with w_3
    the fourth column of weights, Rayleigh-Ritz gives
    sigma_min(Sigma_n) <= v^T Sigma_n v (R. A. Horn and C. R. Johnson,
    Matrix Analysis, 4.2).  Let g(n) = v^T Sigma_n v +
    _ENVELOPE_MARGIN tr Sigma_n.  Rewriting the r^n terms through
    sin^2(n phi) = (1 - cos(2n phi))/2 and their kin, and G = (1 - r^n)/(1 - r),
    gives exactly g(n) = g_inf + r^n (c0 + Re(e^{2 i n phi} Z)), with
    r = e^{-gamma tau}.  So g(n) <= 1/2, and the state after n kicks is
    squeezed with _ENVELOPE_MARGIN of room, for every
    n >= ceil(ln((c0 + |Z|)/(1/2 - g_inf))/(gamma tau)).  The minor axis
    comes from scalar math, not an eigen-solver.
    """
    q, qp, p = limit
    h = math.hypot(p - q, 2.0 * qp)
    # v = (cos a, sin a) with (cos 2a, sin 2a) = (c2, s2); g(n) is the row
    # rho applied to the state (sigma_q, sigma_qp, sigma_p) after n kicks
    c2, s2 = ((p - q) / h, -2.0 * qp / h) if h > 0.0 else (0.0, 0.0)
    m = _ENVELOPE_MARGIN
    rho = (0.5 * (1.0 + c2) + m, s2, 0.5 * (1.0 - c2) + m)
    a0, a1, a2, a3, a4, a5 = (_dot(rho, column) for column in zip(*weights))
    room = 0.5 - (_dot(rho, const) - a3 / expm1_r)
    c1, s1 = math.cos(phi), math.sin(phi)
    lead = a3 / expm1_r + 0.5 * (a0 - a1 * c1 + a2) + math.hypot(
        a4 - 0.5 * (a0 - a1 * c1 + a2 * (c1 - s1) * (c1 + s1)),
        a5 + 0.5 * (a1 * s1 - 2.0 * a2 * s1 * c1),
    )
    if not (0.0 < room < math.inf and lead < math.inf):
        return None
    if lead <= 0.0:
        return 0
    n = (math.log(lead) - math.log(room)) / decay
    return max(math.ceil(n), 0) if n < 2.0**53 else None


def _has_limit(cycle: CycleMap) -> bool:
    """Whether the period map contracts with room to spare, rho(A) < 1 - 1e-12:
    then rho^(2^52) underflows, so _powers' 53 squarings have summed every
    term of the limit that float64 resolves."""
    return cycle.spectral_radius < 1.0 - 1e-12


class _Evaluator(NamedTuple):
    """The part of a cycle's evaluator that does not depend on the initial
    state, built once per CycleMap.  limit is the n -> inf limit as three
    floats; start(v0) gives the pair (states, squeezed_from) of a run from
    v0: states(n) are the (3, len(n)) moments after n kicks, n a float
    array, and squeezed_from is _squeezed_from's kick, or None."""

    limit: list
    start: Callable


def _closed_form(cycle: CycleMap) -> _Evaluator | None:
    """The closed-form power of T, described in stroboscopic_evolve, or
    None where it is not certified: certified where the map has a limit
    (_has_limit) and that limit is a physical state, gamma tau <= _MAX_DECAY,
    omega_m tau <= _MAX_PHASE, and T has a complex pair with
    sin(phi) >= _MIN_SIN_PHI; none of these depends on v0."""
    decay = cycle.params.gamma_m * cycle.tau  # -log det T
    phase = cycle.params.omega_m * cycle.tau
    if not (_has_limit(cycle) and decay <= _MAX_DECAY and phase <= _MAX_PHASE):
        return None
    # T's entries, of order 2 theta, are below about 1e154, since cycle_map
    # keeps 4 theta^2 finite; so U's entries are finite
    delta = math.exp(-0.5 * decay)
    U = [[x / delta for x in row] for row in cycle.T.tolist()]
    cos_phi = 0.5 * (U[0][0] + U[1][1])
    if not (abs(cos_phi) < 1.0 and (1.0 - cos_phi) * (1.0 + cos_phi) >= _MIN_SIN_PHI**2):
        return None
    phi_parts, step_parts = _eigenphase(cycle)
    # the first sum is exact, so each of these rounds once
    phi = phi_parts[0] + phi_parts[1] + phi_parts[2]
    step = step_parts[0] + step_parts[1] + step_parts[2]
    turns, step_turns = phi / (2.0 * math.pi), step / (2.0 * math.pi)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    r = math.exp(-decay)
    expm1_r = math.expm1(-decay)
    sin2 = sin_phi * sin_phi
    K, L = _congruence(U), _lyapunov(U)

    def basis(x):
        """Rows (q, qp, p) of U X U^T, U X + X U^T and X over sin^2(phi),
        for X of the moments x: a 3x3 of floats, which overflow to inf
        silently, for stroboscopic_evolve's DivergenceError to report."""
        return [(_dot(o, x) / sin2, _dot(i, x) / sin2, y / sin2) for o, i, y in zip(K, L, x)]

    # sum_{k<n} T^k N T^k^T = (alpha U N U^T - beta (U N + N U^T) + gamma N)
    # / (2 s^2), with s = sin(phi), G = sum_{k<n} r^k and
    # H = sum_{k<n} (r e^{2 i phi})^k:
    #   alpha = G - Re H,  beta = cos(phi) G - Re(e^{-i phi} H),
    #   gamma = G - Re(e^{-2 i phi} H),
    # and Re(e^{-i psi} H) = x - r^n (x cos 2n phi - y sin 2n phi) for
    # x + i y = e^{-i psi}/(1 - r e^{2 i phi}).  1 - r cos(2 phi) is formed as
    # 2 r s^2 - expm1(-gamma tau) so that it does not cancel.  No float
    # stationary state enters: its rounding would leak into every row.
    w = 1.0 / complex(2.0 * r * sin2 - expm1_r, -r * math.sin(2.0 * phi))
    turn = complex(cos_phi, -sin_phi)
    w = (w, w * turn, w * turn * turn)
    w_re, w_im = [z.real for z in w], [z.imag for z in w]
    noise = [(a * 0.5, b * -0.5, c * 0.5) for a, b, c in basis(cycle.v_inh.tolist())]
    # row i of the state after n kicks is const[i] + _dot(weights[i],
    # (r^n sin^2(n phi), -r^n sin(n phi) sin((n-1) phi), r^n sin^2((n-1) phi),
    # G, r^n cos(2n phi), r^n sin(2n phi)))
    const = [-_dot(row, w_re) for row in noise]
    # weights' last three columns, the ones that v0 leaves alone
    drive = [(_dot(x, (1.0, cos_phi, 1.0)), -c, -_dot(x, w_im)) for x, c in zip(noise, const)]
    limit = [c - d[0] / expm1_r for c, d in zip(const, drive)]
    try:
        MomentVector(*limit)
    except ValueError:  # not finite, or not physical
        return None

    def start(v0):
        x0 = (v0.sigma_q, v0.sigma_qp, v0.sigma_p)
        weights = [(*b, *d) for b, d in zip(basis(x0), drive)]

        def states(n):
            n_hi = np.floor(n / _PHASE_STEP)
            a = _reduce_phase(n - n_hi * _PHASE_STEP, phi_parts, turns)
            a += _reduce_phase(n_hi, step_parts, step_turns)
            s_n, c_n = np.sin(a), np.cos(a)
            s_m = s_n * cos_phi - c_n * sin_phi
            r_n = np.exp(n * -decay)
            terms = (
                r_n * s_n * s_n,
                -r_n * s_n * s_m,
                r_n * s_m * s_m,
                np.expm1(n * -decay) / expm1_r,
                r_n * (1.0 - 2.0 * s_n * s_n),
                r_n * (2.0 * s_n * c_n),
            )
            return np.array([c + _dot(row, terms) for c, row in zip(const, weights)])

        return states, _squeezed_from(limit, const, weights, phi, expm1_r, decay)

    return _Evaluator(limit, start)


def _powers(cycle: CycleMap) -> _Evaluator:
    """The evaluator where the closed form is not certified, by binary
    powering of the period map, with no onset envelope.

    The map of 2^b periods is Sigma -> P Sigma P^T + Q, which squares as
    (P, Q) -> (P P, P Q P^T + Q) from (P, Q) = (T, N), N = v_inh as a 2x2.
    The state after n kicks applies the maps of n's set bits to Sigma_0, on
    every entry of n at once (D. E. Knuth, The Art of Computer Programming,
    vol. 2, 4.6.3), so its rounding builds up over log2(n) maps, not over n
    kicks.  The 53 squarings, enough for every n below 2^53, run on Python
    floats, which overflow to inf without a warning.  The last Q is
    sum_{k<2^53} T^k N T^k^T, Smith's doubling of the limit (R. A. Smith,
    SIAM J. Appl. Math. 16:198, 1968): converged where _has_limit holds.
    """
    P = cycle.T.tolist()
    Q = cycle.v_inh.tolist()
    maps = []  # maps[b]: (_congruence(P), Q) of 2^b periods
    for _ in range(53):
        K = _congruence(P)
        maps.append((K, Q))
        Q = [_dot(k, Q) + x for k, x in zip(K, Q)]
        P = [[_dot(row, column) for column in zip(*P)] for row in P]

    def start(v0):
        def states(n):
            n = n.astype(np.int64)
            state = [np.full(n.shape, x) for x in (v0.sigma_q, v0.sigma_qp, v0.sigma_p)]
            for bit, (K, N) in enumerate(maps[: int(n.max()).bit_length()]):
                on = (n & (1 << bit)) != 0
                state = [np.where(on, _dot(k, state) + x, old) for k, x, old in zip(K, N, state)]
            return np.array(state)

        return states, None

    return _Evaluator(Q, start)


def stroboscopic_evolve(
    v0: MomentVector,
    cycle: CycleMap,
    n_kicks: int,
    sample_stride: int = 1,
) -> Samples:
    """Sampled states of n_kicks periods of the cyclic map, with the onset.

    Row (n, state) holds the state after n full periods, i.e. just before
    the (n+1)-th kick, for each n of _sample_indices(n_kicks, sample_stride):
    the initial state, every sample_stride-th state and the final state.
    Every period is also tested for squeezing, and the result carries the
    run's squeezing onset as .onset (see squeezing_onset).  The sampled
    states are checked in blocks of _ONSET_CHUNK, in kick order: each block
    raises DivergenceError at its first state whose determinant float64 no
    longer holds (_check_finite), then _check_physical's errors, naming its
    first unphysical sampled kick.

    The states come from the closed-form power of T (_closed_form), built
    once with the cycle map; a run adds only its v0's part.  The
    state after n kicks is T^n Sigma_0 T^n^T + sum_{k<n} T^k N T^k^T, with
    N = v_inh as a 2x2.  With delta^2 = det T = e^{-gamma tau} and
    U = T/delta, whose eigenvalues are e^{+-i phi}, Cayley-Hamilton gives
    T^n = delta^n (sin(n phi) U - sin((n-1) phi) I)/sin(phi).  So
    T^n X T^n^T is delta^{2n}/sin^2(phi) times
    sin^2(n phi) U X U^T - sin(n phi) sin((n-1) phi) (U X + X U^T)
    + sin^2((n-1) phi) X, and the sum over k is a geometric series in
    delta^2 and delta^2 e^{2 i phi}, also in closed form.  Every sampled
    state is evaluated at once.  Only the phase n phi builds up along the
    run, and U's entries, up to 2 theta in size, multiply its error into the
    rows: at fig1, a correctly rounded float phi times n strays 1.2e-10 by
    kick 51400.  So phi comes from the physics to 50 digits (_eigenphase)
    and n phi is reduced by 2 pi in double-double, exactly for n below 2^53.

    The onset scan tests kicks for 2 sigma_min >= 1, as
    p + q - hypot(p - q, 2 qp) >= 1 (hypot, since d^2 + 4 qp^2 overflows
    from moments of about 1e154), backward in blocks of _ONSET_CHUNK kicks
    down to the last unsqueezed one.  It starts at hi, the last kick, or
    earlier at the onset envelope's kick n* (_squeezed_from) where that
    comes first: the transient decays like e^{-gamma tau n}, and
    a Rayleigh bound on the form proves every state from n* on squeezed by a
    margin far above the test's rounding (_ENVELOPE_MARGIN).  It stops after
    the last sampled kick that tests unsqueezed, none past n*, since the
    sampled rows take the same test as they are evaluated.  So a run that ends
    unsqueezed scans no kick, and fig1 at stride 100 scans from its n*,
    308,710, down to the sampled 304,900, past its onset 308,386.

    Where the form is not certified the states come from binary powers of
    the period map instead (_powers): no stationary state (or an unphysical
    one), gamma tau > _MAX_DECAY, omega_m tau > _MAX_PHASE, a real
    eigenvalue pair of T, or sin(phi) < _MIN_SIN_PHI.  Either way the
    sampled states are evaluated and checked _ONSET_CHUNK at a time, into
    one (n, 3) array, and the same scan finds the onset, with hi the last
    kick where no envelope is known.
    Raises ValueError for n_kicks >= 2^53, where a float no longer holds
    every kick index.
    """
    if n_kicks >= 2**53:
        raise ValueError(f"n_kicks must be below 2^53, got {n_kicks}")
    kicks = _sample_indices(n_kicks, sample_stride)
    states, squeezed_from = cycle._evaluator.start(v0)
    hi = n_kicks if squeezed_from is None else min(n_kicks, squeezed_from)
    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    last_unsqueezed = 0 if p + q - math.hypot(p - q, 2.0 * qp) >= 1.0 else -1
    moments = np.empty((len(kicks), 3))
    moments[0] = v0.as_array()
    # overflow here is reported by the DivergenceError below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(1, len(kicks), _ONSET_CHUNK):
            block = kicks[lo : lo + _ONSET_CHUNK]
            columns = states(block.astype(float))
            _check_finite(block, *columns)
            _check_physical(*columns, block)
            moments[lo : lo + len(block)] = columns.T
            q, qp, p = columns
            hit = np.flatnonzero(p + q - np.hypot(p - q, 2.0 * qp) >= 1.0)
            if hit.size:
                last_unsqueezed = int(block[hit[-1]])

        floor = max(last_unsqueezed, 0)
        while hi > floor:
            lo = max(hi - _ONSET_CHUNK + 1, floor + 1)
            q, qp, p = states(np.arange(lo, hi + 1, dtype=float))
            hit = np.flatnonzero(p + q - np.hypot(p - q, 2.0 * qp) >= 1.0)
            if hit.size:
                last_unsqueezed = lo + int(hit[-1])
                break
            hi = lo - 1
    onset = None if last_unsqueezed == n_kicks else last_unsqueezed + 1
    return Samples(kicks, moments, onset)


def squeezing_onset(v0: MomentVector, cycle: CycleMap, n_kicks: int) -> int | None:
    """First kick index after which the minimum variance stays below vacuum:
    one past the last unsqueezed kick of an n_kicks-long run, or None when
    the run ends unsqueezed.  The same as stroboscopic_evolve(...).onset,
    which a caller that also wants the samples should read instead.
    """
    return stroboscopic_evolve(v0, cycle, n_kicks, max(n_kicks, 1)).onset


def _intra_rows(
    v_at_kick: MomentVector, cycle: CycleMap, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """intra_period_trace as arrays: the offsets and the (n_samples, 3)
    moments at them.  Raises ValueError for a row that is not finite, then
    _check_physical's errors, as MomentVector does for each row."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    v = v_at_kick
    kicked = MomentVector(*_kick(v.sigma_q, v.sigma_qp, v.sigma_p, cycle.theta)).as_array()
    offsets = [cycle.tau * j / (n_samples - 1) for j in range(n_samples)]
    F, v_inh = (np.array(x) for x in zip(*(_flight(cycle.params, s) for s in offsets)))
    # every offset's flight M kicked + v_inh, each row's sum over every
    # offset at once: F's entries and v_inh's as columns across the offsets
    M = _congruence(F.transpose(1, 2, 0))
    rows = np.column_stack([_dot(m, kicked) + b for m, b in zip(M, v_inh.T)])
    for name, x in zip(("sigma_q", "sigma_qp", "sigma_p"), rows.T):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite, got {x[~np.isfinite(x)][0]}")
    _check_physical(*rows.T)
    return np.array(offsets), rows


def intra_period_trace(
    v_at_kick: MomentVector, cycle: CycleMap, n_samples: int
) -> list[tuple[float, MomentVector]]:
    """Fine-grained state within one period, starting just after the kick.

    Kicks v_at_kick, the state just before a kick, then samples the free
    flow at offsets j*tau/(n_samples-1): entry 0 is the kicked state and
    the last entry equals the next stroboscopic state.
    """
    offsets, rows = _intra_rows(v_at_kick, cycle, n_samples)
    return [(s, MomentVector(*row)) for s, row in zip(offsets.tolist(), rows.tolist())]


def steady_state(cycle: CycleMap) -> MomentVector:
    """Fixed point of the cyclic map, Sigma_inf = sum_k T^k N T^k^T: the
    limit of the evaluator that the cycle map holds and stroboscopic_evolve
    runs, so the closed form's own limit where that is certified, else
    Smith's sum from _powers' squarings.

    Raises NoStationaryStateError unless rho(A) < 1 - 1e-12 (_has_limit)
    and the limit is finite with positive variances, and
    UnphysicalStateError when the fixed point violates the floor.
    """
    if not _has_limit(cycle):
        raise NoStationaryStateError(
            "no stationary state: spectral radius of the cycle map is "
            f"{cycle.spectral_radius} >= 1"
        )
    x = cycle._evaluator.limit
    # the fixed point of a contraction has positive variances; a limit with
    # anything else has lost every digit
    if not (all(map(math.isfinite, x)) and x[0] > 0.0 and x[2] > 0.0):
        raise NoStationaryStateError(
            f"stationary state not resolvable in float64: the period map's limit is {tuple(x)}"
        )
    return MomentVector(*x)


def metric_arrays(q, qp, p) -> StateMetrics:
    """Vectorized metrics on moment columns.

    Returns a StateMetrics of arrays of the broadcast shape of the inputs.
    Shared by state_metrics and the ensemble aggregation.  Raises
    DivergenceError when the determinant or the eigenvalue spread overflows
    float64, from moments of about 1e154, then _check_physical's errors.
    Determinants a rounding error below the floor, which that rule passes,
    are treated as exactly at the floor (purity 1, entropy 0).
    """
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    p = np.asarray(p, dtype=float)
    d = p - q
    # overflow here is reported by the DivergenceError below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.sqrt(d * d + 4.0 * qp * qp)
        det = q * p - qp * qp
    if not (np.isfinite(det).all() and np.isfinite(spread).all()):
        raise DivergenceError(
            "moments out of float64 range: sigma_q*sigma_p - sigma_qp^2 or the"
            " eigenvalue spread is not finite"
        )
    _check_physical(q, qp, p)
    # the smaller eigenvalue as det / (larger one): (p + q - spread)/2 loses
    # the digits of p + q when sigma_p >> sigma_q
    sigma_min = 2.0 * det / (p + q + spread)
    squeezing_db = 10.0 * np.log10(2.0 * sigma_min)
    # rounding below the floor survived the check above; treat it as exactly
    # at the floor so purity <= 1 and entropy >= 0 by construction
    nu = np.sqrt(np.maximum(det, UNCERTAINTY_FLOOR))  # symplectic eigenvalue
    purity = 0.5 / nu
    a = nu + 0.5
    bb = nu - 0.5
    b_safe = np.where(bb > 0.0, bb, 1.0)
    entropy = np.maximum(a * np.log(a) - bb * np.log(b_safe), 0.0)
    # -0.0 in the numerator would select the -pi branch at sigma_p < sigma_q
    # and land phi on -pi/2 instead of the principal +pi/2.
    y = -2.0 * qp
    y = np.where(y == 0.0, 0.0, y)
    phi_min = 0.5 * np.arctan2(y, d)
    n_eff = 0.5 * (p + q - 1.0)
    return StateMetrics(sigma_min, phi_min, squeezing_db, purity, entropy, n_eff)


def state_metrics(v: MomentVector) -> StateMetrics:
    """Scalar observables of a Gaussian state.

    phi_min is the quadrature phase minimizing the rotated variance
    q*cos(phi) + p*sin(phi), reported in (-pi/2, pi/2]; an isotropic state
    gets phi_min = 0.  Entropy uses natural logarithms and is exactly 0 for
    a pure state; a determinant a rounding error below the uncertainty
    floor is treated as exactly at the floor.
    """
    return StateMetrics._make(map(float, metric_arrays(v.sigma_q, v.sigma_qp, v.sigma_p)))
