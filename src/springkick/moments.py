"""Second-moment dynamics of a kicked, damped mechanical mode.

A zero-mean Gaussian state of a single mechanical mode (dimensionless
quadratures with [q, p] = i, vacuum variance 1/2) is fully described by the
vector of second moments (var q, sym cov qp, var p).  Between kicks the mode
undergoes damped harmonic evolution in contact with a thermal bath, which is
linear in the moments; a kick is an instantaneous momentum shear
p -> p - 2*theta*q produced by a short burst of intracavity light stiffening
the trap.  Both maps are affine on the moment vector, so the stroboscopic
dynamics reduces to iterating a 3x3 affine map, and the stationary state is
its fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

VACUUM_VARIANCE = 0.5
UNCERTAINTY_FLOOR = 0.25  # minimum of var(q)*var(p) - cov^2 for a physical state
UNCERTAINTY_ATOL = 1e-9


class DivergenceError(RuntimeError):
    """Raised when iterated moments stop being finite."""


class NoStationaryStateError(RuntimeError):
    """Raised when the cyclic map has no attracting fixed point."""


class UnphysicalStateError(ValueError):
    """Raised when moments violate the uncertainty floor det >= 1/4.

    The drift keeps thermal-neighborhood states physical but is not a
    completely positive map on arbitrary Gaussian states; strong kicks can
    push the iteration (or its fixed point) past the floor, which marks the
    model leaving its validity domain rather than a numerical bug.
    """


@dataclass(frozen=True)
class MechanicalParams:
    """Mechanical mode: angular frequency, energy damping rate, bath occupancy."""

    omega_m: float
    gamma_m: float
    n_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_m) and self.omega_m > 0):
            raise ValueError(f"omega_m must be finite and > 0, got {self.omega_m}")
        if not (math.isfinite(self.gamma_m) and self.gamma_m >= 0):
            raise ValueError(f"gamma_m must be finite and >= 0, got {self.gamma_m}")
        if not (math.isfinite(self.n_bar) and self.n_bar >= 0):
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


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
        if self.sigma_q <= 0:
            raise ValueError(f"sigma_q must be > 0, got {self.sigma_q}")
        if self.sigma_p <= 0:
            raise ValueError(f"sigma_p must be > 0, got {self.sigma_p}")
        # det comes from a cancellation of products; tolerate rounding at the
        # scale of the operands, not of det itself (matters after strong kicks
        # where sigma_p ~ theta^2 sigma_q while det stays near the floor)
        scale = self.sigma_q * self.sigma_p + self.sigma_qp * self.sigma_qp
        tol = max(UNCERTAINTY_ATOL, 1e-12 * scale)
        if self.det < UNCERTAINTY_FLOOR - tol:
            raise UnphysicalStateError(
                "uncertainty relation violated: "
                f"sigma_q*sigma_p - sigma_qp^2 = {self.det} < 1/4"
            )

    @property
    def det(self) -> float:
        """Determinant of the 2x2 covariance matrix, >= 1/4 for physical states."""
        return self.sigma_q * self.sigma_p - self.sigma_qp * self.sigma_qp

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_q, self.sigma_qp, self.sigma_p])

    @classmethod
    def from_array(cls, v) -> "MomentVector":
        return cls(float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True, eq=False)
class DriftModel:
    """Affine generator d(moments)/dt = B.moments + b of the damped free evolution."""

    B: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class Propagator:
    """Flow of the drift over a fixed duration: moments -> M.moments + v_inh."""

    duration: float
    M: np.ndarray
    v_inh: np.ndarray


@dataclass(frozen=True, eq=False)
class KickMap:
    """Moment-space image of the momentum shear p -> p - 2*theta*q."""

    theta: float
    K: np.ndarray


@dataclass(frozen=True, eq=False)
class CycleMap:
    """One full period: kick, then free evolution for tau.

    The affine map is moments -> A.moments + v_inh with A = M(tau).K.  The
    spectral radius of A decides whether repeated cycles converge to a
    stationary state.
    """

    tau: float
    theta: float
    drift: DriftModel
    kick: KickMap
    propagator: Propagator
    A: np.ndarray
    spectral_radius: float


@dataclass(frozen=True)
class StateMetrics:
    """Derived scalar observables of a Gaussian state."""

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


def build_drift(params: MechanicalParams) -> DriftModel:
    """Assemble the linear drift of the second moments under damped free evolution.

    d/dt sigma_q  =  2 omega_m sigma_qp
    d/dt sigma_qp =  omega_m (sigma_p - sigma_q) - gamma_m sigma_qp
    d/dt sigma_p  = -2 omega_m sigma_qp - 2 gamma_m sigma_p + gamma_m (2 n_bar + 1)
    """
    w, g = params.omega_m, params.gamma_m
    B = np.array(
        [
            [0.0, 2.0 * w, 0.0],
            [-w, -g, w],
            [0.0, -2.0 * w, -2.0 * g],
        ]
    )
    b = np.array([0.0, 0.0, g * (2.0 * params.n_bar + 1.0)])
    return DriftModel(B=B, b=b)


def matrix_exponential(B: np.ndarray, t: float) -> np.ndarray:
    """exp(B*t) for a small dense matrix."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)) or not math.isfinite(t):
        raise ValueError("matrix_exponential requires finite entries and time")
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return np.eye(B.shape[0])
    return expm(B * t)


def make_propagator(drift: DriftModel, t: float) -> Propagator:
    """Exact flow of the affine drift over duration t.

    Uses the augmented-matrix trick: exp(t*[[B, b], [0, 0]]) holds exp(B t) in
    its upper-left block and the inhomogeneous displacement in its last
    column.  This stays well behaved for gamma_m = 0 (b = 0), where B is not
    invertible.
    """
    F = np.zeros((4, 4))
    F[:3, :3] = drift.B
    F[:3, 3] = drift.b
    E = matrix_exponential(F, t)
    return Propagator(duration=t, M=E[:3, :3].copy(), v_inh=E[:3, 3].copy())


def propagate_free(v: MomentVector, prop: Propagator) -> MomentVector:
    """Damped free evolution of the moments over the propagator's duration."""
    return MomentVector.from_array(prop.M @ v.as_array() + prop.v_inh)


def kick_map(theta: float) -> KickMap:
    """Moment-space matrix of one kick of strength theta."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    K = np.array(
        [
            [1.0, 0.0, 0.0],
            [-2.0 * theta, 1.0, 0.0],
            [4.0 * theta * theta, -4.0 * theta, 1.0],
        ]
    )
    return KickMap(theta=theta, K=K)


def apply_kick(v: MomentVector, kick: KickMap) -> MomentVector:
    """Instantaneous kick: var q unchanged, momentum shears by -2*theta*q."""
    theta = kick.theta
    t2 = 2.0 * theta
    t4 = 4.0 * theta
    t4sq = t4 * theta
    return MomentVector(
        v.sigma_q,
        v.sigma_qp - t2 * v.sigma_q,
        v.sigma_p - t4 * v.sigma_qp + t4sq * v.sigma_q,
    )


def cycle_map(params: MechanicalParams, tau: float, theta: float) -> CycleMap:
    """Affine map of one full period: kick of strength theta, then free decay for tau."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    drift = build_drift(params)
    prop = make_propagator(drift, tau)
    kick = kick_map(theta)
    A = prop.M @ kick.K
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    return CycleMap(
        tau=tau,
        theta=theta,
        drift=drift,
        kick=kick,
        propagator=prop,
        A=A,
        spectral_radius=rho,
    )


# The per-period update is written out twice with the same expression
# structure: on scalars in stroboscopic_evolve and on numpy columns in
# ensemble._run_block; every other iteration calls one of the two.  The
# scalar copy stays inlined because a step function called once per kick
# made 10^6 fig1 kicks 17-47% slower.  A noise-free ensemble is bit-identical
# to the deterministic iteration; test_ensemble.py's
# test_zero_variance_matches_deterministic_bitwise ties the copies together.


def _unpack_cycle(cycle: CycleMap):
    # Python floats: same IEEE doubles, but the hot loops run on them faster
    # and overflow to inf silently instead of spamming numpy warnings.
    M = cycle.propagator.M
    b = cycle.propagator.v_inh
    return tuple(
        float(x)
        for x in (
            M[0, 0], M[0, 1], M[0, 2],
            M[1, 0], M[1, 1], M[1, 2],
            M[2, 0], M[2, 1], M[2, 2],
            b[0], b[1], b[2],
        )
    )


def advance_cycle(v: MomentVector, cycle: CycleMap) -> MomentVector:
    """One period applied to a state: kick, then free evolution.

    Raises DivergenceError if the result is not finite.
    """
    return stroboscopic_evolve(v, cycle, 1)[-1][1]


class Samples(list):
    """Sampled (kick index, state) pairs of one run, plus its squeezing onset.

    A plain list of the samples; onset is the squeezing_onset of the whole
    run, found by the same pass over the kicks.
    """

    onset: int | None = None


def stroboscopic_evolve(
    v0: MomentVector,
    cycle: CycleMap,
    n_kicks: int,
    sample_stride: int = 1,
) -> Samples:
    """Iterate the cyclic map n_kicks times, recording sampled states.

    Entry (n, state) holds the state after n full periods, i.e. just before
    the (n+1)-th kick.  The initial state (n = 0), every sample_stride-th
    state, and the final state are always recorded.  Every period is also
    tested for squeezing, and the result carries the run's squeezing onset
    as .onset (see squeezing_onset).  Raises DivergenceError if a sampled
    moment stops being finite.
    """
    if n_kicks < 0:
        raise ValueError(f"n_kicks must be >= 0, got {n_kicks}")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")

    theta = cycle.theta
    t2 = 2.0 * theta
    t4 = 4.0 * theta
    t4sq = t4 * theta
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cycle)
    sqrt = math.sqrt
    isfinite = math.isfinite

    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    d = p - q
    # 2*sigma_min >= 2*vacuum: the state at this kick is not squeezed
    last_unsqueezed = 0 if p + q - sqrt(d * d + 4.0 * qp * qp) >= 1.0 else -1
    samples = Samples([(0, v0)])
    n = 0
    while n < n_kicks:
        end = min(n + sample_stride, n_kicks)
        for k in range(n + 1, end + 1):
            qp_k = qp - t2 * q
            p_k = p - t4 * qp + t4sq * q
            q_new = m00 * q + m01 * qp_k + m02 * p_k + b0
            qp = m10 * q + m11 * qp_k + m12 * p_k + b1
            p = m20 * q + m21 * qp_k + m22 * p_k + b2
            q = q_new
            d = p - q
            if p + q - sqrt(d * d + 4.0 * qp * qp) >= 1.0:
                last_unsqueezed = k
        n = end
        if not (isfinite(q) and isfinite(qp) and isfinite(p)):
            raise DivergenceError(
                f"moments diverged (non-finite) at kick {n}: ({q}, {qp}, {p})"
            )
        samples.append((n, MomentVector(q, qp, p)))
    samples.onset = None if last_unsqueezed == n_kicks else last_unsqueezed + 1
    return samples


def squeezing_onset(v0: MomentVector, cycle: CycleMap, n_kicks: int) -> int | None:
    """First kick index after which the minimum variance stays below vacuum.

    Scans every period of an n_kicks-long run and returns one past the last
    index at which the state was not squeezed.  Returns None when the run
    ends unsqueezed, so no permanent onset can be certified within n_kicks.
    The same as stroboscopic_evolve(...).onset, which a caller that also
    wants the samples should read instead of scanning the kicks twice.
    """
    return stroboscopic_evolve(v0, cycle, n_kicks, max(n_kicks, 1)).onset


def intra_period_trace(
    v_at_kick: MomentVector, cycle: CycleMap, n_samples: int
) -> list[tuple[float, MomentVector]]:
    """Fine-grained state within one period, starting just before the kick.

    Samples the free flow at offsets j*tau/(n_samples-1) applied to the
    kicked state; the last entry therefore equals the next stroboscopic
    state.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    kicked = apply_kick(v_at_kick, cycle.kick)
    out = []
    for j in range(n_samples):
        s = cycle.tau * j / (n_samples - 1)
        prop = make_propagator(cycle.drift, s)
        out.append((s, propagate_free(kicked, prop)))
    return out


def steady_state(cycle: CycleMap) -> MomentVector:
    """Fixed point of the cyclic map, from the direct 3x3 linear solve."""
    # eigenvalues of an exactly marginal map round to just under 1, so the
    # contraction test needs a margin or the solve runs on a singular matrix
    if not cycle.spectral_radius < 1.0 - 1e-12:
        raise NoStationaryStateError(
            "no stationary state: spectral radius of the cycle map is "
            f"{cycle.spectral_radius} >= 1"
        )
    x = np.linalg.solve(np.eye(3) - cycle.A, cycle.propagator.v_inh)
    return MomentVector.from_array(x)


_FIXED_POINT_BLOCK = 4096


def steady_state_iterative(
    cycle: CycleMap,
    v0: MomentVector | None = None,
    rel_tol: float = 1e-12,
    max_kicks: int = 20_000_000,
) -> MomentVector:
    """Cross-check mode: iterate periods until the relative change per period
    drops below rel_tol.  The closed-form steady_state is authoritative.

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


def metric_arrays(q, qp, p):
    """Vectorized metrics on moment columns.

    Returns (sigma_min, phi_min, squeezing_db, purity, entropy, n_eff) as
    arrays of the broadcast shape of the inputs.  Shared by state_metrics
    and the ensemble aggregation.  Determinants a rounding error below the
    uncertainty floor are treated as exactly at the floor (purity 1, entropy
    0); anything below the scale-aware tolerance raises.
    """
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    p = np.asarray(p, dtype=float)
    d = p - q
    spread = np.sqrt(d * d + 4.0 * qp * qp)
    sigma_min = 0.5 * (p + q - spread)
    squeezing_db = 10.0 * np.log10(2.0 * sigma_min)
    det = q * p - qp * qp
    # same operand-scale rounding allowance as MomentVector validation
    tol = np.maximum(UNCERTAINTY_ATOL, 1e-12 * (q * p + qp * qp))
    if np.any(det < UNCERTAINTY_FLOOR - tol):
        raise UnphysicalStateError(
            "uncertainty relation violated: min(sigma_q*sigma_p - sigma_qp^2) = "
            f"{np.min(det)} < 1/4"
        )
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
    return sigma_min, phi_min, squeezing_db, purity, entropy, n_eff


def state_metrics(v: MomentVector) -> StateMetrics:
    """Scalar observables of a Gaussian state.

    phi_min is the quadrature phase minimizing the rotated variance
    q*cos(phi) + p*sin(phi), reported in (-pi/2, pi/2]; an isotropic state
    gets phi_min = 0.  Entropy uses natural logarithms and is exactly 0 for
    a pure state; a determinant a rounding error below the uncertainty
    floor is treated as exactly at the floor.
    """
    sigma_min, phi_min, squeezing_db, purity, entropy, n_eff = (
        float(x) for x in metric_arrays(v.sigma_q, v.sigma_qp, v.sigma_p)
    )
    return StateMetrics(
        sigma_min=sigma_min,
        phi_min=phi_min,
        squeezing_db=squeezing_db,
        purity=purity,
        entropy=entropy,
        n_eff=n_eff,
    )
