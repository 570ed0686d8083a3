"""Physical inputs to the kick model: coupling rate, intracavity field, kick strength.

A short laser pulse drives an optical cavity whose field couples to the
square of a membrane's position (membrane at a field node).  While photons
occupy the cavity, the membrane feels a stiffened potential; the net impulse
of one pulse is summarized by the dimensionless kick strength
theta = 2 g2 integral |alpha(t)|^2 dt.  This module evaluates the quadratic
coupling g2 from cavity and membrane data, integrates the intracavity
amplitude alpha(t) driven by a rectangular or gaussian pulse envelope, and
reports the dimensionless ratios behind the delta-kick approximation
(pulse much shorter than the cavity lifetime, cavity empty again well before
the next pulse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import MechanicalParams

# SI defining constants, exact since the 2019 redefinition; hbar = h/(2 pi).
SPEED_OF_LIGHT = 299792458.0  # m/s
PLANCK = 6.62607015e-34  # J s
HBAR = PLANCK / (2 * math.pi)
BOLTZMANN = 1.380649e-23  # J/K

PULSE_SHAPES = ("rectangular", "gaussian")

# Max grid step must stay below the fastest local timescale divided by this.
GRID_RESOLUTION_FACTOR = 50.0

# Gauss-Legendre nodes/weights on [0, 1], 8 points; exact through degree 15.
# The reprs of numpy.polynomial.legendre.leggauss(8) mapped from [-1, 1],
# written out so that the import runs no LAPACK solve.
_GL_NODES = np.array([
    0.019855071751231912, 0.10166676129318664, 0.2372337950418355, 0.4082826787521751,
    0.5917173212478248, 0.7627662049581645, 0.8983332387068134, 0.9801449282487681,
])
_GL_WEIGHTS = np.array([
    0.05061426814518853, 0.11119051722668721, 0.15685332293894344, 0.18134189168918083,
    0.18134189168918083, 0.15685332293894344, 0.11119051722668721, 0.05061426814518853,
])


class GridResolutionError(ValueError):
    """Raised when a time grid is too coarse to resolve pulse or cavity decay."""


@dataclass(frozen=True)
class CavityParams:
    """Optical cavity: length, input coupling rate, internal loss, drive wavelength."""

    length_L: float
    kappa_0: float
    wavelength: float
    kappa_loss: float = 0.0

    def __post_init__(self):
        for name in ("length_L", "kappa_0", "wavelength"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise ValueError(f"{name} must be finite and > 0, got {x}")
        if not (math.isfinite(self.kappa_loss) and self.kappa_loss >= 0):
            raise ValueError(f"kappa_loss must be finite and >= 0, got {self.kappa_loss}")

    @property
    def kappa(self) -> float:
        """Total amplitude decay rate."""
        return self.kappa_0 + self.kappa_loss

    @property
    def omega_c(self) -> float:
        """Drive angular frequency 2*pi*c/lambda."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class MembraneParams:
    """Membrane in the middle: mass and intensity reflectivity."""

    mass: float
    reflectivity_R: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be finite and > 0, got {self.mass}")
        if not (math.isfinite(self.reflectivity_R) and 0.0 <= self.reflectivity_R < 1.0):
            raise ValueError(
                f"reflectivity_R must be in [0, 1), got {self.reflectivity_R}"
            )


@dataclass(frozen=True)
class PulseSpec:
    """One drive pulse: envelope shape, duration, peak power, repetition period.

    duration_tau_p is the full width of a rectangular pulse and the FWHM of
    the power envelope of a gaussian one (centered at duration_tau_p/2).
    """

    shape: str
    duration_tau_p: float
    peak_power: float
    period_tau: float

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"shape must be one of {PULSE_SHAPES}, got {self.shape!r}")
        if not (math.isfinite(self.duration_tau_p) and self.duration_tau_p > 0):
            raise ValueError(
                f"duration_tau_p must be finite and > 0, got {self.duration_tau_p}"
            )
        if not (math.isfinite(self.period_tau) and self.period_tau > self.duration_tau_p):
            raise ValueError(
                "period_tau must exceed duration_tau_p, got "
                f"period_tau={self.period_tau}, duration_tau_p={self.duration_tau_p}"
            )
        if not (math.isfinite(self.peak_power) and self.peak_power >= 0):
            raise ValueError(f"peak_power must be finite and >= 0, got {self.peak_power}")

    @property
    def envelope_end(self) -> float:
        """Time past which the drive is negligible (exact zero for rectangular)."""
        if self.shape == "rectangular":
            return self.duration_tau_p
        return 4.0 * self.duration_tau_p


@dataclass(frozen=True)
class BathParams:
    """Thermal bath seen by the mechanical mode: cutoff frequency and temperature."""

    omega_c_cutoff: float
    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_c_cutoff) and self.omega_c_cutoff > 0):
            raise ValueError(
                f"omega_c_cutoff must be finite and > 0, got {self.omega_c_cutoff}"
            )
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )


@dataclass(frozen=True, eq=False)
class PhotonTrace:
    """Sampled intracavity photon number |alpha(t)|^2 on a time grid."""

    times: np.ndarray
    photon_number: np.ndarray

    @property
    def peak(self) -> float:
        return float(np.max(self.photon_number))

    def integral(self) -> float:
        """Trapezoidal integral of |alpha(t)|^2 dt."""
        return float(np.trapezoid(self.photon_number, self.times))


@dataclass(frozen=True)
class RegimeCheck:
    """One inequality behind the kick model, with its dimensionless margin."""

    name: str
    kind: str  # "strict" (>), "much_greater" (>>), "gtrsim" (>~)
    ratio: float
    status: str  # "pass", "marginal", "fail"


@dataclass(frozen=True)
class RegimeReport:
    """All validity checks for one parameter set."""

    checks: tuple[RegimeCheck, ...]

    @property
    def hard_pass(self) -> bool:
        """True when every strict and much_greater inequality passes."""
        return all(
            c.status == "pass" for c in self.checks if c.kind in ("strict", "much_greater")
        )

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(f"{c.status:8s} {c.name}  (ratio {c.ratio:.3g}, {c.kind})")
        return out


def coupling_g2(cavity: CavityParams, membrane: MembraneParams, omega_m: float) -> float:
    """Quadratic optomechanical coupling rate for a membrane at a cavity node.

    g2 = (16 pi^2 c hbar / (lambda^2 L m omega_m)) * sqrt(R / (1 - R))
    """
    if not (math.isfinite(omega_m) and omega_m > 0):
        raise ValueError(f"omega_m must be finite and > 0, got {omega_m}")
    R = membrane.reflectivity_R
    pref = (16.0 * math.pi**2 * SPEED_OF_LIGHT * HBAR) / (
        cavity.wavelength**2 * cavity.length_L * membrane.mass * omega_m
    )
    return pref * math.sqrt(R / (1.0 - R))


def drive_amplitude(pulse: PulseSpec, cavity: CavityParams, t) -> np.ndarray:
    """Cavity input amplitude E0(t) = sqrt(2 P0(t) kappa_0 / (hbar omega_c)).

    Vectorized over t.  Rectangular pulses are on for 0 <= t < tau_p; the
    gaussian power envelope peaks at tau_p/2 with FWHM tau_p and is never
    truncated.
    """
    t = np.asarray(t, dtype=float)
    if pulse.shape == "rectangular":
        power = np.where((t >= 0.0) & (t < pulse.duration_tau_p), pulse.peak_power, 0.0)
    else:
        x = t - 0.5 * pulse.duration_tau_p
        power = pulse.peak_power * np.exp(-4.0 * math.log(2.0) * x * x / pulse.duration_tau_p**2)
    return np.sqrt(2.0 * power * cavity.kappa_0 / (HBAR * cavity.omega_c))


def default_time_grid(pulse: PulseSpec, cavity: CavityParams) -> np.ndarray:
    """Two-segment grid: dense across the pulse, cavity-lifetime steps in the tail.

    The pulse segment runs to the envelope end with steps
    min(tau_p, 1/kappa)/1000; the tail continues to
    min(period_tau, envelope_end + 40/kappa) with steps (1/kappa)/1000, by
    which point the field has decayed to ~e^-40 of its peak.
    """
    kappa = cavity.kappa
    t_pulse = pulse.envelope_end
    h_pulse = min(pulse.duration_tau_p, 1.0 / kappa) / 1000.0
    n_pulse = max(int(math.ceil(t_pulse / h_pulse)), 2)
    seg1 = np.linspace(0.0, t_pulse, n_pulse + 1)

    t_end = min(pulse.period_tau, t_pulse + 40.0 / kappa)
    if t_end <= t_pulse:
        return seg1
    h_tail = (1.0 / kappa) / 1000.0
    n_tail = max(int(math.ceil((t_end - t_pulse) / h_tail)), 2)
    seg2 = np.linspace(t_pulse, t_end, n_tail + 1)
    return np.concatenate([seg1, seg2[1:]])


def _check_grid(pulse: PulseSpec, cavity: CavityParams, grid: np.ndarray) -> None:
    if grid.ndim != 1 or grid.size < 2:
        raise GridResolutionError("grid must be a 1-d array of at least 2 times")
    steps = np.diff(grid)
    if not np.all(steps > 0):
        raise GridResolutionError("grid times must be strictly increasing")
    if grid[0] != 0.0:
        raise GridResolutionError(f"grid must start at t=0, got {grid[0]}")
    kappa = cavity.kappa
    t_pulse = pulse.envelope_end
    # Inside the pulse both the envelope and the cavity response must be
    # resolved; past it only the kappa decay remains.
    bound_pulse = min(pulse.duration_tau_p, 1.0 / kappa) / GRID_RESOLUTION_FACTOR
    bound_tail = (1.0 / kappa) / GRID_RESOLUTION_FACTOR
    in_pulse = grid[:-1] < t_pulse
    if np.any(steps[in_pulse] > bound_pulse):
        raise GridResolutionError(
            "grid too coarse: pulse-segment step "
            f"{np.max(steps[in_pulse]):.3e} exceeds {bound_pulse:.3e} "
            f"(min(tau_p, 1/kappa)/{GRID_RESOLUTION_FACTOR:.0f})"
        )
    if np.any(steps[~in_pulse] > bound_tail):
        raise GridResolutionError(
            "grid too coarse: tail step "
            f"{np.max(steps[~in_pulse]):.3e} exceeds {bound_tail:.3e} "
            f"((1/kappa)/{GRID_RESOLUTION_FACTOR:.0f})"
        )


def intracavity_amplitude(
    pulse: PulseSpec, cavity: CavityParams, grid: np.ndarray | None = None
) -> PhotonTrace:
    """Integrate alpha' = -kappa*alpha + E0(t) from alpha(0)=0 on the grid.

    Per step the update is exact in the decay and Gauss-Legendre in the
    drive: alpha[j+1] = alpha[j]*exp(-kappa*h) + integral of
    E0(t_j+s)*exp(-kappa*(h-s)) ds, so accuracy is set by how well 8-point
    quadrature captures the envelope across one step, not by the decay rate.

    The recursion runs only over the driven steps, those below m, the first
    grid time at or past the envelope's peak (t = 0 for a rectangular pulse,
    tau_p/2 for a gaussian one) where E0 is exactly 0.0.  Past its peak the
    envelope does not increase, in floating point too: t - tau_p/2, its
    square, the scaling, exp and sqrt each round monotonically.  Every node
    of a step j >= m lies at or after t_m, so E0 is 0.0 there, and so is the
    step's drive integral, a sum of finite weights times 0.0.  The update
    a*d + 0.0 is then a*d, and the tail is a sequential product of the
    decays from alpha[m] on, bit for bit what the full recursion gives.  A
    rectangular pulse is driven up to tau_p; a gaussian one until exp
    underflows, at about 16 tau_p past its peak.
    """
    if grid is None:
        grid = default_time_grid(pulse, cavity)
    grid = np.asarray(grid, dtype=float)
    _check_grid(pulse, cavity, grid)

    kappa = cavity.kappa
    h = np.diff(grid)
    decay = np.exp(-kappa * h)
    peak = 0.0 if pulse.shape == "rectangular" else 0.5 * pulse.duration_tau_p
    off = (drive_amplitude(pulse, cavity, grid) == 0.0) & (grid >= peak)
    m = int(np.argmax(off)) if off.any() else h.size
    # Node times of every driven step at once: t[j] + x[i]*h[j], shape (m, 8).
    h_on = h[:m, None]
    tnodes = grid[:m, None] + h_on * _GL_NODES[None, :]
    enodes = drive_amplitude(pulse, cavity, tnodes)
    wnodes = (_GL_WEIGHTS[None, :] * h_on) * np.exp(-kappa * h_on * (1.0 - _GL_NODES[None, :]))
    drive_integrals = np.sum(wnodes * enodes, axis=1)

    alpha = np.empty(grid.size)
    alpha[0] = 0.0
    a = 0.0
    for j, (d, drive) in enumerate(zip(decay[:m].tolist(), drive_integrals.tolist())):
        a = a * d + drive
        alpha[j + 1] = a
    # the undriven tail, ((alpha[m] d[m]) d[m+1]) ..., in the recursion's order
    alpha[m] = a
    alpha[m + 1 :] = decay[m:]
    np.multiply.accumulate(alpha[m:], out=alpha[m:])
    return PhotonTrace(times=grid, photon_number=alpha * alpha)


def kick_strength(g2: float, trace: PhotonTrace) -> float:
    """theta = 2 * g2 * integral |alpha(t)|^2 dt over the sampled trace."""
    if not math.isfinite(g2):
        raise ValueError(f"g2 must be finite, got {g2}")
    return 2.0 * g2 * trace.integral()


def theta_from_physical(
    pulse: PulseSpec,
    cavity: CavityParams,
    membrane: MembraneParams,
    omega_m: float,
    grid: np.ndarray | None = None,
) -> tuple[float, PhotonTrace]:
    """Full chain pulse -> field -> kick strength; returns (theta, trace)."""
    g2 = coupling_g2(cavity, membrane, omega_m)
    trace = intracavity_amplitude(pulse, cavity, grid)
    return kick_strength(g2, trace), trace


def temperature_for_occupancy(omega_m: float, n_bar: float) -> float:
    """Bath temperature giving mean occupancy n_bar at frequency omega_m.

    Inverts the Bose distribution; returns 0.0 at n_bar = 0.
    """
    if not (math.isfinite(omega_m) and omega_m > 0):
        raise ValueError(f"omega_m must be finite and > 0, got {omega_m}")
    if not (math.isfinite(n_bar) and n_bar >= 0):
        raise ValueError(f"n_bar must be finite and >= 0, got {n_bar}")
    if n_bar == 0.0:
        return 0.0
    return HBAR * omega_m / (BOLTZMANN * math.log1p(1.0 / n_bar))


def _grade(kind: str, ratio: float) -> str:
    if kind == "much_greater":
        if ratio >= 10.0:
            return "pass"
        if ratio >= 3.0:
            return "marginal"
        return "fail"
    # strict ">" and "gtrsim" share a single threshold.
    return "pass" if ratio >= 1.0 else "fail"


def regime_check(
    pulse: PulseSpec,
    cavity: CavityParams,
    mech: MechanicalParams,
    bath: BathParams,
    q2_estimate: float,
    g2: float,
) -> RegimeReport:
    """Dimensionless validity ratios of the delta-kick and Markov approximations.

    Each check reports ratio = lhs/rhs of its inequality; grading: ">>" passes
    at ratio >= 10 and is marginal in [3, 10); ">" and ">~" pass at ratio >= 1.
    A failed bath check flags questionable Markovianity but is not fatal to
    the moment dynamics itself.
    """
    if not (math.isfinite(q2_estimate) and q2_estimate > 0):
        raise ValueError(f"q2_estimate must be finite and > 0, got {q2_estimate}")
    kappa = cavity.kappa
    inv_tau_p = 1.0 / pulse.duration_tau_p
    fsr_rate = SPEED_OF_LIGHT / (2.0 * cavity.length_L)
    checks = []

    def add(name, kind, ratio):
        checks.append(RegimeCheck(name=name, kind=kind, ratio=ratio, status=_grade(kind, ratio)))

    add("single-mode drive: c/2L > 1/tau_p", "strict", fsr_rate * pulse.duration_tau_p)
    add("impulsive pulse: 1/tau_p >> kappa", "much_greater", inv_tau_p / kappa)
    add("cavity empties between kicks: kappa >> 1/tau", "much_greater", kappa * pulse.period_tau)
    add("field adiabatic in q: kappa >> g2*<q^2>", "much_greater", kappa / (g2 * q2_estimate))
    add("bath cutoff: Omega_c*tau >~ 1", "gtrsim", bath.omega_c_cutoff * pulse.period_tau)
    add(
        "thermal correlation time: k_B*T*tau/hbar >~ 1",
        "gtrsim",
        BOLTZMANN * bath.temperature * pulse.period_tau / HBAR,
    )
    return RegimeReport(checks=tuple(checks))
