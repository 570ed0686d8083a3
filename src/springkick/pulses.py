"""Physical inputs to the kick model: coupling rate, intracavity field, kick strength.

A short laser pulse drives an optical cavity whose field couples to the
square of a membrane's position (membrane at a field node).  While photons
occupy the cavity, the membrane feels a stiffened potential; the net impulse
of one pulse is summarized by the dimensionless kick strength
theta = 2 g2 integral |alpha(t)|^2 dt.  This module evaluates the quadratic
coupling g2 from cavity and membrane data; for a rectangular or gaussian
pulse envelope, that integral and the peak of |alpha|^2 to PHOTON_RTOL
without a time grid (photon_integral), and alpha(t) on a grid for plotting;
and it reports the dimensionless ratios behind the delta-kick approximation
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


# Bound on the panel-halving estimate of photon_integral's relative error.
PHOTON_RTOL = 1e-12
# A gaussian pulse is driven up to this many tau_p past its peak, where its
# amplitude is e^{-72 ln 2} ~ 2e-22 of the peak's; photon_integral takes the
# rest of its span as undriven decay.
_GAUSS_DRIVEN = 6.0
# Most panels one pass of photon_integral's gaussian rule may take (its
# halving pass takes twice as many), so that its node arrays stay below
# 8,192 x 9 x 8 doubles; past it the panels outgrow the cavity's lifetime
# and the halving estimate says so.
_MAX_PANELS = 4096


class GridResolutionError(ValueError):
    """Raised when a time grid or photon_integral's panels are too coarse to
    resolve pulse or cavity decay."""


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
    """Sampled intracavity photon number |alpha(t)|^2 on a time grid, for
    plotting; the integral and the peak come from photon_integral."""

    times: np.ndarray
    photon_number: np.ndarray


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


def _drive_steps(envelope, start, u, kappa: float) -> np.ndarray:
    """The drive's part of the field a step u after start: the integral over
    [start, start + u] of E(s) e^{-kappa (start + u - s)} ds, by the 8-point
    rule, for start and u that broadcast together.

    The step is exact in the decay, alpha(start + u) =
    alpha(start) e^{-kappa u} + this.  envelope maps an array of times to
    E there; the nodes are start + u x_k with weights
    (u w_k) e^{-kappa (u - u x_k)}, summed over the last axis.
    """
    u = u[..., None]
    offsets = u * _GL_NODES
    weights = (u * _GL_WEIGHTS) * np.exp(-kappa * (u - offsets))
    return np.sum(envelope(start[..., None] + offsets) * weights, axis=-1)


def _field(decays, drives) -> list[float]:
    """alpha from 0 after each step, alpha -> alpha * decay + drive, in
    order: the n + 1 values of n steps."""
    a, field = 0.0, [0.0]
    for d, e in zip(decays, drives):
        a = a * d + e
        field.append(a)
    return field


def intracavity_amplitude(
    pulse: PulseSpec, cavity: CavityParams, grid: np.ndarray | None = None
) -> PhotonTrace:
    """Integrate alpha' = -kappa*alpha + E0(t) from alpha(0)=0 on the grid.

    Per step the update is exact in the decay and Gauss-Legendre in the
    drive: alpha[j+1] = alpha[j]*exp(-kappa*h) + _drive_steps' integral of
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
    drives = _drive_steps(lambda t: drive_amplitude(pulse, cavity, t), grid[:m], h[:m], kappa)

    alpha = np.empty(grid.size)
    alpha[: m + 1] = _field(decay[:m].tolist(), drives.tolist())
    # the undriven tail, ((alpha[m] d[m]) d[m+1]) ..., in the recursion's order
    alpha[m + 1 :] = decay[m:]
    np.multiply.accumulate(alpha[m:], out=alpha[m:])
    return PhotonTrace(times=grid, photon_number=alpha * alpha)


def photon_integral(pulse: PulseSpec, cavity: CavityParams) -> tuple[float, float]:
    """(integral of |alpha(t)|^2 dt, peak of |alpha(t)|^2) for one pulse,
    without a time grid, to PHOTON_RTOL relative.

    The span is the one default_time_grid covers, [0, T] with
    T = min(period_tau, envelope_end + 40/kappa).  With x = kappa tau_p and
    E the drive's peak amplitude, a rectangular pulse gives
    (E^2/kappa^3) (f(x) + expm1(-x)^2 (-expm1(-2 kappa (T - tau_p)))/2),
    f(x) = integral_0^x (1 - e^{-s})^2 ds, and the peak
    (E expm1(-x)/kappa)^2 at tau_p.  A gaussian pulse takes _gaussian_photons.
    """
    kappa = cavity.kappa
    tau_p = pulse.duration_tau_p
    span = min(pulse.period_tau, pulse.envelope_end + 40.0 / kappa)
    drive2 = 2.0 * pulse.peak_power * cavity.kappa_0 / (HBAR * cavity.omega_c)
    if pulse.shape == "gaussian":
        integral, peak = _gaussian_photons(tau_p, kappa, span)
    else:
        x = kappa * tau_p
        a2 = math.expm1(-x) ** 2
        tail = -0.5 * math.expm1(-2.0 * kappa * (span - tau_p)) * a2
        integral = (_rectangular_on(x) + tail) / kappa**3
        peak = a2 / kappa**2
    return drive2 * integral, drive2 * peak


def _rectangular_on(x: float) -> float:
    """f(x) = integral_0^x (1 - e^{-s})^2 ds = x + 2 expm1(-x) - expm1(-2x)/2.

    Below x = 1, where those terms cancel, its series
    sum_{k>=3} (-1)^(k+1) (2^(k-1) - 2) x^k / k!, whose terms fall by 2x/k.
    """
    if x > 1.0:
        return x + 2.0 * math.expm1(-x) - 0.5 * math.expm1(-2.0 * x)
    term = x * x * x / 6.0  # x^k / k!, k = 3
    total = 2.0 * term
    k = 3
    while True:
        k += 1
        term *= -x / k
        step = term * (2.0 ** (k - 1) - 2.0)
        total += step
        if abs(step) <= 1e-17 * total:
            return total


def _gaussian_panels(tau_p: float, kappa: float, end: float, n: int):
    """alpha at the n + 1 ends of n equal panels of [0, end] and the
    integral of alpha^2 over them, for a gaussian drive of unit amplitude.

    Each panel is a step of intracavity_amplitude's recursion, _drive_steps
    from the panel's start t_j, at u = h (the panel's end) and at the rule's
    nodes u = x_i h, where the panel's own 8-point rule then sums alpha^2.
    """
    c = 2.0 * math.log(2.0) / tau_p**2
    h = end / n
    u = h * np.append(_GL_NODES, 1.0)
    # times from the envelope's peak
    starts = (np.arange(n) * h - 0.5 * tau_p)[:, None]
    driven = _drive_steps(lambda x: np.exp(-c * x * x), starts, u, kappa)  # (n, 9)
    ends = np.array(_field([math.exp(-kappa * h)] * n, driven[:, 8].tolist()))
    nodes = ends[:-1, None] * np.exp(-kappa * u[:8]) + driven[:, :8]
    return ends, float(np.sum(nodes * nodes * (h * _GL_WEIGHTS)))


def _gaussian_photons(tau_p: float, kappa: float, span: float) -> tuple[float, float]:
    """photon_integral's (integral, peak) of a gaussian pulse of unit amplitude.

    Up to _GAUSS_DRIVEN tau_p past the envelope's peak (or to the span's end)
    the field comes from _gaussian_panels, twice: on n panels of at most
    half the shorter of tau_p and 1/kappa (n at most _MAX_PANELS), and on
    2n, whose values are returned; past it, the field decays undriven,
    alpha^2 e^{-2 kappa t}, in closed form.  The difference of the two
    passes, in the integral and in alpha at their common ends, estimates
    the error of the coarser: GridResolutionError past PHOTON_RTOL.  The
    field peaks where alpha' = E0 - kappa alpha = 0, once, past the
    envelope's peak, at a root bracketed by the panel ends and found by
    Newton steps kept in the bracket; alpha^2 is stationary there.
    """
    end = min(span, (0.5 + _GAUSS_DRIVEN) * tau_p)
    n = min(_MAX_PANELS, max(2, math.ceil(2.0 * end / min(tau_p, 1.0 / kappa))))
    coarse, coarse_integral = _gaussian_panels(tau_p, kappa, end, n)
    ends, integral = _gaussian_panels(tau_p, kappa, end, 2 * n)
    error = max(
        abs(integral - coarse_integral) / integral,
        float(np.max(np.abs(ends[::2] - coarse))) / float(np.max(ends)),
    )
    if not error <= PHOTON_RTOL:
        raise GridResolutionError(
            f"photon integral not resolved: panel-halving estimate {error:.3e} exceeds "
            f"{PHOTON_RTOL:.0e} with {n} and {2 * n} panels over {end:.3e} s "
            f"(kappa*tau_p = {kappa * tau_p:.3e})"
        )
    tail = -0.5 * math.expm1(-2.0 * kappa * (span - end)) / kappa * float(ends[-1]) ** 2

    c = 2.0 * math.log(2.0) / tau_p**2
    m = 0.5 * tau_p
    h = end / (2 * n)
    # alpha' = E0 - kappa alpha at the panel ends, from the envelope's peak
    times = np.arange(2 * n + 1) * h - m
    slopes = np.exp(-c * times * times) - kappa * ends
    falls = np.flatnonzero(slopes[1:] <= 0.0)
    if falls.size == 0:  # still rising where the drive ends
        return integral + tail, float(ends[-1]) ** 2
    j = int(falls[0])
    x0, a0 = float(times[j]), float(ends[j])
    nodes = list(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))

    def slope(s):
        """(alpha', alpha) at s past the bracket's start: _drive_steps' rule
        restated for one step of scalar floats."""
        total = 0.0
        for x, w in nodes:
            y = x0 + s * x
            total += w * math.exp(-c * y * y - kappa * (s - s * x))
        a = a0 * math.exp(-kappa * s) + s * total
        return math.exp(-c * (x0 + s) ** 2) - kappa * a, a

    lo, hi = 0.0, h
    g_lo, g_hi = float(slopes[j]), float(slopes[j + 1])
    s = h * g_lo / (g_lo - g_hi)
    for _ in range(100):
        g, a = slope(s)
        if g > 0.0:
            lo = s
        else:
            hi = s
        # alpha'' = -2 c (t - m) E0 - kappa alpha', negative at the root
        curve = -2.0 * c * (x0 + s) * (g + kappa * a) - kappa * g
        step = g / curve if curve < 0.0 else s - 0.5 * (lo + hi)
        if not lo < s - step < hi:
            step = s - 0.5 * (lo + hi)
        s -= step
        if abs(step) <= 1e-10 * h:
            break
    return integral + tail, slope(s)[1] ** 2


def theta_from_physical(
    pulse: PulseSpec,
    cavity: CavityParams,
    membrane: MembraneParams,
    omega_m: float,
    grid: np.ndarray | None = None,
) -> tuple[float, PhotonTrace]:
    """Full chain pulse -> field -> kick strength; returns (theta, trace).

    theta = 2 g2 photon_integral(pulse, cavity)[0], to PHOTON_RTOL whatever
    the grid; the trace is intracavity_amplitude's on the grid, for callers
    that plot it.
    """
    g2 = coupling_g2(cavity, membrane, omega_m)
    integral, _ = photon_integral(pulse, cavity)
    return 2.0 * g2 * integral, intracavity_amplitude(pulse, cavity, grid)


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
