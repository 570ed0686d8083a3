"""INI run configuration: parse, validate with aggregated errors, re-emit.

A run file has sections [mechanical], [kick], [schedule] and optionally
[ensemble], [bath], [output].  The kick is given either directly (theta) or
through the physical pulse/cavity/membrane parameters; exactly one of the two
forms must be used.  [bath] only makes sense with the physical form since the
validity report needs a cavity.  The section dataclasses are the schema: each
field is one key, its annotation picks the converter, and a field without a
default is a required key.  Parsing collects every problem it finds and
raises them together.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
from dataclasses import MISSING, dataclass, fields

from .moments import MechanicalParams
from .pulses import PULSE_SHAPES


class ConfigError(ValueError):
    """Invalid run configuration; message lists every collected problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass(frozen=True)
class PhysicalKick:
    """Pulse, cavity and membrane parameters that fix the kick strength."""

    shape: str
    pulse_duration: float
    peak_power: float
    cavity_length: float
    kappa_0: float
    wavelength: float
    mass: float
    reflectivity: float
    kappa_loss: float = 0.0

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"kick shape must be one of {PULSE_SHAPES}, got {self.shape!r}")
        for name in (
            "pulse_duration",
            "peak_power",
            "cavity_length",
            "kappa_0",
            "wavelength",
            "mass",
        ):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"kick {name} must be finite and > 0, got {val}")
        if not (math.isfinite(self.kappa_loss) and self.kappa_loss >= 0):
            raise ValueError(f"kick kappa_loss must be finite and >= 0, got {self.kappa_loss}")
        if not (0.0 <= self.reflectivity < 1.0):
            raise ValueError(f"kick reflectivity must be in [0, 1), got {self.reflectivity}")


@dataclass(frozen=True)
class Schedule:
    """Kick period, run length and output sampling."""

    tau: float
    n_kicks: int
    stride: int = 100
    intra_samples: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"schedule tau must be finite and > 0, got {self.tau}")
        if self.n_kicks < 0:
            raise ValueError(f"schedule n_kicks must be >= 0, got {self.n_kicks}")
        if self.stride < 1:
            raise ValueError(f"schedule stride must be >= 1, got {self.stride}")
        if self.intra_samples != 0 and self.intra_samples < 2:
            raise ValueError(
                f"schedule intra_samples must be 0 or >= 2, got {self.intra_samples}"
            )


@dataclass(frozen=True)
class EnsembleConfig:
    """Noisy-kick averaging: per-kick theta variance and trajectory count.

    mean_theta overrides the noise mean; None uses the run's kick strength.
    """

    variance: float
    trajectories: int
    base_seed: int
    enabled: bool = True
    mean_theta: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(
                f"ensemble variance must be finite and >= 0, got {self.variance}"
            )
        if self.trajectories < 1:
            raise ValueError(
                f"ensemble trajectories must be >= 1, got {self.trajectories}"
            )
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"ensemble base_seed must fit in u64, got {self.base_seed}")
        if self.mean_theta is not None and not math.isfinite(self.mean_theta):
            raise ValueError(
                f"ensemble mean_theta must be finite, got {self.mean_theta}"
            )


@dataclass(frozen=True)
class BathConfig:
    """Optional overrides for the validity report's thermal bath.

    None means derive the default at run time: cutoff = 100 * kappa,
    temperature from the Bose occupancy inversion at (omega_m, n_bar).
    """

    omega_c_cutoff: float | None = None
    temperature: float | None = None

    def __post_init__(self):
        if self.omega_c_cutoff is not None and not (
            math.isfinite(self.omega_c_cutoff) and self.omega_c_cutoff > 0
        ):
            raise ValueError(
                f"bath omega_c_cutoff must be finite and > 0, got {self.omega_c_cutoff}"
            )
        if self.temperature is not None and not (
            math.isfinite(self.temperature) and self.temperature >= 0
        ):
            raise ValueError(
                f"bath temperature must be finite and >= 0, got {self.temperature}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs."""

    mechanical: MechanicalParams
    schedule: Schedule
    theta: float | None = None
    physical: PhysicalKick | None = None
    ensemble: EnsembleConfig | None = None
    bath: BathConfig | None = None
    output: str | None = None

    def __post_init__(self):
        if (self.theta is None) == (self.physical is None):
            raise ValueError(
                "exactly one of a direct kick strength (theta) and the physical "
                "pulse parameters must be given"
            )
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(f"kick theta must be finite, got {self.theta}")
        if self.bath is not None and self.physical is None:
            raise ValueError(
                "[bath] is only meaningful with physical kick parameters; "
                "a direct theta skips the validity report"
            )


@dataclass(frozen=True)
class _DirectKick:
    """[kick] in its direct form: the kick strength alone."""

    theta: float


@dataclass(frozen=True)
class _Output:
    """[output]: where the run's files go."""

    path: str | None = None


# Each section's keys are the fields of its dataclass; [kick] takes exactly
# one of two forms.
_SECTIONS = {
    "mechanical": (MechanicalParams,),
    "kick": (_DirectKick, PhysicalKick),
    "schedule": (Schedule,),
    "ensemble": (EnsembleConfig,),
    "bath": (BathConfig,),
    "output": (_Output,),
}
_REQUIRED_SECTIONS = ("mechanical", "kick", "schedule")


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


_CONVERTERS = {"float": float, "int": int, "str": str, "bool": _bool}


@functools.cache
def _keys(cls) -> dict[str, tuple[str, bool]]:
    """Key -> (converter name, required) for every field of a section dataclass.

    The converter name is the field's annotation less any "| None"; a field
    without a default is a required key.
    """
    return {f.name: (f.type.removesuffix(" | None"), f.default is MISSING) for f in fields(cls)}


def _read_section(section: str, cls, values: dict[str, str], errors: list[str]) -> dict:
    """Constructor arguments for cls; an absent optional key keeps its default."""
    kwargs = {}
    for key, (kind, required) in _keys(cls).items():
        if key not in values:
            if required:
                errors.append(f"[{section}] missing key {key!r}")
            continue
        try:
            kwargs[key] = _CONVERTERS[kind](values[key])
        except ValueError:
            errors.append(f"[{section}] key {key!r}: cannot parse {values[key]!r} as {kind}")
    return kwargs


def _kick_form(values: dict[str, str], errors: list[str]):
    """The [kick] dataclass whose keys the section uses; None after an error."""
    used = [cls for cls in _SECTIONS["kick"] if not values.keys().isdisjoint(_keys(cls))]
    if len(used) == 1:
        return used[0]
    if used:
        errors.append("[kick] gives both theta and physical pulse keys; use exactly one form")
    else:
        required = tuple(key for key, (_, req) in _keys(PhysicalKick).items() if req)
        errors.append(f"[kick] needs either theta or the physical pulse keys {required}")
    return None


def _build(errors: list[str], label: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        errors.append(f"{label}: {exc}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse an INI run file; raises ConfigError listing every problem."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax: {exc}"]) from exc

    errors = [f"missing section [{s}]" for s in _REQUIRED_SECTIONS if not parser.has_section(s)]
    read = {}
    for section in parser.sections():
        forms = _SECTIONS.get(section)
        if forms is None:
            errors.append(f"unknown section [{section}]")
            continue
        values = dict(parser.items(section))
        known = {key for cls in forms for key in _keys(cls)}
        errors.extend(f"[{section}] unknown key {key!r}" for key in values if key not in known)
        cls = forms[0] if len(forms) == 1 else _kick_form(values, errors)
        if cls is not None:
            read[section] = (cls, _read_section(section, cls, values, errors))
    if errors:
        raise ConfigError(errors)

    built = {
        section: _build(errors, f"[{section}]", cls, **values)
        for section, (cls, values) in read.items()
    }
    if errors:
        raise ConfigError(errors)

    kick = built["kick"]
    config = _build(
        errors,
        "run",
        RunConfig,
        mechanical=built["mechanical"],
        schedule=built["schedule"],
        theta=kick.theta if isinstance(kick, _DirectKick) else None,
        physical=kick if isinstance(kick, PhysicalKick) else None,
        ensemble=built.get("ensemble"),
        bath=built.get("bath"),
        output=built["output"].path if "output" in built else None,
    )
    if errors:
        raise ConfigError(errors)
    return config


def read_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _section_text(obj) -> dict[str, str]:
    """INI values of every non-None field, in field order."""
    values = {}
    for field in fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, bool):
            values[field.name] = "true" if value else "false"
        elif isinstance(value, str):
            values[field.name] = value
        elif value is not None:
            values[field.name] = repr(value)
    return values


def config_to_text(config: RunConfig) -> str:
    """Emit a config as INI text; parse_config(config_to_text(c)) == c.

    Raises ValueError naming [output] path when the path would read back
    differently: INI drops surrounding whitespace, a ";" after whitespace
    and lines that start with ";" or "#".
    """
    sections = {
        "mechanical": config.mechanical,
        "kick": config.physical if config.theta is None else _DirectKick(config.theta),
        "schedule": config.schedule,
        "ensemble": config.ensemble,
        "bath": config.bath,
        "output": None if config.output is None else _Output(config.output),
    }
    parser = configparser.ConfigParser(interpolation=None)
    for name, obj in sections.items():
        if obj is not None:
            parser[name] = _section_text(obj)
    out = io.StringIO()
    parser.write(out)
    text = out.getvalue()
    if config.output is not None:
        back = parse_config(text).output
        if back != config.output:
            raise ValueError(f"[output] path {config.output!r} would read back as {back!r}")
    return text
