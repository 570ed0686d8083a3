"""INI run-file parsing: validation, error aggregation, round trips."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import readme_ini_example, readme_physical_example
from springkick import (
    BathConfig,
    ConfigError,
    EnsembleConfig,
    MechanicalParams,
    PhysicalKick,
    RunConfig,
    Schedule,
    config_to_text,
    parse_config,
)
from springkick.pulses import PULSE_SHAPES
from springkick.runner import scenario_config

MINIMAL = """
[mechanical]
omega_m = 5e5
gamma_m = 1e2
n_bar = 10

[kick]
theta = 10

[schedule]
tau = 1e-7
n_kicks = 1000
"""

PHYSICAL = """
[mechanical]
omega_m = 5e5
gamma_m = 1e2
n_bar = 10

[kick]
shape = rectangular
pulse_duration = 1e-10
peak_power = 1.0
cavity_length = 1e-4
kappa_0 = 1e8
wavelength = 1.55e-6
mass = 2.5e-12
reflectivity = 0.2

[schedule]
tau = 1e-7
n_kicks = 1000
"""


class TestParsing:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mechanical == MechanicalParams(5e5, 1e2, 10.0)
        assert cfg.theta == 10.0
        assert cfg.physical is None
        assert cfg.schedule.tau == 1e-7
        assert cfg.schedule.n_kicks == 1000

    def test_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.schedule.stride == 100
        assert cfg.schedule.intra_samples == 0
        assert cfg.ensemble is None
        assert cfg.bath is None
        assert cfg.output is None

    def test_physical_form(self):
        cfg = parse_config(PHYSICAL)
        assert cfg.theta is None
        assert cfg.physical == PhysicalKick(
            shape="rectangular",
            pulse_duration=1e-10,
            peak_power=1.0,
            cavity_length=1e-4,
            kappa_0=1e8,
            wavelength=1.55e-6,
            mass=2.5e-12,
            reflectivity=0.2,
        )

    def test_ensemble_and_output_sections(self):
        cfg = parse_config(
            MINIMAL
            + """
[ensemble]
variance = 1e-3
trajectories = 100
base_seed = 12345

[output]
path = out/run
"""
        )
        assert cfg.ensemble == EnsembleConfig(
            variance=1e-3, trajectories=100, base_seed=12345
        )
        assert cfg.ensemble.enabled is True
        assert cfg.ensemble.mean_theta is None
        assert cfg.output == "out/run"

    def test_ensemble_disabled_flag(self):
        cfg = parse_config(
            MINIMAL
            + """
[ensemble]
variance = 1e-3
trajectories = 10
base_seed = 1
enabled = false
mean_theta = 9.5
"""
        )
        assert cfg.ensemble.enabled is False
        assert cfg.ensemble.mean_theta == 9.5

    def test_bath_with_physical(self):
        cfg = parse_config(
            PHYSICAL
            + """
[bath]
omega_c_cutoff = 1e10
temperature = 4e-5
"""
        )
        assert cfg.bath == BathConfig(omega_c_cutoff=1e10, temperature=4e-5)

    def test_bath_keys_optional(self):
        cfg = parse_config(PHYSICAL + "\n[bath]\ntemperature = 1e-4\n")
        assert cfg.bath.omega_c_cutoff is None
        assert cfg.bath.temperature == 1e-4


class TestErrors:
    def test_missing_sections_listed_together(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[mechanical]\nomega_m = 1e5\ngamma_m = 1\nn_bar = 0\n")
        msg = str(exc.value)
        assert "missing section [kick]" in msg
        assert "missing section [schedule]" in msg

    def test_aggregates_multiple_problems(self):
        bad = """
[mechanical]
omega_m = fast
gamma_m = 1e2

[kick]
theta = 10

[schedule]
tau = 1e-7
n_kicks = many

[ensemble]
variance = 1e-3
trajectories = 10
base_seed = 1
enabled = maybe
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        errors = exc.value.errors
        assert any("omega_m" in e for e in errors)
        assert any("n_bar" in e for e in errors)
        assert any("n_kicks" in e for e in errors)
        assert "[ensemble] key 'enabled': cannot parse 'maybe' as bool" in errors
        assert len(errors) >= 4

    def test_every_section_constructor_error_reported(self):
        bad = (
            PHYSICAL.replace("gamma_m = 1e2", "gamma_m = -1.0")
            .replace("reflectivity = 0.2", "reflectivity = 1.5")
            .replace("n_kicks = 1000", "n_kicks = 1000\nstride = 0")
            + "\n[ensemble]\nvariance = 1e-3\ntrajectories = 0\nbase_seed = 1\n"
        )
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        errors = exc.value.errors
        assert any(e.startswith("[mechanical]:") and "gamma_m" in e for e in errors)
        assert any(e.startswith("[kick]:") and "reflectivity" in e for e in errors)
        assert any(e.startswith("[schedule]:") and "stride" in e for e in errors)
        assert any(e.startswith("[ensemble]:") and "trajectories" in e for e in errors)

    @pytest.mark.parametrize("seed", ["-1", "99999999999999999999999"])
    def test_base_seed_outside_u64_rejected(self, seed):
        ensemble = f"\n[ensemble]\nvariance = 1e-3\ntrajectories = 10\nbase_seed = {seed}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + ensemble)
        assert "base_seed" in str(exc.value)
        assert "u64" in str(exc.value)

    def test_unknown_key_and_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[extra]\nfoo = 1\n")
        assert "unknown section [extra]" in str(exc.value)
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("theta = 10", "theta = 10\nspin = 3"))
        assert "unknown key 'spin'" in str(exc.value)

    def test_both_kick_forms_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(PHYSICAL.replace("shape = rectangular", "shape = rectangular\ntheta = 10"))
        assert "exactly one form" in str(exc.value)

    def test_neither_kick_form_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("theta = 10", ""))
        assert "either theta or the physical pulse keys" in str(exc.value)

    def test_constraint_violation_names_field(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("gamma_m = 1e2", "gamma_m = -1.0"))
        assert "[mechanical]" in str(exc.value)
        assert "gamma_m" in str(exc.value)

    def test_bath_without_physical_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[bath]\ntemperature = 1e-4\n")
        assert "physical" in str(exc.value)

    def test_single_intra_sample_rejected(self):
        # a one-point trace is not a trace
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("n_kicks = 1000", "n_kicks = 1000\nintra_samples = 1"))
        assert "intra_samples" in str(exc.value)

    def test_ini_syntax_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("theta = 10\n")
        assert "INI syntax" in str(exc.value)

    def test_errors_attribute_is_a_list(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("[mechanical]\n")
        assert isinstance(exc.value.errors, list)
        assert all(isinstance(e, str) for e in exc.value.errors)


class TestReadmeExample:
    def test_documented_block_parses(self):
        cfg = parse_config(readme_ini_example())
        assert cfg.theta == 10.0
        assert cfg.mechanical == MechanicalParams(5e5, 1e2, 10.0)
        assert cfg.ensemble.enabled is True
        assert cfg.bath is None
        assert cfg.output == "out/myrun"

    def test_physical_form_parses(self):
        cfg = parse_config(readme_physical_example())
        assert cfg.theta is None
        assert cfg.physical.shape == "rectangular"
        assert cfg.physical.reflectivity == 0.2
        assert cfg.bath == BathConfig(omega_c_cutoff=1e10, temperature=4e-5)


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


physical_kicks = st.builds(
    PhysicalKick,
    shape=st.sampled_from(PULSE_SHAPES),
    pulse_duration=positive,
    peak_power=positive,
    cavity_length=positive,
    kappa_0=positive,
    wavelength=positive,
    mass=positive,
    reflectivity=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    kappa_loss=non_negative,
)

ensembles = st.builds(
    EnsembleConfig,
    variance=non_negative,
    trajectories=st.integers(1, 10**6),
    base_seed=st.integers(0, 2**64 - 1),
    enabled=st.booleans(),
    mean_theta=st.none() | finite,
)

baths = st.builds(
    BathConfig,
    omega_c_cutoff=st.none() | positive,
    temperature=st.none() | non_negative,
)

# configparser strips surrounding whitespace and "; comments" from values
output_paths = st.text(alphabet="abcXYZ019/._-", max_size=20)


@st.composite
def run_configs(draw):
    physical = draw(st.none() | physical_kicks)
    return RunConfig(
        mechanical=MechanicalParams(draw(positive), draw(non_negative), draw(non_negative)),
        schedule=Schedule(
            tau=draw(positive),
            n_kicks=draw(st.integers(0, 10**9)),
            stride=draw(st.integers(1, 10**6)),
            intra_samples=draw(st.just(0) | st.integers(2, 10**4)),
        ),
        theta=draw(finite) if physical is None else None,
        physical=physical,
        ensemble=draw(st.none() | ensembles),
        bath=None if physical is None else draw(st.none() | baths),
        output=draw(st.none() | output_paths),
    )


class TestRoundTrip:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(run_configs())
    def test_every_field(self, cfg):
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_scenarios(self, name):
        cfg = scenario_config(name)
        assert parse_config(config_to_text(cfg)) == cfg

    def test_physical_with_bath(self):
        cfg = parse_config(PHYSICAL + "\n[bath]\nomega_c_cutoff = 1e10\n")
        assert parse_config(config_to_text(cfg)) == cfg

    def test_ensemble_with_mean_theta(self):
        cfg = parse_config(
            MINIMAL
            + "\n[ensemble]\nvariance = 2e-3\ntrajectories = 7\nbase_seed = 3\n"
            + "enabled = false\nmean_theta = 9.75\n"
        )
        assert parse_config(config_to_text(cfg)) == cfg

    def test_output_path(self):
        cfg = parse_config(MINIMAL + "\n[output]\npath = results/fig1\n")
        assert parse_config(config_to_text(cfg)) == cfg

    @pytest.mark.parametrize("path", ["out ;v2", " out", ";x", "a\n;b", "a\n#b", "a \n b"])
    def test_path_that_reads_back_differently_rejected(self, path):
        cfg = replace(scenario_config("fig1"), output=path)
        with pytest.raises(ValueError, match=r"\[output\] path"):
            config_to_text(cfg)


class TestDataclassGuards:
    def test_run_config_requires_exactly_one_kick_form(self):
        mech = MechanicalParams(5e5, 1e2, 10.0)
        sched = Schedule(tau=1e-7, n_kicks=10)
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(mechanical=mech, schedule=sched)
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(
                mechanical=mech,
                schedule=sched,
                theta=10.0,
                physical=PhysicalKick(
                    shape="rectangular",
                    pulse_duration=1e-10,
                    peak_power=1.0,
                    cavity_length=1e-4,
                    kappa_0=1e8,
                    wavelength=1.55e-6,
                    mass=2.5e-12,
                    reflectivity=0.2,
                ),
            )

    def test_schedule_guards(self):
        with pytest.raises(ValueError, match="stride"):
            Schedule(tau=1e-7, n_kicks=10, stride=0)
        with pytest.raises(ValueError, match="intra_samples"):
            Schedule(tau=1e-7, n_kicks=10, intra_samples=1)

    def test_ensemble_guards(self):
        with pytest.raises(ValueError, match="trajectories"):
            EnsembleConfig(variance=1e-3, trajectories=0, base_seed=1)
