"""Coupling rate, intracavity field integration, kick strength, regime checks."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.constants
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.constants import hbar as HBAR
from scipy.constants import k as BOLTZMANN
from scipy.special import erf

from springkick import (
    BathParams,
    CavityParams,
    GridResolutionError,
    MechanicalParams,
    MembraneParams,
    PulseSpec,
    coupling_g2,
    default_time_grid,
    drive_amplitude,
    intracavity_amplitude,
    kick_strength,
    photon_integral,
    regime_check,
    temperature_for_occupancy,
    theta_from_physical,
)
import springkick
from conftest import readme_physical_example
from oracles import mp_coupling_g2, mp_photons
from springkick import pulses
from springkick.cli import main
from springkick.pulses import PULSE_SHAPES, _GL_NODES, _GL_WEIGHTS, _grade

# Membrane-in-the-middle reference set: 0.1 mm cavity, 1550 nm drive,
# 2.5 pg membrane of moderate reflectivity, 0.1 ns rectangular pulses.
CAV = CavityParams(length_L=1e-4, kappa_0=1e8, wavelength=1.55e-6)
MEM = MembraneParams(mass=2.5e-12, reflectivity_R=0.2)
MECH = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
PULSE = PulseSpec(shape="rectangular", duration_tau_p=1e-10, peak_power=1.0, period_tau=1e-7)


class TestCoupling:
    def test_reference_value(self):
        g2 = coupling_g2(CAV, MEM, MECH.omega_m)
        assert g2 == pytest.approx(8.312146e-3, rel=1e-6)
        assert abs(g2 - 0.8e-2) / 0.8e-2 < 0.05

    def test_hand_formula(self):
        ref = (
            16.0
            * math.pi**2
            * SPEED_OF_LIGHT
            * HBAR
            / (CAV.wavelength**2 * CAV.length_L * MEM.mass * MECH.omega_m)
        ) * math.sqrt(MEM.reflectivity_R / (1.0 - MEM.reflectivity_R))
        assert coupling_g2(CAV, MEM, MECH.omega_m) == ref

    def test_scaling(self):
        heavier = MembraneParams(mass=2.0 * MEM.mass, reflectivity_R=MEM.reflectivity_R)
        assert coupling_g2(CAV, heavier, MECH.omega_m) == pytest.approx(
            0.5 * coupling_g2(CAV, MEM, MECH.omega_m), rel=1e-12
        )
        assert coupling_g2(CAV, MEM, 2.0 * MECH.omega_m) == pytest.approx(
            0.5 * coupling_g2(CAV, MEM, MECH.omega_m), rel=1e-12
        )


class TestDrive:
    def test_amplitude_formula(self):
        ref = math.sqrt(2.0 * PULSE.peak_power * CAV.kappa_0 / (HBAR * CAV.omega_c))
        assert drive_amplitude(PULSE, CAV, np.array([5e-11]))[0] == ref
        assert ref == pytest.approx(3.9504128e13, rel=1e-6)

    def test_rectangular_support(self):
        t = np.array([-1e-12, 0.0, 5e-11, 1e-10, 2e-10])
        E = drive_amplitude(PULSE, CAV, t)
        assert E[0] == 0.0 and E[3] == 0.0 and E[4] == 0.0
        assert E[1] > 0.0 and E[2] == E[1]

    def test_gaussian_fwhm(self):
        gp = PulseSpec("gaussian", 1e-10, 1.0, 1e-7)
        t0 = 0.5 * gp.duration_tau_p
        power = lambda t: drive_amplitude(gp, CAV, np.array([t]))[0] ** 2
        assert power(t0 + 0.5 * gp.duration_tau_p) == pytest.approx(
            0.5 * power(t0), rel=1e-12
        )


class TestIntracavityField:
    def test_rectangular_closed_form(self):
        trace = intracavity_amplitude(PULSE, CAV)
        kap = CAV.kappa
        E0 = drive_amplitude(PULSE, CAV, np.array([0.0]))[0]
        t = trace.times
        tp = PULSE.duration_tau_p
        a_on = (E0 / kap) * (1.0 - np.exp(-kap * t))
        a_off = (E0 / kap) * (1.0 - math.exp(-kap * tp)) * np.exp(-kap * (t - tp))
        ref = np.where(t <= tp, a_on, a_off) ** 2
        assert np.max(np.abs(trace.photon_number - ref)) / np.max(ref) < 1e-8

    def test_field_decays_by_period_end(self):
        trace = intracavity_amplitude(PULSE, CAV)
        assert trace.photon_number[-1] / trace.peak < 1e-8

    def test_long_pulse_plateaus_at_drive_over_decay(self):
        pl = PulseSpec("rectangular", 1e-6, 1.0, 1e-5)
        E0 = drive_amplitude(pl, CAV, np.array([0.0]))[0]
        trace = intracavity_amplitude(pl, CAV)
        assert trace.peak == pytest.approx((E0 / CAV.kappa) ** 2, rel=1e-6)

    def test_starts_empty(self):
        trace = intracavity_amplitude(PULSE, CAV)
        assert trace.times[0] == 0.0
        assert trace.photon_number[0] == 0.0

    def test_grid_refinement_converged(self):
        # the traces' own trapezoids converge; theta does not depend on the grid
        g = default_time_grid(PULSE, CAV)
        fine = np.unique(np.concatenate([g, 0.5 * (g[1:] + g[:-1])]))
        fine[0] = 0.0
        th_a, trace_a = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m)
        th_b, trace_b = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m, grid=fine)
        assert trace_b.times.size == 2 * trace_a.times.size - 1
        assert abs(trace_a.integral() - trace_b.integral()) / trace_a.integral() < 1e-6
        assert th_a == th_b

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridResolutionError, match="too coarse"):
            intracavity_amplitude(PULSE, CAV, np.linspace(0.0, 1e-7, 50))

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(GridResolutionError, match="increasing"):
            intracavity_amplitude(PULSE, CAV, np.array([0.0, 2e-12, 1e-12]))

    def test_uniform_grid_runs_the_recursion(self):
        # a caller-supplied uniform grid takes the same per-step recursion as
        # any other grid, bit for bit, and so does the default grid, for both
        # shapes and at zero peak power
        gauss = PulseSpec("gaussian", 1e-10, 1.0, 1e-7)
        dark = PulseSpec("gaussian", 1e-10, 0.0, 1e-7)
        uniform = np.linspace(0.0, 2e-9, 4001)
        for pulse in (PULSE, gauss, dark, replace(PULSE, peak_power=0.0)):
            for grid in (uniform, default_time_grid(pulse, CAV)):
                trace = intracavity_amplitude(pulse, CAV, grid)
                photons, drive = full_recursion(pulse, CAV, grid)
                assert np.array_equal(trace.photon_number, photons)
                assert not drive[first_undriven(pulse, CAV, grid) :].any()

    def test_grid_must_start_at_zero(self):
        with pytest.raises(GridResolutionError, match="start at t=0"):
            intracavity_amplitude(
                PULSE, CAV, np.arange(1e-12, 1e-10, 1e-12)
            )


def full_recursion(pulse, cavity, grid):
    """The recursion over every step of the grid, as intracavity_amplitude
    ran it before it stopped at the last driven step: the photon numbers
    and each step's drive integral."""
    kap = cavity.kappa
    h = np.diff(grid)
    tnodes = grid[:-1, None] + h[:, None] * _GL_NODES[None, :]
    enodes = drive_amplitude(pulse, cavity, tnodes)
    wnodes = (_GL_WEIGHTS[None, :] * h[:, None]) * np.exp(
        -kap * h[:, None] * (1.0 - _GL_NODES[None, :])
    )
    drive = np.sum(wnodes * enodes, axis=1)
    decay = np.exp(-kap * h)
    alpha = [0.0]
    for d, e in zip(decay.tolist(), drive.tolist()):
        alpha.append(alpha[-1] * d + e)
    return np.array(alpha) ** 2, drive


def first_undriven(pulse, cavity, grid):
    """m: the first grid time at or past the envelope's peak where the drive
    is exactly 0.0, or the last grid index where there is none."""
    peak = 0.0 if pulse.shape == "rectangular" else 0.5 * pulse.duration_tau_p
    off = np.flatnonzero((drive_amplitude(pulse, cavity, grid) == 0.0) & (grid >= peak))
    return int(off[0]) if off.size else grid.size - 1


class TestDrivenSteps:
    """intracavity_amplitude runs its recursion over the driven steps only
    and takes the rest as a product of decays: bit for bit the recursion
    over every step, since every drive integral from m on is 0.0."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(PULSE_SHAPES),
        tau_p=st.floats(1e-11, 1e-9),
        kappa_0=st.floats(1e7, 1e10),
        power=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
        period=st.floats(1.5, 1e4),
    )
    @example(shape="rectangular", tau_p=1e-10, kappa_0=1e8, power=1.5e3, period=1e3)
    @example(shape="gaussian", tau_p=3e-10, kappa_0=1e8, power=1.7e2, period=1e3 / 3)
    @example(shape="gaussian", tau_p=1e-10, kappa_0=1e8, power=0.0, period=1e3)
    def test_matches_the_full_recursion(self, shape, tau_p, kappa_0, power, period):
        assume(tau_p * kappa_0 <= 10.0)  # at most about 10^5 grid points
        pulse = PulseSpec(shape, tau_p, power, tau_p * period)
        cavity = replace(CAV, kappa_0=kappa_0)
        grid = default_time_grid(pulse, cavity)
        trace = intracavity_amplitude(pulse, cavity)
        photons, drive = full_recursion(pulse, cavity, grid)
        assert np.array_equal(trace.times, grid)
        assert np.array_equal(trace.photon_number, photons)
        assert trace.peak == float(np.max(photons))
        assert trace.integral() == float(np.trapezoid(photons, grid))
        assert not drive[first_undriven(pulse, cavity, grid) :].any()


class TestKickStrength:
    def test_reference_chain(self):
        # theta is the certified integral's, not the trace's trapezoid, which
        # kick_strength still takes (1.2928610462e-3, 3.3e-7 above)
        theta, trace = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m)
        g2 = coupling_g2(CAV, MEM, MECH.omega_m)
        assert theta == 2.0 * g2 * photon_integral(PULSE, CAV)[0]
        assert kick_strength(g2, trace) == 2.0 * g2 * trace.integral()
        assert theta == pytest.approx(1.2928610462e-3, rel=1e-6)

    def test_linear_in_power(self):
        th1, _ = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m)
        for P in (0.2, 0.5, 2.0, 5.0):
            p = PulseSpec("rectangular", 1e-10, P, 1e-7)
            th, _ = theta_from_physical(p, CAV, MEM, MECH.omega_m)
            assert abs(th / P - th1) / th1 < 1e-9

    def test_shape_independent_in_impulsive_limit(self):
        # kappa*tau_p = 1e-2: theta depends only on the delivered amplitude
        # area, not the envelope shape.  Scale the gaussian peak power so its
        # t >= 0 amplitude area matches the rectangular pulse's.
        tau_p = 1e-10
        b = 2.0 * math.log(2.0) / tau_p**2
        area_gauss_unit = (
            math.sqrt(math.pi / b) / 2.0 * (1.0 + erf(math.sqrt(b) * tau_p / 2.0))
        )
        P_gauss = (tau_p / area_gauss_unit) ** 2
        th_rect, _ = theta_from_physical(
            PulseSpec("rectangular", tau_p, 1.0, 1e-7), CAV, MEM, MECH.omega_m
        )
        th_gauss, _ = theta_from_physical(
            PulseSpec("gaussian", tau_p, P_gauss, 1e-7), CAV, MEM, MECH.omega_m
        )
        assert abs(th_gauss - th_rect) / th_rect < 0.02


class TestPhotonIntegral:
    """photon_integral and theta against 40-digit references, to 1e-12."""

    @pytest.mark.parametrize(
        "shape, tau_p",
        [("rectangular", 1e-10), ("rectangular", 1e-9), ("rectangular", 3e-8),
         ("gaussian", 1e-10), ("gaussian", 1e-9)],
    )
    def test_against_references(self, shape, tau_p):
        pulse = PulseSpec(shape, tau_p, 1.0, 1e-7)
        integral, peak = photon_integral(pulse, CAV)
        ref_integral, ref_peak = mp_photons(pulse, CAV)
        theta, _ = theta_from_physical(pulse, CAV, MEM, MECH.omega_m)
        ref_theta = 2 * mp_coupling_g2(CAV, MEM, MECH.omega_m) * ref_integral
        for got, ref in ((integral, ref_integral), (peak, ref_peak), (theta, ref_theta)):
            assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    def test_trace_trapezoid_is_the_estimate(self):
        # the trace's own integral and peak lie within its grid's error
        for shape in PULSE_SHAPES:
            pulse = PulseSpec(shape, 1e-10, 1.0, 1e-7)
            integral, peak = photon_integral(pulse, CAV)
            trace = intracavity_amplitude(pulse, CAV)
            assert abs(trace.integral() - integral) <= 5e-7 * integral
            assert abs(trace.peak - peak) <= 1e-6 * peak
            assert trace.peak <= peak * (1 + 1e-12)

    def test_zero_power(self):
        for shape in PULSE_SHAPES:
            assert photon_integral(PulseSpec(shape, 1e-10, 0.0, 1e-7), CAV) == (0.0, 0.0)

    def test_unresolved_panels_raise(self):
        # kappa tau_p = 1e4: the capped panels outgrow the cavity's lifetime
        with pytest.raises(GridResolutionError, match="panel-halving estimate"):
            photon_integral(PulseSpec("gaussian", 1e-4, 1.0, 1e-2), CAV)

    def test_physical_run_builds_no_trace(self, tmp_path, monkeypatch):
        calls = []

        def spy(name):
            def fail(*args, **kwargs):
                calls.append(name)
                raise AssertionError(name)
            return fail

        for name in ("default_time_grid", "intracavity_amplitude"):
            monkeypatch.setattr(pulses, name, spy(name))
        cfg = tmp_path / "physical.ini"
        for shape in PULSE_SHAPES:
            text = readme_physical_example()
            cfg.write_text(text.replace("shape = rectangular", f"shape = {shape}"))
            out = tmp_path / shape
            assert main(["--config", str(cfg), "--kicks", "100", "--out", str(out), "--quiet"]) == 0
            assert "from pulse chain" in (tmp_path / f"{shape}.summary.txt").read_text()
        assert calls == []


class TestTemperature:
    @pytest.mark.parametrize("n_bar", [0.5, 10.0, 200.0])
    def test_bose_inversion_round_trip(self, n_bar):
        T = temperature_for_occupancy(MECH.omega_m, n_bar)
        back = 1.0 / (math.exp(HBAR * MECH.omega_m / (BOLTZMANN * T)) - 1.0)
        assert back == pytest.approx(n_bar, rel=1e-12)

    def test_reference_value(self):
        assert temperature_for_occupancy(5e5, 10.0) == pytest.approx(
            4.0070392e-5, rel=1e-6
        )

    def test_zero_occupancy_is_zero_temperature(self):
        assert temperature_for_occupancy(5e5, 0.0) == 0.0


class TestRegime:
    def test_grading_thresholds(self):
        assert _grade("much_greater", 15.0) == "pass"
        assert _grade("much_greater", 10.0) == "pass"
        assert _grade("much_greater", 5.0) == "marginal"
        assert _grade("much_greater", 2.0) == "fail"
        assert _grade("strict", 1.2) == "pass"
        assert _grade("strict", 0.9) == "fail"
        assert _grade("gtrsim", 1.0) == "pass"
        assert _grade("gtrsim", 0.5) == "fail"

    def test_reference_set_passes_hard_checks(self):
        g2 = coupling_g2(CAV, MEM, MECH.omega_m)
        bath = BathParams(
            omega_c_cutoff=100.0 * CAV.kappa,
            temperature=temperature_for_occupancy(MECH.omega_m, MECH.n_bar),
        )
        report = regime_check(PULSE, CAV, MECH, bath, q2_estimate=10.5, g2=g2)
        assert report.hard_pass
        by_name = {c.name: c for c in report.checks}
        assert by_name["impulsive pulse: 1/tau_p >> kappa"].ratio == pytest.approx(
            100.0, rel=1e-12
        )
        assert by_name["cavity empties between kicks: kappa >> 1/tau"].status == "pass"
        # sub-mK bath makes the Markov correlation-time check fail softly;
        # hard_pass ignores gtrsim checks by design
        thermal = by_name["thermal correlation time: k_B*T*tau/hbar >~ 1"]
        assert thermal.status == "fail"
        assert thermal.ratio == pytest.approx(0.525, abs=0.01)

    def test_slow_pulse_fails_hard_checks(self):
        cav = CavityParams(length_L=1e-3, kappa_0=1.7e8, wavelength=1.064e-6)
        mem = MembraneParams(mass=1e-12, reflectivity_R=0.9998)
        pulse = PulseSpec("rectangular", 1e-9, 1.0, 1e-7)
        g2 = coupling_g2(cav, mem, MECH.omega_m)
        bath = BathParams(
            omega_c_cutoff=100.0 * cav.kappa,
            temperature=temperature_for_occupancy(MECH.omega_m, MECH.n_bar),
        )
        report = regime_check(pulse, cav, MECH, bath, q2_estimate=10.5, g2=g2)
        assert not report.hard_pass
        by_name = {c.name: c for c in report.checks}
        assert by_name["impulsive pulse: 1/tau_p >> kappa"].status == "marginal"

    def test_lines_render_every_check(self):
        g2 = coupling_g2(CAV, MEM, MECH.omega_m)
        bath = BathParams(omega_c_cutoff=1e10, temperature=1e-4)
        report = regime_check(PULSE, CAV, MECH, bath, q2_estimate=10.5, g2=g2)
        lines = report.lines()
        assert len(lines) == len(report.checks) == 6
        assert all(("pass" in l) or ("marginal" in l) or ("fail" in l) for l in lines)


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            PulseSpec("triangle", 1e-10, 1.0, 1e-7)

    def test_period_must_exceed_duration(self):
        with pytest.raises(ValueError, match="period_tau"):
            PulseSpec("rectangular", 1e-7, 1.0, 1e-8)

    def test_reflectivity_below_one(self):
        with pytest.raises(ValueError, match="reflectivity"):
            MembraneParams(mass=1e-12, reflectivity_R=1.0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="kappa_loss"):
            CavityParams(length_L=1e-4, kappa_0=1e8, wavelength=1.55e-6, kappa_loss=-1.0)

    def test_loss_adds_to_total_decay(self):
        lossy = CavityParams(length_L=1e-4, kappa_0=1e8, wavelength=1.55e-6, kappa_loss=5e7)
        assert lossy.kappa == 1.5e8


def test_constants_match_scipy_bitwise():
    # the package spells out the exact SI values so that it need not import scipy
    for ours, theirs in (
        (pulses.SPEED_OF_LIGHT, scipy.constants.c),
        (pulses.HBAR, scipy.constants.hbar),
        (pulses.BOLTZMANN, scipy.constants.k),
    ):
        assert float(ours).hex() == float(theirs).hex()


def test_gauss_legendre_literals():
    # the written-out rule is leggauss(8) mapped to [0, 1], to within 4 ulp
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for ours, theirs in ((_GL_NODES, 0.5 * (nodes + 1.0)), (_GL_WEIGHTS, 0.5 * weights)):
        assert np.all(np.abs(ours - theirs) <= 4 * np.spacing(theirs))
    # and it integrates x**k over [0, 1] through degree 15
    for k in range(16):
        assert abs(math.fsum((_GL_WEIGHTS * _GL_NODES**k).tolist()) - 1.0 / (k + 1)) <= 1e-15


def test_import_leaves_scipy_out():
    # nor numpy.polynomial, whose Gauss-Legendre rule pulses writes out
    src = os.path.dirname(os.path.dirname(os.path.abspath(springkick.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, springkick, springkick.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
