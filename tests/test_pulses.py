"""Coupling rate, intracavity field, kick strength, regime checks."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
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
    photon_integral,
    regime_check,
    temperature_for_occupancy,
    theta_from_physical,
)
import springkick
from oracles import mp_coupling_g2, mp_photons
from springkick import pulses
from springkick.pulses import PULSE_SHAPES, _GL_NODES, _GL_WEIGHTS, _drive_steps, _field, _grade

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
        # E0 = sqrt(2 P0 kappa_0 / (hbar omega_c)) by hand is photon_integral's
        # drive: a long rectangular pulse settles at alpha = E0/kappa
        E0 = math.sqrt(2.0 * PULSE.peak_power * CAV.kappa_0 / (HBAR * CAV.omega_c))
        assert E0 == pytest.approx(3.9504128e13, rel=1e-6)
        rect = PulseSpec("rectangular", 100.0 / CAV.kappa, 1.0, 1e-5)
        assert photon_integral(rect, CAV)[1] == pytest.approx(
            (E0 / CAV.kappa) ** 2, rel=1e-12
        )


class TestIntracavityField:
    """The field alpha' = -kappa alpha + E0(t) from alpha(0) = 0, as
    photon_integral's panels step it."""

    def test_rectangular_closed_form(self):
        # a constant envelope's drive integral is -expm1(-kappa u)/kappa, to
        # within 4 ulp for kappa u up to 1/2, the largest panel
        kap = CAV.kappa
        u = np.linspace(0.0, 0.5, 2001)[1:] / kap
        drive = _drive_steps(np.ones_like, np.zeros_like(u), u, kap)
        ref = -np.expm1(-kap * u) / kap
        assert np.all(np.abs(drive - ref) <= 4 * np.spacing(ref))
        # and the steps from an empty cavity give (1 - e^{-kappa t})/kappa, E0 = 1
        n, h = 50, 0.01 / kap
        steps = _drive_steps(np.ones_like, np.arange(n) * h, np.full(n, h), kap)
        alpha = np.array(_field([math.exp(-kap * h)] * n, steps.tolist()))
        ref = -np.expm1(-kap * h * np.arange(n + 1)) / kap
        assert np.all(np.abs(alpha[1:] - ref[1:]) <= 1e-14 * ref[1:])

    def test_starts_empty(self):
        # alpha(0) = 0: the field's first value is 0.0, whatever the steps,
        # and the first step is the drive alone
        assert _field([], []) == [0.0]
        assert _field([0.5, 0.5], [3.0, 1.0]) == [0.0, 3.0, 2.5]

    def test_long_pulse_plateaus_at_drive_over_decay(self):
        # a long pulse's field settles where the drive balances the decay,
        # alpha = E0/kappa with E0 = sqrt(2 P0 kappa_0 / (hbar omega_c))
        E0 = math.sqrt(2.0 * PULSE.peak_power * CAV.kappa_0 / (HBAR * CAV.omega_c))
        plateau = (E0 / CAV.kappa) ** 2
        rect = PulseSpec("rectangular", 100.0 / CAV.kappa, 1.0, 1e-5)
        assert photon_integral(rect, CAV)[1] == pytest.approx(plateau, rel=1e-12)
        # a gaussian one lags its envelope: the peak sits where
        # E0(t) = kappa alpha(t), 4 ln 2 / (kappa tau_p)^2 below the plateau
        for x in (100.0, 1000.0):
            gauss = PulseSpec("gaussian", x / CAV.kappa, 1.0, 100.0 * x / CAV.kappa)
            lag = -4.0 * math.log(2.0) / x**2
            got = photon_integral(gauss, CAV)[1] / plateau - 1.0
            assert abs(got - lag) <= 0.01 * abs(lag), (x, got, lag)

    def test_field_decays_by_period_end(self):
        # the cavity empties between pulses: a period 100 times longer moves
        # the integral by under 1e-8, and none past envelope_end + 40/kappa
        for shape in PULSE_SHAPES:
            pulse = PulseSpec(shape, 1e-10, 1.0, 1e-7)
            integral, peak = photon_integral(pulse, CAV)
            longer = photon_integral(replace(pulse, period_tau=1e-5), CAV)
            assert abs(longer[0] - integral) <= 1e-8 * integral and longer[1] == peak
            assert photon_integral(replace(pulse, period_tau=1e-4), CAV) == longer


class TestKickStrength:
    def test_reference_chain(self):
        theta = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m)
        g2 = coupling_g2(CAV, MEM, MECH.omega_m)
        assert theta == 2.0 * g2 * photon_integral(PULSE, CAV)[0]
        assert theta == pytest.approx(1.2928610462e-3, rel=1e-6)

    def test_one_certified_answer(self):
        # theta, the integral and the peak come from photon_integral alone;
        # no sampled field of the pulse is left beside it
        for name in (
            "kick_strength", "PhotonTrace", "default_time_grid", "_check_grid",
            "GRID_RESOLUTION_FACTOR", "intracavity_amplitude", "drive_amplitude",
        ):
            assert not hasattr(pulses, name), name
            assert name not in springkick.__all__, name

    def test_linear_in_power(self):
        th1 = theta_from_physical(PULSE, CAV, MEM, MECH.omega_m)
        for P in (0.2, 0.5, 2.0, 5.0):
            p = PulseSpec("rectangular", 1e-10, P, 1e-7)
            th = theta_from_physical(p, CAV, MEM, MECH.omega_m)
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
        th_rect = theta_from_physical(
            PulseSpec("rectangular", tau_p, 1.0, 1e-7), CAV, MEM, MECH.omega_m
        )
        th_gauss = theta_from_physical(
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
        theta = theta_from_physical(pulse, CAV, MEM, MECH.omega_m)
        ref_theta = 2 * mp_coupling_g2(CAV, MEM, MECH.omega_m) * ref_integral
        for got, ref in ((integral, ref_integral), (peak, ref_peak), (theta, ref_theta)):
            assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    def test_zero_power(self):
        for shape in PULSE_SHAPES:
            assert photon_integral(PulseSpec(shape, 1e-10, 0.0, 1e-7), CAV) == (0.0, 0.0)

    def test_unresolved_panels_raise(self):
        # kappa tau_p = 1e4: the capped panels outgrow the cavity's lifetime
        with pytest.raises(GridResolutionError, match="panel-halving estimate"):
            photon_integral(PulseSpec("gaussian", 1e-4, 1.0, 1e-2), CAV)


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
