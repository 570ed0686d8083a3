"""Scalar and vectorized state observables: minimum variance, phase, purity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import moment_vectors
from oracles import phase_scan_min
from springkick import (
    DivergenceError,
    MechanicalParams,
    MomentVector,
    UnphysicalStateError,
    state_metrics,
    thermal_state,
)
from springkick.moments import metric_arrays


def rotated_variance(v: MomentVector, phi: float) -> float:
    c, s = math.cos(phi), math.sin(phi)
    return v.sigma_q * c * c + v.sigma_p * s * s + 2.0 * v.sigma_qp * s * c


class TestVacuum:
    def test_exact_values(self):
        m = state_metrics(MomentVector(0.5, 0.0, 0.5))
        assert m.sigma_min == 0.5
        assert m.squeezing_db == 0.0
        assert m.phi_min == 0.0
        assert m.purity == 1.0
        assert m.entropy == 0.0
        assert m.n_eff == 0.0


class TestThermal:
    @pytest.mark.parametrize("n_bar", [0.0, 0.5, 1.0, 10.0, 200.0])
    def test_closed_forms(self, n_bar):
        params = MechanicalParams(5e5, 1e2, n_bar)
        m = state_metrics(thermal_state(params))
        assert m.sigma_min == pytest.approx(n_bar + 0.5, rel=1e-14)
        assert m.n_eff == pytest.approx(n_bar, abs=1e-12)
        assert m.purity == pytest.approx(1.0 / (2 * n_bar + 1), rel=1e-14)
        if n_bar > 0:
            ref = (n_bar + 1) * math.log(n_bar + 1) - n_bar * math.log(n_bar)
            assert m.entropy == pytest.approx(ref, rel=1e-12)
        else:
            assert m.entropy == 0.0
        assert m.squeezing_db == pytest.approx(
            10.0 * math.log10(2 * n_bar + 1), abs=1e-12
        )


class TestMinimumVariance:
    @settings(max_examples=200, deadline=None)
    @given(moment_vectors())
    # minimum just inside +pi/2, coarse scan minimum at -pi/2
    @example(MomentVector(1.0, -8.00650249440563e-05, 0.26865195708032935))
    def test_against_phase_scan_oracle(self, v):
        m = state_metrics(v)
        ref_var, _ = phase_scan_min(v.sigma_q, v.sigma_qp, v.sigma_p)
        assert abs(m.sigma_min - ref_var) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(moment_vectors())
    def test_phase_attains_minimum(self, v):
        m = state_metrics(v)
        assert rotated_variance(v, m.phi_min) == pytest.approx(
            m.sigma_min, rel=1e-10, abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(moment_vectors())
    def test_bounded_by_symplectic_eigenvalue(self, v):
        # sigma_min <= sqrt(det) <= sigma_max, with equality iff isotropic
        m = state_metrics(v)
        assert m.sigma_min <= math.sqrt(max(v.det, 0.25)) * (1 + 1e-12)

    def test_no_cancellation_when_momentum_variance_dominates(self):
        # the k = 2 resonance stationary state (omega_m = 1e3, tau = 2 pi /
        # omega_m) rounded to float64; 0.5 (p + q - spread) gave exactly 0.25
        q, qp, p = 0.6167228520333685, -304780.7751510669, 253301983138.8837
        ref = 0.2500012032303064  # 50-digit value at this float input
        assert abs(float(metric_arrays(q, qp, p)[0]) - ref) <= 1e-15 * ref
        assert abs(state_metrics(MomentVector(q, qp, p)).sigma_min - ref) <= 1e-15 * ref

    def test_phase_branch_isotropic(self):
        assert state_metrics(MomentVector(3.0, 0.0, 3.0)).phi_min == 0.0

    def test_phase_branch_squeezed_along_momentum(self):
        # sigma_p < sigma_q with zero covariance: the minor axis is the p
        # quadrature, phi = +pi/2 on the principal branch (not -pi/2; the
        # -0.0 numerator would otherwise select the -pi arctan2 branch)
        m = state_metrics(MomentVector(2.0, 0.0, 0.5))
        assert m.phi_min == math.pi / 2
        assert m.sigma_min == 0.5

    def test_phase_branch_squeezed_along_position(self):
        m = state_metrics(MomentVector(0.5, 0.0, 2.0))
        assert m.phi_min == 0.0
        assert m.sigma_min == 0.5

    def test_phase_sign_follows_covariance(self):
        assert state_metrics(MomentVector(1.0, 0.5, 1.0)).phi_min < 0.0
        assert state_metrics(MomentVector(1.0, -0.5, 1.0)).phi_min > 0.0

    def test_squeezing_db_sign(self):
        assert state_metrics(MomentVector(0.3, 0.0, 1.0)).squeezing_db < 0.0
        assert state_metrics(MomentVector(0.8, 0.0, 1.0)).squeezing_db > 0.0


class TestFloorHandling:
    def test_rounding_below_floor_clamps_to_pure(self):
        # det a few 1e-10 under 1/4 is rounding, not physics: purity pins
        # to 1 and entropy to 0 rather than drifting above/below
        v = MomentVector(0.5, 0.0, 0.5 - 2e-10)
        m = state_metrics(v)
        assert m.purity == 1.0
        assert m.entropy == 0.0

    def test_large_operands_widen_the_tolerance(self):
        # at operand scale ~2e4 the allowance is 1e-12 * scale = 2e-8
        qp = math.sqrt(100.0 * 100.0 - 0.25 + 1e-8)
        v = MomentVector(100.0, qp, 100.0)
        m = state_metrics(v)
        assert m.purity == pytest.approx(1.0, abs=1e-7)
        assert m.purity <= 1.0

    def test_violation_raises_at_construction(self):
        with pytest.raises(UnphysicalStateError):
            MomentVector(0.5, 0.0, 0.5 - 4e-8)

    def test_violation_raises_in_vectorized_path(self):
        good = np.array([0.5, 0.5])
        with pytest.raises(UnphysicalStateError):
            metric_arrays(good, np.zeros(2), np.array([0.5, 0.5 - 4e-8]))

    def test_non_positive_variances_raise_in_vectorized_path(self):
        # det = 1 clears the floor, yet sigma_min came out as -1, with a nan
        # dB value, purity 0.5 and only a RuntimeWarning
        with pytest.raises(ValueError, match="sigma_q must be > 0, got -1.0"):
            metric_arrays([-1.0], [0.0], [-1.0])
        with pytest.raises(ValueError, match="sigma_q must be > 0, got -1.0"):
            MomentVector(-1.0, 0.0, -1.0)


class TestOverflow:
    def test_non_finite_determinant_raises(self):
        # q*p overflows to inf and inf - inf leaves det = nan
        q = np.array([0.5, 1e200])
        with pytest.raises(DivergenceError, match="float64 range"):
            metric_arrays(q, np.array([0.0, 1e199]), q)

    def test_non_finite_spread_raises(self):
        # det = 1e300 is finite, (p - q)^2 is not
        with pytest.raises(DivergenceError, match="float64 range"):
            metric_arrays(1e-5, 0.0, 1e305)

    def test_large_finite_rows_untouched(self):
        sigma_min, *_ = metric_arrays(np.array([0.5, 1e150]), 0.0, np.array([0.5, 1e150]))
        assert sigma_min.tolist() == [0.5, 1e150]


class TestVectorizedConsistency:
    @settings(max_examples=200, deadline=None)
    @given(moment_vectors())
    def test_matches_scalar_path(self, v):
        m = state_metrics(v)
        arrs = metric_arrays(
            np.array([v.sigma_q]), np.array([v.sigma_qp]), np.array([v.sigma_p])
        )
        vec = [float(a[0]) for a in arrs]
        assert vec == [
            m.sigma_min,
            m.phi_min,
            m.squeezing_db,
            m.purity,
            m.entropy,
            m.n_eff,
        ]
