"""Free propagator, kick map, cycle iteration, stationary state."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mech_params, moment_vectors, params_and_tau, thetas
from oracles import _iterate, drift_matrix, rk4_free, steady_state_iterative
from springkick import (
    DivergenceError,
    MechanicalParams,
    MomentVector,
    NoStationaryStateError,
    UnphysicalStateError,
    apply_kick,
    cycle_map,
    intra_period_trace,
    kick_map,
    make_propagator,
    propagate_free,
    squeezing_onset,
    state_metrics,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
from springkick.moments import metric_arrays

FIG = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
TAU = 1e-7


def rel_diff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


class TestPropagator:
    def test_identity_at_zero_time(self):
        prop = make_propagator(FIG, 0.0)
        assert np.array_equal(prop.M, np.eye(3))
        assert np.array_equal(prop.v_inh, np.zeros(3))

    def test_determinant_equals_trace_formula(self):
        # det(e^{Bt}) = e^{tr(B) t}, tr(B) = -3 gamma
        rng = np.random.default_rng(11)
        for _ in range(30):
            w = 10.0 ** rng.uniform(3, 7)
            g = w * 10.0 ** rng.uniform(-6, -1)
            t = (2 * math.pi / w) * 10.0 ** rng.uniform(-2, 0.5)
            M = make_propagator(MechanicalParams(w, g, 2.0), t).M
            assert abs(np.linalg.det(M) - math.exp(-3 * g * t)) <= 1e-9 * math.exp(
                -3 * g * t
            )

    @settings(max_examples=60, deadline=None)
    @given(params_and_tau(), st.floats(0.1, 0.9))
    def test_semigroup_composition(self, pt, split):
        params, tau = pt
        t1, t2 = split * tau, (1.0 - split) * tau
        p1 = make_propagator(params, t1)
        p2 = make_propagator(params, t2)
        p12 = make_propagator(params, t1 + t2)
        assert rel_diff(p12.M, p2.M @ p1.M) < 1e-12
        assert rel_diff(p12.v_inh, p2.M @ p1.v_inh + p2.v_inh) < 1e-11

    def test_v_inh_closed_form(self):
        # For invertible B: integral of e^{B(t-s)} b ds = B^{-1} (M - I) b.
        rng = np.random.default_rng(13)
        for _ in range(20):
            w = 10.0 ** rng.uniform(3, 7)
            g = w * 10.0 ** rng.uniform(-5, -1)
            params = MechanicalParams(w, g, rng.uniform(0.0, 200.0))
            t = (2 * math.pi / w) * 10.0 ** rng.uniform(-2, 0.5)
            prop = make_propagator(params, t)
            B, b = drift_matrix(w, g, params.n_bar)
            ref = np.linalg.solve(B, (prop.M - np.eye(3)) @ b)
            assert rel_diff(prop.v_inh, ref) < 1e-9

    def test_rk4_oracle_reference_parameters(self):
        v0 = (10.5, 0.0, 10.5)
        ref = rk4_free(FIG.omega_m, FIG.gamma_m, FIG.n_bar, v0, TAU, 10_000)
        out = propagate_free(
            MomentVector(*v0), make_propagator(FIG, TAU)
        ).as_array()
        assert rel_diff(out, ref) < 1e-9

    def test_rk4_oracle_randomized(self):
        rng = np.random.default_rng(20240815)
        for _ in range(20):
            w = 10.0 ** rng.uniform(3.5, 6.5)
            g = w * 10.0 ** rng.uniform(-5, -1.5)
            nb = rng.uniform(0.0, 200.0)
            params = MechanicalParams(w, g, nb)
            t = (2 * math.pi / w) * 10.0 ** rng.uniform(-1.5, 0.3)
            prop = make_propagator(params, t)
            for _ in range(3):
                sq = 10.0 ** rng.uniform(-1.0, 1.3)
                sp = (0.25 / sq) * 10.0 ** rng.uniform(0.0, 1.3)
                qp = rng.uniform(-1.0, 1.0) * math.sqrt(sq * sp - 0.25)
                ref = rk4_free(w, g, nb, (sq, qp, sp), t, 10_000)
                out = prop.M @ np.array([sq, qp, sp]) + prop.v_inh
                assert rel_diff(out, ref) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(params_and_tau())
    def test_thermal_fixed_point(self, pt):
        params, tau = pt
        v = thermal_state(params)
        out = propagate_free(v, make_propagator(params, tau))
        assert rel_diff(out.as_array(), v.as_array()) < 1e-10

    def test_rotation_quarter_period_swaps_variances(self):
        params = MechanicalParams(omega_m=5e5, gamma_m=0.0, n_bar=0.0)
        t = (math.pi / 2) / params.omega_m
        out = propagate_free(
            MomentVector(2.0, 0.0, 0.5), make_propagator(params, t)
        )
        assert rel_diff(out.as_array(), [0.5, 0.0, 2.0]) < 1e-12

    def test_rotation_full_period_identity(self):
        params = MechanicalParams(omega_m=5e5, gamma_m=0.0, n_bar=0.0)
        t = 2 * math.pi / params.omega_m
        M = make_propagator(params, t).M
        assert rel_diff(M, np.eye(3)) < 1e-9

    @pytest.mark.parametrize(
        "omega_m, gamma_m", [(5e5, 1e2), (1e3, 50.0), (1.0, 0.3)]
    )
    def test_gamma_is_energy_damping_rate(self, omega_m, gamma_m):
        # After one damped period t = 2 pi / omega_d the flight is
        # F = e^{-gamma t/2} I, so a thermal excess n0 over the vacuum decays
        # to n0 e^{-gamma t}: gamma_m damps the energy, not the amplitude.
        params = MechanicalParams(omega_m, gamma_m, 0.0)
        t = 2.0 * math.pi / math.sqrt(omega_m * omega_m - 0.25 * gamma_m * gamma_m)
        n0 = 10.0
        out = propagate_free(
            MomentVector(n0 + 0.5, 0.0, n0 + 0.5), make_propagator(params, t)
        )
        n_eff = state_metrics(out).n_eff
        assert n_eff == pytest.approx(n0 * math.exp(-gamma_m * t), rel=1e-15, abs=0.0)
        assert abs(n_eff / (n0 * math.exp(-0.5 * gamma_m * t)) - 1.0) > 1e-4

    def test_purity_contracts_from_thermal_family_at_zero_occupancy(self):
        # Restriction of the contractivity property that actually holds; the
        # drift is not completely positive on arbitrary states (see below).
        params = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=0.0)
        for v0 in (0.5, 0.6, 1.0, 5.0, 50.0, 300.5):
            prev = None
            for t in np.linspace(0.0, 5e-2, 101):
                v = propagate_free(MomentVector(v0, 0.0, v0), make_propagator(params, float(t)))
                purity = state_metrics(v).purity
                assert v.det >= 0.25 - 1e-9
                if prev is not None:
                    assert purity >= prev - 1e-12
                prev = purity

    def test_vacuum_is_exact_fixed_point_at_zero_occupancy(self):
        params = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=0.0)
        out = propagate_free(
            thermal_state(params), make_propagator(params, 3e-3)
        )
        assert rel_diff(out.as_array(), [0.5, 0.0, 0.5]) < 1e-10

    def test_drift_is_not_completely_positive(self):
        # Documented model boundary: a strongly position-squeezed state at
        # n_bar=0 dips below the uncertainty floor under the drift, so the
        # output state fails validation.  d(det)/dt = gamma [(2 n_bar + 1)
        # sigma_q - 2 det] = 100 (0.1 - 0.5) < 0 at det = 1/4.
        params = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=0.0)
        prop = make_propagator(params, 1e-7)
        with pytest.raises(UnphysicalStateError):
            propagate_free(MomentVector(0.1, 0.0, 2.5), prop)


def mp_flow(w, g, n_bar, t, dps=50):
    """(M, v_inh) from mpmath's expm of the augmented 4x4 drift at dps digits."""
    with mp.workdps(dps):
        A = mp.matrix(4, 4)
        A[0, 1] = 2 * mp.mpf(w)
        A[1, 0], A[1, 1], A[1, 2] = -mp.mpf(w), -mp.mpf(g), mp.mpf(w)
        A[2, 1], A[2, 2] = -2 * mp.mpf(w), -2 * mp.mpf(g)
        A[2, 3] = mp.mpf(g) * (2 * mp.mpf(n_bar) + 1)
        E = mp.expm(A * mp.mpf(t))
        return [[E[i, j] for j in range(3)] for i in range(3)], [E[i, 3] for i in range(3)]


def entry_errors(got, ref):
    """Relative error of each entry of a moment vector (sigma_q, sigma_qp,
    sigma_p); sigma_qp is measured against its natural scale
    sqrt(|sigma_q sigma_p|) when that is the larger, as bench/check.py does."""
    scales = (abs(ref[0]), max(abs(ref[1]), mp.sqrt(abs(ref[0] * ref[2]))), abs(ref[2]))
    return [float(abs(mp.mpf(float(g)) - r) / s) for g, r, s in zip(got, ref, scales)]


class TestPropagatorAgainstMpmath:
    """Each entry of the closed-form M (column by column, as the image of one
    moment) and of v_inh, against 50 digits."""

    CASES = {
        "fig1": (5e5, 1e2, 10.0, 1e-7),
        "fig2": (5e5, 1e2, 200.0, 1e-7),
        "sweep_grid": (5e5, 1e2, 30.0, 2e-7),
        "underdamped_gamma_zero": (5e5, 0.0, 10.0, 1e-7),
        "overdamped": (1e3, 3e3, 5.0, 1e-3),
        # g > 4 w: the slow-mode sums, short (g t = 0.1) and long (g t = 30)
        "overdamped_short": (1e3, 1e5, 5.0, 1e-6),
        "overdamped_long": (1e3, 1e5, 5.0, 3e-4),
        # g t = 5; at g t = 2 the flight entry F_11 = e^{-1} (1 - g t/2) is
        # zero, and M_22 = F_11^2 keeps no relative digits there
        "critical": (1e3, 2e3, 5.0, 2.5e-3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_entry(self, case):
        w, g, n_bar, t = self.CASES[case]
        prop = make_propagator(MechanicalParams(w, g, n_bar), t)
        M, v = mp_flow(w, g, n_bar, t)
        for j in range(3):
            col = [M[i][j] for i in range(3)]
            assert max(entry_errors(prop.M[:, j], col)) < 1e-14, (case, j)
        if g == 0.0:
            assert prop.v_inh.tolist() == [0.0, 0.0, 0.0]
        else:
            assert max(entry_errors(prop.v_inh, v)) < 1e-14, case

    def test_resonance_k2(self):
        # tau = 2 pi / omega_m, where the off-diagonal flight entries are
        # ~1e-12 of the diagonal ones and carry rounding of omega_d tau
        # relative to their size: M is bounded normwise
        w, g, t = 1e3, 1.532e-3, 2 * math.pi / 1e3
        prop = make_propagator(MechanicalParams(w, g, 0.0), t)
        M, v = mp_flow(w, g, 0.0, t)
        err = max(abs(prop.M[i, j] - M[i][j]) for i in range(3) for j in range(3))
        assert float(err / max(abs(x) for row in M for x in row)) < 1e-14
        assert max(entry_errors(prop.v_inh, v)) < 1e-14

    def test_bad_time_rejected(self):
        for t in (-1e-7, math.inf, math.nan):
            with pytest.raises(ValueError, match="time"):
                make_propagator(FIG, t)

    def test_needs_no_scipy(self, monkeypatch):
        # None in sys.modules makes any import of scipy raise ImportError
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        cyc = cycle_map(FIG, TAU, 10.0)
        assert steady_state(cyc).sigma_q > 0.0
        assert len(intra_period_trace(thermal_state(FIG), cyc, 5)) == 5


class TestKick:
    def test_matrix_values(self):
        assert np.array_equal(kick_map(0.0).K, np.eye(3))
        assert np.array_equal(
            kick_map(10.0).K,
            np.array([[1.0, 0.0, 0.0], [-20.0, 1.0, 0.0], [400.0, -40.0, 1.0]]),
        )

    def test_overflowing_theta_rejected(self):
        # 4 theta^2 = inf would reach the cycle map's eigvals as a bare
        # "infs or NaNs" error
        for theta in (1e160, -1e200):
            with pytest.raises(ValueError, match="theta"):
                kick_map(theta)
        assert math.isfinite(kick_map(1e150).K[2, 0])

    @settings(max_examples=100, deadline=None)
    @given(thetas)
    def test_unit_determinant(self, theta):
        assert np.linalg.det(kick_map(theta).K) == pytest.approx(1.0, rel=1e-12)

    def test_worked_examples(self):
        out = apply_kick(MomentVector(0.5, 0.0, 0.5), kick_map(10.0))
        assert (out.sigma_q, out.sigma_qp, out.sigma_p) == (0.5, -10.0, 200.5)
        assert out.det == 0.25
        out = apply_kick(MomentVector(1.0, 0.3, 2.0), kick_map(1.0))
        assert (out.sigma_q, out.sigma_qp, out.sigma_p) == (1.0, -1.7, 4.8)

    @settings(max_examples=100, deadline=None)
    @given(moment_vectors(), thetas)
    def test_position_variance_unchanged(self, v, theta):
        assert apply_kick(v, kick_map(theta)).sigma_q == v.sigma_q

    @settings(max_examples=100, deadline=None)
    @given(moment_vectors(), thetas)
    def test_zero_theta_is_identity(self, v, theta):
        out = apply_kick(v, kick_map(0.0))
        assert out.as_array() is not None
        assert np.array_equal(out.as_array(), v.as_array())

    @settings(max_examples=100, deadline=None)
    @given(moment_vectors(), st.sampled_from([-100.0, -1.0, 0.0, 0.5, 10.0, 100.0]))
    def test_symplectic_against_operand_scale(self, v, theta):
        # det is preserved algebraically; in floats the residual is bounded
        # by the size of the products entering it, not by det itself (the
        # strict det-relative reading is unattainable at large theta, see
        # test below and the float-precision analysis in the project notes).
        out = apply_kick(v, kick_map(theta))
        scale = v.sigma_q * out.sigma_p + out.sigma_qp**2
        assert abs(out.det - v.det) <= 1e-12 * scale

    def test_symplectic_strict_at_moderate_theta(self):
        # Fixed-seed scan; det-relative residual stays below 1e-10 for
        # |theta| <= 10 on states with det >= 1/4 (measured worst ~2e-10/2).
        rng = np.random.default_rng(20240817)
        n = 200_000
        sq = 10.0 ** rng.uniform(-1.0, 1.3, n)
        sp = (0.25 / sq) * 10.0 ** rng.uniform(0.0, 1.3, n)
        qp = rng.uniform(-1.0, 1.0, n) * np.sqrt(sq * sp - 0.25)
        th = rng.uniform(-10.0, 10.0, n)
        det0 = sq * sp - qp * qp
        qp2 = qp - 2.0 * th * sq
        sp2 = sp - 4.0 * th * qp + 4.0 * th * th * sq
        det1 = sq * sp2 - qp2 * qp2
        assert np.max(np.abs(det1 - det0) / det0) < 1e-9

    def test_symplectic_exact_on_dyadic_states(self):
        # Powers of two make every intermediate product exact, so even
        # theta = +-100 preserves det to the last bit.
        for sq, qp, sp in ((0.5, 0.0, 0.5), (2.0, 0.5, 4.0), (0.25, 0.0, 1.0)):
            for theta in (-100.0, 100.0, 10.0):
                v = MomentVector(sq, qp, sp)
                assert apply_kick(v, kick_map(theta)).det == v.det

    @settings(max_examples=100, deadline=None)
    @given(moment_vectors(), thetas)
    def test_matches_two_by_two_congruence(self, v, theta):
        S = np.array([[1.0, 0.0], [-2.0 * theta, 1.0]])
        cov = np.array([[v.sigma_q, v.sigma_qp], [v.sigma_qp, v.sigma_p]])
        ref = S @ cov @ S.T
        out = apply_kick(v, kick_map(theta))
        assert rel_diff(
            [out.sigma_q, out.sigma_qp, out.sigma_p],
            [ref[0, 0], ref[0, 1], ref[1, 1]],
        ) < 1e-13


class TestCycle:
    @pytest.mark.parametrize(
        "key, params", [("omega_m", (1.3e154, 1.0, 1.0)), ("gamma_m", (5e5, 1e200, 10.0))]
    )
    def test_rates_from_2_511_name_their_key(self, key, params):
        # omega_m = 1.3e154 overflowed omega_d^2 and sent inf to math.sin, a
        # bare "math domain error"; gamma_m = 1e200 sent infs to eigvals
        with pytest.raises(ValueError, match=f"^{key} must be .* below 2\\^511"):
            MechanicalParams(*params)

    def test_rates_just_below_2_511(self):
        below = math.nextafter(2.0**511, 0.0)
        for params in (MechanicalParams(below, 1.0, 1.0), MechanicalParams(1e3, below, 1.0)):
            cyc = cycle_map(params, 1e-3, 1.0)
            assert np.isfinite(cyc.A).all() and np.isfinite(cyc.propagator.v_inh).all()

    def test_composition_order(self):
        cyc = cycle_map(FIG, TAU, 10.0)
        assert np.array_equal(cyc.A, cyc.propagator.M @ cyc.kick.K)
        assert np.array_equal(cyc.propagator.v_inh, cyc.A @ np.zeros(3) + cyc.propagator.v_inh)

    def test_zero_theta_reduces_to_free_propagator(self):
        cyc = cycle_map(FIG, TAU, 0.0)
        assert np.array_equal(cyc.A, cyc.propagator.M)

    def test_spectral_radius_reference(self):
        assert cycle_map(FIG, TAU, 10.0).spectral_radius == pytest.approx(
            0.99999000005, rel=1e-9
        )
        assert cycle_map(FIG, TAU, 10.0).spectral_radius < 1.0

    def test_pure_rotation_has_unit_radius(self):
        params = MechanicalParams(5e5, 0.0, 0.0)
        assert cycle_map(params, TAU, 0.0).spectral_radius == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(moment_vectors(), st.floats(-5.0, 5.0))
    def test_advance_matches_matrix_route(self, v, theta):
        # the public evolve is the closed form wherever it is certified, so
        # the kick loop it falls back to is held to the 3x3 route as well
        cyc = cycle_map(FIG, TAU, theta)
        direct = cyc.A @ v.as_array() + cyc.propagator.v_inh
        for evolve in (stroboscopic_evolve, _iterate):
            out = evolve(v, cyc, 1)[-1][1]
            assert rel_diff(out.as_array(), direct) < 1e-12, evolve.__name__

    def test_closed_form_matches_iteration(self):
        # one period at a time, by the closed form and by the kick loop,
        # against A^n v0 + (I - A^n) v_fix
        cyc = cycle_map(FIG, TAU, 10.0)
        v0 = thermal_state(FIG)
        eye = np.eye(3)
        inv = np.linalg.solve(eye - cyc.A, cyc.propagator.v_inh)
        for evolve in (stroboscopic_evolve, _iterate):
            v = v0
            n_done = 0
            for n in (1, 10, 100, 1000):
                for _ in range(n - n_done):
                    v = evolve(v, cyc, 1)[-1][1]
                n_done = n
                An = np.linalg.matrix_power(cyc.A, n)
                closed = An @ v0.as_array() + (eye - An) @ inv
                assert rel_diff(v.as_array(), closed) < 1e-8, evolve.__name__

    def test_evolve_zero_kicks(self):
        v0 = thermal_state(FIG)
        cyc = cycle_map(FIG, TAU, 10.0)
        assert list(stroboscopic_evolve(v0, cyc, 0)) == [(0, v0)]

    def test_evolve_sampling_semantics(self):
        samples = stroboscopic_evolve(thermal_state(FIG), cycle_map(FIG, TAU, 1.0), 10, 3)
        assert [n for n, _ in samples] == [0, 3, 6, 9, 10]

    def test_zero_theta_converges_to_thermal(self):
        # slowest drift mode decays at rate gamma: need gamma*t >> 14 for 1e-6
        cyc = cycle_map(FIG, TAU, 0.0)
        v = MomentVector(30.0, 1.0, 40.0)
        final = stroboscopic_evolve(v, cyc, 2_000_000, 2_000_000)[-1][1]
        assert rel_diff(final.as_array(), thermal_state(FIG).as_array()) < 1e-6

    def test_divergence_raises_with_kick_index(self):
        # theta < 0 adds shear along the rotation: |trace| > 2, hyperbolic.
        params = MechanicalParams(5e5, 0.0, 10.0)
        cyc = cycle_map(params, TAU, -10.0)
        assert cyc.spectral_radius > 1.0
        with pytest.raises(DivergenceError, match="kick 500"):
            stroboscopic_evolve(thermal_state(params), cyc, 500, 500)

    def test_advance_overflow_raises_divergence(self):
        # the kick's 4 theta^2 sigma_q term overflows to inf
        with pytest.raises(DivergenceError, match="kick 1"):
            stroboscopic_evolve(
                MomentVector(1e307, 0.0, 1e307), cycle_map(FIG, TAU, 10.0), 1
            )

    def test_uncertainty_preserved_along_scenario_run(self):
        # The universal along-trajectory bound is false for the non-CP drift
        # (see test_drift_is_not_completely_positive); from the thermal state
        # at these parameters the sampled states stay physical throughout.
        for n_bar in (10.0, 200.0):
            params = MechanicalParams(5e5, 1e2, n_bar)
            cyc = cycle_map(params, TAU, 10.0)
            samples = stroboscopic_evolve(thermal_state(params), cyc, 100_000, 50)
            dets = np.array([v.det for _, v in samples])
            assert np.min(dets) >= 0.25 - 1e-9


class TestSteadyState:
    def test_zero_theta_gives_thermal(self):
        v = steady_state(cycle_map(FIG, TAU, 0.0))
        assert rel_diff(v.as_array(), thermal_state(FIG).as_array()) < 1e-10

    def test_fixed_point_residual(self):
        for theta in (0.5, 2.0, 5.0, 10.0):
            cyc = cycle_map(FIG, TAU, theta)
            v = steady_state(cyc)
            out = stroboscopic_evolve(v, cyc, 1)[-1][1]
            assert rel_diff(out.as_array(), v.as_array()) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(params_and_tau(), st.floats(0.0, 8.0))
    # tau = 2 pi / omega_m: cond(I - A) ~ 1e18-1e21 and the solve returned
    # sigma_q < 0, which MomentVector rejected with a bare ValueError
    @example((MechanicalParams(1e3, 1.532e-3, 0.0), 2 * math.pi / 1e3), 2.0)
    @example((MechanicalParams(1e3, 1e-3, 0.0), 2 * math.pi / 1e3), 7.0)
    def test_fixed_point_residual_randomized(self, pt, theta):
        params, tau = pt
        cyc = cycle_map(params, tau, theta)
        try:
            v = steady_state(cyc)
        except NoStationaryStateError:
            return  # marginal or expanding map
        except UnphysicalStateError:
            return  # fixed point outside the model's validity domain
        out = cyc.A @ v.as_array() + cyc.propagator.v_inh
        assert rel_diff(out, v.as_array()) < 1e-10

    def test_direct_solve_matches_iteration(self):
        for theta in (2.0, 10.0):
            cyc = cycle_map(FIG, TAU, theta)
            a = steady_state(cyc).as_array()
            b = steady_state_iterative(cyc).as_array()
            assert rel_diff(a, b) < 1e-8

    @pytest.mark.parametrize("max_kicks", [1, 4095, 4097])
    def test_iteration_budget_exhausted_raises(self, max_kicks):
        # far from converged after one kick, one block less a kick, and one
        # block plus a kick
        with pytest.raises(NoStationaryStateError):
            steady_state_iterative(cycle_map(FIG, TAU, 10.0), max_kicks=max_kicks)

    def test_iteration_of_expanding_map_raises_divergence(self):
        # the expanding map of test_divergence_raises_with_kick_index
        cyc = cycle_map(MechanicalParams(5e5, 0.0, 10.0), TAU, -10.0)
        with pytest.raises(DivergenceError):
            steady_state_iterative(cyc)

    def test_reference_values(self):
        m = state_metrics(steady_state(cycle_map(FIG, TAU, 10.0)))
        assert m.squeezing_db <= -13.0
        assert m.purity >= 0.9
        assert m.entropy <= 0.2
        hot = MechanicalParams(5e5, 1e2, 200.0)
        m2 = state_metrics(steady_state(cycle_map(hot, TAU, 10.0)))
        assert m2.squeezing_db == pytest.approx(-0.8, abs=0.2)

    def test_monotone_in_kick_strength(self):
        prev = math.inf
        for theta in np.linspace(0.0, 10.0, 21):
            sm = state_metrics(steady_state(cycle_map(FIG, TAU, float(theta)))).sigma_min
            assert sm <= prev + 1e-15
            prev = sm

    def test_phase_locks_to_half_kick_rotation(self):
        # Stationary squeezing phase sits at -omega tau / 2 for any theta:
        # the pattern is set by free rotation between kicks, not by theta.
        # (theta, tau) pairs chosen so the fixed point stays physical.
        pairs = [
            (theta, tau)
            for theta in (2.0, 5.0, 10.0)
            for tau in (5e-8, 1e-7, 2e-7)
            if (theta, tau) != (10.0, 5e-8)
        ]
        for theta, tau in pairs:
            m = state_metrics(steady_state(cycle_map(FIG, tau, theta)))
            target = -0.5 * FIG.omega_m * tau
            assert abs(m.phi_min - target) <= 1e-4 * abs(target)

    def test_unphysical_fixed_point_raises(self):
        with pytest.raises(UnphysicalStateError):
            steady_state(cycle_map(FIG, TAU, 20.0))

    def test_no_stationary_state_raises(self):
        params = MechanicalParams(5e5, 0.0, 0.0)
        with pytest.raises(NoStationaryStateError):
            steady_state(cycle_map(params, TAU, 0.0))


class TestOnset:
    def test_semantics_against_dense_metrics(self):
        cyc = cycle_map(FIG, TAU, 10.0)
        v0 = thermal_state(FIG)
        n = 2000
        onset = squeezing_onset(v0, cyc, n)
        samples = stroboscopic_evolve(v0, cyc, n, 1)
        arr = np.array([[v.sigma_q, v.sigma_qp, v.sigma_p] for _, v in samples])
        sigma_min = metric_arrays(arr[:, 0], arr[:, 1], arr[:, 2])[0]
        unsqueezed = np.nonzero(sigma_min >= 0.5)[0]
        assert len(unsqueezed) > 0 and unsqueezed[-1] < n
        assert onset == int(unsqueezed[-1]) + 1

    def test_never_squeezed_returns_none(self):
        assert squeezing_onset(thermal_state(FIG), cycle_map(FIG, TAU, 0.0), 500) is None

    def test_squeezed_from_start_returns_zero(self):
        cyc = cycle_map(FIG, TAU, 10.0)
        assert squeezing_onset(steady_state(cyc), cyc, 100) == 0


class TestIntraPeriod:
    def test_endpoints(self):
        cyc = cycle_map(FIG, TAU, 10.0)
        v = steady_state(cyc)
        trace = intra_period_trace(v, cyc, 5)
        s0, first = trace[0]
        assert s0 == 0.0
        kicked = apply_kick(v, cyc.kick)
        assert np.array_equal(first.as_array(), kicked.as_array())
        s_end, last = trace[-1]
        assert s_end == TAU
        nxt = stroboscopic_evolve(v, cyc, 1)[-1][1]
        assert rel_diff(last.as_array(), nxt.as_array()) < 1e-10

    def test_undamped_trace_conserves_energy(self):
        params = MechanicalParams(5e5, 0.0, 3.0)
        cyc = cycle_map(params, TAU, 0.0)
        v = MomentVector(4.0, 1.0, 6.0)
        trace = intra_period_trace(v, cyc, 64)
        total = np.array([x.sigma_q + x.sigma_p for _, x in trace])
        assert rel_diff(total, np.full_like(total, total[0])) < 1e-12

    def test_variance_rings_at_twice_mechanical_frequency(self):
        # Zero crossings over a long cycle (two mechanical periods) pin the
        # modulation frequency of sigma_q at exactly 2 omega.
        w = FIG.omega_m
        tau_long = 4.0 * math.pi / w
        cyc = cycle_map(FIG, tau_long, 10.0)
        trace = intra_period_trace(steady_state(cyc), cyc, 4001)
        sq = np.array([v.sigma_q for _, v in trace])
        x = sq - sq.mean()
        crossings = int(np.sum(np.sign(x[1:]) != np.sign(x[:-1])))
        est = crossings * math.pi / tau_long
        assert est == pytest.approx(2.0 * w, rel=1e-3)
        # Over one kick period the trace is a clean 2-omega sinusoid.
        cyc1 = cycle_map(FIG, TAU, 10.0)
        trace1 = intra_period_trace(steady_state(cyc1), cyc1, 4001)
        s = np.array([t for t, _ in trace1])
        sq1 = np.array([v.sigma_q for _, v in trace1])
        X = np.column_stack([np.ones_like(s), np.cos(2 * w * s), np.sin(2 * w * s)])
        coef, *_ = np.linalg.lstsq(X, sq1, rcond=None)
        amp = math.hypot(coef[1], coef[2])
        assert np.max(np.abs(sq1 - X @ coef)) / amp < 1e-6
