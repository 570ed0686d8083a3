"""stroboscopic_evolve: the closed-form power of the period map.

Its rows are checked against a 40-digit matrix power of the period map, and
against the kick-by-kick loop moments._iterate; where the form is not
certified it must hand back _iterate's result bit for bit.
"""

import math

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import moment_vectors, thetas
from oracles import mp_period_states, row_error
from springkick import (
    DivergenceError,
    MechanicalParams,
    MomentVector,
    NoStationaryStateError,
    UnphysicalStateError,
    cycle_map,
    steady_state,
    stroboscopic_evolve,
    thermal_state,
)
from springkick.cli import main
from springkick.moments import _MAX_DECAY, _MIN_SIN_PHI, _iterate

FIG1 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
FIG2 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=200.0)
TAU = 1e-7
THETA = 10.0
RESONANCE = MechanicalParams(omega_m=1e3, gamma_m=1.532e-3, n_bar=0.0)

ORACLE_KICKS = (100, 10_000, 51_400, 500_000, 1_000_000)
# Bound on each row's relative error against 40 digits, sigma_qp measured
# against sqrt(sigma_q sigma_p).  bench/check.py accepts 1e-8 (ROW_RTOL) for
# rows after up to 1e6 float64 kicks, and the loop does need 5e-10 there
# (fig1, kick 45300).  The closed form builds up no rounding along the run
# except through the phase n phi, which it carries at 50 digits and reduces
# in double-double, and it solves for no stationary state, so its rows stay
# within a few ulp (5e-15 at the presets).  1e-10 is a hundredth of ROW_RTOL
# and is held by the closed form with room for the 1/sin^3(phi) growth of its
# rounding down to _MIN_SIN_PHI.
ROW_BOUND = 1e-10


def bits(samples):
    """Samples as exact bit patterns, so -0.0 and 0.0 differ."""
    return [(n, v.sigma_q.hex(), v.sigma_qp.hex(), v.sigma_p.hex()) for n, v in samples]


def cos_phi(cycle):
    """Half the trace of T over sqrt(det T): cos(phi) for a complex pair."""
    T = cycle.T
    return 0.5 * (T[0, 0] + T[1, 1]) / math.exp(-0.5 * cycle.params.gamma_m * cycle.tau)


def assert_falls_back(v0, cycle, n_kicks, stride):
    got = stroboscopic_evolve(v0, cycle, n_kicks, stride)
    ref = _iterate(v0, cycle, n_kicks, stride)
    assert bits(got) == bits(ref)
    assert got.onset == ref.onset


class TestAgainstMpmath:
    @pytest.mark.parametrize("params", [FIG1, FIG2], ids=["fig1", "fig2"])
    def test_rows(self, params):
        cyc = cycle_map(params, TAU, THETA)
        v0 = thermal_state(params)
        closed = dict(stroboscopic_evolve(v0, cyc, ORACLE_KICKS[-1], 100))
        loop = dict(_iterate(v0, cyc, ORACLE_KICKS[-1], 100))
        refs = mp_period_states(
            params.omega_m, params.gamma_m, params.n_bar, TAU, THETA,
            v0.as_array().tolist(), ORACLE_KICKS,
        )
        errors = {}
        for n, ref in zip(ORACLE_KICKS, refs):
            errors[n] = tuple(
                row_error((v.sigma_q, v.sigma_qp, v.sigma_p), ref) for v in (closed[n], loop[n])
            )
            print(f"kick {n}: closed form {errors[n][0]:.2e}, loop {errors[n][1]:.2e}")
        worst_closed = max(e for e, _ in errors.values())
        worst_loop = max(e for _, e in errors.values())
        assert worst_closed <= ROW_BOUND, errors
        assert worst_closed <= worst_loop, errors

    @pytest.mark.parametrize("n_kicks", [2**29 - 3, 2**31 + 7])
    def test_row_past_2_29_kicks(self, n_kicks):
        # n phi was reduced exactly only below 2^29 kicks: at 2^31 + 7 this
        # row strayed 1.6e-7 from 40 digits.  It ends unsqueezed, so the
        # onset scan stops at the last kick.
        params = MechanicalParams(omega_m=1e3, gamma_m=1e-6, n_bar=1.0)
        tau, theta = 1e-3, 0.2
        v0 = MomentVector(3.0, 0.0, 40.0)
        samples = stroboscopic_evolve(v0, cycle_map(params, tau, theta), n_kicks, n_kicks)
        [ref] = mp_period_states(
            params.omega_m, params.gamma_m, params.n_bar, tau, theta,
            v0.as_array().tolist(), [n_kicks],
        )
        assert samples[-1][0] == n_kicks
        assert row_error(samples[-1][1].as_array(), ref) <= ROW_BOUND


class TestFallback:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resonance_points(self, k):
        # tau = k pi/omega_m: T is nearly a Jordan block with a real pair
        cyc = cycle_map(RESONANCE, k * math.pi / RESONANCE.omega_m, 2.0)
        assert abs(cos_phi(cyc)) > 1.0
        assert_falls_back(thermal_state(RESONANCE), cyc, 10_000, 100)

    def test_real_pair_with_stationary_state(self):
        params = MechanicalParams(omega_m=1e3, gamma_m=1.0, n_bar=10.0)
        cyc = cycle_map(params, 2 * math.pi / params.omega_m, 0.5)
        assert cos_phi(cyc) > 1.0
        steady_state(cyc)
        assert_falls_back(thermal_state(params), cyc, 5_000, 100)

    def test_complex_pair_below_margin(self):
        # theta = 0 a little short of half a period: phi = omega_d tau
        params = MechanicalParams(omega_m=1e3, gamma_m=1e-3, n_bar=1.0)
        cyc = cycle_map(params, (math.pi - 0.005) / params.omega_m, 0.0)
        assert 0.0 < math.sqrt(1.0 - cos_phi(cyc) ** 2) < _MIN_SIN_PHI
        assert_falls_back(MomentVector(0.5, 0.0, 0.5), cyc, 5_000, 100)

    def test_unphysical_fixed_point(self):
        cyc = cycle_map(FIG1, TAU, 20.0)
        with pytest.raises(UnphysicalStateError):
            steady_state(cyc)
        assert_falls_back(thermal_state(FIG1), cyc, 2_000, 100)

    def test_no_stationary_state(self):
        params = MechanicalParams(omega_m=5e5, gamma_m=0.0, n_bar=10.0)
        cyc = cycle_map(params, TAU, THETA)
        with pytest.raises(NoStationaryStateError):
            steady_state(cyc)
        assert_falls_back(thermal_state(params), cyc, 2_000, 100)

    @pytest.mark.parametrize(
        "params, tau, theta",
        [
            # a complex pair with sin(phi) >= 0.1: certified but for the decay
            (MechanicalParams(1e3, 1e3, 1.0), 0.8, 0.3),
            (MechanicalParams(1e3, 1e3, 1.0), 1.0, 0.3),
            # overdamped: delta = e^{-1000} underflows to 0, while the slow
            # mode keeps rho(A) = 0.62 and a stationary state
            (MechanicalParams(1e3, 1e5, 1.0), 0.02, 2.0),
        ],
        ids=["decay800", "decay1000", "overdamped2000"],
    )
    def test_strong_damping(self, params, tau, theta):
        cyc = cycle_map(params, tau, theta)
        assert params.gamma_m * tau > _MAX_DECAY
        steady_state(cyc)
        assert_falls_back(thermal_state(params), cyc, 2_000, 100)

    def test_certified_run_does_not_iterate(self):
        cyc = cycle_map(FIG1, TAU, THETA)
        v0 = thermal_state(FIG1)
        got = stroboscopic_evolve(v0, cyc, 2_000, 100)
        assert bits(got) != bits(_iterate(v0, cyc, 2_000, 100))


def _stable_complex_pair(params, tau, theta):
    cyc = cycle_map(params, tau, theta)
    try:
        steady_state(cyc)
    except (NoStationaryStateError, UnphysicalStateError):
        return None
    c = cos_phi(cyc)
    if not (abs(c) < 1.0 and math.sqrt((1.0 - c) * (1.0 + c)) >= _MIN_SIN_PHI):
        return None
    return cyc


class TestAgainstLoop:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        omega_m=st.floats(1e3, 1e7),
        damping=st.floats(-6.0, -0.5),
        n_bar=st.floats(0.0, 300.0),
        periods=st.floats(-2.0, 0.5),
        theta=thetas,
        v0=moment_vectors(),
        n_kicks=st.integers(0, 2000),
        stride=st.integers(1, 2500),
    )
    @example(
        omega_m=5e5, damping=-3.7, n_bar=10.0, periods=math.log10(0.05 / (2 * math.pi)),
        theta=THETA, v0=MomentVector(10.5, 0.0, 10.5), n_kicks=2000, stride=100,
    )
    # n_bar = 0 and theta = 0: the run settles on the vacuum itself, where
    # 2 sigma_min - 1 is 0 up to rounding at kick 19
    @example(
        omega_m=8860091.9375, damping=-0.5, n_bar=0.0, periods=0.0, theta=0.0,
        v0=MomentVector(1.0, 0.0, 0.25), n_kicks=19, stride=1,
    )
    # the rounding of a float stationary state leaked into early rows
    # (1.0e-10 at kick 9), before the noise sum was taken in closed form
    @example(
        omega_m=1000.0, damping=-6.0, n_bar=46.0, periods=0.25, theta=0.8359375,
        v0=MomentVector(1.0, 0.0, 0.25), n_kicks=9, stride=1,
    )
    # the loop strays 3.0e-10 from the 40-digit state by kick 30; the closed
    # form stays within 6e-15
    @example(
        omega_m=1000.0, damping=-5.0, n_bar=0.0, periods=0.0776452893109627,
        theta=1.41015625, v0=MomentVector(1.0, 0.0, 0.25), n_kicks=30, stride=1,
    )
    # sin(phi) = 0.0103, just above an earlier margin of 1e-2: the first row
    # strayed 1.1e-10, so the margin is now 0.1 and this run iterates
    @example(
        omega_m=1000.0, damping=-2.625, n_bar=33.0, periods=0.0, theta=-12.0,
        v0=MomentVector(0.1, 0.0, 2.5), n_kicks=1, stride=1,
    )
    # gamma tau = 300 and 690, the latter just below _MAX_DECAY: stationary
    # from the first kick, where the loop lands exactly
    @example(
        omega_m=1000.0, damping=0.0, n_bar=1.0, periods=1.6789413863615474,
        theta=0.3, v0=MomentVector(1.0, 0.0, 0.25), n_kicks=50, stride=1,
    )
    @example(
        omega_m=1000.0, damping=0.0, n_bar=1.0, periods=2.0406692223791403,
        theta=0.3, v0=MomentVector(1.0, 0.0, 0.25), n_kicks=50, stride=1,
    )
    # certified (sin(phi) = 0.118), but kick 1's det is 0.24856: both paths
    # must reject the run as they evolve it
    @example(
        omega_m=1000.0, damping=math.log10(16.219135194997772 / 1e3), n_bar=0.0,
        periods=math.log10(2.711015560113297e-4 * 1e3 / (2 * math.pi)),
        theta=-0.11017023637837131,
        v0=MomentVector(0.11618189354986656, 0.0, 2.15179829112268), n_kicks=200, stride=1,
    )
    def test_onset_and_rows(
        self, omega_m, damping, n_bar, periods, theta, v0, n_kicks, stride
    ):
        params = MechanicalParams(omega_m, omega_m * 10.0**damping, n_bar)
        tau = 2 * math.pi / omega_m * 10.0**periods
        cyc = _stable_complex_pair(params, tau, theta)
        assume(cyc is not None)
        try:
            ref = _iterate(v0, cyc, n_kicks, stride)
        except (DivergenceError, UnphysicalStateError) as exc:
            with pytest.raises(type(exc)):
                stroboscopic_evolve(v0, cyc, n_kicks, stride)
            return
        got = stroboscopic_evolve(v0, cyc, n_kicks, stride)
        if got.onset != ref.onset:
            # only a kick whose state lies within rounding of the vacuum line,
            # which float64 cannot place on either side, may be judged apart
            last = max(n_kicks if o is None else o - 1 for o in (got.onset, ref.onset))
            [(q, qp, p)] = mp_period_states(
                omega_m, params.gamma_m, n_bar, tau, theta, v0.as_array().tolist(), [last]
            )
            gap = p + q - mp.sqrt((p - q) ** 2 + 4 * qp * qp) - 1
            assert abs(gap) <= 1e-13 * (p + q), (got.onset, ref.onset, gap)
        assert [n for n, _ in got] == [n for n, _ in ref]
        apart = [
            (n, a) for (n, a), (_, b) in zip(got, ref)
            if not row_error(a.as_array(), b.as_array()) <= ROW_BOUND
        ]
        if apart:
            # the loop's rounding grows along the run; where it strays past
            # the bound, the 40-digit states decide, and must side with the
            # closed form
            truth = mp_period_states(
                omega_m, params.gamma_m, n_bar, tau, theta, v0.as_array().tolist(),
                [n for n, _ in apart],
            )
            for (n, a), t in zip(apart, truth):
                assert row_error(a.as_array(), t) <= ROW_BOUND, (n, a)


class TestErrors:
    def test_overflowing_determinant_names_the_loops_kick(self):
        params = MechanicalParams(5e5, 1e2, 1e153)
        cyc = cycle_map(params, TAU, THETA)
        v0 = thermal_state(params)
        with pytest.raises(DivergenceError, match="at kick 200:"):
            _iterate(v0, cyc, 2000, 100)
        with pytest.raises(DivergenceError, match="at kick 200:"):
            stroboscopic_evolve(v0, cyc, 2000, 100)

    def test_kick_count_past_float_resolution(self):
        # from 2^53 on a float no longer holds every kick index
        with pytest.raises(ValueError, match="below 2\\^53"):
            stroboscopic_evolve(thermal_state(FIG1), cycle_map(FIG1, TAU, THETA), 2**53, 2**53)


class TestRunner:
    def test_trajectory_csv_rows(self, tmp_path):
        out = tmp_path / "fig1"
        argv = ["--scenario", "fig1", "--kicks", "999", "--stride", "7"]
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        rows = (tmp_path / "fig1.csv").read_text().splitlines()[1:]
        samples = stroboscopic_evolve(thermal_state(FIG1), cycle_map(FIG1, TAU, THETA), 999, 7)
        assert [r.split(",")[2:5] for r in rows] == [
            [repr(v.sigma_q), repr(v.sigma_qp), repr(v.sigma_p)] for _, v in samples
        ]
