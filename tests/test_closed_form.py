"""stroboscopic_evolve: the closed-form power of the period map, and its
binary powers where the closed form is not certified.

Its rows are checked against a 40-digit matrix power of the period map, and
against the kick-by-kick loop oracles._iterate.  Where the form is not
certified the powers must raise the loop's errors at the loop's kicks, find
the loop's onset, and keep their rows at least as close to 60 digits as the
loop's at the fixed cases, within a drift bound of the loop's at random ones.
"""

import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import moment_vectors, thetas
from oracles import _iterate, mp_period_states, row_error
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
from springkick import moments
from springkick.cli import main
from springkick.moments import (
    _MAX_DECAY,
    Samples,
    _MIN_SIN_PHI,
    _ONSET_CHUNK,
    _closed_form,
    _powers,
    _flight,
    _sample_indices,
)

FIG1 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
FIG2 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=200.0)
TAU = 1e-7
THETA = 10.0
RESONANCE = MechanicalParams(omega_m=1e3, gamma_m=1.532e-3, n_bar=0.0)
ONSETS = {"fig1": 308_386, "fig2": 777_965}

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


def outcome(evolve, v0, cycle, n_kicks, stride):
    """The run's Samples, or the (class, kick) of the error it raises."""
    try:
        return evolve(v0, cycle, n_kicks, stride)
    except (DivergenceError, ValueError) as exc:
        return type(exc), int(re.search(r"at kick (\d+)", str(exc)).group(1))


def assert_falls_back(v0, cycle, n_kicks, stride, bound):
    """The powered branch at a fixed uncertified case: the loop's error at
    the loop's kick, or the loop's onset and rows within bound of 60 digits
    at three sampled kicks, a bound the loop meets there too."""
    assert _closed_form(cycle) is None
    got, ref = (outcome(f, v0, cycle, n_kicks, stride) for f in (stroboscopic_evolve, _iterate))
    if not isinstance(ref, Samples):
        assert got == ref
        return
    assert got.onset == ref.onset
    assert np.array_equal(got.kicks, ref.kicks)
    rows = [1, len(got) // 2, len(got) - 1]
    params = cycle.params
    truth = mp_period_states(
        params.omega_m, params.gamma_m, params.n_bar, cycle.tau, cycle.theta,
        v0.as_array().tolist(), got.kicks[rows].tolist(), dps=60,
    )
    for i, t in zip(rows, truth):
        errors = (row_error(got.moments[i], t), row_error(ref.moments[i], t))
        assert max(errors) <= bound, (int(got.kicks[i]), errors)


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
    """Each case's bound is the loop's own largest error at its three
    kicks, rounded up; the powers' error is quoted beside it."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_resonance_points(self, k):
        # tau = k pi/omega_m: T is nearly a Jordan block with a real pair.
        # Powers 6.81e-10, 1.32e-9, 3.17e-7: both carry the float flight's
        # error there, the same for both
        bound = {1: 6.9e-10, 2: 1.4e-9, 3: 3.2e-7}[k]
        cyc = cycle_map(RESONANCE, k * math.pi / RESONANCE.omega_m, 2.0)
        assert abs(cos_phi(cyc)) > 1.0
        assert_falls_back(thermal_state(RESONANCE), cyc, 10_000, 100, bound)

    def test_real_pair_with_stationary_state(self):
        params = MechanicalParams(omega_m=1e3, gamma_m=1.0, n_bar=10.0)
        cyc = cycle_map(params, 2 * math.pi / params.omega_m, 0.5)
        assert cos_phi(cyc) > 1.0
        steady_state(cyc)
        # loop 8.22e-11, powers 8.23e-11
        assert_falls_back(thermal_state(params), cyc, 5_000, 100, 8.3e-11)

    def test_complex_pair_below_margin(self):
        # theta = 0 a little short of half a period: phi = omega_d tau
        params = MechanicalParams(omega_m=1e3, gamma_m=1e-3, n_bar=1.0)
        cyc = cycle_map(params, (math.pi - 0.005) / params.omega_m, 0.0)
        assert 0.0 < math.sqrt(1.0 - cos_phi(cyc) ** 2) < _MIN_SIN_PHI
        # loop 4.67e-13, powers 4.06e-14
        assert_falls_back(MomentVector(0.5, 0.0, 0.5), cyc, 5_000, 100, 4.7e-13)

    def test_unphysical_fixed_point(self):
        cyc = cycle_map(FIG1, TAU, 20.0)
        with pytest.raises(UnphysicalStateError):
            steady_state(cyc)
        # loop 3.04e-11, powers 2.33e-12
        assert_falls_back(thermal_state(FIG1), cyc, 2_000, 100, 3.1e-11)

    def test_no_stationary_state(self):
        params = MechanicalParams(omega_m=5e5, gamma_m=0.0, n_bar=10.0)
        cyc = cycle_map(params, TAU, THETA)
        with pytest.raises(NoStationaryStateError):
            steady_state(cyc)
        # loop 8.38e-13, powers 2.23e-13
        assert_falls_back(thermal_state(params), cyc, 2_000, 100, 8.4e-13)

    def test_unstable_map(self):
        # rho(A) = 62.2: the moments grow until det, which stays near its
        # start, is lost to rounding, at kick 10 for both
        params = MechanicalParams(103331.90264595288, 1.8636320858451776, 37.91151231434087)
        cyc = cycle_map(params, 5.639983278989652e-05, 7.073451701040678)
        assert cyc.spectral_radius > 62.0
        with pytest.raises(DivergenceError, match=r"lost to rounding\) at kick 10:"):
            _iterate(thermal_state(params), cyc, 60, 10)
        assert_falls_back(thermal_state(params), cyc, 60, 10, 0.0)

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
        # loop 5.2e-74, 4.4e-74 and 6.7e-16; powers 5.2e-74, 4.4e-74, 3.3e-16
        assert_falls_back(thermal_state(params), cyc, 2_000, 100, 1e-15)

    def test_certified_run_does_not_iterate(self):
        cyc = cycle_map(FIG1, TAU, THETA)
        v0 = thermal_state(FIG1)
        got = stroboscopic_evolve(v0, cyc, 2_000, 100)
        assert bits(got) != bits(_iterate(v0, cyc, 2_000, 100))


# Bound on how far two float64 evaluations of one run drift apart, as a
# relative row error per kick and per unit of kappa = (sigma_q +
# sigma_p)^2/(4 det), the largest along the run: each period rounds the
# state at about eps of Sigma's larger eigenvalue, kappa times its smaller
# one.  Over 1069 random uncertified runs of up to 2000 kicks the powered
# rows' distance from the loop's peaked at 2.7e-16 per kick and unit of
# kappa.  Near |cos(phi)| = 1 kappa reaches 1e10 and the two drift 1e-3
# apart; there both are that far from 60 digits, the powers by up to 100
# times as far as the loop, by up to 10 times less elsewhere.
DRIFT_PER_KICK = 1e-15


def drift_bound(n_kicks, rows):
    """DRIFT_PER_KICK n_kicks kappa over rows, an (n, 3) array of states."""
    q, qp, p = rows.T
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.max((q + p) ** 2 / (4.0 * np.abs(q * p - qp * qp)))
    return DRIFT_PER_KICK * max(n_kicks, 1) * max(kappa, 1.0)


@st.composite
def uncertified_cycles(draw):
    """(params, tau, theta) on the branches _closed_form rejects, or near
    them: tau near k pi/omega_m, theta near |cos(phi)| = 1, gamma_m tau
    above _MAX_DECAY, or strong kicks, whose fixed point is unphysical or
    absent."""
    omega_m = draw(st.floats(1e3, 1e7))
    gamma_m = omega_m * 10.0 ** draw(st.floats(-7.0, -0.5))
    n_bar = draw(st.floats(0.0, 300.0))
    branch = draw(st.sampled_from(["resonance", "edge", "decay", "kick"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if branch == "resonance":
        k = draw(st.integers(1, 3))
        tau = (k * math.pi + sign * 10.0 ** draw(st.floats(-15.0, -3.0))) / omega_m
        theta = draw(thetas)
    elif branch == "edge":
        gamma_m = draw(st.sampled_from([0.0, gamma_m]))
        tau = 2 * math.pi / omega_m * 10.0 ** draw(st.floats(-2.0, 0.5))
        # theta that puts cos(phi) = tr T/(2 delta) at c, |c| - 1 tiny
        (f00, f01), (_, f11) = _flight(MechanicalParams(omega_m, gamma_m, n_bar), tau)[0]
        c = sign * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -2.4)))
        theta = (f00 + f11 - 2.0 * math.exp(-0.5 * gamma_m * tau) * c) / (2.0 * f01)
        assume(abs(theta) <= 30.0)
    elif branch == "decay":
        gamma_m = omega_m * 10.0 ** draw(st.floats(-3.0, 2.0))
        tau = draw(st.floats(700.5, 3000.0)) / gamma_m
        theta = draw(thetas)
    else:
        tau = 2 * math.pi / omega_m * 10.0 ** draw(st.floats(-3.0, -1.0))
        theta = sign * draw(st.floats(10.0, 60.0))
    return MechanicalParams(omega_m, gamma_m, n_bar), tau, theta


class TestPowersAgainstLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        cycle=uncertified_cycles(),
        v0=moment_vectors(),
        n_kicks=st.integers(0, 2000),
        stride=st.integers(1, 2500),
    )
    # Counterexamples of stricter forms of this property, every one near
    # |cos(phi)| = 1 or on the vacuum line.  The two raise the same error
    # at kicks 417 and 278, where det's drift spans 0 to 1/4 and far beyond
    @example(
        cycle=(MechanicalParams(8726924.784329498, 0.0, 1.712357075447521e-292),
               3.0275569547732566e-07, -3.9202979050962066),
        v0=MomentVector(19.952623149688797, -0.14140866783931863, 0.029710353407830657),
        n_kicks=584, stride=139,
    )
    # only the powers find kick 247 unphysical, at det 0.2479
    @example(
        cycle=(MechanicalParams(10000000.0, 0.0, 4.0), 1.7995964281052068e-06, -2.1988660394542263),
        v0=MomentVector(1.0, 0.0, 0.25), n_kicks=247, stride=247,
    )
    # only the loop loses det at kick 242
    @example(
        cycle=(MechanicalParams(7006799.969143932, 0.7006799969143931, 217.8494547988033),
               1.037009941378343e-08, 27.51289055915968),
        v0=MomentVector(1.0, 0.0, 0.25), n_kicks=242, stride=242,
    )
    # cos(phi) = -0.9999 at gamma_m = 0: kappa reaches 1e10 and the rows
    # drift 1.3e-3 apart, the powers 1.0e-3 and the loop 2.6e-4 from 60 digits
    @example(
        cycle=(MechanicalParams(68155.72837306834, 0.0, 239.71997979893237),
               2.7575069539315312e-06, 10.60982310520151),
        v0=MomentVector(1.0, -3.915755334418163e-155, 0.49881557874221993),
        n_kicks=511, stride=3,
    )
    # n_bar = 0 and theta ~ 0: the run settles on the vacuum itself, at
    # onsets 609 and None, and None and 0
    @example(
        cycle=(MechanicalParams(81510.35836320183, 815.1035836320183, 0.0),
               7.708450107877513e-05, -1.7267895561720843e-45),
        v0=MomentVector(0.30017583682285565, 3.7177541387375476e-16, 10.171947868843972),
        n_kicks=1380, stride=518,
    )
    @example(
        cycle=(MechanicalParams(290571.1376780146, 27243125.75527079, 0.0),
               5.6426239912368554e-05, 2.808332095802849e-154),
        v0=MomentVector(0.1763956474711817, -4.953732908514659e-07, 1.417268530060635),
        n_kicks=117, stride=117,
    )
    def test_errors_onset_and_rows(self, cycle, v0, n_kicks, stride):
        cyc = cycle_map(*cycle)
        assume(_closed_form(cyc) is None)
        got, ref = (outcome(f, v0, cyc, n_kicks, stride) for f in (stroboscopic_evolve, _iterate))
        kicks = _sample_indices(n_kicks, stride).tolist()
        # the powered rows, unchecked, judge the ties below
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _powers(cyc).start(v0)[0](np.array(kicks, dtype=float)).T
        if isinstance(got, Samples) and isinstance(ref, Samples):
            assert np.array_equal(got.kicks, ref.kicks)
            drift = drift_bound(n_kicks, ref.moments)
            worst = max(row_error(a, b) for a, b in zip(got.moments, ref.moments))
            assert worst <= drift, (worst, drift)
            if got.onset != ref.onset:
                # only a kick whose state lies within rounding or drift of
                # the vacuum line may be judged apart
                lo, hi = sorted(n_kicks if o is None else o - 1 for o in (got.onset, ref.onset))
                with np.errstate(over="ignore", invalid="ignore"):
                    q, qp, p = _powers(cyc).start(v0)[0](np.arange(lo, hi + 1, dtype=float))
                gap = np.abs(p + q - np.hypot(p - q, 2.0 * qp) - 1.0)
                assert np.any(gap <= max(1e-12, 2.0 * drift) * (p + q)), (got.onset, ref.onset)
            return
        if got == ref:
            return
        # apart only where the first kick they dispute has a det that the
        # drift leaves unresolved, at either threshold of the checks
        at = min(o[1] for o in (got, ref) if isinstance(o, tuple))
        i = kicks.index(at)
        q, qp, p = rows[i]
        scale = q * p + qp * qp
        spread = 2.0 * drift_bound(n_kicks, rows[: i + 1]) * scale
        assert spread >= abs(q * p - qp * qp - 0.25) + 1e-12 * scale, (got, ref)


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
            # both name the same first failing sampled kick
            at = re.search(r"at kick \d+", str(exc)).group()
            with pytest.raises(type(exc), match=at + r"\b"):
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


def squeezed_from(v0, cycle):
    """The onset envelope's kick n* of a certified run."""
    form = _closed_form(cycle)
    assert form is not None
    return form.start(v0)[1]


class TestEnvelope:
    """The onset envelope: every kick from n* on is squeezed, so the onset
    scan may start at n* instead of the last kick."""

    @pytest.mark.parametrize("name, params", [("fig1", FIG1), ("fig2", FIG2)], ids=["fig1", "fig2"])
    def test_presets(self, name, params):
        cyc = cycle_map(params, TAU, THETA)
        v0 = thermal_state(params)
        n_star = squeezed_from(v0, cyc)
        ref = _iterate(v0, cyc, 1_000_000, 1_000_000)
        assert ref.onset == ONSETS[name]
        # the loop's last unsqueezed kick, onset - 1, lies before n*, and
        # within the first block of a scan that starts at n*
        assert ref.onset <= n_star < ref.onset + _ONSET_CHUNK
        assert stroboscopic_evolve(v0, cyc, 1_000_000, 1_000_000).onset == ref.onset

    def test_runs_ending_around_the_bound(self):
        cyc = cycle_map(FIG1, TAU, THETA)
        v0 = thermal_state(FIG1)
        n_star = squeezed_from(v0, cyc)
        for n_kicks in (n_star - 1, n_star, n_star + 1):
            assert stroboscopic_evolve(v0, cyc, n_kicks, 100_000).onset == ONSETS["fig1"]

    def test_fig1_at_2_31_kicks(self):
        # the scan stops near n*, so one row of 2^31 kicks takes well under
        # a second; scanning from the last kick would take minutes
        n_kicks = 2**31
        v0 = thermal_state(FIG1)
        samples = stroboscopic_evolve(v0, cycle_map(FIG1, TAU, THETA), n_kicks, n_kicks)
        assert samples.onset == ONSETS["fig1"]
        [ref] = mp_period_states(
            FIG1.omega_m, FIG1.gamma_m, FIG1.n_bar, TAU, THETA, v0.as_array().tolist(), [n_kicks]
        )
        assert samples[-1][0] == n_kicks
        assert row_error(samples.moments[-1], ref) <= ROW_BOUND

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        omega_m=st.floats(1e3, 1e7),
        decay=st.floats(-3.0, -1.0),
        n_bar=st.floats(0.0, 300.0),
        phase=st.floats(-2.5, 0.0),
        phi=st.floats(0.15, 3.0),
        v0=moment_vectors(),
        extra=st.integers(1, 500),
    )
    def test_strong_damping(self, omega_m, decay, n_bar, phase, phi, v0, extra):
        # gamma_m tau = 10^decay puts n* within a few thousand kicks; theta
        # sets the eigenphase near phi, a complex pair, for omega_m tau = 10^phase
        tau = 10.0**phase / omega_m
        theta = (math.cos(10.0**phase) - math.cos(phi)) / math.sin(10.0**phase)
        cyc = _stable_complex_pair(MechanicalParams(omega_m, 10.0**decay / tau, n_bar), tau, theta)
        assume(cyc is not None)
        n_star = squeezed_from(v0, cyc)
        assume(n_star is not None and n_star + extra <= 5000)
        n_kicks = n_star + extra
        try:
            ref = _iterate(v0, cyc, n_kicks, n_kicks)
        except (DivergenceError, UnphysicalStateError):
            assume(False)
        assert ref.onset is not None and ref.onset <= n_star
        assert stroboscopic_evolve(v0, cyc, n_kicks, n_kicks).onset == ref.onset


# A strongly damped certified map, gamma_m tau = 4.1e-3: from the thermal
# state the loop's unsqueezed kicks end 1057, 1062, 1067, so the onset is
# 1068, and n* = 1089
DAMPED = (
    MechanicalParams(75384.24063201346, 747.4557413033973, 10.0),
    5.539535778847918e-06,
    3.056124036119083,
)
DAMPED_V0 = MomentVector(10.5, 0.0, 10.5)
# overdamped, gamma_m tau = 0.66: the thermal state is unsqueezed and every
# state after it squeezed, onset 1
SNAP = (
    MechanicalParams(88651.67098326472, 120637.07055423017, 1.0),
    5.475468047449628e-06,
    0.9657673237792174,
)


@st.composite
def onset_cycles(draw):
    """(params, tau, theta) of a certified map whose n* lies within a few
    thousand kicks, as in TestEnvelope.test_strong_damping, or of
    uncertified_cycles."""
    if draw(st.booleans()):
        return draw(uncertified_cycles())
    omega_m = draw(st.floats(1e3, 1e7))
    phase = 10.0 ** draw(st.floats(-2.5, 0.0))
    tau = phase / omega_m
    gamma_m = 10.0 ** draw(st.floats(-3.0, -1.0)) / tau
    theta = (math.cos(phase) - math.cos(draw(st.floats(0.15, 3.0)))) / math.sin(phase)
    return MechanicalParams(omega_m, gamma_m, draw(st.floats(0.0, 300.0))), tau, theta


def scanned_kicks(cyc, v0, n_kicks, stride):
    """The run's Samples, and how many kicks its onset scan evaluated beyond
    the sampled rows, counted by a spy on the evaluator's states."""
    evaluated = []
    start = cyc._evaluator.start

    def spied(v):
        states, n_star = start(v)

        def counted(n):
            evaluated.append(len(n))
            return states(n)

        return counted, n_star

    object.__setattr__(cyc, "_evaluator", cyc._evaluator._replace(start=spied))
    samples = stroboscopic_evolve(v0, cyc, n_kicks, stride)
    return samples, sum(evaluated) - (len(samples) - 1)


class TestFlooredScan:
    """The onset scan tests only the kicks after the last sampled kick that
    tests unsqueezed, up to hi = min(n*, n_kicks), yet finds the loop's
    onset."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        cycle=onset_cycles(),
        v0=moment_vectors(),
        run=st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n + 1))),
    )
    # the last unsqueezed kick, 1067, on a sampled kick, one past the
    # sampled kick 1066 and one before the sampled kick 1068
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1100, 1067))
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1100, 1066))
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1100, 1068))
    # ends on its last unsqueezed kick: onset None
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1067, 100))
    # n* < n_kicks, and stride >= n_kicks
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(5000, 7))
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1100, 1100))
    @example(cycle=DAMPED, v0=DAMPED_V0, run=(1100, 1101))
    # an unsqueezed v0, then only squeezed kicks: onset 1
    @example(cycle=SNAP, v0=MomentVector(1.5, 0.0, 1.5), run=(50, 10))
    def test_onset_matches_loop(self, cycle, v0, run):
        n_kicks, stride = run
        cyc = cycle_map(*cycle)
        got, ref = (outcome(f, v0, cyc, n_kicks, stride) for f in (stroboscopic_evolve, _iterate))
        assume(isinstance(got, Samples) and isinstance(ref, Samples))
        if got.onset != ref.onset:
            # only a kick whose state lies within rounding or the loop's
            # drift of the vacuum line may be judged apart
            lo, hi = sorted(n_kicks if o is None else max(o - 1, 0) for o in (got.onset, ref.onset))
            with np.errstate(over="ignore", invalid="ignore"):
                q, qp, p = cyc._evaluator.start(v0)[0](np.arange(lo, hi + 1, dtype=float))
            gap = np.abs(p + q - np.hypot(p - q, 2.0 * qp) - 1.0)
            tol = max(1e-12, 2.0 * drift_bound(n_kicks, ref.moments))
            assert np.any(gap <= tol * (p + q)), (got.onset, ref.onset)

    def test_fig1_scans_from_the_floor(self):
        # n* = 308,710, and the last sampled kick that tests unsqueezed is
        # 304,900: the scan tests 3,810 kicks, not a block of _ONSET_CHUNK
        cyc = cycle_map(FIG1, TAU, THETA)
        samples, scanned = scanned_kicks(cyc, thermal_state(FIG1), 1_000_000, 100)
        assert (samples.onset, scanned) == (ONSETS["fig1"], 3_810)

    @pytest.mark.parametrize("branch", ["closed_form", "powers"])
    def test_run_ending_unsqueezed_scans_nothing(self, branch):
        if branch == "closed_form":
            params, tau, theta, n_kicks = FIG1, TAU, THETA, ONSETS["fig1"] - 1
        else:
            # TestFallback's real pair
            params = MechanicalParams(omega_m=1e3, gamma_m=1.0, n_bar=10.0)
            tau, theta, n_kicks = 2 * math.pi / params.omega_m, 0.5, 5_000
        cyc = cycle_map(params, tau, theta)
        assert (_closed_form(cyc) is not None) == (branch == "closed_form")
        samples, scanned = scanned_kicks(cyc, thermal_state(params), n_kicks, 100)
        assert (samples.onset, scanned) == (None, 0)


def run_ini(tmp_path, omega_m, gamma_m, n_bar, tau, theta):
    """A CLI --config run of 10^4 kicks at stride 100 with a 33-sample intra
    trace, which must exit 0."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        f"[mechanical]\nomega_m = {omega_m!r}\ngamma_m = {gamma_m!r}\nn_bar = {n_bar!r}\n"
        f"[kick]\ntheta = {theta!r}\n[schedule]\ntau = {tau!r}\nn_kicks = 10000\n"
        "stride = 100\nintra_samples = 33\n"
    )
    assert main(["--config", str(ini), "--out", str(tmp_path / "run"), "--quiet"]) == 0


def counting(calls, fn):
    def spy(*args):
        calls.append(args)
        return fn(*args)

    return spy


class TestOneBuild:
    """A run builds its cycle's evaluator once, with the cycle map: the
    stationary state and the evolve both read it."""

    def test_closed_form(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "_eigenphase", counting(calls, moments._eigenphase))
        run_ini(tmp_path, 5e5, 1e2, 10.0, 1e-7, 1.0)
        assert len(calls) == 1

    def test_powers(self, tmp_path, monkeypatch):
        # the resonance run res2 of the CI: tau = 2 pi/omega_m, a real pair
        calls = []
        monkeypatch.setattr(moments, "_powers", counting(calls, moments._powers))
        run_ini(tmp_path, 1e3, 1.532e-3, 0.0, 0.006283185307179587, 2.0)
        assert len(calls) == 1


class TestLimit:
    """steady_state is the limit of the evaluator a run takes, so a run long
    enough for its transient to underflow ends on it."""

    def test_closed_form(self):
        # fig1: the transient has decayed by e^{-gamma tau n} = e^{-21475}
        cyc = cycle_map(FIG1, TAU, THETA)
        v0 = thermal_state(FIG1)
        assert _closed_form(cyc) is not None
        samples = stroboscopic_evolve(v0, cyc, 2**31, 2**31)
        assert row_error(samples.moments[-1], steady_state(cyc).as_array()) <= 1e-15

    def test_powers(self):
        # TestFallback's real pair, rho(A) = 0.9955: the run ends unsqueezed,
        # so its onset scan stops at the last kick
        params = MechanicalParams(omega_m=1e3, gamma_m=1.0, n_bar=10.0)
        cyc = cycle_map(params, 2 * math.pi / params.omega_m, 0.5)
        v0 = thermal_state(params)
        assert _closed_form(cyc) is None
        samples = stroboscopic_evolve(v0, cyc, 2**20, 2**20)
        assert samples.onset is None
        assert row_error(samples.moments[-1], steady_state(cyc).as_array()) <= 1e-15


class TestOneKickBlocks:
    """A block of one kick rounds as the same kick inside a longer block:
    the closed form's weights @ terms takes it as two identical columns, not
    as a matrix-vector product."""

    def test_kicks_alone_match_the_block(self):
        cyc = cycle_map(FIG1, TAU, THETA)
        states, _ = cyc._evaluator.start(thermal_state(FIG1))
        block = states(np.arange(1.0, 20_001.0))
        for k in np.linspace(1, 20_000, 55).astype(int).tolist():
            alone = states(np.array([float(k)]))
            assert alone.shape == (3, 1)
            assert np.array_equal(alone[:, 0], block[:, k - 1]), k

    def test_last_row_at_any_stride(self):
        cyc = cycle_map(FIG1, TAU, THETA)
        v0 = thermal_state(FIG1)
        coarse = stroboscopic_evolve(v0, cyc, 20_000, 20_000)
        fine = stroboscopic_evolve(v0, cyc, 20_000, 100)
        assert bits([coarse[-1]]) == bits([fine[-1]])


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
