"""The fused kick scan: moments._iterate samples and onset in one pass.

_iterate is the kick-by-kick loop that stroboscopic_evolve falls back on
where its closed form is not certified.  The reference below is the earlier
two-pass code, copied with its one helper inlined: one loop that samples
the states and a second loop over the same kicks that tracks the last
unsqueezed one.  The fused scan must reproduce both exactly.
"""

import math
import re

import mpmath as mp
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import moment_vectors
from springkick import (
    DivergenceError,
    MechanicalParams,
    MomentVector,
    UnphysicalStateError,
    cycle_map,
    steady_state,
    thermal_state,
)
from springkick import moments
from springkick.moments import VACUUM_VARIANCE, _PHYSICAL_SPAN, Samples, _iterate, _unpack_cycle

FIG1 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
FIG2 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=200.0)
TAU = 1e-7


def reference_evolve(v0, cycle, n_kicks, sample_stride=1):
    theta = cycle.theta
    t2 = 2.0 * theta
    t4 = 4.0 * theta
    t4sq = t4 * theta
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cycle)

    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    samples = [(0, v0)]
    for n in range(1, n_kicks + 1):
        qp_k = qp - t2 * q
        p_k = p - t4 * qp + t4sq * q
        q_new = m00 * q + m01 * qp_k + m02 * p_k + b0
        qp = m10 * q + m11 * qp_k + m12 * p_k + b1
        p = m20 * q + m21 * qp_k + m22 * p_k + b2
        q = q_new
        if n % sample_stride == 0 or n == n_kicks:
            # a sampled state must also have a finite determinant
            if not (
                math.isfinite(q)
                and math.isfinite(qp)
                and math.isfinite(p)
                and math.isfinite(q * p - qp * qp)
            ):
                raise DivergenceError(
                    f"moments diverged (out of float64 range) at kick {n}: "
                    f"({q}, {qp}, {p})"
                )
            samples.append((n, MomentVector(q, qp, p)))
    return samples


def reference_onset(v0, cycle, n_kicks):
    theta = cycle.theta
    t2 = 2.0 * theta
    t4 = 4.0 * theta
    t4sq = t4 * theta
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cycle)

    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    sqrt = math.sqrt
    d = p - q
    min_var = 0.5 * (p + q - math.sqrt(d * d + 4.0 * qp * qp))
    last_unsqueezed = 0 if min_var >= VACUUM_VARIANCE else -1
    for n in range(1, n_kicks + 1):
        qp_k = qp - t2 * q
        p_k = p - t4 * qp + t4sq * q
        q_new = m00 * q + m01 * qp_k + m02 * p_k + b0
        qp = m10 * q + m11 * qp_k + m12 * p_k + b1
        p = m20 * q + m21 * qp_k + m22 * p_k + b2
        q = q_new
        d = p - q
        if p + q - sqrt(d * d + 4.0 * qp * qp) >= 1.0:  # 2*sigma_min >= 2*vacuum
            last_unsqueezed = n
    if not (math.isfinite(q) and math.isfinite(qp) and math.isfinite(p)):
        raise DivergenceError(f"moments diverged (non-finite) by kick {n_kicks}")
    if last_unsqueezed == n_kicks:
        return None
    return last_unsqueezed + 1


def bits(samples):
    """Samples as exact bit patterns, so -0.0 and 0.0 differ."""
    return [
        (n, v.sigma_q.hex(), v.sigma_qp.hex(), v.sigma_p.hex()) for n, v in samples
    ]


def assert_matches_reference(v0, cycle, n_kicks, stride):
    samples = _iterate(v0, cycle, n_kicks, stride)
    assert isinstance(samples, Samples)
    assert bits(samples) == bits(reference_evolve(v0, cycle, n_kicks, stride))
    expected = reference_onset(v0, cycle, n_kicks)
    assert samples.onset == expected
    assert _iterate(v0, cycle, n_kicks, max(n_kicks, 1)).onset == expected
    return samples


class TestAgainstTwoPassReference:
    @pytest.mark.parametrize("params", [FIG1, FIG2], ids=["fig1", "fig2"])
    @pytest.mark.parametrize("stride", [1, 100, 333])
    def test_presets(self, params, stride):
        cyc = cycle_map(params, TAU, 10.0)
        assert_matches_reference(thermal_state(params), cyc, 20_000, stride)

    @seed(20240601)
    @settings(max_examples=60, deadline=None)
    @given(
        v0=moment_vectors(),
        theta=st.floats(0.0, 12.0),
        n_kicks=st.integers(0, 3000),
        stride=st.integers(1, 4000),
    )
    @example(v0=MomentVector(0.5, 0.0, 0.5), theta=10.0, n_kicks=1000, stride=7)
    @example(v0=MomentVector(0.5, 0.0, 0.5), theta=10.0, n_kicks=50, stride=51)
    @example(v0=MomentVector(0.5, 0.0, 0.5), theta=10.0, n_kicks=0, stride=1)
    @example(v0=MomentVector(0.5, 0.0, 0.5), theta=10.0, n_kicks=1, stride=1)
    @example(v0=MomentVector(0.3, 0.0, 1.0), theta=2.0, n_kicks=0, stride=5)
    @example(v0=MomentVector(0.3, 0.0, 1.0), theta=2.0, n_kicks=1, stride=5)
    def test_random_runs(self, v0, theta, n_kicks, stride):
        assert_matches_reference(v0, cycle_map(FIG1, TAU, theta), n_kicks, stride)


class TestOnsetBoundaries:
    def test_onset_at_kick_zero(self):
        cyc = cycle_map(FIG1, TAU, 10.0)
        samples = assert_matches_reference(steady_state(cyc), cyc, 200, 30)
        assert samples.onset == 0

    def test_onset_at_last_kick(self):
        # From vacuum the run settles into squeezing at some kick o.  A run of
        # o kicks has its onset at its last kick; a run of o - 1 kicks ends
        # unsqueezed and certifies none.
        cyc = cycle_map(FIG1, TAU, 10.0)
        v0 = MomentVector(0.5, 0.0, 0.5)
        o = _iterate(v0, cyc, 2000, 2000).onset
        assert 0 < o < 2000
        at_end = assert_matches_reference(v0, cyc, o, 3)
        assert at_end.onset == o
        cut = assert_matches_reference(v0, cyc, o - 1, 3)
        assert cut.onset is None

    def test_zero_kicks(self):
        cyc = cycle_map(FIG1, TAU, 10.0)
        unsqueezed = assert_matches_reference(thermal_state(FIG1), cyc, 0, 1)
        assert unsqueezed.onset is None
        squeezed = assert_matches_reference(steady_state(cyc), cyc, 0, 1)
        assert squeezed.onset == 0


class TestDivergence:
    PARAMS = MechanicalParams(5e5, 0.0, 10.0)

    @pytest.mark.parametrize("stride", [1, 7, 64])
    def test_names_first_non_finite_sampled_kick(self, stride):
        cyc = cycle_map(self.PARAMS, TAU, -10.0)
        v0 = thermal_state(self.PARAMS)
        with pytest.raises(DivergenceError) as ref:
            reference_evolve(v0, cyc, 5000, 1)
        first = int(str(ref.value).split("at kick ")[1].split(":")[0])
        assert 1 < first < 5000
        sampled = min(-(-first // stride) * stride, 5000)
        with pytest.raises(DivergenceError) as ref:
            reference_evolve(v0, cyc, 5000, stride)
        with pytest.raises(DivergenceError, match=f"at kick {sampled}:") as got:
            _iterate(v0, cyc, 5000, stride)
        assert str(got.value) == str(ref.value)

    def test_onset_of_divergent_run_raises(self):
        cyc = cycle_map(self.PARAMS, TAU, -10.0)
        with pytest.raises(DivergenceError):
            _iterate(thermal_state(self.PARAMS), cyc, 5000, 5000).onset


class TestUnphysical:
    @pytest.mark.parametrize("stride", [1_000, 100_000])
    def test_stops_near_first_unphysical_sample(self, stride, monkeypatch):
        # theta = 20 at fig1: the fixed point is below the floor, and a
        # 4e6-kick run crosses it long before its end; the loop stops within
        # _PHYSICAL_SPAN kicks of the first unphysical sample, or at it where
        # the stride is longer
        reached = []
        check_finite = moments._check_finite

        def spy(kicks, *state):
            reached.append(kicks[-1])
            check_finite(kicks, *state)

        monkeypatch.setattr(moments, "_check_finite", spy)
        with pytest.raises(UnphysicalStateError, match=r"< 1/4 at kick \d+$") as err:
            _iterate(thermal_state(FIG1), cycle_map(FIG1, TAU, 20.0), 4_000_000, stride)
        first = int(re.search(r"at kick (\d+)$", str(err.value)).group(1))
        late = 0 if stride >= _PHYSICAL_SPAN else _PHYSICAL_SPAN
        assert first <= reached[-1] <= first + late < 4_000_000


class TestHugeMoments:
    def test_overflowing_spread_is_not_squeezing(self):
        # At n_bar = 3e152 the kicked states reach sigma_p ~ 1.6e155, where
        # d^2 + 4 qp^2 overflows to inf (16 of the 21 samples) and
        # p + q - sqrt(inf) passed for a squeezed kick (onset 1982), while
        # every determinant stays finite.  Every sample is above +1500 dB.
        params = MechanicalParams(5e5, 1e2, 3e152)
        cyc = cycle_map(params, TAU, 10.0)
        v0 = thermal_state(params)
        samples = _iterate(v0, cyc, 2000, 100)
        overflowed = 0
        with mp.workdps(40):
            for _, v in samples:
                d, two_qp = v.sigma_p - v.sigma_q, 2.0 * v.sigma_qp
                overflowed += math.isinf(d * d + two_qp * two_qp)
                q, c, p = (mp.mpf(x) for x in (v.sigma_q, v.sigma_qp, v.sigma_p))
                assert q + p - mp.sqrt((p - q) ** 2 + 4 * c * c) > 1e150
        assert overflowed > 0
        assert reference_onset(v0, cyc, 2000) == 1982
        assert samples.onset is None
        assert _iterate(v0, cyc, 2000, 2000).onset is None

    def test_overflowing_determinant_raises(self):
        # At n_bar = 1e153 the moments stay finite, but sigma_q*sigma_p -
        # sigma_qp^2 of the sample at kick 200 is not; such a state passed
        # MomentVector's validation, whose tolerance was then inf as well.
        params = MechanicalParams(5e5, 1e2, 1e153)
        cyc = cycle_map(params, TAU, 10.0)
        with pytest.raises(DivergenceError, match="at kick 200:"):
            _iterate(thermal_state(params), cyc, 2000, 100)
