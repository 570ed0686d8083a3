"""Noisy-kick Monte Carlo: seeding, lockstep/scalar agreement, aggregation."""

import math
import threading

import numpy as np
import pytest

from springkick import (
    EnsembleStats,
    KickNoiseModel,
    MechanicalParams,
    cycle_map,
    run_ensemble,
    run_trajectory,
    steady_tail_mean,
    stroboscopic_evolve,
    thermal_state,
    trajectory_seed,
)
from springkick.ensemble import RNG_BLOCK, _run_block
from springkick.moments import _unpack_cycle

FIG = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
TAU = 1e-7
NOISE = KickNoiseModel(mean_theta=10.0, variance=1e-3)


def moments_of(result):
    return np.array([[v.sigma_q, v.sigma_qp, v.sigma_p] for _, v, _ in result.samples])


class TestSeeding:
    def test_deterministic_and_distinct(self):
        seeds = [trajectory_seed(12345, i) for i in range(64)]
        assert seeds == [trajectory_seed(12345, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert trajectory_seed(12346, 0) != seeds[0]

    def test_independent_of_other_indices(self):
        # seed for index i never depends on which other indices are in play
        assert trajectory_seed(7, 3) == trajectory_seed(7, 3)
        assert 0 <= trajectory_seed(7, 3) < 2**128

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="index"):
            trajectory_seed(1, -1)


class TestTrajectory:
    def test_same_seed_bit_identical(self):
        a = run_trajectory(FIG, TAU, NOISE, 2000, 100, seed=42)
        b = run_trajectory(FIG, TAU, NOISE, 2000, 100, seed=42)
        assert a.seed == b.seed
        assert [n for n, _, _ in a.samples] == [n for n, _, _ in b.samples]
        assert np.array_equal(moments_of(a), moments_of(b))

    def test_different_seeds_differ(self):
        a = run_trajectory(FIG, TAU, NOISE, 500, 500, seed=1)
        b = run_trajectory(FIG, TAU, NOISE, 500, 500, seed=2)
        assert not np.array_equal(moments_of(a), moments_of(b))

    def test_zero_variance_matches_deterministic_bitwise(self):
        # ties the two copies of the per-kick update together: with no noise
        # every float operation of the lockstep loop in ensemble._run_block
        # must land on the same bits as the scalar loop in
        # moments.stroboscopic_evolve
        quiet = KickNoiseModel(mean_theta=10.0, variance=0.0)
        traj = run_trajectory(FIG, TAU, quiet, 3000, 250, seed=99)
        cyc = cycle_map(FIG, TAU, 10.0)
        ref = stroboscopic_evolve(thermal_state(FIG), cyc, 3000, 250)
        assert [n for n, _, _ in traj.samples] == [n for n, _ in ref]
        ref_arr = np.array([[v.sigma_q, v.sigma_qp, v.sigma_p] for _, v in ref])
        assert np.array_equal(moments_of(traj), ref_arr)

    def test_noisy_draws_map_to_kicks_bitwise(self):
        # pins which draw drives which kick across an RNG block boundary, at
        # a stride that divides neither the block nor the run
        n_kicks, stride = RNG_BLOCK + 5, 7
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        v0 = thermal_state(FIG)
        for seeds in ([11], [11, 12, 13]):
            cube = _run_block(cyc, v0, NOISE, n_kicks, stride, seeds)
            for i, seed in enumerate(seeds):
                ref = scalar_noisy_run(cyc, v0, n_kicks, stride, seed)
                assert np.array_equal(cube[:, i], ref), (len(seeds), i)
        solo = run_trajectory(FIG, TAU, NOISE, n_kicks, stride, seed=11)
        assert np.array_equal(moments_of(solo), scalar_noisy_run(cyc, v0, n_kicks, stride, 11))

    def test_sampling_includes_start_and_end(self):
        traj = run_trajectory(FIG, TAU, NOISE, 1050, 500, seed=3)
        assert [n for n, _, _ in traj.samples] == [0, 500, 1000, 1050]


def scalar_noisy_run(cyc, v0, n_kicks, stride, seed):
    """One noisy trajectory, kick by kick on Python floats: kick n uses draw
    n - 1 of the seed's stream, drawn RNG_BLOCK at a time."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cyc)
    rng = np.random.default_rng(seed)
    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    rows = [(q, qp, p)]
    for n in range(n_kicks):
        if n % RNG_BLOCK == 0:
            draws = rng.normal(NOISE.mean_theta, NOISE.std, size=RNG_BLOCK).tolist()
        th = draws[n % RNG_BLOCK]
        qp_k = qp - 2.0 * th * q
        p_k = p - 4.0 * th * qp + 4.0 * th * th * q
        q, qp, p = (
            m00 * q + m01 * qp_k + m02 * p_k + b0,
            m10 * q + m11 * qp_k + m12 * p_k + b1,
            m20 * q + m21 * qp_k + m22 * p_k + b2,
        )
        if (n + 1) % stride == 0 or n + 1 == n_kicks:
            rows.append((q, qp, p))
    return np.array(rows)


class TestEnsemble:
    def test_column_zero_is_single_trajectory(self):
        stats = run_ensemble(FIG, TAU, NOISE, 1200, 200, n_traj=5, base_seed=777)
        solo = run_trajectory(
            FIG, TAU, NOISE, 1200, 200, seed=trajectory_seed(777, 0)
        )
        assert np.array_equal(moments_of(stats.trajectory0), moments_of(solo))

    def test_thread_count_invariance(self):
        kw = dict(n_kicks=800, stride=200, n_traj=7, base_seed=31)
        a = run_ensemble(FIG, TAU, NOISE, n_jobs=1, **kw)
        b = run_ensemble(FIG, TAU, NOISE, n_jobs=3, **kw)
        for name in (
            "sigma_min_mean",
            "sigma_min_std",
            "squeezing_db_of_mean",
            "squeezing_db_mean",
            "squeezing_db_std",
            "phi_min_mean",
            "purity_mean",
            "entropy_mean",
            "n_eff_mean",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_runs_without_threads(self, monkeypatch):
        # n_jobs is accepted and ignored: no thread is started for any value
        def refuse(self):
            raise RuntimeError("run_ensemble started a thread")

        kw = dict(n_kicks=800, stride=200, n_traj=7, base_seed=31)
        a = run_ensemble(FIG, TAU, NOISE, n_jobs=1, **kw)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        b = run_ensemble(FIG, TAU, NOISE, n_jobs=4, **kw)
        assert np.array_equal(a.kick_indices, b.kick_indices)
        for name in (
            "sigma_min_mean",
            "sigma_min_std",
            "squeezing_db_of_mean",
            "squeezing_db_mean",
            "squeezing_db_std",
            "phi_min_mean",
            "phi_min_std",
            "purity_mean",
            "purity_std",
            "entropy_mean",
            "entropy_std",
            "n_eff_mean",
            "n_eff_std",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(moments_of(a.trajectory0), moments_of(b.trajectory0))

    def test_repeat_invocation_bitwise(self):
        kw = dict(n_kicks=600, stride=150, n_traj=4, base_seed=5)
        a = run_ensemble(FIG, TAU, NOISE, **kw)
        b = run_ensemble(FIG, TAU, NOISE, **kw)
        assert np.array_equal(a.sigma_min_mean, b.sigma_min_mean)
        assert np.array_equal(a.squeezing_db_mean, b.squeezing_db_mean)

    def test_zero_variance_mean_equals_deterministic(self):
        # power-of-two trajectory count: pairwise summation of identical
        # columns is exact, so the mean is bitwise the deterministic value
        quiet = KickNoiseModel(mean_theta=10.0, variance=0.0)
        stats = run_ensemble(FIG, TAU, quiet, 1000, 250, n_traj=4, base_seed=9)
        ref = stroboscopic_evolve(thermal_state(FIG), cycle_map(FIG, TAU, 10.0), 1000, 250)
        from springkick import state_metrics

        ref_sm = np.array([state_metrics(v).sigma_min for _, v in ref])
        assert np.array_equal(stats.sigma_min_mean, ref_sm)
        assert np.all(stats.sigma_min_std == 0.0)

    def test_single_trajectory_has_zero_std(self):
        stats = run_ensemble(FIG, TAU, NOISE, 400, 100, n_traj=1, base_seed=88)
        assert np.all(stats.sigma_min_std == 0.0)
        assert np.all(stats.squeezing_db_std == 0.0)

    def test_noise_effect_shrinks_with_variance(self):
        # common base seed: smaller theta variance pulls every trajectory
        # toward the deterministic path
        ref = stroboscopic_evolve(thermal_state(FIG), cycle_map(FIG, TAU, 10.0), 2000, 500)
        ref_arr = np.array([[v.sigma_q, v.sigma_qp, v.sigma_p] for _, v in ref])[1:]
        devs = []
        for var in (1e-3, 1e-5, 1e-7):
            noise = KickNoiseModel(mean_theta=10.0, variance=var)
            traj = run_trajectory(FIG, TAU, noise, 2000, 500, seed=4242)
            devs.append(np.max(np.abs(moments_of(traj)[1:] - ref_arr) / np.abs(ref_arr)))
        assert devs[0] > devs[1] > devs[2]

    def test_small_run_reaches_squeezing(self):
        stats = run_ensemble(FIG, TAU, NOISE, 400_000, 4000, n_traj=8, base_seed=12345)
        assert stats.squeezing_db_of_mean[-1] < 0.0
        assert stats.squeezing_db_mean[-1] < 0.0

    def test_sampler_moments(self):
        # one trajectory's theta stream, recovered via the public seed path
        rng = np.random.default_rng(trajectory_seed(202, 0))
        draws = rng.normal(NOISE.mean_theta, NOISE.std, size=1_000_000)
        assert abs(float(np.mean(draws)) - 10.0) < 4e-4
        assert abs(float(np.var(draws)) - 1e-3) / 1e-3 < 0.05


class TestTailMean:
    def _stats(self, kick_indices, sigma_min_mean):
        n = len(kick_indices)
        z = np.zeros(n)
        sm = np.asarray(sigma_min_mean, dtype=float)
        return EnsembleStats(
            n_traj=2,
            kick_indices=np.asarray(kick_indices),
            sigma_min_mean=sm,
            sigma_min_std=z,
            squeezing_db_of_mean=10 * np.log10(2 * sm),
            squeezing_db_mean=10 * np.log10(2 * sm),
            squeezing_db_std=z,
            phi_min_mean=z,
            phi_min_std=z,
            purity_mean=np.ones(n),
            purity_std=z,
            entropy_mean=z,
            entropy_std=z,
            n_eff_mean=z,
            n_eff_std=z,
            trajectory0=TrajectoryResult_stub(),
        )

    def test_tail_window_selection(self):
        # last 10% of kick indices: for indices 0..1000 step 100 that is
        # strictly above 900, i.e. the final row only
        stats = self._stats(range(0, 1001, 100), np.linspace(0.5, 0.05, 11))
        out = steady_tail_mean(stats, fraction=0.1)
        assert out["sigma_min_mean"] == pytest.approx(0.05)
        out = steady_tail_mean(stats, fraction=0.5)
        assert out["sigma_min_mean"] == pytest.approx(
            float(np.mean(np.linspace(0.5, 0.05, 11)[6:]))
        )

    def test_db_of_mean_consistency(self):
        stats = self._stats(range(0, 1001, 100), np.full(11, 0.25))
        out = steady_tail_mean(stats)
        assert out["squeezing_db_of_mean"] == pytest.approx(
            10 * math.log10(0.5), rel=1e-12
        )

    def test_bad_fraction_rejected(self):
        stats = self._stats([0, 10], [0.5, 0.4])
        with pytest.raises(ValueError, match="fraction"):
            steady_tail_mean(stats, fraction=0.0)


def TrajectoryResult_stub():
    from springkick import MomentVector, TrajectoryResult, state_metrics

    v = MomentVector(0.5, 0.0, 0.5)
    return TrajectoryResult(seed=0, samples=[(0, v, state_metrics(v))])


class TestNoiseModel:
    def test_std(self):
        assert KickNoiseModel(10.0, 0.0025).std == 0.05

    def test_validation(self):
        with pytest.raises(ValueError, match="variance"):
            KickNoiseModel(10.0, -1e-3)
        with pytest.raises(ValueError, match="mean_theta"):
            KickNoiseModel(math.nan, 1e-3)

    def test_run_guards(self):
        with pytest.raises(ValueError, match="n_traj"):
            run_ensemble(FIG, TAU, NOISE, 10, 5, n_traj=0, base_seed=1)
        with pytest.raises(ValueError, match="n_jobs"):
            run_ensemble(FIG, TAU, NOISE, 10, 5, n_traj=2, base_seed=1, n_jobs=0)
        for seed in (-1, 2**70):
            with pytest.raises(ValueError, match="base_seed must fit in u64"):
                run_ensemble(FIG, TAU, NOISE, 10, 5, n_traj=2, base_seed=seed)
        with pytest.raises(ValueError, match="stride"):
            run_trajectory(FIG, TAU, NOISE, 10, 0, seed=1)
        with pytest.raises(ValueError, match="n_kicks"):
            run_trajectory(FIG, TAU, NOISE, -1, 5, seed=1)
