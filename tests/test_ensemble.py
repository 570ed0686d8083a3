"""Noisy-kick Monte Carlo: seeding, the composed path against the lockstep
oracle, the scalar loop and a 30-digit replay, aggregation."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import _iterate, _unpack_cycle, lockstep_run_block, mp_noisy_states, row_error
from springkick import (
    DivergenceError,
    EnsembleStats,
    KickNoiseModel,
    MechanicalParams,
    StateMetrics,
    UnphysicalStateError,
    cycle_map,
    metric_arrays,
    run_ensemble,
    run_trajectory,
    steady_tail_mean,
    stroboscopic_evolve,
    thermal_state,
    trajectory_seed,
)
from springkick import ensemble
from springkick.ensemble import _run_block
from springkick.moments import _congruence

FIG = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
TAU = 1e-7
NOISE = KickNoiseModel(mean_theta=10.0, variance=1e-3)


def run_cube(*args):
    """_run_block's blocks joined into the sampled (rows, width, 3) cube."""
    return np.concatenate(list(_run_block(*args)))


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
        # ties the lockstep oracle to the scalar loop: with no noise every
        # float operation of oracles.lockstep_run_block must land on the same
        # bits as moments._iterate
        quiet = KickNoiseModel(mean_theta=10.0, variance=0.0)
        traj = run_trajectory(FIG, TAU, quiet, 3000, 250, seed=99)
        cyc = cycle_map(FIG, TAU, 10.0)
        ref = _iterate(thermal_state(FIG), cyc, 3000, 250)
        assert [n for n, _, _ in traj.samples] == [n for n, _ in ref]
        ref_arr = np.array([[v.sigma_q, v.sigma_qp, v.sigma_p] for _, v in ref])
        cube = lockstep_run_block(cyc, thermal_state(FIG), quiet, 3000, 250, [99])
        assert np.array_equal(cube[:, 0], ref_arr)

    def test_noisy_draws_map_to_kicks_bitwise(self):
        # pins which draw drives which kick in the lockstep oracle, at a
        # stride that divides neither SEGMENT nor the run
        n_kicks, stride = 4101, 7
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        v0 = thermal_state(FIG)
        for seeds in ([11], [11, 12, 13]):
            cube = lockstep_run_block(cyc, v0, NOISE, n_kicks, stride, seeds)
            for i, seed in enumerate(seeds):
                ref = scalar_noisy_run(cyc, v0, n_kicks, stride, seed)
                assert np.array_equal(cube[:, i], ref), (len(seeds), i)

    def test_sampling_includes_start_and_end(self):
        traj = run_trajectory(FIG, TAU, NOISE, 1050, 500, seed=3)
        assert [n for n, _, _ in traj.samples] == [0, 500, 1000, 1050]

    def test_unphysical_samples_raise_when_run(self):
        # kicks of theta ~ 20 push the sampled determinant down to 0.218;
        # the run itself must say so, and name its first such sample, not
        # only a later read of its samples
        noise = KickNoiseModel(20.0, 1e-3)
        with pytest.raises(UnphysicalStateError, match="< 1/4 at kick 900000$"):
            run_trajectory(FIG, TAU, noise, 1_000_000, 100_000, trajectory_seed(1, 0))

    def test_unphysical_samples_raise_in_the_ensemble(self):
        # the same draws as trajectory 0 of a two-trajectory ensemble: the
        # ensemble checks each chunk's rows across every trajectory and names
        # the first such sample, where it used to report only the smallest
        # determinant of the whole cube, 0.1778, with no kick
        noise = KickNoiseModel(20.0, 1e-3)
        with pytest.raises(UnphysicalStateError, match="< 1/4 at kick 900000$"):
            run_ensemble(FIG, TAU, noise, 1_000_000, 100_000, n_traj=2, base_seed=1)


def seed_draws(seed, n):
    """The first n draws of a trajectory's stream, in one call."""
    return np.random.default_rng(seed).normal(NOISE.mean_theta, NOISE.std, size=n)


def scalar_noisy_run(cyc, v0, n_kicks, stride, seed, skip_from=None):
    """One noisy trajectory, kick by kick on Python floats: kick n uses draw
    n - 1 of the seed's stream (seed_draws).  With skip_from,
    kicks from that one on use the draw after their own: a one-draw
    misalignment."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22, b0, b1, b2 = _unpack_cycle(cyc)
    draws = seed_draws(seed, n_kicks + 1).tolist()
    q, qp, p = v0.sigma_q, v0.sigma_qp, v0.sigma_p
    rows = [(q, qp, p)]
    for n in range(n_kicks):
        th = draws[n + 1 if skip_from is not None and n + 1 >= skip_from else n]
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


def rel_diff(a, b) -> float:
    """Largest relative difference of two sampled (rows, 3) arrays against b,
    sigma_qp measured against sqrt(sigma_q sigma_p) as row_error does."""
    q, p = b[:, 0], b[:, 2]
    scale = np.stack([np.abs(q), np.sqrt(q * p), np.abs(p)], axis=-1)
    return float(np.max(np.abs(a - b) / scale))


# The composed path against a kick-by-kick loop over the same draws.  Both
# round differently, by up to 8.2e-11 at 4101 kicks (seeds 11-13).  A
# one-draw misalignment moves the rows by 6.1e-5 (seed 11, last kick alone)
# to 2.4e-2 (seed 12, from kick 4097 on); the test measures it.
DRAW_MAP_BOUND = 1e-9
# Property bound against the lockstep oracle, up to 12,288 kicks:
# the examples below differ by at most 1.1e-10.  The oracle alone drifts
# from 30 digits by 8.7e-11 over 4101 kicks (base seed 12345).
ORACLE_BOUND = 1e-9


class TestComposed:
    """ensemble._run_block composes segment maps; kick-by-kick loops over the
    same draws and a 30-digit replay of them pin it."""

    def test_rows_no_further_from_mpmath_than_lockstep(self):
        # trajectory 0's own draws replayed at 30 digits: 2e4 kicks measured
        # 1.3e-11 composed against 4.7e-10 lockstep (base seed 12345), and
        # 6.6e-12 against 1.2e-10 (base seed 7)
        n_kicks, stride = 20_000, 1000
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        v0 = thermal_state(FIG)
        for base in (12345, 7):
            seed = trajectory_seed(base, 0)
            ref = mp_noisy_states(
                FIG.omega_m, FIG.gamma_m, FIG.n_bar, TAU, seed_draws(seed, n_kicks),
                v0.as_array(), list(range(0, n_kicks + 1, stride)),
            )
            composed = run_cube(cyc, v0, NOISE, n_kicks, stride, [seed])[:, 0]
            lockstep = lockstep_run_block(cyc, v0, NOISE, n_kicks, stride, [seed])[:, 0]
            worst = max(row_error(r, x) for r, x in zip(composed, ref))
            worst_lockstep = max(row_error(r, x) for r, x in zip(lockstep, ref))
            assert worst <= worst_lockstep, (base, worst, worst_lockstep)

    @pytest.mark.parametrize(
        "params, tau, theta",
        [
            (FIG, TAU, 10.0),
            (FIG, TAU, -3.7),
            (MechanicalParams(1e3, 1.532e-3, 0.0), math.pi / 1e3, 2.0),
            (MechanicalParams(1e3, 3e3, 5.0), 1e-3, 1.0),
        ],
        ids=["fig1", "negative", "res1", "overdamped"],
    )
    def test_one_kick_segment_is_the_period_map(self, params, tau, theta):
        # T(theta) of a segment comes from the _shear that cycle_map forms T
        # with, and its moment map from the same _congruence: a one-kick
        # segment at the draw theta = cycle.theta is the cycle's period bit
        # for bit, on every trajectory
        cyc = cycle_map(params, tau, theta)
        draws = np.full((1, 3), theta)
        work = np.empty((ensemble._WORK_ROWS, 1, 3))
        (c0, c1, c2, const), [j] = ensemble._segment_maps(cyc, draws, [1], work)
        for i in range(3):
            got = np.column_stack([c0[:, j, i], c1[:, j, i], c2[:, j, i]])
            assert np.array_equal(got, np.array(_congruence(cyc.T.tolist()))), i
            assert np.array_equal(const[:, j, i], cyc.v_inh), i

    def test_draws_map_to_kicks(self, monkeypatch):
        # which draw drives which kick across chunk boundaries (192 and 64
        # segments a chunk at widths 1 and 3), at a stride that divides
        # neither SEGMENT nor the run
        monkeypatch.setattr(ensemble, "_CHUNK", 192)
        n_kicks, stride = 4101, 7
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        v0 = thermal_state(FIG)
        for seeds in ([11], [11, 12, 13]):
            cube = run_cube(cyc, v0, NOISE, n_kicks, stride, seeds)
            for i, seed in enumerate(seeds):
                ref = scalar_noisy_run(cyc, v0, n_kicks, stride, seed)
                assert rel_diff(cube[:, i], ref) <= DRAW_MAP_BOUND, (len(seeds), i)
        solo = run_trajectory(FIG, TAU, NOISE, n_kicks, stride, seed=11)
        ref = scalar_noisy_run(cyc, v0, n_kicks, stride, 11)
        assert rel_diff(moments_of(solo), ref) <= DRAW_MAP_BOUND
        # a one-draw misalignment from kick 4097 on, or at the last kick
        # alone, moves the rows far beyond the bound
        for skip_from in (4097, n_kicks):
            shifted = scalar_noisy_run(cyc, v0, n_kicks, stride, 11, skip_from)
            assert rel_diff(shifted, ref) > 10 * DRAW_MAP_BOUND, skip_from

    @pytest.mark.parametrize("stride", [1, 7, 100, 5000])
    def test_columns_independent_of_width(self, stride, monkeypatch):
        # column i of a block is bitwise the one-seed run of seed i, also when
        # the segment maps are built a few segments at a time
        n_kicks = 4173
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        v0 = thermal_state(FIG)
        seeds = [21, 22, 23, 24, 25]
        wide = run_cube(cyc, v0, NOISE, n_kicks, stride, seeds)
        monkeypatch.setattr(ensemble, "_CHUNK", 7)
        assert np.array_equal(run_cube(cyc, v0, NOISE, n_kicks, stride, seeds), wide)
        for i, seed in enumerate(seeds):
            solo = run_cube(cyc, v0, NOISE, n_kicks, stride, [seed])
            assert np.array_equal(solo[:, 0], wide[:, i]), seed

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n_kicks=st.integers(0, 12_288),
        stride=st.integers(1, 12_298),
        width=st.integers(1, 5),
        chunk=st.sampled_from([1, 7, 64, ensemble._CHUNK]),
        variance=st.sampled_from([0.0, 1e-6, 1e-3]),
        base=st.integers(0, 2**32 - 1),
    )
    @example(n_kicks=0, stride=1, width=2, chunk=7, variance=1e-3, base=1)
    @example(n_kicks=1, stride=1, width=2, chunk=7, variance=1e-3, base=1)
    # one segment short of a chunk, a whole chunk, and one segment past it
    @example(n_kicks=63, stride=1, width=1, chunk=64, variance=1e-3, base=1)
    @example(n_kicks=64, stride=1, width=1, chunk=64, variance=1e-3, base=1)
    @example(n_kicks=65, stride=1, width=1, chunk=64, variance=1e-3, base=1)
    # segments of SEGMENT kicks only: chunks end at kicks 2048 and 4096
    @example(n_kicks=4101, stride=4102, width=2, chunk=64, variance=1e-3, base=1)
    # one segment a chunk, at a stride that divides neither SEGMENT nor the run
    @example(n_kicks=200, stride=7, width=5, chunk=1, variance=1e-3, base=1)
    # 4101 segments against 3413 a chunk
    @example(n_kicks=4101, stride=1, width=3, chunk=ensemble._CHUNK, variance=1e-3, base=1)
    @example(n_kicks=50, stride=51, width=1, chunk=ensemble._CHUNK, variance=1e-3, base=2)
    def test_matches_lockstep_oracle(self, n_kicks, stride, width, chunk, variance, base):
        noise = KickNoiseModel(mean_theta=10.0, variance=variance)
        cyc = cycle_map(FIG, TAU, noise.mean_theta)
        v0 = thermal_state(FIG)
        seeds = [trajectory_seed(base, i) for i in range(width)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "_CHUNK", chunk)
            composed = run_cube(cyc, v0, noise, n_kicks, stride, seeds)
        lockstep = lockstep_run_block(cyc, v0, noise, n_kicks, stride, seeds)
        assert composed.shape == lockstep.shape
        for i in range(width):
            assert rel_diff(composed[:, i], lockstep[:, i]) <= ORACLE_BOUND

    @pytest.mark.parametrize(
        "n_kicks, stride, width, chunk",
        [(0, 1, 2, None), (1, 1, 1, None), (4101, 7, 1, None), (4101, 1, 3, None),
         (4101, 7, 3, 7), (20_000, 100, 100, None)],
    )
    def test_each_trajectory_draws_n_kicks(self, n_kicks, stride, width, chunk, monkeypatch):
        # each generator draws exactly the run's kicks, across every chunk,
        # and no draw past the end
        counts = []
        make = ensemble._generator

        class Counting:
            def __init__(self, seed):
                self.g = make(seed)
                self.n = 0
                counts.append(self)

            def normal(self, loc, scale, size):
                self.n += size
                return self.g.normal(loc, scale, size)

        if chunk is not None:
            monkeypatch.setattr(ensemble, "_CHUNK", chunk)
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        seeds = [trajectory_seed(3, i) for i in range(width)]
        ref = run_cube(cyc, thermal_state(FIG), NOISE, n_kicks, stride, seeds)
        monkeypatch.setattr(ensemble, "_generator", Counting)
        cube = run_cube(cyc, thermal_state(FIG), NOISE, n_kicks, stride, seeds)
        assert np.array_equal(cube, ref)
        assert [c.n for c in counts] == [n_kicks] * width

    def test_divergence_names_the_kick(self):
        # the scalar loop's per-sample determinant test: at n_bar = 1e153 the
        # moments stay finite while sigma_q*sigma_p overflows from kick 200
        hot = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=1e153)
        with pytest.raises(DivergenceError, match="out of float64 range\\) at kick 200:"):
            stroboscopic_evolve(thermal_state(hot), cycle_map(hot, TAU, 10.0), 2000, 100)
        with pytest.raises(DivergenceError, match="out of float64 range\\) at kick 200:"):
            run_trajectory(hot, TAU, NOISE, 2000, 100, seed=3)
        with pytest.raises(DivergenceError, match="out of float64 range\\) at kick 200:"):
            run_ensemble(hot, TAU, NOISE, 2000, 100, n_traj=4, base_seed=3)


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
        assert np.array_equal(a.mean + a.std, b.mean + b.std)

    def test_runs_without_threads(self, monkeypatch):
        # n_jobs is accepted and ignored: no thread is started for any value
        def refuse(self):
            raise RuntimeError("run_ensemble started a thread")

        kw = dict(n_kicks=800, stride=200, n_traj=7, base_seed=31)
        a = run_ensemble(FIG, TAU, NOISE, n_jobs=1, **kw)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        b = run_ensemble(FIG, TAU, NOISE, n_jobs=4, **kw)
        assert np.array_equal(a.kick_indices, b.kick_indices)
        assert np.array_equal(a.mean + a.std, b.mean + b.std)
        assert np.array_equal(moments_of(a.trajectory0), moments_of(b.trajectory0))

    def test_repeat_invocation_bitwise(self):
        kw = dict(n_kicks=600, stride=150, n_traj=4, base_seed=5)
        a = run_ensemble(FIG, TAU, NOISE, **kw)
        b = run_ensemble(FIG, TAU, NOISE, **kw)
        assert np.array_equal(a.mean + a.std, b.mean + b.std)

    def test_zero_variance_mean_equals_deterministic(self):
        # power-of-two trajectory count: pairwise summation of identical
        # columns is exact, so the lockstep oracle's mean, aggregated as
        # run_ensemble aggregates, is bitwise the deterministic value
        quiet = KickNoiseModel(mean_theta=10.0, variance=0.0)
        cyc = cycle_map(FIG, TAU, 10.0)
        seeds = [trajectory_seed(9, i) for i in range(4)]
        cube = lockstep_run_block(cyc, thermal_state(FIG), quiet, 1000, 250, seeds)
        sigma_min = metric_arrays(cube[:, :, 0], cube[:, :, 1], cube[:, :, 2]).sigma_min
        ref = _iterate(thermal_state(FIG), cyc, 1000, 250)
        from springkick import state_metrics

        ref_sm = np.array([state_metrics(v).sigma_min for _, v in ref])
        assert np.array_equal(np.mean(sigma_min, axis=1), ref_sm)
        assert np.all(np.std(sigma_min, axis=1) == 0.0)
        # the composed path's columns are identical too
        stats = run_ensemble(FIG, TAU, quiet, 1000, 250, n_traj=4, base_seed=9)
        assert np.all(stats.std.sigma_min == 0.0)

    def test_single_trajectory_has_zero_std(self):
        stats = run_ensemble(FIG, TAU, NOISE, 400, 100, n_traj=1, base_seed=88)
        assert np.all(stats.std.sigma_min == 0.0)
        assert np.all(stats.std.squeezing_db == 0.0)

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
        assert stats.mean.squeezing_db[-1] < 0.0

    def test_sampler_moments(self):
        # one trajectory's theta stream, recovered via the public seed path
        rng = np.random.default_rng(trajectory_seed(202, 0))
        draws = rng.normal(NOISE.mean_theta, NOISE.std, size=1_000_000)
        assert abs(float(np.mean(draws)) - 10.0) < 4e-4
        assert abs(float(np.var(draws)) - 1e-3) / 1e-3 < 0.05


def traced_peak(run):
    """tracemalloc's peak of the memory that run() allocates, in bytes."""
    outer = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


class TestBlocks:
    """run_ensemble reduces _run_block's rows a block at a time."""

    @pytest.mark.parametrize("cells", [1, 7 * 500, None], ids=["one-row", "mid-chunk", "default"])
    def test_statistics_independent_of_block(self, cells, monkeypatch):
        # mean, std and trajectory 0 bit for bit as reduced over the whole
        # sampled cube at once: with one row a block, with 500 rows a block
        # (a chunk at width 7 samples 1,462 rows at stride 1), and with the
        # default, one block for these 2,001 rows
        n_kicks, stride, seeds = 2000, 1, [trajectory_seed(9, i) for i in range(7)]
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        cube = run_cube(cyc, thermal_state(FIG), NOISE, n_kicks, stride, seeds)
        metrics = metric_arrays(cube[:, :, 0], cube[:, :, 1], cube[:, :, 2])
        if cells is not None:
            monkeypatch.setattr(ensemble, "_BLOCK_CELLS", cells)
        stats = run_ensemble(FIG, TAU, NOISE, n_kicks, stride, n_traj=7, base_seed=9)
        for got, x in zip(stats.mean, metrics):
            assert np.array_equal(got, np.mean(x, axis=1))
        for got, x in zip(stats.std, metrics):
            assert np.array_equal(got, np.std(x, axis=1))
        assert np.array_equal(stats.trajectory0.moments, cube[:, 0])

    def test_blocks_leave_the_errstate(self, monkeypatch):
        # the segment arithmetic ignores overflow; the caller, handed a
        # block, runs under its own errstate
        monkeypatch.setattr(ensemble, "_BLOCK_CELLS", 1)
        cyc = cycle_map(FIG, TAU, NOISE.mean_theta)
        errs = [np.geterr() for _ in _run_block(cyc, thermal_state(FIG), NOISE, 300, 100, [1])]
        assert errs == [np.geterr()] * 4

    def test_memory_bounded_by_the_block(self):
        # at width 20 and stride 1, four times the kicks cost little more
        # than the 128 bytes a row of the result holds: 12.8 -> 15.0 MB for
        # 4,000 -> 16,000 kicks, where reducing one (rows x width x 3) cube
        # took 10.9 -> 43.7 MB
        run = lambda n: run_ensemble(FIG, TAU, NOISE, n, 1, n_traj=20, base_seed=4)
        run(100)
        small = traced_peak(lambda: run(4000))
        large = traced_peak(lambda: run(16_000))
        assert large <= 1.25 * small, (small, large)


class TestTailMean:
    def _stats(self, kick_indices, sigma_min_mean):
        n = len(kick_indices)
        z = np.zeros(n)
        sm = np.asarray(sigma_min_mean, dtype=float)
        return EnsembleStats(
            n_traj=2,
            kick_indices=np.asarray(kick_indices),
            mean=StateMetrics(sm, z, 10 * np.log10(2 * sm), np.ones(n), z, z),
            std=StateMetrics(z, z, z, z, z, z),
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

    def test_keys_in_order_and_by_field(self):
        # bench/worker.py writes the tail out one key per line, in this order
        mean = StateMetrics(*(np.full(3, float(k)) for k in range(1, 7)))
        stats = EnsembleStats(2, np.array([0, 10, 20]), mean, mean, TrajectoryResult_stub())
        assert list(steady_tail_mean(stats).items()) == [
            ("sigma_min_mean", 1.0),
            ("squeezing_db_of_mean", 10.0 * math.log10(2.0)),
            ("squeezing_db_mean", 3.0),
            ("purity_mean", 4.0),
            ("entropy_mean", 5.0),
            ("n_eff_mean", 6.0),
        ]

    def test_bad_fraction_rejected(self):
        stats = self._stats([0, 10], [0.5, 0.4])
        with pytest.raises(ValueError, match="fraction"):
            steady_tail_mean(stats, fraction=0.0)


def TrajectoryResult_stub():
    from springkick import TrajectoryResult

    return TrajectoryResult(seed=0, kicks=np.array([0]), moments=np.array([[0.5, 0.0, 0.5]]))


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
