"""Monte-Carlo robustness of the kicked squeezing against kick-strength noise.

Pulse-energy fluctuations make the kick strength vary from kick to kick; each
trajectory draws an independent theta per kick from a Gaussian.  One period
maps the covariance as Sigma -> T(theta) Sigma T(theta)^T + N, so a run of
kicks composes into one map Sigma -> P Sigma P^T + Q.  _run_block does not
step every kick at the ensemble's width: it cuts the run into segments of
at most SEGMENT kicks that end at every sample point and takes them a chunk
at a time.  Each chunk draws its own kicks, builds all its segments' (P, Q)
at once, across segments and trajectories, and then chains the segments.
The arithmetic is elementwise and the segments depend only on the kick
count and the stride, never on the width or the chunking, so each column
depends only on its own seed, and a single trajectory is column 0 of a
one-seed block.  T(theta), the segments' moment maps and the chain's row
sums come from the helpers that the deterministic evaluators use
(moments._shear, _congruence and _dot), so no product goes through a BLAS
kernel.

The composed rows are not the kick-by-kick iteration bit for bit, so a
zero-variance ensemble is not bitwise the deterministic run.
tests/test_ensemble.py checks them against a kick-by-kick lockstep loop over
the same draws (tests/oracles.py) and against a 30-digit replay of those
draws, which they match at least as closely as that loop does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import (
    CycleMap,
    MechanicalParams,
    MomentVector,
    StateMetrics,
    _check_finite,
    _check_physical,
    _congruence,
    _dot,
    _sample_indices,
    _shear,
    cycle_map,
    metric_arrays,
    # unused here; bound because bench/tracing.py patches it on this module
    state_metrics,  # noqa: F401
    thermal_state,
)

# Longest segment, in kicks.  Fixed, so that segment boundaries depend on
# neither the width nor anything but the sample points.
SEGMENT = 64
# Segments times trajectories per chunk: their maps are built at once, from
# the chunk's own draws.  Bounds the memory of a chunk, never its result:
# each segment's arithmetic is its own.  At fig3's width and stride (100,
# 100) a chunk is 102 segments, about 4,096 kicks.
_CHUNK = 10240
# Sampled rows times trajectories per block that _run_block hands on: the
# statistics are reduced a block at a time, so no array grows with the run
# times the width.  fig3's 201 x 100 rows at the benchmark's length are one
# block; full fig3 (10,001 x 100) is 16.
_BLOCK_CELLS = 65536
# Rows of _segment_maps' work buffer
_WORK_ROWS = 18
# (P, Q) of an empty segment: P00, P01, P10, P11, Q00, Q01, Q11
_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])[:, None, None]


@dataclass(frozen=True)
class KickNoiseModel:
    """Per-kick Gaussian noise on the kick strength."""

    mean_theta: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean_theta):
            raise ValueError(f"mean_theta must be finite, got {self.mean_theta}")
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    """One noisy run: its seed and its sampled states, as the columns of
    moments.Samples; samples builds the (kick, MomentVector, StateMetrics)
    triples."""

    seed: int
    kicks: np.ndarray
    moments: np.ndarray

    @property
    def samples(self) -> list[tuple[int, MomentVector, StateMetrics]]:
        metrics = zip(*(m.tolist() for m in metric_arrays(*self.moments.T)))
        return [
            (n, MomentVector(*v), StateMetrics(*m))
            for n, v, m in zip(self.kicks.tolist(), self.moments.tolist(), metrics)
        ]


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Cross-trajectory mean and std of every state metric at each sampled kick.

    mean and std are StateMetrics of arrays over kick_indices.  Two dB
    observables: squeezing_db_of_mean is the dB of the mean sigma_min
    (variances average; the default convention), and mean.squeezing_db is
    the mean of the per-trajectory dB values.  trajectory0 is the first
    trajectory's result, bit-identical to running it alone.
    """

    n_traj: int
    kick_indices: np.ndarray
    mean: StateMetrics
    std: StateMetrics
    trajectory0: TrajectoryResult

    @property
    def squeezing_db_of_mean(self) -> np.ndarray:
        return 10.0 * np.log10(2.0 * self.mean.sigma_min)


def trajectory_seed(base_seed: int, index: int) -> int:
    """Derived seed for one trajectory: 128 bits from (base_seed, index).

    Uses numpy's SeedSequence spawn-key hashing, so the value depends only on
    the pair, never on draw order or on which trajectories run together.
    """
    if not 0 <= base_seed < 2**64:
        raise ValueError(f"base_seed must fit in u64, got {base_seed}")
    if index < 0:
        raise ValueError(f"trajectory index must be >= 0, got {index}")
    words = np.random.SeedSequence(base_seed, spawn_key=(index,)).generate_state(4)
    out = 0
    for w in reversed(words):
        out = (out << 32) | int(w)
    return out


def _generator(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def run_trajectory(
    params: MechanicalParams,
    tau: float,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    seed: int,
) -> TrajectoryResult:
    """Iterate one noisy trajectory from the thermal state, sampling at stride.

    theta for each kick is drawn from Normal(mean_theta, sqrt(variance));
    negative draws are legal kicks.  The flight is fixed by (params,
    tau) and computed once.  It is column 0 of a one-seed _run_block, whose
    checks raise DivergenceError or _check_physical's errors, naming the
    first sampled kick at fault.
    """
    kicks = _sample_indices(n_kicks, stride)
    cycle = cycle_map(params, tau, noise.mean_theta)
    blocks = _run_block(cycle, thermal_state(params), noise, n_kicks, stride, [seed])
    return TrajectoryResult(seed, kicks, np.concatenate([b[:, 0] for b in blocks]))


def _run_block(
    cycle: CycleMap,
    v0: MomentVector,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    seeds: list[int],
):
    """Noisy evolution of a group of trajectories, one column per seed.

    Yields the sampled rows, one per kick of _sample_indices(n_kicks,
    stride), in order and in blocks of shape (rows, len(seeds), 3): each
    block _BLOCK_CELLS // len(seeds) rows (at least 1), the last 1 to that many.
    Kick n uses draw n - 1 of its seed's generator.  The run is cut into
    segments (_segment_ends), taken a chunk of at most _CHUNK // width
    segments at a time: each generator draws exactly the chunk's kicks,
    every segment's map is built at once (_segment_maps), and the segments
    are then chained in kick order, writing a row at each sample point.
    All arithmetic is elementwise and the segments depend on neither the
    width nor the chunking, so the column for seed s depends only on s.
    The rows of each chunk are checked as stroboscopic_evolve checks its
    blocks, across every trajectory, before any of them is yielded: first
    DivergenceError at the first sampled kick whose determinant float64 no
    longer holds (_check_finite), then _check_physical's errors, naming the
    first unphysical sampled kick.
    """
    kicks = _sample_indices(n_kicks, stride)
    width = len(seeds)
    gens = [_generator(s) for s in seeds]
    x = np.repeat(v0.as_array()[:, None], width, axis=1)
    per_chunk = max(1, min(_CHUNK // width, n_kicks))
    block = max(1, _BLOCK_CELLS // width)
    # a chunk samples at most per_chunk rows on top of a part-filled block
    rows = np.empty((min(block + per_chunk, len(kicks)), width, 3))
    rows[0] = x.T
    filled = 1
    work = np.empty((_WORK_ROWS, per_chunk, width))
    start = 0
    while start < n_kicks:
        # overflow is reported by the DivergenceError below, not by warnings;
        # the errstate ends before a block is yielded
        with np.errstate(over="ignore", invalid="ignore"):
            ends = _segment_ends(start, per_chunk, kicks)
            m = ends[-1] - start
            draws = np.empty((m, width))
            for i, g in enumerate(gens):
                draws[:, i] = g.normal(noise.mean_theta, noise.std, size=m)
            maps, lanes = _segment_maps(cycle, draws, np.subtract(ends, start), work)
            # so that two chunks' draws are never held at once
            del draws
            c0, c1, c2, const = maps
            first = filled
            for end, j in zip(ends, lanes):
                x = _dot((c0[:, j], c1[:, j], c2[:, j]), x) + const[:, j]
                if end == kicks[filled]:
                    rows[filled] = x.T
                    filled += 1
            done = rows[first:filled].transpose(2, 0, 1)
            _check_finite(kicks[first:filled], *done)
            _check_physical(*done, kicks[first:filled])
        start += m
        # a full block goes once a later row is sampled, so the last
        # block is never empty; kicks and rows drop what has gone
        while filled > block:
            yield rows[:block].copy()
            kicks = kicks[block:]
            filled -= block
            rows[:filled] = rows[block : block + filled]
    yield rows[:filled]


def _segment_ends(start: int, count: int, kicks: np.ndarray) -> list[int]:
    """Ends of the next count segments after kick start, fewer at the run's
    end kicks[-1].

    A segment ends at every multiple of SEGMENT and every sample point, so
    it holds at most SEGMENT kicks and never crosses a sample point.  The
    first count ends lie among the next count sample points and the next
    count multiples of SEGMENT, so nothing here grows with the run.
    """
    lo = np.searchsorted(kicks, start, side="right")
    ends = set(kicks[lo : lo + count].tolist())
    stop = min(start + count * SEGMENT, int(kicks[-1]))
    ends.update(range((start // SEGMENT + 1) * SEGMENT, stop + 1, SEGMENT))
    return sorted(ends)[:count]


def _segment_maps(cycle: CycleMap, draws: np.ndarray, ends, work: np.ndarray):
    """Moment-space maps of the consecutive segments of a chunk.

    The segments run from 0 to ends[0], ends[0] to ends[1], ... (offsets
    into draws, the chunk's thetas, one column per trajectory).  Over one
    segment the covariance evolves as Sigma -> P Sigma P^T + Q, with P the
    product of the kicks' T(theta) = F S(theta),
    S(theta) = [[1, 0], [-2 theta, 1]], and Q the
    noise it accumulates from N = v_inh as a 2x2.  (P, Q) are built kick by
    kick, every segment and trajectory at once, with T(theta) from
    moments._shear at the draws, as cycle_map forms it at mean theta; the
    segments are held longest first, so the ones still running are a
    prefix.  P's moment map comes from moments._congruence, so a one-kick
    segment at the draw theta is the cycle map's own period bit for bit.
    work is a (_WORK_ROWS, >= len(ends), width) buffer that the result
    lives in.
    Returns (maps, lanes): for segment i the new moments are
    c0 * sigma_q + c1 * sigma_qp + c2 * sigma_p + const, where c0, c1, c2
    and const are maps[0][:, j] ... maps[3][:, j] with j = lanes[i], each
    of shape (3, width).
    """
    bounds = np.array([0, *ends])
    order = np.argsort(bounds[:-1] - bounds[1:], kind="stable")
    first = bounds[:-1][order]
    length = (bounds[1:] - bounds[:-1])[order]
    running = np.searchsorted(-length, -np.arange(length[0]))
    F = cycle.F.tolist()
    n00, n01, n11 = cycle.v_inh.tolist()

    # rows 0-6 and 7-13 of work: (P00, P01, P10, P11, Q00, Q01, Q11) before
    # and after a kick, swapping each kick; rows 14-17: temporaries
    work = work[:, : len(length)]
    work[:7] = _IDENTITY
    mul, add = np.multiply, np.add
    for k, n in enumerate(running.tolist()):
        src, dst = (work[:7], work[7:14]) if k % 2 == 0 else (work[7:14], work[:7])
        p00, p01, p10, p11, u, v, w = src[:, :n]
        new = dst[:, :n]
        t0, t1, r0, r1 = work[14:, :n]
        np.take(draws, first[:n] + k, axis=0, out=t0, mode="clip")
        (a, b), (c, d) = _shear(F, t0)
        # P -> T P
        add(mul(a, p00, out=t0), mul(p10, b, out=t1), out=new[0])
        add(mul(a, p01, out=t0), mul(p11, b, out=t1), out=new[1])
        add(mul(c, p00, out=t0), mul(p10, d, out=t1), out=new[2])
        add(mul(c, p01, out=t0), mul(p11, d, out=t1), out=new[3])
        # Q -> T Q T^T + N, through the first and then the second row
        # (r0, r1) of T Q
        add(mul(a, u, out=r0), mul(v, b, out=t0), out=r0)
        add(mul(a, v, out=r1), mul(w, b, out=t0), out=r1)
        add(add(mul(r0, a, out=t0), mul(r1, b, out=t1), out=t0), n00, out=new[4])
        add(add(mul(r0, c, out=t0), mul(r1, d, out=t1), out=t0), n01, out=new[5])
        add(mul(c, u, out=r0), mul(v, d, out=t0), out=r0)
        add(mul(c, v, out=r1), mul(w, d, out=t0), out=r1)
        add(add(mul(r0, c, out=t0), mul(r1, d, out=t1), out=t0), n11, out=new[6])
    # a segment of odd length ends in rows 7-13
    odd = length % 2 == 1
    work[:7, odd] = work[7:14, odd]

    # moments -> P Sigma P^T + Q: _congruence's columns into rows 7-15; the
    # constant column is Q itself, rows 4-6
    p, q, r, s = work[:4]
    np.stack([x for column in zip(*_congruence(((p, q), (r, s)))) for x in column], out=work[7:16])
    maps = (work[7:10], work[10:13], work[13:16], work[4:7])
    return maps, np.argsort(order).tolist()


def run_ensemble(
    params: MechanicalParams,
    tau: float,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    n_traj: int,
    base_seed: int,
    n_jobs: int = 1,
) -> EnsembleStats:
    """Average the noisy stroboscopic dynamics over n_traj trajectories.

    Trajectory i uses trajectory_seed(base_seed, i); all run in one
    _run_block, whose blocks are reduced to the per-row mean and std as they
    come, so memory grows with the rows, not with rows times n_traj.
    Single-threaded: n_jobs is checked to be >= 1 for compatibility and
    otherwise ignored.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    kick_indices = _sample_indices(n_kicks, stride)

    cycle = cycle_map(params, tau, noise.mean_theta)
    v0 = thermal_state(params)
    seeds = [trajectory_seed(base_seed, i) for i in range(n_traj)]

    row0 = np.empty((len(kick_indices), 3))
    mean, std = np.empty((2, len(StateMetrics._fields), len(kick_indices)))
    part = slice(0, 0)
    for rows in _run_block(cycle, v0, noise, n_kicks, stride, seeds):
        part = slice(part.stop, part.stop + len(rows))
        row0[part] = rows[:, 0]
        for i, x in enumerate(metric_arrays(rows[:, :, 0], rows[:, :, 1], rows[:, :, 2])):
            mean[i, part] = np.mean(x, axis=1)
            std[i, part] = np.std(x, axis=1)
    return EnsembleStats(
        n_traj=n_traj,
        kick_indices=kick_indices,
        mean=StateMetrics._make(mean),
        std=StateMetrics._make(std),
        trajectory0=TrajectoryResult(seeds[0], kick_indices, row0),
    )


def steady_tail_mean(stats: EnsembleStats, fraction: float = 0.1) -> dict[str, float]:
    """Stationary-regime estimate: average the ensemble means over the last
    fraction of sampled kick indices (by kick count, not row count)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_final = int(stats.kick_indices[-1])
    cut = n_final - int(fraction * n_final)
    mask = stats.kick_indices > cut
    if not np.any(mask):
        mask = stats.kick_indices == n_final
    tail = StateMetrics._make(float(np.mean(x[mask])) for x in stats.mean)
    return {
        "sigma_min_mean": tail.sigma_min,
        "squeezing_db_of_mean": 10.0 * math.log10(2.0 * tail.sigma_min),
        "squeezing_db_mean": tail.squeezing_db,
        "purity_mean": tail.purity,
        "entropy_mean": tail.entropy,
        "n_eff_mean": tail.n_eff,
    }
