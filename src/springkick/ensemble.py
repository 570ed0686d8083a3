"""Monte-Carlo robustness of the kicked squeezing against kick-strength noise.

Pulse-energy fluctuations make the kick strength vary from kick to kick; each
trajectory draws an independent theta per kick from a Gaussian.  One period
maps the covariance as Sigma -> T(theta) Sigma T(theta)^T + N, so a run of
kicks composes into one map Sigma -> P Sigma P^T + Q.  _run_block does not
step every kick at the ensemble's width: it cuts each RNG block into
segments of at most SEGMENT kicks that end at every sample point, builds all
their (P, Q) at once, across segments and trajectories, and then chains the
segments.  The arithmetic is elementwise and the segments depend only on the
kick count and the stride, so each column depends only on its own seed, and
a single trajectory is column 0 of a one-seed block.

The composed rows are not the kick-by-kick iteration bit for bit, so a
zero-variance ensemble is not bitwise the deterministic run.
tests/test_ensemble.py checks them against a kick-by-kick lockstep loop over
the same draws (tests/oracles.py) and against a 30-digit replay of those
draws, which they match at least as closely as that loop does.
"""

from __future__ import annotations

import bisect
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
    _sample_indices,
    cycle_map,
    metric_arrays,
    # unused here; bound because bench/tracing.py patches it on this module
    state_metrics,  # noqa: F401
    thermal_state,
)

# Kicks per RNG block: one buffered draw per trajectory per block keeps
# generator call overhead negligible without holding the whole noise
# history in memory.
RNG_BLOCK = 4096
# Longest segment, in kicks; it divides RNG_BLOCK.  Fixed, so that segment
# boundaries depend on neither the width nor anything but the sample points.
SEGMENT = 64
# Segments times trajectories whose maps are built at once.  Bounds the
# memory of a build, never its result: each segment's arithmetic is its own.
_CHUNK = 12288
# Rows of _segment_maps' work buffer
_WORK_ROWS = 20
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
    negative draws are legal kicks.  The free propagator is fixed by (params,
    tau) and computed once.  It is column 0 of a one-seed _run_block.  Raises
    DivergenceError, naming the kick, when the determinant of a sampled
    state stops being finite, then _check_physical's errors.
    """
    kicks = np.array(_sample_indices(n_kicks, stride))
    cycle = cycle_map(params, tau, noise.mean_theta)
    moments = _run_block(cycle, thermal_state(params), noise, n_kicks, stride, [seed])[:, 0]
    _check_physical(*moments.T)
    return TrajectoryResult(seed, kicks, moments)


def _run_block(
    cycle: CycleMap,
    v0: MomentVector,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    seeds: list[int],
) -> np.ndarray:
    """Noisy evolution of a group of trajectories, one column per seed.

    Returns the sampled cube with shape (n_samples, len(seeds), 3), one row
    per kick of _sample_indices(n_kicks, stride).  Kick n uses draw n - 1 of
    its seed's generator, drawn RNG_BLOCK at a time.  Each RNG block is cut
    into segments (_segment_ends); every segment's map is built at once
    (_segment_maps) and the segments are then chained in kick order, writing
    a row at each sample point.  All arithmetic is elementwise and the
    segments do not depend on the width, so the column for seed s depends
    only on s.  Raises DivergenceError naming the first sampled kick whose
    determinant sigma_q*sigma_p - sigma_qp^2 is not finite.
    """
    kicks = _sample_indices(n_kicks, stride)
    width = len(seeds)
    gens = [_generator(s) for s in seeds]
    x = np.repeat(v0.as_array()[:, None], width, axis=1)
    cube = np.empty((len(kicks), width, 3))
    cube[0] = x.T
    row = 1
    blk = np.empty((RNG_BLOCK, width))
    per_chunk = max(1, min(_CHUNK // width, RNG_BLOCK, n_kicks))
    work = np.empty((_WORK_ROWS, per_chunk, width))
    # overflow is reported by the DivergenceError below, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n0 in range(0, n_kicks, RNG_BLOCK):
            for i, g in enumerate(gens):
                blk[:, i] = g.normal(noise.mean_theta, noise.std, size=RNG_BLOCK)
            ends = _segment_ends(n0, min(RNG_BLOCK, n_kicks - n0), kicks)
            for c in range(0, len(ends), per_chunk):
                start = ends[c - 1] if c else 0
                chunk = ends[c : c + per_chunk]
                maps, lanes = _segment_maps(cycle, blk, start, chunk, work)
                c0, c1, c2, const = maps
                first = row
                for end, j in zip(chunk, lanes):
                    q, qp, p = x
                    x = c0[:, j] * q + c1[:, j] * qp + c2[:, j] * p + const[:, j]
                    if n0 + end == kicks[row]:
                        cube[row] = x.T
                        row += 1
                _check_finite(kicks[first:row], *cube[first:row].transpose(2, 0, 1))
    return cube


def _segment_ends(n0: int, m: int, kicks: list[int]) -> list[int]:
    """Ends of the segments of the RNG block of kicks n0 + 1 .. n0 + m.

    Offsets into the block: every multiple of SEGMENT, every sample point
    and m.  So a segment holds at most SEGMENT kicks and never crosses a
    sample point or a block boundary.
    """
    lo, hi = bisect.bisect_right(kicks, n0), bisect.bisect_right(kicks, n0 + m)
    ends = {k - n0 for k in kicks[lo:hi]}
    ends.update(range(SEGMENT, m, SEGMENT))
    ends.add(m)
    return sorted(ends)


def _segment_maps(
    cycle: CycleMap, blk: np.ndarray, start: int, ends: list[int], work: np.ndarray
):
    """Moment-space maps of consecutive segments of an RNG block.

    The segments run from start to ends[0], ends[0] to ends[1], ... (offsets
    into blk).  Over one segment the covariance evolves as
    Sigma -> P Sigma P^T + Q, with P the product of the kicks'
    T(theta) = F S(theta), S(theta) = [[1, 0], [-2 theta, 1]], and Q the
    noise it accumulates from N = v_inh as a 2x2.  (P, Q) are built kick by
    kick, every segment and trajectory at once; the segments are held
    longest first, so the ones still running are a prefix.  work is a
    (_WORK_ROWS, >= len(ends), width) buffer that the result lives in.
    Returns (maps, lanes): for segment i the new moments are
    c0 * sigma_q + c1 * sigma_qp + c2 * sigma_p + const, where c0, c1, c2
    and const are maps[0][:, j] ... maps[3][:, j] with j = lanes[i], each
    of shape (3, width).
    """
    bounds = np.array([start, *ends])
    order = np.argsort(bounds[:-1] - bounds[1:], kind="stable")
    first = bounds[:-1][order]
    length = (bounds[1:] - bounds[:-1])[order]
    running = np.searchsorted(-length, -np.arange(length[0]))
    f00, f01, f10, f11 = cycle.propagator.F.ravel().tolist()
    n00, n01, n11 = cycle.propagator.v_inh.tolist()

    # rows 0-6 and 7-13 of work: (P00, P01, P10, P11, Q00, Q01, Q11) before
    # and after a kick, swapping each kick; rows 14-19: temporaries
    work = work[:, : len(length)]
    work[:7] = _IDENTITY
    mul, add = np.multiply, np.add
    for k, n in enumerate(running.tolist()):
        src, dst = (work[:7], work[7:14]) if k % 2 == 0 else (work[7:14], work[:7])
        p00, p01, p10, p11, u, v, w = src[:, :n]
        new = dst[:, :n]
        a, c, r0, r1, t0, t1 = work[14:, :n]
        # T = [[a, f01], [c, f11]] with a = f00 - 2 theta f01, c = f10 - 2 theta f11
        np.take(blk, first[:n] + k, axis=0, out=t0, mode="clip")
        np.subtract(f00, mul(t0, 2.0 * f01, out=a), out=a)
        np.subtract(f10, mul(t0, 2.0 * f11, out=c), out=c)
        # P -> T P
        add(mul(a, p00, out=t0), mul(p10, f01, out=t1), out=new[0])
        add(mul(a, p01, out=t0), mul(p11, f01, out=t1), out=new[1])
        add(mul(c, p00, out=t0), mul(p10, f11, out=t1), out=new[2])
        add(mul(c, p01, out=t0), mul(p11, f11, out=t1), out=new[3])
        # Q -> T Q T^T + N, through the first and then the second row
        # (r0, r1) of T Q
        add(mul(a, u, out=r0), mul(v, f01, out=t0), out=r0)
        add(mul(a, v, out=r1), mul(w, f01, out=t0), out=r1)
        add(add(mul(r0, a, out=t0), mul(r1, f01, out=t1), out=t0), n00, out=new[4])
        add(add(mul(r0, c, out=t0), mul(r1, f11, out=t1), out=t0), n01, out=new[5])
        add(mul(c, u, out=r0), mul(v, f11, out=t0), out=r0)
        add(mul(c, v, out=r1), mul(w, f11, out=t0), out=r1)
        add(add(mul(r0, c, out=t0), mul(r1, f11, out=t1), out=t0), n11, out=new[6])
    # a segment of odd length ends in rows 7-13
    odd = length % 2 == 1
    work[:7, odd] = work[7:14, odd]

    # moments (x, y, z) -> P [[x, y], [y, z]] P^T + Q, column by column,
    # into rows 7-15; the constant column is Q itself, rows 4-6
    p, q, r, s = work[:4]
    x0, y0, z0, x1, y1, z1, x2, y2, z2, t = work[7:17]
    mul(p, p, out=x0), mul(p, r, out=y0), mul(r, r, out=z0)
    mul(mul(p, q, out=x1), 2.0, out=x1)
    add(mul(p, s, out=y1), mul(q, r, out=t), out=y1)
    mul(mul(r, s, out=z1), 2.0, out=z1)
    mul(q, q, out=x2), mul(q, s, out=y2), mul(s, s, out=z2)
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
    _run_block, aggregated in index order.  Single-threaded: n_jobs is
    checked to be >= 1 for compatibility and otherwise ignored.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    kick_indices = np.array(_sample_indices(n_kicks, stride))

    cycle = cycle_map(params, tau, noise.mean_theta)
    v0 = thermal_state(params)
    seeds = [trajectory_seed(base_seed, i) for i in range(n_traj)]

    cube = _run_block(cycle, v0, noise, n_kicks, stride, seeds)

    metrics = metric_arrays(cube[:, :, 0], cube[:, :, 1], cube[:, :, 2])
    return EnsembleStats(
        n_traj=n_traj,
        kick_indices=kick_indices,
        mean=StateMetrics._make(np.mean(x, axis=1) for x in metrics),
        std=StateMetrics._make(np.std(x, axis=1) for x in metrics),
        trajectory0=TrajectoryResult(seeds[0], kick_indices, cube[:, 0].copy()),
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
