"""Monte-Carlo robustness of the kicked squeezing against kick-strength noise.

Pulse-energy fluctuations make the kick strength vary from kick to kick; each
trajectory draws an independent theta per kick from a Gaussian and iterates
the same per-period update as the deterministic run.  _run_block holds the
group's state as one (3, n) array and writes the update with the expression
structure of the scalar loop in moments.stroboscopic_evolve, the only other
copy, so a zero-variance ensemble is bit-identical to the deterministic
iteration; tests/test_ensemble.py::test_zero_variance_matches_deterministic_bitwise
ties the two together.  A single trajectory is column 0 of a one-seed block,
and each column depends only on its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import (
    CycleMap,
    DivergenceError,
    MechanicalParams,
    MomentVector,
    StateMetrics,
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
# Kicks whose 2 theta, 4 theta and 4 theta^2 are formed together: a whole
# block of them would hold three more block-sized arrays (about 10 MB at
# 100 trajectories).
THETA_ROWS = 64


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
    """One noisy run: its seed and the sampled states with their metrics."""

    seed: int
    samples: list[tuple[int, MomentVector, StateMetrics]]


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Cross-trajectory mean/std of every state metric at each sampled kick.

    squeezing_db_of_mean applies the dB conversion to the linearly averaged
    minimum variance (variances average; the alternative per-trajectory dB
    average is kept alongside).  trajectory0 is the first trajectory's result,
    bit-identical to running it alone.
    """

    n_traj: int
    kick_indices: np.ndarray
    sigma_min_mean: np.ndarray
    sigma_min_std: np.ndarray
    squeezing_db_of_mean: np.ndarray
    squeezing_db_mean: np.ndarray
    squeezing_db_std: np.ndarray
    phi_min_mean: np.ndarray
    phi_min_std: np.ndarray
    purity_mean: np.ndarray
    purity_std: np.ndarray
    entropy_mean: np.ndarray
    entropy_std: np.ndarray
    n_eff_mean: np.ndarray
    n_eff_std: np.ndarray
    trajectory0: TrajectoryResult


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
    DivergenceError when a sampled state stops being finite.
    """
    kicks = _sample_indices(n_kicks, stride)
    cycle = cycle_map(params, tau, noise.mean_theta)
    cube = _run_block(cycle, thermal_state(params), noise, n_kicks, stride, [seed])
    return _trajectory_result(seed, kicks, cube[:, 0])


def _trajectory_result(seed: int, kicks, column: np.ndarray) -> TrajectoryResult:
    """TrajectoryResult from one (n_samples, 3) column of a sampled cube."""
    metrics = zip(*(m.tolist() for m in metric_arrays(*column.T)))
    samples = [
        (int(n), MomentVector(*v), StateMetrics(*m))
        for n, v, m in zip(kicks, column.tolist(), metrics)
    ]
    return TrajectoryResult(seed=seed, samples=samples)


def _run_block(
    cycle: CycleMap,
    v0: MomentVector,
    noise: KickNoiseModel,
    n_kicks: int,
    stride: int,
    seeds: list[int],
) -> np.ndarray:
    """Lockstep evolution of a group of trajectories, one column per seed.

    Returns the sampled cube with shape (n_samples, len(seeds), 3), one row
    per kick of _sample_indices(n_kicks, stride).  The column for seed s
    depends only on s: its own generator and block-buffered draws, and
    per-element arithmetic with the expression structure of
    moments.stroboscopic_evolve.
    """
    kicks = _sample_indices(n_kicks, stride)
    # M's columns as (3, 1) arrays: row r of c0*q + c1*qp_k + c2*p_k + b is
    # m_r0*q + m_r1*qp_k + m_r2*p_k + b_r, the scalar loop's sum in its order
    c0, c1, c2 = np.hsplit(cycle.propagator.M, 3)
    b = cycle.propagator.v_inh[:, None]

    gens = [_generator(s) for s in seeds]
    mean = noise.mean_theta
    std = noise.std

    x = np.repeat(v0.as_array()[:, None], len(seeds), axis=1)
    cube = np.empty((len(kicks), len(seeds), 3))
    cube[0] = x.T
    row = 1

    blk = np.empty((RNG_BLOCK, len(seeds)))
    n = 0
    while n < n_kicks:
        for i, g in enumerate(gens):
            blk[:, i] = g.normal(mean, std, size=RNG_BLOCK)
        used = blk[: n_kicks - n]
        for j in range(0, len(used), THETA_ROWS):
            th = used[j : j + THETA_ROWS]
            t4s = 4.0 * th
            for t2, t4, t4sq in zip(2.0 * th, t4s, t4s * th):
                q, qp, p = x
                qp_k = qp - t2 * q
                p_k = p - t4 * qp + t4sq * q
                x = c0 * q + c1 * qp_k + c2 * p_k + b
                n += 1
                if n == kicks[row]:
                    if not np.isfinite(x).all():
                        raise DivergenceError(
                            f"moments diverged (non-finite) at kick {n}"
                        )
                    cube[row] = x.T
                    row += 1
    return cube


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

    Trajectory i uses trajectory_seed(base_seed, i); all run in one lockstep
    block, aggregated in index order.  Single-threaded: n_jobs is checked to
    be >= 1 for compatibility and otherwise ignored.
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

    sigma_min, phi_min, squeezing_db, purity, entropy, n_eff = metric_arrays(
        cube[:, :, 0], cube[:, :, 1], cube[:, :, 2]
    )

    def stats(x):
        return np.mean(x, axis=1), np.std(x, axis=1)

    sm_mean, sm_std = stats(sigma_min)
    db_mean, db_std = stats(squeezing_db)
    phi_mean, phi_std = stats(phi_min)
    pur_mean, pur_std = stats(purity)
    ent_mean, ent_std = stats(entropy)
    neff_mean, neff_std = stats(n_eff)

    return EnsembleStats(
        n_traj=n_traj,
        kick_indices=kick_indices,
        sigma_min_mean=sm_mean,
        sigma_min_std=sm_std,
        squeezing_db_of_mean=10.0 * np.log10(2.0 * sm_mean),
        squeezing_db_mean=db_mean,
        squeezing_db_std=db_std,
        phi_min_mean=phi_mean,
        phi_min_std=phi_std,
        purity_mean=pur_mean,
        purity_std=pur_std,
        entropy_mean=ent_mean,
        entropy_std=ent_std,
        n_eff_mean=neff_mean,
        n_eff_std=neff_std,
        trajectory0=_trajectory_result(seeds[0], kick_indices, cube[:, 0]),
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
    sm = float(np.mean(stats.sigma_min_mean[mask]))
    return {
        "sigma_min_mean": sm,
        "squeezing_db_of_mean": 10.0 * math.log10(2.0 * sm),
        "squeezing_db_mean": float(np.mean(stats.squeezing_db_mean[mask])),
        "purity_mean": float(np.mean(stats.purity_mean[mask])),
        "entropy_mean": float(np.mean(stats.entropy_mean[mask])),
        "n_eff_mean": float(np.mean(stats.n_eff_mean[mask])),
    }
