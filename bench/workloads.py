"""Workload inputs, generated from the benchmark seed.

Every input a run feeds to springkick is a pure function of (workload, seed),
so two runs with the same seed do the same work.  The program only ever sees
the generated CLI arguments, INI files and library call arguments.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("deterministic", "ensemble", "ensemble-wide", "sweep")

# The presets fig1/fig2/fig3 share these physics (springkick.runner).
FIG_OMEGA = 5e5
FIG_GAMMA = 1e2
FIG_TAU = 1e-7
FIG_THETA = 10.0
FIG_VARIANCE = 1e-3
FIG_NBAR = {"fig1": 10.0, "fig2": 200.0, "fig3": 10.0}

DET_KICKS = 1_000_000
STRIDE = 100

# fig3 through the CLI: width 100, as the preset runs it, shortened.
ENS_KICKS = 20_000
ENS_WIDTH = 100
# The library call at width 1000 on two threads.
WIDE_KICKS = 5_000
WIDE_WIDTH = 1000
WIDE_JOBS = 2

SWEEP_KICKS = 10_000
SWEEP_INTRA = 33

# Model faults kept in the sweep on purpose: near tau = k*pi/omega_m the cycle
# matrix is almost a Jordan block and the float64 eigvals/solve lose their
# digits (ROADMAP item 3).  These points count as failed operations.
RESONANCE = dict(omega_m=1e3, gamma_m=1.532e-3, n_bar=0.0, theta=2.0)

# Cavity and membrane of the README's physical example.
CAVITY = dict(cavity_length=1e-4, kappa_0=1e8, wavelength=1.55e-6)
MEMBRANE = dict(mass=2.5e-12, reflectivity=0.2)


def base_seed(seed: int) -> int:
    """Ensemble base seed handed to springkick (must fit in u64)."""
    return seed % 2**64


def _jitter(rng: random.Random, x: float) -> float:
    # +-10% log-uniform, so the grid keeps its shape and its cost on every seed
    return x * math.exp(rng.uniform(-0.1, 0.1))


def sweep_points(seed: int) -> list[dict]:
    """The sweep's configurations, in run order.

    27 direct-theta points on a jittered n_bar x tau x theta grid, 4 physical
    pulse points (rectangular and gaussian), and the 3 resonance points that
    do not depend on the seed.  The grid keeps to stationary states with
    det >= 0.45 at every jitter corner: at n_bar <= 5, or theta >= 3 with
    tau = 5e-8, the map's fixed point falls below the uncertainty floor,
    where the instantaneous-kick model stops being valid.
    """
    rng = random.Random(f"sweep:{seed}")
    points = []
    for n_bar in (10.0, 30.0, 100.0):
        for tau in (5e-8, 1e-7, 2e-7):
            for theta in (0.5, 1.0, 2.0):
                points.append(
                    dict(
                        name=f"p{len(points):02d}",
                        omega_m=FIG_OMEGA,
                        gamma_m=FIG_GAMMA,
                        n_bar=_jitter(rng, n_bar),
                        tau=_jitter(rng, tau),
                        kick=dict(theta=_jitter(rng, theta)),
                        expect_fault=False,
                    )
                )
    for shape in ("rectangular", "gaussian"):
        for tau_p in (1e-10, 3e-10):
            tau_p = _jitter(rng, tau_p)
            # theta grows like P tau_p^2 for tau_p << 1/kappa; aim at theta ~ 2
            power = _jitter(rng, 1.5e3 * (1e-10 / tau_p) ** 2)
            points.append(
                dict(
                    name=f"p{len(points):02d}",
                    omega_m=FIG_OMEGA,
                    gamma_m=FIG_GAMMA,
                    n_bar=_jitter(rng, 10.0),
                    tau=FIG_TAU,
                    kick=dict(
                        shape=shape,
                        pulse_duration=tau_p,
                        peak_power=power,
                        **CAVITY,
                        **MEMBRANE,
                    ),
                    expect_fault=False,
                )
            )
    for k in (1, 2, 3):
        points.append(
            dict(
                name=f"res{k}",
                omega_m=RESONANCE["omega_m"],
                gamma_m=RESONANCE["gamma_m"],
                n_bar=RESONANCE["n_bar"],
                tau=k * math.pi / RESONANCE["omega_m"],
                kick=dict(theta=RESONANCE["theta"]),
                expect_fault=True,
            )
        )
    return points


def config_text(point: dict) -> str:
    """INI text of one sweep point; floats in repr so they parse back exactly."""

    def fmt(v):
        return v if isinstance(v, str) else repr(v)

    lines = [
        "[mechanical]",
        f"omega_m = {point['omega_m']!r}",
        f"gamma_m = {point['gamma_m']!r}",
        f"n_bar = {point['n_bar']!r}",
        "[kick]",
    ]
    lines += [f"{k} = {fmt(v)}" for k, v in point["kick"].items()]
    lines += [
        "[schedule]",
        f"tau = {point['tau']!r}",
        f"n_kicks = {SWEEP_KICKS}",
        f"stride = {STRIDE}",
        f"intra_samples = {SWEEP_INTRA}",
    ]
    return "\n".join(lines) + "\n"


def operations_per_round(workload: str) -> int:
    if workload == "deterministic":
        return 2
    if workload == "sweep":
        return len(sweep_points(0))
    return 1
