"""Acceptance gate: ten numbered release criteria, one pass/fail line each.

Each test evaluates one criterion exactly as stated and records a single
line; the lines are echoed together at the end of the pytest run (see the
terminal-summary hook in conftest.py).  Three of them currently fail and are
asserted anyway; the analysis lives in the project notes, not here.
"""

import math
import time

import numpy as np
import pytest

from oracles import _iterate, period_map, propagate, rk4_free
from springkick import (
    CavityParams,
    KickNoiseModel,
    MechanicalParams,
    MembraneParams,
    MomentVector,
    coupling_g2,
    cycle_map,
    run_ensemble,
    squeezing_onset,
    state_metrics,
    steady_state,
    steady_tail_mean,
    stroboscopic_evolve,
    thermal_state,
)

RESULTS: list[str] = []

FIG1 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
FIG2 = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=200.0)
TAU = 1e-7
THETA = 10.0


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)


def test_criterion_01_steady_squeezing_level():
    t0 = time.perf_counter()
    m = state_metrics(steady_state(cycle_map(FIG1, TAU, THETA)))
    elapsed = time.perf_counter() - t0
    ok = m.squeezing_db <= -13.0 and elapsed < 1.0
    record(1, ok, f"steady squeezing {m.squeezing_db:.4f} dB (<= -13.0), {elapsed:.3f} s")
    assert m.squeezing_db <= -13.0
    assert elapsed < 1.0


def test_criterion_02_hot_start_squeezing_level():
    m = state_metrics(steady_state(cycle_map(FIG2, TAU, THETA)))
    ok = abs(m.squeezing_db - (-0.8)) <= 0.2
    record(2, ok, f"hot-start steady squeezing {m.squeezing_db:.4f} dB (-0.8 +/- 0.2)")
    assert m.squeezing_db == pytest.approx(-0.8, abs=0.2)


def test_criterion_03_steady_purity_and_entropy():
    m = state_metrics(steady_state(cycle_map(FIG1, TAU, THETA)))
    ok = m.purity >= 0.9 and m.entropy <= 0.2
    record(3, ok, f"purity {m.purity:.4f} (>= 0.9), entropy {m.entropy:.4f} nats (<= 0.2)")
    assert m.purity >= 0.9
    assert m.entropy <= 0.2


def test_criterion_04_squeezing_onset_window():
    t0 = time.perf_counter()
    onset = squeezing_onset(thermal_state(FIG1), cycle_map(FIG1, TAU, THETA), 1_000_000)
    elapsed = time.perf_counter() - t0
    ok = onset is not None and 3e4 <= onset <= 3e5 and elapsed < 5.0
    record(4, ok, f"onset at kick {onset} (window [3e4, 3e5]), {elapsed:.2f} s")
    assert elapsed < 5.0
    assert onset is not None
    assert 3e4 <= onset <= 3e5


def test_criterion_05_optimal_phase():
    m = state_metrics(steady_state(cycle_map(FIG1, TAU, THETA)))
    v = steady_state(cycle_map(FIG1, TAU, THETA))
    target = -FIG1.omega_m * TAU / 8.0
    phase_ok = abs(m.phi_min - target) <= 0.25 * abs(target)
    gap = abs(m.sigma_min - v.sigma_q) / v.sigma_q
    gap_ok = gap <= 0.01
    record(
        5,
        phase_ok and gap_ok,
        f"phi_min {m.phi_min:.6f} rad (target {target:.6f} +/- 25%), "
        f"|sigma_min - sigma_q|/sigma_q = {gap:.4f} (<= 0.01)",
    )
    assert phase_ok
    assert gap_ok


def test_criterion_06_coupling_formula():
    cav = CavityParams(length_L=1e-4, kappa_0=1e8, wavelength=1.55e-6)
    mem = MembraneParams(mass=2.5e-12, reflectivity_R=0.2)
    g2 = coupling_g2(cav, mem, FIG1.omega_m)
    rel = abs(g2 - 0.8e-2) / 0.8e-2
    ok = rel < 0.05
    record(6, ok, f"g2 = {g2:.4e} s^-1 vs 0.8e-2 ({100 * rel:.1f}% off, < 5%)")
    assert rel < 0.05


def test_criterion_07_noise_robustness():
    t0 = time.perf_counter()
    noise = KickNoiseModel(mean_theta=10.0, variance=1e-3)
    stats = run_ensemble(
        FIG1, TAU, noise, n_kicks=1_000_000, stride=100, n_traj=100, base_seed=12345
    )
    tail = steady_tail_mean(stats, fraction=0.1)
    elapsed = time.perf_counter() - t0
    baseline = state_metrics(steady_state(cycle_map(FIG1, TAU, THETA))).squeezing_db
    db = tail["squeezing_db_of_mean"]
    within = abs(db - baseline) <= 3.0
    below = db < -10.0
    ok = within and below and elapsed < 120.0
    record(
        7,
        ok,
        f"ensemble tail squeezing {db:.3f} dB vs baseline {baseline:.3f} dB "
        f"(within 3 dB: {within}, < -10 dB: {below}); per-trajectory dB mean "
        f"{tail['squeezing_db_mean']:.3f} dB; {elapsed:.1f} s",
    )
    assert elapsed < 120.0
    assert within
    assert below


def test_criterion_08_free_propagator_oracle():
    v0 = thermal_state(FIG1)
    ref = rk4_free(
        FIG1.omega_m,
        FIG1.gamma_m,
        FIG1.n_bar,
        (v0.sigma_q, v0.sigma_qp, v0.sigma_p),
        2 * math.pi / FIG1.omega_m,
        10_000,
    )
    out = propagate(v0, FIG1, 2 * math.pi / FIG1.omega_m).as_array()
    worst = np.max(np.abs(out - ref)) / np.max(np.abs(ref))

    rng = np.random.default_rng(20240818)
    for _ in range(20):
        w = 10.0 ** rng.uniform(3.5, 6.5)
        g = w * 10.0 ** rng.uniform(-5, -1.5)
        nb = rng.uniform(0.0, 200.0)
        c = 0.5 + 10.0 ** rng.uniform(-2.0, 2.5)
        period = 2 * math.pi / w
        out = propagate(MomentVector(c, 0.0, c), MechanicalParams(w, g, nb), period).as_array()
        ref = rk4_free(w, g, nb, (c, 0.0, c), period, 10_000)
        worst = max(worst, np.max(np.abs(out - ref)) / np.max(np.abs(ref)))

    ok = worst < 1e-9
    record(8, ok, f"free propagator vs RK4: worst rel {worst:.2e} over 21 sets (<= 1e-9)")
    assert worst < 1e-9


def test_criterion_09_structural_invariants():
    # symplectic preservation, relative to the operand scale of the det
    # cancellation (sigma_q*sigma_p' + sigma_qp'^2)
    rng = np.random.default_rng(20240817)
    worst_symp = 0.0
    for theta in (-100.0, -1.0, 0.0, 0.5, 10.0, 100.0):
        n = 2000
        sq = 10.0 ** rng.uniform(-1.0, 1.3, n)
        sp = (0.25 / sq) * 10.0 ** rng.uniform(0.0, 1.3, n)
        qp = rng.uniform(-1.0, 1.0, n) * np.sqrt(np.maximum(sq * sp - 0.25, 0.0))
        det0 = sq * sp - qp * qp
        qp2 = qp - 2.0 * theta * sq
        sp2 = sp - 4.0 * theta * qp + 4.0 * theta * theta * sq
        det1 = sq * sp2 - qp2 * qp2
        scale = sq * sp2 + qp2 * qp2
        worst_symp = max(worst_symp, float(np.max(np.abs(det1 - det0) / scale)))
    symp_ok = worst_symp <= 1e-12

    # uncertainty bound along the full 1e6-kick runs, every kick, both setups
    min_det = math.inf
    for params in (FIG1, FIG2):
        cyc = cycle_map(params, TAU, THETA)
        v = thermal_state(params)
        min_det = min(min_det, v.det)
        for _ in range(10):
            chunk = stroboscopic_evolve(v, cyc, 100_000, 1)
            q, qp, p = chunk.moments[1:].T
            min_det = min(min_det, float(np.min(q * p - qp * qp)))
            v = chunk[-1][1]
    bound_ok = min_det >= 0.25 - 1e-9

    # thermal fixed point of the free propagator
    worst_thermal = 0.0
    for params in (FIG1, FIG2, MechanicalParams(1e4, 5.0, 0.3)):
        v = thermal_state(params).as_array()
        out = propagate(thermal_state(params), params, TAU).as_array()
        worst_thermal = max(worst_thermal, float(np.max(np.abs(out - v) / np.abs(v).max())))
    thermal_ok = worst_thermal <= 1e-10

    # stationary point solves the cycle map
    worst_resid = 0.0
    for theta in (0.5, 2.0, 5.0, 10.0):
        cyc = cycle_map(FIG1, TAU, theta)
        v = steady_state(cyc)
        out = stroboscopic_evolve(v, cyc, 1)[-1][1].as_array()
        worst_resid = max(
            worst_resid,
            float(np.max(np.abs(out - v.as_array())) / np.max(np.abs(v.as_array()))),
        )
    resid_ok = worst_resid <= 1e-10

    # closed form A^n v0 + (I - A^n) v_inf vs one period at a time, by the
    # public evolve (itself a closed form here) and by the kick loop
    cyc = cycle_map(FIG1, TAU, THETA)
    A, b = period_map(cyc)
    v_fix = np.linalg.solve(np.eye(3) - A, b)
    worst_closed = 0.0
    v0 = thermal_state(FIG1).as_array()
    for evolve in (stroboscopic_evolve, _iterate):
        v = thermal_state(FIG1)
        done = 0
        for n in (1, 10, 100, 1000):
            for _ in range(n - done):
                v = evolve(v, cyc, 1)[-1][1]
            done = n
            An = np.linalg.matrix_power(A, n)
            closed = An @ v0 + (np.eye(3) - An) @ v_fix
            worst_closed = max(
                worst_closed,
                float(np.max(np.abs(v.as_array() - closed)) / np.max(np.abs(closed))),
            )
    closed_ok = worst_closed <= 1e-8

    ok = symp_ok and bound_ok and thermal_ok and resid_ok and closed_ok
    record(
        9,
        ok,
        f"symplectic {worst_symp:.2e} (<=1e-12, operand-scale rel); "
        f"min det {min_det:.6f} (>= 1/4 - 1e-9); thermal {worst_thermal:.2e} "
        f"(<=1e-10); residual {worst_resid:.2e} (<=1e-10); closed-form "
        f"{worst_closed:.2e} (<=1e-8)",
    )
    assert symp_ok
    assert bound_ok
    assert thermal_ok
    assert resid_ok
    assert closed_ok


def test_criterion_10_determinism(tmp_path):
    noise = KickNoiseModel(mean_theta=10.0, variance=1e-3)
    kw = dict(n_kicks=2000, stride=200, n_traj=8, base_seed=12345)
    a = run_ensemble(FIG1, TAU, noise, n_jobs=1, **kw)
    b = run_ensemble(FIG1, TAU, noise, n_jobs=1, **kw)
    c = run_ensemble(FIG1, TAU, noise, n_jobs=4, **kw)
    arrays_equal = np.array_equal(a.mean + a.std, b.mean + b.std) and np.array_equal(
        a.mean + a.std, c.mean + c.std
    )

    from springkick.cli import main

    files = []
    for name in ("r1", "r2"):
        code = main(
            [
                "--scenario",
                "fig3",
                "--kicks",
                "2000",
                "--stride",
                "200",
                "--trajectories",
                "8",
                "--out",
                str(tmp_path / name),
                "--quiet",
            ]
        )
        assert code == 0
        files.append((tmp_path / f"{name}.csv").read_bytes())
    bytes_equal = files[0] == files[1]

    ok = arrays_equal and bytes_equal
    record(
        10,
        ok,
        f"repeat and thread-count bitwise equal: {arrays_equal}; "
        f"CLI reruns byte-identical: {bytes_equal}",
    )
    assert arrays_equal
    assert bytes_equal
