"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration less the part of its interval covered by
its child spans (the union, so overlapping children on two threads count
once).  Counts are per round; times are per call, per kick, per row or per
grid point as the name says.  A metric whose layer does no work on the
workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> (unit, better)
PER_LAYER = {
    "import.numpy_ms": ("ms", "lower"),
    "import.scipy_linalg_ms": ("ms", "lower"),
    "import.scipy_signal_ms": ("ms", "lower"),
    "moments.evolve_ns_per_kick": ("ns", "lower"),
    "moments.onset_ns_per_kick": ("ns", "lower"),
    "moments.kicks_scanned": ("count", "lower"),
    "moments.state_metrics_us": ("us", "lower"),
    "moments.state_metrics_calls": ("count", "lower"),
    "moments.metric_arrays_ms": ("ms", "lower"),
    "moments.cycle_map_us": ("us", "lower"),
    "moments.cycle_map_calls": ("count", "lower"),
    "moments.steady_state_us": ("us", "lower"),
    "moments.intra_trace_us_per_sample": ("us", "lower"),
    "ensemble.run_ensemble_ms": ("ms", "lower"),
    "ensemble.run_ensemble_ns_per_traj_kick": ("ns", "lower"),
    "ensemble.arith_ns_per_traj_kick": ("ns", "lower"),
    "ensemble.rng_ns_per_traj_kick": ("ns", "lower"),
    "ensemble.rng_calls": ("count", "lower"),
    "ensemble.cpu_per_wall": ("ratio", "higher"),
    "pulses.theta_from_physical_ms": ("ms", "lower"),
    "pulses.grid_points": ("count", "lower"),
    "pulses.ns_per_grid_point": ("ns", "lower"),
    "pulses.uniform_grids": ("count", "lower"),
    "pulses.regime_check_us": ("us", "lower"),
    "config.read_config_us": ("us", "lower"),
    "cli.main_self_ms": ("ms", "lower"),
    "runner.run_config_self_ms": ("ms", "lower"),
    "runner.resolve_kick_ms": ("ms", "lower"),
    "runner.write_trajectory_csv_us_per_row": ("us", "lower"),
    "runner.write_ensemble_csv_us_per_row": ("us", "lower"),
    "runner.write_intra_csv_us_per_row": ("us", "lower"),
    "runner.csv_rows": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _union(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[dict], rounds: list[dict], imports: dict) -> dict:
    """Per-layer metrics from the trace and the round timings of one run."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    agg = defaultdict(lambda: defaultdict(float))
    for s in spans:
        a = agg[s["name"]]
        dur = s["end"] - s["start"]
        kids = children.get(s["id"], ())
        a["calls"] += 1
        a["dur"] += dur
        a["self"] += dur - _union([(k["start"], k["end"]) for k in kids], s["start"], s["end"])
        if s["name"] == "ensemble.run_ensemble":
            rng = [(k["start"], k["end"]) for k in kids if k["name"] == "rng.normal"]
            a["rng"] += _union(rng, s["start"], s["end"])
            a["cpu"] += s["cpu1"] - s["cpu0"]
        for key in ("kicks", "samples", "traj_kicks", "grid_points", "uniform_grid", "rows"):
            if key in s:
                a[key] += s[key]

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    n = len(traced)

    def g(name, key):
        return agg[name][key] if name in agg else 0.0

    ev, on = "moments.stroboscopic_evolve", "moments.squeezing_onset"
    ens = "ensemble.run_ensemble"
    tfp = "pulses.theta_from_physical"
    writers = ("runner.write_trajectory_csv", "runner.write_ensemble_csv", "runner.write_intra_csv")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    m = {
        "import.numpy_ms": imports.get("numpy", 0.0),
        "import.scipy_linalg_ms": imports.get("scipy.linalg", 0.0),
        "import.scipy_signal_ms": imports.get("scipy.signal", 0.0),
        "moments.evolve_ns_per_kick": _ratio(g(ev, "dur"), g(ev, "kicks"), 1e9),
        "moments.onset_ns_per_kick": _ratio(g(on, "dur"), g(on, "kicks"), 1e9),
        "moments.kicks_scanned": (g(ev, "kicks") + g(on, "kicks")) / n,
        "moments.state_metrics_us": _ratio(g("moments.state_metrics", "dur"), g("moments.state_metrics", "calls"), 1e6),
        "moments.state_metrics_calls": g("moments.state_metrics", "calls") / n,
        "moments.metric_arrays_ms": _ratio(g("moments.metric_arrays", "dur"), g("moments.metric_arrays", "calls"), 1e3),
        "moments.cycle_map_us": _ratio(g("moments.cycle_map", "dur"), g("moments.cycle_map", "calls"), 1e6),
        "moments.cycle_map_calls": g("moments.cycle_map", "calls") / n,
        "moments.steady_state_us": _ratio(g("moments.steady_state", "dur"), g("moments.steady_state", "calls"), 1e6),
        "moments.intra_trace_us_per_sample": _ratio(
            g("moments.intra_period_trace", "dur"), g("moments.intra_period_trace", "samples"), 1e6
        ),
        "ensemble.run_ensemble_ms": _ratio(g(ens, "dur"), g(ens, "calls"), 1e3),
        "ensemble.run_ensemble_ns_per_traj_kick": _ratio(g(ens, "dur"), g(ens, "traj_kicks"), 1e9),
        "ensemble.arith_ns_per_traj_kick": _ratio(g(ens, "self"), g(ens, "traj_kicks"), 1e9),
        "ensemble.rng_ns_per_traj_kick": _ratio(g(ens, "rng"), g(ens, "traj_kicks"), 1e9),
        "ensemble.rng_calls": g("rng.normal", "calls") / n,
        "ensemble.cpu_per_wall": _ratio(g(ens, "cpu"), g(ens, "dur")),
        "pulses.theta_from_physical_ms": _ratio(g(tfp, "dur"), g(tfp, "calls"), 1e3),
        "pulses.grid_points": g(tfp, "grid_points") / n,
        "pulses.ns_per_grid_point": _ratio(g(tfp, "dur"), g(tfp, "grid_points"), 1e9),
        "pulses.uniform_grids": g(tfp, "uniform_grid") / n,
        "pulses.regime_check_us": _ratio(g("pulses.regime_check", "dur"), g("pulses.regime_check", "calls"), 1e6),
        "config.read_config_us": _ratio(g("config.read_config", "dur"), g("config.read_config", "calls"), 1e6),
        "cli.main_self_ms": _ratio(g("cli.main", "self"), g("cli.main", "calls"), 1e3),
        "runner.run_config_self_ms": _ratio(g("runner.run_config", "self"), g("runner.run_config", "calls"), 1e3),
        "runner.resolve_kick_ms": _ratio(g("runner.resolve_kick", "dur"), g("runner.resolve_kick", "calls"), 1e3),
        "runner.write_trajectory_csv_us_per_row": _ratio(g(writers[0], "dur"), g(writers[0], "rows"), 1e6),
        "runner.write_ensemble_csv_us_per_row": _ratio(g(writers[1], "dur"), g(writers[1], "rows"), 1e6),
        "runner.write_intra_csv_us_per_row": _ratio(g(writers[2], "dur"), g(writers[2], "rows"), 1e6),
        "runner.csv_rows": sum(g(w, "rows") for w in writers) / n,
        "trace.spans": len(spans) / n,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_pct": _ratio(traced_wall - untraced_wall, untraced_wall, 100.0),
    }
    return m
