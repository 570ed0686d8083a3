"""springkick benchmark: one workload, timed in a fresh interpreter, outputs checked.

    python3 bench/run.py --workload {deterministic,ensemble,ensemble-wide,sweep}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a worker interpreter
(bench/worker.py) with springkick imported from ./src.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics (setup_s,
wall_s, cpu_s, peak_rss_mb); with --trace 1 it carries the per-layer metrics
of a traced run instead.  Problems found by the output checks go to stderr
and make "correct" false.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh interpreters that only import springkick; with the worker's own
# import they give the setup_s median.
SETUP_SAMPLES = 2
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import workloads as W  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS pool would add threads beyond nproc; the 3x3 algebra never uses it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(env) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--setup-only"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(p.stdout.strip().splitlines()[-1]))
    return out


def import_times(env) -> dict:
    """Cumulative import time (ms) of numpy, scipy.linalg and scipy.signal, as
    `python -X importtime` reports them for `import springkick.cli`; median of
    a few fresh interpreters.  A module springkick no longer imports reads 0."""
    wanted = ("numpy", "scipy.linalg", "scipy.signal")
    samples = {k: [] for k in wanted}
    for _ in range(IMPORTTIME_SAMPLES):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import springkick, springkick.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seen = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        for k in wanted:
            samples[k].append(seen.get(k, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "springkick", "__init__.py")):
        print(f"error: no springkick sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import layers

    out = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    run_dir = os.path.join(out, "run")
    inputs = os.path.join(out, "inputs")
    os.makedirs(run_dir)
    os.makedirs(inputs)
    if args.workload == "sweep":
        for point in W.sweep_points(args.seed):
            with open(os.path.join(inputs, point["name"] + ".ini"), "w", encoding="utf-8") as fh:
                fh.write(W.config_text(point))

    env = worker_env()
    setups = setup_samples(env) if not args.trace else []
    imports = import_times(env) if args.trace else {}

    plan = dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out=run_dir,
        inputs=inputs,
        result=os.path.join(out, "result.json"),
        trace_file=os.path.join(out, "trace.json"),
    )
    plan_path = os.path.join(out, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    try:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if p.returncode != 0:
        print(p.stderr, file=sys.stderr)
        print(f"error: worker exited with {p.returncode}", file=sys.stderr)
        return 1
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    rounds = result["rounds"]

    problems = []
    if not os.path.realpath(result["springkick_file"]).startswith(os.path.realpath(SRC) + os.sep):
        problems.append(f"springkick was imported from {result['springkick_file']}, not {SRC}")
    problems += check.check_repeats(rounds)
    codes = dict(rounds[-1]["codes"])
    found, failed = check.check_outputs(args.workload, run_dir, args.seed, codes)
    problems += found
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for name in failed:
        print(f"failed operation (known fault, every round): {name}", file=sys.stderr)

    if args.trace:
        with open(plan["trace_file"], encoding="utf-8") as fh:
            spans = json.load(fh)
        values = layers.layer_metrics(spans, rounds, imports)
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            dict(
                correct=not problems,
                attempted=W.operations_per_round(args.workload) * len(rounds),
                failed=len(failed) * len(rounds),
                metrics=metrics,
            )
        )
    )
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"run.py finished in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
