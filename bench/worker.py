"""One workload in a fresh interpreter: time the import, then run whole rounds.

    python3 bench/worker.py PLAN.json      run the plan, write RESULT.json
    python3 bench/worker.py --setup-only   print the import time and exit

The first statements time `import springkick, springkick.cli` with nothing
but `time` imported before it, which is what every CLI call pays.  The plan
(written by run.py) names the workload, its generated inputs and the output
directory.  Each round runs the workload's operations once; its wall and CPU
time run from the first call into springkick to the last output file
written.  Between rounds, outside the timed interval, the outputs are hashed
and removed, so every round creates its files afresh.  With tracing on,
rounds alternate untraced/traced and the traced ones record spans.
"""

import time

_t0 = time.perf_counter()
import springkick  # noqa: E402
import springkick.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import springkick.runner  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def make_round(plan: dict, api: dict):
    """The workload's operations as one callable: out_dir -> [(op, exit code)]."""
    workload = plan["workload"]
    main = api["main"]

    if workload == "deterministic":

        def run(d):
            return [
                (
                    name,
                    main(
                        [
                            "--scenario", name,
                            "--kicks", str(W.DET_KICKS),
                            "--stride", str(W.STRIDE),
                            "--out", os.path.join(d, name),
                            "--quiet",
                        ]
                    ),
                )
                for name in ("fig1", "fig2")
            ]

    elif workload == "ensemble":

        def run(d):
            rc = main(
                [
                    "--scenario", "fig3",
                    "--kicks", str(W.ENS_KICKS),
                    "--stride", str(W.STRIDE),
                    "--seed", str(W.base_seed(plan["seed"])),
                    "--out", os.path.join(d, "fig3"),
                    "--quiet",
                ]
            )
            return [("fig3", rc)]

    elif workload == "ensemble-wide":
        params = springkick.MechanicalParams(
            omega_m=W.FIG_OMEGA, gamma_m=W.FIG_GAMMA, n_bar=W.FIG_NBAR["fig3"]
        )
        noise = springkick.KickNoiseModel(mean_theta=W.FIG_THETA, variance=W.FIG_VARIANCE)

        def run(d):
            stats = api["run_ensemble"](
                params, W.FIG_TAU, noise, W.WIDE_KICKS, W.STRIDE,
                n_traj=W.WIDE_WIDTH, base_seed=W.base_seed(plan["seed"]),
                n_jobs=W.WIDE_JOBS,
            )
            tail = api["steady_tail_mean"](stats)
            api["write_ensemble_csv"](os.path.join(d, "wide.csv"), W.FIG_TAU, stats)
            with open(os.path.join(d, "wide.tail.txt"), "w", encoding="utf-8") as fh:
                fh.write("".join(f"{k} = {v!r}\n" for k, v in tail.items()))
            return [("wide", 0)]

    elif workload == "sweep":
        names = [p["name"] for p in W.sweep_points(plan["seed"])]
        inputs = plan["inputs"]

        def run(d):
            return [
                (
                    name,
                    main(
                        [
                            "--config", os.path.join(inputs, name + ".ini"),
                            "--out", os.path.join(d, name),
                            "--quiet",
                        ]
                    ),
                )
                for name in names
            ]

    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return run


def hash_outputs(d: str) -> dict:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    api = {
        "main": springkick.cli.main,
        "run_ensemble": springkick.run_ensemble,
        "steady_tail_mean": springkick.steady_tail_mean,
        "write_ensemble_csv": springkick.runner.write_ensemble_csv,
    }
    tracer = Tracer() if plan["trace"] else None
    traced_api = tracer.wrap_api(api) if tracer else None
    out_dir = plan["out"]
    os.makedirs(out_dir, exist_ok=True)

    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        run = make_round(plan, traced_api if traced else api)
        if traced:
            tracer.install(round_index=len(rounds))
        try:
            c0 = cpu_s()
            t0 = time.perf_counter()
            codes = run(out_dir)
            t1 = time.perf_counter()
            c1 = cpu_s()
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(
            dict(
                wall_s=t1 - t0,
                cpu_s=c1 - c0,
                traced=traced,
                codes=codes,
                hashes=hash_outputs(out_dir),
            )
        )
        done = time.perf_counter() - start >= plan["seconds"]
        if done and (tracer is None or len(rounds) >= 2):
            break
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))

    result = dict(
        setup_s=SETUP_S,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        springkick_file=springkick.__file__,
        rounds=rounds,
    )
    if tracer:
        tracer.write(plan["trace_file"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-only"]:
        print(repr(SETUP_S))
    else:
        main(sys.argv[1])
