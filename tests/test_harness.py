"""The benchmark harness still reads what the package gives it.

bench/tracing.py wraps names on springkick.cli, springkick.runner and
springkick.ensemble and reads argument names of the wrapped functions, and
bench/check.py reads a single trajectory's samples.  A rename or a changed
signature or result there breaks the benchmark run; these runs catch it in
the test suite.  The harness files are imported as they are.
"""

import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from conftest import readme_physical_example
from springkick import runner
from springkick.cli import main

FIG1 = runner.scenario_config("fig1")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(path, name):
    # compiled from source, so no bytecode cache is written next to it
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load(BENCH / "tracing.py", "bench_tracing")


@pytest.fixture(scope="module")
def check():
    # check.py puts bench/ on sys.path to import workloads: undo that, and
    # write no bytecode there
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return load(BENCH / "check.py", "bench_check")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_traced_cli_runs_record_every_layer(tracing, tmp_path):
    cfg = tmp_path / "physical.ini"
    cfg.write_text(
        readme_physical_example().replace("intra_samples = 0", "intra_samples = 3")
    )
    runs = [
        ["--scenario", "fig1", "--kicks", "300"],
        ["--scenario", "fig3", "--kicks", "300", "--trajectories", "2"],
        ["--config", str(cfg), "--kicks", "300", "--trajectories", "2"],
    ]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        codes = [
            main([*argv, "--out", str(tmp_path / f"run{i}"), "--quiet"])
            for i, argv in enumerate(runs)
        ]
        # run_config formats its tables in one pass and takes its intra rows
        # as an array, so the writers and the trace that tracing.py still
        # patches run here by their runner names, as a library caller does
        cyc = runner.cycle_map(FIG1.mechanical, FIG1.schedule.tau, FIG1.theta)
        v0 = runner.thermal_state(FIG1.mechanical)
        samples = runner.stroboscopic_evolve(v0, cyc, 300, 100)
        runner.write_trajectory_csv(str(tmp_path / "direct.csv"), cyc.tau, samples)
        trace = runner.intra_period_trace(runner.steady_state(cyc), cyc, 3)
        runner.write_intra_csv(str(tmp_path / "direct.intra.csv"), trace)
        noise = runner.KickNoiseModel(mean_theta=FIG1.theta, variance=1e-3)
        stats = runner.run_ensemble(FIG1.mechanical, cyc.tau, noise, 300, 100, n_traj=2, base_seed=7)
        runner.write_ensemble_csv(str(tmp_path / "direct.ens.csv"), cyc.tau, stats)
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    spans = Counter(name for _, name, *_ in tracer.spans)
    # fig1 at 300 kicks writes kicks 0, 100, 200 and 300
    rows = [info["rows"] for _, name, *_, info in tracer.spans
            if name.startswith("runner.write_")]
    data_rows = len((tmp_path / "run0.csv").read_text().splitlines()) - 1
    assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "run0.csv").read_bytes()
    assert rows == [data_rows, 3, data_rows] == [4, 3, 4]
    for name in (
        "moments.stroboscopic_evolve",
        "ensemble.run_ensemble",
        "moments.intra_period_trace",
        "runner.write_trajectory_csv",
        "runner.write_ensemble_csv",
        "runner.write_intra_csv",
    ):
        assert spans[name] >= 1, name
    # the physical run takes theta from photon_integral, so no workload
    # reaches the span of theta_from_physical, whose counts in tracing.py
    # read the sampled trace it no longer returns
    assert "(from pulse chain)" in (tmp_path / "run2.summary.txt").read_text()
    assert spans["pulses.theta_from_physical"] == 0
    assert (tmp_path / "run2.intra.csv").exists()


def test_ensemble_trajectory0_passes_the_benchmark_check(check, tmp_path):
    out = tmp_path / "fig3"
    argv = ["--scenario", "fig3", "--kicks", "300", "--stride", "100", "--seed", "7"]
    assert main([*argv, "--trajectories", "2", "--out", str(out), "--quiet"]) == 0
    _, rows = check.read_csv(tmp_path / "fig3.csv")
    assert check._trajectory0_problems("fig3", rows, 7, 300, 100) == []
