"""The benchmark harness's tracer still binds every name it patches.

bench/tracing.py wraps names on springkick.cli, springkick.runner and
springkick.ensemble and reads argument names of the wrapped functions.  A
rename or a changed signature there breaks the traced benchmark run; these
runs catch it in the test suite.  The harness file is imported as it is.
"""

import types
from collections import Counter
from pathlib import Path

import pytest

from conftest import readme_physical_example
from springkick.cli import main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # compiled from source, so no bytecode cache is written next to it
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


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
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    spans = Counter(name for _, name, *_ in tracer.spans)
    for name in (
        "moments.stroboscopic_evolve",
        "ensemble.run_ensemble",
        "pulses.theta_from_physical",
        "moments.intra_period_trace",
        "runner.write_trajectory_csv",
        "runner.write_ensemble_csv",
        "runner.write_intra_csv",
    ):
        assert spans[name] >= 1, name
    assert (tmp_path / "run2.intra.csv").exists()
