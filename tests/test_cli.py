"""End-to-end command-line behavior: exit codes, CSV schema, determinism."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import springkick
from conftest import readme_physical_example
from springkick import MechanicalParams, cycle_map, state_metrics, steady_state
from springkick.cli import main
from springkick.runner import ENSEMBLE_COLUMNS, OUTPUT_COLUMNS

FIG = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)

MINIMAL = """
[mechanical]
omega_m = 5e5
gamma_m = 1e2
n_bar = 10

[kick]
theta = 10

[schedule]
tau = 1e-7
n_kicks = 2000
stride = 500
"""


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExitCodes:
    def test_scenario_runs_clean(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["--scenario", "fig1", "--kicks", "2000", "--out", str(out), "--quiet"]) == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.summary.txt").exists()

    def test_unknown_scenario(self, capsys):
        assert main(["--scenario", "fig9"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_source(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_and_scenario_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL)
        assert main(["--config", str(cfg), "--scenario", "fig1"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.ini")]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_lists_problems(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mechanical]\nomega_m = fast\n")
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "omega_m" in err

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL)
        out = tmp_path / "no" / "such" / "dir" / "run"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert "error" in capsys.readouterr().err

    def test_seed_without_ensemble(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL)
        assert main(["--config", str(cfg), "--seed", "7"]) == 1
        assert "ensemble" in capsys.readouterr().err

    def test_oversized_seed(self, capsys):
        assert main(["--scenario", "fig3", "--seed", str(2**64)]) == 1
        assert "u64" in capsys.readouterr().err

    def test_overflowing_theta_names_theta(self, tmp_path, capsys):
        cfg = tmp_path / "huge.ini"
        cfg.write_text(MINIMAL.replace("theta = 10", "theta = 1e160"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "h"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "theta" in err
        assert "infs or NaNs" not in err

    def test_readme_physical_example_runs(self, tmp_path):
        cfg = tmp_path / "readme.ini"
        cfg.write_text(readme_physical_example())
        out = tmp_path / "readme"
        small = ["--kicks", "1000", "--trajectories", "4"]
        assert main(["--config", str(cfg), *small, "--out", str(out), "--quiet"]) == 0
        assert "from pulse chain" in (tmp_path / "readme.summary.txt").read_text()

    def test_divergent_run_is_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "div.ini"
        cfg.write_text(
            "[mechanical]\nomega_m = 5e5\ngamma_m = 0\nn_bar = 10\n"
            "[kick]\ntheta = -10\n"
            "[schedule]\ntau = 1e-7\nn_kicks = 500\nstride = 500\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "d"), "--quiet"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_metrics_are_numerical_failure(self, tmp_path, capsys):
        # at n_bar = 1e200 sigma_q*sigma_p - sigma_qp^2 overflows; the run used
        # to exit 0 with sigma_min = nan in the summary and the CSV
        cfg = tmp_path / "hot.ini"
        cfg.write_text(MINIMAL.replace("n_bar = 10", "n_bar = 1e200"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "hot"), "--quiet"]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "hot.summary.txt").exists()

    def test_overflow_warns_nothing_before_the_typed_error(self, tmp_path):
        # a numpy RuntimeWarning raised as an error under -W escaped main and
        # turned exit 2 into 1; the overflow is reported by the error alone
        cfg = tmp_path / "hot.ini"
        cfg.write_text(MINIMAL.replace("n_bar = 10", "n_bar = 1e200"))
        src = os.path.dirname(os.path.dirname(os.path.abspath(springkick.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "springkick",
             "--config", str(cfg), "--out", str(tmp_path / "hot"), "--quiet"],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 2
        [line] = run.stderr.splitlines()
        assert line.startswith("numerical failure: ")

    @pytest.mark.parametrize("key, value", [("omega_m", "1.3e154"), ("gamma_m", "1e200")])
    def test_rates_from_2_511_are_config_errors(self, tmp_path, capsys, key, value):
        # these printed "error: math domain error" and a LinAlgError
        cfg = tmp_path / "fast.ini"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, flags=re.M))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "fast"), "--quiet"]) == 1
        [line] = [x for x in capsys.readouterr().err.splitlines() if x.startswith("  - ")]
        assert line.startswith(f"  - [mechanical]: {key} must be")

    def test_lost_determinant_is_numerical_failure(self, tmp_path):
        # rho(A) = 62.2: from kick 10 on det = sigma_q sigma_p - sigma_qp^2
        # is below the rounding the floor is judged with.  The run exited 0
        # with onset 17 (57 at 80 digits), sigma_min = -5425.3 at kick 10 and
        # purity 1.0 from kick 40, and two RuntimeWarnings
        cfg = tmp_path / "unstable.ini"
        cfg.write_text(
            "[mechanical]\nomega_m = 103331.90264595288\ngamma_m = 1.8636320858451776\n"
            "n_bar = 37.91151231434087\n[kick]\ntheta = 7.073451701040678\n"
            "[schedule]\ntau = 5.639983278989652e-05\nn_kicks = 60\nstride = 10\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(springkick.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "springkick",
             "--config", str(cfg), "--out", str(tmp_path / "unstable"), "--quiet"],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 2
        [line] = run.stderr.splitlines()
        assert line.startswith("numerical failure: moments diverged (determinant lost to rounding)")
        assert "at kick 10:" in line
        assert not (tmp_path / "unstable.summary.txt").exists()

    def test_unphysical_fixed_point_is_reported_not_fatal(self, tmp_path):
        # theta = 20: the map fixed point violates the uncertainty bound, but
        # a short run stays physical; summary reports the boundary honestly
        cfg = tmp_path / "s20.ini"
        cfg.write_text(
            "[mechanical]\nomega_m = 5e5\ngamma_m = 1e2\nn_bar = 10\n"
            "[kick]\ntheta = 20\n"
            "[schedule]\ntau = 1e-7\nn_kicks = 20000\nstride = 5000\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "s20"), "--quiet"]) == 0
        summary = (tmp_path / "s20.summary.txt").read_text()
        assert "model validity exceeded" in summary

    def test_unphysical_trajectory_is_numerical_failure(self, tmp_path, capsys):
        # ...but iterating long enough crosses the boundary -> exit 2
        cfg = tmp_path / "l20.ini"
        cfg.write_text(
            "[mechanical]\nomega_m = 5e5\ngamma_m = 1e2\nn_bar = 10\n"
            "[kick]\ntheta = 20\n"
            "[schedule]\ntau = 1e-7\nn_kicks = 4000000\nstride = 100000\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "l20"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        # the first unphysical sample, where the run stops
        assert "< 1/4 at kick 800000" in err


class TestTrajectoryCsv:
    @pytest.fixture()
    def run(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["--scenario", "fig1", "--kicks", "2000", "--stride", "500", "--out", str(out), "--quiet"]
        )
        assert code == 0
        return tmp_path

    def test_header_order(self, run):
        header, _ = read_rows(run / "run.csv")
        assert header == list(OUTPUT_COLUMNS)

    def test_kick_index_strictly_increasing(self, run):
        _, rows = read_rows(run / "run.csv")
        idx = [int(r[0]) for r in rows]
        assert idx == sorted(idx)
        assert len(set(idx)) == len(idx)
        assert idx[0] == 0 and idx[-1] == 2000

    def test_time_is_kick_index_times_tau(self, run):
        _, rows = read_rows(run / "run.csv")
        for r in rows:
            assert float(r[1]) == int(r[0]) * 1e-7

    def test_metrics_recomputable_from_moments(self, run):
        from springkick import MomentVector

        _, rows = read_rows(run / "run.csv")
        for r in rows:
            v = MomentVector(float(r[2]), float(r[3]), float(r[4]))
            m = state_metrics(v)
            assert float(r[5]) == m.sigma_min
            assert float(r[6]) == m.squeezing_db
            assert float(r[10]) == m.n_eff

    def test_summary_stationary_metrics_bit_exact(self, run):
        m = state_metrics(steady_state(cycle_map(FIG, 1e-7, 10.0)))
        summary = (run / "run.summary.txt").read_text()
        expected = (
            "stationary metrics: "
            f"sigma_min = {m.sigma_min!r}, "
            f"phi_min_rad = {m.phi_min!r}, "
            f"squeezing_db = {m.squeezing_db!r}, "
            f"purity = {m.purity!r}, "
            f"entropy_nats = {m.entropy!r}, "
            f"n_eff = {m.n_eff!r}"
        )
        assert expected in summary

    def test_onset_line_present(self, run):
        summary = (run / "run.summary.txt").read_text()
        assert "squeezing onset" in summary


class TestEnsembleCsv:
    @pytest.fixture()
    def run(self, tmp_path):
        out = tmp_path / "ens"
        code = main(
            [
                "--scenario",
                "fig3",
                "--kicks",
                "1000",
                "--stride",
                "250",
                "--trajectories",
                "5",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        return tmp_path

    def test_header_has_ensemble_block(self, run):
        header, rows = read_rows(run / "ens.csv")
        assert header == list(OUTPUT_COLUMNS + ENSEMBLE_COLUMNS)
        assert len(header) == 24
        assert all(len(r) == 24 for r in rows)

    def test_summary_has_tail_averages(self, run):
        summary = (run / "ens.summary.txt").read_text()
        assert "ensemble tail averages" in summary
        assert "squeezing_db_of_mean" in summary
        assert "squeezing_db_mean" in summary
        assert "trajectories = 5" in summary

    def test_seed_override_changes_output(self, tmp_path):
        args = ["--scenario", "fig3", "--kicks", "400", "--stride", "100",
                "--trajectories", "3", "--quiet"]
        a, b, c = (tmp_path / x for x in ("a", "b", "c"))
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--seed", "999"]) == 0
        assert main(args + ["--out", str(c), "--seed", "999"]) == 0
        base = (tmp_path / "a.csv").read_bytes()
        reseeded = (tmp_path / "b.csv").read_bytes()
        repeat = (tmp_path / "c.csv").read_bytes()
        assert base != reseeded
        assert reseeded == repeat


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        for name in ("one", "two"):
            code = main(
                [
                    "--scenario",
                    "fig3",
                    "--kicks",
                    "800",
                    "--stride",
                    "200",
                    "--trajectories",
                    "4",
                    "--out",
                    str(tmp_path / name),
                    "--quiet",
                ]
            )
            assert code == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        one = (tmp_path / "one.summary.txt").read_text()
        two = (tmp_path / "two.summary.txt").read_text()
        assert one == two

    def test_deterministic_trajectory_reruns(self, tmp_path):
        for name in ("one", "two"):
            assert main(
                ["--scenario", "fig1", "--kicks", "3000", "--out", str(tmp_path / name), "--quiet"]
            ) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


class TestIntraTrace:
    def test_written_when_requested(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL.replace("stride = 500", "stride = 500\nintra_samples = 11"))
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        intra = tmp_path / "run.intra.csv"
        assert intra.exists()
        header, rows = read_rows(intra)
        assert header[0] == "offset_s"
        assert len(rows) == 11
        offsets = [float(r[0]) for r in rows]
        assert offsets[0] == 0.0
        assert offsets[-1] == 1e-7
        assert offsets == sorted(offsets)

    def test_absent_by_default(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--scenario", "fig1", "--kicks", "1000", "--out", str(out), "--quiet"]) == 0
        assert not (tmp_path / "run.intra.csv").exists()


class TestOutputControl:
    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["--scenario", "fig1", "--kicks", "1000", "--out", str(out), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_echo_by_default(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["--scenario", "fig1", "--kicks", "1000", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert "run summary" in stdout
        assert "wrote" in stdout

    def test_out_accepts_csv_suffix(self, tmp_path):
        out = tmp_path / "direct.csv"
        assert main(["--scenario", "fig1", "--kicks", "1000", "--out", str(out), "--quiet"]) == 0
        assert out.exists()
        assert (tmp_path / "direct.summary.txt").exists()

    def test_config_output_path_used(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL + f"\n[output]\npath = {tmp_path}/from_config\n")
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "from_config.csv").exists()
