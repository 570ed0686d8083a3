"""Show that the output checks bite: each must reject a deliberate perturbation.

    python3 bench/bite.py [--seed N]

Runs every workload once (one round, through run.py), then for each
perturbation copies that workload's outputs, changes the copy, and runs the
workload's check on it.  The unperturbed copy must pass and every perturbed
one must be rejected.  Prints one line per case; exits 1 if any check failed
to reject its perturbation (or rejected clean outputs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads as W  # noqa: E402

OUT = os.path.join(HERE, "out")


def bump_digit(s: str, k: int) -> str:
    """The float string s with its k-th significant digit changed by one."""
    seen = 0
    for i, ch in enumerate(s):
        if ch in "eE":
            break
        if ch.isdigit() and (seen or ch != "0"):
            seen += 1
            if seen == k:
                return s[:i] + ("8" if ch == "9" else str(int(ch) + 1)) + s[i + 1 :]
    raise ValueError(f"{s!r} has fewer than {k} significant digits")


def edit_csv(path, row, col, fn) -> None:
    """Apply fn to one cell; row counts data rows from 0, col is a header name or index."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    j = header.index(col) if isinstance(col, str) else col
    cells = lines[row + 1].split(",")
    cells[j] = fn(cells[j])
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def edit_text(path, pattern, fn) -> None:
    """Replace the first match of pattern's group 1 with fn(group)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(pattern, text, re.M)
    if m is None:
        raise ValueError(f"{pattern!r} not in {path}")
    text = text[: m.start(1)] + fn(m.group(1)) + text[m.end(1) :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def shift_mean(path, row, n_traj, n_se) -> None:
    """Move n_eff_mean of one row by n_se standard errors."""
    header, rows = check.read_csv(path)
    row %= len(rows)
    se = float(rows[row][header.index("n_eff_std")]) / math.sqrt(n_traj - 1)
    edit_csv(path, row, "n_eff_mean", lambda x: repr(float(x) + n_se * se))


def other_trajectory0(path, seed, n_kicks) -> None:
    """Replace the trajectory-0 columns with trajectory 0 of another base seed."""
    import springkick

    params = springkick.MechanicalParams(W.FIG_OMEGA, W.FIG_GAMMA, W.FIG_NBAR["fig3"])
    noise = springkick.KickNoiseModel(W.FIG_THETA, W.FIG_VARIANCE)
    traj = springkick.run_trajectory(
        params, W.FIG_TAU, noise, n_kicks, W.STRIDE, springkick.trajectory_seed(seed + 1, 0)
    )
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for i, (n, v, m) in enumerate(traj.samples):
        cells = [str(n)] + [repr(float(x)) for x in (n * W.FIG_TAU, v.sigma_q, v.sigma_qp, v.sigma_p,
                                                      m.sigma_min, m.squeezing_db, m.phi_min,
                                                      m.purity, m.entropy, m.n_eff)]
        lines[i + 1] = ",".join(cells + lines[i + 1].split(",")[len(cells):])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def cases(workload, seed):
    """(name, perturb(dir, codes)) for one workload; perturb edits the copy in dir."""
    j = os.path.join
    if workload == "deterministic":
        n_rows = W.DET_KICKS // W.STRIDE + 1
        row1 = check.sampled_rows("fig1", seed, n_rows)[1]
        row2 = check.sampled_rows("fig2", seed, n_rows)[2]
        free = next(i for i in range(n_rows - 2, 0, -1) if i not in check.sampled_rows("fig1", seed, n_rows))
        onset = r"^squeezing onset: kick (\d+)"
        return [
            ("fig1 sampled row: 6th digit of sigma_q",
             lambda d, c: edit_csv(j(d, "fig1.csv"), row1, "sigma_q", lambda x: bump_digit(x, 6))),
            ("fig2 sampled row: 4th digit of squeezing_db",
             lambda d, c: edit_csv(j(d, "fig2.csv"), row2, "squeezing_db", lambda x: bump_digit(x, 4))),
            ("fig1 unsampled row: sigma_p x 0.9, det below 1/4",
             lambda d, c: edit_csv(j(d, "fig1.csv"), free, "sigma_p", lambda x: repr(0.9 * float(x)))),
            ("fig1 onset moved one kick later",
             lambda d, c: edit_text(j(d, "fig1.summary.txt"), onset, lambda x: str(int(x) + 1))),
            ("fig2 onset moved one kick earlier",
             lambda d, c: edit_text(j(d, "fig2.summary.txt"), onset, lambda x: str(int(x) - 1))),
            ("fig1 stationary state: 8th digit of sigma_p",
             lambda d, c: edit_text(j(d, "fig1.summary.txt"), r"^stationary state: .*sigma_p = (\S+)",
                                    lambda x: bump_digit(x, 8))),
            ("fig2 stationary metrics: 6th digit of purity",
             lambda d, c: edit_text(j(d, "fig2.summary.txt"), r"^stationary metrics: .*purity = ([^,]+)",
                                    lambda x: bump_digit(x, 6))),
            ("fig1 final state: 15th digit of sigma_q",
             lambda d, c: edit_text(j(d, "fig1.summary.txt"), r"^final state .*?sigma_q = ([^,]+)",
                                    lambda x: bump_digit(x, 15))),
            ("fig2 exit code 2", lambda d, c: c.update(fig2=2)),
        ]
    if workload == "ensemble":
        csv_path = lambda d: j(d, "fig3.csv")  # noqa: E731
        return [
            ("fig3 n_eff_mean of the last row moved by 10 standard errors",
             lambda d, c: shift_mean(csv_path(d), -1, W.ENS_WIDTH, 10)),
            ("fig3 trajectory 0 from another base seed",
             lambda d, c: other_trajectory0(csv_path(d), W.base_seed(seed), W.ENS_KICKS)),
            ("fig3 trajectory 0: last digit of sigma_p in one row",
             lambda d, c: edit_csv(csv_path(d), 50, "sigma_p", lambda x: x[:-1] + ("1" if x[-1] == "2" else "2"))),
            ("fig3 tail n_eff_mean: 6th digit",
             lambda d, c: edit_text(j(d, "fig3.summary.txt"), r"^  n_eff_mean = (\S+)", lambda x: bump_digit(x, 6))),
            ("fig3 stationary state: 9th digit of sigma_q",
             lambda d, c: edit_text(j(d, "fig3.summary.txt"), r"^stationary state: sigma_q = ([^,]+)",
                                    lambda x: bump_digit(x, 9))),
        ]
    if workload == "ensemble-wide":
        csv_path = lambda d: j(d, "wide.csv")  # noqa: E731
        return [
            ("wide n_eff_mean of row 25 moved by 10 standard errors",
             lambda d, c: shift_mean(csv_path(d), 25, W.WIDE_WIDTH, 10)),
            ("wide trajectory 0 from another base seed",
             lambda d, c: other_trajectory0(csv_path(d), W.base_seed(seed), W.WIDE_KICKS)),
            ("wide tail sigma_min_mean: 6th digit",
             lambda d, c: edit_text(j(d, "wide.tail.txt"), r"^sigma_min_mean = (\S+)", lambda x: bump_digit(x, 6))),
        ]
    return [
        ("sweep p00 stationary state: 7th digit of sigma_q",
         lambda d, c: edit_text(j(d, "p00.summary.txt"), r"^stationary state: sigma_q = ([^,]+)",
                                lambda x: bump_digit(x, 7))),
        ("sweep p13 stationary metrics: 5th digit of squeezing_db",
         lambda d, c: edit_text(j(d, "p13.summary.txt"), r"^stationary metrics: .*squeezing_db = ([^,]+)",
                                lambda x: bump_digit(x, 5))),
        ("sweep p27 (rectangular) kick theta: 4th digit",
         lambda d, c: edit_text(j(d, "p27.summary.txt"), r"^kick theta = (\S+)", lambda x: bump_digit(x, 4))),
        ("sweep p29 (gaussian) kick theta: 4th digit",
         lambda d, c: edit_text(j(d, "p29.summary.txt"), r"^kick theta = (\S+)", lambda x: bump_digit(x, 4))),
        ("sweep p30 (gaussian) photon number integral: 4th digit",
         lambda d, c: edit_text(j(d, "p30.summary.txt"), r"^photon number integral = (\S+)",
                                lambda x: bump_digit(x, 4))),
        ("sweep p05 intra-period row 16: 6th digit of sigma_p",
         lambda d, c: edit_csv(j(d, "p05.intra.csv"), 16, "sigma_p", lambda x: bump_digit(x, 6))),
        ("sweep p10 exit code 2", lambda d, c: c.update(p10=2)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for workload in W.WORKLOADS:
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if p.returncode != 0:
            print(p.stderr, file=sys.stderr)
            return 1
        src = os.path.join(OUT, f"{workload}-trace0")
        with open(os.path.join(src, "result.json"), encoding="utf-8") as fh:
            rounds = json.load(fh)["rounds"]
        codes = dict(rounds[-1]["codes"])
        base = os.path.join(OUT, "bite", workload)
        shutil.rmtree(base, ignore_errors=True)
        clean, _ = check.check_outputs(workload, os.path.join(src, "run"), args.seed, codes)
        print(f"{workload}: clean outputs {'pass' if not clean else 'REJECTED: ' + clean[0]}")
        ok &= not clean
        for i, (name, perturb) in enumerate(cases(workload, args.seed)):
            d = os.path.join(base, str(i))
            shutil.copytree(os.path.join(src, "run"), d)
            c = dict(codes)
            perturb(d, c)
            found, _ = check.check_outputs(workload, d, args.seed, c)
            print(f"  {'rejected' if found else 'NOT REJECTED'}: {name}" + (f"  [{found[0]}]" if found else ""))
            ok &= bool(found)
        twice = [rounds[0], json.loads(json.dumps(rounds[0]))]
        key = sorted(twice[1]["hashes"])[0]
        twice[1]["hashes"][key] = "0" * 64
        found = check.check_repeats(twice)
        print(f"  {'rejected' if found else 'NOT REJECTED'}: a repeat whose {key} differs from the first")
        ok &= bool(found)
    print("all checks bite" if ok else "SOME CHECKS DO NOT BITE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
