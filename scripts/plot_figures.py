"""Plot squeezing, purity and ensemble-spread curves from scenario CSVs.

Reads the CSVs of the preset scenarios and writes PNGs next to them.  Make
the CSVs first with

    mkdir -p results
    for s in fig1 fig2 fig3; do springkick --scenario $s --out results/$s; done

Usage: python3 scripts/plot_figures.py [--outdir results]
"""

import argparse
import pathlib
import sys

import numpy as np

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def load(path: pathlib.Path):
    return np.genfromtxt(path, delimiter=",", names=True)


def plot_trajectory(rows, png: pathlib.Path, title: str) -> None:
    fig, (ax1, ax2) = plt.subplots(2, 1, sharex=True, figsize=(7, 6))
    n = rows["kick_index"]
    ax1.plot(n, rows["squeezing_db"], lw=0.8)
    ax1.axhline(0.0, color="k", lw=0.5, ls=":")
    ax1.set_ylabel("squeezing [dB rel. vacuum]")
    ax1.set_title(title)
    ax2.plot(n, rows["purity"], lw=0.8, label="purity")
    ax2.plot(n, rows["entropy_nats"], lw=0.8, label="entropy [nats]")
    ax2.set_xlabel("kick index")
    ax2.legend(frameon=False)
    fig.tight_layout()
    fig.savefig(png, dpi=150)
    plt.close(fig)


def plot_ensemble(rows, png: pathlib.Path, title: str) -> None:
    fig, ax = plt.subplots(figsize=(7, 4))
    n = rows["kick_index"]
    mean = rows["sigma_min_mean"]
    std = rows["sigma_min_std"]
    ax.plot(n, rows["squeezing_db_of_mean"], lw=0.8, label="dB of mean variance")
    ax.plot(n, rows["squeezing_db_mean"], lw=0.8, label="mean of dB values")
    lo = 10.0 * np.log10(2.0 * np.maximum(mean - std, 1e-12))
    hi = 10.0 * np.log10(2.0 * (mean + std))
    ax.fill_between(n, lo, hi, alpha=0.2, label="mean variance +- std")
    ax.axhline(0.0, color="k", lw=0.5, ls=":")
    ax.set_xlabel("kick index")
    ax.set_ylabel("squeezing [dB rel. vacuum]")
    ax.set_title(title)
    ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig(png, dpi=150)
    plt.close(fig)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="directory with scenario CSVs")
    args = parser.parse_args()
    if plt is None:
        print("matplotlib is not installed; pip install matplotlib", file=sys.stderr)
        return 1

    outdir = pathlib.Path(args.outdir)
    made = 0
    for name, title in (
        ("fig1", "moderate occupancy, n_bar = 10"),
        ("fig2", "hot start, n_bar = 200"),
    ):
        csv = outdir / f"{name}.csv"
        if csv.exists():
            plot_trajectory(load(csv), outdir / f"{name}.png", title)
            made += 1
    csv = outdir / "fig3.csv"
    if csv.exists():
        plot_ensemble(load(csv), outdir / "fig3.png", "noisy kicks, variance 1e-3")
        made += 1
    if made == 0:
        print(f"no scenario CSVs under {outdir}; run the scenarios first")
        return 1
    print(f"wrote {made} figure(s) under {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
