"""Print a sha256 digest of the noisy ensemble's sampled rows.

Runs springkick.ensemble._run_block on fig3's physics (omega_m = 5e5,
gamma_m = 1e2, n_bar = 10, tau = 1e-7, theta = 10, variance 1e-3) over a
grid of widths, strides and kick counts, and prints one line per case and a
digest of them all.  Run it on two checkouts to check that a change to the
ensemble keeps every row bit for bit:

    PYTHONPATH=src python3 scripts/cube_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/cube_digest.py > old.txt
    diff old.txt new.txt
"""

import hashlib

from springkick import KickNoiseModel, MechanicalParams, cycle_map, thermal_state, trajectory_seed
from springkick.ensemble import _run_block

PARAMS = MechanicalParams(omega_m=5e5, gamma_m=1e2, n_bar=10.0)
TAU = 1e-7
NOISE = KickNoiseModel(mean_theta=10.0, variance=1e-3)
# width -> kick counts; each width's longest run spans several chunks at
# every stride
KICKS = {
    1: (0, 1, 63, 64, 65, 4101, 30_000, 1_000_000),
    3: (0, 1, 4101, 150_000),
    100: (1, 20_000),
    1000: (5000,),
}
STRIDES = (1, 7, 100)


def main() -> None:
    cyc = cycle_map(PARAMS, TAU, NOISE.mean_theta)
    v0 = thermal_state(PARAMS)
    total = hashlib.sha256()
    for width, counts in KICKS.items():
        seeds = [trajectory_seed(12345, i) for i in range(width)]
        for n_kicks in counts:
            for stride in STRIDES:
                rows = hashlib.sha256()
                # the sampled rows in order, whether _run_block yields them a
                # block at a time or returns them as one cube
                for block in _run_block(cyc, v0, NOISE, n_kicks, stride, seeds):
                    rows.update(block.tobytes())
                digest = rows.hexdigest()
                total.update(digest.encode())
                print(f"width {width} kicks {n_kicks} stride {stride} {digest[:16]}")
    print(f"all {total.hexdigest()}")


if __name__ == "__main__":
    main()
