#!/usr/bin/env python3
"""Uplink and downlink spectral efficiency of the asymmetrical design.

Uplink: all selections use the same N chains, so the selection scheme
only matters through how well the combiner separates users.  Downlink:
the asymmetrical system must transfer its N-chain estimate to all M
antennas, so it is compared against full digital baselines with M and
N chains and against a perfect-CSI bound.
"""

from asymx import ExperimentConfig, run

SNR_DB = (0.0, 10.0)
TRIALS = 200
SEED = 7


def main():
    up = run(ExperimentConfig(
        "se", link="uplink", snr_db=SNR_DB,
        selection=("random", "successive", "comb"), num_receive=(32,),
        trials=TRIALS, master_seed=SEED))
    print("uplink sum spectral efficiency, ZF combining, %d trials:" % TRIALS)
    print("%-8s %-12s %-12s" % ("snr dB", "selection", "bits/s/Hz"))
    for row in up.rows:
        print("%-8g %-12s %6.2f +/- %.2f" % (row[0], row[1], row[3], row[4]))
    print()

    down = run(ExperimentConfig(
        "se", link="downlink", snr_db=SNR_DB, selection=("random",),
        algorithm=("mnomp",), num_receive=(32,), trials=TRIALS,
        master_seed=SEED))
    print("downlink sum spectral efficiency, ZF precoding, %d trials:"
          % TRIALS)
    print("%-8s %-16s %-12s" % ("snr dB", "system", "bits/s/Hz"))
    for row in down.rows:
        print("%-8g %-16s %6.2f +/- %.2f" % (row[0], row[1], row[4], row[5]))
    print()
    print("the parametric transfer filters estimation noise through the")
    print("path model, so the asymmetrical system can beat the elementwise")
    print("full digital estimate while staying under the perfect-CSI bound.")


if __name__ == "__main__":
    main()
