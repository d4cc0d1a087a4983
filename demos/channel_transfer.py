#!/usr/bin/env python3
"""From an uplink snapshot on N chains to the full M-antenna downlink.

With frequency-division duplexing off the table, the downlink channel
has to be rebuilt from what the N receive chains saw.  Both transfer
algorithms share the same idea, estimate the multipath parameters and
re-synthesize the channel on all M antennas, but differ in how finely
they place the paths:

  dft    picks peaks of an oversampled spatial periodogram (on-grid)
  mnomp  refines each path off-grid with Newton steps plus cyclic
         re-fitting of all paths

The script first walks through one noiseless recovery, then compares
the two algorithms over a small noisy Monte Carlo run.
"""

import numpy as np

from asymx import (
    ExperimentConfig,
    PathSet,
    TransferConfig,
    default_threshold,
    dft_transfer,
    downlink_channel,
    mnomp_transfer,
    nmse_db,
    run,
    select_random,
    uplink_channel,
)

NUM_TRANSMIT = 128
NUM_RECEIVE = 32
TRUE_FREQS = (-0.41, 0.118, 0.63)
TRUE_GAINS = (1.0 + 0.3j, -0.6 + 0.5j, 0.35 - 0.2j)
SEED = 12


def walkthrough():
    rng = np.random.default_rng(SEED)
    # the selection carries the array: N wired elements of M
    selection = select_random(NUM_TRANSMIT, NUM_RECEIVE, rng, pinned=True)
    paths = PathSet(np.array(TRUE_GAINS), np.arcsin(np.array(TRUE_FREQS)))
    h_up = uplink_channel(paths, selection)
    h_down = downlink_channel(paths, NUM_TRANSMIT)
    print("true spatial frequencies:", np.round(TRUE_FREQS, 4).tolist())
    # noiseless stop rule: the refinement residual stalls around 1e-7 of
    # the channel energy, so 1e-6 stops cleanly and 1e-9 would pad the
    # model with spurious paths
    for name, config in (
            ("dft", TransferConfig(8, 1e-6)),
            ("mnomp", TransferConfig(4, 1e-6, newton_rounds=8,
                                     cyclic_rounds=4))):
        result = (dft_transfer if name == "dft" else mnomp_transfer)(
            h_up, selection, config)
        err = nmse_db(result.downlink_estimate, h_down)
        print("%-6s found %d paths at %s, downlink NMSE %7.1f dB"
              % (name, len(result.gains),
                 np.round(np.sort(result.spatial_freqs), 4).tolist(), err))
    print()


def monte_carlo():
    config = ExperimentConfig(
        "transfer-nmse", snr_db=(0.0, 10.0, 20.0), algorithm=("dft", "mnomp"),
        selection=("random",), num_receive=(NUM_RECEIVE,), paths_per_user=3,
        trials=200, master_seed=SEED)
    result = run(config)
    print("noisy recovery, %d trials per point, threshold %.3g at 20 dB:"
          % (200, default_threshold(NUM_RECEIVE, 100.0)))
    print("%-8s %-8s %-10s %-10s" % ("snr dB", "algo", "NMSE dB", "paths"))
    for row in result.rows:
        print("%-8g %-8s %-10.2f %-10.2f" % (row[0], row[1], row[4], row[5]))
    print()
    print("the off-grid refinement pays off most once noise stops masking")
    print("the grid quantization error.")


def main():
    walkthrough()
    monte_carlo()


if __name__ == "__main__":
    main()
