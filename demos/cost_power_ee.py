#!/usr/bin/env python3
"""Hardware cost, power draw, and energy efficiency of four designs.

  adbn  asymmetrical: M transmit chains, N receive chains
  dbm   full digital with M chains both ways
  hbfn  hybrid fully connected with N chains
  hbsn  hybrid sub-connected with N chains

Cost is in normalized component units, power in watts, and energy
efficiency weighs uplink and downlink spectral efficiency by the slot
split before dividing by the power draw.
"""

from asymx import Architecture, ExperimentConfig, cost, power, run

NUM_TRANSMIT = 128
NUM_RECEIVE = 16
TRIALS = 100
SEED = 21


def main():
    print("M = %d, N = %d" % (NUM_TRANSMIT, NUM_RECEIVE))
    print("%-6s %-10s %-10s" % ("kind", "cost", "power W"))
    for kind in ("adbn", "dbm", "hbfn", "hbsn"):
        n = NUM_TRANSMIT if kind == "dbm" else NUM_RECEIVE
        arch = Architecture(kind, NUM_TRANSMIT, n)
        print("%-6s %-10.0f %-10.2f" % (kind, cost(arch), power(arch)))
    print()

    result = run(ExperimentConfig(
        "ee", snr_db=(10.0,), num_transmit=NUM_TRANSMIT,
        num_receive=(NUM_RECEIVE,), selection=("random",),
        algorithm=("mnomp",), trials=TRIALS, master_seed=SEED))
    print("energy efficiency at 10 dB, %d trials:" % TRIALS)
    print("%-16s %-10s %-10s %-10s %-12s" % ("system", "SE up", "SE down",
                                             "power W", "Mbits/joule"))
    for row in result.rows:
        print("%-16s %-10.2f %-10.2f %-10.1f %-12.2f"
              % (row[1], row[2], row[3], row[4], row[5] / 1e6))
    print()
    print("dropping to N receive chains cuts a quarter of the power while")
    print("the parametric transfer keeps most of the downlink rate, so the")
    print("asymmetrical design beats the square full digital system on")
    print("bits per joule; the small full digital system saves even more")
    print("power but gives up most of the rate.")


if __name__ == "__main__":
    main()
