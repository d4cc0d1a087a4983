"""Regenerate reference.json, or calibrate the output check against it.

    python3 benchmarks/make_reference.py              # write reference.json
    python3 benchmarks/make_reference.py --calibrate 0 246

The reference for a workload is its config run at REFERENCE_SEEDS: per
cell and summary column, the mean over the seeds and the standard error of
a single run (the sample standard deviation across seeds).  Regenerate it
only when a workload's config or the simulated model changes on purpose,
never to make a failing check pass.  ``--calibrate A B`` runs master seeds
A..B-1 in consecutive groups of SEEDS_PER_RUN, as one benchmark run does,
and prints per workload the largest pooled |z| of a cell and, per column,
the distribution of the pooled |mean z| and rms about the mean; CELL_LIMIT
and each workload's shift_limit and spread_limit in workloads.py must sit
well above them.
"""

from __future__ import annotations

import argparse
import json
from statistics import mean, stdev

import workloads as wl

REFERENCE_SEEDS = range(1000, 1040)


def run_csv(asymx, workload: wl.Workload, seed: int) -> str:
    config = wl.make_config(asymx, workload, seed)
    return asymx.run(config).csv_text()


def build(asymx) -> dict:
    out = {}
    for workload in wl.WORKLOADS.values():
        samples: dict[str, dict[str, list[float]]] = {}
        for seed in REFERENCE_SEEDS:
            for row in wl.parse_csv(run_csv(asymx, workload, seed))[1]:
                cell = samples.setdefault(wl.cell_key(workload, row), {})
                for column, _ in workload.checked:
                    cell.setdefault(column, []).append(float(row[column]))
        out[workload.name] = {
            "recipe": workload.recipe,
            "trials": workload.trials,
            "first_seed": REFERENCE_SEEDS.start,
            "seed_count": len(REFERENCE_SEEDS),
            "cells": {key: {c: [mean(v), stdev(v)] for c, v in cols.items()}
                      for key, cols in samples.items()},
        }
        print(f"{workload.name}: {len(samples)} cells")
    return {"workloads": out}


def calibrate(asymx, seeds: range) -> None:
    """Largest pooled scores over groups of SEEDS_PER_RUN master seeds."""
    reference = wl.load_reference()["workloads"]
    size = wl.SEEDS_PER_RUN
    for workload in wl.WORKLOADS.values():
        cells: dict[tuple[str, str], float] = {}
        columns: dict[str, list[float]] = {}
        for first in range(seeds.start, seeds.stop - size + 1, size):
            scores = []
            for seed in range(first, first + size):
                rows = wl.parse_csv(run_csv(asymx, workload, seed))[1]
                scores.append(wl.cell_scores(workload, rows,
                                             reference[workload.name])[1])
            pooled = wl.pooled_scores(scores)
            for cell, z in pooled.items():
                cells[cell] = max(cells.get(cell, 0.0), abs(z))
            for column, (shift, spread) in wl.aggregates(pooled).items():
                columns.setdefault(column, []).extend([shift, spread])
        cell, z = max(cells.items(), key=lambda item: item[1])
        print(f"{workload.name}: largest pooled cell |z| {z:.2f} at "
              f"{cell[1]} {cell[0]}", flush=True)
        for column, values in columns.items():
            shifts = [abs(v) for v in values[0::2]]
            spreads = values[1::2]
            print(f"{workload.name} {column} over {len(shifts)} groups of "
                  f"{size} seeds: |mean z| {mean(shifts):.2f} ± "
                  f"{stdev(shifts):.2f} (sd), up to {max(shifts):.2f}; rms "
                  f"about the mean {mean(spreads):.2f} ± "
                  f"{stdev(spreads):.2f}, up to {max(spreads):.2f}",
                  flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calibrate", nargs=2, type=int, metavar=("A", "B"))
    args = parser.parse_args()
    asymx = wl.import_asymx()
    if args.calibrate:
        calibrate(asymx, range(*args.calibrate))
        return
    wl.REFERENCE_PATH.write_text(json.dumps(build(asymx), indent=1) + "\n")


if __name__ == "__main__":
    main()
