"""Benchmark workloads, their generated configs, and the output check.

Each workload is a bundled recipe run at a reduced trial count.  The only
inputs the benchmark hands to asymx are the recipe's values, the trial
count, the worker count and a ``master_seed`` derived from the workload
seed.

One benchmark run turns its workload seed into SEEDS_PER_RUN master
seeds and runs their configs in turn.  The output check is statistical,
not a digest: every summary cell is compared with the mean of the same
cell over many reference seeds, in units of the cell's standard error at
this trial count, one cell at a time for gross errors and pooled over all
cells and master seeds for small ones.  A change of random-stream layout
keeps passing; a kernel that returns different numbers does not.  Repeats
of one config inside one process must still be byte-identical, which the
workload process checks separately.

This module imports neither NumPy nor asymx at load time, so the set-up
probe and the parent process stay light; only speed_probe() pulls in
NumPy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Master seeds per benchmark run: workload seed n runs n, n + SEED_STRIDE,
# n + 2 * SEED_STRIDE, ...  Pooling the check over them divides the seed
# noise of each cell's score by sqrt(SEEDS_PER_RUN); the stride keeps
# them clear of the reference seeds.
SEEDS_PER_RUN = 6
SEED_STRIDE = 1_000_003

# Limits, in standard errors of one run, calibrated with
# ``make_reference.py --calibrate`` (see README.md).  A cell fails when its
# z, averaged over the master seeds, is beyond CELL_LIMIT.  Each column
# fails when the mean of those averaged scores is beyond the workload's
# shift_limit, or their rms about that mean (each deviation clipped at
# CLIP_Z) is beyond its spread_limit.
CELL_LIMIT = 6.0
CLIP_Z = 4.0


# Timings are given at the machine speed at which speed_probe() takes this
# long (about its median on the 2-core VM the benchmark was tuned on).
PROBE_NOMINAL_S = 0.065


def speed_probe() -> float:
    """Wall time of a fixed mix of small NumPy calls and Python loops.

    The shared VM the benchmark was tuned on changes speed by 20-30% over
    tens of seconds, for every process alike.  The probe runs between the
    timed steps, takes about 3% of a run, and runs no asymx code, so a
    change to asymx cannot move it.
    """
    import numpy as np

    start = perf_counter()
    matrix = np.eye(32, dtype=complex) + 0.5j
    steps = np.arange(32)
    total = 0.0
    for i in range(6000):
        v = np.exp(1j * np.pi * steps * (i / 6000.0))
        total += abs(np.vdot(v, matrix @ v))
        total += sum(k * 1.0001 for k in range(16))
    return perf_counter() - start


def scale_to_nominal(durations: list[float], probes: list[float]
                     ) -> list[float]:
    """Each duration at nominal machine speed.

    ``probes[i]`` and ``probes[i + 1]`` are the speed probes taken just
    before and just after ``durations[i]``; their mean is the machine's
    speed during that step.
    """
    return [d * PROBE_NOMINAL_S / ((before + after) / 2)
            for d, before, after in zip(durations, probes, probes[1:])]


@dataclass(frozen=True)
class Workload:
    """One bundled recipe at a reduced trial count."""

    name: str
    recipe: str
    trials: int
    workers: int
    keys: tuple[str, ...]       # CSV columns that identify a row
    checked: tuple[tuple[str, str], ...]  # (summary column, its stderr column)
    transfers: frozenset[str]   # transfer algorithms the workload must call
    shift_limit: float          # |mean| of a column's pooled z
    spread_limit: float         # rms of a column's pooled z about the mean

    def values(self, master_seed: int) -> dict[str, str]:
        """Overrides applied on top of the recipe for one master seed."""
        return {
            "trials": str(self.trials),
            "workers": str(self.workers),
            "master_seed": str(master_seed),
        }


def master_seeds(seed: int) -> list[int]:
    """The master seeds one benchmark run with workload seed ``seed`` uses."""
    return [seed + k * SEED_STRIDE for k in range(SEEDS_PER_RUN)]


WORKLOADS = {
    w.name: w
    for w in (
        # transfer-dominated: DFT and mNOMP over N, selection and SNR
        Workload("transfer_sweep", "transfer_nmse.cfg", 2, 1,
                 ("snr_db", "algorithm", "selection", "N"),
                 (("nmse_db", "nmse_db_stderr"),),
                 frozenset({"dft", "mnomp"}), 0.8, 0.7),
        # no transfer at all: channel draws, estimation, seeding, SINR
        Workload("uplink_se", "se_uplink.cfg", 50, 1,
                 ("snr_db", "selection", "detector"),
                 (("se_bits", "se_bits_stderr"),),
                 frozenset(), 1.4, 0.7),
        # every layer plus the thread pool (workers = 2 = cores of the VM
        # the benchmark was tuned on)
        Workload("ee_threaded", "ee.cfg", 8, 2,
                 ("snr_db", "system"),
                 (("se_uplink", "se_uplink_stderr"),
                  ("se_downlink", "se_downlink_stderr"),
                  ("ee_bits_per_joule", "ee_stderr")),
                 frozenset({"mnomp"}), 1.4, 0.8),
    )
}


def import_asymx():
    """Import asymx from this checkout's ``src`` and nowhere else."""
    if not (SRC / "asymx" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no asymx sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import asymx

    location = Path(asymx.__file__).resolve()
    if SRC not in location.parents:
        raise SystemExit(f"benchmark: asymx imported from {location}, "
                         f"not from {SRC}")
    return asymx


def make_config(asymx, workload: Workload, master_seed: int):
    """Resolve the bundled recipe the way the CLI does and apply overrides."""
    from asymx.cli import resolve_config

    values = asymx.load_config_values(resolve_config(workload.recipe))
    values.update(workload.values(master_seed))
    return asymx.config_from_values(values)


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.strip("\n").split("\n")
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, line.split(","))) for line in lines[1:]]


def cell_key(workload: Workload, row: dict[str, str]) -> str:
    return "|".join(row[k] for k in workload.keys)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def cell_scores(workload: Workload, rows: list[dict[str, str]],
                reference: dict) -> tuple[list[str], dict[tuple[str, str], float]]:
    """Problems of one CSV's own, and the z score of each of its cells.

    z is (value - reference mean) / the cell's spread across the reference
    seeds, which is the standard error of one run at this trial count; the
    factor sqrt(1 + 1/seeds) adds the uncertainty of the reference mean.
    Only cells with a spread get a z score.  A cell whose reference never
    varied is judged here, on its own, by the stderr the run reports, so a
    rare event the reference seeds never met (a path found at -10 dB) is
    not a failure; when that stderr is 0 too, the value must match exactly.
    """
    seeds = reference["seed_count"]
    problems: list[str] = []
    scores: dict[tuple[str, str], float] = {}
    for row in rows:
        key = cell_key(workload, row)
        cell = reference["cells"].get(key)
        if cell is None:
            continue
        for column, stderr_column in workload.checked:
            value, own = float(row[column]), float(row[stderr_column])
            mean, spread = cell[column]
            if not (math.isfinite(value) and math.isfinite(own)):
                problems.append(f"{key} {column}: not finite ({value}, "
                                f"stderr {own})")
                continue
            gap = value - mean
            if spread > 0:
                scores[column, key] = gap / (
                    spread * math.sqrt(1.0 + 1.0 / seeds))
                continue
            if own > 0:
                z = gap / own
            else:
                z = 0.0 if abs(gap) <= 1e-9 * abs(mean) else math.inf
            if abs(z) > CELL_LIMIT:
                problems.append(f"{key} {column}: {z:.1f} own stderr from "
                                f"the constant reference {mean:.6g}")
    return problems, scores


def pooled_scores(scores: list[dict[tuple[str, str], float]]
                  ) -> dict[tuple[str, str], float]:
    """Each cell's z averaged over the runs (one per master seed).

    A defect moves a cell the same way on every seed, while a rare event
    on one seed is divided by the number of seeds.
    """
    shared = set.intersection(*(set(s) for s in scores)) if scores else set()
    return {cell: sum(s[cell] for s in scores) / len(scores)
            for cell in sorted(shared)}


def aggregates(pooled: dict[tuple[str, str], float]
               ) -> dict[str, tuple[float, float]]:
    """Per column: the mean of the pooled z, and their rms about it.

    The mean catches a shift of every cell in one direction.  The rms
    about the mean catches cells moved apart from the rest; it leaves out
    the common shift, which seed noise moves a lot because all cells of a
    run share their channel draws.  Each deviation is clipped at CLIP_Z
    so that one heavy-tailed cell cannot dominate.
    """
    by_column: dict[str, list[float]] = {}
    for (column, _), z in pooled.items():
        by_column.setdefault(column, []).append(z)
    out = {}
    for column, zs in by_column.items():
        mean = sum(zs) / len(zs)
        out[column] = (mean, math.sqrt(
            sum(min(abs(z - mean), CLIP_Z) ** 2 for z in zs) / len(zs)))
    return out


def check_outputs(workload: Workload, csv_texts: list[str],
                  reference: dict) -> list[str]:
    """Problems found in the CSVs of one run's master seeds; [] passes.

    ``csv_texts`` holds one CSV per master seed of the run, so
    SEEDS_PER_RUN of them when every config ran; the limits are
    calibrated for that many.
    """
    if reference["trials"] != workload.trials:
        return [f"reference made at {reference['trials']} trials, workload "
                f"runs {workload.trials}; rerun make_reference.py"]
    needed = workload.keys + tuple(c for pair in workload.checked for c in pair)
    problems: list[str] = []
    scores = []
    for text in csv_texts:
        columns, rows = parse_csv(text)
        missing = [c for c in needed if c not in columns]
        if missing:
            return [f"CSV lacks columns {missing}"]
        seen = sorted(cell_key(workload, row) for row in rows)
        if seen != sorted(reference["cells"]):
            problems.append(f"CSV rows {seen} do not match the reference "
                            f"cells {sorted(reference['cells'])}")
        cell_problems, cell_z = cell_scores(workload, rows, reference)
        problems += cell_problems
        scores.append(cell_z)
    pooled = pooled_scores(scores)
    for (column, key), z in pooled.items():
        if abs(z) > CELL_LIMIT:
            mean = reference["cells"][key][column][0]
            problems.append(f"{key} {column}: pooled z {z:+.1f} from the "
                            f"reference mean {mean:.6g} (limit "
                            f"{CELL_LIMIT:g})")
    for column, (shift, spread) in aggregates(pooled).items():
        if abs(shift) > workload.shift_limit:
            problems.append(f"{column}: mean z {shift:+.2f} over all cells "
                            f"(limit {workload.shift_limit:g})")
        if spread > workload.spread_limit:
            problems.append(f"{column}: rms z about the mean {spread:.2f} "
                            f"over all cells (limit "
                            f"{workload.spread_limit:g})")
    return problems
