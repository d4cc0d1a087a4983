"""asymx benchmark: Monte Carlo trial throughput, set-up time and memory.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all          # every workload

Run from the root of a checkout; asymx is imported from its ``src``.  One
workload process (child.py) does a warm-up run and measures for S
seconds; the set-up time is measured in fresh interpreters before and
after it.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run and its overhead.  Human-readable
lines come first; the last stdout line is the JSON result.  A full report
goes to ``.bench_out/``.  See README.md for what each workload exercises.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

import workloads as wl

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
CHILD_GRACE_S = 120.0
PROBE_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"trials_per_s": "cells/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
TRACE_UNITS = {"setup.uplink_import_s": "s",
               "trace.trials_per_s_untraced": "cells/s",
               "trace.trials_per_s_traced": "cells/s",
               "trace.slowdown": "ratio"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(wl.SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_setup(workload: wl.Workload, seed: int, importtime: bool
                ) -> tuple[float, float | None]:
    """Wall time of one fresh set-up process, and asymx.uplink import time."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(wl.BENCH_DIR / "setup_probe.py"), workload.recipe,
           *(f"{k}={v}" for k, v in workload.values(seed).items())]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=wl.ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-3:])
        raise BenchmarkError(f"set-up probe failed:\n{tail}")
    uplink = None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "asymx.uplink":
            uplink = int(parts[1]) * 1e-6
    return elapsed, uplink


def setup_samples(workload: wl.Workload, seed: int, count: int
                  ) -> list[float]:
    return [probe_setup(workload, seed, False)[0] for _ in range(count)]


def uplink_import_s(workload: wl.Workload, seed: int) -> float:
    imports = [probe_setup(workload, seed, True)[1]
               for _ in range(IMPORT_SAMPLES)]
    if None in imports:
        raise BenchmarkError("asymx.uplink missing from -X importtime output")
    return median(imports)


def run_child(workload: wl.Workload, seed: int, seconds: float,
              trace: bool) -> dict:
    cmd = [sys.executable, str(wl.BENCH_DIR / "child.py"), workload.name,
           str(seed), str(seconds), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=wl.ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload.name} did not finish") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload.name} exited with "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    if not (wl.ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def bench_workload(workload: wl.Workload, seed: int, seconds: float,
                   trace: bool) -> dict:
    """Set-up probes plus one workload process; the full report."""
    load_start = os.getloadavg()
    probe_setup(workload, seed, trace)  # warm the file cache and .pyc files
    if trace:
        setup = {"setup.uplink_import_s": uplink_import_s(workload, seed)}
        child = run_child(workload, seed, seconds, trace)
        samples = []
    else:
        # Set-up samples before and after the workload process, tens of
        # seconds apart, because the machine's speed drifts over that time.
        # They are not scaled by the speed probe: in this process, around
        # each sample, that made the figure less steady, not more.
        samples = setup_samples(workload, seed, SETUP_SAMPLES // 2 + 1)
        child = run_child(workload, seed, seconds, trace)
        samples += setup_samples(workload, seed, SETUP_SAMPLES // 2)
        setup = {"setup_s": median(samples)}
    nproc = os.cpu_count()
    context = {
        **child["context"],
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_sha": git_sha(),
    }
    if samples:
        context["setup_samples_s"] = samples
    if workload.workers > 1:
        context["note"] = (f"workers={workload.workers} on a machine with "
                           f"nproc={nproc} cores")
    units = TRACE_UNITS if trace else END_TO_END_UNITS
    if trace:
        from tracer import LAYER_METRICS
        units = {**dict(LAYER_METRICS), **units}
    values = {**child["metrics"], **setup}
    report = {
        "correct": child["failed"] == 0 and not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_frac": child["failed"] / max(child["attempted"], 1),
        "problems": child["problems"],
        "call_seconds": child["call_seconds"],
        # A layer that never ran, or a traced run that always raised,
        # leaves no value; it reads 0 and the failure shows in "correct".
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
        "context": context,
    }
    wl.OUT_DIR.mkdir(exist_ok=True)
    path = wl.OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    name = report["context"]["workload"]
    for metric, entry in report["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(f"{name} failed_frac {report['failed_frac']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} runs)")
    for problem in report["problems"]:
        print(f"{name} problem: {problem}")
    print(json.dumps({"context": report["context"]}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [bench_workload(wl.WORKLOADS[n], args.seed, args.seconds,
                                  bool(args.trace)) for n in names]
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['context']['workload']}.{m}": e
                   for r in reports for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
