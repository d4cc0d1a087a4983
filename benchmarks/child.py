"""Workload process: one warm-up run, then timed and optionally traced runs.

    python3 benchmarks/child.py WORKLOAD SEED SECONDS TRACE

The load is a closed loop with one client: each ``asymx.run(config,
out_dir)`` starts after the previous one returned.  The workload seed
gives SEEDS_PER_RUN configs that differ only in their master seed, and
the runs go through them in turn.  Every run writes its CSV; each CSV must
match the first one of its config byte for byte, and the first CSVs of
all configs together must pass the statistical output check.  With
TRACE=1 untraced and traced runs of one config alternate, so the tracing
overhead is a paired ratio measured in the same process.  The last stdout
line is one JSON object for run.py.
"""

from __future__ import annotations

import gzip
import json
import resource
import sys
from statistics import median
from time import perf_counter

import workloads as wl

# Enough calls that every config runs and the first one twice, the
# warm-up included; with tracing, enough pairs that every config is traced
# and the first twice.
MIN_TIMED_CALLS = wl.SEEDS_PER_RUN
MIN_TRACED_PAIRS = wl.SEEDS_PER_RUN + 1


class Outcomes:
    """Attempted and failed runs; a failure raised or failed a check."""

    def __init__(self, workload: wl.Workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict[int, bytes] = {}   # config index -> its first CSV
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problems: list[str]) -> None:
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.note(problems)

    def raised(self, exc: BaseException) -> None:
        self.attempted += 1
        self._fail([f"run raised {type(exc).__name__}: {exc}"])

    def produced(self, index: int, csv: bytes) -> None:
        self.attempted += 1
        if csv != self.first.setdefault(index, csv):
            self._fail([f"CSV of config {index} differs from its first run"])

    def finish(self) -> None:
        """Check the first CSV of every config; a failed check fails all."""
        problems = wl.check_outputs(
            self.workload, [csv.decode() for _, csv in sorted(
                self.first.items())], self.reference)
        if len(self.first) < wl.SEEDS_PER_RUN:
            problems.append(f"only {len(self.first)} of "
                            f"{wl.SEEDS_PER_RUN} configs produced a CSV")
        if problems:
            self.failed = self.attempted
            self.note(problems)


def timed_runs(asymx, configs, out_dir, outcomes, seconds, min_calls,
               index=None, tracer=None, after=None) -> list[float]:
    """Closed-loop runs for ``seconds`` (at least ``min_calls``); wall times.

    Each run takes the next config in turn, or config ``index`` if given.
    """
    durations: list[float] = []
    deadline = perf_counter() + seconds
    calls = 0
    while calls < min_calls or perf_counter() < deadline:
        calls += 1
        pick = outcomes.attempted % len(configs) if index is None else index
        config = configs[pick]
        start = perf_counter()
        try:
            if tracer is None:
                asymx.run(config, out_dir)
            else:
                with tracer.run_span():
                    asymx.run(config, out_dir)
        except Exception as exc:  # a failing run is counted, not fatal
            outcomes.raised(exc)
            continue
        durations.append(perf_counter() - start)
        csv_path = out_dir / f"{config.experiment.replace('-', '_')}.csv"
        outcomes.produced(pick, csv_path.read_bytes())
        if after is not None:
            after(pick)
    return durations


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3]
    asymx = wl.import_asymx()
    import numpy
    import scipy

    workload = wl.WORKLOADS[name]
    configs = [wl.make_config(asymx, workload, master)
               for master in wl.master_seeds(seed)]
    config = configs[0]
    outcomes = Outcomes(workload, wl.load_reference()["workloads"][name])
    out_dir = wl.OUT_DIR / f"{name}-seed{seed}"

    warm = timed_runs(asymx, configs, out_dir, outcomes, 0.0, 1)
    rows = len(wl.parse_csv(outcomes.first[0].decode())[1]) if warm else 0
    cells = config.trials * rows

    def rate(durations: list[float]) -> float:
        return cells / median(durations) if durations else 0.0

    metrics: dict[str, float] = {}
    call_seconds: list[float] = []
    extra: dict[str, float] = {}
    if trace == "0":
        # A speed probe before the first call and after each one; each
        # call is scaled by the mean of the probes around it.
        probes = [wl.speed_probe()]
        durations = timed_runs(
            asymx, configs, out_dir, outcomes, seconds, MIN_TIMED_CALLS,
            after=lambda pick: probes.append(wl.speed_probe()))
        call_seconds = durations
        metrics["trials_per_s"] = rate(wl.scale_to_nominal(durations, probes))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        extra = {"trials_per_s_wall": rate(durations),
                 "probe_s_median": median(probes)}
    else:
        from tracer import Tracer, combine, summarize_call, transfer_durations

        tracer = Tracer()
        per_call: list[tuple[int, dict]] = []
        pooled: dict[str, list[float]] = {}
        spans_path = wl.OUT_DIR / f"{name}-seed{seed}-spans.jsonl.gz"

        def drain(pick: int) -> None:
            spans, tracer.spans = tracer.spans, []
            per_call.append((pick, summarize_call(spans, config.trials,
                                                  config.num_users)))
            for key, values in transfer_durations(spans).items():
                pooled.setdefault(key, []).extend(values)
            for span in spans:
                spans_file.write(json.dumps(
                    [len(per_call), pick, *span[:6], span[6]]) + "\n")

        # Untraced and traced runs of one config alternate, so both see the
        # same machine and the same work, and the overhead is a paired
        # ratio.  A failed run ends the minimum early, so a traced run that
        # always raises stops at the deadline and reports its failures.
        untraced: list[float] = []
        traced: list[float] = []
        pairs = 0
        deadline = perf_counter() + seconds
        with gzip.open(spans_path, "wt") as spans_file:
            while (perf_counter() < deadline or
                   (pairs < MIN_TRACED_PAIRS and not outcomes.failed)):
                pick = pairs % len(configs)
                pairs += 1
                plain = timed_runs(asymx, configs, out_dir, outcomes, 0.0, 1,
                                   pick)
                tracer.spans = []  # drop what a failed traced run left
                with tracer.installed():
                    timed = timed_runs(asymx, configs, out_dir, outcomes,
                                       0.0, 1, pick, tracer, drain)
                if plain and timed:
                    untraced += plain
                    traced += timed
        call_seconds = untraced
        metrics, problems = combine(per_call, pooled)
        for algorithm in ("dft", "mnomp"):
            count = metrics.get(f"transfer.{algorithm}.calls", 0)
            if (count > 0) != (algorithm in workload.transfers):
                problems.append(
                    f"transfer.{algorithm}.calls is {count:g} on {name}; "
                    f"expected {'> 0' if algorithm in workload.transfers else '0'}")
        outcomes.note(problems)
        metrics["trace.trials_per_s_untraced"] = rate(untraced)
        metrics["trace.trials_per_s_traced"] = rate(traced)
        metrics["trace.slowdown"] = median(
            [t / u for t, u in zip(traced, untraced)] or [0.0])
    outcomes.finish()

    print(json.dumps({
        "metrics": metrics,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems,
        "call_seconds": call_seconds,
        "context": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "workers": config.workers,
            "trials": config.trials,
            "rows": rows,
            "master_seeds": [c.master_seed for c in configs],
            **extra,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
