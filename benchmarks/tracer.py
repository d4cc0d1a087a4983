"""Per-layer tracing from outside the package.

The tracer swaps the module attributes that each caller looks up for
timing wrappers and restores them afterwards; asymx itself is not edited.
Every wrapped call records an in-memory span (id, parent id, name, thread,
start, end, attributes).  A thread-local parent stack keeps the spans of
pool threads apart; a top-level span on a pool thread gets the run span
as parent, so self time is well defined with threads too.

Which attribute is patched matters: ``harness`` imported its callees by
name, so the wrappers replace ``asymx.harness.<fn>``; ``transfer`` looks
up the steering functions in its own namespace; ``uplink.make_selection``
looks up ``select_*`` in ``asymx.uplink``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A missing attribute is an error, so a
# refactor that renames one of these cannot silently zero a layer.
TARGETS = (
    ("asymx.harness", "seed_stream", "harness.seed_stream"),
    ("asymx.harness", "draw_path_set", "channel.draw_path_set"),
    ("asymx.harness", "user_channels", "channel.user_channels"),
    ("asymx.harness", "generate_pilots", "uplink.generate_pilots"),
    ("asymx.harness", "received_pilot", "uplink.received_pilot"),
    ("asymx.harness", "estimate_lmmse", "uplink.estimate_lmmse"),
    ("asymx.harness", "estimate_ls", "uplink.estimate_ls"),
    ("asymx.harness", "uplink_sinr", "uplink.uplink_sinr"),
    ("asymx.harness", "dft_transfer", "transfer.dft"),
    ("asymx.harness", "mnomp_transfer", "transfer.mnomp"),
    ("asymx.harness", "nmse", "downlink.nmse"),
    ("asymx.harness", "zf_precoder", "downlink.zf_precoder"),
    ("asymx.harness", "mrt_precoder", "downlink.mrt_precoder"),
    ("asymx.harness", "downlink_se", "downlink.downlink_se"),
    ("asymx.harness", "power", "econ.power"),
    ("asymx.harness", "energy_efficiency", "econ.energy_efficiency"),
    ("asymx.harness", "ExperimentResult.csv_text", "harness.csv_text"),
    ("asymx.transfer", "steering_masked", "channel.steering_masked"),
    ("asymx.transfer", "steering_downlink", "channel.steering_downlink"),
    ("asymx.uplink", "select_successive", "arrays.select_successive"),
    ("asymx.uplink", "select_comb", "arrays.select_comb"),
    ("asymx.uplink", "select_random", "arrays.select_random"),
)

RUN_SPAN = "harness.run"
TRANSFERS = ("transfer.dft", "transfer.mnomp")
STEERING = ("channel.steering_masked", "channel.steering_downlink")
SELECTS = ("arrays.select_successive", "arrays.select_comb",
           "arrays.select_random")
ESTIMATE = ("uplink.generate_pilots", "uplink.received_pilot",
            "uplink.estimate_lmmse", "uplink.estimate_ls")
PRECODE = ("downlink.zf_precoder", "downlink.mrt_precoder")
ECON = ("econ.power", "econ.energy_efficiency")

# Metrics that must repeat exactly between traced runs of one config.
COUNT_METRICS = (
    "transfer.mnomp.calls", "transfer.dft.calls",
    "transfer.mnomp.steering_calls_per_call", "transfer.paths_found_mean",
    "transfer.truncated_frac", "channel.user_channels.calls",
    "channel.draws_per_user_trial", "arrays.select.calls",
    "uplink.estimate.calls", "uplink.sinr.calls", "downlink.precode.calls",
    "econ.calls", "harness.seed_stream.calls",
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("transfer.s", "s"), ("transfer.share", "ratio"),
    ("transfer.mnomp.calls", "count"), ("transfer.mnomp.us_p50", "us"),
    ("transfer.mnomp.us_p99", "us"), ("transfer.mnomp.n16.us_p50", "us"),
    ("transfer.mnomp.n32.us_p50", "us"), ("transfer.dft.calls", "count"),
    ("transfer.dft.us_p50", "us"), ("transfer.dft.us_p99", "us"),
    ("transfer.mnomp.steering_calls_per_call", "count"),
    ("transfer.paths_found_mean", "count"),
    ("transfer.truncated_frac", "ratio"),
    ("transfer.residual_ratio_mean", "ratio"),
    ("channel.user_channels.calls", "count"),
    ("channel.user_channels.s", "s"), ("channel.draw_path_set.s", "s"),
    ("channel.draws_per_user_trial", "count"),
    ("arrays.select.calls", "count"), ("arrays.select.s", "s"),
    ("uplink.estimate.calls", "count"), ("uplink.estimate.s", "s"),
    ("uplink.sinr.calls", "count"), ("uplink.sinr.s", "s"),
    ("downlink.precode.calls", "count"), ("downlink.precode.s", "s"),
    ("downlink.se.s", "s"), ("downlink.nmse.s", "s"),
    ("econ.calls", "count"), ("econ.s", "s"),
    ("harness.run_s", "s"), ("harness.self_s", "s"),
    ("harness.seed_stream.calls", "count"), ("harness.seed_stream.s", "s"),
    ("harness.csv_text.s", "s"),
)


class TraceTargetMissing(RuntimeError):
    """A module attribute the tracer wraps no longer exists."""


def _transfer_attrs(args, kwargs, result):
    selection = kwargs.get("selection", args[1] if len(args) > 1 else None)
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    return (selection.num_receive, result.paths_found, bool(result.truncated),
            result.residual_energy / config.threshold)


class Tracer:
    """Span recorder; ``spans`` holds tuples until the caller drains it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = observe(args, kwargs, result) if observe else None
            self.spans.append((span_id, parent, name, threading.get_ident(),
                               start, end, attrs))
            return result
        return traced

    @contextmanager
    def run_span(self):
        """Span around one ``asymx.run`` call; pool threads attach to it."""
        span_id = next(self._ids)
        self.root = span_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.root = None
            self.spans.append((span_id, None, RUN_SPAN,
                               threading.get_ident(), start, end, None))

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner else None
                if not callable(original):
                    raise TraceTargetMissing(
                        f"trace target {module_name}.{attr} is gone; update "
                        f"benchmarks/tracer.py TARGETS to the new name")
                observe = _transfer_attrs if span_name in TRANSFERS else None
                setattr(owner, leaf, self.wrap(span_name, original, observe))
                saved.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _quantile_us(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q) * 1e6) if durations else 0.0


def summarize_call(spans: list[tuple], trials: int, users: int) -> dict:
    """Per-layer metrics of one traced ``asymx.run`` call.

    Layer ``.s`` figures are inclusive span time summed over threads
    (thread-seconds); ``transfer.share`` and ``harness.self_s`` use the
    wall-clock union of intervals, so they stay within the run span.
    """
    (root,) = [s for s in spans if s[2] == RUN_SPAN]
    run_s = root[5] - root[4]
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def seconds(*names: str) -> float:
        return sum(s[5] - s[4] for n in names for s in by_name.get(n, ()))

    transfers = [s for n in TRANSFERS for s in by_name.get(n, ())]
    mnomp_ids = {s[0] for s in by_name.get("transfer.mnomp", ())}
    mnomp_steering = sum(1 for n in STEERING for s in by_name.get(n, ())
                         if s[1] in mnomp_ids)
    attrs = [s[6] for s in transfers]
    top_level = [(s[4], s[5]) for s in spans if s[1] == root[0]]
    mnomp = max(calls("transfer.mnomp"), 1)
    return {
        "transfer.s": seconds(*TRANSFERS),
        "transfer.share": _covered([(s[4], s[5]) for s in transfers]) / run_s,
        "transfer.mnomp.calls": calls("transfer.mnomp"),
        "transfer.dft.calls": calls("transfer.dft"),
        "transfer.mnomp.steering_calls_per_call": mnomp_steering / mnomp,
        "transfer.paths_found_mean":
            float(np.mean([a[1] for a in attrs])) if attrs else 0.0,
        "transfer.truncated_frac":
            float(np.mean([a[2] for a in attrs])) if attrs else 0.0,
        "transfer.residual_ratio_mean":
            float(np.mean([a[3] for a in attrs])) if attrs else 0.0,
        "channel.user_channels.calls": calls("channel.user_channels"),
        "channel.user_channels.s": seconds("channel.user_channels"),
        "channel.draw_path_set.s": seconds("channel.draw_path_set"),
        "channel.draws_per_user_trial":
            calls("channel.draw_path_set") / (trials * users),
        "arrays.select.calls": calls(*SELECTS),
        "arrays.select.s": seconds(*SELECTS),
        "uplink.estimate.calls":
            calls("uplink.estimate_lmmse", "uplink.estimate_ls"),
        "uplink.estimate.s": seconds(*ESTIMATE),
        "uplink.sinr.calls": calls("uplink.uplink_sinr"),
        "uplink.sinr.s": seconds("uplink.uplink_sinr"),
        "downlink.precode.calls": calls(*PRECODE),
        "downlink.precode.s": seconds(*PRECODE),
        "downlink.se.s": seconds("downlink.downlink_se"),
        "downlink.nmse.s": seconds("downlink.nmse"),
        "econ.calls": calls(*ECON),
        "econ.s": seconds(*ECON),
        "harness.run_s": run_s,
        "harness.self_s": run_s - _covered(top_level),
        "harness.seed_stream.calls": calls("harness.seed_stream"),
        "harness.seed_stream.s": seconds("harness.seed_stream"),
        "harness.csv_text.s": seconds("harness.csv_text"),
    }


def transfer_durations(spans: list[tuple]) -> dict[str, list[float]]:
    """Per-call durations of the transfer spans, split by algorithm and N."""
    out: dict[str, list[float]] = {}
    for span in spans:
        if span[2] in TRANSFERS:
            duration = span[5] - span[4]
            out.setdefault(span[2], []).append(duration)
            out.setdefault(f"{span[2]}.n{span[6][0]}", []).append(duration)
    return out


def combine(per_call: list[tuple[int, dict]],
            durations: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Median over traced calls, pooled percentiles, and count checks.

    ``per_call`` holds (config index, metrics) per traced call; count
    metrics must repeat exactly between traced calls of one config.
    """
    problems = []
    merged = {}
    for name, _unit in LAYER_METRICS:
        values = [m[name] for _, m in per_call if name in m]
        for index in sorted({i for i, _ in per_call}):
            counts = [m[name] for i, m in per_call if i == index and name in m]
            if name in COUNT_METRICS and len(set(counts)) > 1:
                problems.append(f"count {name} differs between traced runs "
                                f"of config {index}: {counts}")
        if values:
            merged[name] = float(np.median(values))
    merged["transfer.mnomp.us_p50"] = _quantile_us(
        durations.get("transfer.mnomp", []), 50)
    merged["transfer.mnomp.us_p99"] = _quantile_us(
        durations.get("transfer.mnomp", []), 99)
    merged["transfer.mnomp.n16.us_p50"] = _quantile_us(
        durations.get("transfer.mnomp.n16", []), 50)
    merged["transfer.mnomp.n32.us_p50"] = _quantile_us(
        durations.get("transfer.mnomp.n32", []), 50)
    merged["transfer.dft.us_p50"] = _quantile_us(
        durations.get("transfer.dft", []), 50)
    merged["transfer.dft.us_p99"] = _quantile_us(
        durations.get("transfer.dft", []), 99)
    return merged, problems
