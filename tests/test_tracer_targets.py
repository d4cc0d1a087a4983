"""The benchmark tracer finds every library function it wraps.

``benchmarks/tracer.py`` patches functions by module and name; a rename or
a move in the library makes it raise ``TraceTargetMissing``.  Loading it
here puts that check in the default test run.  The tracer also reads one
scalar ``TransferResult`` per transfer call, so the trial pipeline must
keep transferring one user at a time.  ``benchmarks/child.py`` summarizes
every traced run with ``tracer.summarize_call`` and marks the run
incorrect when a workload's ``transfer.dft.calls`` or
``transfer.mnomp.calls`` reads 0, so the summary of a traced transfer run
must count every call of both.  A chunk draws all its users' paths in one
``draw_path_set`` call and precodes its (trial, SNR) slices in stacked
calls, and every count the tracer reads must repeat between traced runs of
one config, or the run is marked incorrect.
"""

import importlib.util
from pathlib import Path

import numpy as np

import asymx.harness as harness
from asymx.config import ExperimentConfig

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    original = harness.mnomp_transfer
    with tracer.Tracer().installed():
        assert harness.mnomp_transfer is not original
    assert harness.mnomp_transfer is original


def test_transfers_stay_one_traced_call_per_user(monkeypatch):
    cfg = ExperimentConfig(
        "transfer-nmse", num_transmit=64, num_receive=(8, 16), num_users=3,
        paths_per_user=2, snr_db=(0.0, 20.0), selection=("random", "comb"),
        algorithm=("dft", "mnomp"), trials=2, master_seed=5)
    results = []
    for name in ("dft_transfer", "mnomp_transfer"):
        def recording(*args, _transfer=getattr(harness, name), **kwargs):
            results.append(_transfer(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, name, recording)
    tracer = load_tracer()
    recorder = tracer.Tracer()
    with recorder.installed(), recorder.run_span():
        harness.run(cfg)
    # trials x setups (selection x N) x SNRs x users
    calls = 2 * (2 * 2) * 2 * 3
    metrics = tracer.summarize_call(recorder.spans, cfg.trials,
                                    cfg.num_users)
    for name in tracer.TRANSFERS:
        spans = [span for span in recorder.spans if span[2] == name]
        assert len(spans) == calls, name
        assert all(np.ndim(span[6][1]) == 0 for span in spans)
        assert metrics[f"{name}.calls"] == len(spans) > 0
    assert len(results) == 2 * calls
    assert all(np.ndim(r.paths_found) == 0 and np.ndim(r.truncated) == 0
               for r in results)


def test_one_path_draw_per_chunk_and_counts_repeat(monkeypatch):
    # 5 trials at 2 per chunk: three chunks, so three draws
    cfg = ExperimentConfig(
        "se", link="uplink", num_transmit=32, num_receive=(8,), num_users=3,
        paths_per_user=2, snr_db=(0.0, 10.0), selection=("random",),
        detector="zf", trials=5, master_seed=9)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES",
                        2 * harness._trial_entries(cfg, harness._setups(cfg)))
    chunks = 3
    tracer = load_tracer()
    summaries = []
    for _ in range(2):
        recorder = tracer.Tracer()
        with recorder.installed(), recorder.run_span():
            harness.run(cfg)
        draws = [span for span in recorder.spans
                 if span[2] == "channel.draw_path_set"]
        assert len(draws) == chunks
        summaries.append(tracer.summarize_call(recorder.spans, cfg.trials,
                                               cfg.num_users))
    first, second = summaries
    assert first["channel.draws_per_user_trial"] == (
        chunks / (cfg.trials * cfg.num_users))
    assert first["channel.user_channels.calls"] == chunks
    for name in tracer.COUNT_METRICS:
        assert first[name] == second[name], name


def test_traced_ee_run_transfers_per_user_and_counts_repeat(monkeypatch):
    # ee at workers = 1 over two chunks: the downlink stage precodes a
    # chunk's slices in stacked calls, while the transfers stay one call per
    # trial, SNR and user, and every count the tracer reads repeats
    cfg = ExperimentConfig(
        "ee", num_transmit=32, num_receive=(8,), num_users=3,
        paths_per_user=2, snr_db=(-10.0, 10.0), selection=("random",),
        algorithm=("mnomp",), precoder="zf", detector="zf", trials=4,
        master_seed=3, workers=1)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES",
                        2 * harness._trial_entries(cfg, harness._setups(cfg)))
    chunks = 2
    tracer = load_tracer()
    summaries = []
    for _ in range(2):
        recorder = tracer.Tracer()
        with recorder.installed(), recorder.run_span():
            harness.run(cfg)
        names = [span[2] for span in recorder.spans]
        # every wrapped downlink function is still the one the harness calls
        assert names.count("downlink.zf_precoder") >= (
            chunks * len(cfg.downlink_systems))
        assert names.count("downlink.downlink_se") == names.count(
            "downlink.zf_precoder")
        summaries.append(tracer.summarize_call(recorder.spans, cfg.trials,
                                               cfg.num_users))
    first, second = summaries
    assert first["transfer.mnomp.calls"] == (
        cfg.trials * len(cfg.snr_db) * cfg.num_users)
    assert first["transfer.dft.calls"] == 0
    assert first["channel.user_channels.calls"] == (
        chunks * len(harness._setups(cfg)))
    for name in tracer.COUNT_METRICS:
        assert first[name] == second[name], name
