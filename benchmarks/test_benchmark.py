"""Tests of the benchmark itself: output check, seeding and tracer.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import copy
import dataclasses
import functools

import pytest

import tracer
import workloads as wl

asymx = wl.import_asymx()


@functools.lru_cache(maxsize=None)
def _csv(name: str, master_seed: int, newton_rounds: int | None = None) -> str:
    config = wl.make_config(asymx, wl.WORKLOADS[name], master_seed)
    if newton_rounds is not None:
        config = dataclasses.replace(config, newton_rounds=newton_rounds)
    return asymx.run(config).csv_text()


def _run_csvs(name: str, seed: int, **kwargs) -> list[str]:
    """The CSVs of one benchmark run's master seeds."""
    return [_csv(name, master, **kwargs) for master in wl.master_seeds(seed)]


@pytest.fixture(scope="module")
def reference() -> dict:
    return wl.load_reference()["workloads"]


def test_seed_reaches_only_the_master_seed():
    workload = wl.WORKLOADS["ee_threaded"]
    masters = wl.master_seeds(5)
    assert masters[0] == 5 and len(set(masters)) == wl.SEEDS_PER_RUN
    configs = [wl.make_config(asymx, workload, m) for m in masters]
    assert [c.master_seed for c in configs] == masters
    assert all(dataclasses.replace(configs[0], master_seed=m) == c
               for m, c in zip(masters, configs))
    assert (configs[0].trials, configs[0].workers) == (workload.trials,
                                                       workload.workers)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_output_check_passes_on_two_seeds(name, reference):
    workload = wl.WORKLOADS[name]
    for seed in (3, 4):
        assert wl.check_outputs(workload, _run_csvs(name, seed),
                                reference[name]) == []


def test_perturbed_cell_is_flagged(reference):
    workload = wl.WORKLOADS["uplink_se"]
    texts = _run_csvs("uplink_se", 3)
    key = wl.cell_key(workload, wl.parse_csv(texts[0])[1][0])
    perturbed = copy.deepcopy(reference["uplink_se"])
    mean, spread = perturbed["cells"][key]["se_bits"]
    perturbed["cells"][key]["se_bits"] = [
        mean + 2 * wl.CELL_LIMIT * spread, spread]
    problems = wl.check_outputs(workload, texts, perturbed)
    assert any(p.startswith(f"{key} se_bits") for p in problems)


# Uniform shift, in standard errors of one run, that the pooled mean must
# flag on any seed: shift_limit plus three standard deviations of the
# pooled mean z over the calibration seeds (see README.md).
UNIFORM_SHIFT = {"transfer_sweep": 1.5, "uplink_se": 2.5, "ee_threaded": 2.5}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("direction", (-1, 1))
def test_every_cell_shifted_is_flagged(name, direction, reference):
    """A small defect: every cell off by a few standard errors of one run."""
    workload = wl.WORKLOADS[name]
    shifted = copy.deepcopy(reference[name])
    for cell in shifted["cells"].values():
        for column, (mean, spread) in cell.items():
            cell[column] = [mean + direction * UNIFORM_SHIFT[name] * spread,
                            spread]
    problems = wl.check_outputs(workload, _run_csvs(name, 3), shifted)
    assert problems and all("over all cells" in p for p in problems)


@pytest.mark.parametrize("name", ("transfer_sweep", "ee_threaded"))
def test_mnomp_without_newton_steps_is_flagged(name, reference):
    """A realistic defect: mNOMP reduced to on-grid OMP."""
    workload = wl.WORKLOADS[name]
    problems = wl.check_outputs(
        workload, _run_csvs(name, 3, newton_rounds=0), reference[name])
    assert any("over all cells" in p for p in problems)


def test_bad_rows_and_values_are_flagged(reference):
    workload = wl.WORKLOADS["uplink_se"]
    texts = _run_csvs("uplink_se", 3)
    short = texts[0].rsplit("\n", 2)[0] + "\n"
    assert wl.check_outputs(workload, [short, *texts[1:]],
                            reference["uplink_se"])
    fewer = dataclasses.replace(workload, trials=workload.trials - 1)
    assert wl.check_outputs(fewer, texts, reference["uplink_se"])
    columns, rows = wl.parse_csv(texts[0])
    rows[0]["se_bits_stderr"] = "nan"
    nan_text = "\n".join([",".join(columns)] + [
        ",".join(row[c] for c in columns) for row in rows]) + "\n"
    problems = wl.check_outputs(workload, [nan_text, *texts[1:]],
                                reference["uplink_se"])
    assert any("not finite" in p for p in problems)


def test_repeats_write_identical_csv():
    workload = wl.WORKLOADS["uplink_se"]
    config = wl.make_config(asymx, workload, 8)
    assert asymx.run(config).csv_text() == asymx.run(config).csv_text()


def _traced_counts(name: str, trials: int) -> dict:
    workload = dataclasses.replace(wl.WORKLOADS[name], trials=trials)
    config = wl.make_config(asymx, workload, 2)
    recorder = tracer.Tracer()
    with recorder.installed():
        with recorder.run_span():
            asymx.run(config)
    metrics = tracer.summarize_call(recorder.spans, config.trials,
                                    config.num_users)
    return {name: metrics[name] for name in tracer.COUNT_METRICS}


def test_trace_counts_repeat_and_follow_workload_shape():
    first = _traced_counts("ee_threaded", 2)
    assert first == _traced_counts("ee_threaded", 2)
    assert first["transfer.mnomp.calls"] > 0
    assert first["transfer.dft.calls"] == 0
    assert first["channel.draws_per_user_trial"] >= 1
    uplink = _traced_counts("uplink_se", 2)
    assert uplink["transfer.mnomp.calls"] == uplink["transfer.dft.calls"] == 0
    assert uplink["uplink.sinr.calls"] > 0


def test_tracer_restores_patched_attributes():
    original = asymx.harness.mnomp_transfer
    with tracer.Tracer().installed():
        assert asymx.harness.mnomp_transfer is not original
    assert asymx.harness.mnomp_transfer is original


def test_missing_trace_target_fails_loudly(monkeypatch):
    original = asymx.harness.seed_stream
    monkeypatch.setattr(tracer, "TARGETS", (
        ("asymx.harness", "seed_stream", "harness.seed_stream"),
        ("asymx.harness", "no_such_function", "harness.gone"),
    ))
    with pytest.raises(tracer.TraceTargetMissing, match="no_such_function"):
        with tracer.Tracer().installed():
            pass
    assert asymx.harness.seed_stream is original
