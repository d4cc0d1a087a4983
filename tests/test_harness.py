"""Experiment harness: config checks, seeding, determinism, CSV, CLI."""

import io
import os
import pickle
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymx.cli
import asymx.harness as harness
from asymx.cli import main as cli_main
from asymx.cli import resolve_config
from asymx.config import (
    ConfigError,
    ExperimentConfig,
    config_from_values,
    load_config_values,
)
from asymx.harness import ExperimentResult, run, seed_stream, seed_streams


USABLE_CORES = harness._usable_cores


@pytest.fixture(autouse=True)
def many_cores(monkeypatch):
    """Let the pool tests fork as many children as their workers ask for,
    whatever the cores of the machine; the cap has its own test."""
    monkeypatch.setattr(harness, "_usable_cores", lambda: 8)


def tiny(experiment, **overrides):
    base = dict(
        num_transmit=64,
        num_receive=(16,),
        num_users=4,
        paths_per_user=2,
        snr_db=(10.0,),
        trials=4,
        master_seed=9,
        grid_points=64,
        phase_points=5,
    )
    base.update(overrides)
    return ExperimentConfig(experiment, **base)


# ------------------------------------------------------------ config file


def test_zero_forcing_needs_no_more_users_than_receive_antennas():
    for cfg in (dict(experiment="se", link="uplink"),
                dict(experiment="se", link="downlink",
                     systems=("full_digital_n",)),
                dict(experiment="ee")):
        with pytest.raises(ConfigError, match=r"config\.num_users"):
            ExperimentConfig(num_users=20, num_receive=(16,), **cfg)
    # MRC detection, MRT precoding, and ZF on M antennas stay legal
    ExperimentConfig("se", link="uplink", detector="mrc", num_users=20,
                     num_receive=(16,))
    ExperimentConfig("se", link="downlink", precoder="mrt",
                     systems=("full_digital_n",), num_users=20,
                     num_receive=(16,))
    ExperimentConfig("se", link="downlink", systems=("asym",), num_users=20,
                     num_receive=(16,))
    ExperimentConfig("transfer-nmse", num_users=20, num_receive=(16,))


@pytest.mark.parametrize("experiment, line", [
    ("transfer-nmse", "snr_db = nan"),
    ("se", "snr_db = 0, inf"),
    ("transfer-nmse", "snr_db = 4000"),
    ("se", "snr_db = -4000"),
    ("ee", "snr_db = 4000"),
    ("ee", "snr_db = 0, -4000"),
    ("ee", "snr_db = -3200"),  # 1/rho overflows
])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, experiment, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {experiment}\nnum_users = 2\n{line}\n")
    code = cli_main([experiment, "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"config.{line.split()[0]}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line", [
    "newton_rounds = -1",
])
def test_cli_bad_value_exits_2_naming_the_field_without_csv(
        tmp_path, capsys, line):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = transfer-nmse\nnum_users = 2\n{line}\n")
    code = cli_main(["transfer-nmse", "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"config.{line.split()[0]}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("line", [
    "threshold = 0.5",
    "max_paths = 0",
    "regularizer = -1",
    "cyclic_rounds = -1",
    "angle_min_deg = -270",
    "angle_max_deg = 270",
    "theta1_deg = 95",
    "theta2_deg = 51.315",
    "slot_ratio = 0.5",
    "bandwidth_hz = inf",
    "spacing = 0",
])
def test_cli_rejects_removed_transfer_keys(tmp_path, capsys, line):
    # the transfer's internals live in TransferConfig alone, the path
    # angles, slot share and bandwidth are constants of asymx.harness and
    # asymx.econ, and every experiment runs on the half-wavelength spacing
    # of asymx.arrays; an old recipe that still sets one fails
    # instead of running on other settings
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = transfer-nmse\nnum_users = 2\n{line}\n")
    code = cli_main(["transfer-nmse", "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"config.{line.split()[0]}: unknown key" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_has_no_workers_flag(tmp_path, capsys):
    # every run is serial, so the flag had no effect
    with pytest.raises(SystemExit) as exit_:
        cli_main(["transfer-nmse", "--help"])
    assert exit_.value.code == 0
    assert "--workers" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_:
        cli_main(["transfer-nmse", "--workers", "2", "--trials", "1",
                  "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment", ["transfer-nmse", "se", "ee"])
@pytest.mark.parametrize("lines", [
    "selection = comb\nnum_receive = 24",
    "selection = random\npinned_random = true\nnum_receive = 1",
], ids=["comb", "pinned_random"])
def test_cli_rejects_selections_that_cannot_be_built(
        tmp_path, capsys, experiment, lines):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {experiment}\nnum_users = 1\n{lines}\n")
    code = cli_main([experiment, "--config", str(cfg), "--trials", "1",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "config.num_receive" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_no_experiment_imports_scipy():
    # NumPy is the only runtime dependency: every experiment, snr-loss
    # included, runs without loading SciPy.  numpy.random, too, loads only
    # at the first stream
    src = Path(harness.__file__).parents[1]
    script = (
        "import sys\n"
        "import asymx\n"
        "from asymx.config import EXPERIMENTS\n"
        "print('numpy.random' in sys.modules)\n"
        "runs = [(e, 'downlink') for e in EXPERIMENTS] + [('se', 'uplink')]\n"
        "for name, link in runs:\n"
        "    rows = asymx.run(asymx.ExperimentConfig(\n"
        "        name, link=link, num_transmit=32, num_receive=(8,),\n"
        "        num_users=2, snr_db=(10.0,), trials=1, grid_points=16,\n"
        "        phase_points=3)).rows\n"
        "    assert rows, name\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["False", "[]", ""]


def test_no_run_imports_multiprocessing():
    # the pool forks its children with os.fork, so neither a serial nor a
    # pooled ee run pays for importing multiprocessing
    src = Path(harness.__file__).parents[1]
    script = (
        "import os, sys\n"
        "import asymx.harness as harness\n"
        "from asymx.config import ExperimentConfig\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
        "harness._usable_cores = lambda: 2\n"
        "harness._CHUNK_ENTRIES = 1\n"
        "for workers in (1, 2):\n"
        "    harness.run(ExperimentConfig(\n"
        "        'ee', num_transmit=32, num_receive=(8,), num_users=2,\n"
        "        snr_db=(10.0,), trials=2, workers=workers))\n"
        "print(len(forks), 'multiprocessing' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 False\n"


# ---------------------------------------------------------------- seeding


def test_seed_stream_reproducible_and_decorrelated():
    a = seed_stream(1, 2, 3).standard_normal(8)
    b = seed_stream(1, 2, 3).standard_normal(8)
    c = seed_stream(1, 2, 4).standard_normal(8)
    d = seed_stream(1, 3, 3).standard_normal(8)
    e = seed_stream(2, 2, 3).standard_normal(8)
    assert np.array_equal(a, b)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def numpy_stream(key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


# in-range words and the edges of the vectorized hash: 2**32 and beyond
# take NumPy's own SeedSequence
FIELD = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1, 2**32,
                                                      2**64 + 3])


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(FIELD, FIELD, FIELD, FIELD), max_size=12))
def test_seed_streams_equal_numpy_seeding(keys):
    keys = keys + [(0, 0, 0, 0), (2**32 - 1,) * 4, (2**32, 0, 0, 0)]
    streams = seed_streams(keys)
    assert len(streams) == len(keys)
    for key, rng in zip(keys, streams):
        expected = numpy_stream(key)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert rng.bit_generator.seed_seq.entropy == key
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(8),
                              np.random.SeedSequence(key).generate_state(8))
        assert np.array_equal(rng.standard_normal(5),
                              expected.standard_normal(5))


def test_seed_streams_reject_a_negative_field_as_numpy_does():
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence((1, -1, 0, 0))
    with pytest.raises(ValueError, match=str(numpy_error.value)):
        seed_streams([(1, 2, 0, 0), (1, -1, 0, 0)])


def test_seed_stream_pickles_as_its_seed_sequence():
    rng = seed_stream(1, 2, 3, 4)
    rng.standard_normal(3)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.bit_generator.state == rng.bit_generator.state
    assert copy.bit_generator.seed_seq.entropy == (1, 2, 3, 4)
    assert np.array_equal(copy.standard_normal(4), rng.standard_normal(4))


def test_chunks_seed_in_one_batch_without_numpy_hashing(monkeypatch):
    # every chunk builds its streams in one seed_streams call, and no key
    # below 2**32 falls back to hashing through np.random.SeedSequence
    batches, hashed = [], []
    batch, sequence = harness.seed_streams, np.random.SeedSequence

    def counting_batch(keys):
        batches.append(len(keys))
        return batch(keys)

    def counting_sequence(entropy=None, *args, **kwargs):
        hashed.append(entropy)
        return sequence(entropy, *args, **kwargs)

    monkeypatch.setattr(harness, "seed_streams", counting_batch)
    monkeypatch.setattr(np.random, "SeedSequence", counting_sequence)
    cfg = tiny("se", link="uplink", trials=5, estimator="ls",
               selection=("random", "successive"))
    per_trial = harness._trial_entries(cfg, harness._setups(cfg))
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 2 * per_trial)
    run(cfg)
    # 4 user, 1 selection and 2 noise streams per trial, chunks of 2 trials
    assert batches == [14, 14, 7]
    assert hashed == []
    # a master seed of 2**32 takes NumPy's hashing, which the patch sees
    run(replace(cfg, master_seed=2**32))
    assert len(hashed) == 5 * 7


def recorded_keys(monkeypatch):
    """The (master_seed, trial, tag, index) key of every stream the harness
    builds from now on, in order."""
    keys = []
    original = harness.seed_streams

    def recording(batch):
        streams = original(batch)
        keys.extend(rng.bit_generator.seed_seq.entropy for rng in streams)
        return streams

    monkeypatch.setattr(harness, "seed_streams", recording)
    return keys


def test_trial_stream_keys_never_collide(monkeypatch):
    # 1000 users: the user index reaches the range of the per-setup streams
    keys = recorded_keys(monkeypatch)
    run(tiny("transfer-nmse", num_users=1000, trials=1, algorithm=("dft",),
             selection=("random", "comb"), snr_db=(0.0, 10.0),
             estimator="ls"))
    assert len(keys) >= 1000
    assert len(set(keys)) == len(keys)
    assert len({len(key) for key in keys}) == 1


def test_trial_builds_only_the_streams_it_reads(monkeypatch):
    keys = recorded_keys(monkeypatch)
    uplink = dict(link="uplink", trials=2, snr_db=(0.0, 10.0))
    # perfect CSI draws no pilot noise
    run(tiny("se", estimator="perfect", selection=("random",), **uplink))
    assert {key[2] for key in keys} == {0, 1}
    # successive and comb selections are fixed and read no stream
    keys.clear()
    run(tiny("se", estimator="ls", selection=("successive", "comb"), **uplink))
    assert {key[2] for key in keys} == {0, 2}
    # the README table: tag 0 per user, tag 1 for the random setup (index
    # 1 here), tag 2 per setup
    keys.clear()
    run(tiny("se", estimator="lmmse", selection=("successive", "random"),
             **uplink))
    assert sorted(keys) == sorted(
        [(9, trial, 0, user) for trial in (0, 1) for user in range(4)]
        + [(9, trial, 1, 1) for trial in (0, 1)]
        + [(9, trial, 2, setup) for trial in (0, 1) for setup in (0, 1)])


def test_fixed_selections_built_once_per_setup_and_chunk(monkeypatch):
    # successive and comb read no stream, so one selection serves a chunk;
    # a random one is drawn per trial
    kinds = []
    original = harness.make_selection

    def counting(kind, *args):
        kinds.append(kind)
        return original(kind, *args)

    monkeypatch.setattr(harness, "make_selection", counting)
    cfg = tiny("se", link="uplink", trials=5,
               selection=("successive", "comb", "random"))
    per_trial = harness._trial_entries(cfg, harness._setups(cfg))
    for entries, chunks in ((10**9, 1), (2 * per_trial, 3), (1, 5)):
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", entries)
        kinds.clear()
        run(cfg)
        assert sorted(kinds) == (["comb"] * chunks + ["random"] * 5
                                 + ["successive"] * chunks)


def test_chunk_budget_counts_the_downlink_estimates():
    # a transfer-nmse trial stacks S x K x M downlink estimates, more
    # entries than its pilots (S x N x K) or steering vectors (M x K x P)
    cfg = tiny("transfer-nmse", snr_db=(0.0, 10.0, 20.0))
    assert harness._trial_entries(cfg, harness._setups(cfg)) == 3 * 4 * 64


# ------------------------------------------------------------ experiments


def test_cost_table_csv_is_frozen():
    result = run(ExperimentConfig("cost-table", num_transmit=128,
                                  num_receive=(16,)))
    expected = (
        "architecture,num_transmit,num_receive,cost_usd,power_w\n"
        "adbn,128,16,52432,790.933333\n"
        "dbm,128,128,124672,981.333333\n"
        "hbfn,128,16,382208,485.493333\n"
        "hbsn,128,16,55808,485.493333\n"
    )
    assert result.csv_text() == expected


def test_beam_pattern_comb_grating_lobes():
    result = run(tiny("beam-pattern", num_transmit=128, num_receive=(32,),
                      selection=("comb",), grid_points=17))
    by_w = {row[1]: row[3] for row in result.rows}
    for w in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert by_w[w] == pytest.approx(32.0, abs=1e-9)


def test_snr_loss_closed_equals_numeric_in_csv():
    result = run(tiny("snr-loss", num_transmit=256, num_receive=(32,)))
    assert result.columns[:3] == ("phase_diff_rad", "loss_closed",
                                  "loss_numeric")
    for row in result.rows:
        assert row[1] == pytest.approx(row[2], rel=1e-9)
        assert 0.0 < row[1] < 1.0
        assert row[3] in (1, 2)
    # the sweep covers a full period, so the ends agree
    assert result.rows[0][1] == pytest.approx(result.rows[-1][1], rel=1e-9)


def test_transfer_nmse_columns_and_runtime_nan():
    result = run(tiny("transfer-nmse", algorithm=("mnomp",),
                      selection=("random",)))
    assert result.columns == (
        "snr_db", "algorithm", "selection", "N", "nmse_db",
        "mean_paths_found", "nmse_db_stderr", "trials")
    row = result.rows[0]
    assert row[1] == "mnomp" and row[2] == "random"
    assert np.isfinite(row[4])
    assert row[5] > 0
    assert row[7] == 4
    assert "nan" not in result.csv_text()


def test_run_writes_csv_file(tmp_path):
    result = run(tiny("cost-table"), out_dir=tmp_path)
    path = tmp_path / "cost_table.csv"
    assert path.is_file()
    assert path.read_text() == result.csv_text()


def test_identical_config_and_seed_byte_identical():
    cfg = tiny("transfer-nmse", selection=("random",), algorithm=("dft",))
    assert run(cfg).csv_text() == run(cfg).csv_text()


def test_parallel_equals_serial(monkeypatch):
    # one trial a chunk: four chunks on four processes, three of them forked
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    serial = tiny("se", link="downlink", systems=("asym", "full_digital_n"))
    parallel = tiny("se", link="downlink",
                    systems=("asym", "full_digital_n"), workers=4)
    assert run(serial).csv_text() == run(parallel).csv_text()


def sweeps(experiment, link):
    """Two selections and both algorithms, where every entry has rows, and
    one of each elsewhere: only transfer-nmse has a row per algorithm, and
    only beam-pattern, transfer-nmse and uplink se a row per selection."""
    by_selection = (experiment in ("beam-pattern", "transfer-nmse")
                    or (experiment, link) == ("se", "uplink"))
    return dict(
        selection=("random", "successive") if by_selection else ("random",),
        algorithm=(("dft", "mnomp") if experiment == "transfer-nmse"
                   else ("dft",)))


@pytest.mark.parametrize("experiment, link", [
    ("beam-pattern", "downlink"), ("snr-loss", "downlink"),
    ("transfer-nmse", "downlink"), ("se", "uplink"), ("se", "downlink"),
    ("ee", "downlink"), ("cost-table", "downlink")])
def test_every_experiment_is_deterministic_and_thread_safe(monkeypatch,
                                                          experiment, link):
    # one trial a chunk, so that the Monte Carlo runs at workers = 2 fork a
    # child; the name predates the process pool, and no run starts a thread
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    cfg = tiny(experiment, link=link, trials=3, **sweeps(experiment, link))
    first = run(cfg).csv_text()
    assert run(cfg).csv_text() == first
    assert run(replace(cfg, workers=2)).csv_text() == first


@pytest.mark.parametrize("experiment, link", [
    ("transfer-nmse", "downlink"), ("se", "uplink"), ("se", "downlink"),
    ("ee", "downlink")])
def test_chunk_length_and_workers_never_move_a_byte(monkeypatch, tmp_path,
                                                    experiment, link):
    # trial by trial, chunks of 2 (the last one short) and one chunk for
    # all 5 trials, each serial and on 2 or 3 processes
    cfg = tiny(experiment, link=link, trials=5, snr_db=(0.0, 10.0),
               **sweeps(experiment, link))
    log = tmp_path / "lengths"
    chunk = harness._chunk

    # a file, not a list, so that chunks walked in forked children count
    def recording(cfg, setups, pilots, trials):
        with log.open("a") as out:
            out.write(f"{len(trials)}\n")
        return chunk(cfg, setups, pilots, trials)

    def lengths():
        return [int(n) for n in log.read_text().split()]

    monkeypatch.setattr(harness, "_chunk", recording)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    first = run(cfg).csv_text()
    assert lengths() == [1] * 5
    per_trial = harness._trial_entries(cfg, harness._setups(cfg))
    for entries, longest in ((1, 1), (2 * per_trial, 2), (10**9, 5)):
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", entries)
        for workers in (1, 2, 3):
            log.write_text("")
            assert run(replace(cfg, workers=workers)).csv_text() == first, (
                entries, workers)
            assert max(lengths()) == longest and sum(lengths()) == cfg.trials


@pytest.mark.parametrize("trials", [11, 20])
@pytest.mark.parametrize("experiment, link", [
    ("transfer-nmse", "downlink"), ("se", "uplink"), ("se", "downlink"),
    ("ee", "downlink")])
def test_cells_reduce_each_snr_as_a_plain_trial_list(monkeypatch, experiment,
                                                     link, trials):
    # chunks of 3 trials, joined and reduced per SNR, must give the bits of
    # reducing each cell's samples from one all-trials chunk as a plain
    # list; from 8 trials NumPy sums a one-metric column pairwise, so a
    # reduction in another order shows
    cfg = tiny(experiment, link=link, trials=trials,
               snr_db=(-5.0, 5.0, 15.0), **sweeps(experiment, link))
    chunk, inputs = harness._chunk, []

    def recording(cfg, setups, pilots, trials):
        inputs.append((setups, pilots))
        return chunk(cfg, setups, pilots, trials)

    monkeypatch.setattr(harness, "_chunk", recording)
    per_trial = harness._trial_entries(cfg, harness._setups(cfg))
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 3 * per_trial)
    cells = harness._monte_carlo(cfg)
    assert len(inputs) == -(-trials // 3)
    whole = chunk(cfg, *inputs[0], range(trials))
    assert len(cells) == len(whole) * len(cfg.snr_db)
    for key, stack in whole.items():
        assert stack.shape[:2] == (trials, len(cfg.snr_db))
        for s, snr in enumerate(cfg.snr_db):
            rows = np.asarray(stack[:, s].tolist(), float)
            mean, err = cells[(snr, *key)]
            assert mean.tobytes() == rows.mean(axis=0).tobytes(), (key, snr)
            assert err.tobytes() == (rows.std(axis=0, ddof=1)
                                     / np.sqrt(trials)).tobytes(), (key, snr)


def test_ee_stderr_is_the_stderr_of_each_trials_ee(monkeypatch):
    # a trial's uplink and downlink SE come from one draw, so the EE's
    # standard error is that of the per-trial EE list, not the two SEs'
    # errors added as if they were independent
    cfg = tiny("ee", trials=11, snr_db=(-5.0, 5.0, 15.0))
    chunk, inputs = harness._chunk, []

    def recording(cfg, setups, pilots, trials):
        inputs.append((setups, pilots))
        return chunk(cfg, setups, pilots, trials)

    monkeypatch.setattr(harness, "_chunk", recording)
    result = run(cfg)
    whole = chunk(cfg, *inputs[0], range(cfg.trials))
    column = result.columns.index("ee_stderr")
    for row in result.rows:
        snr, system, watts = row[0], row[1], row[4]
        samples = whole[system,][:, cfg.snr_db.index(snr)].tolist()
        ee = [(up / 3.0 + 2.0 * down / 3.0) * 500e6 / watts
              for up, down, *_ in samples]
        expected = np.std(ee, ddof=1) / np.sqrt(len(ee))
        assert row[column] == pytest.approx(expected, rel=1e-12), row


@pytest.mark.parametrize("experiment, link", [
    ("transfer-nmse", "downlink"), ("se", "uplink"), ("se", "downlink"),
    ("ee", "downlink")])
def test_no_run_starts_a_thread(monkeypatch, experiment, link):
    # workers > 1 forks a process per share of chunks, and each process
    # walks its share on its one thread; so does a serial run
    def refuse(thread):
        raise AssertionError(f"a run started thread {thread.name}")

    cfg = tiny(experiment, link=link, trials=5, **sweeps(experiment, link))
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for workers in (2, 3):
        run(replace(cfg, workers=workers))


def pool_config(workers):
    return tiny("se", link="downlink", systems=("asym", "full_digital_n"),
                trials=5, workers=workers)


def assert_no_child_left():
    """No child of this process is left, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def chunk_failing_at(monkeypatch, trial, fail):
    """One-trial chunks; the chunk of ``trial`` calls ``fail`` instead."""
    chunk = harness._chunk

    def failing(cfg, setups, pilots, trials):
        if trial in trials:
            fail()
        return chunk(cfg, setups, pilots, trials)

    monkeypatch.setattr(harness, "_chunk", failing)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)


def test_workers_fork_one_process_per_share(monkeypatch, tmp_path):
    # five 1-trial chunks on 3 workers: shares of trials {0}, {1, 2} and
    # {3, 4}; the caller walks the first, a forked child each other one
    chunk = harness._chunk

    def recording(cfg, setups, pilots, trials):
        (tmp_path / f"{trials.start}-{os.getpid()}").touch()
        return chunk(cfg, setups, pilots, trials)

    monkeypatch.setattr(harness, "_chunk", recording)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    pooled = run(pool_config(3)).csv_text()
    pids = dict(tuple(map(int, p.name.split("-"))) for p in tmp_path.iterdir())
    assert sorted(pids) == [0, 1, 2, 3, 4]
    assert pids[0] == os.getpid()
    assert pids[1] == pids[2] and pids[3] == pids[4]
    assert len({pids[0], pids[1], pids[3]}) == 3
    assert_no_child_left()
    assert run(pool_config(1)).csv_text() == pooled


def test_workers_never_outnumber_usable_cores(monkeypatch):
    # 64 workers over five 1-trial chunks on 2 usable cores: two shares,
    # so one forked child
    fork, forks = os.fork, []

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    pooled = run(pool_config(64)).csv_text()
    assert forks == [os.getpid()]
    assert pooled == run(pool_config(1)).csv_text()
    assert_no_child_left()


def test_usable_cores_fall_back_to_the_cpu_count(monkeypatch):
    assert USABLE_CORES() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert USABLE_CORES() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert USABLE_CORES() == 1


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_shares_come_back_in_trial_order(workers):
    # five chunks of up to 2 trials; each share's chunks by the process
    # that walked them
    chunks = [range(lo, min(lo + 2, 9)) for lo in range(0, 9, 2)]
    walked = harness._in_processes(
        lambda share: [(t, os.getpid()) for trials in share for t in trials],
        chunks, workers)
    assert [t for t, _ in walked] == list(range(9))
    shares = {}
    for t, pid in walked:
        shares.setdefault(pid, set()).add(t // 2)
    sizes = [len(share) for share in shares.values()]
    assert len(sizes) == min(workers, 5) and max(sizes) - min(sizes) <= 1
    assert walked[0][1] == os.getpid()
    assert_no_child_left()


@pytest.mark.parametrize("trial", [0, 2, 4])
def test_failing_chunk_raises_in_the_caller(monkeypatch, trial):
    # trial 0 fails on the caller, 2 and 4 in the two children
    def fail():
        raise LookupError(f"no sample for trial {trial}")

    chunk_failing_at(monkeypatch, trial, fail)
    with pytest.raises(LookupError) as caught:
        run(pool_config(3))
    assert type(caught.value) is LookupError
    assert str(caught.value) == f"no sample for trial {trial}"
    assert_no_child_left()


def raise_unpicklable():
    raise LookupError(lambda: None)


@pytest.mark.parametrize("die, code", [
    (lambda: os._exit(7), 7),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -9),
    # the child cannot pickle its exception, so it sends nothing
    (raise_unpicklable, 1)], ids=["exit", "sigkill", "unpicklable"])
def test_worker_that_exits_unsent_names_its_exit_code(monkeypatch, die,
                                                      code):
    caller = os.getpid()

    def exit_child():
        if os.getpid() != caller:
            die()

    chunk_failing_at(monkeypatch, 4, exit_child)
    with pytest.raises(RuntimeError, match=f"exited with code {code} before"):
        run(pool_config(3))
    assert_no_child_left()


def test_forks_write_the_callers_text_once_and_keep_the_childrens(
        monkeypatch, capfd):
    # a buffered stdout: text the caller has not flushed before a fork
    # would be written again by every child, and a child that exits
    # without flushing loses its own
    stdout = io.TextIOWrapper(open(1, "wb", closefd=False), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    caller, chunk = os.getpid(), harness._chunk

    def printing(cfg, setups, pilots, trials):
        if os.getpid() != caller:
            print(f"a child walks trial {trials.start}")
        return chunk(cfg, setups, pilots, trials)

    monkeypatch.setattr(harness, "_chunk", printing)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 1)
    print("the caller's text", end="")
    run(pool_config(3))
    stdout.flush()
    out = capfd.readouterr().out
    assert out.count("the caller's text") == 1
    assert "a child walks trial 4\n" in out


def test_run_is_serial_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    walked = harness._in_processes(
        lambda share: [os.getpid() for _ in share], [range(1)] * 4, 3)
    assert walked == [os.getpid()] * 4


RECIPE_DIR = Path(harness.__file__).parent / "recipes"
RECIPES = sorted(p.name for p in RECIPE_DIR.glob("*.cfg")
                 if p.name != "common.cfg")
NMSE_COLUMNS = ("snr_db", "algorithm", "selection", "N", "nmse_db",
                "mean_paths_found", "nmse_db_stderr", "trials")
RECIPE_COLUMNS = {
    "beam_pattern.cfg": ("selection", "w", "angle_deg", "magnitude",
                         "magnitude_db"),
    "cost_table.cfg": ("architecture", "num_transmit", "num_receive",
                       "cost_usd", "power_w"),
    "ee.cfg": ("snr_db", "system", "se_uplink", "se_downlink", "power_w",
               "ee_bits_per_joule", "se_uplink_stderr", "se_downlink_stderr",
               "ee_stderr", "trials"),
    "se_downlink.cfg": ("snr_db", "system", "precoder", "transfer_algorithm",
                        "se_bits", "se_bits_stderr", "trials"),
    "se_uplink.cfg": ("snr_db", "selection", "detector", "se_bits",
                      "se_bits_stderr", "trials"),
    "snr_loss.cfg": ("phase_diff_rad", "loss_closed", "loss_numeric",
                     "resolved_path_count"),
    "transfer_nmse.cfg": NMSE_COLUMNS,
    "transfer_nmse_multipath.cfg": NMSE_COLUMNS,
}


def test_every_bundled_recipe_has_a_smoke_test():
    assert RECIPES == sorted(RECIPE_COLUMNS)


@pytest.mark.parametrize("name", RECIPES)
def test_bundled_recipe_runs_at_two_trials(name):
    values = load_config_values(resolve_config(name))
    values["trials"] = "2"
    cfg = config_from_values(values)
    result = run(cfg)
    assert result.columns == RECIPE_COLUMNS[name]
    assert result.rows
    for row in result.rows:
        for column, value in zip(result.columns, row):
            if isinstance(value, float):
                assert np.isfinite(value), (column, row)
    if name == "ee.cfg":
        assert run(replace(cfg, workers=2)).csv_text() == result.csv_text()


def test_se_uplink_schema_and_values():
    result = run(tiny("se", link="uplink", selection=("random", "comb")))
    assert result.columns == ("snr_db", "selection", "detector", "se_bits",
                              "se_bits_stderr", "trials")
    kinds = [row[1] for row in result.rows]
    assert kinds == ["random", "comb"]
    for row in result.rows:
        assert row[3] > 0
        assert row[4] >= 0


def test_se_downlink_schema_and_bound():
    result = run(tiny("se", link="downlink", trials=6))
    by_system = {row[1]: row[4] for row in result.rows}
    assert set(by_system) == {"asym", "full_digital_m", "full_digital_n",
                              "perfect_csi_m"}
    # estimated-CSI SE cannot beat the same trials' perfect-CSI bound
    assert by_system["full_digital_m"] <= by_system["perfect_csi_m"]
    algo = {row[1]: row[3] for row in result.rows}
    assert algo["asym"] == "mnomp"
    assert algo["perfect_csi_m"] == "none"


def test_se_downlink_survives_thresholded_out_users():
    # at very low SNR the transfer threshold N/rho exceeds typical channel
    # energy, so whole users come back with an all-zero estimate; they get
    # zero rate instead of crashing the precoder
    result = run(tiny("se", link="downlink", snr_db=(-10.0, 0.0), trials=6,
                      systems=("asym",)))
    for row in result.rows:
        assert np.isfinite(row[4])
        assert row[4] >= 0.0


@pytest.mark.parametrize("precoder", ("zf", "mrt"))
def test_system_se_scores_each_slice_on_its_active_users(precoder):
    # slices are precoded in groups of equal active users; each slice must
    # hold the bits of precoding its active users alone, and a slice with
    # none scores 0
    rng = np.random.default_rng(3)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    trials, snrs, users, m = 3, 2, 4, 16
    h_down = gaussian(trials, users, m)
    est = h_down[:, None] + 0.3 * gaussian(trials, snrs, users, m)
    est[0, 1, 2] = 0.0  # one user without a beam
    est[1, 0, [0, 3]] = 0.0  # two users without one
    est[1, 1, 1:] = 0.0  # one user left
    est[2, 1] = 0.0  # no user left
    power = np.array([0.5, 20.0])
    cfg = tiny("se", link="downlink", precoder=precoder)
    precode = (harness.zf_precoder if precoder == "zf"
               else harness.mrt_precoder)
    system_se = harness._system_se(cfg, est, h_down, power)
    assert system_se.shape == (trials, snrs)
    for trial in range(trials):
        for snr in range(snrs):
            active = np.linalg.norm(est[trial, snr], axis=1) > 0.0
            expected = 0.0 if not active.any() else harness.downlink_se(
                h_down[trial][active], precode(est[trial, snr][active]),
                float(power[snr]))[1]
            assert np.array_equal(system_se[trial, snr], expected)
    assert system_se[2, 1] == 0.0


@pytest.mark.parametrize("precoder", ("zf", "mrt"))
def test_system_se_blocks_equal_one_call_per_group(monkeypatch, precoder):
    # a group precodes its slices in blocks whose gathered estimates hold
    # at most a quarter of the chunk budget; blocks of any size must give
    # the bits of one call per group
    rng = np.random.default_rng(5)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    trials, snrs, users, m = 4, 3, 4, 16
    h_down = gaussian(trials, users, m)
    est = h_down[:, None] + 0.3 * gaussian(trials, snrs, users, m)
    est[0, 1, 2] = est[3, 0, 2] = est[3, 2, 2] = 0.0  # a 3-user group
    est[1, 2, 1:] = 0.0  # one user left
    est[2, 0] = 0.0  # no user left
    power = np.array([0.5, 4.0, 20.0])
    cfg = tiny("se", link="downlink", precoder=precoder)
    name = f"{precoder}_precoder"
    original = getattr(harness, name)
    calls = []

    def recording(channel_est):
        calls.append(channel_est.shape[:-2])
        return original(channel_est)

    monkeypatch.setattr(harness, name, recording)
    whole = harness._system_se(cfg, est, h_down, power)
    # the 4-user group's 7 slices, the 3-user group's 3, the 1-user slice
    assert sorted(calls) == [(1,), (3,), (7,)]
    # blocks of 2 slices of 4 users: 7 = 2+2+2+1 and 3 = 2+1, and the
    # 1-user slice alone; then one slice a block
    for entries, want in ((2 * 4 * users * m, [(1,)] * 3 + [(2,)] * 4),
                          (1, [(1,)] * 11)):
        calls.clear()
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", entries)
        assert np.array_equal(harness._system_se(cfg, est, h_down, power),
                              whole)
        assert sorted(calls) == want
    assert whole[2, 0] == 0.0


def test_ee_working_set_stays_within_four_chunk_budgets():
    # a chunk's stacks hold at most _CHUNK_ENTRIES complex entries, and
    # a precoding block a quarter of them; zero forcing a whole system's
    # estimates at once would hold about 6 budgets
    values = load_config_values(resolve_config("ee.cfg"))
    values.update(trials="4", workers="1")
    cfg = config_from_values(values)
    setups = harness._setups(cfg)
    assert harness._CHUNK_ENTRIES // harness._trial_entries(cfg, setups) == 2
    run(cfg)  # what the first run caches is not working set
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4 * harness._CHUNK_ENTRIES * 16, f"{peak / 1024:.0f} KiB"


def test_downlink_built_once_per_chunk_and_array_size(monkeypatch):
    # ee builds the random, M-antenna and N-antenna setups: the first two
    # share one M-element downlink, so a chunk builds two, one per size
    import asymx.channel

    sizes = []
    original = asymx.channel.steering_downlink

    def counting(num_transmit, w):
        sizes.append(num_transmit)
        return original(num_transmit, w)

    monkeypatch.setattr(asymx.channel, "steering_downlink", counting)
    monkeypatch.setattr(harness, "_CHUNK_ENTRIES", 10**9)
    flags = []

    def recording(paths, sels, downlink):
        flags.append(downlink)
        return asymx.channel.user_channels(paths, sels, downlink)

    monkeypatch.setattr(harness, "user_channels", recording)
    run(tiny("ee", trials=2, selection=("random",)))
    assert sizes == [64, 16]
    assert flags == [True, False, True]
    # transfer-nmse: four setups of one M read one downlink
    sizes.clear()
    run(tiny("transfer-nmse", trials=2, num_receive=(8, 16),
             selection=("random", "comb"), algorithm=("dft",)))
    assert sizes == [64]


def test_ee_schema_and_power_column():
    result = run(tiny("ee", trials=2))
    assert result.columns[:6] == ("snr_db", "system", "se_uplink",
                                  "se_downlink", "power_w",
                                  "ee_bits_per_joule")
    rows = {row[1]: row for row in result.rows}
    assert rows["asym"][4] == pytest.approx(409.066667, abs=1e-4)
    assert rows["full_digital_m"][4] == pytest.approx(490.666667, abs=1e-4)
    for row in result.rows:
        up, down, power, ee = row[2], row[3], row[4], row[5]
        expected = (up / 3.0 + 2.0 * down / 3.0) * 500e6 / power
        assert ee == pytest.approx(expected, rel=1e-9)


def test_trials_of_one_reports_zero_stderr():
    result = run(tiny("se", link="uplink", selection=("random",), trials=1))
    assert result.rows[0][4] == 0.0


def test_float_formatting_nine_significant_digits():
    result = ExperimentResult("se", ("a", "b", "c", "d"),
                              ((1.0 / 3.0, float("nan"), float("inf"),
                                float("-inf")),))
    assert result.csv_text() == "a,b,c,d\n0.333333333,nan,inf,-inf\n"


# ---------------------------------------------------------------- the CLI


def test_cli_runs_bundled_recipe(tmp_path):
    code = cli_main(["cost-table", "--config", "cost_table.cfg",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cost_table.csv").is_file()


def test_cli_without_config_uses_defaults(tmp_path):
    code = cli_main(["cost-table", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "cost_table.csv").read_text()
    assert text.splitlines()[1].startswith("adbn,128,32,")


def test_cli_seed_and_trials_override(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        "experiment = transfer-nmse\nnum_transmit = 64\nnum_receive = 16\n"
        "num_users = 2\npaths_per_user = 2\nsnr_db = 10\ntrials = 3\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["transfer-nmse", "--config", str(cfg), "--seed", "1",
                     "--trials", "2", "--out", str(out_a)]) == 0
    assert cli_main(["transfer-nmse", "--config", str(cfg), "--seed", "2",
                     "--trials", "2", "--out", str(out_b)]) == 0
    text_a = (out_a / "transfer_nmse.csv").read_text()
    text_b = (out_b / "transfer_nmse.csv").read_text()
    assert text_a != text_b  # seed changes the draw
    assert text_a.splitlines()[1].split(",")[-1] == "2"  # trials applied


def test_cli_missing_config_fails_with_diagnostic(tmp_path, capsys):
    code = cli_main(["se", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    # an include of a missing file names that file
    cfg = tmp_path / "c.cfg"
    cfg.write_text("include gone.cfg\nexperiment = se\n")
    code = cli_main(["se", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config file not found" in err and "gone.cfg" in err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_experiment_mismatch_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = cost-table\n")
    code = cli_main(["se", "--config", str(cfg)])
    assert code == 2
    assert "config.experiment" in capsys.readouterr().err


def test_cli_rejects_rank_deficient_zero_forcing(tmp_path, capsys):
    cfg = tmp_path / "zf.cfg"
    cfg.write_text("experiment = se\nnum_users = 20\nnum_receive = 16\n"
                   "systems = full_digital_n\ntrials = 2\n")
    code = cli_main(["se", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "config.num_users" in capsys.readouterr().err
    assert not (tmp_path / "se.csv").exists()


def test_cli_write_failure_is_one_line(tmp_path, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("a file, not a directory\n")
    code = cli_main(["cost-table", "--out", str(occupied)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("asymx: error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("error", [
    ValueError("no such cell"),
    np.linalg.LinAlgError("Singular matrix"),
], ids=["ValueError", "LinAlgError"])
def test_cli_runtime_failure_is_one_line(tmp_path, capsys, monkeypatch, error):
    def failing_run(config):
        raise error

    monkeypatch.setattr(asymx.cli, "run", failing_run)
    code = cli_main(["cost-table", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"asymx: runtime failure: {error}"]
    assert not list(tmp_path.glob("*.csv"))


def test_cli_bad_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = se\ntrials = soon\n")
    code = cli_main(["se", "--config", str(cfg)])
    assert code == 2
    assert "config.trials" in capsys.readouterr().err
