"""Experiment orchestration: seeding, Monte Carlo, CSV.

Every metric cell is a pure function of (config, master seed).  The Monte
Carlo experiments share one pipeline whose unit of work is a chunk of
consecutive trials.  A chunk draws all its trials' user paths in one call
and then, for each setup, builds its trials' selections and channels in
one stacked call, and receives, estimates and detects over all its trials
and SNRs in one call each; setups of one array size share one M-element
downlink.  Transfers stay one call per trial, SNR and user, as the
benchmark's tracer reads one scalar result per transfer call.  Their
estimates are stacked, so the NMSE of a setup and algorithm is one call,
and a downlink system groups its (trial, SNR) slices by their active
users and precodes and scores each group in blocks of slices sized to a
quarter of the chunk budget.  Each trial's one draw is reduced to every
cell, so cells are paired.  A chunk's samples are one T x S x C float
array per report row (T trials, S SNRs, the row's C metrics), and the
run joins each row's arrays and takes the mean and standard error of
each SNR's T x C column.

Every stream is a PCG64 generator seeded by a SeedSequence of the key
``(master_seed, trial, tag, index)``, of fixed length, whose tag names the
draw: user paths, a random setup's selection, or a setup's pilot noise
under the ls and lmmse estimators; no stream is built that nothing reads.
A chunk builds all its trials' streams in one ``seed_streams`` call, which
hashes every key in one vectorized pass and gives the same generators as
``seed_stream`` key by key; keys with a field outside [0, 2**32) take
NumPy's own SeedSequence.  Each stream is built exactly once, so the chunk
length cannot move a number, and a run executed twice writes
byte-identical CSV.

With ``workers`` > 1 and at least two chunks, ``_in_processes`` splits
the chunk list into min(workers, chunks, usable cores) contiguous shares.
The calling process walks share 0 itself, and each other share runs in a
child forked for it, which sends its samples back through a one-way pipe;
the caller takes them in share order, so the samples stay in trial order
and the chunk split cannot move a byte either.  A fork copies the
pipeline's inputs, so nothing is pickled but the samples, and no run
starts a thread.  With one worker, one chunk, one usable core or no
``fork`` start method the chunks run one after another in one plain loop
on the calling process, and ``multiprocessing`` is not imported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import econ
from .arrays import AntennaSelection, array_factor
from .channel import PathSet, draw_path_set, uplink_channel, user_channels
from .config import ExperimentConfig, _linear
from .downlink import downlink_se, mrt_precoder, nmse, zf_precoder
from .econ import Architecture, cost, energy_efficiency, power
from .seeding import seed_streams
from .transfer import (
    _OVERSAMPLING,
    TransferConfig,
    default_threshold,
    dft_transfer,
    mnomp_transfer,
)
from .uplink import (
    PilotBlock,
    SnrLossInputs,
    _scan_phases,
    composite_angle,
    estimate_lmmse,
    estimate_ls,
    generate_pilots,
    make_selection,
    received_pilot,
    resolved_path_count,
    snr_loss_closed_form,
    snr_loss_numeric,
    uplink_sinr,
)

# Stream tags, the third field of every seed_stream key.
_PATHS, _SELECTION, _NOISE = 0, 1, 2
# Where user paths arrive from, and the two paths of snr-loss, in degrees.
_PATH_ANGLES_DEG = (-60.0, 60.0)
_SNR_LOSS_THETAS_DEG = (51.315, 54.285)

# Complex entries (320 kB) that the largest stack of a chunk, the unit of
# work of the Monte Carlo pipeline, may hold; a chunk takes as many trials
# as fit, at least one.  se_uplink.cfg gets 8 trials a chunk, where longer
# chunks bought no more speed; ee.cfg gets 2, as its M-antenna full digital
# setup stacks the largest pilots, and longer chunks there cost memory;
# transfer_nmse.cfg gets 1, as it stacks nine SNRs' downlink estimates.
# A downlink system precodes a block of slices whose gathered estimates
# hold at most a quarter of this, at least one slice (3 on ee.cfg), as
# zero forcing holds several temporaries of that size at once.
_CHUNK_ENTRIES = 20_000


@dataclass(frozen=True)
class ExperimentResult:
    """Metric rows plus the column schema they follow."""

    experiment: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{self.experiment.replace('-', '_')}.csv"
        path.write_bytes(self.csv_text().encode("utf-8"))
        return path


def seed_stream(
    master_seed: int, trial_index: int, tag: int, index: int = 0
) -> np.random.Generator:
    """Independent, reproducible stream for one tagged draw of one trial.

    The key (master_seed, trial, tag, index) seeds a SeedSequence directly,
    so streams are decorrelated by construction and derivable in any order
    (counter style, no state shared between trials).  Every key has four
    fields: NumPy pads shorter entropy with zeros, so keys of mixed length
    could alias.  This is the one-key call of ``seed_streams``, so it gives
    ``Generator(PCG64(SeedSequence(key)))`` bit for bit.
    """
    return seed_streams([(master_seed, trial_index, tag, index)])[0]


def run(
    config: ExperimentConfig, out_dir: str | Path | None = None
) -> ExperimentResult:
    """Execute one experiment; optionally write its CSV into out_dir."""
    runner = {
        "beam-pattern": _run_beam_pattern,
        "snr-loss": _run_snr_loss,
        "transfer-nmse": _run_transfer_nmse,
        "se": _run_se,
        "ee": _run_ee,
        "cost-table": _run_cost_table,
    }[config.experiment]
    result = runner(config)
    if out_dir is not None:
        result.write_csv(out_dir)
    return result


# --------------------------------------------------------------------------
# experiment pipelines


def _run_cost_table(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.num_receive[0]
    rows = []
    for kind in econ.ARCHITECTURES:
        # the conventional full digital BS pairs a receive chain with every
        # transmit chain; the others use the configured receive count
        arch = Architecture(kind, cfg.num_transmit,
                            cfg.num_transmit if kind == "dbm" else n)
        rows.append((
            kind,
            arch.num_transmit,
            arch.num_receive,
            cost(arch),
            power(arch),
        ))
    return ExperimentResult(
        "cost-table",
        ("architecture", "num_transmit", "num_receive", "cost_usd", "power_w"),
        tuple(rows),
    )


def _run_beam_pattern(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.num_receive[0]
    grid = np.linspace(-1.0, 1.0, cfg.grid_points)
    rows = []
    for kind in cfg.selection:
        rng = (seed_stream(cfg.master_seed, 0, _SELECTION, 0)
               if kind == "random" else None)
        sel = make_selection(kind, cfg.num_transmit, n, rng,
                             cfg.pinned_random)
        mags = array_factor(sel, grid)
        for w, mag in zip(grid, mags):
            angle = float(np.degrees(np.arcsin(np.clip(w, -1.0, 1.0))))
            mag = float(max(mag, 1e-300))
            rows.append((kind, float(w), angle, mag,
                         float(20.0 * np.log10(mag))))
    return ExperimentResult(
        "beam-pattern",
        ("selection", "w", "angle_deg", "magnitude", "magnitude_db"),
        tuple(rows),
    )


def _run_snr_loss(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.num_receive[0]
    sel = make_selection("successive", cfg.num_transmit, n)
    theta1, theta2 = (np.deg2rad(t) for t in _SNR_LOSS_THETAS_DEG)
    w_mid = 0.5 * (np.sin(theta1) + np.sin(theta2))
    # the first grid of every composite-angle scan and the window of every
    # peak count do not depend on the swept phase, so each phase matrix is
    # built once
    coarse = _scan_phases(sel)
    window = _scan_phases(sel, w_mid)
    rows = []
    for phase in np.linspace(0.0, 2.0 * np.pi, cfg.phase_points):
        paths = PathSet(np.array([1.0, np.exp(1j * phase)]),
                        np.array([theta1, theta2]))
        h = uplink_channel(paths, sel)
        inputs = SnrLossInputs(theta1, theta2,
                               composite_angle(h, sel, coarse),
                               0.0, float(phase), n)
        rows.append((
            float(phase),
            snr_loss_closed_form(inputs),
            snr_loss_numeric(inputs),
            resolved_path_count(h, sel, w_mid, window),
        ))
    return ExperimentResult(
        "snr-loss",
        ("phase_diff_rad", "loss_closed", "loss_numeric",
         "resolved_path_count"),
        tuple(rows),
    )


def _transfer(cfg: ExperimentConfig, algorithm: str, ests: np.ndarray,
              sels: list[AntennaSelection], rhos: list[float]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Every user's downlink rebuilt from its uplink estimate, one transfer
    call per trial, SNR and user: the T x S x K x M downlink estimates of
    the T x S x N x K uplink ones, and the T x S x K path counts."""
    transfer = dft_transfer if algorithm == "dft" else mnomp_transfer
    tconfs = [TransferConfig(_OVERSAMPLING[algorithm],
                             default_threshold(sels[0].num_receive, rho),
                             newton_rounds=cfg.newton_rounds) for rho in rhos]
    # config by keyword: benchmarks/tracer.py reads args[3] or kwargs
    results = [transfer(est[:, k], sel, config=tconf)
               for trial_ests, sel in zip(ests, sels)
               for est, tconf in zip(trial_ests, tconfs)
               for k in range(cfg.num_users)]
    shape = (len(sels), len(rhos), cfg.num_users)
    return (np.array([r.downlink_estimate for r in results]).reshape(
                *shape, -1),
            np.array([r.paths_found for r in results]).reshape(shape))


def _system_se(cfg: ExperimentConfig, down_est: np.ndarray,
               h_down: np.ndarray, power: np.ndarray) -> np.ndarray:
    """T x S system SE of precoding on T x S x K x M downlink estimates,
    scored on each trial's K x M true downlink at each SNR's power.

    A user whose estimate fell below the transfer threshold (a zero row)
    gets no beam and zero rate, and a slice with no user left scores 0.
    The slices are grouped by their active users, and each group is
    precoded and scored in stacked calls over blocks of its slices, whose
    gathered estimates hold at most a quarter of ``_CHUNK_ENTRIES``.
    """
    trials, snrs, users, m = down_est.shape
    active = np.vecdot(down_est, down_est).real.reshape(-1, users) > 0.0
    patterns, group = np.unique(active, axis=0, return_inverse=True)
    precode = zf_precoder if cfg.precoder == "zf" else mrt_precoder
    system_se = np.zeros(trials * snrs)
    for index, pattern in enumerate(patterns):
        if not pattern.any():
            continue
        members, on = np.flatnonzero(group == index), np.flatnonzero(pattern)
        block = max(1, _CHUNK_ENTRIES // (4 * len(on) * m))
        for start in range(0, len(members), block):
            slices = members[start:start + block]
            trial, snr = np.divmod(slices, snrs)
            _, system_se[slices] = downlink_se(
                h_down[trial[:, None], on],
                precode(down_est[trial[:, None], snr[:, None], on]),
                power[snr])
    return system_se.reshape(trials, snrs)


def _system_array(cfg: ExperimentConfig, system: str) -> tuple[str, int, int]:
    """The (selection kind, M, N) array a system under test uses."""
    m, n = cfg.num_transmit, cfg.num_receive[0]
    return {
        "asym": (cfg.selection[0], m, n),
        "full_digital_m": ("successive", m, m),
        # the N-antenna full digital BS is a smaller array of its own
        "full_digital_n": ("successive", n, n),
        # perfect CSI needs only the M-antenna downlink channel
        "perfect_csi_m": ("successive", m, m),
    }[system]


def _setups(cfg: ExperimentConfig) -> dict[tuple, tuple[str, ...]]:
    """The (selection kind, M, N) arrays a trial builds, in stream order.

    Each maps to the systems it serves (downlink se and ee); for
    transfer-nmse and uplink se a setup is its own sweep cell.
    """
    m, n = cfg.num_transmit, cfg.num_receive[0]
    if cfg.experiment == "transfer-nmse":
        return {(kind, m, rx): () for kind in cfg.selection
                for rx in cfg.num_receive}
    if not cfg.downlink_systems:
        return {(kind, m, n): () for kind in cfg.selection}
    setups: dict[tuple, tuple[str, ...]] = {}
    for system in cfg.downlink_systems:
        array = _system_array(cfg, system)
        setups[array] = setups.get(array, ()) + (system,)
    return setups


def _chunk_streams(cfg: ExperimentConfig, setups: dict,
                   trials: range) -> dict[tuple, np.random.Generator]:
    """Every stream a chunk reads, by key, built in one ``seed_streams``
    call: tag 0 per trial and user, tag 1 per trial of a random setup, and
    tag 2 per trial and setup under the ls and lmmse estimators.  The chunk
    pops each stream as it reads it, so none is read twice and a read one
    is freed before the chunk's stacks are built."""
    seed = cfg.master_seed
    keys = [(seed, trial, _PATHS, user)
            for trial in trials for user in range(cfg.num_users)]
    for index, (kind, _, _) in enumerate(setups):
        if kind == "random":
            keys += [(seed, trial, _SELECTION, index) for trial in trials]
        if cfg.estimator != "perfect":
            keys += [(seed, trial, _NOISE, index) for trial in trials]
    return dict(zip(keys, seed_streams(keys)))


def _reads_down(cfg: ExperimentConfig) -> bool:
    """Whether a trial builds the M-element downlink channel: only the NMSE
    of transfer and the downlink systems read it."""
    return bool(cfg.downlink_systems) or cfg.experiment == "transfer-nmse"


def _chunk(cfg: ExperimentConfig, setups: dict, pilots: PilotBlock,
           trials: range) -> dict[tuple, np.ndarray]:
    """Every report row's samples from consecutive trials: a T x S x C
    float array per row key, its T trials by S SNRs by the row's C
    metrics.  One draw per trial, reduced many ways."""
    streams = _chunk_streams(cfg, setups, trials)
    # T x K x P, from the chunk's path streams in (trial, user) order
    paths = draw_path_set(
        cfg.paths_per_user, *np.deg2rad(_PATH_ANGLES_DEG),
        [[streams.pop((cfg.master_seed, trial, _PATHS, user))
          for user in range(cfg.num_users)] for trial in trials],
        cfg.path_powers)
    rhos = pilots.power.tolist()
    samples: dict[tuple, np.ndarray] = {}
    downs: dict[int, np.ndarray | None] = {}
    for index, ((kind, m, n), systems) in enumerate(setups.items()):
        # a fixed selection reads no stream, so one serves every trial
        sels = ([make_selection(
                    kind, m, n,
                    streams.pop((cfg.master_seed, trial, _SELECTION, index)),
                    cfg.pinned_random) for trial in trials]
                if kind == "random" else
                [make_selection(kind, m, n, None, cfg.pinned_random)]
                * len(trials))
        # the M-element downlink reads only the paths and M, so setups of
        # equal M share the first one's
        h_up, h_down = user_channels(paths, sels,
                                     _reads_down(cfg) and m not in downs)
        h_down = downs.setdefault(m, h_down)
        # T x S x N x K, one slice per trial and SNR; each trial's noise is
        # drawn from its own stream in SNR order
        if cfg.estimator == "perfect":
            ests = np.broadcast_to(h_up[:, None], (
                len(trials), len(rhos), *h_up.shape[1:]))
        else:
            estimate = estimate_ls if cfg.estimator == "ls" else estimate_lmmse
            noise = [streams.pop((cfg.master_seed, trial, _NOISE, index))
                     for trial in trials]
            ests = estimate(received_pilot(h_up, pilots, noise), pilots)
        if cfg.experiment == "transfer-nmse":
            for alg in cfg.algorithm:
                down_est, found = _transfer(cfg, alg, ests, sels, rhos)
                samples[alg, kind, n] = np.stack(
                    (nmse(down_est, h_down[:, None]).mean(axis=-1),
                     found.mean(axis=-1)), axis=-1)
            continue
        # T x S x 1 uplink SE, or T x S x 0 where no row reports it
        se_up = np.empty((len(trials), len(rhos), 0))
        if cfg.reports_uplink:
            sinr = uplink_sinr(ests, h_up[:, None], pilots.power,
                               cfg.detector)
            se_up = np.log2(1.0 + sinr).sum(axis=-1)[..., None]
        if not systems:
            samples[kind,] = se_up
            continue
        for system in systems:
            if system == "asym":
                down_est, _ = _transfer(cfg, cfg.algorithm[0], ests, sels,
                                        rhos)
            elif system == "perfect_csi_m":
                down_est = np.broadcast_to(h_down[:, None], (
                    len(trials), len(rhos), *h_down.shape[1:]))
            else:
                # full digital: the uplink estimate is the downlink one
                down_est = ests.swapaxes(-1, -2)
            system_se = _system_se(cfg, down_est, h_down, pilots.power)
            # freed now, not when the next setup has built its estimates
            del down_est
            columns = [se_up, system_se[..., None]]
            if cfg.reports_uplink:
                # ee: each trial's slot-weighted SE as well, since a trial's
                # two SEs come from one draw; B/P times this column's
                # standard error is the EE's
                columns.append(econ.SLOT_RATIO * se_up
                               + (1.0 - econ.SLOT_RATIO) * columns[1])
            samples[system,] = np.concatenate(columns, axis=-1)
    return samples


def _trial_entries(cfg: ExperimentConfig, setups: dict) -> int:
    """Complex entries one trial adds to the largest stack of a chunk: the
    received pilots, estimates and combiners (S x N x K), the SINR terms
    (S x K x K), the steering vectors (N or M x K x P) or the downlink
    estimates (S x K x M) of one setup."""
    k, s, p = cfg.num_users, len(cfg.snr_db), cfg.paths_per_user
    return max(k * max(s * max(n, k),
                       max(p, s) * m if _reads_down(cfg) else p * n)
               for _, m, n in setups)


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean of one cell's T x C samples over its T trials, and
    its standard error."""
    mean = samples.mean(axis=0)
    if len(samples) < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


def _monte_carlo(cfg: ExperimentConfig) -> dict:
    """(mean, stderr) over all trials of every (snr, *row key) cell: each
    row's T x S x C samples from consecutive chunks of trials are joined,
    and each SNR's T x C column is reduced on its own, as reducing the
    whole stack would sum a one-metric column in another order."""
    setups = _setups(cfg)
    # orthonormal pilot rows give the same CN(0, I/rho) error at any length
    # tau >= K, so the shortest one is used
    pilots = generate_pilots(cfg.num_users, cfg.num_users,
                             np.array([_linear(snr) for snr in cfg.snr_db]))
    length = max(1, _CHUNK_ENTRIES // _trial_entries(cfg, setups))
    chunks = [range(lo, min(lo + length, cfg.trials))
              for lo in range(0, cfg.trials, length)]

    def walk(share: list[range]) -> list[dict]:
        return [_chunk(cfg, setups, pilots, trials) for trials in share]

    outcomes = _in_processes(walk, chunks, cfg.workers)
    stacks = {key: np.concatenate([o[key] for o in outcomes])
              for key in outcomes[0]}
    return {(snr, *key): _mean_stderr(stack[:, s])
            for key, stack in stacks.items()
            for s, snr in enumerate(cfg.snr_db)}


def _in_processes(walk, chunks: list[range], workers: int) -> list[dict]:
    """``walk`` over every chunk, in order, on up to ``workers`` processes,
    and never more than the cores this process may run on.

    Share sizes differ by at most one chunk.  A child's exception is raised
    here, and a child that exits without sending raises a RuntimeError
    naming its exit code.  Every child is joined before this returns or
    raises; one still running when the caller fails is terminated first.
    """
    count = min(workers, len(chunks), _usable_cores())
    if count < 2:
        return walk(chunks)
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return walk(chunks)
    context = multiprocessing.get_context("fork")
    shares = [chunks[i * len(chunks) // count:(i + 1) * len(chunks) // count]
              for i in range(count)]
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_walk,
                                    args=(walk, share, sender))
            child.start()
            sender.close()  # the child holds the only writer left
            children.append((child, receiver))
        samples = walk(shares[0])
        for child, receiver in children:
            try:
                done, value = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"worker process {child.pid} exited with code "
                    f"{child.exitcode} before sending its samples") from None
            if not done:
                raise value
            samples += value
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            child.join()
    return samples


def _usable_cores() -> int:
    """The cores this process may run on, or all where the OS cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _send_walk(walk, share: list[range], sender) -> None:
    """A forked child: send ``(True, samples)`` of its share to the caller,
    or ``(False, exception)`` if walking it raised."""
    try:
        message = (True, walk(share))
    except Exception as exc:
        message = (False, exc)
    sender.send(message)


def _run_transfer_nmse(cfg: ExperimentConfig) -> ExperimentResult:
    cells = _monte_carlo(cfg)
    rows = []
    for snr, alg, kind, n in product(cfg.snr_db, cfg.algorithm,
                                     cfg.selection, cfg.num_receive):
        (ratio, found), (ratio_err, _) = cells[snr, alg, kind, n]
        # delta-method transfer of the linear-domain error into dB
        nmse_db_err = (10.0 / np.log(10.0) * ratio_err / ratio
                       if ratio > 0 else 0.0)
        rows.append((
            float(snr), alg, kind, n,
            float(10.0 * np.log10(ratio)),
            float(found),
            float(nmse_db_err),
            cfg.trials,
        ))
    return ExperimentResult(
        "transfer-nmse",
        ("snr_db", "algorithm", "selection", "N", "nmse_db",
         "mean_paths_found", "nmse_db_stderr", "trials"),
        tuple(rows),
    )


def _run_se(cfg: ExperimentConfig) -> ExperimentResult:
    cells = _monte_carlo(cfg)
    uplink = cfg.reports_uplink
    labels = cfg.selection if uplink else cfg.downlink_systems
    rows = []
    for snr, label in product(cfg.snr_db, labels):
        (se,), (err,) = cells[snr, label]
        setting = ((cfg.detector,) if uplink else
                   (cfg.precoder, cfg.algorithm[0] if label == "asym" else "none"))
        rows.append((float(snr), label, *setting, float(se), float(err),
                     cfg.trials))
    keys = (("snr_db", "selection", "detector") if uplink else
            ("snr_db", "system", "precoder", "transfer_algorithm"))
    return ExperimentResult(
        "se", keys + ("se_bits", "se_bits_stderr", "trials"), tuple(rows))


def _run_ee(cfg: ExperimentConfig) -> ExperimentResult:
    """Energy efficiency of the asymmetrical BS vs both full digital sizes."""
    cells = _monte_carlo(cfg)
    rows = []
    for snr, system in product(cfg.snr_db, cfg.downlink_systems):
        (se_up, se_dn, _), (up_err, dn_err, weighted_err) = cells[snr, system]
        _, sys_m, sys_n = _system_array(cfg, system)
        arch = Architecture("adbn" if system == "asym" else "dbm", sys_m, sys_n)
        p_bs = power(arch)
        ee = energy_efficiency(float(se_up), float(se_dn), p_bs)
        ee_err = econ.BANDWIDTH_HZ / p_bs * float(weighted_err)
        rows.append((float(snr), system, float(se_up), float(se_dn), p_bs, ee,
                     float(up_err), float(dn_err), ee_err, cfg.trials))
    return ExperimentResult(
        "ee",
        ("snr_db", "system", "se_uplink", "se_downlink", "power_w",
         "ee_bits_per_joule", "se_uplink_stderr", "se_downlink_stderr",
         "ee_stderr", "trials"),
        tuple(rows),
    )


# --------------------------------------------------------------------------
# formatting helpers


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)

