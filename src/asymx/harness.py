"""Experiment orchestration: seeding, Monte Carlo, CSV.

Every metric cell is a pure function of (config, master seed).  The Monte
Carlo experiments share one pipeline whose unit of work is a chunk of
consecutive trials.  A chunk draws every user's paths once per trial and
then, for each setup, builds its trials' selections and channels in one
stacked call, and receives, estimates and detects over all its trials and
SNRs in one call each.  Transfers stay one call per trial, SNR and user,
and downlink precoding one call per trial, SNR and system.  Each trial's
one draw is reduced to every cell, so cells are paired.

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
the chunk list into min(workers, chunks) contiguous shares.  The calling
process walks share 0 itself, and each other share runs in a child forked
for it, which sends its samples back through a one-way pipe; the caller
takes them in share order, so the samples stay in trial order and the
chunk split cannot move a byte either.  A fork copies the pipeline's
inputs, so nothing is pickled but the samples, and no run starts a
thread.  With one worker, one chunk or no ``fork`` start method the
chunks run one after another in one plain loop on the calling process,
and ``multiprocessing`` is not imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .arrays import AntennaSelection, array_factor
from .channel import (
    ArrayGeometry,
    PathSet,
    draw_path_set,
    uplink_channel,
    user_channels,
)
from .config import ExperimentConfig, _linear
from .downlink import downlink_se, mrt_precoder, nmse, zf_precoder
from .econ import Architecture, HardwareProfile, cost, energy_efficiency, power
from .seeding import seed_streams
from .transfer import (
    TransferConfig,
    TransferResult,
    default_threshold,
    dft_transfer,
    mnomp_transfer,
)
from .uplink import (
    PilotBlock,
    SnrLossInputs,
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

# Complex entries (320 kB) that the largest stack of a chunk, the unit of
# work of the Monte Carlo pipeline, may hold; a chunk takes as many trials
# as fit, at least one.  se_uplink.cfg gets 8 trials a chunk, where longer
# chunks bought no more speed; ee.cfg gets 2, as its M-antenna full digital
# setup stacks the largest pilots, and longer chunks there cost memory.
_CHUNK_ENTRIES = 20_000

# Spatial-spectrum oversampling of each transfer algorithm.
_OVERSAMPLING = {"dft": 8, "mnomp": 4}


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
    profile = HardwareProfile()
    n = cfg.num_receive[0]
    rows = []
    for kind in ("adbn", "dbm", "hbfn", "hbsn"):
        # the conventional full digital BS pairs a receive chain with every
        # transmit chain; the others use the configured receive count
        arch = Architecture(kind, cfg.num_transmit,
                            cfg.num_transmit if kind == "dbm" else n)
        rows.append((
            kind,
            arch.num_transmit,
            arch.num_receive,
            cost(arch, profile),
            power(arch, profile, cfg.slot_ratio),
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
        mags = array_factor(sel, grid, cfg.spacing)
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
    geometry = ArrayGeometry(cfg.num_transmit, cfg.spacing)
    sel = make_selection("successive", cfg.num_transmit, n)
    theta1 = np.deg2rad(cfg.theta1_deg)
    theta2 = np.deg2rad(cfg.theta2_deg)
    w_mid = 0.5 * (np.sin(theta1) + np.sin(theta2))
    phases = np.linspace(0.0, 2.0 * np.pi, cfg.phase_points)
    rows = []
    for phase in phases:
        theta_s = composite_angle(theta1, theta2, 0.0, float(phase),
                                  sel, geometry)
        inputs = SnrLossInputs(theta1, theta2, theta_s, 0.0, float(phase),
                               n, cfg.spacing)
        paths = PathSet(np.array([1.0, np.exp(1j * phase)]),
                        np.array([theta1, theta2]))
        h = uplink_channel(paths, sel, geometry)
        rows.append((
            float(phase),
            snr_loss_closed_form(inputs),
            snr_loss_numeric(inputs),
            resolved_path_count(h, sel, geometry, w_mid),
        ))
    return ExperimentResult(
        "snr-loss",
        ("phase_diff_rad", "loss_closed", "loss_numeric",
         "resolved_path_count"),
        tuple(rows),
    )


def _user_paths(cfg: ExperimentConfig, streams: dict,
                trial: int) -> list[PathSet]:
    lo, hi = np.deg2rad(cfg.angle_min_deg), np.deg2rad(cfg.angle_max_deg)
    powers = (np.asarray(cfg.path_powers)
              if cfg.path_powers is not None else None)
    return [
        draw_path_set(cfg.paths_per_user, lo, hi,
                      streams.pop((cfg.master_seed, trial, _PATHS, user)),
                      powers)
        for user in range(cfg.num_users)
    ]


def _transfer(cfg: ExperimentConfig, algorithm: str, est: np.ndarray,
              sel: AntennaSelection, geometry: ArrayGeometry,
              pilot_power: float) -> list[TransferResult]:
    """Every user's downlink rebuilt from its uplink estimate."""
    tconf = TransferConfig(_OVERSAMPLING[algorithm],
                           default_threshold(sel.num_receive, pilot_power),
                           newton_rounds=cfg.newton_rounds)
    transfer = dft_transfer if algorithm == "dft" else mnomp_transfer
    return [transfer(est[:, k], sel, geometry, tconf)
            for k in range(cfg.num_users)]


def _downlink_system_se(cfg: ExperimentConfig, down_est: np.ndarray,
                        h_down: np.ndarray, power: float) -> float:
    """System SE of precoding on a K x M downlink estimate; a user whose
    estimate fell below the transfer threshold gets no beam and zero rate."""
    active = np.linalg.norm(down_est, axis=1) > 0.0
    if not np.any(active):
        return 0.0
    precode = zf_precoder if cfg.precoder == "zf" else mrt_precoder
    w = precode(down_est[active])
    _, system_se = downlink_se(h_down[active], w, power)
    return system_se


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
           trials: range) -> list[dict]:
    """Every cell's samples from consecutive trials, in trial order: one
    draw per trial, reduced many ways."""
    streams = _chunk_streams(cfg, setups, trials)
    paths = [_user_paths(cfg, streams, trial) for trial in trials]
    uplink, downlink = cfg.reports_uplink, bool(cfg.downlink_systems)
    rhos = pilots.power.tolist()
    samples: list[dict[tuple, tuple[float, ...]]] = [{} for _ in trials]
    for index, ((kind, m, n), systems) in enumerate(setups.items()):
        geometry = ArrayGeometry(m, cfg.spacing)
        # a fixed selection reads no stream, so one serves every trial
        sels = ([make_selection(
                    kind, m, n,
                    streams.pop((cfg.master_seed, trial, _SELECTION, index)),
                    cfg.pinned_random) for trial in trials]
                if kind == "random" else
                [make_selection(kind, m, n, None, cfg.pinned_random)]
                * len(trials))
        h_up, h_down = user_channels(paths, sels, geometry, _reads_down(cfg))
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
        # per trial and SNR, the uplink SE as a 1-tuple, or () without it
        se_up = [[()] * len(rhos)] * len(trials)
        if uplink:
            sinr = uplink_sinr(ests, h_up[:, None], pilots.power,
                               cfg.detector)
            se_up = [[(se,) for se in row]
                     for row in np.log2(1.0 + sinr).sum(axis=-1).tolist()]
        for t, (out, sel) in enumerate(zip(samples, sels)):
            for snr, rho, est, up in zip(cfg.snr_db, rhos, ests[t], se_up[t]):
                if cfg.experiment == "transfer-nmse":
                    for alg in cfg.algorithm:
                        results = _transfer(cfg, alg, est, sel, geometry, rho)
                        ratios = [nmse(r.downlink_estimate, h_down[t, k])
                                  for k, r in enumerate(results)]
                        out[snr, alg, kind, n] = (
                            float(np.mean(ratios)),
                            float(np.mean([r.paths_found for r in results])))
                    continue
                if not downlink:
                    out[snr, kind] = up
                    continue
                for system in systems:
                    if system == "asym":
                        down_est = np.stack([
                            r.downlink_estimate for r in _transfer(
                                cfg, cfg.algorithm[0], est, sel, geometry,
                                rho)])
                    elif system == "perfect_csi_m":
                        down_est = h_down[t]
                    else:
                        # full digital: the uplink estimate is the downlink one
                        down_est = est.T
                    out[snr, system] = up + (_downlink_system_se(
                        cfg, down_est, h_down[t], rho),)
    return samples


def _trial_entries(cfg: ExperimentConfig, setups: dict) -> int:
    """Complex entries one trial adds to the largest stack of a chunk: the
    received pilots, estimates and combiners (S x N x K), the SINR terms
    (S x K x K) or the steering vectors (N or M x K x P) of one setup."""
    k, s, p = cfg.num_users, len(cfg.snr_db), cfg.paths_per_user
    return max(k * max(s * max(n, k), p * (m if _reads_down(cfg) else n))
               for _, m, n in setups)


def _mean_stderr(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean over trials and its standard error."""
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean(axis=0)
    if len(samples) < 2:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


def _monte_carlo(cfg: ExperimentConfig) -> dict:
    """(mean, stderr) over all trials of every cell's samples, drawn in
    consecutive chunks of trials."""
    setups = _setups(cfg)
    # orthonormal pilot rows give the same CN(0, I/rho) error at any length
    # tau >= K, so the shortest one is used
    pilots = generate_pilots(cfg.num_users, cfg.num_users,
                             np.array([_linear(snr) for snr in cfg.snr_db]))
    length = max(1, _CHUNK_ENTRIES // _trial_entries(cfg, setups))
    chunks = [range(lo, min(lo + length, cfg.trials))
              for lo in range(0, cfg.trials, length)]

    def walk(share: list[range]) -> list[dict]:
        return [sample for trials in share
                for sample in _chunk(cfg, setups, pilots, trials)]

    outcomes = _in_processes(walk, chunks, cfg.workers)
    return {key: _mean_stderr([o[key] for o in outcomes])
            for key in outcomes[0]}


def _in_processes(walk, chunks: list[range], workers: int) -> list[dict]:
    """``walk`` over every chunk, in order, on up to ``workers`` processes.

    Share sizes differ by at most one chunk.  A child's exception is raised
    here, and a child that exits without sending raises a RuntimeError
    naming its exit code.  Every child is joined before this returns or
    raises; one still running when the caller fails is terminated first.
    """
    count = min(workers, len(chunks))
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
    profile = HardwareProfile()
    cells = _monte_carlo(cfg)
    rows = []
    for snr, system in product(cfg.snr_db, cfg.downlink_systems):
        (se_up, se_dn), (up_err, dn_err) = cells[snr, system]
        _, sys_m, sys_n = _system_array(cfg, system)
        arch = Architecture("adbn" if system == "asym" else "dbm", sys_m, sys_n)
        p_bs = power(arch, profile, cfg.slot_ratio)
        ee = energy_efficiency(float(se_up), float(se_dn), cfg.slot_ratio,
                               p_bs, cfg.bandwidth_hz)
        ee_err = (cfg.bandwidth_hz / p_bs) * float(np.hypot(
            cfg.slot_ratio * up_err, (1.0 - cfg.slot_ratio) * dn_err))
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

