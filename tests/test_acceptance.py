"""End-to-end acceptance gate for the asymmetrical transceiver simulator.

Each test checks one numbered release criterion and prints exactly one
summary line (PASS or FAIL plus the measured values), so a captured log
shows the verdict for every criterion.  The assertions reuse the same
line, so a failure message carries the metrics as well.

Covered criteria:

 1. hardware cost table anchors and architecture ordering
 2. power consumption anchors and architecture ordering
 3. closed-form steering loss equals the numeric oracle on random inputs
 4. steering loss versus inter-path phase: anchor value and U shape
 5. composite beam direction anchor for equal-phase paths
 6. noiseless parametric channel recovery success rate
 7. estimation quality gap between receive-chain counts and the
    selection-scheme ordering at a fixed budget
 8. FFT matched filter equals naive correlation; refinement derivatives
    match finite differences
 9. selection lobe structure: comb grating lobes, random side peaks
10. spectral efficiency orderings across selections and system models
11. harness determinism: byte-identical reruns, parallel == serial
"""

import time

import numpy as np

import asymx.harness as harness
from asymx import (
    Architecture,
    ExperimentConfig,
    PathSet,
    SnrLossInputs,
    TransferConfig,
    array_factor,
    composite_angle,
    cost,
    downlink_channel,
    make_selection,
    mnomp_transfer,
    nmse_db,
    power,
    run,
    select_comb,
    select_random,
    snr_loss_closed_form,
    snr_loss_numeric,
    uplink_channel,
)
from asymx.channel import steering_uplink
from asymx.transfer import _matched_filter, _path_derivatives, _slope_terms

EXPECTED_COST = {"adbn": 52432, "dbm": 124672, "hbfn": 382208, "hbsn": 55808}


def report(num, label, ok, detail):
    line = "criterion %02d %s: %s (%s)" % (num, label,
                                           "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def architecture(kind, m=128, n=16):
    # the full digital baseline pairs a receive chain with every antenna
    return Architecture(kind, m, m if kind == "dbm" else n)


# ------------------------------------------------------------ criteria


def test_criterion_01_hardware_cost_table():
    costs = {kind: cost(architecture(kind)) for kind in EXPECTED_COST}
    exact = all(costs[k] == EXPECTED_COST[k] for k in EXPECTED_COST)
    ordered = (costs["adbn"] < costs["hbsn"] < costs["dbm"] < costs["hbfn"])
    report(1, "hardware cost table", exact and ordered,
           ", ".join("%s=%d" % (k, costs[k]) for k in sorted(costs)))


def test_criterion_02_power_consumption():
    watts = {kind: power(architecture(kind)) for kind in EXPECTED_COST}
    anchor = abs(watts["adbn"] - 790.9333) <= 0.1
    ordered = (abs(watts["hbsn"] - watts["hbfn"]) < 1e-9
               and watts["hbsn"] < watts["adbn"] < watts["dbm"])
    report(2, "power consumption", anchor and ordered,
           ", ".join("%s=%.4f" % (k, watts[k]) for k in sorted(watts)))


def test_criterion_03_closed_form_loss_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    in_range = True
    for _ in range(1000):
        t1 = rng.uniform(-1.0, 0.55)
        dt = rng.uniform(0.02, 0.5)
        ts = rng.uniform(-1.3, 1.3)
        phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        inputs = SnrLossInputs(t1, t1 + dt, ts, phi1, phi2, 32)
        closed = snr_loss_closed_form(inputs)
        numeric = snr_loss_numeric(inputs)
        worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-12))
        in_range = in_range and 0.0 < closed < 1.0
    elapsed = time.perf_counter() - start
    report(3, "closed-form loss vs numeric oracle",
           worst <= 1e-10 and in_range and elapsed < 5.0,
           "worst rel err %.3g over 1000 draws, all in (0,1)=%s, %.2fs"
           % (worst, in_range, elapsed))


def test_criterion_04_loss_phase_curve_anchor():
    start = time.perf_counter()
    sel = make_selection("successive", 256, 32)
    t1 = np.deg2rad(52.8 - 1.485)
    t2 = np.deg2rad(52.8 + 1.485)
    phases = np.linspace(0.0, np.pi, 33)
    losses = []
    for phi in phases:
        h = uplink_channel(PathSet(np.array([1.0, np.exp(1j * phi)]),
                                   np.array([t1, t2])), sel)
        comp = composite_angle(h, sel)
        losses.append(snr_loss_closed_form(
            SnrLossInputs(t1, t2, comp, 0.0, phi, 32)))
    losses = np.asarray(losses)
    k = int(np.argmin(losses))
    anchor = abs(losses[-1] - 0.20) <= 0.05
    u_shape = (0 < k < len(losses) - 1
               and bool(np.all(np.diff(losses[: k + 1]) <= 1e-9))
               and bool(np.all(np.diff(losses[k:]) >= -1e-9)))
    elapsed = time.perf_counter() - start
    report(4, "loss vs phase anchor curve",
           anchor and u_shape and elapsed < 10.0,
           "loss(0)=%.4f loss(pi)=%.4f min=%.4f at %.2fpi, %.2fs"
           % (losses[0], losses[-1], losses[k], phases[k] / np.pi, elapsed))


def test_criterion_05_composite_direction_anchor():
    start = time.perf_counter()
    sel = make_selection("successive", 256, 32)
    h = uplink_channel(PathSet(np.ones(2), np.deg2rad([51.3, 54.3])), sel)
    comp = np.degrees(composite_angle(h, sel))
    elapsed = time.perf_counter() - start
    report(5, "composite beam direction anchor",
           abs(comp - 52.8) <= 0.15 and elapsed < 5.0,
           "composite %.5f deg vs 52.8 +/- 0.15, %.2fs" % (comp, elapsed))


def test_criterion_06_noiseless_parametric_recovery():
    start = time.perf_counter()
    m, n = 128, 32
    config = TransferConfig(4, 1e-6, newton_rounds=8, cyclic_rounds=4)
    rng = np.random.default_rng(2024)
    hits = 0
    worst = -np.inf
    trials = 200
    for _ in range(trials):
        num_paths = int(rng.integers(1, 4))
        while True:
            w = np.sort(rng.uniform(-0.95, 0.95, size=num_paths))
            if num_paths == 1 or np.min(np.diff(w)) > 2.0 / m:
                break
        gains = (rng.standard_normal(num_paths)
                 + 1j * rng.standard_normal(num_paths)) / np.sqrt(2.0)
        gains *= 0.5 + rng.uniform(0.0, 1.0, size=num_paths)
        paths = PathSet(gains, np.arcsin(w))
        sel = select_random(m, n, rng, pinned=True)
        h_up = uplink_channel(paths, sel)
        result = mnomp_transfer(h_up, sel, config)
        err = nmse_db(result.downlink_estimate, downlink_channel(paths, m))
        worst = max(worst, err)
        if err < -40.0:
            hits += 1
    elapsed = time.perf_counter() - start
    report(6, "noiseless parametric recovery",
           hits >= int(0.95 * trials) and elapsed < 120.0,
           "%d/%d below -40 dB, worst %.1f dB, %.1fs"
           % (hits, trials, worst, elapsed))


def test_criterion_07_receive_chain_gap_and_selection_order():
    start = time.perf_counter()
    gap_run = run(ExperimentConfig(
        "transfer-nmse", snr_db=(20.0,), algorithm=("mnomp",),
        selection=("random",), num_receive=(32, 16), paths_per_user=2,
        path_powers=(0.9, 0.1), pinned_random=True, trials=1500,
        master_seed=11, workers=2))
    by_n = {row[3]: row[4] for row in gap_run.rows}
    gap = by_n[16] - by_n[32]
    order_run = run(ExperimentConfig(
        "transfer-nmse", snr_db=(20.0,), algorithm=("mnomp",),
        selection=("random", "successive", "comb"), num_receive=(16,),
        paths_per_user=2, path_powers=(0.9, 0.1), pinned_random=True,
        trials=800, master_seed=11, workers=2))
    by_sel = {row[2]: row[4] for row in order_run.rows}
    ordered = by_sel["random"] < by_sel["successive"] < by_sel["comb"]
    elapsed = time.perf_counter() - start
    report(7, "receive-chain gap and selection order",
           2.5 <= gap <= 5.5 and ordered and elapsed < 600.0,
           "gap %.2f dB (N16 %.2f, N32 %.2f); random %.2f < successive %.2f"
           " < comb %.2f; %.0fs"
           % (gap, by_n[16], by_n[32], by_sel["random"],
              by_sel["successive"], by_sel["comb"], elapsed))


def test_criterion_08_matched_filter_and_derivatives():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_fft = 0.0
    for m in (16, 32, 64):
        sel = make_selection("random", m, m // 4, rng)
        full = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = full[sel.indices - 1]
        for zeta in (1, 2, 4, 8):
            size = m * zeta
            naive = np.array([
                np.sum(np.conj(h) * np.exp(-2j * np.pi * (sel.indices - 1)
                                           * b / size))
                for b in range(size)
            ]) / sel.num_receive
            fast = _matched_filter(h, sel.indices - 1, m, zeta)
            worst_fft = max(worst_fft, float(np.max(np.abs(fast - naive))))
    sel = select_random(128, 32, rng, pinned=True)
    paths = PathSet(np.array([1.0 + 0.4j, -0.5 + 0.2j]),
                    np.arcsin(np.array([-0.31, 0.47])))
    obs = uplink_channel(paths, sel)
    _, _, weights = _slope_terms(sel.indices.tobytes())
    root_n = np.sqrt(sel.num_receive)

    def objective(gain, w):
        # J(w) = ||y - g e(w)||^2, e(w) = sqrt(N) a_S(w), and its two
        # w-derivatives
        steer = root_n * steering_uplink(sel, w)
        resid = obs - gain * steer
        _, u1, u2 = np.vecdot(weights * obs, steer).tolist()
        return (float(np.vdot(resid, resid).real),
                *_path_derivatives(gain, u1, u2))

    # the curvature check differences the analytic slope: a plain second
    # difference of the objective loses half the mantissa to roundoff
    eps = 1e-6
    worst_d1 = worst_d2 = 0.0
    for _ in range(100):
        w = rng.uniform(-0.95, 0.95)
        gain = complex(rng.standard_normal(), rng.standard_normal())
        _, d1, d2 = objective(gain, w)
        vp, d1p, _ = objective(gain, w + eps)
        vm, d1m, _ = objective(gain, w - eps)
        fd1 = (vp - vm) / (2.0 * eps)
        worst_d1 = max(worst_d1, abs(d1 - fd1) / max(abs(fd1), 1e-6))
        fd2 = (d1p - d1m) / (2.0 * eps)
        worst_d2 = max(worst_d2, abs(d2 - fd2) / max(abs(fd2), 1e-3))
    elapsed = time.perf_counter() - start
    report(8, "matched filter FFT and derivatives",
           worst_fft < 1e-9 and worst_d1 < 1e-4 and worst_d2 < 1e-4
           and elapsed < 30.0,
           "fft err %.2g, d1 rel %.2g, d2 rel %.2g over 100 points, %.1fs"
           % (worst_fft, worst_d1, worst_d2, elapsed))


def test_criterion_09_selection_lobe_structure():
    start = time.perf_counter()
    comb = select_comb(128, 32)
    lobes = np.abs(array_factor(comb, np.array([-1.0, -0.5, 0.0, 0.5])))
    comb_ok = bool(np.all(np.abs(lobes - 32.0) < 1e-9))
    grid = np.linspace(-1.0, 1.0, 16384, endpoint=False)
    side = grid[np.abs(grid) >= 0.1]
    worst_side = 0.0
    for seed in range(20):
        sel = select_random(128, 32, np.random.default_rng(seed))
        worst_side = max(worst_side,
                         float(np.max(np.abs(array_factor(sel, side)))))
    elapsed = time.perf_counter() - start
    report(9, "selection lobe structure",
           comb_ok and worst_side < 0.7 * 32 and elapsed < 10.0,
           "comb lobes %s, random worst side peak %.2f < %.1f, %.2fs"
           % (np.round(lobes, 9).tolist(), worst_side, 0.7 * 32, elapsed))


def test_criterion_10_spectral_efficiency_orderings():
    start = time.perf_counter()
    up = run(ExperimentConfig(
        "se", link="uplink", snr_db=(10.0,), num_receive=(32,),
        selection=("random", "successive"), trials=500, master_seed=17,
        workers=2))
    up_se = {row[1]: (row[3], row[4]) for row in up.rows}
    down = run(ExperimentConfig(
        "se", link="downlink", snr_db=(10.0,), num_receive=(32,),
        selection=("random",), algorithm=("mnomp",), trials=500,
        master_seed=17, workers=2))
    dn_se = {row[1]: (row[4], row[5]) for row in down.rows}
    up_ok = up_se["random"][0] > up_se["successive"][0]
    asym, asym_err = dn_se["asym"]
    floor, _ = dn_se["full_digital_n"]
    perfect, perfect_err = dn_se["perfect_csi_m"]
    dn_ok = (asym >= 0.9 * floor
             and asym <= perfect + 3.0 * (asym_err + perfect_err))
    elapsed = time.perf_counter() - start
    report(10, "spectral efficiency orderings", up_ok and dn_ok
           and elapsed < 1200.0,
           "uplink random %.2f+/-%.2f > successive %.2f+/-%.2f; downlink"
           " asym %.2f+/-%.2f in [0.9*%.2f, %.2f+3sigma]; %.0fs"
           % (up_se["random"][0], up_se["random"][1],
              up_se["successive"][0], up_se["successive"][1],
              asym, asym_err, floor, perfect, elapsed))


def test_criterion_11_determinism_and_parallel_safety(monkeypatch):
    cfg = ExperimentConfig(
        "transfer-nmse", num_transmit=64, num_receive=(16,), num_users=4,
        paths_per_user=2, snr_db=(10.0,), algorithm=("dft", "mnomp"),
        selection=("random",), trials=6, master_seed=5)
    first = run(cfg).csv_text()
    second = run(cfg).csv_text()
    # 156 trials make four chunks of 39, so workers = 4 walks one chunk on
    # the caller and forks a process for each other one, on any machine
    monkeypatch.setattr(harness, "_usable_cores", lambda: 4)
    serial = run(ExperimentConfig(
        "se", link="downlink", num_transmit=64, num_receive=(16,),
        num_users=4, paths_per_user=2, snr_db=(10.0,), trials=156,
        master_seed=5, workers=1))
    parallel = run(ExperimentConfig(
        "se", link="downlink", num_transmit=64, num_receive=(16,),
        num_users=4, paths_per_user=2, snr_db=(10.0,), trials=156,
        master_seed=5, workers=4))
    identical = first == second
    par_ok = serial.csv_text() == parallel.csv_text()
    report(11, "determinism and parallel safety", identical and par_ok,
           "rerun identical=%s, parallel==serial=%s, %d csv bytes"
           % (identical, par_ok, len(first)))
