"""Pilot estimation, detection SINR, SNR loss and composite-beam effects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx.channel import (
    ArrayGeometry,
    PathSet,
    uplink_channel,
    user_channels,
)
from asymx.uplink import (
    PilotBlock,
    _peak_count,
    _scan_phases,
    SnrLossInputs,
    composite_angle,
    dirichlet_ratio,
    estimate_lmmse,
    estimate_ls,
    generate_pilots,
    make_selection,
    received_pilot,
    resolved_path_count,
    snr_loss_closed_form,
    snr_loss_numeric,
    steered_response,
    uplink_sinr,
)

M, N, K = 128, 32, 10
GEOM = ArrayGeometry(M)


def random_uplink(seed, num_users=K, num_receive=N):
    rng = np.random.default_rng(seed)
    sel = make_selection("random", M, num_receive, rng)
    users = [
        ((rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2),
         rng.uniform(-np.pi / 3, np.pi / 3, 3))
        for _ in range(num_users)
    ]
    gains, angles = zip(*users)
    h_up, _ = user_channels(PathSet([gains], [angles]), [sel], GEOM)
    return sel, h_up[0]


# ---------------------------------------------------------------- pilots


def test_pilot_rows_orthonormal():
    for tau in (K, 16, 64):
        pilots = generate_pilots(K, tau, power=3.0)
        gram = pilots.matrix @ pilots.matrix.conj().T
        assert np.allclose(gram, np.eye(K), atol=1e-12)


def test_pilot_length_validated():
    with pytest.raises(ValueError):
        generate_pilots(K, K - 1)
    with pytest.raises(ValueError, match="K >= 1"):
        generate_pilots(0, 0)
    with pytest.raises(ValueError):
        PilotBlock(np.eye(4)[:2], power=0.0)
    with pytest.raises(ValueError, match="tau >= K"):
        PilotBlock(np.eye(4)[:, :2], power=1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        PilotBlock(2.0 * np.eye(4)[:2], power=1.0)


def test_pilot_powers_validated():
    rows = np.eye(4)[:2]
    for power in ([1.0, 0.0], [2.0, -1.0], [1.0, np.nan], [[1.0]], np.inf,
                  [1.0, np.inf]):
        with pytest.raises(ValueError):
            PilotBlock(rows, power)
    with pytest.raises(ValueError, match="positive and finite"):
        generate_pilots(2, 2, np.inf)
    assert np.array_equal(PilotBlock(rows, [1.0, 2.0]).power, [1.0, 2.0])
    assert PilotBlock(rows, 3).power == 3.0


def test_received_pilot_noiseless():
    # what is left after the signal is unit-variance CN noise, drawn as the
    # real block, then the imaginary block
    sel, h_up = random_uplink(0)
    pilots = generate_pilots(K, 16, power=4.0)
    y = received_pilot(h_up, pilots, [np.random.default_rng(0)])
    twin = np.random.default_rng(0)
    re, im = twin.standard_normal((2, N, 16))
    noise = np.sqrt(0.5) * (re + 1j * im)
    assert np.allclose(y - noise, 2.0 * h_up @ pilots.matrix,
                       atol=1e-12)


def test_ls_recovers_noiseless_channel():
    sel, h_up = random_uplink(1)
    pilots = generate_pilots(K, 16, power=2.0)
    est = estimate_ls(np.sqrt(2.0) * h_up @ pilots.matrix, pilots)
    assert isinstance(est, np.ndarray)
    assert np.allclose(est, h_up, atol=1e-10)


def test_ls_error_floor_matches_pilot_snr():
    # estimation error per entry has variance 1/rho_tau
    sel, h_up = random_uplink(2)
    rho = 10.0
    pilots = generate_pilots(K, K, power=rho)
    rng = np.random.default_rng(3)
    errs = []
    for _ in range(200):
        y = received_pilot(h_up, pilots, [rng])
        errs.append(np.mean(np.abs(estimate_ls(y, pilots) - h_up) ** 2))
    assert np.mean(errs) == pytest.approx(1.0 / rho, rel=0.1)


def test_lmmse_is_shrunk_ls():
    # with R = N I the LMMSE filter is scalar shrinkage N rho/(1 + N rho)
    sel, h_up = random_uplink(4)
    rho = 0.5
    pilots = generate_pilots(K, K, power=rho)
    y = np.sqrt(rho) * h_up @ pilots.matrix
    ls = estimate_ls(y, pilots)
    lmmse = estimate_lmmse(y, pilots)
    shrink = N * rho / (1.0 + N * rho)
    assert np.allclose(lmmse, shrink * ls, atol=1e-10)


def test_lmmse_approaches_ls_at_high_snr():
    sel, h_up = random_uplink(5)
    pilots = generate_pilots(K, K, power=1e9)
    y = np.sqrt(1e9) * h_up @ pilots.matrix
    assert np.allclose(estimate_lmmse(y, pilots), h_up, atol=1e-6)


# ------------------------------------------------------------- detection


def test_mrc_sinr_single_user_perfect_csi():
    # v = h: SINR = rho ||h||^2 exactly
    sel, h_up = random_uplink(7, num_users=1)
    rho = 3.0
    sinr = uplink_sinr(h_up, h_up, rho, "mrc")
    assert sinr.shape == (1,)
    assert sinr[0] == pytest.approx(
        rho * np.linalg.norm(h_up[:, 0]) ** 2, rel=1e-12)


def test_zf_sinr_perfect_csi_removes_interference():
    # v_k^H h_i = delta_ki, so SINR_k = rho / ||v_k||^2
    sel, h_up = random_uplink(8)
    rho = 2.0
    sinr = uplink_sinr(h_up, h_up, rho, "zf")
    v = np.linalg.pinv(h_up).conj().T
    expected = rho / np.sum(np.abs(v) ** 2, axis=0)
    assert np.allclose(sinr, expected, rtol=1e-9)


def test_zf_sinr_rank_deficient_estimate_takes_pseudo_inverse():
    # two equal estimated columns make the Gram exactly singular; ZF then
    # combines with the pseudo-inverse columns of the estimate
    sel, h_up = random_uplink(9)
    est = h_up.copy()
    est[:, 1] = est[:, 0]
    rho = 2.0
    sinr = uplink_sinr(est, h_up, rho, "zf")
    assert np.all(np.isfinite(sinr))
    v = np.linalg.pinv(est).conj().T
    cross = np.abs(v.conj().T @ h_up) ** 2
    signal = np.diag(cross)
    expected = rho * signal / (rho * (cross.sum(axis=1) - signal)
                               + np.sum(np.abs(v) ** 2, axis=0))
    assert np.allclose(sinr, expected, rtol=1e-9, atol=0.0)
    # in a stack only the singular slice falls back; each slice is its call
    stack = uplink_sinr(np.stack([h_up, est]), h_up, [rho, rho], "zf")
    assert np.array_equal(stack, [uplink_sinr(h_up, h_up, rho, "zf"), sinr])


def test_power_validated():
    sel, h_up = random_uplink(10)
    # one bad entry of a stacked power is enough
    for power in (-1.0, 0.0, np.nan, np.inf, [1.0, np.nan, 2.0],
                  [1.0, 2.0, 0.0]):
        est = np.broadcast_to(h_up, (np.size(power), *h_up.shape))
        for detector in ("mrc", "zf"):
            with pytest.raises(ValueError, match="power"):
                uplink_sinr(est, h_up, power, detector)


def test_unknown_detector_rejected():
    sel, h_up = random_uplink(10)
    with pytest.raises(ValueError):
        uplink_sinr(h_up, h_up, 1.0, "mmse")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_snrs=st.integers(1, 8),
       num_receive=st.integers(1, 40), detector=st.sampled_from(["mrc", "zf"]),
       seed=st.integers(0, 2**32 - 1))
def test_snr_stack_equals_per_slice_calls(data, num_snrs, num_receive,
                                          detector, seed):
    # the trial pipeline receives, estimates and detects all SNRs of a
    # setup in one call each, with one pilot block carrying the S powers;
    # every slice must be the bytes of its own one-power call, the noise
    # included: one stacked draw reads the stream as S draws do
    num_users = data.draw(st.integers(1, num_receive))
    snr_db = data.draw(st.lists(st.floats(-10.0, 30.0), min_size=num_snrs,
                                max_size=num_snrs))
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((num_receive, num_users))
         + 1j * rng.standard_normal((num_receive, num_users))) / np.sqrt(2)
    powers = 10.0 ** (np.array(snr_db) / 10.0)
    pilots = generate_pilots(num_users, num_users, powers)
    singles = [generate_pilots(num_users, num_users, rho) for rho in powers]
    received = received_pilot(h, pilots, [np.random.default_rng([seed, 1])])
    assert received.shape == (num_snrs, num_receive, num_users)
    noise = np.random.default_rng([seed, 1])
    assert np.array_equal(received, [received_pilot(h, p, [noise])
                                     for p in singles])
    for estimate in (estimate_ls, estimate_lmmse):
        stack = estimate(received, pilots)
        assert stack.shape == (num_snrs, num_receive, num_users)
        assert np.array_equal(stack, [
            estimate(y, p) for y, p in zip(received, singles)])
        sinr = uplink_sinr(stack, h, pilots.power, detector)
        assert sinr.shape == (num_snrs, num_users)
        assert np.array_equal(sinr, [
            uplink_sinr(est, h, rho, detector)
            for est, rho in zip(stack, powers)])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), num_trials=st.integers(1, 5),
       num_snrs=st.sampled_from([None, 1, 3]), num_receive=st.integers(1, 24),
       detector=st.sampled_from(["mrc", "zf"]),
       seed=st.integers(0, 2**32 - 1))
def test_trial_stack_equals_per_trial_calls(data, num_trials, num_snrs,
                                            num_receive, detector, seed):
    # the trial pipeline receives, estimates and detects a chunk of trials
    # in one call each, with one generator per trial; every trial slice
    # must be the bytes of its own one-trial call, the noise included
    num_users = data.draw(st.integers(1, num_receive))
    rng = np.random.default_rng(seed)
    shape = (num_trials, num_receive, num_users)
    h = (rng.standard_normal(shape)
         + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    powers = (2.0 if num_snrs is None
              else 10.0 ** (rng.uniform(-10.0, 30.0, num_snrs) / 10.0))
    pilots = generate_pilots(num_users, num_users, powers)

    def streams():
        return [np.random.default_rng([seed, t]) for t in range(num_trials)]

    received = received_pilot(h, pilots, streams())
    snr_axes = () if num_snrs is None else (num_snrs,)
    assert received.shape == (num_trials, *snr_axes, num_receive, num_users)
    for t, noise in enumerate(streams()):
        assert np.array_equal(received[t], received_pilot(h[t], pilots,
                                                          [noise]))
    for estimate in (estimate_ls, estimate_lmmse):
        stack = estimate(received, pilots)
        sinr = uplink_sinr(stack, h.reshape(num_trials, *[1] * len(snr_axes),
                                            num_receive, num_users),
                           pilots.power, detector)
        for t in range(num_trials):
            assert np.array_equal(stack[t], estimate(received[t], pilots))
            assert np.array_equal(sinr[t], uplink_sinr(stack[t], h[t],
                                                       pilots.power, detector))
    with pytest.raises(ValueError, match="generators"):
        received_pilot(h, pilots, streams() + [rng])


def test_make_selection_dispatch():
    rng = np.random.default_rng(0)
    assert make_selection("successive", M, N).kind == "successive"
    assert make_selection("comb", M, N).kind == "comb"
    assert make_selection("random", M, N, rng).kind == "random"
    pinned = make_selection("random", M, N, rng, pinned=True)
    assert pinned.indices[0] == 1 and pinned.indices[-1] == M
    with pytest.raises(ValueError):
        make_selection("random", M, N)
    with pytest.raises(ValueError):
        make_selection("sparse", M, N)


# ---------------------------------------------------- SNR loss / composite


def loss_inputs(theta1, theta2, theta_s, phi1, phi2, n=N):
    return SnrLossInputs(theta1, theta2, theta_s, phi1, phi2, n)


def test_dirichlet_ratio_matches_direct_sum():
    # |sum_{n=0}^{c-1} e^{j 2 pi u n}| = |sin(c pi u) / sin(pi u)|
    for count in (8, 32):
        for u in (-0.73, -0.2, 0.11, 0.26, 0.999):
            direct = np.abs(np.exp(1j * 2 * np.pi * u
                                   * np.arange(count)).sum())
            assert abs(dirichlet_ratio(count, u)) == \
                pytest.approx(direct, abs=1e-9)


def test_dirichlet_ratio_limit_at_integers():
    assert dirichlet_ratio(32, 0.0) == pytest.approx(32.0)
    assert abs(dirichlet_ratio(32, 1.0)) == pytest.approx(32.0)
    assert abs(dirichlet_ratio(32, 2.0)) == pytest.approx(32.0)
    # continuity: approaching the zero from either side
    assert dirichlet_ratio(32, 1e-9) == pytest.approx(32.0, rel=1e-6)


def test_snr_loss_closed_matches_numeric_spot():
    inputs = loss_inputs(np.deg2rad(51.315), np.deg2rad(54.285),
                         np.deg2rad(52.8), 0.0, np.pi)
    closed = snr_loss_closed_form(inputs)
    numeric = snr_loss_numeric(inputs)
    assert closed == pytest.approx(numeric, rel=1e-12)
    assert 0.0 < closed < 1.0


def test_snr_loss_zero_at_perfect_steering():
    # steering exactly onto a single effective path: loss -> 0 when the
    # two paths collapse onto the composite direction is impossible, but
    # equal paths at tiny separation steered at the midpoint lose ~0
    theta = np.deg2rad(30.0)
    eps = 1e-5
    inputs = loss_inputs(theta - eps, theta + eps, theta, 0.0, 0.0)
    assert snr_loss_numeric(inputs) < 1e-6


def test_snr_loss_rejects_degenerate_paths():
    with pytest.raises(ValueError):
        loss_inputs(0.3, 0.3, 0.3, 0.0, 1.0)
    with pytest.raises(ValueError, match="num_receive"):
        loss_inputs(0.3, 0.5, 0.4, 0.0, 1.0, n=0)
    with pytest.raises(ValueError, match="num_receive"):
        loss_inputs(0.3, 0.5, 0.4, 0.0, 1.0, n=4.5)
    for angles in ((np.nan, 0.5, 0.4, 0.0, 1.0), (0.3, 0.5, 0.4, 0.0, np.inf),
                   (0.3, 0.5, np.nan, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            loss_inputs(*angles)
    with pytest.raises(ValueError, match="spacing"):
        SnrLossInputs(0.3, 0.5, 0.4, 0.0, 1.0, N, np.nan)


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(-1.0, 0.55),
    dt=st.floats(0.01, 0.5),
    ts=st.floats(-1.3, 1.3),
    phi1=st.floats(0.0, 2 * np.pi),
    phi2=st.floats(0.0, 2 * np.pi),
)
def test_snr_loss_bounded_and_consistent(t1, dt, ts, phi1, phi2):
    inputs = loss_inputs(t1, t1 + dt, ts, phi1, phi2)
    closed = snr_loss_closed_form(inputs)
    numeric = snr_loss_numeric(inputs)
    assert -1e-12 <= closed <= 1.0 + 1e-12
    assert closed == pytest.approx(numeric, rel=1e-8, abs=1e-10)


def test_composite_angle_between_paths_for_equal_phases():
    sel = make_selection("successive", 256, 32)
    geom = ArrayGeometry(256)
    t1, t2 = np.deg2rad(51.3), np.deg2rad(54.3)
    comp = composite_angle(t1, t2, 0.0, 0.0, sel, geom)
    assert t1 < comp < t2
    # frozen reference from a dense steering sweep of this configuration
    assert np.degrees(comp) == pytest.approx(52.77457, abs=2e-3)


def test_composite_angle_symmetric_paths():
    # paths inside one resolution cell merge into a broadside beam
    sel = make_selection("successive", 256, 32)
    geom = ArrayGeometry(256)
    comp = composite_angle(np.deg2rad(-1.0), np.deg2rad(1.0), 0.5, 0.5,
                           sel, geom)
    assert abs(np.degrees(comp)) < 0.05


def test_steered_response_peak_aligns_with_single_path():
    sel = make_selection("successive", M, N)
    paths = PathSet(np.array([1.0 + 0j]), np.array([np.deg2rad(20.0)]))
    h = uplink_channel(paths, sel, GEOM)
    grid = np.linspace(-1.0, 1.0, 2001)
    resp = steered_response(h, sel, GEOM, grid)
    assert grid[np.argmax(resp)] == pytest.approx(np.sin(np.deg2rad(20.0)),
                                                  abs=2e-3)


def test_resolved_path_count_merged_vs_split():
    # equal phases merge into one beam; opposite-quadrature phases split
    sel = make_selection("successive", 256, 32)
    geom = ArrayGeometry(256)
    t1, t2 = np.deg2rad(51.315), np.deg2rad(54.285)
    w_mid = 0.5 * (np.sin(t1) + np.sin(t2))
    merged = PathSet(np.array([1.0, 1.0]), np.array([t1, t2]))
    h = uplink_channel(merged, sel, geom)
    assert resolved_path_count(h, sel, geom, w_mid) == 1
    split = PathSet(np.array([1.0, np.exp(1.5j * np.pi)]), np.array([t1, t2]))
    h2 = uplink_channel(split, sel, geom)
    assert resolved_path_count(h2, sel, geom, w_mid) == 2


@pytest.mark.parametrize("spacing", (0.5, 0.4))
def test_snr_loss_scans_take_their_phase_matrices_prebuilt(spacing):
    # a sweep builds the first composite-angle grid and the peak window
    # once; each channel's scans must give the bits of building them itself
    sel = make_selection("successive", 64, 16)
    geom = ArrayGeometry(64, spacing)
    t1, t2 = np.deg2rad(20.0), np.deg2rad(24.0)
    w_mid = 0.5 * (np.sin(t1) + np.sin(t2))
    coarse = _scan_phases(sel, geom)
    window = _scan_phases(sel, geom, w_mid)
    assert coarse.shape == window.shape == (16, 16 * 64)
    for phi in np.linspace(0.0, 2.0 * np.pi, 7):
        assert composite_angle(t1, t2, 0.0, phi, sel, geom, coarse) == (
            composite_angle(t1, t2, 0.0, phi, sel, geom))
        h = uplink_channel(PathSet(np.array([1.0, np.exp(1j * phi)]),
                                   np.array([t1, t2])), sel, geom)
        assert resolved_path_count(h, sel, geom, w_mid, window) == (
            resolved_path_count(h, sel, geom, w_mid))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), max_size=40),
    scale=st.sampled_from([1.0, 0.1]),
    height=st.integers(-3, 3),
    prominence=st.integers(0, 6),
)
def test_peak_rule_counts_as_scipy_find_peaks(values, scale, height,
                                              prominence):
    # few distinct levels give plateaus, flat tops at the ends and
    # thresholds that tie a peak's height or prominence exactly
    signal = pytest.importorskip("scipy.signal")
    x = scale * np.array(values, dtype=float)
    h, p = scale * height, scale * prominence
    want = signal.find_peaks(x, height=h, prominence=p)[0].size
    assert _peak_count(x, h, p) == want


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([16, 32, 64, 128, 256]),
    n=st.sampled_from([4, 8, 16, 32]),
    spacing=st.sampled_from([0.25, 0.4, 0.5]),
    theta1=st.floats(-1.5, 1.5),
    gap=st.floats(0.05, 2.0),
    phi=st.floats(0.0, 2.0 * np.pi),
)
def test_composite_angle_zoom_matches_bounded_brent(m, n, spacing, theta1,
                                                    gap, phi):
    # the grid zoom against SciPy's bounded Brent search at xatol 1e-7 on
    # the same bracket; a periodogram value may trail Brent's by rounding
    optimize = pytest.importorskip("scipy.optimize")
    n = min(n, m)
    sel = make_selection("successive", m, n)
    geom = ArrayGeometry(m, spacing)
    w1 = np.sin(theta1)
    w2 = w1 + gap / (n * spacing) * (1.0 if w1 < 0 else -1.0)
    theta2 = float(np.arcsin(np.clip(w2, -1.0, 1.0)))
    paths = PathSet(np.array([1.0, np.exp(1j * phi)]),
                    np.array([theta1, theta2]))
    h = uplink_channel(paths, sel, geom)
    grid = np.linspace(-1.0, 1.0, 16 * m)
    best = grid[np.argmax(steered_response(h, sel, geom, grid))]
    step = grid[1] - grid[0]
    brent = optimize.minimize_scalar(
        lambda w: -steered_response(h, sel, geom, w)[0],
        bounds=(max(-1.0, best - step), min(1.0, best + step)),
        method="bounded", options={"xatol": 1e-7}).x
    w_zoom = np.sin(composite_angle(theta1, theta2, 0.0, phi, sel, geom))
    assert abs(w_zoom - brent) <= 1e-7
    zoom_value, brent_value = steered_response(h, sel, geom, [w_zoom, brent])
    assert zoom_value >= brent_value * (1.0 - 1e-13)
