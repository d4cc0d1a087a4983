"""Uplink-to-downlink channel transfer: DFT peaks and Newtonized pursuit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymx.channel import (
    ArrayGeometry,
    PathSet,
    _phase_slope,
    downlink_channel,
    steering_uplink,
    uplink_channel,
)
from asymx.downlink import nmse
from asymx.transfer import (
    TransferConfig,
    _path_derivatives,
    _refine,
    bin_to_spatial_freq,
    default_threshold,
    dft_transfer,
    find_peaks,
    mnomp_transfer,
    spatial_matched_filter,
)
from asymx.uplink import make_selection

M, N = 128, 32
GEOM = ArrayGeometry(M)
SPACINGS = (0.25, 0.4, 0.5, 0.75, 1.0)


def pinned_random(seed):
    return make_selection("random", M, N, np.random.default_rng(seed),
                          pinned=True)


def on_model_channel(seed, num_paths, min_sep=2.0 / M):
    """Well separated paths drawn inside the steerable sector."""
    rng = np.random.default_rng(seed)
    while True:
        angles = rng.uniform(-np.pi / 3, np.pi / 3, num_paths)
        w = np.sin(angles)
        if num_paths == 1 or np.min(np.diff(np.sort(w))) > min_sep:
            break
    gains = (rng.standard_normal(num_paths)
             + 1j * rng.standard_normal(num_paths)) / np.sqrt(2)
    return PathSet(gains, angles)


def channel_pair(paths, sel):
    return uplink_channel(paths, sel, GEOM), downlink_channel(paths, GEOM)


def slope_terms(sel, geom=GEOM):
    """(p, [p, p^2], sum |p_n|^2) of a selection, as ``mnomp_transfer``."""
    pos = _phase_slope(geom, sel.indices)
    return pos, np.stack((pos, pos * pos)), float(np.vdot(pos, pos).real)


def objective(obs, gain, w, sel):
    """J(w) = ||y - g e(w)||^2, e(w) = sqrt(N) a_S(w), and its first two
    w-derivatives."""
    steer = np.sqrt(N) * steering_uplink(sel, GEOM, w)
    resid = obs - gain * steer
    _, slopes, slope_energy = slope_terms(sel)
    d1, d2 = _path_derivatives(resid, gain, steer, slopes, slope_energy)
    return float(np.vdot(resid, resid).real), d1, d2


def refine(residual, gain, w, sel, rounds, geom=GEOM):
    """``_refine`` from (gain, w) alone: returns (gain, w, residual)."""
    pos, slopes, slope_energy = slope_terms(sel, geom)
    gain, w, _, resid = _refine(residual, gain, w,
                                np.sqrt(N) * steering_uplink(sel, geom, w),
                                pos, slopes, slope_energy, rounds,
                                1.0 / geom.spacing)
    return gain, w, resid


# ------------------------------------------------------------- plumbing


def test_config_validation():
    with pytest.raises(ValueError):
        TransferConfig(0, 1.0)
    with pytest.raises(ValueError):
        TransferConfig(4, 0.0)
    with pytest.raises(ValueError):
        TransferConfig(4, 1.0, newton_rounds=-1)
    with pytest.raises(ValueError):
        TransferConfig(4, 1.0, max_paths=0)
    with pytest.raises(ValueError):
        TransferConfig(4, 1.0, regularizer=-1e-6)
    # a NaN threshold made mNOMP stop at once and report convergence
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            TransferConfig(4, bad)
        with pytest.raises(ValueError):
            TransferConfig(4, 1.0, regularizer=bad)
    # a fractional count reached np.fft.fft or range() as a TypeError
    for name in ("oversampling", "newton_rounds", "cyclic_rounds",
                 "max_paths"):
        with pytest.raises(ValueError, match=name):
            TransferConfig(**{"oversampling": 4, "threshold": 1.0,
                              name: 1.5})
    counts = TransferConfig(np.int64(4), 1.0, newton_rounds=np.int32(2),
                            cyclic_rounds=np.uint8(1), max_paths=np.int64(3))
    assert counts.oversampling == 4 and counts.max_paths == 3


def test_default_threshold_is_noise_energy():
    assert default_threshold(32, 100.0) == pytest.approx(0.32)
    assert default_threshold(16, 10.0) == pytest.approx(1.6)
    # inf gave a threshold of 0.0 and NaN a NaN threshold
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            default_threshold(32, bad)


def test_spatial_matched_filter_rejects_wrong_length():
    sel = pinned_random(0)
    h = np.arange(1, N + 1).astype(complex)
    assert spatial_matched_filter(h, sel, 4).shape == (4 * M,)
    with pytest.raises(ValueError):
        spatial_matched_filter(h[:-1], sel, 4)


@pytest.mark.parametrize("transfer", [dft_transfer, mnomp_transfer])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_transfer_rejects_non_finite_estimate(transfer, bad):
    # DFT used to divide by zero kept peaks (NaN) or warn (inf); mNOMP
    # returned no path, a zero downlink and a NaN residual
    sel = pinned_random(0)
    h = np.ones(N, dtype=complex)
    h[3] = bad
    config = TransferConfig(4, default_threshold(N, 10.0))
    with pytest.raises(ValueError, match="estimate must be finite"):
        transfer(h, sel, GEOM, config)


def test_spatial_matched_filter_equals_naive_correlation():
    # one FFT of the conjugated vector == correlating against every
    # candidate steering direction on the oversampled grid
    rng = np.random.default_rng(1)
    for m in (16, 64):
        sel = make_selection("random", m, m // 4, rng)
        full = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = full[sel.indices - 1]
        for zeta in (1, 2, 4, 8):
            size = m * zeta
            grid = np.arange(size)
            naive = np.array([
                np.sum(np.conj(h) * np.exp(-2j * np.pi * (sel.indices - 1)
                                           * b / size))
                for b in grid
            ]) / sel.num_receive
            fast = spatial_matched_filter(h, sel, zeta)
            assert np.max(np.abs(fast - naive)) < 1e-9


def test_bin_to_spatial_freq_wraps():
    got = bin_to_spatial_freq(np.arange(8), 8, 0.5)
    assert np.allclose(got, [0.0, 0.25, 0.5, 0.75, -1.0, -0.75, -0.5, -0.25])
    assert bin_to_spatial_freq(3, 8, 0.5) == pytest.approx(0.75)
    assert bin_to_spatial_freq(4, 8, 0.5) == pytest.approx(-1.0)


def test_find_peaks_circular_and_sorted():
    assert find_peaks(np.array([0.0, 3.0, 1.0, 2.0])).tolist() == [1, 3]
    # circular: the last bin beats its wrap-around neighbour
    assert find_peaks(np.array([1.0, 0.0, 0.0, 5.0])).tolist() == [3]
    # plateaus are non-strict peaks; magnitude ties break to lower index
    assert find_peaks(np.array([2.0, 2.0, 1.0, 1.5])).tolist() == [0, 1]
    assert find_peaks(np.array([7.0])).tolist() == [0]
    # complex scores are ranked by magnitude
    assert find_peaks(np.array([1.0, -3.0j, 0.5, 2.0])).tolist() == [1, 3]


# ---------------------------------------------------------- DFT transfer


def test_dft_exact_on_grid_single_path():
    # a path exactly on a DFT bin scores conj(g) at that bin and nothing
    # is left to explain, for any selection containing element 1
    w0 = 2.0 * 17 / M
    g = 0.8 + 0.6j
    paths = PathSet(np.array([g]), np.array([np.arcsin(w0)]))
    for sel in (make_selection("successive", M, N), pinned_random(2)):
        h_up, h_dn = channel_pair(paths, sel)
        res = dft_transfer(h_up, sel, GEOM, TransferConfig(1, 1e-10))
        assert res.paths_found == 1
        assert not res.truncated
        assert res.spatial_freqs[0] == pytest.approx(w0, abs=1e-12)
        assert res.gains[0] == pytest.approx(g, abs=1e-9)
        assert nmse(res.downlink_estimate, h_dn) < 1e-20
        assert res.residual_energy <= 1e-10


def test_dft_exact_on_grid_orthogonal_paths():
    # successive selection: bins 4k apart are exactly orthogonal, so
    # three such paths are recovered without leakage (one may wrap)
    sel = make_selection("successive", M, N)
    freqs = np.array([0.25, 0.75, -0.5])
    gains = np.array([1.0 + 0j, 1.0j, -1.0 + 0j])
    paths = PathSet(gains, np.arcsin(freqs))
    h_up, h_dn = channel_pair(paths, sel)
    res = dft_transfer(h_up, sel, GEOM, TransferConfig(1, 1e-9))
    assert res.paths_found == 3
    assert sorted(np.round(res.spatial_freqs, 9)) == [-0.5, 0.25, 0.75]
    assert nmse(res.downlink_estimate, h_dn) < 1e-20


def test_dft_always_keeps_at_least_one_peak():
    sel = make_selection("successive", M, N)
    paths = on_model_channel(3, 1)
    h_up, _ = channel_pair(paths, sel)
    res = dft_transfer(h_up, sel, GEOM, TransferConfig(8, 1e9))
    assert res.paths_found == 1
    assert not res.truncated


def test_dft_truncates_at_max_paths():
    # a 3-path channel cannot be explained to float precision by 2 bins
    sel = pinned_random(4)
    paths = on_model_channel(4, 3)
    h_up, _ = channel_pair(paths, sel)
    res = dft_transfer(h_up, sel, GEOM, TransferConfig(8, 1e-18, max_paths=2))
    assert res.paths_found == 2
    assert res.truncated
    assert res.residual_energy > 1e-18


def test_dft_respects_threshold_bookkeeping():
    sel = pinned_random(5)
    paths = on_model_channel(6, 3)
    h_up, _ = channel_pair(paths, sel)
    thr = 0.05 * np.linalg.norm(h_up) ** 2
    res = dft_transfer(h_up, sel, GEOM, TransferConfig(8, thr))
    if not res.truncated:
        assert res.residual_energy <= thr
    energy = np.linalg.norm(h_up) ** 2
    explained = N * np.sum(np.abs(res.gains / np.sqrt(res.paths_found)) ** 2)
    assert res.residual_energy == pytest.approx(energy - explained, rel=1e-9)


# --------------------------------------------------------- mNOMP pieces


def test_matched_filter_peak_on_grid():
    w0 = 2.0 * 40 / (M * 4)
    g = -0.3 + 1.1j
    sel = pinned_random(6)
    paths = PathSet(np.array([g]), np.array([np.arcsin(w0)]))
    h_up, _ = channel_pair(paths, sel)
    scores = spatial_matched_filter(h_up, sel, 4)
    best = int(np.argmax(np.abs(scores)))
    w = bin_to_spatial_freq(best, scores.size, GEOM.spacing)
    assert w == pytest.approx(w0, abs=1e-12)
    assert complex(scores[best]) == pytest.approx(np.conj(g), abs=1e-9)


def test_newton_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    sel = pinned_random(7)
    paths = on_model_channel(8, 2)
    obs = uplink_channel(paths, sel, GEOM)
    # wider step for the curvature: second differences amplify roundoff
    eps1, eps2 = 1e-6, 1e-5
    for _ in range(20):
        w = rng.uniform(-0.95, 0.95)
        gain = complex(rng.standard_normal(), rng.standard_normal())
        value, d1, d2 = objective(obs, gain, w, sel)
        vp = objective(obs, gain, w + eps1, sel)[0]
        vm = objective(obs, gain, w - eps1, sel)[0]
        assert d1 == pytest.approx((vp - vm) / (2 * eps1), rel=1e-4, abs=1e-6)
        vp2 = objective(obs, gain, w + eps2, sel)[0]
        vm2 = objective(obs, gain, w - eps2, sel)[0]
        assert d2 == pytest.approx((vp2 - 2 * value + vm2) / eps2**2,
                                   rel=1e-4, abs=1e-3)


def test_fit_error_vanishes_at_the_true_path():
    sel = pinned_random(8)
    paths = on_model_channel(9, 1)
    obs = uplink_channel(paths, sel, GEOM)
    w = float(paths.spatial_freqs[0])
    g = complex(paths.gains[0])
    value, _, _ = objective(obs, g, w, sel)
    assert value == pytest.approx(0.0, abs=1e-20)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 6),
       spacing=st.sampled_from(SPACINGS))
# seeds whose least-squares start gets worse if a worse step is kept
@example(seed=10, rounds=1, spacing=0.5)
@example(seed=43, rounds=2, spacing=0.5)
@example(seed=74, rounds=5, spacing=0.5)
def test_refine_never_worsens_fit(seed, rounds, spacing):
    geom = ArrayGeometry(M, spacing)
    half = 0.5 / spacing
    rng = np.random.default_rng(seed)
    sel = make_selection("random", M, N, rng, pinned=True)
    paths = PathSet(
        (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2),
        rng.uniform(-np.pi / 3, np.pi / 3, 2),
    )
    obs = uplink_channel(paths, sel, geom)
    w0 = float(rng.uniform(-half, half))
    g0 = complex(rng.standard_normal(), rng.standard_normal())
    a0 = steering_uplink(sel, geom, w0)
    # the first trial's gain refit beats a random start gain whatever the
    # step does; only a start at the least-squares gain for w0 leaves the
    # acceptance test to judge the step itself
    g_ls = complex(np.vdot(a0, obs) / (np.sqrt(N) * np.vdot(a0, a0).real))
    for g in (g0, g_ls):
        start = obs - np.sqrt(N) * g * a0
        before = float(np.vdot(start, start).real)
        gain, w, after = refine(start, g, w0, sel, rounds, geom)
        assert float(np.vdot(after, after).real) <= before + 1e-9
        assert -half <= w < half


def test_refine_polishes_single_path():
    sel = pinned_random(9)
    paths = on_model_channel(10, 1)
    w_true = float(paths.spatial_freqs[0])
    g_true = complex(paths.gains[0])
    obs = uplink_channel(paths, sel, GEOM)
    w0 = w_true + 1e-3
    start = obs - np.sqrt(N) * g_true * steering_uplink(sel, GEOM, w0)
    gain, w, resid = refine(start, g_true, w0, sel, 30)
    assert abs(w - w_true) < 1e-6
    assert abs(gain - g_true) < 1e-4
    assert float(np.vdot(resid, resid).real) < 1e-8


@pytest.mark.parametrize("spacing", SPACINGS)
def test_refine_wraps_onto_the_period(spacing):
    # a path just above -1/(2d), refined from just below 1/(2d): the steps
    # cross the period's edge and must land back on [-1/(2d), 1/(2d))
    geom = ArrayGeometry(M, spacing)
    half = 0.5 / spacing
    sel = pinned_random(11)
    w_true, g_true = -half + 5e-4, 0.8 - 0.6j
    obs = np.sqrt(N) * g_true * steering_uplink(sel, geom, w_true)
    w0 = half - 5e-4
    start = obs - np.sqrt(N) * g_true * steering_uplink(sel, geom, w0)
    gain, w, resid = refine(start, g_true, w0, sel, 30, geom)
    assert -half <= w < half
    assert abs(w - w_true) < 1e-6
    assert float(np.vdot(resid, resid).real) < 1e-8


# ------------------------------------------------------- mNOMP end to end


@settings(max_examples=80, deadline=None)
@given(data=st.data(), algorithm=st.sampled_from(["dft", "mnomp"]),
       kind=st.sampled_from(["successive", "random"]),
       num_receive=st.sampled_from([16, 32]),
       spacing=st.sampled_from(SPACINGS),
       magnitude=st.floats(0.1, 3.0), phase=st.floats(0.0, 2 * np.pi),
       seed=st.integers(0, 2**32 - 1))
def test_noiseless_on_grid_path_recovered_exactly(data, algorithm, kind,
                                                  num_receive, spacing,
                                                  magnitude, phase, seed):
    # without noise, one path on a bin of the kernel's own grid is found
    # alone, at its frequency, and rebuilds the downlink to rounding; mNOMP
    # runs without the ridge term, whose 1/(1 + 1e-4) shrinkage of the
    # refit gain would leave energy over the threshold.  Comb selection is
    # left out: its grating lobes alias the bin.  The grid spans one period
    # 1/d of the steering phase; only its bins with |w| <= 1 are angles.
    kernel, oversampling = {"dft": (dft_transfer, 8),
                            "mnomp": (mnomp_transfer, 4)}[algorithm]
    size = M * oversampling
    grid = bin_to_spatial_freq(np.arange(size), size, spacing)
    w = float(data.draw(st.sampled_from(grid[np.abs(grid) <= 1.0])))
    sel = make_selection(kind, M, num_receive, np.random.default_rng(seed))
    paths = PathSet(np.array([magnitude * np.exp(1j * phase)]),
                    np.array([np.arcsin(w)]))
    geom = ArrayGeometry(M, spacing)
    h_up = uplink_channel(paths, sel, geom)
    h_dn = downlink_channel(paths, geom)
    res = kernel(h_up, sel, geom,
                 TransferConfig(oversampling, 1e-6, regularizer=0.0))
    assert res.paths_found == 1
    assert abs(res.spatial_freqs[0] - w) <= 1e-12
    assert np.max(np.abs(res.downlink_estimate - h_dn)) <= 1e-12


EXACT = TransferConfig(4, 1e-6, newton_rounds=8, cyclic_rounds=4)


def test_mnomp_single_path_exact():
    # on- or off-grid single path: frequency to < 1e-4, NMSE < -40 dB
    for seed in range(6):
        sel = pinned_random(100 + seed)
        paths = on_model_channel(200 + seed, 1)
        h_up, h_dn = channel_pair(paths, sel)
        res = mnomp_transfer(h_up, sel, GEOM, EXACT)
        assert res.paths_found >= 1
        w_true = float(paths.spatial_freqs[0])
        assert min(abs(res.spatial_freqs - w_true)) < 1e-4
        assert 10 * np.log10(nmse(res.downlink_estimate, h_dn)) < -40.0


def test_mnomp_three_paths_exact():
    for seed in range(6):
        sel = pinned_random(300 + seed)
        paths = on_model_channel(400 + seed, 3)
        h_up, h_dn = channel_pair(paths, sel)
        res = mnomp_transfer(h_up, sel, GEOM, EXACT)
        assert res.paths_found >= 3
        for w_true in paths.spatial_freqs:
            assert min(abs(res.spatial_freqs - w_true)) < 1e-4
        assert 10 * np.log10(nmse(res.downlink_estimate, h_dn)) < -40.0


@pytest.mark.parametrize("spacing", SPACINGS)
def test_mnomp_off_grid_recovery_at_any_spacing(spacing):
    # criterion 06's noiseless setup at element spacing d: one to three
    # off-grid paths, at least 2/M apart on the steering period 1/d, so
    # that no two alias onto one direction
    geom = ArrayGeometry(M, spacing)
    period = 1.0 / spacing
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(20):
        num_paths = int(rng.integers(1, 4))
        while True:
            w = rng.uniform(-0.95, 0.95, size=num_paths)
            gaps = np.subtract.outer(w, w)[np.triu_indices(num_paths, 1)]
            gaps %= period
            if np.all(np.minimum(gaps, period - gaps) > 2.0 / M):
                break
        gains = (rng.standard_normal(num_paths)
                 + 1j * rng.standard_normal(num_paths)) / np.sqrt(2.0)
        gains *= 0.5 + rng.uniform(0.0, 1.0, size=num_paths)
        paths = PathSet(gains, np.arcsin(w))
        sel = make_selection("random", M, N, rng, pinned=True)
        res = mnomp_transfer(uplink_channel(paths, sel, geom), sel, geom,
                             EXACT)
        assert np.all(np.abs(res.spatial_freqs) <= 0.5 * period)
        worst = max(worst, 10 * np.log10(
            nmse(res.downlink_estimate, downlink_channel(paths, geom))))
    assert worst < -40.0, f"worst NMSE {worst:.1f} dB at d = {spacing}"


def test_mnomp_huge_threshold_returns_empty():
    sel = pinned_random(11)
    paths = on_model_channel(12, 2)
    h_up, _ = channel_pair(paths, sel)
    thr = 10.0 * np.linalg.norm(h_up) ** 2
    res = mnomp_transfer(h_up, sel, GEOM, TransferConfig(4, thr))
    assert res.paths_found == 0
    assert not res.truncated
    assert np.all(res.downlink_estimate == 0)


def test_mnomp_truncates_at_max_paths():
    sel = pinned_random(13)
    paths = on_model_channel(14, 3)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, GEOM,
                         TransferConfig(4, 1e-12, max_paths=2))
    assert res.paths_found == 2
    assert res.truncated
    assert res.residual_energy >= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_paths=st.integers(1, 4),
       max_paths=st.integers(1, 4), snr_db=st.floats(-10.0, 30.0))
def test_truncated_mnomp_found_max_paths(seed, num_paths, max_paths, snr_db):
    # truncated means the residual still met the threshold when the loop
    # stopped, which only the path budget can force
    sel = pinned_random(seed)
    h_up, _ = channel_pair(on_model_channel(seed, num_paths), sel)
    rho = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng((seed, 1))
    noise = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) \
        / np.sqrt(2.0 * rho)
    res = mnomp_transfer(h_up + noise, sel, GEOM, TransferConfig(
        4, default_threshold(N, rho), max_paths=max_paths))
    assert res.paths_found <= max_paths
    if res.truncated:
        assert res.paths_found == max_paths


def test_mnomp_threshold_honored_when_not_truncated():
    sel = pinned_random(15)
    paths = on_model_channel(16, 2)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, GEOM, EXACT)
    if not res.truncated:
        assert res.residual_energy < EXACT.threshold
    assert np.all(res.spatial_freqs >= -1.0)
    assert np.all(res.spatial_freqs < 1.0)


def test_mnomp_beats_dft_on_off_grid_paths():
    # the grid-limited estimator leaks energy; Newton refinement does not
    sel = pinned_random(17)
    paths = on_model_channel(18, 3, min_sep=4.0 / M)
    h_up, h_dn = channel_pair(paths, sel)
    dft = dft_transfer(h_up, sel, GEOM, TransferConfig(8, 1e-6))
    newton = mnomp_transfer(h_up, sel, GEOM, EXACT)
    assert nmse(newton.downlink_estimate, h_dn) < \
        nmse(dft.downlink_estimate, h_dn)


def test_transfer_result_reports_path_count():
    sel = pinned_random(19)
    paths = on_model_channel(20, 2)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, GEOM, EXACT)
    assert res.paths_found == res.gains.size == res.spatial_freqs.size


@pytest.mark.parametrize("kernel, oversampling",
                         [(dft_transfer, 8), (mnomp_transfer, 4)])
def test_transfer_result_scalars_are_python_types(kernel, oversampling):
    # the Newton rounds compute in np.float64; the result's scalar fields
    # stay plain Python types on a converged, a max_paths-truncated and
    # (for mNOMP) an empty exit
    sel = pinned_random(21)
    h_up, _ = channel_pair(on_model_channel(22, 3), sel)
    noise = np.random.default_rng(23).standard_normal(N) / np.sqrt(200.0)
    cases = {
        "converged": (h_up + noise, default_threshold(N, 100.0), 10, False),
        "truncated": (h_up, 1e-12, 2, True),
        "huge threshold": (h_up, 10.0 * np.linalg.norm(h_up) ** 2, 10,
                           False),
    }
    for name, (h, threshold, max_paths, truncated) in cases.items():
        res = kernel(h, sel, GEOM, TransferConfig(oversampling, threshold,
                                                  max_paths=max_paths))
        assert type(res.residual_energy) is float, name
        assert type(res.truncated) is bool, name
        assert res.truncated is truncated, name
        assert type(res.paths_found) is int, name
    assert (res.paths_found == 0) == (kernel is mnomp_transfer)


# ------------------------------------------------------ Cramér–Rao gate

# Upper bounds on MSE/CRB per (selection, SNR dB, newton_rounds): about
# 1.15x the largest ratio over seeds 0-19 at CRB_DRAWS draws, N = 16 and 32
# (medians 1.01-1.17 successive, 1.13-1.30 random).  At 20 dB the default
# two Newton rounds stop short of the bound on the wide random aperture
# (medians 2.6-3.0); six rounds reach it again at 30 dB.
CRB_DRAWS = 300
CRB_BOUNDS = {
    ("successive", 10.0, 2): 1.35,
    ("successive", 20.0, 2): 1.6,
    ("successive", 30.0, 6): 1.3,
    ("random", 10.0, 2): 1.75,
    ("random", 20.0, 2): 4.2,
    ("random", 30.0, 6): 1.6,
}


def crb_ratio(kind, num_receive, snr_db, newton_rounds, draws, seed=0):
    """Mean of (w_hat - w)^2 / CRB over single-path draws at M = 128.

    Each draw takes a fresh selection, an off-grid frequency and a
    unit-magnitude gain; w_hat is the strongest path mNOMP returns.  With
    the complex gain unknown, the CRB of w is
    1 / (2 rho |g|^2 sum_n (2 pi d (a_n - mean(a)))^2).
    """
    rng = np.random.default_rng([seed, num_receive, int(snr_db),
                                 kind == "random"])
    rho = 10.0 ** (snr_db / 10.0)
    config = TransferConfig(4, default_threshold(num_receive, rho),
                            newton_rounds=newton_rounds)
    ratios = []
    for _ in range(draws):
        sel = make_selection(kind, M, num_receive, rng)
        pos = 2.0 * np.pi * GEOM.spacing * (sel.indices - 1)
        crb = 1.0 / (2.0 * rho * np.sum((pos - pos.mean()) ** 2))
        w = rng.uniform(-0.9, 0.9)
        gain = np.exp(2j * np.pi * rng.uniform())
        noise = (rng.standard_normal(num_receive)
                 + 1j * rng.standard_normal(num_receive))
        h_up = (np.sqrt(num_receive) * gain * steering_uplink(sel, GEOM, w)
                + noise / np.sqrt(2.0 * rho))
        res = mnomp_transfer(h_up, sel, GEOM, config)
        w_hat = res.spatial_freqs[np.argmax(np.abs(res.gains))]
        ratios.append(((w_hat - w + 1.0) % 2.0 - 1.0) ** 2 / crb)
    return float(np.mean(ratios))


@pytest.mark.parametrize("kind", ["successive", "random"])
@pytest.mark.parametrize("num_receive", [16, 32])
def test_mnomp_frequency_error_near_cramer_rao_bound(kind, num_receive):
    # comb selections are left out: grating lobes alias the frequency, so
    # the local bound says nothing about their error
    ratios = {(snr, rounds): crb_ratio(kind, num_receive, snr, rounds,
                                       CRB_DRAWS)
              for (k, snr, rounds) in CRB_BOUNDS if k == kind}
    for (snr, rounds), ratio in ratios.items():
        # far under the bound would mean the draws lost their noise
        assert 0.6 < ratio <= CRB_BOUNDS[kind, snr, rounds], (
            f"{kind} N={num_receive} {snr} dB rounds={rounds}: "
            f"MSE/CRB {ratio:.3f}")
