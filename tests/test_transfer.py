"""Uplink-to-downlink channel transfer: DFT peaks and Newtonized pursuit."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymx.arrays import SELECTION_KINDS, SPACING
from asymx.channel import (
    PathSet,
    _downlink_slopes,
    downlink_channel,
    steering_downlink,
    steering_uplink,
    uplink_channel,
)
import asymx.channel
import asymx.transfer
from asymx.downlink import nmse
from asymx.transfer import (
    _RIDGE,
    _SLOPE_CACHE_SIZE,
    TransferConfig,
    _bin_steering,
    _bin_to_spatial_freq,
    _fit_error,
    _matched_filter,
    _path_derivatives,
    _refine,
    _refit,
    _slope_terms,
    _strongest_peaks,
    default_threshold,
    dft_transfer,
    mnomp_transfer,
)
from asymx.uplink import make_selection

M, N = 128, 32
# w of the edges of the steering period [-1/(2d), 1/(2d))
HALF_PERIOD = 0.5 / SPACING


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
    return uplink_channel(paths, sel), downlink_channel(paths, M)


def slope_terms(sel):
    """(p, conj([1, p, p^2])) of a selection, as ``mnomp_transfer``."""
    _, pos, weights = _slope_terms(sel.indices.tobytes())
    return pos, weights


def objective(obs, gain, w, sel):
    """J(w) = ||y - g e(w)||^2, e(w) = sqrt(N) a_S(w), and its first two
    w-derivatives."""
    steer = np.sqrt(N) * steering_uplink(sel, w)
    resid = obs - gain * steer
    _, weights = slope_terms(sel)
    _, u1, u2 = np.vecdot(weights * obs, steer).tolist()
    d1, d2 = _path_derivatives(gain, u1, u2)
    return float(np.vdot(resid, resid).real), d1, d2


def refine(residual, gain, w, sel, rounds):
    """``_refine`` from (gain, w) alone: returns (gain, w, residual)."""
    pos, weights = slope_terms(sel)
    steer = np.sqrt(N) * steering_uplink(sel, w)
    obs = residual + gain * steer
    gain, w, steer, moved = _refine(obs, gain, w, steer, pos, weights,
                                    rounds)
    return gain, w, obs - gain * steer if moved else residual


def same_bits(got, want):
    """Every value of ``got`` has the bytes of its counterpart in ``want``."""
    return len(got) == len(want) and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(got, want))


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
    # a NaN threshold made mNOMP stop at once and report convergence
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            TransferConfig(4, bad)
    # a fractional count reached np.fft.fft or range() as a TypeError
    for name in ("oversampling", "newton_rounds", "cyclic_rounds",
                 "max_paths"):
        with pytest.raises(ValueError, match=name):
            TransferConfig(**{"oversampling": 4, "threshold": 1.0,
                              name: 1.5})
    counts = TransferConfig(np.int64(4), 1.0, newton_rounds=np.int32(2),
                            cyclic_rounds=np.uint8(1), max_paths=np.int64(3))
    assert counts.oversampling == 4 and counts.max_paths == 3


def test_ridge_is_a_positive_constant_not_an_option():
    # a zero ridge left equal paths with a singular Gram; the ridge is one
    # positive constant, and no config can set another
    assert _RIDGE > 0.0
    assert "regularizer" not in {f.name for f in fields(TransferConfig)}
    with pytest.raises(TypeError, match="regularizer"):
        TransferConfig(4, 1.0, regularizer=1e-4)


def test_default_threshold_is_noise_energy():
    assert default_threshold(32, 100.0) == pytest.approx(0.32)
    assert default_threshold(16, 10.0) == pytest.approx(1.6)
    # inf gave a threshold of 0.0 and NaN a NaN threshold
    for bad in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            default_threshold(32, bad)


def test_transfers_reject_wrong_shape_estimate():
    # both check the shape before the energy, so a short estimate with a
    # NaN entry is refused for its shape too
    sel = pinned_random(0)
    h = np.arange(1, N + 1).astype(complex)
    short_nan = h[:-1].copy()
    short_nan[0] = np.nan
    config = TransferConfig(4, default_threshold(N, 10.0))
    for bad in (h[:-1], short_nan, h[None, :], np.stack((h, h))):
        for transfer in (dft_transfer, mnomp_transfer):
            with pytest.raises(ValueError, match="estimate length"):
                transfer(bad, sel, config)


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
        transfer(h, sel, config)


@pytest.mark.parametrize("transfer", [dft_transfer, mnomp_transfer])
def test_transfers_take_the_estimate_through_one_check(transfer,
                                                       monkeypatch):
    # both kernels refuse an estimate by the same rules in the same order,
    # stated once
    def refuse(h_up_est, selection):
        raise LookupError("checked")

    monkeypatch.setattr(asymx.transfer, "_checked_estimate", refuse)
    config = TransferConfig(4, default_threshold(N, 10.0))
    with pytest.raises(LookupError, match="checked"):
        transfer(np.ones(N, dtype=complex), pinned_random(0), config)


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
            fast = _matched_filter(h, sel.indices - 1, m, zeta)
            assert np.max(np.abs(fast - naive)) < 1e-9


def test_bin_to_spatial_freq_wraps():
    got = _bin_to_spatial_freq(np.arange(8), 8)
    assert np.allclose(got, [0.0, 0.25, 0.5, 0.75, -1.0, -0.75, -0.5, -0.25])
    assert _bin_to_spatial_freq(3, 8) == pytest.approx(0.75)
    assert _bin_to_spatial_freq(4, 8) == pytest.approx(-1.0)


def peak_walk(values):
    """Every peak the DFT walk takes from ``values``, strongest first: no
    energy rule and no ``max_paths`` stop before the peaks run out."""
    config = TransferConfig(1, 1.0, max_paths=len(values))
    kept, _, truncated = _strongest_peaks(np.array(values), np.inf, 1, config)
    assert truncated
    return kept


def test_strongest_peaks_circular_and_sorted():
    assert peak_walk([0.0, 3.0, 1.0, 2.0]) == [1, 3]
    # circular: the last bin beats its wrap-around neighbour
    assert peak_walk([1.0, 0.0, 0.0, 5.0]) == [3]
    # plateaus are non-strict peaks; magnitude ties break to lower index
    assert peak_walk([2.0, 2.0, 1.0, 1.5]) == [0, 1]
    assert peak_walk([7.0]) == [0]
    # complex scores are ranked by magnitude
    assert peak_walk([1.0, -3.0j, 0.5, 2.0]) == [1, 3]
    # the peaks run out with 20 - (9 + 4) still above the threshold 1,
    # well before max_paths: the exit is truncated; at 13.5 the energy
    # rule holds on the last peak
    scores = np.array([0.0, 3.0, 1.0, 2.0])
    config = TransferConfig(1, 1.0)
    assert _strongest_peaks(scores, 20.0, 1, config) == ([1, 3], 13.0, True)
    assert _strongest_peaks(scores, 13.5, 1, config) == ([1, 3], 13.0, False)


# ---------------------------------------------------------- DFT transfer


def test_dft_exact_on_grid_single_path():
    # a path exactly on a DFT bin scores conj(g) at that bin and nothing
    # is left to explain, for any selection containing element 1
    w0 = 2.0 * 17 / M
    g = 0.8 + 0.6j
    paths = PathSet(np.array([g]), np.array([np.arcsin(w0)]))
    for sel in (make_selection("successive", M, N), pinned_random(2)):
        h_up, h_dn = channel_pair(paths, sel)
        res = dft_transfer(h_up, sel, TransferConfig(1, 1e-10))
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
    res = dft_transfer(h_up, sel, TransferConfig(1, 1e-9))
    assert res.paths_found == 3
    assert sorted(np.round(res.spatial_freqs, 9)) == [-0.5, 0.25, 0.75]
    assert nmse(res.downlink_estimate, h_dn) < 1e-20


def test_dft_always_keeps_at_least_one_peak():
    sel = make_selection("successive", M, N)
    paths = on_model_channel(3, 1)
    h_up, _ = channel_pair(paths, sel)
    res = dft_transfer(h_up, sel, TransferConfig(8, 1e9))
    assert res.paths_found == 1
    assert not res.truncated


def test_dft_truncates_at_max_paths():
    # a 3-path channel cannot be explained to float precision by 2 bins
    sel = pinned_random(4)
    paths = on_model_channel(4, 3)
    h_up, _ = channel_pair(paths, sel)
    res = dft_transfer(h_up, sel, TransferConfig(8, 1e-18, max_paths=2))
    assert res.paths_found == 2
    assert res.truncated
    assert res.residual_energy > 1e-18


def test_dft_respects_threshold_bookkeeping():
    sel = pinned_random(5)
    paths = on_model_channel(6, 3)
    h_up, _ = channel_pair(paths, sel)
    thr = 0.05 * np.linalg.norm(h_up) ** 2
    res = dft_transfer(h_up, sel, TransferConfig(8, thr))
    if not res.truncated:
        assert res.residual_energy <= thr
    energy = np.linalg.norm(h_up) ** 2
    explained = N * np.sum(np.abs(res.gains / np.sqrt(res.paths_found)) ** 2)
    assert res.residual_energy == pytest.approx(energy - explained, rel=1e-9)


@pytest.mark.parametrize("kind", SELECTION_KINDS)
def test_dft_rebuild_gathers_the_grid_table(kind):
    # the downlink is sqrt(M / count) (steering_downlink(M, w) @ g) at the
    # kept bins' frequencies, bit for bit.  Paths sit on the first wrapped
    # bin (w = 1/(2d) before the wrap), on the last bin and off the grid;
    # on the comb their aliases tie, and the lower bin is kept.
    size = 8 * M
    rng = np.random.default_rng(41)
    sel = make_selection(kind, M, N, rng)
    pos, _ = slope_terms(sel)
    grid = _bin_to_spatial_freq(np.arange(size), size)
    wrapped, last = grid[size // 2], grid[-1]
    assert (wrapped, last) == (-HALF_PERIOD, -2.0 * HALF_PERIOD / size)
    kept = set()
    for _ in range(12):
        freqs = [wrapped, last, rng.uniform(-HALF_PERIOD, HALF_PERIOD)]
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h_up = (np.exp(np.multiply.outer(pos, freqs)) @ gains
                + 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N)))
        res = dft_transfer(h_up, sel, TransferConfig(8, 1e-3))
        want = np.sqrt(M / res.paths_found) * (
            steering_downlink(M, res.spatial_freqs) @ res.gains)
        assert same_bits((res.downlink_estimate,), (want,))
        # every frequency is a grid bin's, in an array of the result's own
        assert np.all(np.isin(res.spatial_freqs, grid))
        assert not np.shares_memory(res.spatial_freqs,
                                    _bin_steering(M, size)[0])
        kept.update(res.spatial_freqs.tolist())
    if kind != "comb":
        assert {wrapped, last} <= kept


def test_grid_table_one_entry_per_grid():
    # one table per (M, grid size), shared by every selection and call of
    # that grid; a column holds the bits of a call at its own frequency,
    # wrapped bins and the last bin included (that it is read-only is
    # test_every_cached_array_is_read_only)
    _bin_steering.cache_clear()
    rng = np.random.default_rng(43)
    for num_transmit in (64, 128, 64):
        for kind in SELECTION_KINDS:
            sel = make_selection(kind, num_transmit, 16, rng)
            h_up = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            dft_transfer(h_up, sel, TransferConfig(8, 1.0))
    info = _bin_steering.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    size = 8 * M
    grid, table = _bin_steering(M, size)
    assert (grid.shape, table.shape) == ((size,), (M, size))
    for bin_index in (0, 1, size // 2 - 1, size // 2, size - 1):
        w = _bin_to_spatial_freq(bin_index, size)
        assert same_bits((grid[bin_index], table[:, bin_index]),
                         (w, steering_downlink(M, w)))


# --------------------------------------------------------- mNOMP pieces


def test_matched_filter_peak_on_grid():
    w0 = 2.0 * 40 / (M * 4)
    g = -0.3 + 1.1j
    sel = pinned_random(6)
    paths = PathSet(np.array([g]), np.array([np.arcsin(w0)]))
    h_up, _ = channel_pair(paths, sel)
    scores = _matched_filter(h_up, sel.indices - 1, M, 4)
    best = int(np.argmax(np.abs(scores)))
    w = _bin_to_spatial_freq(best, scores.size)
    assert w == pytest.approx(w0, abs=1e-12)
    assert complex(scores[best]) == pytest.approx(np.conj(g), abs=1e-9)


def test_newton_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    sel = pinned_random(7)
    paths = on_model_channel(8, 2)
    obs = uplink_channel(paths, sel)
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
    obs = uplink_channel(paths, sel)
    w = float(paths.spatial_freqs[0])
    g = complex(paths.gains[0])
    value, _, _ = objective(obs, g, w, sel)
    assert value == pytest.approx(0.0, abs=1e-20)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 6))
# seeds whose least-squares start gets worse if a worse step is kept
@example(seed=10, rounds=1)
@example(seed=43, rounds=2)
@example(seed=74, rounds=5)
def test_refine_never_worsens_fit(seed, rounds):
    half = HALF_PERIOD
    rng = np.random.default_rng(seed)
    sel = make_selection("random", M, N, rng, pinned=True)
    paths = PathSet(
        (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2),
        rng.uniform(-np.pi / 3, np.pi / 3, 2),
    )
    obs = uplink_channel(paths, sel)
    w0 = float(rng.uniform(-half, half))
    g0 = complex(rng.standard_normal(), rng.standard_normal())
    a0 = steering_uplink(sel, w0)
    # the first trial's gain refit beats a random start gain whatever the
    # step does; only a start at the least-squares gain for w0 leaves the
    # acceptance test to judge the step itself
    g_ls = complex(np.vdot(a0, obs) / (np.sqrt(N) * np.vdot(a0, a0).real))
    for g in (g0, g_ls):
        start = obs - np.sqrt(N) * g * a0
        before = float(np.vdot(start, start).real)
        gain, w, after = refine(start, g, w0, sel, rounds)
        assert float(np.vdot(after, after).real) <= before + 1e-9
        assert -half <= w < half


def test_refine_polishes_single_path():
    sel = pinned_random(9)
    paths = on_model_channel(10, 1)
    w_true = float(paths.spatial_freqs[0])
    g_true = complex(paths.gains[0])
    obs = uplink_channel(paths, sel)
    w0 = w_true + 1e-3
    start = obs - np.sqrt(N) * g_true * steering_uplink(sel, w0)
    gain, w, resid = refine(start, g_true, w0, sel, 30)
    assert abs(w - w_true) < 1e-6
    assert abs(gain - g_true) < 1e-4
    assert float(np.vdot(resid, resid).real) < 1e-8


def test_refine_wraps_onto_the_period():
    # a path just above -1/(2d), refined from just below 1/(2d): the steps
    # cross the period's edge and must land back on [-1/(2d), 1/(2d))
    half = HALF_PERIOD
    sel = pinned_random(11)
    w_true, g_true = -half + 5e-4, 0.8 - 0.6j
    obs = np.sqrt(N) * g_true * steering_uplink(sel, w_true)
    w0 = half - 5e-4
    start = obs - np.sqrt(N) * g_true * steering_uplink(sel, w0)
    gain, w, resid = refine(start, g_true, w0, sel, 30)
    assert -half <= w < half
    assert abs(w - w_true) < 1e-6
    assert float(np.vdot(resid, resid).real) < 1e-8


def chained_refines(obs, path, pos, weights, newton_rounds, cyclic_rounds):
    """A first path refined as ``mnomp_transfer`` did before one held refine:
    its new-path refine, then ``cyclic_rounds`` refines, every one of
    ``newton_rounds`` against the same observation."""
    path = _refine(obs, *path, pos, weights, newton_rounds)[:3]
    for _ in range(cyclic_rounds):
        path = _refine(obs, *path, pos, weights, newton_rounds)[:3]
    return path


def held_refine(obs, path, pos, weights, newton_rounds, cyclic_rounds):
    return _refine(obs, *path, pos, weights,
                   newton_rounds * (1 + cyclic_rounds))[:3]


def refine_case(seed):
    """An observation of 1 to 3 paths and noise on a random selection, and
    a start inside its first path's main lobe at the least-squares gain."""
    rng = np.random.default_rng(seed)
    num_receive = int(rng.integers(4, 33))
    sel = make_selection("random", M, num_receive, rng)
    pos, weights = slope_terms(sel)
    count = int(rng.integers(1, 4))
    freqs = rng.uniform(-1.0, 1.0, count)
    gains = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    obs = (np.exp(np.multiply.outer(pos, freqs)) @ gains
           + 0.3 * (rng.standard_normal(num_receive)
                    + 1j * rng.standard_normal(num_receive)))
    w = float(freqs[0] + rng.uniform(-1.0, 1.0) * 2.0 / num_receive)
    steer = np.exp(pos * w)
    start = (complex(np.vdot(steer, obs)) / num_receive, w, steer)
    return obs, start, pos, weights


def refine_stop(obs, path, pos, weights, rounds):
    """(why a refine of ``rounds`` from ``path`` ends, steps it accepted):
    on d2 <= 0, on a rejected step, or with its rounds spent."""
    for accepted in range(rounds):
        _, u1, u2 = np.vecdot(weights * obs, path[2]).tolist()
        if _path_derivatives(path[0], u1, u2)[1] <= 0.0:
            return "curvature", accepted
        *step, moved = _refine(obs, *path, pos, weights, 1)
        if not moved:
            return "rejected", accepted
        path = tuple(step)
    return "rounds", rounds


@pytest.mark.parametrize("seed, stop", [
    (117, ("rejected", 0)), (3173, ("rejected", 1)), (5132, ("rejected", 2)),
    (12, ("curvature", 0)), (702, ("curvature", 1)),
    (1341, ("curvature", 2)),
])
@pytest.mark.parametrize("newton_rounds, cyclic_rounds",
                         [(1, 3), (2, 1), (4, 2)])
def test_held_refine_stops_where_the_chain_stops(seed, stop, newton_rounds,
                                                 cyclic_rounds):
    # a step rejected near the optimum, or a start or step with d2 <= 0,
    # ends the refine holding it; the chain's next refine starts from the
    # same state and stops at once, so both end on the same bits
    obs, start, pos, weights = refine_case(seed)
    assert refine_stop(obs, start, pos, weights, 4) == stop
    assert same_bits(
        held_refine(obs, start, pos, weights, newton_rounds, cyclic_rounds),
        chained_refines(obs, start, pos, weights, newton_rounds,
                        cyclic_rounds))


@settings(max_examples=150, deadline=None)
@given(num_receive=st.integers(1, 32), stride=st.integers(1, 4),
       kind=st.sampled_from(SELECTION_KINDS),
       w=st.floats(-HALF_PERIOD, HALF_PERIOD, exclude_max=True),
       gain=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                               allow_nan=False, allow_infinity=False),
       snr_db=st.floats(-10.0, 40.0), newton_rounds=st.integers(0, 4),
       cyclic_rounds=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_one_held_refine_equals_chained_refines(num_receive, stride, kind, w,
                                                gain, snr_db, newton_rounds,
                                                cyclic_rounds, seed):
    # mNOMP refines its first path against h itself, in its new-path
    # refine and in every cyclic pass: one refine of all their rounds ends
    # on the bits of the three-call chain, from the strongest bin as from
    # a start off it, and mnomp_transfer's one-path result is the chain's
    # path refitted
    rng = np.random.default_rng(seed)
    sel = make_selection(kind, num_receive * stride, num_receive, rng)
    offsets, pos, weights = _slope_terms(sel.indices.tobytes())
    noise = np.sqrt(abs(gain) ** 2 / 10.0 ** (snr_db / 10.0) / 2.0)
    h_up = gain * np.exp(pos * w) + noise * (
        rng.standard_normal(num_receive)
        + 1j * rng.standard_normal(num_receive))
    scores = _matched_filter(h_up, offsets, sel.num_transmit, 4)
    best = int(np.abs(scores).argmax())
    w0 = _bin_to_spatial_freq(best, scores.size)
    detected = (complex(scores[best]).conjugate(), w0, np.exp(pos * w0))
    w1 = float(rng.uniform(-HALF_PERIOD, HALF_PERIOD))
    off_bin = (gain, w1, np.exp(pos * w1))
    for start in (off_bin, detected):
        chained = chained_refines(h_up, start, pos, weights, newton_rounds,
                                  cyclic_rounds)
        assert same_bits(held_refine(h_up, start, pos, weights,
                                     newton_rounds, cyclic_rounds), chained)

    # the detected start's chain, refitted, is mnomp_transfer's one path
    _, w_path, steer_path = chained
    res = mnomp_transfer(h_up, sel, TransferConfig(
        4, 1e-12, newton_rounds=newton_rounds, cyclic_rounds=cyclic_rounds,
        max_paths=1))
    gains, residual = _refit([steer_path], h_up)
    assert same_bits(
        (res.gains, res.spatial_freqs, res.residual_energy),
        (gains, [w_path], float(np.vdot(residual, residual).real)))


@settings(max_examples=200, deadline=None)
@given(num_receive=st.integers(1, 64), stride=st.integers(1, 4),
       kind=st.sampled_from(SELECTION_KINDS),
       gain=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                               allow_nan=False, allow_infinity=False),
       w=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_observation_form_matches_residual_form(num_receive, stride, kind,
                                                gain, w, seed):
    # _refine reads a path's fit and its w-derivatives from the three
    # correlations of the observation y with [1, p, p^2] e, where the
    # residual form reads them from r = y - g e.  Each difference is judged
    # against the size of the terms it sums, as either form can cancel.
    rng = np.random.default_rng(seed)
    sel = make_selection(kind, num_receive * stride, num_receive, rng)
    pos, weights = slope_terms(sel)
    obs = rng.standard_normal(num_receive) + 1j * rng.standard_normal(
        num_receive)
    steer = np.exp(pos * w)
    u0, u1, u2 = np.vecdot(weights * obs, steer).tolist()
    scale = np.sum(np.abs(obs)) + abs(gain) * num_receive
    energy = float(np.vdot(obs, obs).real)

    resid = obs - gain * steer
    s1 = np.vecdot(resid, pos * steer)
    s2 = np.vecdot(resid, pos * pos * steer)
    d1, d2 = _path_derivatives(gain, u1, u2)
    slope = 2.0 * abs(gain) * np.max(np.abs(pos), initial=1.0)
    assert d1 == pytest.approx(-2.0 * (gain * s1).real, rel=1e-10,
                               abs=1e-10 * slope * scale)
    assert d2 == pytest.approx(
        -2.0 * (gain * s2).real
        + 2.0 * abs(gain) ** 2 * np.vdot(pos, pos).real,
        rel=1e-10, abs=1e-10 * slope * np.max(np.abs(pos), initial=1.0)
        * scale)

    # the fit error at any gain, and at the least-squares gain of e
    for g in (gain, u0.conjugate() / num_receive):
        fit = obs - g * steer
        assert energy + _fit_error(g, u0, num_receive) == pytest.approx(
            float(np.vdot(fit, fit).real), rel=1e-10,
            abs=1e-10 * scale * scale)
    assert u0.conjugate() / num_receive == pytest.approx(
        np.vdot(steer, obs) / num_receive, rel=1e-10,
        abs=1e-10 * scale / num_receive)

    # one- and two-path ridge refits take closed forms; they must match
    # the solve of the stacked ridge Gram (E^H E + ridge I) g = E^H y
    ridge = num_receive * _RIDGE
    # at N = 1 any two paths are parallel, so one path only; else the
    # second is the least aligned with e of eight draws, which keeps the
    # Gram well conditioned
    paths = [steer]
    if num_receive > 1:
        draws = np.exp(np.multiply.outer(rng.uniform(-2.0, 2.0, 8), pos))
        paths.append(draws[np.argmin(np.abs(draws.conj() @ steer))])
    for count in range(1, len(paths) + 1):
        basis = np.stack(paths[:count], axis=1)
        adjoint = basis.conj().T
        solved = np.linalg.solve(adjoint @ basis + ridge * np.eye(count),
                                 adjoint @ obs)
        gains, left = _refit(paths[:count], obs)
        assert gains == pytest.approx(solved.tolist(), rel=1e-12)
        # at N = count the paths fit y up to the ridge, so the residual is
        # of the ridge's size plus a rounding of a few eps * |y|, which
        # rtol alone does not cover
        slack = 4.0 * np.finfo(float).eps * np.max(np.abs(obs))
        assert np.allclose(left, obs - basis @ solved, rtol=1e-12,
                           atol=slack if num_receive == count else 0.0)
    # equal paths, two in closed form and three through solve, leave the
    # ridge Gram invertible: finite gains, the solve's.  The Gram of k equal
    # columns has condition number 1 + k / _RIDGE, about 3e4, which bounds
    # how far the two forms part.  e(0) is all ones, where the Gram's
    # entries are exact.
    for equal in (steer, np.ones(num_receive, dtype=complex)):
        for count in (2, 3):
            basis = np.stack([equal] * count, axis=1)
            adjoint = basis.conj().T
            solved = np.linalg.solve(adjoint @ basis + ridge * np.eye(count),
                                     adjoint @ obs)
            gains, _ = _refit([equal] * count, obs)
            assert np.all(np.isfinite(gains))
            assert gains == pytest.approx(solved.tolist(), rel=1e-9)


def test_closed_form_refits_never_solve(monkeypatch):
    # one and two paths have closed forms; a later edit must not route
    # them back through np.linalg.solve
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    rng = np.random.default_rng(31)
    pos, _ = slope_terms(pinned_random(31))
    steers = list(np.exp(np.multiply.outer(rng.uniform(-1.0, 1.0, 3), pos)))
    obs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for count in (1, 2):
        gains, _ = _refit(steers[:count], obs)
        assert len(gains) == count
    with pytest.raises(AssertionError, match="solve called"):
        _refit(steers, obs)


def test_slope_terms_follow_the_indices_not_the_selection():
    # random selections built and dropped in a loop reuse ids: terms keyed
    # on anything but the indices' content would hand a new selection the
    # slopes of a dead one.  Every result must be the bits that a cold
    # cache gives.
    rng = np.random.default_rng(29)
    config = TransferConfig(4, 0.5)
    for _ in range(3 * _SLOPE_CACHE_SIZE):
        sel = make_selection("random", M, N, rng)
        h_up = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        warm = mnomp_transfer(h_up, sel, config)
        assert _slope_terms.cache_info().currsize <= _SLOPE_CACHE_SIZE
        _slope_terms.cache_clear()
        cold = mnomp_transfer(h_up, sel, config)
        for got, want in zip((warm.gains, warm.spatial_freqs,
                              warm.downlink_estimate),
                             (cold.gains, cold.spatial_freqs,
                              cold.downlink_estimate)):
            assert np.array_equal(got, want)
        assert (warm.residual_energy, warm.truncated) == (
            cold.residual_energy, cold.truncated)
    # distinct selections fill the cache to its bound and no further
    for _ in range(2 * _SLOPE_CACHE_SIZE):
        mnomp_transfer(h_up, make_selection("random", M, N, rng), config)
    assert _slope_terms.cache_info().currsize == _SLOPE_CACHE_SIZE
    # the shared arrays cannot be written through
    for array in _slope_terms(sel.indices.tobytes()):
        with pytest.raises(ValueError):
            array[0] = 0


def test_every_cached_array_is_read_only():
    # a cache hands the same arrays to every later call, so a caller that
    # wrote into one would corrupt them all; a new cache joins this list
    cached = {f"{module.__name__}.{name}"
              for module in (asymx.transfer, asymx.channel)
              for name, value in vars(module).items()
              if hasattr(value, "cache_info")
              and value.__module__ == module.__name__}
    assert cached == {"asymx.transfer._slope_terms",
                      "asymx.transfer._bin_steering",
                      "asymx.channel._downlink_slopes"}
    arrays = [*_slope_terms(pinned_random(47).indices.tobytes()),
              _downlink_slopes(M), *_bin_steering(M, 8 * M)]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


# ------------------------------------------------------- mNOMP end to end


@settings(max_examples=80, deadline=None)
@given(data=st.data(), algorithm=st.sampled_from(["dft", "mnomp"]),
       kind=st.sampled_from(["successive", "random"]),
       num_receive=st.sampled_from([16, 32]),
       magnitude=st.floats(0.1, 3.0), phase=st.floats(0.0, 2 * np.pi),
       seed=st.integers(0, 2**32 - 1))
def test_noiseless_on_grid_path_recovered_exactly(data, algorithm, kind,
                                                  num_receive, magnitude,
                                                  phase, seed):
    # without noise, one path on a bin of the kernel's own grid is found
    # alone, at its frequency, and rebuilds the downlink to rounding.
    # mNOMP's ridge refit shrinks the gain to g / (1 + _RIDGE) exactly, so
    # its downlink is h_dn / (1 + _RIDGE), and it leaves the energy
    # N |g|^2 (_RIDGE / (1 + _RIDGE))^2, at most 2.9e-6 here: the
    # threshold 1e-4 stays 1600 times below the least path energy N |g|^2,
    # 0.16.  Comb selection is left out: its grating lobes alias the bin.
    # The grid spans one period 1/d of the steering phase; only its bins
    # with |w| <= 1 are angles.
    kernel, oversampling = {"dft": (dft_transfer, 8),
                            "mnomp": (mnomp_transfer, 4)}[algorithm]
    size = M * oversampling
    grid = _bin_to_spatial_freq(np.arange(size), size)
    w = float(data.draw(st.sampled_from(grid[np.abs(grid) <= 1.0])))
    sel = make_selection(kind, M, num_receive, np.random.default_rng(seed))
    paths = PathSet(np.array([magnitude * np.exp(1j * phase)]),
                    np.array([np.arcsin(w)]))
    h_up, h_dn = channel_pair(paths, sel)
    res = kernel(h_up, sel, TransferConfig(oversampling, 1e-4))
    assert res.paths_found == 1
    assert abs(res.spatial_freqs[0] - w) <= 1e-12
    if algorithm == "mnomp":
        h_dn = h_dn / (1.0 + _RIDGE)
    assert np.max(np.abs(res.downlink_estimate - h_dn)) <= 1e-12


EXACT = TransferConfig(4, 1e-6, newton_rounds=8, cyclic_rounds=4)


def test_mnomp_single_path_exact():
    # on- or off-grid single path: frequency to < 1e-4, NMSE < -40 dB
    for seed in range(6):
        sel = pinned_random(100 + seed)
        paths = on_model_channel(200 + seed, 1)
        h_up, h_dn = channel_pair(paths, sel)
        res = mnomp_transfer(h_up, sel, EXACT)
        assert res.paths_found >= 1
        w_true = float(paths.spatial_freqs[0])
        assert min(abs(res.spatial_freqs - w_true)) < 1e-4
        assert 10 * np.log10(nmse(res.downlink_estimate, h_dn)) < -40.0


def test_mnomp_three_paths_exact():
    for seed in range(6):
        sel = pinned_random(300 + seed)
        paths = on_model_channel(400 + seed, 3)
        h_up, h_dn = channel_pair(paths, sel)
        res = mnomp_transfer(h_up, sel, EXACT)
        assert res.paths_found >= 3
        for w_true in paths.spatial_freqs:
            assert min(abs(res.spatial_freqs - w_true)) < 1e-4
        assert 10 * np.log10(nmse(res.downlink_estimate, h_dn)) < -40.0


def test_mnomp_off_grid_recovery_on_the_period():
    # criterion 06's noiseless setup: one to three off-grid paths, at least
    # 2/M apart on the steering period 1/d, so that no two alias onto one
    # direction, and every estimate on that period
    period = 1.0 / SPACING
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
        h_up, h_dn = channel_pair(paths, sel)
        res = mnomp_transfer(h_up, sel, EXACT)
        assert np.all(np.abs(res.spatial_freqs) <= 0.5 * period)
        worst = max(worst, 10 * np.log10(nmse(res.downlink_estimate, h_dn)))
    assert worst < -40.0, f"worst NMSE {worst:.1f} dB"


def test_mnomp_huge_threshold_returns_empty():
    sel = pinned_random(11)
    paths = on_model_channel(12, 2)
    h_up, _ = channel_pair(paths, sel)
    thr = 10.0 * np.linalg.norm(h_up) ** 2
    res = mnomp_transfer(h_up, sel, TransferConfig(4, thr))
    assert res.paths_found == 0
    assert not res.truncated
    assert np.all(res.downlink_estimate == 0)


def test_mnomp_truncates_at_max_paths():
    sel = pinned_random(13)
    paths = on_model_channel(14, 3)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, TransferConfig(4, 1e-12, max_paths=2))
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
    res = mnomp_transfer(h_up + noise, sel, TransferConfig(
        4, default_threshold(N, rho), max_paths=max_paths))
    assert res.paths_found <= max_paths
    if res.truncated:
        assert res.paths_found == max_paths


def test_mnomp_threshold_honored_when_not_truncated():
    sel = pinned_random(15)
    paths = on_model_channel(16, 2)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, EXACT)
    if not res.truncated:
        assert res.residual_energy < EXACT.threshold
    assert np.all(res.spatial_freqs >= -1.0)
    assert np.all(res.spatial_freqs < 1.0)


def test_mnomp_beats_dft_on_off_grid_paths():
    # the grid-limited estimator leaks energy; Newton refinement does not
    sel = pinned_random(17)
    paths = on_model_channel(18, 3, min_sep=4.0 / M)
    h_up, h_dn = channel_pair(paths, sel)
    dft = dft_transfer(h_up, sel, TransferConfig(8, 1e-6))
    newton = mnomp_transfer(h_up, sel, EXACT)
    assert nmse(newton.downlink_estimate, h_dn) < \
        nmse(dft.downlink_estimate, h_dn)


def test_transfer_result_reports_path_count():
    sel = pinned_random(19)
    paths = on_model_channel(20, 2)
    h_up, _ = channel_pair(paths, sel)
    res = mnomp_transfer(h_up, sel, EXACT)
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
        res = kernel(h, sel, TransferConfig(oversampling, threshold,
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
        pos = 2.0 * np.pi * SPACING * (sel.indices - 1)
        crb = 1.0 / (2.0 * rho * np.sum((pos - pos.mean()) ** 2))
        w = rng.uniform(-0.9, 0.9)
        gain = np.exp(2j * np.pi * rng.uniform())
        noise = (rng.standard_normal(num_receive)
                 + 1j * rng.standard_normal(num_receive))
        h_up = (np.sqrt(num_receive) * gain * steering_uplink(sel, w)
                + noise / np.sqrt(2.0 * rho))
        res = mnomp_transfer(h_up, sel, config)
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
