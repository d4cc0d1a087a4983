"""Parametric multipath channels and steering vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx.arrays import AntennaSelection
from asymx.channel import (
    PathSet,
    downlink_channel,
    draw_path_set,
    steering_downlink,
    steering_masked,
    steering_uplink,
    uplink_channel,
    user_channels,
)
from asymx.uplink import make_selection

M, N, P = 128, 32, 3


def draw(seed, num_paths=P, powers=None):
    rng = np.random.default_rng(seed)
    return draw_path_set(num_paths, -np.pi / 3, np.pi / 3, rng, powers)


def test_steering_vectors_unit_norm():
    rng = np.random.default_rng(0)
    sel = make_selection("random", M, N, rng)
    for w in (-0.9, -0.3, 0.0, 0.7):
        assert np.linalg.norm(steering_downlink(M, w)) == pytest.approx(1.0)
        assert np.linalg.norm(steering_uplink(sel, w)) == \
            pytest.approx(1.0)


def test_steering_uplink_samples_downlink():
    # selected element a_n sees the same phase as physical element a_n
    rng = np.random.default_rng(1)
    sel = make_selection("random", M, N, rng)
    w = 0.37
    up = steering_uplink(sel, w)
    down = steering_downlink(M, w)
    assert np.allclose(up * np.sqrt(N), down[sel.indices - 1] * np.sqrt(M),
                       atol=1e-12)


def test_steering_uplink_matrix_matches_columns():
    # an array of P frequencies gives the N x P matrix, column for column
    # the same bits as one call per frequency
    sel = make_selection("random", M, N, np.random.default_rng(8))
    freqs = np.array([-0.61, 0.0, 0.23, 0.9])
    matrix = steering_uplink(sel, freqs)
    assert matrix.shape == (N, freqs.size)
    for p, w in enumerate(freqs):
        assert np.array_equal(matrix[:, p], steering_uplink(sel, w))


def test_steering_masked_zero_fills():
    rng = np.random.default_rng(2)
    sel = make_selection("random", M, N, rng)
    w = -0.52
    masked = steering_masked(sel, w)
    assert masked.shape == (M,)
    assert np.allclose(masked[sel.indices - 1],
                       steering_uplink(sel, w), atol=1e-15)
    off = np.setdiff1d(np.arange(M), sel.indices - 1)
    assert np.all(masked[off] == 0)


def test_uplink_is_subsampled_downlink():
    # same paths, same physical element -> identical coefficient (factor 1)
    paths = draw(3)
    for kind in ("successive", "comb", "random"):
        sel = make_selection(kind, M, N, np.random.default_rng(4))
        h_up = uplink_channel(paths, sel)
        h_down = downlink_channel(paths, M)
        assert np.allclose(h_up, h_down[sel.indices - 1], rtol=1e-12,
                           atol=1e-14)


def test_channel_shapes_and_energy():
    paths = draw(5)
    sel = make_selection("successive", M, N)
    assert uplink_channel(paths, sel).shape == (N,)
    assert downlink_channel(paths, M).shape == (M,)
    # E||h_up||^2 = N: average over many draws
    energies = [
        np.linalg.norm(uplink_channel(draw(seed), sel)) ** 2
        for seed in range(300)
    ]
    assert np.mean(energies) == pytest.approx(N, rel=0.15)


def test_uplink_channel_linear_in_gains():
    paths = draw(6)
    sel = make_selection("successive", M, N)
    h = uplink_channel(paths, sel)
    scaled = PathSet(2.0 * paths.gains, paths.angles_rad)
    assert np.allclose(uplink_channel(scaled, sel), 2.0 * h, atol=1e-12)


def test_draw_path_set_shapes_and_range():
    paths = draw(7, num_paths=5)
    assert paths.count == 5
    assert paths.gains.shape == (5,)
    assert np.all(np.abs(paths.angles_rad) <= np.pi / 3 + 1e-12)
    assert np.allclose(paths.spatial_freqs, np.sin(paths.angles_rad))
    # the sines are computed once per path set
    assert paths.spatial_freqs is paths.spatial_freqs


def test_draw_path_set_power_profile():
    # (0.9, 0.1) allocation: first gain carries 90% of the energy on average
    first, second = [], []
    for seed in range(4000):
        p = draw(seed, num_paths=2, powers=np.array([0.9, 0.1]))
        first.append(abs(p.gains[0]) ** 2)
        second.append(abs(p.gains[1]) ** 2)
    assert np.mean(first) == pytest.approx(2 * 0.9, rel=0.1)
    assert np.mean(second) == pytest.approx(2 * 0.1, rel=0.1)


def test_draw_path_set_power_profile_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_path_set(2, -1.0, 1.0, rng, powers=np.array([0.9, 0.2]))
    with pytest.raises(ValueError):
        draw_path_set(2, -1.0, 1.0, rng, powers=np.array([1.0]))
    with pytest.raises(ValueError):
        draw_path_set(2, -1.0, 1.0, rng, powers=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="num_paths"):
        draw_path_set(0, -1.0, 1.0, rng)
    with pytest.raises(ValueError, match="angle_low <= angle_high"):
        draw_path_set(2, 1.0, -1.0, rng)


def test_draw_path_set_refuses_non_finite_bounds():
    # an infinite range used to escape as NumPy's OverflowError, a NaN bound
    # as a bare comparison failure
    rng = np.random.default_rng(0)
    for low, high in ((-np.inf, np.inf), (-1.0, np.inf), (np.nan, 1.0),
                      (-1.0, np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            draw_path_set(2, low, high, rng)


def test_draw_path_set_one_generator_keeps_its_draw_order():
    # P uniforms on [low, high], then the P real and the P imaginary parts
    # of the gains: the draws Generator.uniform and two standard_normal
    # calls make, to the bit
    for seed in range(20):
        paths = draw(seed, num_paths=4, powers=np.array([0.4, 0.3, 0.2, 0.1]))
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-np.pi / 3, np.pi / 3, size=4)
        gains = (rng.standard_normal(4)
                 + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
        gains = gains * np.sqrt(4 * np.array([0.4, 0.3, 0.2, 0.1]))
        assert paths.gains.shape == paths.angles_rad.shape == (4,)
        assert np.array_equal(paths.angles_rad, angles)
        assert np.array_equal(paths.gains, gains)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       num_paths=st.integers(1, 6),
       bounds=st.tuples(st.floats(-np.pi / 2, np.pi / 2),
                        st.floats(0.0, np.pi)),
       weighted=st.booleans())
def test_draw_path_set_stack_equals_one_generator_calls(
        seed, shape, num_paths, bounds, weighted):
    # row r of a stacked draw holds the bits of the one-generator call on an
    # identically seeded generator, and leaves that generator in the same
    # state, so no stream is shifted
    low, width = bounds
    weights = np.random.default_rng(seed).random(num_paths) + 0.1
    powers = weights / weights.sum() if weighted else None
    seeds = np.arange(np.prod(shape)).reshape(shape) + seed
    stacked = [np.random.default_rng(s) for s in seeds.flat]
    paths = draw_path_set(num_paths, low, low + width,
                          np.array(stacked).reshape(shape), powers)
    assert paths.gains.shape == (*shape, num_paths)
    assert paths.count == num_paths
    for index, s, rng in zip(np.ndindex(*shape), seeds.flat, stacked):
        alone = np.random.default_rng(s)
        row = draw_path_set(num_paths, low, low + width, alone, powers)
        assert np.array_equal(paths.gains[index], row.gains)
        assert np.array_equal(paths.angles_rad[index], row.angles_rad)
        assert np.array_equal(paths.spatial_freqs[index], row.spatial_freqs)
        assert rng.random() == alone.random()


def stack(path_sets):
    """One T x K x P PathSet of nested per-user PathSets."""
    return PathSet([[p.gains for p in users] for users in path_sets],
                   [[p.angles_rad for p in users] for users in path_sets])


def test_user_channels_shapes():
    sel = make_selection("successive", M, N)
    path_sets = [draw(seed) for seed in range(10)]
    h_up, h_down = user_channels(stack([path_sets, path_sets]), [sel, sel])
    # plain arrays; the uplink stack in C order, the layout the frozen CSVs
    # were made with
    assert type(h_up) is type(h_down) is np.ndarray
    assert h_up.flags.c_contiguous
    assert h_up.shape == (2, N, 10)
    assert h_down.shape == (2, 10, M)
    # column k / row k of every trial correspond to the same user's paths
    for k in (0, 4, 9):
        assert np.allclose(h_up[:, :, k],
                           uplink_channel(path_sets[k], sel))
        assert np.allclose(h_down[:, k],
                           downlink_channel(path_sets[k], M))


def test_user_channels_rejects_unequal_path_counts():
    # a stack holds one path count: ragged users cannot form one, and
    # user_channels takes nothing but a trials x users x paths stack
    sel = make_selection("successive", M, N)
    rng = np.random.default_rng(0)
    two, three = (draw_path_set(count, -1.0, 1.0, rng) for count in (2, 3))
    # between users of one trial, and between trials
    for path_sets in ([[two, three]], [[two, two], [three, three]]):
        with pytest.raises(ValueError):
            stack(path_sets)
    for paths in (two, PathSet(two.gains[None], two.angles_rad[None])):
        with pytest.raises(ValueError, match="trials x users x paths"):
            user_channels(paths, [sel])


def test_user_channels_needs_one_selection_per_trial():
    # one selection for two trials used to broadcast to both
    sel = make_selection("successive", M, N)
    paths = draw_path_set(3, -1.0, 1.0, [[np.random.default_rng(s)
                                          for s in range(4)] for _ in "ab"])
    for sels in ([sel], [sel] * 3):
        with pytest.raises(ValueError, match=f"{len(sels)} selections for "
                                             "2 trials"):
            user_channels(paths, sels)


def test_user_channels_refuses_selections_of_two_arrays():
    # each trial's selection gives M and N: unequal N failed inside
    # np.stack, and unequal M was built on the first selection's array
    paths = draw_path_set(3, -1.0, 1.0, [[np.random.default_rng(s)
                                          for s in range(4)] for _ in "ab"])
    sel = make_selection("successive", 64, 16)
    for other, count in ((make_selection("successive", 32, 16),
                          "num_transmit"),
                         (make_selection("successive", 64, 8),
                          "num_receive")):
        for sels in ([sel, other], [other, sel]):
            with pytest.raises(ValueError, match=f"one {count} for all "
                                                 "selections"):
                user_channels(paths, sels)


def test_single_user_channels_refuse_a_stack():
    sel = make_selection("successive", M, N)
    paths = stack([[draw(0), draw(1)]])
    for build in (lambda: uplink_channel(paths, sel),
                  lambda: downlink_channel(paths, M)):
        with pytest.raises(ValueError, match="one user's 1-D PathSet"):
            build()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_users=st.integers(1, 8),
       num_paths=st.integers(1, 6), weighted=st.booleans())
def test_user_channels_equal_per_user_channels(seed, num_users, num_paths,
                                               weighted):
    # one steering call per direction for all users gives the bytes of the
    # per-user calls; without the downlink, the same uplink and None in the
    # downlink's place
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 129))
    sel = make_selection("random", m, int(rng.integers(1, m + 1)), rng)
    weights = rng.random(num_paths) + 0.1
    paths = draw_path_set(num_paths, -np.pi / 2, np.pi / 2,
                          [rng.spawn(num_users)],
                          weights / weights.sum() if weighted else None)
    users = [PathSet(g, a) for g, a in zip(paths.gains[0],
                                           paths.angles_rad[0])]
    h_up, h_down = user_channels(paths, [sel])
    assert np.array_equal(h_up[0], np.stack(
        [uplink_channel(p, sel) for p in users], axis=1))
    assert np.array_equal(h_down[0], np.stack(
        [downlink_channel(p, m) for p in users]))
    up_only, no_down = user_channels(paths, [sel], downlink=False)
    assert no_down is None
    assert np.array_equal(up_only, h_up)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_trials=st.integers(1, 6),
       num_users=st.integers(1, 6), num_paths=st.integers(1, 4),
       weighted=st.booleans())
def test_trial_stack_equals_per_trial_calls(seed, num_trials, num_users,
                                            num_paths, weighted):
    # the trial pipeline builds a chunk of trials, each with its own random
    # selection, in one call; every trial slice must be the bytes of its
    # own one-trial call
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 129))
    n = int(rng.integers(1, m + 1))
    powers = rng.random(num_paths) + 0.1 if weighted else None
    sels = [make_selection("random", m, n, rng) for _ in range(num_trials)]
    paths = draw_path_set(num_paths, -np.pi / 2, np.pi / 2,
                          [rng.spawn(num_users) for _ in range(num_trials)],
                          None if powers is None else powers / powers.sum())
    h_up, h_down = user_channels(paths, sels)
    assert h_up.shape == (num_trials, n, num_users)
    assert h_down.shape == (num_trials, num_users, m)
    for t, sel in enumerate(sels):
        trial = PathSet(paths.gains[t:t + 1], paths.angles_rad[t:t + 1])
        up, down = user_channels(trial, [sel])
        assert np.array_equal(h_up[t], up[0])
        assert np.array_equal(h_down[t], down[0])


def test_path_set_validation():
    with pytest.raises(ValueError):
        PathSet(np.array([1.0 + 0j]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        PathSet(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        PathSet(np.ones((2, 0)), np.ones((2, 0)))
    with pytest.raises(ValueError):
        PathSet(1.0, 0.1)
    # leading axes stack users; the path axis is last
    stacked = PathSet(np.ones((2, 3, 4)), np.zeros((2, 3, 4)))
    assert stacked.count == 4


def test_path_set_refuses_non_finite_entries():
    # a NaN or infinite gain or angle made every channel entry NaN
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="gains must be finite"):
            PathSet(np.array([bad, 1.0]), np.array([0.1, 0.2]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="angles must be finite"):
            PathSet(np.array([1.0, 1.0]), np.array([0.1, bad]))
        with pytest.raises(ValueError, match="angles must be finite"):
            PathSet(np.ones((2, 2)), np.array([[0.1, 0.2], [bad, 0.2]]))


def test_geometry_validation():
    # the element count M of a selection or of a downlink steering call; a
    # fractional count built steering vectors of the wrong length
    one = np.array([1])
    for bad in (0, 8.5, 8.0, "8"):
        with pytest.raises(ValueError, match="positive integer"):
            steering_downlink(bad, 0.0)
        with pytest.raises(ValueError, match="positive integer"):
            AntennaSelection(one, bad)
    assert steering_downlink(np.int64(8), 0.0).shape == (8,)
    assert AntennaSelection(one, np.int64(8)).num_transmit == 8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       w=st.floats(-0.99, 0.99))
def test_single_path_channel_matches_steering(seed, w):
    # one unit path at angle theta reduces to a scaled steering vector
    theta = float(np.arcsin(w))
    paths = PathSet(np.array([1.0 + 0j]), np.array([theta]))
    rng = np.random.default_rng(seed)
    sel = make_selection("random", M, N, rng)
    h = uplink_channel(paths, sel)
    assert np.allclose(h, np.sqrt(N) * steering_uplink(sel, w),
                       atol=1e-12)
    hd = downlink_channel(paths, M)
    assert np.allclose(hd, np.sqrt(M) * steering_downlink(M, w),
                       atol=1e-12)
