"""Antenna selection schemes and their array factors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx.arrays import (
    AntennaSelection,
    angular_resolution,
    array_factor,
    select_comb,
    select_random,
    select_successive,
)

M, N = 128, 32


def test_successive_indices():
    sel = select_successive(M, N)
    assert sel.indices.tolist() == list(range(1, N + 1))
    assert sel.kind == "successive"
    assert sel.num_receive == N


def test_comb_indices():
    sel = select_comb(M, N)
    stride = M // N
    assert sel.indices.tolist() == [1 + stride * i for i in range(N)]
    assert sel.indices[-1] == M - stride + 1


def test_comb_requires_divisibility():
    with pytest.raises(ValueError):
        select_comb(M, 24)


def test_random_indices_sorted_unique_in_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        sel = select_random(M, N, rng)
        idx = sel.indices
        assert len(np.unique(idx)) == N
        assert np.all(np.diff(idx) > 0)
        assert idx[0] >= 1 and idx[-1] <= M


def test_random_pinned_spans_aperture():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sel = select_random(M, N, rng, pinned=True)
        assert sel.indices[0] == 1
        assert sel.indices[-1] == M


def test_selection_validation():
    with pytest.raises(ValueError):
        AntennaSelection(np.array([0, 1]), M, "random")  # 1-based
    with pytest.raises(ValueError):
        AntennaSelection(np.array([3, 2]), M, "random")  # increasing
    with pytest.raises(ValueError):
        AntennaSelection(np.array([1, M + 1]), M, "random")  # in range
    with pytest.raises(ValueError):
        AntennaSelection(np.array([1, 2]), M, "spiral")  # known kind
    with pytest.raises(ValueError):
        AntennaSelection([1.5, 2.7, 3.9], M, "random")  # integral
    for indices in ([], [[1, 2], [3, 4]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            AntennaSelection(indices, M, "random")
    assert AntennaSelection([1.0, 3.0], M).indices.tolist() == [1, 3]


def test_array_factor_peak_at_broadside():
    rng = np.random.default_rng(2)
    for sel in (select_successive(M, N), select_comb(M, N),
                select_random(M, N, rng)):
        assert array_factor(sel, np.array([0.0]))[0] == pytest.approx(N)


def test_successive_array_factor_matches_dirichlet():
    sel = select_successive(M, N)
    w = np.linspace(-1.0, 1.0, 501)
    got = array_factor(sel, w)
    num = np.sin(np.pi * 0.5 * N * w)
    den = np.sin(np.pi * 0.5 * w)
    with np.errstate(invalid="ignore", divide="ignore"):
        expected = np.abs(np.where(np.abs(den) < 1e-12, N, num / den))
    assert np.allclose(got, expected, atol=1e-8)


def test_comb_grating_lobes_reach_full_height():
    # stride 4 aliases every 1/(d*stride) = 0.5 in spatial frequency
    sel = select_comb(M, N)
    lobes = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.allclose(array_factor(sel, lobes), N, atol=1e-9)


def test_random_suppresses_grating_lobes():
    rng = np.random.default_rng(3)
    sel = select_random(M, N, rng)
    at_half = array_factor(sel, np.array([0.5]))[0]
    assert at_half < 0.7 * N


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["successive", "comb", "random"]))
def test_array_factor_bounded_and_even(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "successive":
        sel = select_successive(M, N)
    elif kind == "comb":
        sel = select_comb(M, N)
    else:
        sel = select_random(M, N, rng)
    w = rng.uniform(-1.0, 1.0, size=64)
    forward = array_factor(sel, w)
    assert np.all(forward <= N + 1e-9)
    assert np.all(forward >= 0.0)
    assert np.allclose(forward, array_factor(sel, -w), atol=1e-9)


def test_angular_resolution_by_kind():
    assert angular_resolution("successive", M, N) == pytest.approx(2.0 / N)
    assert angular_resolution("comb", M, N) == pytest.approx(2.0 / M)
    assert angular_resolution("random", M, N) == pytest.approx(2.0 / M)
    with pytest.raises(ValueError):
        angular_resolution("full", M, N)


def test_selection_counts_validated():
    with pytest.raises(ValueError):
        select_successive(M, 0)
    with pytest.raises(ValueError):
        select_successive(M, M + 1)
    with pytest.raises(ValueError):
        select_random(M, M + 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="num_receive >= 2"):
        select_random(8, 1, np.random.default_rng(0), pinned=True)
    # a float count used to build a selection of a float M
    with pytest.raises(ValueError, match="integers"):
        select_comb(8.0, 4)
    with pytest.raises(ValueError, match="integers"):
        select_successive(M, 4.0)
    assert select_comb(np.int64(8), np.int32(4)).num_transmit == 8
