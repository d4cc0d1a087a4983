"""Downlink precoding, SINR/SE and the NMSE metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymx.channel import PathSet, user_channels
from asymx.downlink import (
    _downlink_sinr,
    downlink_se,
    mrt_precoder,
    nmse,
    nmse_db,
    zf_precoder,
)
from asymx.uplink import make_selection, uplink_sinr

M, K = 64, 6


def random_downlink(seed, num_users=K):
    rng = np.random.default_rng(seed)
    sel = make_selection("successive", M, 16)
    users = [
        ((rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2),
         rng.uniform(-np.pi / 3, np.pi / 3, 3))
        for _ in range(num_users)
    ]
    gains, angles = zip(*users)
    _, h_down = user_channels(PathSet([gains], [angles]), [sel])
    return h_down[0]


def test_precoder_columns_unit_norm():
    h = random_downlink(0)
    for w in (mrt_precoder(h), zf_precoder(h)):
        assert w.shape == (M, K)
        assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-12)


def test_mrt_matches_conjugate_rows():
    h = random_downlink(1)
    w = mrt_precoder(h)
    for k in range(K):
        row = h[k]
        assert np.allclose(w[:, k], row.conj() / np.linalg.norm(row),
                           atol=1e-12)


def test_mrt_rejects_zero_row():
    h = random_downlink(2)
    h[3] = 0.0
    with pytest.raises(ValueError):
        mrt_precoder(h)
    # zero forcing refuses the row up front: its pseudo-inverse column is
    # rounding residue, which normalization would turn into a unit beam
    with pytest.raises(ValueError, match="zero channel row"):
        zf_precoder(h)
    # in a stack, one slice's zero row refuses the call
    stack = np.stack([random_downlink(2), h])
    for precode in (mrt_precoder, zf_precoder):
        with pytest.raises(ValueError, match="zero channel row"):
            precode(stack)
    # a row too weak for the pseudo-inverse's cutoff still gets a zero beam
    h = np.zeros((2, 8), dtype=complex)
    h[0, 0], h[1, 1] = 1.0, 1e-20
    with pytest.raises(ValueError, match="zero beam"):
        zf_precoder(h)


def test_zf_removes_interference():
    h = random_downlink(3)
    w = zf_precoder(h)
    cross = h @ w
    off = cross - np.diag(np.diag(cross))
    assert np.max(np.abs(off)) < 1e-9


def test_zf_shares_a_beam_between_identical_estimates():
    # an exactly singular Gram matrix: both users get the matched beam
    row = np.array([1.0, 2.0j, -2.0])
    w = zf_precoder(np.stack([row, row]))
    assert np.allclose(w, (row.conj() / 3.0)[:, None], atol=1e-12)


@pytest.mark.parametrize("gap", (1e-10, 1e-7))
@pytest.mark.parametrize("seed", range(2))
def test_zf_nearly_identical_users_share_a_beam(seed, gap):
    # two users a relative 1e-10 apart make a Gram singular up to rounding
    # (condition number about 1e16), 1e-7 apart one whose inverse is
    # inaccurate (about 1e14); both links must take the shared-beam rule
    # of exactly equal users, not a finite inverse dominated by rounding
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M))) \
        / np.sqrt(2)
    exact = h.copy()
    exact[1] = exact[0]
    near = exact.copy()
    step = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    near[1] += gap * np.linalg.norm(exact[0]) / np.linalg.norm(step) * step
    w_near = zf_precoder(near)
    w_exact = zf_precoder(exact)
    assert np.allclose(w_near, w_exact, rtol=0.0, atol=1e-6)
    sinr_near = uplink_sinr(near.T, h.T, 2.0, "zf")
    sinr_exact = uplink_sinr(exact.T, h.T, 2.0, "zf")
    assert np.allclose(sinr_near, sinr_exact, rtol=1e-6, atol=0.0)


def test_zf_sinr_equals_rho_times_gain():
    # with zero leakage, SINR_k = rho |h_k w_k|^2
    h = random_downlink(4)
    w = zf_precoder(h)
    rho = 5.0
    sinr = _downlink_sinr(h, w, rho)
    direct = rho * np.abs(np.diag(h @ w)) ** 2
    assert np.allclose(sinr, direct, rtol=1e-9)


def test_downlink_sinr_manual_two_user():
    h = np.array([[1.0 + 0j, 0.0], [0.6, 0.8]])
    w = np.eye(2, dtype=complex)
    rho = 2.0
    sinr = _downlink_sinr(h, w, rho)
    assert sinr[0] == pytest.approx(1.0 / (0.5), rel=1e-12)
    assert sinr[1] == pytest.approx(0.64 / (0.36 + 0.5), rel=1e-12)


def test_downlink_se_sums_rates():
    h = random_downlink(5)
    w = zf_precoder(h)
    rates, total = downlink_se(h, w, 10.0)
    assert rates.shape == (K,)
    assert total == pytest.approx(rates.sum())
    assert np.all(rates > 0)


def test_mrt_optimal_for_single_user():
    # with one user there is no interference and MRT is the matched filter
    h = random_downlink(6, num_users=1)
    rho = 3.0
    _, se_mrt = downlink_se(h, mrt_precoder(h), rho)
    expected = np.log2(1.0 + rho * np.linalg.norm(h[0]) ** 2)
    assert se_mrt == pytest.approx(expected, rel=1e-12)


def test_power_validated():
    h = random_downlink(7)
    for power in (-1.0, 0.0, np.nan, np.inf, np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="power"):
            _downlink_sinr(h, zf_precoder(h), power)
    # a stack takes one power, or one per slice, and no other shape
    stack = np.stack([h, h])
    w = zf_precoder(stack)
    for power in (np.ones(3), np.ones((2, 1)), np.array([1.0, -1.0])):
        with pytest.raises(ValueError, match="power"):
            _downlink_sinr(stack, w, power)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rho=st.floats(0.01, 1000.0))
def test_zf_beats_mrt_under_load(seed, rho):
    # ZF never loses to MRT by more than the noise-limited regime allows;
    # at minimum both produce positive finite rates
    h = random_downlink(seed)
    _, se_zf = downlink_se(h, zf_precoder(h), rho)
    _, se_mrt = downlink_se(h, mrt_precoder(h), rho)
    assert np.isfinite(se_zf) and np.isfinite(se_mrt)
    assert se_zf > 0 and se_mrt > 0


def test_nmse_values():
    truth = np.array([1.0 + 0j, 1.0j])
    assert nmse(truth, truth) == 0.0
    assert nmse(np.zeros(2, complex), truth) == pytest.approx(1.0)
    assert nmse(2.0 * truth, truth) == pytest.approx(1.0)
    assert nmse_db(np.array([1.001 + 0j, 1.0j]), truth) == pytest.approx(
        10 * np.log10(1e-6 / 2.0), abs=1e-6)


def test_nmse_rejects_zero_truth():
    with pytest.raises(ValueError):
        nmse(np.ones(3, complex), np.zeros(3, complex))


def test_downlink_accepts_plain_vector():
    # a single user's 1-D channel row is promoted to a 1 x M matrix
    h = random_downlink(8, num_users=1)
    vec = h[0]
    w = mrt_precoder(vec)
    assert w.shape == (M, 1)
    sinr_vec = _downlink_sinr(vec, w, 1.0)
    sinr_mat = _downlink_sinr(h, w, 1.0)
    assert sinr_vec[0] == pytest.approx(sinr_mat[0], rel=1e-12)




def gaussian(rng, *shape):
    return (rng.standard_normal(shape)
            + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def estimate_stacks(seed=10):
    """(estimates, true channels) of three 4 x K x M stacks: full-rank
    slices; one slice with a collinear pair of users; one with a pair a
    relative 1e-10 apart, whose Gram is singular up to rounding."""
    rng = np.random.default_rng(seed)
    stacks = {}
    for case in ("full_rank", "collinear", "near_singular"):
        est = gaussian(rng, 4, K, M)
        if case == "collinear":
            est[2, 1] = (0.6 - 0.8j) * est[2, 0]
        if case == "near_singular":
            step = gaussian(rng, M)
            est[1, 1] = est[1, 0] + 1e-10 * (
                np.linalg.norm(est[1, 0]) / np.linalg.norm(step) * step)
        stacks[case] = (est, est + 0.3 * gaussian(rng, 4, K, M))
    return stacks


@pytest.mark.parametrize(
    "name", ("mrt_precoder", "zf_precoder", "downlink_se", "nmse"))
def test_stack_equals_its_slices(name):
    # each slice of a stacked call holds the bits of its own one-slice call
    powers = np.array([0.1, 1.0, 10.0, 1000.0])
    for case, (est, truth) in estimate_stacks().items():
        for g in range(len(est)):
            if name == "nmse":
                ratios = nmse(est, truth)
                single = [nmse(est[g, k], truth[g, k]) for k in range(K)]
                assert ratios.shape == (4, K)
                assert np.array_equal(ratios[g], single), (case, g)
                assert all(type(r) is float for r in single)
                continue
            for precode in (zf_precoder, mrt_precoder):
                w = precode(est)
                assert w.shape == (4, M, K)
                if name == "downlink_se":
                    rates, system = downlink_se(truth, w, powers)
                    rates_g, system_g = downlink_se(truth[g], w[g],
                                                    float(powers[g]))
                    assert type(system_g) is float
                    assert np.array_equal(rates[g], rates_g), (case, g)
                    assert np.array_equal(system[g], system_g), (case, g)
                elif precode.__name__ == name:
                    assert np.array_equal(w[g], precode(est[g])), (case, g)
