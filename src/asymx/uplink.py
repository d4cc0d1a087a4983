"""Uplink training, detection SINR, and the composite-angle SNR loss.

The receive array sees K users through orthogonal pilots.  LS/LMMSE
estimates feed either matched-filter (MRC) or zero-forcing combining.  When
two paths sit closer than the receive aperture can resolve, they merge into
one composite path; the resulting matched-filter SNR loss has a closed form
(a ratio of Dirichlet kernels) that this module cross-checks against
brute-force vectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .arrays import (
    SPACING,
    AntennaSelection,
    _broadside_phases,
    _is_count,
    select_comb,
    select_random,
    select_successive,
)
from .channel import _gram_inverse, steering_uplink


@dataclass(frozen=True)
class PilotBlock:
    """K orthonormal pilot rows of length tau, sent at ``power``.

    ``power`` is one rho, or a 1-D array of S of them for a sweep: the
    block is then sent once per power, and the functions below give an
    S-slice stack whose slice s is the call with power s alone.
    """

    matrix: np.ndarray
    power: float | np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", p)
        if p.ndim != 2 or not 1 <= p.shape[0] <= p.shape[1]:
            raise ValueError("pilot matrix must be K x tau, K >= 1, tau >= K")
        gram = p @ p.conj().T
        if not np.allclose(gram, np.eye(p.shape[0]), atol=1e-12):
            raise ValueError("pilot rows must be orthonormal")
        power = np.asarray(self.power, dtype=float)
        if power.ndim > 1:
            raise ValueError("pilot power must be a scalar or a 1-D array")
        if not np.all((power > 0) & (power < np.inf)):
            raise ValueError("pilot power must be positive and finite")
        object.__setattr__(self, "power", power if power.ndim else float(power))


@dataclass(frozen=True)
class SnrLossInputs:
    """Two-path geometry for the composite-angle SNR-loss formulas.

    The loss is defined for two equal-power paths at theta1/theta2 with gain
    phases phi1/phi2, received on N successive elements, and captured by a
    single matched filter pointed at composite_theta, on the
    half-wavelength array of ``SPACING``.
    """

    theta1: float
    theta2: float
    composite_theta: float
    phi1: float
    phi2: float
    num_receive: int

    def __post_init__(self) -> None:
        if not (_is_count(self.num_receive) and self.num_receive >= 1):
            raise ValueError("num_receive must be a positive integer")
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError("angles and phases must be finite")
        if np.isclose(np.sin(self.theta1), np.sin(self.theta2)):
            raise ValueError("paths must have distinct spatial frequencies")


def generate_pilots(
    num_users: int, length: int, power: float | np.ndarray = 1.0
) -> PilotBlock:
    """First K rows of the scaled tau-point DFT; rows are orthonormal."""
    if length < num_users:
        raise ValueError("pilot length must be at least the user count")
    k = np.arange(num_users)[:, None]
    t = np.arange(length)[None, :]
    matrix = np.exp(-2j * np.pi * k * t / length) / np.sqrt(length)
    return PilotBlock(matrix, power)


def received_pilot(
    channels: np.ndarray,
    pilots: PilotBlock,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Y = sqrt(rho_tau) * H * P + W, one row per receive element.

    Leading axes of the channel index trials, and ``rngs`` holds one
    generator per trial slice, in C order (one for a single N x K channel).
    S powers add an S axis after the trial axes: (..., S, N, tau), slice s
    the call with power s alone.  W is unit-variance circularly symmetric
    complex Gaussian noise.  Each trial's generator draws that trial's
    noise in one block laid out (S, real/imaginary, N, tau): the numbers
    that S one-power calls in order take from it, so each slice equals its
    own call.
    """
    h = _uplink_data(channels)
    power = np.asarray(pilots.power)
    y = np.expand_dims(h @ pilots.matrix, tuple(range(-2 - power.ndim, -2)))
    y = y * np.sqrt(power)[..., None, None]
    axis = y.ndim - 2
    block = (*y.shape[h.ndim - 2:axis], 2, *y.shape[axis:])
    parts = np.empty((*h.shape[:-2], *block))
    slices = parts.reshape(-1, *block)
    if len(rngs) != len(slices):
        raise ValueError(f"{len(slices)} trial slices need as many "
                         f"generators, got {len(rngs)}")
    for rng, out in zip(rngs, slices):
        rng.standard_normal(out=out)
    # scaled and added in place: no complex temporaries, the same numbers
    # as adding sqrt(1/2) * (re + 1j * im)
    parts *= np.sqrt(0.5)
    re, im = np.moveaxis(parts, axis, 0)
    y.real += re
    y.imag += im
    return y


def estimate_ls(received: np.ndarray, pilots: PilotBlock) -> np.ndarray:
    """Least-squares estimate Y * P^H / sqrt(rho_tau).

    With S powers, the S x N x tau stack of received blocks gives an
    S x N x K stack, slice s equal to its own one-power call; leading
    trial axes carry through.
    """
    est = received @ pilots.matrix.conj().T
    est /= np.sqrt(pilots.power)[..., None, None]
    return est


def estimate_lmmse(received: np.ndarray, pilots: PilotBlock) -> np.ndarray:
    """LMMSE estimate (1/sqrt(rho)) * Y * P^H * ((1/rho) R^-1 + I)^-1.

    Unit-variance path gains make the user correlation R = E{H^H H} equal
    N * I_K, so the filter is the scalar shrinkage 1 / ((1/N)(1/rho) + 1).
    Stacks as ``estimate_ls`` does, with one shrinkage per power.
    """
    ls = estimate_ls(received, pilots)
    rho = np.asarray(pilots.power)[..., None, None]
    ls *= 1.0 / ((1.0 / ls.shape[-2]) * (1.0 / rho) + 1.0)
    return ls


def uplink_sinr(
    channel_est: np.ndarray,
    channel_true: np.ndarray,
    power: float | np.ndarray,
    detector: str = "mrc",
) -> np.ndarray:
    """Per-user SINR for one channel realization under unit-variance noise.

    MRC combines with the estimate itself; ZF with the columns of
    H (H^H H)^-1, the pseudo-inverse columns computed through the K x K
    Gram.  An exactly singular or near-singular Gram, as from two equal
    estimated columns, takes its Hermitian pseudo-inverse, which again
    gives the pseudo-inverse columns of the rank-deficient H.
    SINR_k = rho |v_k^H h_k|^2 /
    (rho * sum_{i != k} |v_k^H h_i|^2 + ||v_k||^2).
    An S x N x K stack of estimates with S powers gives S x K, slice s
    equal to its own call; further leading axes, such as trials, broadcast
    against those of the true channel.  Every power must be positive and
    finite.
    """
    rho = np.asarray(power, dtype=float)
    if not np.all((rho > 0.0) & (rho < np.inf)):
        raise ValueError("uplink power must be positive and finite")
    h_est = _uplink_data(channel_est)
    h = _uplink_data(channel_true)
    if detector == "mrc":
        combiner = h_est
    elif detector == "zf":
        gram = h_est.conj().swapaxes(-1, -2) @ h_est
        combiner = h_est @ _gram_inverse(gram)
    else:
        raise ValueError(f"unknown detector {detector!r}")
    # [..., k, i] = |v_k^H h_i|^2 = |h_i^H v_k|^2: conjugating the true
    # channel, which has no SNR axis, not the (..., S, N, K) combiner
    cross = np.abs(h.conj().swapaxes(-1, -2) @ combiner).swapaxes(-1, -2) ** 2
    signal = np.diagonal(cross, axis1=-2, axis2=-1)
    interference = cross.sum(axis=-1) - signal
    # ||v_k||^2 without two (..., N, K) float temporaries
    norms = np.vecdot(combiner, combiner, axis=-2).real
    rho = rho[..., None]
    return rho * signal / (rho * interference + norms)


def make_selection(
    kind: str,
    num_transmit: int,
    num_receive: int,
    rng: np.random.Generator | None = None,
    pinned: bool = False,
) -> AntennaSelection:
    """Construct a selection by kind; random draws need an rng."""
    if kind == "successive":
        return select_successive(num_transmit, num_receive)
    if kind == "comb":
        return select_comb(num_transmit, num_receive)
    if kind == "random":
        if rng is None:
            raise ValueError("random selection requires an rng")
        return select_random(num_transmit, num_receive, rng, pinned)
    raise ValueError(f"unknown selection kind {kind!r}")


def _dirichlet_ratio(count: int, u: np.ndarray | float) -> np.ndarray | float:
    """sin(count*pi*u) / sin(pi*u), with the limit value at denominator zeros.

    At integer u the ratio tends to count * cos(count*pi*u) / cos(pi*u),
    magnitude ``count`` (the unambiguous-aperture peak).
    """
    u_arr = np.asarray(u, dtype=float)
    den = np.sin(np.pi * u_arr)
    near_zero = np.abs(den) < 1e-9
    safe_den = np.where(near_zero, 1.0, den)
    ratio = np.sin(count * np.pi * u_arr) / safe_den
    cos_den = np.cos(np.pi * u_arr)
    # cos is +/-1 wherever sin vanishes; the guard only silences the branch
    # numpy evaluates for entries that take the ratio above.
    safe_cos = np.where(np.abs(cos_den) < 1e-12, 1.0, cos_den)
    limit = count * np.cos(count * np.pi * u_arr) / safe_cos
    out = np.where(near_zero, limit, ratio)
    return out if out.ndim else float(out)


def snr_loss_closed_form(inputs: SnrLossInputs) -> float:
    """Closed-form matched-filter SNR loss of the merged two-path channel.

    loss = 1 - (L1^2 + L2^2 + 2 L1 L2 cos G) / (2 N^2 + 2 N L cos G)
    with L* Dirichlet ratios of the angle gaps and G the net phase between
    the two path responses at the composite angle.
    """
    n = inputs.num_receive
    gap = np.sin(inputs.theta1) - np.sin(inputs.theta2)
    gap1 = np.sin(inputs.composite_theta) - np.sin(inputs.theta1)
    gap2 = np.sin(inputs.composite_theta) - np.sin(inputs.theta2)
    lam = _dirichlet_ratio(n, SPACING * gap)
    lam1 = _dirichlet_ratio(n, SPACING * gap1)
    lam2 = _dirichlet_ratio(n, SPACING * gap2)
    gamma = inputs.phi1 - inputs.phi2 - np.pi * SPACING * (n - 1) * gap
    num = lam1**2 + lam2**2 + 2.0 * lam1 * lam2 * np.cos(gamma)
    den = 2.0 * n**2 + 2.0 * n * lam * np.cos(gamma)
    return float(1.0 - num / den)


def snr_loss_numeric(inputs: SnrLossInputs) -> float:
    """Brute-force SNR loss from explicit steering vectors.

    Builds the two-path channel h = sqrt(N/2) (e^{j phi1} a(theta1) +
    e^{j phi2} a(theta2)) and the composite capture h_s = sqrt(N/2) g_s
    a(theta_s) with |g_s| = sqrt(2) (energy conservation), then compares
    matched-filter SNRs; the transmit power cancels in the ratio.
    """
    n = inputs.num_receive
    selection = select_successive(n, n)
    a1 = steering_uplink(selection, np.sin(inputs.theta1))
    a2 = steering_uplink(selection, np.sin(inputs.theta2))
    a_s = steering_uplink(selection, np.sin(inputs.composite_theta))
    h = np.sqrt(n / 2.0) * (
        np.exp(1j * inputs.phi1) * a1 + np.exp(1j * inputs.phi2) * a2
    )
    h_s = np.sqrt(n / 2.0) * np.sqrt(2.0) * a_s
    snr_full = np.vdot(h, h).real
    snr_merged = float(np.abs(np.vdot(h_s, h)) ** 2 / np.vdot(h_s, h_s).real)
    return float(1.0 - snr_merged / snr_full)


def _steered_response(
    channel: np.ndarray,
    selection: AntennaSelection,
    w_grid: np.ndarray,
    phases: np.ndarray | None = None,
) -> np.ndarray:
    """|a_U(w)^H h| over a grid of spatial frequencies (the periodogram).

    ``phases`` is the grid's N x W phase matrix, if the caller built it
    once for many channels; by default it is built here.
    """
    if phases is None:
        phases = _broadside_phases(selection, w_grid)
    return np.abs(phases.T @ channel) / np.sqrt(selection.num_receive)


def _scan_phases(selection: AntennaSelection, w_center: float | None = None
                 ) -> np.ndarray:
    """The N x 16M phase matrix of the first grid that ``composite_angle``
    scans (``w_center`` None) or of the window of ``resolved_path_count``
    around ``w_center``.  Neither grid reads the channel, so a sweep over
    channels on one array builds each matrix once and passes it in."""
    return _broadside_phases(selection, _scan_grid(selection, w_center))


def _scan_grid(selection: AntennaSelection, w_center: float | None
               ) -> np.ndarray:
    """16*M points on [-1, 1], or on +/- 4/N of w_center clipped to it."""
    lo, hi = -1.0, 1.0
    if w_center is not None:
        half = 4.0 / selection.num_receive
        lo, hi = max(lo, w_center - half), min(hi, w_center + half)
    return np.linspace(lo, hi, 16 * selection.num_transmit)


def composite_angle(
    channel: np.ndarray,
    selection: AntennaSelection,
    phases: np.ndarray | None = None,
) -> float:
    """Dominant resolved angle of a merged multipath channel.

    Maximizes the periodogram |a_U(w)^H h| of the N-element ``channel``
    over a grid of 16*M points on [-1, 1], then zooms in: 33 points over
    one step either side of the best, clipped to [-1, 1], a 16x finer
    step, until it is below 1e-9 in w.  ``phases`` is that first grid's
    ``_scan_phases(selection)``, if the caller built it once.
    """
    grid = _scan_grid(selection, None)
    while True:
        response = _steered_response(channel, selection, grid, phases)
        phases = None  # the zoomed grids depend on the channel
        w_star = float(grid[np.argmax(response)])
        step = grid[1] - grid[0]
        if step < 1e-9:
            return float(np.arcsin(w_star))
        grid = np.linspace(max(-1.0, w_star - step), min(1.0, w_star + step),
                           33)


def resolved_path_count(
    channel: np.ndarray,
    selection: AntennaSelection,
    w_center: float,
    phases: np.ndarray | None = None,
) -> int:
    """Number of dominant periodogram peaks near a spatial frequency.

    Counts local maxima within +/- 4/N of w_center, on a grid of 16*M
    points, whose height is at least half the window maximum with
    prominence at least 10 % of it;
    Dirichlet side lobes (-13 dB, i.e. 0.22 of the peak) stay excluded
    while a genuinely split composite (two comparable lobes) counts as 2.
    ``phases`` is the window's ``_scan_phases(selection, w_center)``, if
    the caller built it once.
    """
    grid = _scan_grid(selection, w_center)
    response = _steered_response(channel, selection, grid, phases)
    top = response.max()
    return _peak_count(response, 0.5 * top, 0.1 * top)


def _peak_count(x: np.ndarray, height: float, prominence: float) -> int:
    """Peaks of ``x`` with this height and prominence, as SciPy's
    ``find_peaks`` counts them.

    A peak is a run of equal samples above the runs on both sides, so a
    flat top counts once.  Its prominence is its height less the larger
    minimum over the samples up to the first strictly higher one, or the
    end, on each side.
    """
    runs = np.r_[x[:1], x[1:][x[1:] != x[:-1]]]
    mid = runs[1:-1]
    peaks = np.flatnonzero((mid > runs[:-2]) & (mid > runs[2:])
                           & (mid >= height)) + 1
    return sum(
        int(runs[p] - max(_reach_min(runs[p::-1]), _reach_min(runs[p:]))
            >= prominence) for p in peaks)


def _reach_min(side: np.ndarray) -> float:
    """Minimum of ``side`` before its first entry above ``side[0]``."""
    return side[~np.logical_or.accumulate(side > side[0])].min()


def _uplink_data(channels: np.ndarray) -> np.ndarray:
    arr = np.asarray(channels, dtype=complex)
    return arr[:, None] if arr.ndim == 1 else arr
