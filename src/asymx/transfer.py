"""Uplink-to-downlink channel transfer.

The N-element uplink estimate and the M-element downlink channel share path
gains and angles, so the downlink can be reconstructed by estimating those
path parameters from the uplink estimate.  Two estimators are provided:

* ``dft_transfer``  - score an oversampled DFT of the zero-padded estimate,
  keep descending peaks until the unexplained energy falls under a noise
  threshold, and rebuild the downlink channel from the kept bins.
* ``mnomp_transfer`` - greedy single-path detection on the padded residual,
  Newton refinement of each path's spatial frequency (the padding makes the
  steering vector differentiable on the full aperture), cyclic re-refinement
  of all paths, and a regularized least-squares gain re-fit per iteration.

Both stop against the same energy threshold N/rho_tau: the expected noise
energy left in an N-element LS estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AntennaSelection
from .channel import ArrayGeometry, steering_downlink, steering_masked


@dataclass(frozen=True)
class TransferConfig:
    """Knobs shared by both transfer algorithms.

    ``oversampling`` is the DFT zoom factor (grid of M * oversampling bins);
    ``threshold`` the stopping energy; ``newton_rounds``/``cyclic_rounds``
    the per-path and whole-set refinement passes of the Newtonized variant;
    ``regularizer`` the ridge term of its gain re-fit.
    """

    oversampling: int
    threshold: float
    newton_rounds: int = 2
    cyclic_rounds: int = 2
    max_paths: int = 10
    regularizer: float = 1e-4

    def __post_init__(self) -> None:
        if self.oversampling < 1:
            raise ValueError("oversampling factor must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.newton_rounds < 0 or self.cyclic_rounds < 0:
            raise ValueError("refinement rounds must be non-negative")
        if self.max_paths < 1:
            raise ValueError("max_paths must be positive")
        if self.regularizer < 0:
            raise ValueError("regularizer must be non-negative")


@dataclass(frozen=True)
class TransferResult:
    """Estimated path parameters and the rebuilt downlink channel.

    ``truncated`` flags an exit forced by max_paths (or exhausted peaks)
    while the residual energy still exceeded the threshold.
    """

    gains: np.ndarray
    spatial_freqs: np.ndarray
    downlink_estimate: np.ndarray
    residual_energy: float
    truncated: bool = False

    @property
    def paths_found(self) -> int:
        return int(self.gains.size)


def default_threshold(num_receive: int, pilot_power: float) -> float:
    """Expected LS estimation-noise energy N/rho_tau on N elements."""
    if pilot_power <= 0:
        raise ValueError("pilot power must be positive")
    return num_receive / pilot_power


def zero_pad(h_up: np.ndarray, selection: AntennaSelection) -> np.ndarray:
    """Scatter the N-element estimate onto the M-element aperture."""
    h = np.asarray(h_up, dtype=complex)
    if h.shape != (selection.num_receive,):
        raise ValueError("estimate length must match the selection")
    out = np.zeros(selection.num_transmit, dtype=complex)
    out[selection.indices - 1] = h
    return out


def spatial_matched_filter(
    h_padded: np.ndarray, oversampling: int, num_receive: int
) -> np.ndarray:
    """Per-bin path-gain scores (1/N) * F_{M*zeta} [conj(h); 0].

    Correlating the padded estimate with every steering candidate on the
    oversampled grid is one FFT of the conjugated vector.  A path of gain g
    at an on-grid frequency scores conj(g) at its bin.
    """
    h = np.asarray(h_padded, dtype=complex)
    return np.fft.fft(np.conj(h), n=h.size * oversampling) / num_receive


def bin_to_spatial_freq(bins: np.ndarray | int, size: int) -> np.ndarray | float:
    """Map FFT bin index to spatial frequency w = 2*b/size wrapped to [-1, 1)."""
    b = np.asarray(bins)
    w = 2.0 * b / size
    w = np.where(w >= 1.0, w - 2.0, w)
    return w if w.ndim else float(w)


def find_peaks(scores: np.ndarray) -> np.ndarray:
    """Indices of circular local maxima of |scores|, strongest first.

    A bin is a peak when its magnitude is >= both circular neighbours (so a
    constant vector is all peaks).  Ties in magnitude break toward the lower
    bin index.
    """
    mags = np.abs(np.asarray(scores))
    if mags.size == 1:
        return np.array([0])
    left = np.roll(mags, 1)
    right = np.roll(mags, -1)
    idx = np.nonzero((mags >= left) & (mags >= right))[0]
    order = np.lexsort((idx, -mags[idx]))
    return idx[order]


def dft_transfer(
    h_up_est: np.ndarray,
    selection: AntennaSelection,
    geometry: ArrayGeometry,
    config: TransferConfig,
) -> TransferResult:
    """Rebuild the downlink channel from the strongest DFT peaks.

    Accumulates peaks in descending magnitude until the unexplained energy
    ||h||^2 - sum_i N |g_i|^2 drops to the threshold, then maps bins to
    spatial frequencies and sums steering vectors with the de-conjugated
    gains.
    """
    h_up = np.asarray(h_up_est, dtype=complex)
    padded = zero_pad(h_up, selection)
    num_receive = selection.num_receive
    scores = spatial_matched_filter(padded, config.oversampling, num_receive)
    peak_bins = find_peaks(scores)

    energy = float(np.vdot(h_up, h_up).real)
    explained = 0.0
    kept: list[int] = []
    truncated = True
    for bin_index in peak_bins:
        kept.append(int(bin_index))
        explained += num_receive * float(np.abs(scores[bin_index]) ** 2)
        if energy - explained <= config.threshold:
            truncated = False
            break
        if len(kept) >= config.max_paths:
            break

    count = len(kept)
    raw = scores[kept]
    gains = np.sqrt(count) * np.conj(raw)
    freqs = np.asarray(
        bin_to_spatial_freq(np.asarray(kept), scores.size), dtype=float
    )
    basis = np.stack(
        [steering_downlink(geometry, w) for w in freqs], axis=1
    )
    downlink = np.sqrt(geometry.num_transmit / count) * (basis @ gains)
    return TransferResult(
        gains=gains,
        spatial_freqs=freqs,
        downlink_estimate=downlink,
        residual_energy=energy - explained,
        truncated=truncated,
    )


def nomp_detect(
    residual: np.ndarray, oversampling: int, num_receive: int
) -> tuple[complex, float]:
    """Strongest single-path hypothesis on the oversampled grid.

    Returns the raw filter score (the conjugate of the model-domain gain)
    and the bin's spatial frequency; ties go to the lower bin.
    """
    scores = spatial_matched_filter(residual, oversampling, num_receive)
    best = int(np.argmax(np.abs(scores)))
    return complex(scores[best]), float(bin_to_spatial_freq(best, scores.size))


def newton_objective(
    observation: np.ndarray,
    gain: complex,
    w: float,
    selection: AntennaSelection,
    geometry: ArrayGeometry,
) -> tuple[float, float, float]:
    """Value and first two w-derivatives of J(w) = ||y - sqrt(N) g a_S(w)||^2.

    a_S is the masked (zero-padded) steering vector; its entries carry the
    factor -j*2*pi*(d/lambda)*(a_n - 1) per derivative order.
    """
    num_receive = selection.num_receive
    root_n = np.sqrt(num_receive)
    steer = steering_masked(selection, geometry, w)
    factor = np.zeros(geometry.num_transmit, dtype=complex)
    factor[selection.indices - 1] = (
        -2j * np.pi * geometry.spacing * (selection.indices - 1)
    )
    d_steer = factor * steer
    dd_steer = factor * d_steer
    resid = observation - root_n * gain * steer
    value = float(np.vdot(resid, resid).real)
    d1 = -2.0 * root_n * float(np.real(gain * np.vdot(resid, d_steer)))
    d2 = -2.0 * root_n * float(np.real(gain * np.vdot(resid, dd_steer)))
    d2 += 2.0 * num_receive * float(
        np.abs(gain) ** 2 * np.vdot(d_steer, d_steer).real
    )
    return value, d1, d2


def newton_refine(
    residual: np.ndarray,
    gain: complex,
    w: float,
    selection: AntennaSelection,
    geometry: ArrayGeometry,
    rounds: int,
) -> tuple[complex, float, np.ndarray]:
    """Refine one path against the data with all other paths removed.

    ``residual`` excludes this path's contribution; it is re-added to form
    the single-path observation, then each round takes a Newton step in w
    followed by a least-squares gain re-fit.  A step is committed only when
    the curvature is positive and the fit error does not grow; the first
    rejected step ends the refinement.  Returns the updated (gain, w) and
    the residual with the refined path removed again.
    """
    num_receive = selection.num_receive
    root_n = np.sqrt(num_receive)
    observation = residual + root_n * gain * steering_masked(
        selection, geometry, w
    )
    for _ in range(rounds):
        value, d1, d2 = newton_objective(
            observation, gain, w, selection, geometry
        )
        if d2 <= 0.0:
            break
        w_new = _wrap_freq(w - d1 / d2)
        steer_new = steering_masked(selection, geometry, w_new)
        norm_sq = float(np.vdot(steer_new, steer_new).real)
        gain_new = complex(
            np.vdot(steer_new, observation) / (root_n * norm_sq)
        )
        trial = observation - root_n * gain_new * steer_new
        if float(np.vdot(trial, trial).real) > value:
            break
        gain, w = gain_new, w_new
    final = observation - root_n * gain * steering_masked(
        selection, geometry, w
    )
    return gain, w, final


def mnomp_transfer(
    h_up_est: np.ndarray,
    selection: AntennaSelection,
    geometry: ArrayGeometry,
    config: TransferConfig,
) -> TransferResult:
    """Newtonized greedy path recovery and downlink reconstruction.

    Per outer iteration: detect the strongest residual path on the grid,
    refine it (``newton_rounds`` steps), cyclically re-refine every path
    found so far (``cyclic_rounds`` passes), then re-fit all gains jointly
    with a ridge least squares and recompute the residual.  Stops when the
    residual energy falls below the threshold or max_paths is hit.
    """
    h_up = np.asarray(h_up_est, dtype=complex)
    padded = zero_pad(h_up, selection)
    num_receive = selection.num_receive
    root_n = np.sqrt(num_receive)

    gains: list[complex] = []
    freqs: list[float] = []
    residual = padded.copy()

    def residual_energy() -> float:
        return float(np.vdot(residual, residual).real)

    while residual_energy() >= config.threshold and len(gains) < config.max_paths:
        raw, w0 = nomp_detect(residual, config.oversampling, num_receive)
        gain0 = np.conj(raw)  # filter scores live in the conjugate domain
        residual = residual - root_n * gain0 * steering_masked(
            selection, geometry, w0
        )
        gain, w, residual = newton_refine(
            residual, gain0, w0, selection, geometry, config.newton_rounds
        )
        gains.append(gain)
        freqs.append(w)

        for _ in range(config.cyclic_rounds):
            for i in range(len(gains)):
                gains[i], freqs[i], residual = newton_refine(
                    residual,
                    gains[i],
                    freqs[i],
                    selection,
                    geometry,
                    config.newton_rounds,
                )

        basis = np.stack(
            [steering_masked(selection, geometry, w) for w in freqs], axis=1
        )
        gram = basis.conj().T @ basis + config.regularizer * np.eye(len(gains))
        refit = np.linalg.solve(gram, basis.conj().T @ padded) / root_n
        gains = list(refit)
        residual = padded - root_n * (basis @ refit)

    freqs_arr = np.asarray(freqs, dtype=float)
    gains_arr = np.asarray(gains, dtype=complex)
    if gains_arr.size:
        downlink_basis = np.stack(
            [steering_downlink(geometry, w) for w in freqs_arr], axis=1
        )
        downlink = np.sqrt(geometry.num_transmit) * (downlink_basis @ gains_arr)
    else:
        downlink = np.zeros(geometry.num_transmit, dtype=complex)
    return TransferResult(
        gains=gains_arr,
        spatial_freqs=freqs_arr,
        downlink_estimate=downlink,
        residual_energy=residual_energy(),
        truncated=residual_energy() >= config.threshold,
    )


def _wrap_freq(w: float) -> float:
    """Wrap a spatial frequency onto the periodic interval [-1, 1)."""
    return float((w + 1.0) % 2.0 - 1.0)
