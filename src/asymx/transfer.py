"""Uplink-to-downlink channel transfer.

The N-element uplink estimate and the M-element downlink channel share path
gains and angles, so the downlink can be reconstructed by estimating those
path parameters from the uplink estimate.  Two estimators are provided:

* ``dft_transfer``  - score the estimate on an oversampled DFT grid,
  keep descending peaks until the energy they leave unexplained falls under
  a noise threshold, and rebuild the downlink channel from the kept bins.
* ``mnomp_transfer`` - Newtonized orthogonal matching pursuit (NOMP;
  Mamandipoor, Ramasamy and Madhow, IEEE TSP 2016): greedy single-path
  detection on the oversampled grid, Newton refinement of each path's
  spatial frequency, cyclic re-refinement of all paths, and a regularized
  least-squares gain re-fit per iteration.

Both work on N-element vectors.  Selected element a_n carries the steering
entry exp(-j*2*pi*(d/lambda)*(a_n - 1)*w) / sqrt(N), and each w-derivative
multiplies it by the fixed phase slope -j*2*pi*(d/lambda)*(a_n - 1), which
``asymx.channel`` owns, so the Newton algebra needs no other element.  Only
``spatial_matched_filter`` scatters an N-vector onto the M-element aperture:
one zero-padded FFT scores every oversampled bin.  The entries repeat in w
with period 1/d, so bins and Newton steps land on [-1/(2d), 1/(2d)), which
is [-1, 1) at half-wavelength spacing.

Both stop against the same energy threshold N/rho_tau: the expected noise
energy left in an N-element LS estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AntennaSelection
from .channel import ArrayGeometry, _phase_slope, steering_downlink
# Unused here, but benchmarks/tracer.py wraps asymx.transfer.steering_masked.
from .channel import steering_masked  # noqa: F401


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

    ``residual_energy`` is the quantity each algorithm stops on.  For mNOMP
    it is ||h - sqrt(N) * sum_i g_i a_S(w_i)||^2 on the N selected
    entries.  For DFT it is ||h||^2 - sum_i N |score_i|^2, which treats the
    kept oversampled bins as orthogonal: it is not the fit error, and it
    goes negative when neighbouring bins overlap.  ``truncated`` flags an
    exit forced by max_paths (or exhausted peaks) while that quantity still
    exceeded the threshold.
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


def spatial_matched_filter(
    h_up: np.ndarray, selection: AntennaSelection, oversampling: int
) -> np.ndarray:
    """Per-bin path-gain scores (1/N) * F_{M*zeta} [conj(h) on the selection].

    Correlating the N-element estimate with every steering candidate on the
    oversampled grid is one FFT of its conjugate scattered onto the
    M-element aperture, zero elsewhere.  A path of gain g at an on-grid
    frequency scores conj(g) at its bin.
    """
    h = np.asarray(h_up, dtype=complex)
    if h.shape != (selection.num_receive,):
        raise ValueError("estimate length must match the selection")
    padded = np.zeros(selection.num_transmit, dtype=complex)
    padded[selection.indices - 1] = np.conj(h)
    return (np.fft.fft(padded, n=padded.size * oversampling)
            / selection.num_receive)


def bin_to_spatial_freq(
    bins: np.ndarray | int, size: int, spacing: float
) -> np.ndarray | float:
    """Map FFT bin index b of a ``size``-point grid over one period of an
    array with element spacing d (in wavelengths) to spatial frequency
    w = b/(d*size), wrapped onto [-1/(2d), 1/(2d))."""
    period = 1.0 / spacing
    w = period * np.asarray(bins) / size
    w = np.where(w >= 0.5 * period, w - period, w)
    return w if w.ndim else float(w)


def find_peaks(scores: np.ndarray) -> np.ndarray:
    """Indices of circular local maxima of |scores|, strongest first.

    A bin is a peak when its magnitude is >= both circular neighbours (so a
    constant vector is all peaks).  Ties in magnitude break toward the lower
    bin index.
    """
    mags = np.abs(np.asarray(scores))
    ring = np.concatenate((mags[-1:], mags, mags[:1]))
    idx = np.flatnonzero((mags >= ring[:-2]) & (mags >= ring[2:]))
    # a stable sort keeps equal magnitudes in ascending bin order
    return idx[np.argsort(-mags[idx], kind="stable")]


def dft_transfer(
    h_up_est: np.ndarray,
    selection: AntennaSelection,
    geometry: ArrayGeometry,
    config: TransferConfig,
) -> TransferResult:
    """Rebuild the downlink channel from the strongest DFT peaks.

    Accumulates peaks in descending magnitude until the unexplained energy
    ||h||^2 - sum_i N |score_i|^2 drops to the threshold, then maps bins to
    spatial frequencies and sums steering vectors with the de-conjugated
    gains.  The subtraction treats the kept bins as orthogonal, which
    oversampled bins are not, so this stopping quantity (returned as
    ``residual_energy``) is not ||h - reconstruction||^2 and can be far
    below zero; it is the rule of the reproduced algorithm and is kept.
    """
    h_up = np.asarray(h_up_est, dtype=complex)
    num_receive = selection.num_receive
    scores = spatial_matched_filter(h_up, selection, config.oversampling)
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
        bin_to_spatial_freq(np.asarray(kept), scores.size, geometry.spacing),
        dtype=float,
    )
    basis = steering_downlink(geometry, freqs)
    downlink = np.sqrt(geometry.num_transmit / count) * (basis @ gains)
    return TransferResult(
        gains=gains,
        spatial_freqs=freqs,
        downlink_estimate=downlink,
        residual_energy=energy - explained,
        truncated=truncated,
    )


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
    root_n = np.sqrt(selection.num_receive)
    pos = _phase_slopes(selection, geometry)

    gains: list[complex] = []
    freqs: list[float] = []
    steers: list[np.ndarray] = []
    residual = h_up
    energy = float(np.vdot(residual, residual).real)
    while energy >= config.threshold and len(gains) < config.max_paths:
        scores = spatial_matched_filter(residual, selection,
                                        config.oversampling)
        best = int(np.argmax(np.abs(scores)))  # ties go to the lower bin
        w0 = float(bin_to_spatial_freq(best, scores.size, geometry.spacing))
        gain0 = np.conj(scores[best])  # scores live in the conjugate domain
        steer0 = _steer(pos, w0, root_n)
        residual = residual - root_n * gain0 * steer0
        gain, w, steer, residual = _refine(
            residual, gain0, w0, steer0, pos, root_n, config.newton_rounds,
            geometry.spacing,
        )
        gains.append(gain)
        freqs.append(w)
        steers.append(steer)

        for _ in range(config.cyclic_rounds):
            for i in range(len(gains)):
                gains[i], freqs[i], steers[i], residual = _refine(
                    residual,
                    gains[i],
                    freqs[i],
                    steers[i],
                    pos,
                    root_n,
                    config.newton_rounds,
                    geometry.spacing,
                )

        basis = np.stack(steers, axis=1)
        gram = basis.conj().T @ basis + config.regularizer * np.eye(len(gains))
        refit = np.linalg.solve(gram, basis.conj().T @ h_up) / root_n
        gains = list(refit)
        residual = h_up - root_n * (basis @ refit)
        energy = float(np.vdot(residual, residual).real)

    freqs_arr = np.asarray(freqs, dtype=float)
    gains_arr = np.asarray(gains, dtype=complex)
    # no path found: an M x 0 basis times no gains is the zero vector
    downlink = np.sqrt(geometry.num_transmit) * (
        steering_downlink(geometry, freqs_arr) @ gains_arr
    )
    return TransferResult(
        gains=gains_arr,
        spatial_freqs=freqs_arr,
        downlink_estimate=downlink,
        residual_energy=energy,
        truncated=energy >= config.threshold,
    )


def _phase_slopes(
    selection: AntennaSelection, geometry: ArrayGeometry
) -> np.ndarray:
    """-j*2*pi*(d/lambda)*(a_n - 1): d/dw of each selected steering phase."""
    return _phase_slope(geometry, selection.indices)


def _steer(pos: np.ndarray, w: float, root_n: float) -> np.ndarray:
    """N-element steering vector; the same bits as ``steering_uplink``."""
    return np.exp(pos * w) / root_n


def _derivatives(
    resid: np.ndarray,
    gain: complex,
    steer: np.ndarray,
    pos: np.ndarray,
    root_n: float,
) -> tuple[float, float]:
    """dJ/dw and d2J/dw2 of J(w) = ||y - sqrt(N) g a_S(w)||^2, on N entries.

    ``resid`` is y - sqrt(N) g a_S(w) and ``steer`` is a_S(w).
    """
    d_steer = pos * steer
    dd_steer = pos * d_steer
    d1 = -2.0 * root_n * float(np.real(gain * np.vdot(resid, d_steer)))
    d2 = -2.0 * root_n * float(np.real(gain * np.vdot(resid, dd_steer)))
    d2 += 2.0 * steer.size * float(
        np.abs(gain) ** 2 * np.vdot(d_steer, d_steer).real
    )
    return d1, d2


def _refine(
    residual: np.ndarray,
    gain: complex,
    w: float,
    steer: np.ndarray,
    pos: np.ndarray,
    root_n: float,
    rounds: int,
    spacing: float,
) -> tuple[complex, float, np.ndarray, np.ndarray]:
    """Refine one path against the data with all other paths removed.

    ``residual`` excludes this path's contribution; it is re-added to form
    the single-path observation, then each round takes a Newton step in w
    followed by a least-squares gain re-fit.  A step is committed only when
    the curvature is positive and the fit error does not grow; the first
    rejected step ends the refinement.  ``steer`` is a_S(w).  Returns the
    updated (gain, w, steer) and the residual with the refined path removed
    again; an accepted trial's residual and energy are carried into the
    next round, which would recompute the same values.  A step lands on
    the steering period [-1/(2d), 1/(2d)) of element spacing ``spacing``.
    """
    period = 1.0 / spacing
    path = root_n * gain * steer
    observation = residual + path
    resid = observation - path
    value = float(np.vdot(resid, resid).real)
    for _ in range(rounds):
        d1, d2 = _derivatives(resid, gain, steer, pos, root_n)
        if d2 <= 0.0:
            break
        w_new = float((w - d1 / d2 + 0.5 * period) % period - 0.5 * period)
        steer_new = _steer(pos, w_new, root_n)
        norm_sq = float(np.vdot(steer_new, steer_new).real)
        gain_new = complex(
            np.vdot(steer_new, observation) / (root_n * norm_sq)
        )
        trial = observation - root_n * gain_new * steer_new
        trial_value = float(np.vdot(trial, trial).real)
        if trial_value > value:
            break
        gain, w, steer, resid, value = (
            gain_new, w_new, steer_new, trial, trial_value
        )
    return gain, w, steer, resid
