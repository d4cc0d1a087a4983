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

Both work on N-element vectors.  Selected element a_n carries the phase
slope p_n = -j*2*pi*(d/lambda)*(a_n - 1), which ``asymx.channel`` owns.
mNOMP works with the unnormalised steering e_n(w) = exp(p_n * w), of unit
modulus: a path of gain g contributes g * e(w) = sqrt(N) g a_S(w), each
w-derivative multiplies e by p, and the Newton curvature needs only the
per-call sum of |p_n|^2, so the algebra needs no other element.  Only
``spatial_matched_filter`` scatters an N-vector onto the M-element aperture:
one zero-padded FFT scores every oversampled bin.  The entries repeat in w
with period 1/d, so bins and Newton steps land on [-1/(2d), 1/(2d)), which
is [-1, 1) at half-wavelength spacing.

Both stop against the same energy threshold N/rho_tau: the expected noise
energy left in an N-element LS estimate.  Both refuse an estimate whose
energy is not finite, as a NaN or inf entry leaves no path to find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import AntennaSelection, _is_count
from .channel import ArrayGeometry, _phase_slope, steering_downlink
# Unused here, but benchmarks/tracer.py wraps asymx.transfer.steering_masked.
from .channel import steering_masked  # noqa: F401

# Spatial-spectrum oversampling of each algorithm, by its recipe name; the
# keys are the algorithms a config may name.
_OVERSAMPLING = {"dft": 8, "mnomp": 4}


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
        for name in ("oversampling", "newton_rounds", "cyclic_rounds",
                     "max_paths"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.oversampling < 1:
            raise ValueError("oversampling factor must be >= 1")
        if not 0.0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if self.newton_rounds < 0 or self.cyclic_rounds < 0:
            raise ValueError("refinement rounds must be non-negative")
        if self.max_paths < 1:
            raise ValueError("max_paths must be positive")
        if not 0.0 <= self.regularizer < math.inf:
            raise ValueError("regularizer must be non-negative and finite")


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
    if not 0.0 < pilot_power < math.inf:
        raise ValueError("pilot power must be positive and finite")
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
    w = b/(d*size), wrapped onto [-1/(2d), 1/(2d)).

    One expression serves a Python int (mNOMP's one bin, a float back) and
    an index array (DFT's kept bins); subtracting 0.0 leaves w unchanged.
    """
    period = 1.0 / spacing
    w = period * bins / size
    return w - period * (w >= 0.5 * period)


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
    energy = float(np.vdot(h_up, h_up).real)
    if not math.isfinite(energy):
        raise ValueError("uplink estimate must be finite")
    num_receive = selection.num_receive
    scores = spatial_matched_filter(h_up, selection, config.oversampling)
    peak_bins = find_peaks(scores)

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
    freqs = bin_to_spatial_freq(np.asarray(kept), scores.size,
                                geometry.spacing)
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

    A path of gain g at w contributes g * e(w), with the unnormalised
    steering e(w) = exp(p * w) = sqrt(N) a_S(w) and |e_n| = 1.
    """
    h_up = np.asarray(h_up_est, dtype=complex)
    pos = _phase_slope(geometry, selection.indices)
    slopes = np.stack((pos, pos * pos))
    slope_energy = float(np.vdot(pos, pos).real)
    period = 1.0 / geometry.spacing
    # the basis E has columns e(w_i), N times the Gram of the unit-norm
    # a_S(w_i), so (E^H E + N lambda I) g = E^H h is the ridge of a_S
    ridge = selection.num_receive * config.regularizer

    gains: list[complex] = []
    freqs: list[float] = []
    steers: list[np.ndarray] = []
    residual = h_up
    energy = float(np.vdot(residual, residual).real)
    if not math.isfinite(energy):
        raise ValueError("uplink estimate must be finite")
    while energy >= config.threshold and len(gains) < config.max_paths:
        scores = spatial_matched_filter(residual, selection,
                                        config.oversampling)
        best = int(np.argmax(np.abs(scores)))  # ties go to the lower bin
        w0 = bin_to_spatial_freq(best, scores.size, geometry.spacing)
        # scores live in the conjugate domain
        gain0 = complex(scores[best]).conjugate()
        steer0 = np.exp(pos * w0)
        residual = residual - gain0 * steer0
        gain, w, steer, residual = _refine(
            residual, gain0, w0, steer0, pos, slopes, slope_energy,
            config.newton_rounds, period,
        )
        gains.append(gain)
        freqs.append(w)
        steers.append(steer)

        for _ in range(config.cyclic_rounds):
            for i in range(len(gains)):
                gains[i], freqs[i], steers[i], residual = _refine(
                    residual, gains[i], freqs[i], steers[i], pos, slopes,
                    slope_energy, config.newton_rounds, period,
                )

        basis = np.stack(steers, axis=1)
        adjoint = basis.conj().T
        gram = adjoint @ basis + ridge * np.eye(len(gains))
        refit = np.linalg.solve(gram, adjoint @ h_up)
        gains = refit.tolist()
        residual = h_up - basis @ refit
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
        # bool(): an np.float64 threshold would make this an np.bool_
        truncated=bool(energy >= config.threshold),
    )


def _path_derivatives(
    resid: np.ndarray,
    gain: complex,
    steer: np.ndarray,
    slopes: np.ndarray,
    slope_energy: float,
) -> tuple[float, float]:
    """dJ/dw and d2J/dw2 of J(w) = ||y - g e(w)||^2, on N entries.

    ``resid`` is y - g e(w), ``steer`` is e(w) = exp(p * w), ``slopes`` the
    stack [p, p^2] and ``slope_energy`` sum |p_n|^2.  With s_k the
    correlation of the residual with p^k e, dJ/dw = -2 Re(g s_1) and
    d2J/dw2 = -2 Re(g s_2) + 2 |g|^2 sum |p_n|^2, as |e_n| = 1.  ``gain``
    is a Python complex; both come back as Python floats.
    """
    s1, s2 = np.vecdot(resid, slopes * steer).tolist()
    d1 = -2.0 * (gain * s1).real
    d2 = (-2.0 * (gain * s2).real
          + 2.0 * (gain.real * gain.real + gain.imag * gain.imag)
          * slope_energy)
    return d1, d2


def _refine(
    residual: np.ndarray,
    gain: complex,
    w: float,
    steer: np.ndarray,
    pos: np.ndarray,
    slopes: np.ndarray,
    slope_energy: float,
    rounds: int,
    period: float,
) -> tuple[complex, float, np.ndarray, np.ndarray]:
    """Refine one path against the data with all other paths removed.

    ``residual`` excludes this path's contribution g * e(w), ``steer`` is
    e(w) = exp(p * w) with p = ``pos``; the path is re-added to form the
    single-path observation y.  Each round takes a Newton step in w from
    ``_path_derivatives`` followed by the least-squares gain
    g' = vdot(e', y) / N, exact since |e'|^2 = N.  A step is committed only
    when the curvature is positive and the fit error does not grow; the
    first rejected step ends the refinement.  Returns the updated
    (gain, w, steer) and the residual with the refined path removed again.
    A step lands on the steering period [-P/2, P/2), P = ``period`` = 1/d.

    One round is 8 NumPy calls::

        s1, s2 = vecdot(r, [p, p^2] * e)          # 2
        d1 = -2 Re(g s1);  d2 = -2 Re(g s2) + 2 |g|^2 sum |p_n|^2
        stop if d2 <= 0
        w' = (w - d1 / d2 + P/2) % P - P/2
        e' = exp(p * w');  g' = vdot(e', y) / N   # 3
        r' = y - g' e';  stop if |r'|^2 > |r|^2   # 3

    The kernel fixture holds the result to the same greedy decisions and
    rtol 1e-9, not to the bits of any one grouping of these operations.
    """
    vdot = np.vdot
    half = 0.5 * period
    num_receive = steer.size
    observation = residual + gain * steer
    value = vdot(residual, residual).real
    for _ in range(rounds):
        d1, d2 = _path_derivatives(residual, gain, steer, slopes,
                                   slope_energy)
        if d2 <= 0.0:
            break
        w_new = (w - d1 / d2 + half) % period - half
        steer_new = np.exp(pos * w_new)
        gain_new = complex(vdot(steer_new, observation)) / num_receive
        trial = observation - gain_new * steer_new
        trial_value = vdot(trial, trial).real
        if trial_value > value:
            break
        gain, w, steer, residual, value = (
            gain_new, w_new, steer_new, trial, trial_value
        )
    return gain, w, steer, residual
