"""Downlink precoding, per-realization SE, and the NMSE metric.

Precoders are plain M x K arrays whose columns have unit norm, so every
user's beam carries equal power; the noise then enters the SINR as 1/rho_d.
Every function here also takes a stack: leading axes index slices, such as
the (trial, SNR) slices of one chunk, and each slice of a stacked call
holds the same numbers as its own one-slice call.  Ergodic averages live
in the harness, which pairs each slice's precoder with the same trial's
true channel.
"""

from __future__ import annotations

import numpy as np

from .channel import _gram_inverse


def mrt_precoder(channel_est: np.ndarray) -> np.ndarray:
    """Match each beam to its user: w_k = h_k^H / ||h_k||.

    A (..., K, M) estimate gives the (..., M, K) beams.
    """
    h = _downlink_data(channel_est)
    norms = np.linalg.norm(h, axis=-1)
    if np.any(norms == 0):
        raise ValueError("MRT undefined for a zero channel row")
    return (h.conj() / norms[..., None]).swapaxes(-1, -2)


def zf_precoder(channel_est: np.ndarray) -> np.ndarray:
    """Null inter-user leakage: columns of H^H (H H^H)^-1, normalized.

    A (..., K, M) estimate gives the (..., M, K) beams.  An exactly
    singular Gram matrix (two users' estimates collinear, as when both are
    rebuilt from the same single on-grid path) takes the pseudo-inverse:
    such users cannot be separated, and they share a beam.
    """
    h = _downlink_data(channel_est)
    if np.any(np.linalg.norm(h, axis=-1) == 0):
        raise ValueError("ZF undefined for a zero channel row")
    h_herm = h.conj().swapaxes(-1, -2)
    raw = h_herm @ _gram_inverse(h @ h_herm)
    norms = np.linalg.norm(raw, axis=-2)
    if np.any(norms == 0):
        raise ValueError("ZF produced a zero beam; channel is degenerate")
    return raw / norms[..., None, :]


def downlink_sinr(
    channel_true: np.ndarray,
    precoder: np.ndarray,
    power: float | np.ndarray,
) -> np.ndarray:
    """Per-user SINR |h_k w_k|^2 / (sum_{i!=k} |h_k w_i|^2 + 1/rho_d).

    ``power`` is one rho_d, or one per slice of a stacked channel.
    """
    h = _downlink_data(channel_true)
    power = np.asarray(power, dtype=float)
    if power.shape not in ((), h.shape[:-2]):
        raise ValueError("downlink power must be a scalar or one value "
                         "per channel slice")
    if not np.all((0.0 < power) & (power < np.inf)):
        raise ValueError("downlink power must be positive and finite")
    cross = np.abs(h @ precoder) ** 2  # [..., k, i] = |h_k w_i|^2
    signal = np.diagonal(cross, axis1=-2, axis2=-1)
    interference = cross.sum(axis=-1) - signal
    return signal / (interference + (1.0 / power)[..., None])


def downlink_se(
    channel_true: np.ndarray,
    precoder: np.ndarray,
    power: float | np.ndarray,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Per-user rates and their sum (system SE), per slice.

    One slice gives its K rates and a float; a stack gives (..., K) rates
    and the (...) array of system SEs.
    """
    rates = np.log2(1.0 + downlink_sinr(channel_true, precoder, power))
    system = rates.sum(axis=-1)
    return rates, float(system) if system.ndim == 0 else system


def nmse(h_est: np.ndarray, h_true: np.ndarray) -> float | np.ndarray:
    """Normalized squared error ||h_est - h_true||^2 / ||h_true||^2.

    The last axis is the vector's; leading axes, broadcast between the two
    arguments, give one ratio per vector.  Two 1-D vectors give a float.
    """
    truth = np.asarray(h_true, dtype=complex)
    err = np.asarray(h_est, dtype=complex) - truth
    denom = np.vecdot(truth, truth).real
    if np.any(denom == 0.0):
        raise ValueError("NMSE undefined for a zero truth vector")
    ratio = np.vecdot(err, err).real / denom
    return float(ratio) if ratio.ndim == 0 else ratio


def nmse_db(h_est: np.ndarray, h_true: np.ndarray) -> float:
    """NMSE of two vectors in decibels, 10*log10 of the ratio."""
    return float(10.0 * np.log10(nmse(h_est, h_true)))


def _downlink_data(channels: np.ndarray) -> np.ndarray:
    """(..., K, M) channel rows; a 1-D row is one user's, 1 x M."""
    arr = np.asarray(channels, dtype=complex)
    return arr[None, :] if arr.ndim == 1 else arr
