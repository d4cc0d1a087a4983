"""Downlink precoding, per-realization SE, and the NMSE metric.

Precoders are column-normalized so every user's beam carries equal power;
the noise then enters the SINR as 1/rho_d.  Ergodic averages live in the
harness, which pairs each trial's precoder with the same trial's true
channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _gram_inverse


@dataclass(frozen=True)
class Precoder:
    """M x K precoding matrix with unit-norm columns."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", w)
        if w.ndim != 2:
            raise ValueError("precoder must be an M x K matrix")
        norms = np.linalg.norm(w, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("precoder columns must be unit norm")


def mrt_precoder(channel_est: np.ndarray) -> Precoder:
    """Match each beam to its user: w_k = h_k^H / ||h_k||."""
    h = _downlink_data(channel_est)
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms == 0):
        raise ValueError("MRT undefined for a zero channel row")
    return Precoder((h.conj() / norms[:, None]).T)


def zf_precoder(channel_est: np.ndarray) -> Precoder:
    """Null inter-user leakage: columns of H^H (H H^H)^-1, normalized.

    An exactly singular Gram matrix (two users' estimates collinear, as
    when both are rebuilt from the same single on-grid path) takes the
    pseudo-inverse: such users cannot be separated, and they share a beam.
    """
    h = _downlink_data(channel_est)
    if np.any(np.linalg.norm(h, axis=1) == 0):
        raise ValueError("ZF undefined for a zero channel row")
    raw = h.conj().T @ _gram_inverse(h @ h.conj().T)
    norms = np.linalg.norm(raw, axis=0)
    if np.any(norms == 0):
        raise ValueError("ZF produced a zero beam; channel is degenerate")
    return Precoder(raw / norms[None, :])


def downlink_sinr(
    channel_true: np.ndarray,
    precoder: Precoder,
    power: float,
) -> np.ndarray:
    """Per-user SINR |h_k w_k|^2 / (sum_{i!=k} |h_k w_i|^2 + 1/rho_d)."""
    if np.ndim(power) != 0:
        raise ValueError("downlink power must be a scalar")
    if not 0.0 < power < np.inf:
        raise ValueError("downlink power must be positive and finite")
    h = _downlink_data(channel_true)
    cross = np.abs(h @ precoder.matrix) ** 2  # [k, i] = |h_k w_i|^2
    signal = np.diag(cross)
    interference = cross.sum(axis=1) - signal
    return signal / (interference + 1.0 / power)


def downlink_se(
    channel_true: np.ndarray,
    precoder: Precoder,
    power: float,
) -> tuple[np.ndarray, float]:
    """One realization's per-user rates and their sum (system SE)."""
    rates = np.log2(1.0 + downlink_sinr(channel_true, precoder, power))
    return rates, float(rates.sum())


def nmse(h_est: np.ndarray, h_true: np.ndarray) -> float:
    """Normalized squared error ||h_est - h_true||^2 / ||h_true||^2."""
    truth = np.asarray(h_true, dtype=complex)
    err = np.asarray(h_est, dtype=complex) - truth
    denom = float(np.vdot(truth, truth).real)
    if denom == 0.0:
        raise ValueError("NMSE undefined for a zero truth vector")
    return float(np.vdot(err, err).real / denom)


def nmse_db(h_est: np.ndarray, h_true: np.ndarray) -> float:
    """NMSE in decibels, 10*log10 of the ratio."""
    return float(10.0 * np.log10(nmse(h_est, h_true)))


def _downlink_data(channels: np.ndarray) -> np.ndarray:
    """One K x M channel matrix; a 1-D row is one user's, 1 x M."""
    arr = np.asarray(channels, dtype=complex)
    arr = arr[None, :] if arr.ndim == 1 else arr
    if arr.ndim != 2:
        raise ValueError("expected one K x M channel matrix, not a stack")
    return arr
