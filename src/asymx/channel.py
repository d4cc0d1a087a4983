"""Parametric multipath channel model for a ULA base station.

Each user's channel is a sum of P plane-wave paths with i.i.d. complex
Gaussian gains.  The downlink sees all M elements; the uplink sees the N
selected elements of the same array, so the two directions share path
parameters and differ only in which elements they sample:

    uplink[n]  = sqrt(1/P) * sum_i g_i * exp(-j*2*pi*(d/l)*(a_n - 1)*w_i)
    downlink[m] = sqrt(1/P) * sum_i g_i * exp(-j*2*pi*(d/l)*(m - 1)*w_i)

so the downlink restricted to the selected elements equals the uplink
vector exactly.  Spatial frequency w = sin(theta) is the working domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AntennaSelection


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit ULA description: element count and spacing in wavelengths."""

    num_transmit: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        if self.num_transmit < 1:
            raise ValueError("num_transmit must be positive")
        if not 0.0 < self.spacing:
            raise ValueError("element spacing must be positive")


@dataclass(frozen=True)
class PathSet:
    """Plane-wave path parameters for one user."""

    gains: np.ndarray
    angles_rad: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=complex)
        a = np.asarray(self.angles_rad, dtype=float)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "angles_rad", a)
        if g.ndim != 1 or a.shape != g.shape or g.size == 0:
            raise ValueError("gains and angles must be matching 1-D arrays")

    @property
    def count(self) -> int:
        return int(self.gains.size)

    @property
    def spatial_freqs(self) -> np.ndarray:
        return np.sin(self.angles_rad)


@dataclass(frozen=True)
class ChannelMatrix:
    """Multi-user channel with an explicit orientation tag.

    ``uplink`` data is N x K (one column per user); ``downlink`` data is
    K x M (one row per user).  The tag exists so that transfer/precoding
    code cannot silently mix the two layouts.
    """

    data: np.ndarray
    orientation: str

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", d)
        if d.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        if self.orientation not in ("uplink", "downlink"):
            raise ValueError("orientation must be 'uplink' or 'downlink'")

    @property
    def num_users(self) -> int:
        return self.data.shape[1 if self.orientation == "uplink" else 0]


def draw_path_set(
    num_paths: int,
    angle_low: float,
    angle_high: float,
    rng: np.random.Generator,
    powers: np.ndarray | None = None,
) -> PathSet:
    """Draw P paths: angles uniform on [low, high], gains CN(0, 1).

    ``powers`` optionally reallocates the average energy across paths
    (fractions summing to 1, e.g. (0.9, 0.1) for a dominant line of
    sight); gain i is scaled so path i carries fraction powers[i] of the
    unchanged total average energy.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be positive")
    if not angle_low <= angle_high:
        raise ValueError("need angle_low <= angle_high")
    angles = rng.uniform(angle_low, angle_high, size=num_paths)
    gains = (
        rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)
    ) / np.sqrt(2.0)
    if powers is not None:
        powers = np.asarray(powers, dtype=float)
        if powers.shape != (num_paths,):
            raise ValueError("powers must provide one fraction per path")
        if np.any(powers < 0) or not np.isclose(powers.sum(), 1.0):
            raise ValueError("powers must be non-negative and sum to 1")
        gains = gains * np.sqrt(num_paths * powers)
    return PathSet(gains, angles)


def steering_downlink(
    geometry: ArrayGeometry, w: float | np.ndarray
) -> np.ndarray:
    """Unit-norm M-element steering vector at spatial frequency w.

    A 1-D array of P frequencies gives the M x P matrix of their vectors,
    column for column the same numbers as one call per frequency.
    """
    m = np.arange(geometry.num_transmit)
    phase = np.multiply.outer(-2j * np.pi * geometry.spacing * m, w)
    return np.exp(phase) / np.sqrt(geometry.num_transmit)


def steering_uplink(
    selection: AntennaSelection, geometry: ArrayGeometry, w: float
) -> np.ndarray:
    """Unit-norm N-element steering vector of the selected elements.

    Element n carries the phase of physical element a_n, i.e. exponent
    (a_n - 1), so it is exactly the downlink steering vector sampled at the
    selection (up to the sqrt(M/N) renormalization).
    """
    phase = -2j * np.pi * geometry.spacing * (selection.indices - 1) * w
    return np.exp(phase) / np.sqrt(selection.num_receive)


def steering_masked(
    selection: AntennaSelection, geometry: ArrayGeometry, w: float
) -> np.ndarray:
    """M-vector equal to steering_uplink on the selection, zero elsewhere."""
    out = np.zeros(geometry.num_transmit, dtype=complex)
    out[selection.indices - 1] = steering_uplink(selection, geometry, w)
    return out


def uplink_channel(
    paths: PathSet, selection: AntennaSelection, geometry: ArrayGeometry
) -> np.ndarray:
    """N-element uplink channel sqrt(N/P) * sum_i g_i * a_U(w_i)."""
    n = selection.num_receive
    scale = np.sqrt(n / paths.count)
    vecs = np.stack(
        [steering_uplink(selection, geometry, w) for w in paths.spatial_freqs],
        axis=1,
    )
    return scale * (vecs @ paths.gains)


def downlink_channel(paths: PathSet, geometry: ArrayGeometry) -> np.ndarray:
    """M-element downlink channel sqrt(M/P) * sum_i g_i * a_D(w_i)."""
    scale = np.sqrt(geometry.num_transmit / paths.count)
    vecs = steering_downlink(geometry, paths.spatial_freqs)
    return scale * (vecs @ paths.gains)


def user_channels(
    path_sets: list[PathSet],
    selection: AntennaSelection,
    geometry: ArrayGeometry,
) -> tuple[ChannelMatrix, ChannelMatrix]:
    """Stack per-user channels into (uplink N x K, downlink K x M)."""
    up = np.stack(
        [uplink_channel(p, selection, geometry) for p in path_sets], axis=1
    )
    down = np.stack(
        [downlink_channel(p, geometry) for p in path_sets], axis=0
    )
    return ChannelMatrix(up, "uplink"), ChannelMatrix(down, "downlink")
