"""Parametric multipath channel model for a ULA base station.

Each user's channel is a sum of P plane-wave paths with i.i.d. complex
Gaussian gains.  The downlink sees all M elements; the uplink sees the N
selected elements of the same array, so the two directions share path
parameters and differ only in which elements they sample:

    uplink[n]  = sqrt(1/P) * sum_i g_i * exp(-j*2*pi*(d/l)*(a_n - 1)*w_i)
    downlink[m] = sqrt(1/P) * sum_i g_i * exp(-j*2*pi*(d/l)*(m - 1)*w_i)

so the downlink restricted to the selected elements equals the uplink
vector exactly.  Spatial frequency w = sin(theta) is the working domain.
``_phase_slope`` is the one place that maps an element to its phase slope
-j*2*pi*(d/l)*(a - 1); every steering vector of this module, and the
transfer's Newton algebra, read it from there.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .arrays import AntennaSelection

# Gram condition number above which zero forcing takes the shared-beam
# rule: six decades above any Gram the bundled recipes build, and far below
# the 1e16 at which inv starts to fail or not by rounding.  The rule's
# pseudo-inverse drops eigenvalues below 1/_MAX_CONDITION of the largest.
_MAX_CONDITION = 1e8


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
    K x M (one row per user).  Leading axes, if any, index a stack of such
    matrices.  The tag exists so that transfer/precoding code cannot
    silently mix the two layouts.
    """

    data: np.ndarray
    orientation: str

    def __post_init__(self) -> None:
        d = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", d)
        if d.ndim < 2:
            raise ValueError("channel matrix must be at least 2-D")
        if self.orientation not in ("uplink", "downlink"):
            raise ValueError("orientation must be 'uplink' or 'downlink'")

    @property
    def num_users(self) -> int:
        return self.data.shape[-1 if self.orientation == "uplink" else -2]


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


def _phase_slope(geometry: ArrayGeometry, elements: np.ndarray) -> np.ndarray:
    """-j*2*pi*(d/l)*(a - 1) of each 1-based element index a: the phase of
    its steering entry per unit of spatial frequency, which repeats in w
    with period 1/d."""
    return -2j * np.pi * geometry.spacing * (np.asarray(elements) - 1)


def steering_downlink(
    geometry: ArrayGeometry, w: float | np.ndarray
) -> np.ndarray:
    """Unit-norm M-element steering vector at spatial frequency w.

    A 1-D array of P frequencies gives the M x P matrix of their vectors,
    column for column the same numbers as one call per frequency; a K x P
    array gives M x K x P.
    """
    slopes = _phase_slope(geometry, np.arange(1, geometry.num_transmit + 1))
    return (np.exp(np.multiply.outer(slopes, w))
            / np.sqrt(geometry.num_transmit))


def steering_uplink(
    selection: AntennaSelection,
    geometry: ArrayGeometry,
    w: float | np.ndarray,
) -> np.ndarray:
    """Unit-norm N-element steering vector of the selected elements.

    Element n carries the phase of physical element a_n, i.e. exponent
    (a_n - 1), so it is exactly the downlink steering vector sampled at the
    selection (up to the sqrt(M/N) renormalization).  An array of
    frequencies adds its axes after the element axis, as in
    ``steering_downlink``.
    """
    slopes = _phase_slope(geometry, selection.indices)
    return np.exp(np.multiply.outer(slopes, w)) / np.sqrt(selection.num_receive)


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
    vecs = steering_uplink(selection, geometry, paths.spatial_freqs)
    return scale * (vecs @ paths.gains)


def downlink_channel(paths: PathSet, geometry: ArrayGeometry) -> np.ndarray:
    """M-element downlink channel sqrt(M/P) * sum_i g_i * a_D(w_i)."""
    scale = np.sqrt(geometry.num_transmit / paths.count)
    vecs = steering_downlink(geometry, paths.spatial_freqs)
    return scale * (vecs @ paths.gains)


def user_channels(
    path_sets: Sequence[Sequence[PathSet]],
    selections: Sequence[AntennaSelection],
    geometry: ArrayGeometry,
    downlink: bool = True,
) -> tuple[ChannelMatrix, ChannelMatrix | None]:
    """Stack the per-user channels of T trials: uplink T x N x K, downlink
    T x K x M.

    ``path_sets[t]`` holds trial t's users and ``selections[t]`` its
    selection; every user must have equally many paths, and every selection
    equally many elements.  The trials share one steering call per
    direction and one stacked product with their gains, so slice t holds,
    column for column, the same numbers as ``uplink_channel`` and
    ``downlink_channel`` of trial t.  With ``downlink=False`` the
    M-element channel is not built and ``None`` takes its place; the uplink
    is the same.
    """
    counts = {p.count for users in path_sets for p in users}
    if len(counts) != 1:
        raise ValueError("every user must have the same number of paths")
    (count,) = counts
    freqs = np.array([[p.spatial_freqs for p in users] for users in path_sets])
    gains = np.array([[p.gains for p in users] for users in path_sets])

    def combine(vecs: np.ndarray, size: int) -> np.ndarray:
        # (T, elements, K, P) steering stack -> T x K x elements channels
        product = vecs.swapaxes(-3, -2) @ gains[..., None]
        return np.sqrt(size / count) * product[..., 0]

    # steering_uplink of each trial's own selection, T x N x K x P
    slopes = _phase_slope(geometry, np.stack([s.indices for s in selections]))
    n = slopes.shape[-1]
    vecs = np.exp(slopes[..., None, None] * freqs[:, None]) / np.sqrt(n)
    up = combine(vecs, n)
    down = None
    if downlink:
        vecs = np.moveaxis(steering_downlink(geometry, freqs), 0, 1)
        down = ChannelMatrix(combine(vecs, geometry.num_transmit), "downlink")
    # T x N x K in C order, the layout of the per-user columns stacked, so
    # that later BLAS products see the memory order the frozen CSVs were
    # made with
    return ChannelMatrix(np.ascontiguousarray(up.swapaxes(-1, -2)),
                         "uplink"), down


def _gram_inverse(gram: np.ndarray) -> np.ndarray:
    """Inverse of a K x K Gram matrix, or of each one in a stack.

    A singular or near-singular Gram (two users' channels collinear, or
    nearly) takes the Hermitian pseudo-inverse, the zero-forcing rule of
    both links: then pinv(A^H A) A^H = pinv(A), and such users share one
    beam.  Near-singular means a 1-norm condition number above
    ``_MAX_CONDITION``, read from the inverse ``inv`` returned, so the rule
    does not hang on whether rounding makes ``inv`` fail.  In a stack only
    those slices take it, so every slice equals its own call.
    """
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        if gram.ndim > 2:
            return np.stack([_gram_inverse(g) for g in gram])
        return np.linalg.pinv(gram, rcond=1.0 / _MAX_CONDITION,
                              hermitian=True)
    condition = (np.linalg.norm(gram, 1, axis=(-2, -1))
                 * np.linalg.norm(inverse, 1, axis=(-2, -1)))
    ill = condition > _MAX_CONDITION
    if np.any(ill):
        inverse[ill] = np.linalg.pinv(gram[ill], rcond=1.0 / _MAX_CONDITION,
                                      hermitian=True)
    return inverse
