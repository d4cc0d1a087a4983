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
transfer's Newton algebra, read it from there.  The spacing d/l is
``arrays.SPACING``; the element count M is the selection's
``num_transmit``, or, for the downlink alone, a plain ``num_transmit``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arrays import SPACING, AntennaSelection, _is_count

# Gram condition number above which zero forcing takes the shared-beam
# rule: six decades above any Gram the bundled recipes build, and far below
# the 1e16 at which inv starts to fail or not by rounding.  The rule's
# pseudo-inverse drops eigenvalues below 1/_MAX_CONDITION of the largest.
_MAX_CONDITION = 1e8


@dataclass(frozen=True)
class PathSet:
    """Plane-wave path parameters of one user, or of a stack of users.

    The path axis is last; leading axes, such as (trials, users), index
    the users of a stack, and every user of a stack has the same number of
    paths.  Gains and angles must be finite: a NaN or infinite entry would
    make every element of the channel NaN.
    """

    gains: np.ndarray
    angles_rad: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=complex)
        a = np.asarray(self.angles_rad, dtype=float)
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "angles_rad", a)
        if g.ndim == 0 or a.shape != g.shape or g.size == 0:
            raise ValueError("gains and angles must be matching non-empty "
                             "arrays with the path axis last")
        if not np.all(np.isfinite(g)):
            raise ValueError("path gains must be finite")
        if not np.all(np.isfinite(a)):
            raise ValueError("path angles must be finite")

    @property
    def count(self) -> int:
        """Paths per user: the size of the last axis."""
        return self.gains.shape[-1]

    @cached_property
    def spatial_freqs(self) -> np.ndarray:
        return np.sin(self.angles_rad)


def draw_path_set(
    num_paths: int,
    angle_low: float,
    angle_high: float,
    rng: np.random.Generator | Sequence | np.ndarray,
    powers: Sequence[float] | np.ndarray | None = None,
) -> PathSet:
    """Draw P paths: angles uniform on [low, high], gains CN(0, 1).

    ``rng`` is one generator, which gives one user's 1-D ``PathSet``, or an
    array-like of generators, whose shape leads the stack's shape.  Each
    generator draws P uniforms and then 2P standard normals (the real parts
    of the gains, then the imaginary parts), so every row holds the bits of
    its own one-generator call and leaves its generator in the same state.

    ``powers`` optionally reallocates the average energy across paths
    (fractions summing to 1, e.g. (0.9, 0.1) for a dominant line of
    sight); gain i is scaled so path i carries fraction powers[i] of the
    unchanged total average energy.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be positive")
    if not (np.isfinite(angle_low) and np.isfinite(angle_high)):
        raise ValueError("angle_low and angle_high must be finite")
    if not angle_low <= angle_high:
        raise ValueError("need angle_low <= angle_high")
    if powers is not None:
        powers = np.asarray(powers, dtype=float)
        if powers.shape != (num_paths,):
            raise ValueError("powers must provide one fraction per path")
        if np.any(powers < 0) or not np.isclose(powers.sum(), 1.0):
            raise ValueError("powers must be non-negative and sum to 1")
    rngs = np.asarray(rng, dtype=object)
    angles = np.empty(rngs.shape + (num_paths,))
    normals = np.empty(rngs.shape + (2, num_paths))
    for gen, uniform, normal in zip(rngs.flat,
                                    angles.reshape(-1, num_paths),
                                    normals.reshape(-1, 2 * num_paths)):
        gen.random(out=uniform)
        gen.standard_normal(out=normal)
    # low + (high - low) * u, the arithmetic of Generator.uniform
    angles *= angle_high - angle_low
    angles += angle_low
    gains = (normals[..., 0, :] + 1j * normals[..., 1, :]) / np.sqrt(2.0)
    if powers is not None:
        gains *= np.sqrt(num_paths * powers)
    return PathSet(gains, angles)


def _phase_slope(elements: np.ndarray) -> np.ndarray:
    """-j*2*pi*(d/l)*(a - 1) of each 1-based element index a: the phase of
    its steering entry per unit of spatial frequency, which repeats in w
    with period 1/d."""
    return -2j * np.pi * SPACING * (np.asarray(elements) - 1)


def steering_downlink(num_transmit: int, w: float | np.ndarray) -> np.ndarray:
    """Unit-norm M-element steering vector at spatial frequency w.

    A 1-D array of P frequencies gives the M x P matrix of their vectors,
    column for column the same numbers as one call per frequency; a K x P
    array gives M x K x P.
    """
    if not (_is_count(num_transmit) and num_transmit >= 1):
        raise ValueError("num_transmit must be a positive integer")
    return (np.exp(np.multiply.outer(_downlink_slopes(num_transmit), w))
            / np.sqrt(num_transmit))


@lru_cache(maxsize=8)
def _downlink_slopes(num_transmit: int) -> np.ndarray:
    """Read-only phase slopes of all M elements, built once per M."""
    slopes = _phase_slope(np.arange(1, num_transmit + 1))
    slopes.flags.writeable = False
    return slopes


def steering_uplink(selection: AntennaSelection, w: float | np.ndarray
                    ) -> np.ndarray:
    """Unit-norm N-element steering vector of the selected elements.

    Element n carries the phase of physical element a_n, i.e. exponent
    (a_n - 1), so it is exactly the downlink steering vector sampled at the
    selection (up to the sqrt(M/N) renormalization).  An array of
    frequencies adds its axes after the element axis, as in
    ``steering_downlink``.
    """
    slopes = _phase_slope(selection.indices)
    return np.exp(np.multiply.outer(slopes, w)) / np.sqrt(selection.num_receive)


def steering_masked(selection: AntennaSelection, w: float) -> np.ndarray:
    """M-vector equal to steering_uplink on the selection, zero elsewhere."""
    out = np.zeros(selection.num_transmit, dtype=complex)
    out[selection.indices - 1] = steering_uplink(selection, w)
    return out


def _require_one_user(paths: PathSet) -> None:
    if paths.gains.ndim != 1:
        raise ValueError("uplink_channel and downlink_channel take one "
                         "user's 1-D PathSet; pass a stack to user_channels")


def uplink_channel(paths: PathSet, selection: AntennaSelection) -> np.ndarray:
    """N-element uplink channel sqrt(N/P) * sum_i g_i * a_U(w_i)."""
    _require_one_user(paths)
    n = selection.num_receive
    scale = np.sqrt(n / paths.count)
    vecs = steering_uplink(selection, paths.spatial_freqs)
    return scale * (vecs @ paths.gains)


def downlink_channel(paths: PathSet, num_transmit: int) -> np.ndarray:
    """M-element downlink channel sqrt(M/P) * sum_i g_i * a_D(w_i)."""
    _require_one_user(paths)
    vecs = steering_downlink(num_transmit, paths.spatial_freqs)
    scale = np.sqrt(num_transmit / paths.count)
    return scale * (vecs @ paths.gains)


def user_channels(
    paths: PathSet,
    selections: Sequence[AntennaSelection],
    downlink: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack the per-user channels of T trials: uplink T x N x K, downlink
    T x K x M.

    ``paths`` is a T x K x P stack, trial t's users in row t, and
    ``selections[t]`` is trial t's selection; all selections must share
    one M and one N.  The trials share one steering call per
    direction and one stacked product with their gains, so slice t holds,
    column for column, the same numbers as ``uplink_channel`` and
    ``downlink_channel`` of trial t.  With ``downlink=False`` the
    M-element channel is not built and ``None`` takes its place; the uplink
    is the same.
    """
    if paths.gains.ndim != 3:
        raise ValueError("user_channels takes a trials x users x paths "
                         "PathSet")
    if len(selections) != len(paths.gains):
        raise ValueError(f"user_channels got {len(selections)} selections "
                         f"for {len(paths.gains)} trials")
    for count in ("num_transmit", "num_receive"):
        values = sorted({getattr(s, count) for s in selections})
        if len(values) > 1:
            raise ValueError(f"user_channels needs one {count} for all "
                             f"selections, got {values}")
    m = selections[0].num_transmit
    freqs, gains = paths.spatial_freqs, paths.gains

    def combine(vecs: np.ndarray, size: int) -> np.ndarray:
        # (T, elements, K, P) steering stack -> T x K x elements channels
        product = vecs.swapaxes(-3, -2) @ gains[..., None]
        return np.sqrt(size / paths.count) * product[..., 0]

    # steering_uplink of each trial's own selection, T x N x K x P
    slopes = _phase_slope(np.stack([s.indices for s in selections]))
    n = slopes.shape[-1]
    vecs = np.exp(slopes[..., None, None] * freqs[:, None]) / np.sqrt(n)
    up = combine(vecs, n)
    down = None
    if downlink:
        vecs = np.moveaxis(steering_downlink(m, freqs), 0, 1)
        down = combine(vecs, m)
    # T x N x K in C order, the layout of the per-user columns stacked, so
    # that later BLAS products see the memory order the frozen CSVs were
    # made with
    return np.ascontiguousarray(up.swapaxes(-1, -2)), down


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
