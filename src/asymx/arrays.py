"""Antenna selection schemes and receive-aperture diagnostics.

A base station drives all M elements of a uniform linear array on transmit
but connects only N < M of them to receive chains.  The three selection
schemes trade main-lobe width against side/grating lobes:

* successive - the first N elements; narrow aperture, resolution 2/N.
* comb       - every (M/N)-th element; full aperture but periodic, so
               grating lobes replicate the main lobe.
* random     - N elements drawn without replacement; full aperture (in
               expectation) with smeared, non-periodic side lobes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SELECTION_KINDS = ("successive", "comb", "random")


@dataclass(frozen=True)
class AntennaSelection:
    """Subset of transmit-array elements wired to receive chains.

    Attributes
    ----------
    indices : np.ndarray
        1-based element indices, strictly increasing, within [1, M].
    num_transmit : int
        Total transmit elements M.
    kind : str
        One of ``successive``, ``comb``, ``random``.
    """

    indices: np.ndarray
    num_transmit: int
    kind: str = "random"

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("selection needs a non-empty 1-D index list")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("selection indices must be strictly increasing")
        if idx[0] < 1 or idx[-1] > self.num_transmit:
            raise ValueError(
                f"selection indices must lie in [1, {self.num_transmit}]"
            )
        if self.kind not in SELECTION_KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")

    @property
    def num_receive(self) -> int:
        return int(self.indices.size)

    @property
    def span(self) -> int:
        """Occupied aperture in elements, max(indices) - min(indices) + 1."""
        return int(self.indices[-1] - self.indices[0] + 1)


def select_successive(num_transmit: int, num_receive: int) -> AntennaSelection:
    """First ``num_receive`` elements: indices {1, ..., N}."""
    _check_counts(num_transmit, num_receive)
    return AntennaSelection(
        np.arange(1, num_receive + 1), num_transmit, "successive"
    )


def select_comb(num_transmit: int, num_receive: int) -> AntennaSelection:
    """Every (M/N)-th element starting at 1; requires N | M."""
    _check_counts(num_transmit, num_receive)
    if num_transmit % num_receive:
        raise ValueError("comb selection requires num_receive | num_transmit")
    stride = num_transmit // num_receive
    return AntennaSelection(
        1 + stride * np.arange(num_receive), num_transmit, "comb"
    )


def select_random(
    num_transmit: int,
    num_receive: int,
    rng: np.random.Generator,
    pinned: bool = False,
) -> AntennaSelection:
    """Uniform draw of N distinct elements.

    With ``pinned`` the first and last elements are always included so the
    realized aperture spans the full array.
    """
    _check_counts(num_transmit, num_receive)
    if pinned:
        if num_receive < 2:
            raise ValueError("pinned random selection needs num_receive >= 2")
        inner = rng.choice(
            np.arange(2, num_transmit), size=num_receive - 2, replace=False
        )
        idx = np.concatenate(([1], inner, [num_transmit]))
    else:
        idx = rng.choice(
            np.arange(1, num_transmit + 1), size=num_receive, replace=False
        )
    return AntennaSelection(np.sort(idx), num_transmit, "random")


def array_factor(
    selection: AntennaSelection,
    w_grid: np.ndarray,
    spacing: float = 0.5,
) -> np.ndarray:
    """Broadside-combiner response magnitude of the selected elements.

    AF(w) = |sum_n exp(+j*2*pi*(d/lambda)*(a_n - 1)*w)| over spatial
    frequency w = sin(theta).  Peak value is N at w = 0; the comb selection
    repeats that peak at grating lobes w = +/- k/(stride*spacing).
    """
    w = np.atleast_1d(np.asarray(w_grid, dtype=float))
    # not channel._phase_slope: its operand order rounds differently and
    # moves 4 magnitude_db cells of beam_pattern.cfg
    phase = 2.0 * np.pi * spacing * np.outer(selection.indices - 1, w)
    return np.abs(np.exp(1j * phase).sum(axis=0))


def angular_resolution(kind: str, num_transmit: int, num_receive: int) -> float:
    """Spatial-frequency width below which two paths merge.

    The successive aperture spans only N elements, so it resolves 2/N; comb
    and random selections span the full array and resolve 2/M, the same as
    the transmit side.
    """
    if kind == "successive":
        return 2.0 / num_receive
    if kind in ("comb", "random"):
        return 2.0 / num_transmit
    raise ValueError(f"unknown selection kind {kind!r}")


def _check_counts(num_transmit: int, num_receive: int) -> None:
    if num_transmit < 1 or num_receive < 1:
        raise ValueError("antenna counts must be positive")
    if num_receive > num_transmit:
        raise ValueError("num_receive cannot exceed num_transmit")
