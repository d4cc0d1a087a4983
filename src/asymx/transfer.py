"""Uplink-to-downlink channel transfer.

The N-element uplink estimate and the M-element downlink channel share path
gains and angles, so the downlink can be reconstructed by estimating those
path parameters from the uplink estimate.  Two estimators are provided:

* ``dft_transfer``  - score the estimate on an oversampled DFT grid,
  keep descending peaks until the energy they leave unexplained falls under
  a noise threshold, and rebuild the downlink channel from the kept bins,
  whose steering vectors come from one cached table per grid.
* ``mnomp_transfer`` - Newtonized orthogonal matching pursuit (NOMP;
  Mamandipoor, Ramasamy and Madhow, IEEE TSP 2016): greedy single-path
  detection on the oversampled grid, Newton refinement of each path's
  spatial frequency, cyclic re-refinement of all paths, and a ridge
  least-squares gain re-fit per iteration, with one fixed ridge ``_RIDGE``.

Both work on N-element vectors of one ``AntennaSelection``, which also
gives the M of the rebuilt downlink.  Selected element a_n carries the
phase slope p_n = -j*2*pi*(d/lambda)*(a_n - 1), which ``asymx.channel``
owns.
mNOMP works with the unnormalised steering e_n(w) = exp(p_n * w), of unit
modulus: a path of gain g contributes g * e(w) = sqrt(N) g a_S(w), and each
w-derivative multiplies e by p.  A path is refined against its observation
y, the residual with this path added back, through the three correlations
u_k = sum_n conj(y_n) p_n^k e_n(w), k = 0, 1, 2: they give the
least-squares gain, the fit error and both w-derivatives of the fit error,
so a Newton round needs no residual.  While one path is held its
observation is h itself, so no residual is formed until the second path,
and the gain re-fit of one or two paths takes a closed form.  p,
[1, p, p^2] and the scatter offsets are built once per selection, not
once per call.  Only ``_matched_filter`` scatters an N-vector onto the
M-element aperture: one zero-padded FFT scores every oversampled bin.  The
entries repeat in w with period 1/d, so bins and Newton steps land on
[-1/(2d), 1/(2d)), which is [-1, 1) at the half-wavelength spacing
d = ``arrays.SPACING``.

Both stop against the same energy threshold N/rho_tau: the expected noise
energy left in an N-element LS estimate.  Both take their estimate through
``_checked_estimate``: an N-vector of the selection of finite energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrays import SPACING, AntennaSelection, _is_count
from .channel import _downlink_slopes, _phase_slope, steering_downlink
# Unused here, but benchmarks/tracer.py wraps asymx.transfer.steering_masked.
from .channel import steering_masked  # noqa: F401

# Spatial-spectrum oversampling of each algorithm, by its recipe name; the
# keys are the algorithms a config may name.
_OVERSAMPLING = {"dft": 8, "mnomp": 4}

# The steering period 1/d in spatial frequency: bins and Newton steps are
# wrapped onto [-_PERIOD/2, _PERIOD/2).
_PERIOD = 1.0 / SPACING

# mNOMP's gain re-fit ridge lambda on the unit-norm a_S (see ``_refit``)
_RIDGE = 1e-4

# Selections whose slope terms mNOMP keeps.  The harness transfers every
# user and SNR of one trial's selection in a row, so a handful suffices.
_SLOPE_CACHE_SIZE = 32

# DFT grids whose steering tables are kept, and the bins of one block of a
# table's build.  A run uses one grid per M, (128, 1024) for the bundled
# recipes: a 2 MB table, built through 64 kB temporaries.
_GRID_CACHE_SIZE = 4
_GRID_BLOCK = 32


@dataclass(frozen=True)
class TransferConfig:
    """Knobs shared by both transfer algorithms.

    ``oversampling`` is the DFT zoom factor (grid of M * oversampling bins);
    ``threshold`` the stopping energy; ``newton_rounds``/``cyclic_rounds``
    the per-path and whole-set refinement passes of the Newtonized variant.
    """

    oversampling: int
    threshold: float
    newton_rounds: int = 2
    cyclic_rounds: int = 2
    max_paths: int = 10

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


def _checked_estimate(h_up_est: np.ndarray, selection: AntennaSelection
                      ) -> tuple[np.ndarray, float]:
    """The estimate as a complex N-vector of the selection, and its energy;
    a wrong shape is refused first, then a NaN or inf entry, as it leaves
    no path to find."""
    h_up = np.asarray(h_up_est, dtype=complex)
    if h_up.shape != (selection.num_receive,):
        raise ValueError("estimate length must match the selection")
    energy = float(np.vdot(h_up, h_up).real)
    if not math.isfinite(energy):
        raise ValueError("uplink estimate must be finite")
    return h_up, energy


def _matched_filter(h: np.ndarray, offsets: np.ndarray, num_transmit: int,
                    oversampling: int) -> np.ndarray:
    """Per-bin path-gain scores (1/N) * F_{M*zeta} [conj(h) on the selection].

    Correlating the checked N-vector ``h`` with every steering candidate on
    the oversampled grid is one FFT of its conjugate scattered onto the
    0-based aperture ``offsets`` of the M-element array, zero elsewhere.  A
    path of gain g at an on-grid frequency scores conj(g) at its bin.
    """
    padded = np.zeros(num_transmit, dtype=complex)
    padded[offsets] = np.conj(h)
    return np.fft.fft(padded, n=num_transmit * oversampling) / h.size


def _bin_to_spatial_freq(bins: np.ndarray | int, size: int
                         ) -> np.ndarray | float:
    """Map FFT bin index b of a ``size``-point grid over one period to
    spatial frequency w = b/(d*size), wrapped onto [-1/(2d), 1/(2d)).

    One expression serves a Python int (each bin mNOMP detects, a float
    back) and an index array (DFT's whole grid), with the same bits per
    bin; subtracting 0.0 leaves w unchanged.
    """
    w = _PERIOD * bins / size
    return w - _PERIOD * (w >= 0.5 * _PERIOD)


def _strongest_peaks(scores: np.ndarray, energy: float, num_receive: int,
                     config: TransferConfig) -> tuple[list[int], float, bool]:
    """DFT's kept bins: circular local maxima of |scores|, strongest first.

    A bin is a peak when its magnitude is >= both circular neighbours (so a
    constant vector is all peaks).  The walk takes one ``argmax`` per kept
    peak over the magnitudes, with every non-peak and every peak already
    taken set to -1; ``argmax`` returns the first maximum, so ties in
    magnitude go to the lower bin.  It stops once the unexplained energy
    ``energy - explained`` falls to the threshold, where explained sums
    N |score|^2 over the kept bins, at ``max_paths``, or when no peak is
    left.  Returns (kept bins, explained, truncated): truncated is False
    only for the threshold stop.
    """
    mags = np.abs(scores)
    ring = np.concatenate((mags[-1:], mags, mags[:1]))
    mags[(mags < ring[:-2]) | (mags < ring[2:])] = -1.0
    explained = 0.0
    kept: list[int] = []
    while len(kept) < config.max_paths:
        bin_index = int(mags.argmax())
        if mags[bin_index] < 0.0:
            break
        mags[bin_index] = -1.0
        kept.append(bin_index)
        explained += num_receive * float(np.abs(scores[bin_index]) ** 2)
        if energy - explained <= config.threshold:
            return kept, explained, False
    return kept, explained, True


def dft_transfer(
    h_up_est: np.ndarray,
    selection: AntennaSelection,
    config: TransferConfig,
) -> TransferResult:
    """Rebuild the downlink channel from the strongest DFT peaks.

    Accumulates peaks in descending magnitude (``_strongest_peaks``) until
    the unexplained energy ||h||^2 - sum_i N |score_i|^2 drops to the
    threshold, then maps bins to spatial frequencies and sums steering
    vectors with the de-conjugated gains.  The subtraction treats the kept
    bins as orthogonal, which oversampled bins are not, so this stopping
    quantity (returned as ``residual_energy``) is not
    ||h - reconstruction||^2 and can be far below zero; it is the rule of
    the reproduced algorithm and is kept.

    The rebuild keeps ``steering_downlink`` and its two square-root scales
    as they are: where aliased comb paths cancel, the downlink's entries
    are rounding residue, and any other grouping of the scales moves them.
    Its frequencies and columns are gathered from the grid's tables
    (``_bin_steering``), so no call evaluates an exponential.  The basis
    is made C-contiguous, the layout of one built by ``steering_downlink``:
    a strided one sends the product down another BLAS path, which moves
    the downlink's bits.
    """
    h_up, energy = _checked_estimate(h_up_est, selection)
    scores = _matched_filter(h_up, selection.indices - 1,
                             selection.num_transmit, config.oversampling)
    kept, explained, truncated = _strongest_peaks(scores, energy,
                                                  selection.num_receive,
                                                  config)
    count = len(kept)
    gains = np.sqrt(count) * np.conj(scores[kept])
    grid, table = _bin_steering(selection.num_transmit, scores.size)
    freqs = grid[kept]
    basis = np.ascontiguousarray(table[:, kept])
    downlink = np.sqrt(selection.num_transmit / count) * (basis @ gains)
    return TransferResult(
        gains=gains,
        spatial_freqs=freqs,
        downlink_estimate=downlink,
        residual_energy=energy - explained,
        truncated=truncated,
    )


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _bin_steering(num_transmit: int, size: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (w, table) of a ``size``-point grid on M elements: the
    spatial frequency w_b of every bin b (``_bin_to_spatial_freq``), and
    the M x ``size`` table whose column b is ``steering_downlink(M, w_b)``.

    Both are built on the grid's first DFT call, the table ``_GRID_BLOCK``
    bins at a time, so the build holds the table and one block's
    temporaries, never a second table; each column holds the numbers of a
    call at its own frequency.
    """
    grid = _bin_to_spatial_freq(np.arange(size), size)
    table = np.empty((num_transmit, size), dtype=complex)
    for start in range(0, size, _GRID_BLOCK):
        stop = min(start + _GRID_BLOCK, size)
        table[:, start:stop] = steering_downlink(num_transmit,
                                                 grid[start:stop])
    grid.flags.writeable = False
    table.flags.writeable = False
    return grid, table


def mnomp_transfer(
    h_up_est: np.ndarray,
    selection: AntennaSelection,
    config: TransferConfig,
) -> TransferResult:
    """Newtonized greedy path recovery and downlink reconstruction.

    Per outer iteration: detect the strongest residual path on the grid,
    refine it (``newton_rounds`` steps), cyclically re-refine every path
    found so far (``cyclic_rounds`` passes), then re-fit all gains jointly
    with a ridge least squares and recompute the residual.  Stops when the
    residual energy falls below the threshold or max_paths is hit.

    The first path's observation is h itself, in its new-path refine and
    in every cyclic pass, so these run as one refine of
    ``newton_rounds * (1 + cyclic_rounds)`` rounds, and the first residual
    is the refit's.  That keeps every bit of the chained refines: each
    would restart from the rows, correlations and fit error the previous
    one ended on, and a step one rejected (or one stopped on by
    ``d2 <= 0``), the next would stop on again at once.

    A path of gain g at w contributes g * e(w), with the unnormalised
    steering e(w) = exp(p * w) = sqrt(N) a_S(w) and |e_n| = 1.  The
    downlink is the same sum over all M elements, exp(outer(P, w)) @ g with
    the M element slopes P.
    """
    h_up, energy = _checked_estimate(h_up_est, selection)
    offsets, pos, weights = _slope_terms(selection.indices.tobytes())
    rounds = config.newton_rounds
    held_rounds = rounds * (1 + config.cyclic_rounds)

    gains: list[complex] = []
    freqs: list[float] = []
    steers: list[np.ndarray] = []
    residual = h_up
    while energy >= config.threshold and len(gains) < config.max_paths:
        scores = _matched_filter(residual, offsets, selection.num_transmit,
                                 config.oversampling)
        best = int(np.abs(scores).argmax())  # ties go to the lower bin
        w0 = _bin_to_spatial_freq(best, scores.size)
        # scores live in the conjugate domain
        gain0 = complex(scores[best]).conjugate()
        # the residual before this path is taken out is its observation;
        # for the first path that is h itself, through its cyclic passes too
        gain, w, steer, _ = _refine(residual, gain0, w0, np.exp(pos * w0),
                                    pos, weights,
                                    rounds if gains else held_rounds)
        gains.append(gain)
        freqs.append(w)
        steers.append(steer)

        if len(gains) > 1:
            residual = residual - gain * steer
            for _ in range(config.cyclic_rounds):
                for i in range(len(gains)):
                    observation = residual + gains[i] * steers[i]
                    gains[i], freqs[i], steers[i], moved = _refine(
                        observation, gains[i], freqs[i], steers[i], pos,
                        weights, rounds,
                    )
                    if moved:
                        residual = observation - gains[i] * steers[i]

        gains, residual = _refit(steers, h_up)
        energy = float(np.vdot(residual, residual).real)

    freqs_arr = np.asarray(freqs, dtype=float)
    gains_arr = np.asarray(gains, dtype=complex)
    # g * e(w) on all M elements; no path found: an M x 0 basis times no
    # gains is the zero vector
    downlink = np.exp(np.multiply.outer(
        _downlink_slopes(selection.num_transmit), freqs_arr)) @ gains_arr
    return TransferResult(
        gains=gains_arr,
        spatial_freqs=freqs_arr,
        downlink_estimate=downlink,
        residual_energy=energy,
        # bool(): an np.float64 threshold would make this an np.bool_
        truncated=bool(energy >= config.threshold),
    )


@lru_cache(maxsize=_SLOPE_CACHE_SIZE)
def _slope_terms(indices: bytes
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (offsets, p, conj([1, p, p^2])) of the selection whose
    ``AntennaSelection.indices`` (an ``int`` array) have these bytes.

    The key is the indices' content, so two selections with the same
    elements share one entry and a selection never reads another's.  The
    0-based offsets scatter an N-vector onto the aperture; the 3 x N stack
    times an observation y gives the rows whose ``np.vecdot`` with e(w) is
    the correlations u_0, u_1, u_2 of ``_refine``.
    """
    elements = np.frombuffer(indices, dtype=int)
    pos = _phase_slope(elements)
    terms = (elements - 1,
             pos,
             np.conj(np.stack((np.ones_like(pos), pos, pos * pos))))
    for array in terms:
        array.flags.writeable = False
    return terms


def _path_derivatives(gain: complex, u1: complex, u2: complex
                      ) -> tuple[float, float]:
    """dJ/dw and d2J/dw2 of J(w) = ||y - g e(w)||^2, on N entries.

    ``u1`` and ``u2`` are the correlations u_k = sum_n conj(y_n) p_n^k
    e_n(w) of the observation y.  In terms of the residual r = y - g e,
    dJ/dw = -2 Re(g s_1) and d2J/dw2 = -2 Re(g s_2) + 2 |g|^2 sum |p_n|^2,
    with s_k = sum conj(r_n) p_n^k e_n.  As |e_n| = 1,
    s_k = u_k - conj(g) sum p_n^k, and because every p_n is imaginary,
    Re(|g|^2 sum p_n) = 0 and sum p_n^2 = -sum |p_n|^2: the slope sums cancel
    and dJ/dw = -2 Re(g u_1), d2J/dw2 = -2 Re(g u_2).  ``gain`` and the
    correlations are Python complex; both come back as Python floats.
    """
    return -2.0 * (gain * u1).real, -2.0 * (gain * u2).real


def _fit_error(gain: complex, u0: complex, num_receive: int) -> float:
    """J - ||y||^2 = N |g|^2 - 2 Re(g u_0), where J = ||y - g e||^2 and
    u_0 = sum conj(y_n) e_n, as |e|^2 = N.  At the least-squares gain
    g = conj(u_0) / N it is -|u_0|^2 / N."""
    return (num_receive * (gain.real * gain.real + gain.imag * gain.imag)
            - 2.0 * (gain * u0).real)


def _refine(
    observation: np.ndarray,
    gain: complex,
    w: float,
    steer: np.ndarray,
    pos: np.ndarray,
    weights: np.ndarray,
    rounds: int,
) -> tuple[complex, float, np.ndarray, bool]:
    """Refine one path against its observation, all other paths removed.

    ``observation`` is y, the residual with this path's g * e(w) added
    back, which is h itself while this is the only path; ``steer`` is
    e(w) = exp(p * w) with p = ``pos``, and ``weights`` is
    conj([1, p, p^2]).  Each round takes a Newton step in w from
    ``_path_derivatives`` followed by the least-squares gain
    g' = conj(u_0') / N, exact since |e'|^2 = N.  A step is committed only
    when the curvature is positive and the fit error does not grow; the
    first rejected step ends the refinement.  Returns the updated
    (gain, w, steer) and whether any step was committed: if none was, the
    caller's residual y - g e still holds.  A step lands on the steering
    period [-P/2, P/2), P = ``_PERIOD`` = 1/d.

    The fit error is compared as J - ||y||^2 (``_fit_error``), which is
    all that differs between two points of one observation.  Once per call
    the rows A = conj([1, p, p^2]) * y and the start's correlations
    [u_0, u_1, u_2] = vecdot(A, e) are formed (2 NumPy calls); then one
    round is 3::

        d1 = -2 Re(g u_1);  d2 = -2 Re(g u_2);  stop if d2 <= 0
        w' = (w - d1 / d2 + P/2) % P - P/2
        e' = exp(p * w')                          # 2
        [u_0', u_1', u_2'] = vecdot(A, e')        # 1
        g' = conj(u_0') / N;  stop if -|u_0'|^2 / N > J - ||y||^2

    The kernel fixture holds the result to the same greedy decisions and
    rtol 1e-9, not to the bits of any one grouping of these operations.
    """
    vecdot = np.vecdot
    period = _PERIOD
    half = 0.5 * period
    num_receive = steer.size
    rows = weights * observation
    u0, u1, u2 = vecdot(rows, steer).tolist()
    value = _fit_error(gain, u0, num_receive)
    moved = False
    for _ in range(rounds):
        d1, d2 = _path_derivatives(gain, u1, u2)
        if d2 <= 0.0:
            break
        w_new = (w - d1 / d2 + half) % period - half
        steer_new = np.exp(pos * w_new)
        u0, u1_new, u2_new = vecdot(rows, steer_new).tolist()
        gain_new = u0.conjugate() / num_receive
        trial_value = _fit_error(gain_new, u0, num_receive)
        if trial_value > value:
            break
        gain, w, steer, u1, u2, value, moved = (
            gain_new, w_new, steer_new, u1_new, u2_new, trial_value, True
        )
    return gain, w, steer, moved


def _refit(steers: list[np.ndarray], h_up: np.ndarray
           ) -> tuple[list[complex], np.ndarray]:
    """Ridge least-squares gains (E^H E + N lambda I) g = E^H h of the paths
    with steering columns E = ``steers``, and the residual h - E g.

    E^H E is N times the Gram of the unit-norm a_S(w_i), so lambda =
    ``_RIDGE`` is the ridge of a_S.  Every eigenvalue of the system is at
    least N lambda > 0: no set of paths, equal ones included, is singular.
    One path takes the closed form g = vdot(e, h) / (N + N lambda), as
    |e|^2 = N.  Two paths invert the 2 x 2 Gram [[a, c], [conj(c), b]]
    through its determinant det = a b - |c|^2, with c = vdot(e_1, e_2) and
    a, b the measured |e_i|^2 + N lambda, so det >= N lambda (a + b -
    N lambda), about 2 lambda a b: far above rounding.  More paths solve
    the system.
    """
    ridge = h_up.size * _RIDGE
    if len(steers) == 1:
        steer = steers[0]
        gain = complex(np.vdot(steer, h_up)) / (steer.size + ridge)
        return [gain], h_up - gain * steer
    if len(steers) == 2:
        first, second = steers
        diag_first = float(np.vdot(first, first).real) + ridge
        diag_second = float(np.vdot(second, second).real) + ridge
        cross = complex(np.vdot(first, second))
        det = diag_first * diag_second - (cross.real * cross.real
                                          + cross.imag * cross.imag)
        proj_first = complex(np.vdot(first, h_up))
        proj_second = complex(np.vdot(second, h_up))
        gain_first = (diag_second * proj_first - cross * proj_second) / det
        gain_second = (diag_first * proj_second
                       - cross.conjugate() * proj_first) / det
        return ([gain_first, gain_second],
                h_up - gain_first * first - gain_second * second)
    basis = np.stack(steers, axis=1)
    adjoint = basis.conj().T
    gram = adjoint @ basis + ridge * np.eye(len(steers))
    refit = np.linalg.solve(gram, adjoint @ h_up)
    return refit.tolist(), h_up - basis @ refit
