"""Beamforming algorithms that produce per-element resonance configurations.

Both search a ResonanceGrid, the resonant frequencies of one design for one
subcarrier set; ties break toward the lower resonant frequency, so identical
inputs always give identical configurations. The center-frequency beamformer
scores 4 cyclic rows per element around the resonance its target angle
inverts to, and every row only where those 4 cannot certify the pick. The
successive beamformer scores only the rows that two exact bounds leave (an
interval triangle bound, then the objective's tangent plane), so it picks
exactly what the exhaustive scan picks, with an O(n_slot * r_res * k) worst
case. Its weight table and interval bounds are computed from the grid's own
fields on its first successive solve and kept on the grid for every later one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelSet
from .element import ResonanceConfiguration, _resonance_at_angle, lorentzian_weight, normalized_polarizability, tuning_range
from .params import DmaDesign, SubcarrierGrid, _freeze

PRUNE_STEP = 64  # rows per interval of the successive scan's triangle bound
# Relative margin below the best real objective before a bound drops a row:
# far above the rounding of either bound, so no maximum is ever lost.
PRUNE_RTOL = 1e-9
# Most floats one tangent-plane product reads. OpenBLAS splits a matrix-vector
# product of 460,800 or more floats over its threads, which then can stall for
# milliseconds per call (8 ms at 4001 x 128 after an idle spell, 2-CPU host).
PLANE_FLOATS = 2**17
TIE_MARGIN = 1e-12  # rows this near an element's best center-frequency dot are re-ranked by distance
DEFAULT_R_RES = 1001  # resonance grid resolution when none is given


@dataclass(frozen=True, eq=False)  # compared by identity: the array field has no truth value
class ResonanceGrid:
    """Resonant frequencies of one design's elements, searched for one subcarrier set."""

    values: np.ndarray  # ascending [Hz]
    design: DmaDesign  # the elements it configures: their count and damping
    subcarriers: SubcarrierGrid  # the only frequencies the successive table serves

    def __post_init__(self):
        _freeze(self, "values")
        v = self.values  # NaN fails every comparison; an infinity in an ascending list sits at an end
        if not (v.size and math.isfinite(v[0]) and math.isfinite(v[-1]) and (v[1:] >= v[:-1]).all()):
            raise ValueError("resonance grid needs at least one point, all finite and ascending")

    @property
    def r_res(self) -> int:
        """Grid resolution: the number of resonant frequencies."""
        return self.values.size

    @cached_property
    def successive_table(self) -> tuple:
        """The (r_res, k) weight table and the anchor weights and reach of its PRUNE_STEP-row intervals.

        An interval's anchor is its middle row; reach[j, k] is the largest
        |weights[r, k] - weights[anchor_j, k]| over the rows r of interval j.
        Computed from the grid's own fields on first use, since the
        center-frequency beamformer never reads it.
        """
        weights = normalized_polarizability(self.subcarriers.frequencies[None, :], self.values[:, None], self.design)
        starts = np.arange(0, self.r_res, PRUNE_STEP)
        last = np.minimum(starts + PRUNE_STEP, self.r_res) - 1
        anchor_w = weights[(starts + last) // 2]
        reach = np.zeros(anchor_w.shape)
        for offset in range(PRUNE_STEP):  # a short last interval repeats its last row
            np.maximum(reach, np.abs(weights[np.minimum(starts + offset, last)] - anchor_w), out=reach)
        return weights, anchor_w, reach


def resonance_grid(design: DmaDesign, subcarriers: SubcarrierGrid, r_res: int = DEFAULT_R_RES) -> ResonanceGrid:
    """Discretize the design's tuning range into r_res points; a single point sits at the center."""
    if r_res < 1:
        raise ValueError("resolution must be >= 1")
    f_r_min, f_r_max = tuning_range(design)
    if r_res == 1:
        values = np.array([(f_r_min + f_r_max) / 2.0])
    else:
        values = np.linspace(f_r_min, f_r_max, r_res)
    return ResonanceGrid(values=values, design=design, subcarriers=subcarriers)


def _nearest_rows(targets: np.ndarray, achievable: np.ndarray, rows: np.ndarray) -> tuple:
    """Each target's pick among its rows (an index array broadcasting against targets[:, None]), its dots, their best.

    Rows within TIE_MARGIN of the best dot are re-ranked by |t - a|; ties go to the lowest row.
    """
    t, a = targets[:, None], achievable[rows]
    dots = t.real * a.real + (t.imag + 0.5) * (a.imag + 0.5)  # both taken about the circle's center -j/2
    best = np.max(dots, axis=1)
    dist = np.where(dots >= best[:, None] - TIE_MARGIN, np.abs(t - a), np.inf)
    return np.min(np.where(dist == np.min(dist, axis=1, keepdims=True), rows, achievable.size), axis=1), dots, best


def center_frequency_beamformer(channels: ChannelSet, grid: ResonanceGrid) -> ResonanceConfiguration:
    """Per-element resonance matching the conjugate channel phase at the center subcarrier.

    Each element takes the achievable weight a nearest to the circle point t
    at the conjugate channel angle zeta, ties going to the lowest row. Both
    lie on |w + j/2| = 1/2, so |t - a|^2 = 1/2 - 2 * dot(t + j/2, a + j/2) up
    to ~1e-16 of rounding: re-ranking by |t - a| the rows within TIE_MARGIN of
    the best dot returns the exhaustive scan's first minimum. Each dot is
    cos(psi_r - zeta)/4 for the angle psi_r of a_r + j/2, which rises with the
    row over an arc shorter than 2 pi, so the dots are cyclically unimodal in
    the row. An element scores only the 4 cyclic rows around the resonance
    its zeta inverts to (element._resonance_at_angle); a zeta in the arc's
    gap scores the last two rows and the first two. When both end rows lie
    more than TIE_MARGIN below the window's best dot, the window holds a
    local, hence the global, maximum and every row within TIE_MARGIN of it.
    Otherwise the element is scored on every row, so the inverse need only be
    close; on grids of 4 rows or fewer the window holds every row already.
    """
    if channels.n_slot != grid.design.n_slot:
        raise ValueError("channel element count differs from the resonance grid design's")
    f_c = channels.grid.f_center
    zeta = np.angle(np.conj(channels.h[channels.grid.center_index]))  # (n_slot,)
    targets = lorentzian_weight(zeta)
    achievable = normalized_polarizability(f_c, grid.values, grid.design)  # (r_res,)
    pos = np.searchsorted(grid.values, _resonance_at_angle(f_c, zeta, grid.design))
    idx, dots, best = _nearest_rows(targets, achievable, (pos[:, None] + np.arange(-2, 2)) % grid.r_res)
    full = np.flatnonzero(~(np.maximum(dots[:, 0], dots[:, -1]) < best - TIE_MARGIN))
    if full.size:
        idx[full] = _nearest_rows(targets[full], achievable, np.arange(grid.r_res)[None, :])[0]
    return ResonanceConfiguration(f_r=grid.values[idx])


def _score(amp: np.ndarray, snr: np.ndarray) -> np.ndarray:
    """Successive objective mean_k log2(1 + snr_k * amp_k^2) of each row of amp."""
    return np.mean(np.log2(1.0 + snr[None, :] * amp**2), axis=1)


def _tangent_plane(a: np.ndarray, running: np.ndarray, snr: np.ndarray, amp0: np.ndarray) -> tuple:
    """Slopes of the successive objective's tangent plane at amplitudes amp0, and the plane's scale.

    On the weight circle |w|^2 = -Im w, so z_k = |w a_k + running_k|^2 equals
    |running_k|^2 + Re(w conj(u_k)) with u_k = 2 running_k conj(a_k) - j |a_k|^2:
    affine in (Re w, Im w). Each term log2(1 + snr_k z_k) is concave in z_k,
    so its tangent at amp0_k^2 lies above it, and for every row r
    objective(r) <= objective(r0) + (flat[r] - flat[r0]) @ v
    when amp0 holds row r0's amplitudes, flat is the weight table viewed as
    interleaved (Re, Im) pairs and v the pairs of slope_k * u_k. The scale
    sum_k slope_k (|a_k| + |running_k|)^2 bounds the size of each term of
    that sum (|w| <= 1).
    """
    spread = np.abs(a)
    slope = snr / ((1.0 + snr * amp0**2) * (math.log(2.0) * snr.size))
    v = slope * (2.0 * running * np.conj(a) - 1j * spread**2)  # (Re, Im) slope pairs as one complex number
    return v.view(np.float64), slope @ (spread + np.abs(running)) ** 2


def successive_beamformer(channels: ChannelSet, snr, grid: ResonanceGrid) -> ResonanceConfiguration:
    """Greedy feed-order selection maximizing the running spectral efficiency.

    Element n picks the grid resonance maximizing
    mean_k log2(1 + snr_k * |U_n(f_k, f_r) + sum_{m<n} U_m(f_k, f_r_m)|^2)
    with U_n = weight * taper * channel; earlier selections stay frozen. The
    channel must have the grid's subcarriers and its design's element count.

    Two exact bounds prune the scan without changing its result; a row is
    dropped only when a bound puts it below the objective of a real row, the
    floor, by a margin. First, by the triangle inequality no row of interval j
    scores above the objective at amplitude |anchor contribution + running| +
    |a_k| * reach_jk. Second, the objective is concave in each |.|^2, which is
    affine in the weight on its circle, so no row scores above the tangent
    plane taken at the best anchor (_tangent_plane). The plane costs one real
    product per row and no log2 or |.|, but at the first element, where the
    running sum is zero, it is loose; so it runs only on the rows of the
    intervals the triangle bound keeps, one product per contiguous run of
    them, each of at most PLANE_FLOATS floats so that it stays on one BLAS
    thread. The plane's best row, scored exactly, raises the floor first.
    The plane's margin also scales with the size of the terms it sums (the
    scale of _tangent_plane): their product's rounding, about 2k * 1e-16 of
    that size, and the circle identity's, |w|^2 + Im w ~ 1e-16, stay far
    below PRUNE_RTOL of it. The rows that survive are scored with the
    exhaustive scan's expression, so the first maximum is the exhaustive
    scan's first maximum.
    """
    snr = np.asarray(snr, dtype=float)
    freq = channels.grid.frequencies
    if channels.n_slot != grid.design.n_slot:
        raise ValueError("channel element count differs from the resonance grid design's")
    if not np.array_equal(freq, grid.subcarriers.frequencies):
        raise ValueError("channel subcarriers differ from the resonance grid's")
    if snr.shape != freq.shape:
        raise ValueError("snr list must have one entry per subcarrier")
    weights, anchor_w, reach = grid.successive_table
    flat = weights.view(np.float64)  # (r_res, 2k): interleaved (Re, Im) of each weight, no copy
    index = np.arange(grid.r_res)
    block = max(PRUNE_STEP, PLANE_FLOATS // flat.shape[1])
    running = np.zeros(freq.size, dtype=complex)
    chosen = np.empty(grid.design.n_slot)
    for n in range(grid.design.n_slot):
        a = channels.h_att[n] * channels.h[:, n]
        amp = np.abs(anchor_w * a[None, :] + running[None, :])
        anchor_score = _score(amp, snr)
        j = int(np.argmax(anchor_score))
        floor = anchor_score[j]  # objective of a real row, so the grid maximum is at least this; NaN disables pruning
        live = np.flatnonzero(~(_score(amp + np.abs(a) * reach, snr) < floor - PRUNE_RTOL * (1.0 + np.abs(floor))))
        v, scale = _tangent_plane(a, running, snr, amp[j])
        offset = floor - anchor_w[j].view(np.float64) @ v  # plane(r) = flat[r] @ v + offset
        spans = []  # row ranges of the contiguous runs of surviving intervals, at most `block` rows each
        for i in live.tolist():
            lo, hi = i * PRUNE_STEP, (i + 1) * PRUNE_STEP
            if spans and spans[-1][1] == lo and hi - spans[-1][0] <= block:
                spans[-1][1] = hi
            else:
                spans.append([lo, hi])
        rows = np.concatenate([index[lo:hi] for lo, hi in spans])
        plane = np.concatenate([flat[lo:hi] @ v for lo, hi in spans])
        top = rows[np.argmax(plane)]
        floor = np.maximum(floor, _score(np.abs(weights[top : top + 1] * a[None, :] + running[None, :]), snr)[0])
        rows = rows[~(plane < floor - offset - PRUNE_RTOL * (1.0 + np.abs(floor) + scale))]
        contrib = weights[rows] * a[None, :]
        best = int(np.argmax(_score(np.abs(contrib + running[None, :]), snr)))  # first maximum = lowest row
        chosen[n] = grid.values[rows[best]]
        running = running + contrib[best]
    return ResonanceConfiguration(f_r=chosen)

