"""Beamforming algorithms that produce per-element resonance configurations.

Both search a ResonanceGrid, the resonant frequencies of one design for one
subcarrier set; ties break toward the lower resonant frequency, so identical
inputs always give identical configurations. The center-frequency beamformer
ranks by distance 4 cyclic rows per element around the resonance its target
angle inverts to, and every row only where those 4 cannot certify the pick.
The successive beamformer scores only the rows that two exact bounds from the
objective's tangent plane at each interval's anchor leave, the first taken
over the chord between the interval's end rows, so it picks exactly what the
exhaustive scan picks, with an O(n_slot * r_res * k) worst case. Its weight
table, interval ends and reach, and the center-frequency beamformer's row of
achievable weights, are computed from the grid's own fields on first use and
kept on the grid for every later solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelSet, leakage_vector
from .element import ResonanceConfiguration, _resonance_at_angle, lorentzian_weight, normalized_polarizability, tuning_range
from .params import DmaDesign, ScenarioConfig, _count, _freeze

PRUNE_STEP = 64  # rows per interval of the successive scan, each with its own tangent plane
ANCHOR_ROW = (PRUNE_STEP - 1) // 2  # each interval's anchor: its middle row, the padding's copy in a short last one
# Relative margin below the best real objective before a bound drops a row:
# far above the rounding of either bound, so no maximum is ever lost.
PRUNE_RTOL = 1e-9
TIE_MARGIN = 1e-12  # a center-frequency window's end rows lie this far beyond its least distance to certify it
DEFAULT_R_RES = 1001  # resonance grid resolution when none is given


@dataclass(frozen=True, eq=False)  # compared by identity: the array field has no truth value
class ResonanceGrid:
    """Resonant frequencies of one design's elements, searched for one subcarrier set."""

    values: np.ndarray  # ascending [Hz]
    design: DmaDesign  # the elements it configures: their count and damping
    cfg: ScenarioConfig  # its frequencies are the only ones the successive table serves

    def __post_init__(self):
        _freeze(self, "values")
        v = self.values  # NaN fails every comparison; an infinity in an ascending list sits at an end
        if not (v.ndim == 1 and v.size and math.isfinite(v[0]) and math.isfinite(v[-1]) and (v[1:] >= v[:-1]).all()):
            raise ValueError("resonance grid values must be a non-empty list, all finite and ascending")

    @property
    def r_res(self) -> int:
        """Grid resolution: the number of resonant frequencies."""
        return self.values.size

    @cached_property
    def successive_table(self) -> tuple:
        """The weight table in whole PRUNE_STEP-row intervals, each interval's end and anchor rows, and its reach.

        The (intervals * PRUNE_STEP, k) table holds one row per grid value,
        then copies of the last row up to a whole number of intervals.
        ends[j] holds interval j's first, anchor (its row ANCHOR_ROW, a real
        row's weights even on a short last interval's copy) and last rows.
        reach[j, k] is the largest distance |weights[r, k] - first_k -
        offset_r / (PRUNE_STEP - 1) * (last_k - first_k)| of a row r of the
        interval from the chord between its end rows.
        Computed on first use: the center-frequency beamformer never reads it.
        All three are read-only, frozen in place: every later solve reads them.
        """
        intervals = -(-self.r_res // PRUNE_STEP)
        values = self.values[np.minimum(np.arange(intervals * PRUNE_STEP), self.r_res - 1)]
        weights = normalized_polarizability(self.cfg.frequencies[None, :], values[:, None], self.design)
        blocks = weights.reshape(intervals, PRUNE_STEP, -1)
        ends = blocks[:, [0, ANCHOR_ROW, PRUNE_STEP - 1]]
        first, span = ends[:, 0], ends[:, 2] - ends[:, 0]
        reach = np.zeros(span.shape)
        for offset in range(PRUNE_STEP):
            np.maximum(reach, np.abs(blocks[:, offset] - first - offset / (PRUNE_STEP - 1) * span), out=reach)
        for table in (weights, ends, reach):
            table.flags.writeable = False
        return weights, ends, reach

    @cached_property
    def center_row(self) -> np.ndarray:
        """Each row's achievable weight at the center subcarrier: the center-frequency beamformer's table.

        Computed on first use and read-only, like successive_table: every later solve reads it.
        """
        row = normalized_polarizability(self.cfg.f_t, self.values, self.design)
        row.flags.writeable = False
        return row


def resonance_grid(design: DmaDesign, cfg: ScenarioConfig, r_res: int = DEFAULT_R_RES) -> ResonanceGrid:
    """Discretize the design's tuning range into r_res points; a single point sits at the center."""
    r_res = _count("r_res", r_res, 1)
    f_r_min, f_r_max = tuning_range(design)
    if r_res == 1:
        values = np.array([(f_r_min + f_r_max) / 2.0])
    else:
        values = np.linspace(f_r_min, f_r_max, r_res)
    return ResonanceGrid(values=values, design=design, cfg=cfg)


def _check_grid(channels: ChannelSet, grid: ResonanceGrid) -> None:
    """Reject a channel whose element count or subcarriers are not the grid's."""
    if channels.n_slot != grid.design.n_slot:
        raise ValueError("channel element count differs from the resonance grid design's")
    f_channel, f_grid = channels.cfg.frequencies, grid.cfg.frequencies
    if f_channel is not f_grid and not np.array_equal(f_channel, f_grid):
        raise ValueError("channel subcarriers differ from the resonance grid's")


def _nearest_rows(targets: np.ndarray, achievable: np.ndarray, rows: np.ndarray) -> tuple:
    """Each target's pick among its rows (indices broadcasting against targets[:, None]), its distances, their least.

    Ties go to the lowest row.
    """
    dist = np.abs(targets[:, None] - achievable[rows])
    least = np.min(dist, axis=1)
    return np.min(np.where(dist == least[:, None], rows, achievable.size), axis=1), dist, least


def center_frequency_beamformer(channels: ChannelSet, grid: ResonanceGrid) -> ResonanceConfiguration:
    """Per-element resonance matching the conjugate channel phase at the center subcarrier.

    Each element takes the achievable weight a nearest to the circle point t
    at the conjugate channel angle zeta, ties going to the lowest row; each
    |t - a| is the exhaustive scan's own expression, so bitwise its value.
    Both lie on |w + j/2| = 1/2, so |t - a_r| = |sin((psi_r - zeta) / 2)| for
    the angle psi_r of a_r + j/2, which rises with the row over an arc
    shorter than 2 pi: the distances are cyclically unimodal in the row. An
    element scores only the 4 cyclic rows around the resonance its zeta
    inverts to (element._resonance_at_angle); a zeta in the arc's gap scores
    the last two rows and the first two. When both end rows lie more than
    TIE_MARGIN beyond the window's least distance, far above ~1e-16 of
    rounding, the window holds a local, hence the global, minimum and every
    row that ties it. Otherwise the element is scored on every row, so the
    inverse need only be close; on grids of 4 rows or fewer the window holds
    every row already. The channel must have the grid's subcarriers and its
    design's element count; the achievable weights are the grid's center_row.
    """
    _check_grid(channels, grid)
    zeta = np.angle(np.conj(channels.h[channels.k // 2]))  # (n_slot,); row k//2 is the carrier's
    targets = lorentzian_weight(zeta)
    achievable = grid.center_row  # (r_res,)
    pos = np.searchsorted(grid.values, _resonance_at_angle(channels.cfg.f_t, zeta, grid.design))
    idx, dist, least = _nearest_rows(targets, achievable, (pos[:, None] + np.arange(-2, 2)) % grid.r_res)
    full = np.flatnonzero(~(np.minimum(dist[:, 0], dist[:, -1]) > least + TIE_MARGIN))
    if full.size:
        idx[full] = _nearest_rows(targets[full], achievable, np.arange(grid.r_res)[None, :])[0]
    return ResonanceConfiguration(f_r=grid.values[idx])


def _circle_arg(
    w: np.ndarray, a: np.ndarray, running: np.ndarray, snr: np.ndarray, mag_a: np.ndarray, mag_running: np.ndarray
) -> tuple:
    """u and the log's argument 1 + snr_k |w_k a_k + running_k|^2 at weights w, by the circle identity.

    mag_a and mag_running are |a| and |running|. On the circle |w|^2 = -Im w, so
    |w a_k + running_k|^2 = |running_k|^2 + Re(w conj(u_k)) with
    u_k = 2 running_k conj(a_k) - j |a_k|^2, affine in (Re w, Im w); this
    form rounds within ~1e-15 (1 + snr_k (|a_k| + |running_k|)^2) of the direct one.
    """
    u = 2.0 * running * np.conj(a) - 1j * mag_a**2
    return u, (1.0 + snr * mag_running**2) + (w * np.conj(snr * u)).real


def _interval_planes(a: np.ndarray, running: np.ndarray, snr: np.ndarray, ends: np.ndarray, reach: np.ndarray) -> tuple:
    """Each interval's tangent plane of the successive objective at its anchor, with the plane's cut and bound.

    Each log2(1 + snr_k z_k) is concave in z_k = |w a_k + running_k|^2, affine
    in w (_circle_arg), so objective(r) <= objective(r_i) + P_i(r) - P_i(r_i)
    for every row r and interval i with anchor row r_i; P_i(r) = sum_k slope_ik
    Re(w_rk conj(u_k)) is row r's (Re, Im) weights dotted with v[i]. Where
    P_i(r) < cut[i], row r scores below the floor, the best anchor objective,
    by more than PRUNE_RTOL (1 + |floor| + scale_i), scale_i = sum_k slope_ik (|a_k| +
    |running_k|)^2 bounding each term of P_i (|w| <= 1). P_i is affine, so on
    interval i it is at most bound[i], its larger value at the end rows plus
    sum_k slope_ik reach_ik |u_k|: each row lies within reach_ik of their chord.
    """
    mag_a, mag_running = np.abs(a), np.abs(running)
    u, arg = _circle_arg(ends[:, 1], a, running, snr, mag_a, mag_running)
    anchor_score = np.add.reduce(np.log2(arg), axis=1) / snr.size  # np.mean's sum, without its wrappers
    floor = anchor_score.max()  # a real row's objective to rounding, so the grid maximum is at least this
    slope = snr / (arg * (math.log(2.0) * snr.size))
    v = (slope * u).view(np.float64)  # (intervals, 2k): each plane's (Re, Im) gradient pairs
    plane = (ends.view(np.float64) @ v[:, :, None])[:, :, 0]  # at each interval's first, anchor and last rows
    scale = slope @ (mag_a + mag_running) ** 2
    cut = floor - PRUNE_RTOL * (1.0 + abs(floor) + scale) - anchor_score + plane[:, 1]
    return v, cut, np.maximum(plane[:, 0], plane[:, 2]) + (slope * reach) @ np.abs(u)


def successive_beamformer(channels: ChannelSet, snr, grid: ResonanceGrid) -> ResonanceConfiguration:
    """Greedy feed-order selection maximizing the running spectral efficiency.

    Element n picks the grid resonance maximizing
    mean_k log2(1 + snr_k * |U_n(f_k, f_r) + sum_{m<n} U_m(f_k, f_r_m)|^2)
    with U_n = weight * taper * channel and taper = leakage_vector(grid.design);
    earlier selections stay frozen. The channel must have the grid's subcarriers
    and its design's element count, and every snr_k must be finite and non-negative.

    Two exact bounds prune the scan without changing its result; a row is
    dropped only when a bound puts it below the floor, the best objective of
    the interval anchors, by a margin. Both use the objective's tangent plane
    at each interval's own anchor (_interval_planes): the objective is concave
    in each |.|^2, which is affine in the weight on its circle. First, the
    plane is affine, so on an interval it is at most its larger value at the
    interval's end rows plus its rise over the reach about their chord.
    Second, every row from the first to the last interval that bound keeps
    is tested against its own interval's plane in one stacked real product of
    PRUNE_STEP-row items (2k floats a row, few enough for one BLAS thread),
    which drops the rows of a dropped interval between them too. Each
    interval's margin scales with the size of the terms its plane sums: their
    product's rounding, about 2k * 1e-16 of that size, and the circle
    identity's, ~1e-15, stay far below PRUNE_RTOL of it. The survivors are
    scored with the exhaustive scan's expression, so the first maximum is the
    exhaustive scan's; the table's padding rows copy the last grid row, so
    they can tie it but never precede it.
    """
    snr = np.asarray(snr, dtype=float)
    _check_grid(channels, grid)
    if snr.shape != (channels.k,):
        raise ValueError("snr list must have one entry per subcarrier")
    if not np.all(np.isfinite(snr) & (snr >= 0.0)):
        raise ValueError("snr list must be finite and non-negative")
    weights, ends, reach = grid.successive_table
    blocks = weights.view(np.float64).reshape(reach.shape[0], PRUNE_STEP, -1)  # interleaved (Re, Im) rows, no copy
    taps = (channels.h * leakage_vector(grid.design)).T.copy()  # row n: element n's taper * channel, contiguous
    running = np.zeros(channels.k, dtype=complex)
    chosen = np.empty(grid.design.n_slot)
    for n, a in enumerate(taps):
        v, cut, bound = _interval_planes(a, running, snr, ends, reach)
        live = (~(bound < cut)).nonzero()[0]
        lo, hi = live[0], live[-1] + 1
        plane = (blocks[lo:hi] @ v[lo:hi, :, None])[:, :, 0]
        rows = (~(plane < cut[lo:hi, None])).ravel().nonzero()[0] + lo * PRUNE_STEP  # ascending
        total = weights.take(rows, axis=0) * a + running  # each survivor's contribution plus the running sum
        # the exhaustive scan's objective, mean_k log2(1 + snr_k |.|^2) summed as np.mean sums; first maximum = lowest row
        best = int((np.add.reduce(np.log2(1.0 + snr * np.abs(total) ** 2), axis=1) / snr.size).argmax())
        chosen[n] = grid.values[rows[best]]
        running = total[best]  # the exhaustive scan's running + contribution: addition commutes exactly
    return ResonanceConfiguration(f_r=chosen)
