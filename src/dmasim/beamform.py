"""Beamforming algorithms that produce per-element resonance configurations.

Both grid algorithms search a discretized resonant-frequency set; ties break
toward the lower resonant frequency, so identical inputs always give
identical configurations. The center-frequency beamformer visits every grid
point once per element. The successive beamformer bounds each element's
objective over grid intervals and scores only the rows no interval bound
rules out: it picks exactly what the exhaustive scan of every grid point
picks, with an O(n_slot * r_res * k) worst case when nothing can be pruned.
Its weight table and interval bounds are built once per grid and reused by
every solve on that grid with the same subcarriers and damping.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .element import ResonanceConfiguration, TuningRange, lorentzian_weight, normalized_polarizability, tuning_range
from .params import DmaDesign

# Interval lengths of the successive scan's bound levels, coarse to fine. Each
# step divides the one before it, so an interval splits into whole intervals
# of the next level.
PRUNE_STEPS = (64, 8)
# Relative margin below the best real objective before an interval bound
# drops it: far above the rounding of the bound, so no maximum is ever lost.
PRUNE_RTOL = 1e-9


@dataclass(frozen=True)
class ResonanceGrid:
    """Equally spaced resonant frequencies spanning the tuning range."""

    values: np.ndarray  # ascending [Hz]
    # [gamma, subcarrier frequencies, successive scan table] of the last solve
    _scan: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if values.size < 1:
            raise ValueError("resonance grid needs at least one point")

    @property
    def r_res(self) -> int:
        """Grid resolution: the number of resonant frequencies."""
        return self.values.size


def resonance_grid(rng: TuningRange, r_res: int) -> ResonanceGrid:
    """Discretize a tuning range into r_res points; a single point sits at the center."""
    if r_res < 1:
        raise ValueError("resolution must be >= 1")
    if r_res == 1:
        values = np.array([(rng.f_r_min + rng.f_r_max) / 2.0])
    else:
        values = np.linspace(rng.f_r_min, rng.f_r_max, r_res)
    return ResonanceGrid(values=values)


def default_grid(design: DmaDesign, r_res: int = 1001) -> ResonanceGrid:
    return resonance_grid(tuning_range(design), r_res)


def center_frequency_beamformer(
    channels: ChannelSet, grid: ResonanceGrid, design: DmaDesign
) -> ResonanceConfiguration:
    """Per-element resonance matching the conjugate channel phase at the center subcarrier.

    Each element independently minimizes the distance between its achievable
    weight and the constrained-circle point at the conjugate channel angle.
    """
    kc = channels.grid.center_index
    f_c = channels.grid.f_center
    targets = lorentzian_weight(np.angle(np.conj(channels.h[kc])))  # (n_slot,)
    achievable = normalized_polarizability(f_c, grid.values, design)  # (r_res,)
    dist = np.abs(targets[None, :] - achievable[:, None])  # (r_res, n_slot)
    idx = np.argmin(dist, axis=0)  # first minimum = lower resonant frequency
    return ResonanceConfiguration(f_r=grid.values[idx])


def center_frequency_tuning(channels: ChannelSet, design: DmaDesign) -> ResonanceConfiguration:
    """Closed-form center tuning f_r = -(Gamma/(8*pi))*phase + f_center.

    Uses the unwrapped channel phase at the center subcarrier, so the linear
    weight-phase model cancels it there. Values may leave the tuning range;
    this form exists for analysis and testing of the gain approximation.
    """
    if channels.phases is None:
        raise ValueError("closed-form tuning needs unwrapped channel phases")
    kc = channels.grid.center_index
    phase = channels.phases[kc]
    f_r = -(design.gamma / (8 * math.pi)) * phase + channels.grid.f_center
    return ResonanceConfiguration(f_r=f_r)


def _score(amp: np.ndarray, snr: np.ndarray) -> np.ndarray:
    """Successive objective mean_k log2(1 + snr_k * amp_k^2) of each row of amp."""
    return np.mean(np.log2(1.0 + snr[None, :] * amp**2), axis=1)


def _scan_table(grid: ResonanceGrid, freq: np.ndarray, design: DmaDesign) -> tuple:
    """The (r_res, k) weight table and, per PRUNE_STEPS level, (anchor weights, reach).

    An interval's anchor is its middle row; reach[j, k] is the largest
    |weights[r, k] - weights[anchor_j, k]| over the rows r of interval j.
    The table depends only on the grid, the subcarriers and Gamma, so the
    grid keeps the last one built.
    """
    memo = grid._scan
    if memo and memo[0] == design.gamma and np.array_equal(memo[1], freq):
        return memo[2]
    weights = normalized_polarizability(freq[None, :], grid.values[:, None], design)
    levels = []
    for step in PRUNE_STEPS:
        starts = np.arange(0, grid.r_res, step)
        last = np.minimum(starts + step, grid.r_res) - 1
        anchor_w = weights[(starts + last) // 2]
        reach = np.zeros(anchor_w.shape)
        for offset in range(step):  # a short last interval repeats its last row
            np.maximum(reach, np.abs(weights[np.minimum(starts + offset, last)] - anchor_w), out=reach)
        levels.append((anchor_w, reach))
    memo[:] = [design.gamma, freq.copy(), (weights, levels)]
    return weights, levels


def successive_beamformer(
    channels: ChannelSet, snr, grid: ResonanceGrid, design: DmaDesign
) -> ResonanceConfiguration:
    """Greedy feed-order selection maximizing the running spectral efficiency.

    Element n picks the grid resonance maximizing
    mean_k log2(1 + snr_k * |U_n(f_k, f_r) + sum_{m<n} U_m(f_k, f_r_m)|^2)
    with U_n = weight * taper * channel; earlier selections stay frozen.

    Interval bounds prune the scan without changing its result. By the
    triangle inequality no row of interval j scores above the objective at
    amplitude |anchor contribution + running| + |a_k| * reach_jk, so an
    interval whose bound falls below the best anchor objective holds no
    maximum. The rows that survive are scored with the exhaustive scan's
    expression, so the first maximum is the exhaustive scan's first maximum.
    """
    snr = np.asarray(snr, dtype=float)
    freq = channels.grid.frequencies
    if snr.shape != freq.shape:
        raise ValueError("snr list must have one entry per subcarrier")
    weights, levels = _scan_table(grid, freq, design)
    steps = PRUNE_STEPS + (1,)
    running = np.zeros(freq.size, dtype=complex)
    chosen = np.empty(design.n_slot)
    for n in range(design.n_slot):
        a = channels.h_att[n] * channels.h[:, n]
        spread = np.abs(a)[None, :]
        live = np.arange(len(levels[0][0]))  # every interval of the coarsest level
        floor = -np.inf  # objective of a real row, so the grid maximum is at least this
        for (anchor_w, reach), step, finer in zip(levels, steps, steps[1:]):
            amp = np.abs(anchor_w[live] * a[None, :] + running[None, :])
            floor = np.maximum(floor, np.max(_score(amp, snr)))  # NaN disables pruning
            live = live[~(_score(amp + spread * reach[live], snr) < floor - PRUNE_RTOL * (1.0 + np.abs(floor)))]
            # the next level's intervals inside the survivors (after the last level, their rows), ascending
            children = (live[:, None] * (step // finer) + np.arange(step // finer)).ravel()
            live = children[children < -(-grid.r_res // finer)]  # ceil(r_res / finer) of them exist
        rows = live
        contrib = weights[rows] * a[None, :]
        best = int(np.argmax(_score(np.abs(contrib + running[None, :]), snr)))  # first maximum = lowest row
        chosen[n] = grid.values[rows[best]]
        running = running + contrib[best]
    return ResonanceConfiguration(f_r=chosen)


def export_resonances_csv(res: ResonanceConfiguration, path) -> None:
    """Write one (n, f_r) row per element, in waveguide-feed order."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "f_r"])
        for n, f_r in enumerate(res.f_r):
            writer.writerow([n, repr(float(f_r))])


def phased_array_weights(channels: ChannelSet) -> np.ndarray:
    """Unit-modulus conjugate weights at the center subcarrier, reused for all
    subcarriers; shape (k, n_slot). The comparison baseline for a lossy
    phase-shifter array.

    Returns a read-only broadcast view of the one (n_slot,) weight row, so
    every subcarrier shares that row's memory; copy it before writing.
    """
    kc = channels.grid.center_index
    w = np.exp(-1j * np.angle(channels.h[kc]))
    return np.broadcast_to(w, channels.h.shape)
