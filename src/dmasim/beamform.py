"""Beamforming algorithms that produce per-element resonance configurations.

Both grid algorithms evaluate a discretized resonant-frequency set and cost
O(n_slot * r_res) grid visits; ties break toward the lower resonant
frequency, so identical inputs always give identical configurations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .element import ResonanceConfiguration, TuningRange, lorentzian_weight, normalized_polarizability, tuning_range
from .params import DmaDesign


@dataclass(frozen=True)
class ResonanceGrid:
    """Equally spaced resonant frequencies spanning the tuning range."""

    values: np.ndarray  # ascending [Hz]
    r_res: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.values.size != self.r_res or self.r_res < 1:
            raise ValueError("grid size must equal r_res and be >= 1")


def resonance_grid(rng: TuningRange, r_res: int) -> ResonanceGrid:
    """Discretize a tuning range into r_res points; a single point sits at the center."""
    if r_res < 1:
        raise ValueError("resolution must be >= 1")
    if r_res == 1:
        values = np.array([(rng.f_r_min + rng.f_r_max) / 2.0])
    else:
        values = np.linspace(rng.f_r_min, rng.f_r_max, r_res)
    return ResonanceGrid(values=values, r_res=r_res)


def default_grid(design: DmaDesign, r_res: int = 1001) -> ResonanceGrid:
    return resonance_grid(tuning_range(design), r_res)


def center_frequency_beamformer(
    channels: ChannelSet, grid: ResonanceGrid, design: DmaDesign
) -> ResonanceConfiguration:
    """Per-element resonance matching the conjugate channel phase at the center subcarrier.

    Each element independently minimizes the distance between its achievable
    weight and the constrained-circle point at the conjugate channel angle.
    """
    if grid.values.size == 0:
        raise ValueError("empty resonance grid")
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


def successive_beamformer(
    channels: ChannelSet, snr, grid: ResonanceGrid, design: DmaDesign
) -> ResonanceConfiguration:
    """Greedy feed-order selection maximizing the running spectral efficiency.

    Element n picks the grid resonance maximizing
    mean_k log2(1 + snr_k * |U_n(f_k, f_r) + sum_{m<n} U_m(f_k, f_r_m)|^2)
    with U_n = weight * taper * channel; earlier selections stay frozen.
    """
    if grid.values.size == 0:
        raise ValueError("empty resonance grid")
    snr = np.asarray(snr, dtype=float)
    freq = channels.grid.frequencies
    if snr.shape != freq.shape:
        raise ValueError("snr list must have one entry per subcarrier")
    # (r_res, k) weight table shared by every element
    weights = normalized_polarizability(freq[None, :], grid.values[:, None], design)
    running = np.zeros(freq.size, dtype=complex)
    chosen = np.empty(design.n_slot)
    for n in range(design.n_slot):
        contrib = weights * (channels.h_att[n] * channels.h[:, n])[None, :]
        objective = np.mean(np.log2(1.0 + snr[None, :] * np.abs(contrib + running[None, :]) ** 2), axis=1)
        best = int(np.argmax(objective))  # first maximum = lower resonant frequency
        chosen[n] = grid.values[best]
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
    phase-shifter array."""
    kc = channels.grid.center_index
    w = np.exp(-1j * np.angle(channels.h[kc]))
    return np.tile(w, (channels.k, 1))
