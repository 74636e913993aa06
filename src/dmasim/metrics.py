"""SNR, power-normalized beamforming gain, spectral efficiency, and data rate.

Scores any per-subcarrier weight matrix; run_beamformer configures the
aperture with either grid beamformer and scores the result. Gains are linear
throughout; convert to dB only at the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamform import ResonanceGrid, center_frequency_beamformer, successive_beamformer
from .channel import ChannelSet, leakage_vector
from .element import ResonanceConfiguration, dma_weight_matrix
from .params import DmaDesign, ScenarioConfig, _freeze, noise_power, path_loss, radiated_fraction


@dataclass(frozen=True, eq=False)  # compared by identity: array fields have no truth value
class GainSpectrum:
    """Per-subcarrier records plus their band aggregates."""

    gain: np.ndarray  # per-k normalized beamforming gain, linear
    rho: np.ndarray  # per-k SNR, linear
    se: np.ndarray  # per-k log2(1 + rho*gain) [bit/s/Hz]
    g_sum: float  # sum of per-k gains
    capacity: float  # mean of per-k se [bit/s/Hz]
    rate: float  # b * capacity [bit/s]

    def __post_init__(self):
        _freeze(self, "gain", "rho", "se")


def snr_profile(cfg: ScenarioConfig) -> np.ndarray:
    """Per-subcarrier SNR path_loss * g_dma * p_in / noise_power, linear; shape (k,)."""
    with np.errstate(over="ignore", divide="ignore"):  # past the float range: inf, which the successive solve rejects
        return path_loss(cfg.frequencies, cfg.r) * cfg.g_dma * cfg.p_in / noise_power(cfg)


def gain_profile(channels: ChannelSet, weights: np.ndarray, design: DmaDesign) -> np.ndarray:
    """Normalized gain M_k * |h[k]^T (weights[k] (.) leakage_vector(design))|^2 for every subcarrier; shape (k,).

    A subcarrier whose weight vector is identically zero transmits nothing
    and scores gain 0 (its normalization constant is undefined).
    """
    weights = np.asarray(weights)
    if weights.shape != channels.h.shape:
        raise ValueError("weights must be shaped (k, n_slot) like the channel")
    tapered = weights * leakage_vector(design)
    norm_sq = np.sum(np.abs(tapered) ** 2, axis=1)
    silent = norm_sq == 0.0
    m_k = radiated_fraction(design) / np.where(silent, 1.0, norm_sq)
    gain = m_k * np.abs(np.sum(channels.h * tapered, axis=1)) ** 2
    return np.where(silent, 0.0, gain)


def gain_spectrum(channels: ChannelSet, weights: np.ndarray, design: DmaDesign) -> GainSpectrum:
    """Assemble per-subcarrier gain/SNR/SE records and their aggregates, under the channel's scenario."""
    cfg = channels.cfg
    gain, rho = gain_profile(channels, weights, design), snr_profile(cfg)
    se = np.log2(1.0 + rho * gain)
    capacity = float(np.mean(se))
    return GainSpectrum(gain=gain, rho=rho, se=se, g_sum=float(np.sum(gain)), capacity=capacity, rate=cfg.b * capacity)


def resonance_spectrum(channels: ChannelSet, res: ResonanceConfiguration, design: DmaDesign) -> GainSpectrum:
    """gain_spectrum for the weights induced by a resonance configuration."""
    weights = dma_weight_matrix(res, channels.cfg.frequencies, design)
    return gain_spectrum(channels, weights, design)


ALGORITHMS = {"center-frequency": "cf", "successive": "succ"}  # each name run_beamformer accepts: its CSV suffix


def run_beamformer(algorithm: str, channels: ChannelSet, grid: ResonanceGrid) -> tuple[ResonanceConfiguration, GainSpectrum]:
    """Configure the aperture of grid's design with the named algorithm and score it with resonance_spectrum.

    The successive objective reads the same snr_profile(channels.cfg) that the score does.
    """
    # positional calls: benchmark/run.py's tracer reads the grid at these argument positions
    if algorithm == "center-frequency":
        res = center_frequency_beamformer(channels, grid)
    elif algorithm == "successive":
        res = successive_beamformer(channels, snr_profile(channels.cfg), grid)
    else:
        raise ValueError(f"unknown beamforming algorithm {algorithm!r}")
    return res, resonance_spectrum(channels, res, grid.design)

