"""SNR, power normalization, beamforming gain, spectral efficiency, and data rate.

Works for any per-subcarrier weight source: grid beamformers, the closed-form
tuning, or the phased-array baseline. Gains are linear throughout; convert to
dB only at the output layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamform import ResonanceGrid, center_frequency_beamformer, default_grid, successive_beamformer
from .channel import ChannelSet, effective_channel
from .element import ResonanceConfiguration, dma_weight_matrix
from .params import DmaDesign, ScenarioConfig, noise_power, override_fields, path_loss, radiated_fraction, subcarrier_grid


@dataclass(frozen=True)
class GainSpectrum:
    """Per-subcarrier records plus their band aggregates."""

    gain: np.ndarray  # per-k normalized beamforming gain, linear
    rho: np.ndarray  # per-k SNR, linear
    se: np.ndarray  # per-k log2(1 + rho*gain) [bit/s/Hz]
    g_sum: float  # sum of per-k gains
    capacity: float  # mean of per-k se [bit/s/Hz]
    rate: float  # b * capacity [bit/s]

    def __post_init__(self):
        for name in ("gain", "rho", "se"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def snr_profile(cfg: ScenarioConfig) -> np.ndarray:
    """Per-subcarrier SNR path_loss * g_dma * p_in / noise_power, linear; shape (k,)."""
    grid = subcarrier_grid(cfg)
    return path_loss(grid.frequencies, cfg.r) * cfg.g_dma * cfg.p_in / noise_power(cfg)


def normalization(weights_k: np.ndarray, h_att_k: np.ndarray, design: DmaDesign) -> float:
    """Power normalization M = radiated_fraction / ||weights (.) taper||^2.

    Scales the tapered beamformer so its radiated power matches the aperture
    design; rejects an all-zero weight vector.
    """
    norm_sq = float(np.sum(np.abs(weights_k * h_att_k) ** 2))
    if norm_sq == 0.0:
        raise ValueError("weight vector has zero norm")
    return radiated_fraction(design) / norm_sq


def gain_profile(channels: ChannelSet, weights: np.ndarray, design: DmaDesign) -> np.ndarray:
    """Normalized gain M_k * |h[k]^T (weights[k] (.) h_att)|^2 for every subcarrier; shape (k,).

    A subcarrier whose weight vector is identically zero transmits nothing
    and scores gain 0 (its normalization constant is undefined).
    """
    weights = np.asarray(weights)
    if weights.shape != channels.h.shape:
        raise ValueError("weights must be shaped (k, n_slot) like the channel")
    tapered = weights * channels.h_att
    norm_sq = np.sum(np.abs(tapered) ** 2, axis=1)
    silent = norm_sq == 0.0
    m_k = radiated_fraction(design) / np.where(silent, 1.0, norm_sq)
    gain = m_k * np.abs(np.sum(channels.h * tapered, axis=1)) ** 2
    return np.where(silent, 0.0, gain)


def gain_spectrum(channels: ChannelSet, weights: np.ndarray, cfg: ScenarioConfig, design: DmaDesign) -> GainSpectrum:
    """Assemble per-subcarrier gain/SNR/SE records and their aggregates."""
    return _assemble(gain_profile(channels, weights, design), snr_profile(cfg), cfg.b)


def _assemble(gain: np.ndarray, rho: np.ndarray, b: float) -> GainSpectrum:
    """GainSpectrum from per-subcarrier gains and SNRs at signal bandwidth b."""
    se = np.log2(1.0 + rho * gain)
    capacity = float(np.mean(se))
    return GainSpectrum(gain=gain, rho=rho, se=se, g_sum=float(np.sum(gain)), capacity=capacity, rate=b * capacity)


def spectral_efficiency(channels: ChannelSet, weights: np.ndarray, cfg: ScenarioConfig, design: DmaDesign) -> float:
    """Mean over subcarriers of log2(1 + snr * gain) [bit/s/Hz]."""
    return gain_spectrum(channels, weights, cfg, design).capacity


def data_rate(cfg: ScenarioConfig, se: float) -> float:
    """Data rate b * se [bit/s]."""
    if se < 0:
        raise ValueError("spectral efficiency must be non-negative")
    return cfg.b * se


def resonance_spectrum(
    channels: ChannelSet, res: ResonanceConfiguration, cfg: ScenarioConfig, design: DmaDesign
) -> GainSpectrum:
    """gain_spectrum for the weights induced by a resonance configuration."""
    weights = dma_weight_matrix(res, channels.grid.frequencies, design)
    return gain_spectrum(channels, weights, cfg, design)


def run_beamformer(
    algorithm: str,
    channels: ChannelSet,
    cfg: ScenarioConfig,
    design: DmaDesign,
    grid: ResonanceGrid | None = None,
) -> tuple[ResonanceConfiguration, GainSpectrum]:
    """Configure the aperture with the named algorithm and score it."""
    if grid is None:
        grid = default_grid(design)
    if algorithm == "center-frequency":
        res = center_frequency_beamformer(channels, grid, design)
    elif algorithm == "successive":
        res = successive_beamformer(channels, snr_profile(cfg), grid, design)
    else:
        raise ValueError(f"unknown beamforming algorithm {algorithm!r}")
    return res, resonance_spectrum(channels, res, cfg, design)


def max_data_rate(
    cfg_template: ScenarioConfig,
    design: DmaDesign,
    b_values,
    algorithm: str = "successive",
    r_res: int = 1001,
) -> tuple[float, list[tuple[float, float]]]:
    """Best data rate over a signal-bandwidth sweep, re-running the beamformer per point.

    Returns (max rate, [(b, rate), ...] in sweep order).
    """
    b_values = list(b_values)
    if not b_values:
        raise ValueError("bandwidth sweep must be non-empty")
    grid = default_grid(design, r_res)
    rates = []
    for b in b_values:
        cfg = override_fields(cfg_template, b=float(b))
        channels = effective_channel(cfg, design)
        _, spectrum = run_beamformer(algorithm, channels, cfg, design, grid)
        rates.append((float(b), spectrum.rate))
    return max(rate for _, rate in rates), rates


def phased_array_spectrum(
    channels: ChannelSet, weights: np.ndarray, cfg: ScenarioConfig, loss_db: float = 0.0
) -> GainSpectrum:
    """Score unit-modulus phase-shifter weights under a component loss.

    The gain is |h^T w|^2 / n_slot (power constraint ||w||^2 = n_slot) and the
    SNR is scaled by 10^(-loss_db/10).
    """
    weights = np.asarray(weights)
    if weights.shape != channels.h.shape:
        raise ValueError("weights must be shaped (k, n_slot) like the channel")
    gain = np.abs(np.sum(channels.h * weights, axis=1)) ** 2 / channels.n_slot
    return _assemble(gain, snr_profile(cfg) * 10.0 ** (-loss_db / 10.0), cfg.b)
