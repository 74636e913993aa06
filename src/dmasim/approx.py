"""Closed-form beamforming-gain approximation and its diagnostic factors.

The per-subcarrier gain factorizes into a beam-squint term, a tuning-fill
penalty, and a leakage penalty. Each factor has one form here. The test
suite holds each to an independent numerical oracle: the squint term to its
explicit complex sum, the two penalties to the functions in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .element import normalized_polarizability, tuning_range
from .params import C_LIGHT, DmaDesign, ScenarioConfig, _freeze, radiated_fraction, waveguide_beta


@dataclass(frozen=True, eq=False)  # compared by identity: array fields have no truth value
class ApproxBreakdown:
    """Per-subcarrier factors of the gain approximation.

    The fill and leakage penalties do not depend on the subcarrier, so they
    are scalars; `product` is squint_gain * fill_penalty * leakage_penalty.
    """

    squint_gain: np.ndarray  # per-k frequency-selectivity factor, max n_slot/4
    fill_penalty: float  # in [0, 1]
    leakage_penalty: float  # in [0, 1]
    product: np.ndarray  # per-k approximate beamforming gain

    def __post_init__(self):
        _freeze(self, "squint_gain", "product")


def squint_phase_profile(cfg: ScenarioConfig, design: DmaDesign) -> np.ndarray:
    """Per-element phase offset between each subcarrier and the center one; shape (k,).

    -d_x * [ (2*pi*delta/c)*sin(phi_t)
             + (2*pi*eps_r/c)*(sqrt((f_c+delta)^2 - f_c10^2) - sqrt(f_c^2 - f_c10^2)) ]
    with delta = f_k - f_center. Zero at the center subcarrier.
    """
    grid = cfg.subcarriers
    f_c = grid.f_center
    delta = grid.frequencies - f_c
    wireless = (2 * math.pi * delta / C_LIGHT) * math.sin(cfg.phi_t)
    guided = waveguide_beta(grid.frequencies, design) - waveguide_beta(f_c, design)
    return -design.d_x * (wireless + guided)


def squint_gain_from_phase(chi, n_slot: int):
    """| sin(n*chi/2) / (2*sqrt(n)*sin(chi/2)) |^2 with the n/4 limit at chi == 0 mod 2*pi."""
    chi = np.asarray(chi, dtype=float)
    half = np.sin(chi / 2.0)
    coherent = half == 0.0
    safe = np.where(coherent, 1.0, half)
    ratio = np.sin(n_slot * chi / 2.0) / safe
    gain = (ratio / (2.0 * math.sqrt(n_slot))) ** 2
    out = np.where(coherent, n_slot / 4.0, gain)
    return float(out) if out.ndim == 0 else out


def phase_fill_ratio(design: DmaDesign) -> float:
    """Fraction of the constrained circle's [-pi, 0] phase span the tuning range reaches.

    |arg w(f_t, f_r_max) - arg w(f_t, f_r_min)| / pi; both arguments lie in
    (-pi, 0), so no wrap can occur.
    """
    f_r_min, f_r_max = tuning_range(design)
    hi = np.angle(normalized_polarizability(design.f_t, f_r_max, design))
    lo = np.angle(normalized_polarizability(design.f_t, f_r_min, design))
    return float(abs(hi - lo) / math.pi)


def fill_penalty(xi: float) -> float:
    """Gain fraction |(2*sin(xi) + 2*xi)/(2*pi)|^2 retained with angular fill xi."""
    if not 0.0 <= xi <= math.pi:
        raise ValueError("angular fill must lie in [0, pi]")
    return ((2.0 * math.sin(xi) + 2.0 * xi) / (2.0 * math.pi)) ** 2


def leakage_penalty(lambda_frac: float) -> float:
    """Large-aperture taper penalty (4/ln(1-L)) * tanh(ln(1-L)/4)."""
    if not 0.0 < lambda_frac < 1.0:
        raise ValueError("fractional radiated power must lie in (0, 1)")
    log_term = math.log(1.0 - lambda_frac)
    return (4.0 / log_term) * math.tanh(log_term / 4.0)


def gain_breakdown(cfg: ScenarioConfig, design: DmaDesign) -> ApproxBreakdown:
    """All three factors and their product for every subcarrier."""
    f_k = squint_gain_from_phase(squint_phase_profile(cfg, design), design.n_slot)
    w = fill_penalty(math.pi * phase_fill_ratio(design))  # angular fill xi in [0, pi]
    a = leakage_penalty(design.lambda_frac)
    return ApproxBreakdown(squint_gain=f_k, fill_penalty=w, leakage_penalty=a, product=f_k * w * a)


def power_normalized_gain(breakdown: ApproxBreakdown, design: DmaDesign) -> np.ndarray:
    """Approximate gain in power-normalized units: 2 * radiated_fraction * product.

    The power constraint divides the simulated gain by the weighted weight
    power; constrained weights sampled uniformly around their circle average
    |w|^2 = 1/2, so the normalized prediction carries 2*Lambda. Use this form
    when comparing against normalized simulated gains.
    """
    return 2.0 * radiated_fraction(design) * breakdown.product
