"""Closed-form beamforming-gain approximation and its diagnostic factors.

The per-subcarrier gain factorizes into a beam-squint term, a tuning-fill
penalty, and a leakage penalty. Each factor has an independent numerical
oracle in this module or in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .element import normalized_polarizability, tuning_range
from .params import C_LIGHT, DmaDesign, ScenarioConfig, _freeze, leakage_constant, radiated_fraction, waveguide_beta


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


def angular_fill(design: DmaDesign) -> float:
    """Angular weight fill xi = pi * phase_fill_ratio, in [0, pi]."""
    return math.pi * phase_fill_ratio(design)


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


def leakage_penalty_exact(design: DmaDesign) -> float:
    """Finite-aperture taper penalty: with q = exp(-alpha_g*d_x) and m = 0..n_slot-1,
    (sum_m q^m)^2 / (n_slot * sum_m q^(2m)).

    Equals 1 when the taper vanishes (Cauchy-Schwarz equality) and approaches
    leakage_penalty(lambda_frac) as the element count grows.
    """
    n = design.n_slot
    a = leakage_constant(design) * design.d_x
    if a == 0.0:
        return 1.0
    # closed geometric forms: numerator ((1-q^n)/(1-q))^2, denominator n*(1-q^2n)/(1-q^2)
    return (math.tanh(n * a / 2.0) / math.tanh(a / 2.0)) / n


def gain_breakdown(cfg: ScenarioConfig, design: DmaDesign) -> ApproxBreakdown:
    """All three factors and their product for every subcarrier."""
    f_k = squint_gain_from_phase(squint_phase_profile(cfg, design), design.n_slot)
    w = fill_penalty(angular_fill(design))
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


def fill_penalty_mc_stderr(xi: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo oracle for fill_penalty, with its delta-method standard error.

    Channel phases are sampled uniformly on the unit circle; each one is
    served by the feasible weight of least phase error: the conjugate weight
    when reachable, otherwise the outermost feasible weight on the matching
    half-plane. Returns the squared modulus of the mean aligned response and
    its standard error.
    """
    if not 0.0 <= xi <= math.pi:
        raise ValueError("angular fill must lie in [0, pi]")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, samples)
    h = np.exp(1j * theta)
    # reachable when the conjugate phase -theta falls within [-pi/2-xi, -pi/2+xi]
    offset = np.mod(theta - math.pi / 2.0 + math.pi, 2.0 * math.pi) - math.pi
    reachable = np.abs(offset) <= xi
    clip_hi = np.exp(1j * (-math.pi / 2.0 + xi))  # real part of h >= 0
    clip_lo = np.exp(1j * (-math.pi / 2.0 - xi))  # real part of h < 0
    product = np.where(reachable, 1.0 + 0j, h * np.where(h.real >= 0.0, clip_hi, clip_lo))
    mx, my = float(np.mean(product.real)), float(np.mean(product.imag))
    cov = np.cov(np.stack([product.real, product.imag]), ddof=1) / samples
    grad = np.array([2.0 * mx, 2.0 * my])
    variance = float(grad @ cov @ grad)
    return mx * mx + my * my, math.sqrt(max(variance, 0.0))
