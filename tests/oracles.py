"""Independent numerical oracles for dmasim's channel and the factors of its gain approximation.

dmasim computes each quantity once; each oracle here reaches the same quantity
another way, and the tests hold dmasim to them.
"""

import math

import numpy as np

from dmasim import C_LIGHT, DmaDesign, ScenarioConfig, leakage_constant, waveguide_beta


def channel_phase_step(f_k, cfg: ScenarioConfig, design: DmaDesign):
    """Per-element phase increment of the effective channel [rad/element].

    Combines the wireless advance (2*pi*f/c)*d_x*sin(phi_t) with the waveguide
    advance -d_x*beta_g(f); element n carries n times this value.
    """
    f_k = np.asarray(f_k, dtype=float)
    wireless = (2 * math.pi * f_k / C_LIGHT) * design.d_x * math.sin(cfg.phi_t)
    return wireless - design.d_x * waveguide_beta(f_k, design)


def leakage_penalty_exact(design: DmaDesign) -> float:
    """Finite-aperture taper penalty: with q = exp(-alpha_g*d_x) and m = 0..n_slot-1,
    (sum_m q^m)^2 / (n_slot * sum_m q^(2m)).

    Equals 1 when the taper vanishes (Cauchy-Schwarz equality) and approaches
    leakage_penalty(lambda_frac) as the element count grows. A single element
    has no leakage design, so leakage_constant rejects it.
    """
    n = design.n_slot
    powers = math.exp(-leakage_constant(design) * design.d_x) ** np.arange(n)
    return float(powers.sum() ** 2 / (n * (powers**2).sum()))


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
