"""Tunable Lorentzian DMA element: polarizability, its linear phase model, and tuning range.

The normalized polarizability is the canonical beamforming weight. It always
lies on the circle of radius 1/2 centered at -j/2 in the complex plane; that
circle membership is the enforced weight constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DmaDesign, _freeze


def tuning_range(design: DmaDesign) -> tuple[float, float]:
    """Resonant-frequency bounds (f_r_min, f_r_max): width b_tune centered on the design carrier."""
    half = design.b_tune / 2.0
    return design.f_t - half, design.f_t + half


@dataclass(frozen=True, eq=False)  # compared by identity: the array field has no truth value
class ResonanceConfiguration:
    """One resonant frequency per DMA element, in waveguide-feed order."""

    f_r: np.ndarray  # [Hz], length n_slot

    def __post_init__(self):
        _freeze(self, "f_r")


def _detuning(f, f_r, design: DmaDesign, out=None):
    """Normalized detuning x = 2*pi*(f_r^2 - f^2) / (Gamma*f), written into out when given."""
    f = np.asarray(f, dtype=float)
    f_r = np.asarray(f_r, dtype=float)
    x = np.subtract(f_r * f_r, f * f, out=out)
    x *= 2 * math.pi
    x /= design.gamma * f
    return x


def _resonance_at_angle(f, zeta, design: DmaDesign):
    """Resonance f_r whose weight at f sits at angle zeta about the circle's center -j/2.

    That angle is pi/2 - 2*arccot(x), rising with f_r over (-3pi/2, pi/2), so
    with zeta taken into [-3pi/2, pi/2) the detuning is x = tan(zeta/2 + pi/4).
    Angles no f_r >= 0 reaches give f_r = 0.
    """
    x = np.tan(np.where(zeta < math.pi / 2, zeta, zeta - 2 * math.pi) / 2 + math.pi / 4)
    return np.sqrt(np.maximum(f * f + x * design.gamma * f / (2 * math.pi), 0.0))


def normalized_polarizability(f, f_r, design: DmaDesign):
    """Unit-peak beamforming weight 1/(x + j) with x the normalized detuning.

    Algebraically equal to the polarizability divided by Q_k*F, so the
    coupling factor F cancels. Peak amplitude 1 occurs exactly at f == f_r.
    Built in the one complex array it returns, with numpy's own complex
    division, so every weight equals 1.0 / (x + 1j) bit for bit.
    """
    w = np.empty(np.broadcast(f, f_r).shape, dtype=complex)
    _detuning(f, f_r, design, out=w.real)
    w.imag = 1.0
    return np.divide(1.0, w, out=w)[()]


def linear_phase_approx(f, f_r, design: DmaDesign):
    """First-order model -pi/2 - (4*pi/Gamma)*(f - f_r) of the weight argument.

    Matches the exact argument and its frequency slope at f == f_r.
    """
    f = np.asarray(f, dtype=float)
    f_r = np.asarray(f_r, dtype=float)
    return -math.pi / 2 - (4 * math.pi / design.gamma) * (f - f_r)


def lorentzian_weight(zeta):
    """Point -(j - exp(j*zeta))/2 of the constrained-weight circle."""
    zeta = np.asarray(zeta, dtype=float)
    return -(1j - np.exp(1j * zeta)) / 2.0


def dma_weight_matrix(res: ResonanceConfiguration, frequencies, design: DmaDesign):
    """Weights for every (subcarrier, element) pair; shape (k, n_slot).

    Rejects resonances outside the design tuning range, and NaN.
    """
    f_r_min, f_r_max = tuning_range(design)
    if not np.all((res.f_r >= f_r_min) & (res.f_r <= f_r_max)):
        raise ValueError("resonance configuration leaves the tuning range")
    freq = np.asarray(frequencies, dtype=float)
    return normalized_polarizability(freq[:, None], res.f_r[None, :], design)
