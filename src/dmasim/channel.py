"""Per-subcarrier channel vectors: wireless array response and waveguide phase
advance; the design's leakage taper is applied at scoring. Every channel is one
ray sum: line of sight is its one-ray case, seeded multipath draws its rays.

Channel construction is pure; a ChannelSet keeps read-only copies of its
arrays, so it is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    C_LIGHT, DmaDesign, ScenarioConfig, SubcarrierGrid, _freeze, _require_counts, leakage_constant, waveguide_beta
)


@dataclass(frozen=True, eq=False)  # compared by identity: array fields have no truth value
class ChannelSet:
    """Effective channel h and the subcarrier grid; the leakage taper is the design's (leakage_vector).

    For the line-of-sight model every h entry has unit modulus.
    """

    h: np.ndarray  # (k, n_slot) complex
    grid: SubcarrierGrid
    # not fields: only benchmark/run.py's patch tracer reads them, and they go with that tracer (ROADMAP item 12)
    h_att = None
    phases = None

    def __post_init__(self):
        _freeze(self, "h", dtype=None)  # h is complex
        if self.h.shape[0] != self.grid.k:
            raise ValueError("channel must hold one row per subcarrier")
        if not np.isfinite(self.h).all():
            raise ValueError("channel must be finite")

    @property
    def n_slot(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.h.shape[0]


ANGLE_MAX = math.radians(60.0)  # [rad]
DELAY_MAX = 50e-9  # [s]


@dataclass(frozen=True)
class MultipathSpec:
    """Seeded ray-sum channel: complex-normal path gains with total unit
    average power, angles uniform on [-ANGLE_MAX, ANGLE_MAX] = [-60 deg,
    60 deg], delays uniform on [0, DELAY_MAX] = [0, 50 ns]."""

    l_path: int = 4
    seed: int = 0
    pin_first_to_los: bool = False  # first path: gain 1/sqrt(L), delay 0, LOS angle

    def __post_init__(self):
        _require_counts(self, l_path=1, seed=0)


def array_response(phi_t: float, f, design: DmaDesign) -> np.ndarray:
    """Array response exp(j*n*(2*pi*f/c)*d_x*sin(phi_t)): (n_slot,) for a scalar f, (k, n_slot) for k frequencies."""
    if not abs(phi_t) < math.pi / 2:
        raise ValueError("steering angle must satisfy |phi_t| < pi/2")
    n = np.arange(design.n_slot)
    step = (2 * math.pi * np.asarray(f, dtype=float) / C_LIGHT) * design.d_x * math.sin(phi_t)
    return np.exp(1j * n * step[..., None])


def waveguide_phase_vector(f, design: DmaDesign) -> np.ndarray:
    """Waveguide advance exp(-j*n*d_x*beta_g(f)), zero at the feed; shaped like array_response."""
    n = np.arange(design.n_slot)
    beta = np.asarray(waveguide_beta(f, design))
    return np.exp(-1j * n * design.d_x * beta[..., None])


def leakage_vector(design: DmaDesign) -> np.ndarray:
    """Leakage taper exp(-n*d_x*alpha_g); one (n_slot,) vector, flat across subcarriers."""
    if design.n_slot == 1:
        return np.ones(1)
    n = np.arange(design.n_slot)
    return np.exp(-n * design.d_x * leakage_constant(design))


def effective_channel(cfg: ScenarioConfig, design: DmaDesign) -> ChannelSet:
    """Line-of-sight channel: the one-ray case of the ray sum, unit gain at the steering angle and no delay."""
    return _ray_channel((1.0,), (cfg.phi_t,), (0.0,), cfg, design)


def multipath_channel(spec: MultipathSpec, cfg: ScenarioConfig, design: DmaDesign) -> ChannelSet:
    """Seeded ray-sum channel combined with the waveguide phase advance.

    h[k] = (sum_l g_l * a(phi_l, f_k) * exp(-j*2*pi*f_k*tau_l)) (.) h_dma[k].
    Identical seeds give bit-identical output.
    """
    rng = np.random.default_rng(spec.seed)
    l_path = spec.l_path
    scale = math.sqrt(1.0 / (2.0 * l_path))
    gains = scale * (rng.standard_normal(l_path) + 1j * rng.standard_normal(l_path))
    angles = rng.uniform(-ANGLE_MAX, ANGLE_MAX, l_path)
    delays = rng.uniform(0.0, DELAY_MAX, l_path)
    if spec.pin_first_to_los:
        gains[0] = 1.0 / math.sqrt(l_path)
        angles[0] = cfg.phi_t
        delays[0] = 0.0
    return _ray_channel(gains, angles, delays, cfg, design)


def _ray_channel(gains, angles, delays, cfg: ScenarioConfig, design: DmaDesign) -> ChannelSet:
    """The channel of the given rays, on the scenario's subcarriers; every channel is built here."""
    grid = cfg.subcarriers
    freq = grid.frequencies
    # past the float range the phases are NaN, which the ChannelSet's finiteness check reports as one error
    with np.errstate(over="ignore", invalid="ignore"):
        rays = np.zeros((grid.k, design.n_slot), dtype=complex)
        # named factors: numpy may swap the operands of a large temporary, which moves the last bit
        for g, phi, tau in zip(gains, angles, delays):
            wireless = array_response(phi, freq, design)
            rays += g * wireless * np.exp(-2j * math.pi * freq * tau)[:, None]
        guide = waveguide_phase_vector(freq, design)
        return ChannelSet(h=rays * guide, grid=grid)
