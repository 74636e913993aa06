"""Per-subcarrier channel vectors: wireless array response, waveguide phase
advance, leakage taper, and an optional seeded multipath extension.

Channel construction is pure; a ChannelSet is immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .params import C_LIGHT, DmaDesign, ScenarioConfig, SubcarrierGrid, leakage_constant, subcarrier_grid, waveguide_beta


@dataclass(frozen=True)
class ChannelSet:
    """Effective channel h, leakage taper h_att, and the subcarrier grid.

    For the line-of-sight model every h entry has unit modulus and `phases`
    holds the unwrapped per-element channel phase; multipath channels leave
    `phases` as None.
    """

    h: np.ndarray  # (k, n_slot) complex
    h_att: np.ndarray  # (n_slot,) real taper in (0, 1], first entry 1, flat across subcarriers
    grid: SubcarrierGrid
    phases: np.ndarray | None = None  # (k, n_slot) unwrapped phase [rad]

    def __post_init__(self):
        for name in ("h", "h_att", "phases"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if self.h_att.shape != self.h.shape[1:]:
            raise ValueError("leakage taper must hold one entry per channel element")

    @property
    def n_slot(self) -> int:
        return self.h.shape[1]

    @property
    def k(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class MultipathSpec:
    """Seeded ray-sum channel: complex-normal path gains with total unit
    average power, angles uniform on [-60 deg, 60 deg], delays uniform on
    [0, 50 ns]."""

    l_path: int = 4
    seed: int = 0
    pin_first_to_los: bool = False  # first path: gain 1/sqrt(L), delay 0, LOS angle
    angle_max: float = math.radians(60.0)  # [rad]
    delay_max: float = 50e-9  # [s]

    def __post_init__(self):
        if self.l_path < 1:
            raise ValueError("path count must be >= 1")


def array_response(phi_t: float, f, design: DmaDesign) -> np.ndarray:
    """Array response exp(j*n*(2*pi*f/c)*d_x*sin(phi_t)): (n_slot,) for a scalar f, (k, n_slot) for k frequencies."""
    if abs(phi_t) >= math.pi / 2:
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


def channel_phase_step(f_k, cfg: ScenarioConfig, design: DmaDesign):
    """Per-element phase increment of the effective channel [rad/element].

    Combines the wireless advance (2*pi*f/c)*d_x*sin(phi_t) with the waveguide
    advance -d_x*beta_g(f); element n carries n times this value.
    """
    f_k = np.asarray(f_k, dtype=float)
    wireless = (2 * math.pi * f_k / C_LIGHT) * design.d_x * math.sin(cfg.phi_t)
    out = wireless - design.d_x * waveguide_beta(f_k, design)
    return float(out) if out.ndim == 0 else out


def effective_channel(cfg: ScenarioConfig, design: DmaDesign, grid: SubcarrierGrid | None = None) -> ChannelSet:
    """Line-of-sight channel: elementwise array response times waveguide advance, per subcarrier."""
    if grid is None:
        grid = subcarrier_grid(cfg)
    # named factors: numpy may swap the operands of a large temporary, which moves the last bit
    wireless = array_response(cfg.phi_t, grid.frequencies, design)
    guide = waveguide_phase_vector(grid.frequencies, design)
    phases = channel_phase_step(grid.frequencies, cfg, design)[:, None] * np.arange(design.n_slot)
    return ChannelSet(h=wireless * guide, h_att=leakage_vector(design), grid=grid, phases=phases)


def multipath_channel(
    spec: MultipathSpec, cfg: ScenarioConfig, design: DmaDesign, grid: SubcarrierGrid | None = None
) -> ChannelSet:
    """Seeded ray-sum channel combined with the waveguide phase advance.

    h[k] = (sum_l g_l * a(phi_l, f_k) * exp(-j*2*pi*f_k*tau_l)) (.) h_dma[k];
    the leakage taper is unchanged. Identical seeds give bit-identical output.
    """
    if grid is None:
        grid = subcarrier_grid(cfg)
    rng = np.random.default_rng(spec.seed)
    l_path = spec.l_path
    scale = math.sqrt(1.0 / (2.0 * l_path))
    gains = scale * (rng.standard_normal(l_path) + 1j * rng.standard_normal(l_path))
    angles = rng.uniform(-spec.angle_max, spec.angle_max, l_path)
    delays = rng.uniform(0.0, spec.delay_max, l_path)
    if spec.pin_first_to_los:
        gains[0] = 1.0 / math.sqrt(l_path)
        angles[0] = cfg.phi_t
        delays[0] = 0.0

    freq = grid.frequencies
    rays = np.zeros((grid.k, design.n_slot), dtype=complex)
    # named factors: numpy may swap the operands of a large temporary, which moves the last bit
    for g, phi, tau in zip(gains, angles, delays):
        wireless = array_response(phi, freq, design)
        rays += g * wireless * np.exp(-2j * math.pi * freq * tau)[:, None]
    guide = waveguide_phase_vector(freq, design)
    return ChannelSet(h=rays * guide, h_att=leakage_vector(design), grid=grid, phases=None)


def dump_channel_csv(channels: ChannelSet, path) -> None:
    """Write (k, f_k, n, Re h, Im h, h_att) rows for every subcarrier/element pair."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "f_k", "n", "re_h", "im_h", "h_att"])
        freq, taper = channels.grid.frequencies.tolist(), channels.h_att.tolist()
        for (i, n), val in np.ndenumerate(channels.h):
            writer.writerow([i, repr(freq[i]), n, repr(float(val.real)), repr(float(val.imag)), repr(taper[n])])
