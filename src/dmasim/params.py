"""Scenario and DMA design parameters, physical constants, and derived waveguide quantities.

All quantities are SI: frequencies in Hz, lengths in m, powers in W, angles in
radians, temperatures in K. Everything here is a pure function of immutable
inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

C_LIGHT = 3e8  # speed of light [m/s]
K_BOLTZ = 1.380649e-23  # Boltzmann constant [J/K]


def _require_finite(config) -> None:
    """Reject NaN and infinite fields, which the range checks below would let through."""
    bad = [f.name for f in fields(config) if not math.isfinite(getattr(config, f.name))]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    """Link-level experiment description."""

    f_t: float = 15e9  # carrier frequency [Hz]
    b: float = 5e8  # signal bandwidth [Hz]
    k: int = 64  # subcarrier count (even, >= 2)
    phi_t: float = math.radians(-20.0)  # steering angle from broadside [rad]
    r: float = 100.0  # link distance [m]
    p_in_tot: float = 1.0  # total input power [W]
    t_temp: float = 290.0  # noise temperature [K]
    g_dma: float = 1.0  # DMA efficiency loss, linear in (0, 1]

    def __post_init__(self):
        _require_finite(self)
        if self.f_t <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.b <= 0:
            raise ValueError("signal bandwidth must be positive")
        if self.k < 2 or self.k % 2 != 0:
            raise ValueError("subcarrier count must be even and >= 2")
        if abs(self.phi_t) >= math.pi / 2:
            raise ValueError("steering angle must satisfy |phi_t| < pi/2")
        if self.r <= 0:
            raise ValueError("link distance must be positive")
        if self.p_in_tot <= 0:
            raise ValueError("input power must be positive")
        if self.t_temp <= 0:
            raise ValueError("noise temperature must be positive")
        if not 0 < self.g_dma <= 1:
            raise ValueError("DMA efficiency loss must lie in (0, 1]")

    @property
    def p_in(self) -> float:
        """Per-subcarrier input power [W]."""
        return self.p_in_tot / self.k


@dataclass(frozen=True)
class DmaDesign:
    """Physical DMA design parameters.

    The damping factor is derived from the quality factor at the design
    carrier, Gamma = 2*pi*f_t / q [rad/s]. The coupling factor is stored for
    completeness only; it cancels in every normalized weight.
    """

    n_slot: int = 32  # element count
    d_x: float = 0.005  # element spacing [m]
    q: float = 100.0  # quality factor at f_t
    f_t: float = 15e9  # design carrier frequency [Hz]
    b_tune: float = 2e9  # resonant-frequency tuning bandwidth [Hz]
    lambda_frac: float = 0.9  # fractional radiated power, in (0, 1)
    eps_r: float = 2.1  # substrate permittivity factor
    f_c10: float = 10e9  # waveguide cutoff frequency [Hz]
    f_coupl: float = 1.0  # coupling factor (cancels in normalized weights)

    def __post_init__(self):
        _require_finite(self)
        if self.n_slot < 1:
            raise ValueError("element count must be >= 1")
        if self.d_x <= 0:
            raise ValueError("element spacing must be positive")
        if self.q <= 0:
            raise ValueError("quality factor must be positive")
        if self.f_t <= 0:
            raise ValueError("design carrier must be positive")
        if self.b_tune < 0:
            raise ValueError("tuning bandwidth must be non-negative")
        if self.b_tune >= 2 * self.f_t:
            raise ValueError("tuning bandwidth must keep resonant frequencies positive")
        if not 0 < self.lambda_frac < 1:
            raise ValueError("fractional radiated power must lie in (0, 1)")
        if self.f_c10 >= self.f_t:
            raise ValueError("waveguide cutoff must lie below the design carrier")

    @property
    def gamma(self) -> float:
        """Damping factor [rad/s]."""
        return 2 * math.pi * self.f_t / self.q


@dataclass(frozen=True, eq=False)  # compared by identity: the array field has no truth value
class SubcarrierGrid:
    """Passband subcarrier frequencies with an exact center subcarrier."""

    frequencies: np.ndarray  # strictly increasing, uniform spacing b/k [Hz]
    center_index: int  # k//2; frequencies[center_index] == f_t exactly

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float)
        freq.flags.writeable = False
        object.__setattr__(self, "frequencies", freq)

    @property
    def k(self) -> int:
        return self.frequencies.size

    @property
    def f_center(self) -> float:
        return float(self.frequencies[self.center_index])


def subcarrier_grid(cfg: ScenarioConfig) -> SubcarrierGrid:
    """Build the subcarrier grid f = f_t + (b/k)*(i - k/2) for i = 0..k-1.

    The center subcarrier (index k//2) equals the carrier to full floating
    precision by construction.
    """
    spacing = cfg.b / cfg.k
    offsets = np.arange(cfg.k) - cfg.k // 2
    return SubcarrierGrid(frequencies=cfg.f_t + spacing * offsets, center_index=cfg.k // 2)


def waveguide_beta(f, design: DmaDesign):
    """Waveguide phase constant (2*pi*eps_r/c)*sqrt(f^2 - f_c10^2) [rad/m].

    Accepts a scalar or array frequency; every frequency must lie above the
    cutoff f_c10.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= design.f_c10):
        raise ValueError("frequency at or below waveguide cutoff")
    beta = (2 * math.pi * design.eps_r / C_LIGHT) * np.sqrt(f * f - design.f_c10**2)
    return float(beta) if beta.ndim == 0 else beta


def leakage_constant(design: DmaDesign) -> float:
    """Leakage constant alpha_g = -ln(1 - Lambda) / (2*d_x*(n_slot - 1)) [Np/m].

    Positive by convention so the aperture taper exp(-alpha_g * x) decays.
    Held frequency-flat at its design value across the band.
    """
    if design.n_slot < 2:
        raise ValueError("leakage design undefined for a single element")
    return -math.log(1.0 - design.lambda_frac) / (2.0 * design.d_x * (design.n_slot - 1))


def radiated_fraction(design: DmaDesign) -> float:
    """Fraction of input power radiated by the aperture end.

    Equals 1 - exp(-2*alpha_g*d_x*(n_slot-1)), which the leakage design pins
    to lambda_frac; a single-element aperture falls back to the design target.
    """
    if design.n_slot < 2:
        return design.lambda_frac
    a = leakage_constant(design)
    return 1.0 - math.exp(-2.0 * a * design.d_x * (design.n_slot - 1))


def path_loss(f: float, r: float) -> float:
    """Free-space path loss (c / (4*pi*r*f))^2, linear."""
    if np.any(np.asarray(f) <= 0) or r <= 0:
        raise ValueError("frequency and distance must be positive")
    g = (C_LIGHT / (4 * math.pi * r * np.asarray(f, dtype=float))) ** 2
    return float(g) if g.ndim == 0 else g


def noise_power(cfg: ScenarioConfig) -> float:
    """Per-subcarrier noise power k_B * T * (b/k) [W]."""
    return K_BOLTZ * cfg.t_temp * cfg.b / cfg.k


def propagation_lobe_suppressed(design: DmaDesign) -> bool:
    """True when the guided phase constant exceeds the free-space wavenumber.

    Under this condition the waveguide-induced secondary lobe cannot radiate
    and the beamforming-gain reduction used throughout the analysis is valid.
    """
    return waveguide_beta(design.f_t, design) > 2 * math.pi * design.f_t / C_LIGHT


def wavelength(f: float) -> float:
    """Free-space wavelength [m]."""
    return C_LIGHT / f


# Flat key=value config file schema, SI units: key -> (field, description).
# Each key is also a CLI override flag: "--" + key.lower() with "_" -> "-".
# f_t is in both tables, so the design carrier follows the scenario carrier.
_SCENARIO_KEYS = {
    "f_t": ("f_t", "carrier frequency [Hz]"),
    "B": ("b", "signal bandwidth [Hz]"),
    "K": ("k", "subcarrier count (even)"),
    "phi_t": ("phi_t", "steering angle [rad]"),
    "r": ("r", "link distance [m]"),
    "P_in_tot": ("p_in_tot", "total input power [W]"),
    "T_temp": ("t_temp", "noise temperature [K]"),
    "G_dma": ("g_dma", "DMA efficiency loss, linear"),
}
_DESIGN_KEYS = {
    "N_slot": ("n_slot", "DMA element count"),
    "d_x": ("d_x", "element spacing [m]"),
    "Q": ("q", "quality factor at the carrier"),
    "f_t": _SCENARIO_KEYS["f_t"],
    "B_tune": ("b_tune", "tuning bandwidth [Hz]"),
    "Lambda": ("lambda_frac", "fractional radiated power in (0, 1)"),
    "eps_r": ("eps_r", "substrate permittivity factor"),
    "f_c10": ("f_c10", "waveguide cutoff frequency [Hz]"),
    "F_coupl": ("f_coupl", "coupling factor"),
}
_INT_FIELDS = {"k", "n_slot"}


def _config_value(key: str, field: str, text: str):
    """Parse one config value; the integer fields must hold a finite integral number."""
    value = float(text)
    if field not in _INT_FIELDS:
        return value
    if not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {text!r}")
    return int(value)


def load_config(path) -> tuple[ScenarioConfig, DmaDesign]:
    """Load a flat key=value config file; '#' starts a comment.

    Unknown keys are rejected. Missing keys fall back to the defaults above;
    the design carrier follows the scenario carrier unless set explicitly.
    """
    scenario_kwargs: dict = {}
    design_kwargs: dict = {}
    tables = ((scenario_kwargs, _SCENARIO_KEYS), (design_kwargs, _DESIGN_KEYS))
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            targets = [(kwargs, table[key][0]) for kwargs, table in tables if key in table]
            if not targets:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                for kwargs, field in targets:
                    kwargs[field] = _config_value(key, field, text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    cfg = ScenarioConfig(**scenario_kwargs)
    design_kwargs.setdefault("f_t", cfg.f_t)
    return cfg, DmaDesign(**design_kwargs)


def save_config(path, cfg: ScenarioConfig, design: DmaDesign) -> None:
    """Write a config in the flat key=value schema that load_config reads; its one f_t is both carriers."""
    if design.f_t != cfg.f_t:
        raise ValueError(f"design carrier {design.f_t!r} differs from scenario carrier {cfg.f_t!r}; a config holds one f_t")
    lines = []
    for key, (field, _) in _SCENARIO_KEYS.items():
        lines.append(f"{key} = {getattr(cfg, field)!r}")
    for key, (field, _) in _DESIGN_KEYS.items():
        if key == "f_t":
            continue  # shared with the scenario
        lines.append(f"{key} = {getattr(design, field)!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def override_fields(obj, **overrides):
    """Return a copy of a frozen config dataclass with the non-None overrides replaced (and validated)."""
    return replace(obj, **{k: v for k, v in overrides.items() if v is not None})
