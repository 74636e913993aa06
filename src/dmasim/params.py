"""Scenario and DMA design parameters, physical constants, and derived waveguide quantities.

All quantities are SI: frequencies in Hz, lengths in m, powers in W, angles in
radians, temperatures in K. Everything here is a pure function of immutable
inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

C_LIGHT = 3e8  # speed of light [m/s]
K_BOLTZ = 1.380649e-23  # Boltzmann constant [J/K]


def _require_finite(config) -> None:
    """Reject NaN and infinite fields, which the range checks below would let through."""
    bad = [f.name for f in fields(config) if not math.isfinite(getattr(config, f.name))]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite")


def _require_positive(record, **words) -> None:
    """Reject each named field that is not above zero, calling it by its given words."""
    for name, said in words.items():
        if getattr(record, name) <= 0:
            raise ValueError(f"{said} must be positive")


def _count(name: str, value, least: int) -> int:
    """The count or seed value as an int no less than least; 64.0 passes, 2.5 or NaN fails."""
    if not (isinstance(value, (int, np.integer)) or float(value).is_integer()) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _require_counts(record, **least) -> None:
    """Store each named count or seed field as the int _count makes of it."""
    for name, low in least.items():
        object.__setattr__(record, name, _count(name, getattr(record, name), low))


def _freeze(record, *names, dtype=float) -> None:
    """Store a read-only copy, never the caller's buffer, of each named array field; None stays None."""
    for name in names:
        if (value := getattr(record, name)) is not None:
            value = np.array(value, dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(record, name, value)


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
        _require_counts(self, k=2)
        _require_positive(
            self, f_t="carrier frequency", b="signal bandwidth", r="link distance",
            p_in_tot="input power", t_temp="noise temperature",
        )
        if self.k % 2 != 0:
            raise ValueError(f"k must be even, got {self.k}")
        if self.b >= 2 * self.f_t:
            raise ValueError("signal bandwidth must keep subcarrier frequencies positive")
        if abs(self.phi_t) >= math.pi / 2:
            raise ValueError("steering angle must satisfy |phi_t| < pi/2")
        if not 0 < self.g_dma <= 1:
            raise ValueError("DMA efficiency loss must lie in (0, 1]")

    @property
    def p_in(self) -> float:
        """Per-subcarrier input power [W]."""
        return self.p_in_tot / self.k

    @cached_property
    def frequencies(self) -> np.ndarray:
        """The scenario's subcarrier frequencies: built on first use and kept, so every layer reads this one array."""
        return subcarrier_grid(self)


@dataclass(frozen=True)
class DmaDesign:
    """Physical DMA design parameters.

    The damping factor is derived from the quality factor at the design
    carrier, Gamma = 2*pi*f_t / q [rad/s]. There is no coupling factor: it
    cancels in every normalized weight.
    """

    n_slot: int = 32  # element count
    d_x: float = 0.005  # element spacing [m]
    q: float = 100.0  # quality factor at f_t
    f_t: float = 15e9  # design carrier frequency [Hz]
    b_tune: float = 2e9  # resonant-frequency tuning bandwidth [Hz]
    lambda_frac: float = 0.9  # fractional radiated power, in (0, 1)
    eps_r: float = 2.1  # substrate permittivity factor
    f_c10: float = 10e9  # waveguide cutoff frequency [Hz]

    def __post_init__(self):
        _require_finite(self)
        _require_counts(self, n_slot=1)
        _require_positive(
            self, d_x="element spacing", q="quality factor", f_t="design carrier",
            eps_r="substrate permittivity factor", f_c10="waveguide cutoff",
        )
        if not 0 < self.gamma < math.inf:  # q far from f_t overflows or underflows it
            raise ValueError("damping factor 2*pi*f_t/q must be finite and positive")
        if self.b_tune < 0:
            raise ValueError("tuning bandwidth must be non-negative")
        if self.b_tune >= 2 * self.f_t:
            raise ValueError("tuning bandwidth must keep resonant frequencies positive")
        if not 0 < self.lambda_frac < 1:
            raise ValueError("fractional radiated power must lie in (0, 1)")
        if 1.0 - self.lambda_frac == 1.0:  # the leakage design would radiate nothing
            raise ValueError("fractional radiated power is too small: 1 - lambda rounds to 1")
        if self.f_c10 >= self.f_t:
            raise ValueError("waveguide cutoff must lie below the design carrier")

    @property
    def gamma(self) -> float:
        """Damping factor [rad/s]."""
        return 2 * math.pi * self.f_t / self.q


def subcarrier_grid(cfg: ScenarioConfig) -> np.ndarray:
    """The read-only subcarrier frequencies f = f_t + (b/k)*(i - k/2) for i = 0..k-1 [Hz].

    The center subcarrier (index k//2) equals the carrier to full floating
    precision by construction. A carrier far above the bandwidth can round
    neighbouring subcarriers together, and one near the float limit can
    overflow the band: both are rejected.
    """
    with np.errstate(over="ignore"):  # an overflowed band fails the check below, as one error
        f = cfg.f_t + (cfg.b / cfg.k) * (np.arange(cfg.k) - cfg.k // 2)
    if not (math.isfinite(f[-1]) and (f[1:] > f[:-1]).all()):  # only the top end can overflow
        raise ValueError("subcarrier frequencies must be finite and strictly increasing")
    f.flags.writeable = False
    return f


def waveguide_beta(f, design: DmaDesign):
    """Waveguide phase constant (2*pi*eps_r/c)*sqrt(f^2 - f_c10^2) [rad/m].

    Accepts a scalar or array frequency; every frequency must lie above the
    cutoff f_c10.
    """
    f = np.asarray(f, dtype=float)
    if not np.all(f > design.f_c10):
        raise ValueError("frequency at or below waveguide cutoff")
    return (2 * math.pi * design.eps_r / C_LIGHT) * np.sqrt(f * f - design.f_c10**2)


def leakage_constant(design: DmaDesign) -> float:
    """Leakage constant alpha_g = -ln(1 - Lambda) / (2*d_x*(n_slot - 1)) [Np/m].

    Positive by convention so the aperture taper exp(-alpha_g * x) decays.
    Held frequency-flat at its design value across the band.
    """
    if design.n_slot < 2:
        raise ValueError("leakage design undefined for a single element")
    alpha = -math.log(1.0 - design.lambda_frac) / (2.0 * design.d_x * (design.n_slot - 1))
    if math.isinf(alpha):
        raise ValueError("element spacing too small: the leakage constant overflows")
    return alpha


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
    if not (np.all(np.asarray(f) > 0) and r > 0):
        raise ValueError("frequency and distance must be positive")
    return (C_LIGHT / (4 * math.pi * r * np.asarray(f, dtype=float))) ** 2


def noise_power(cfg: ScenarioConfig) -> float:
    """Per-subcarrier noise power k_B * T * (b/k) [W]."""
    return K_BOLTZ * cfg.t_temp * cfg.b / cfg.k


def wavelength(f: float) -> float:
    """Free-space wavelength [m]."""
    return C_LIGHT / f


# Flat key=value config file schema, SI units: key -> (field, description).
# Each key is also a CLI override flag: "--" + key.lower() with "_" -> "-".
# f_t is a field of both ScenarioConfig and DmaDesign, so its one key sets both carriers.
_CONFIG_KEYS = {
    "f_t": ("f_t", "carrier frequency [Hz]"),
    "B": ("b", "signal bandwidth [Hz]"),
    "K": ("k", "subcarrier count (even)"),
    "phi_t": ("phi_t", "steering angle [rad]"),
    "r": ("r", "link distance [m]"),
    "P_in_tot": ("p_in_tot", "total input power [W]"),
    "T_temp": ("t_temp", "noise temperature [K]"),
    "G_dma": ("g_dma", "DMA efficiency loss, linear"),
    "N_slot": ("n_slot", "DMA element count"),
    "d_x": ("d_x", "element spacing [m]"),
    "Q": ("q", "quality factor at the carrier"),
    "B_tune": ("b_tune", "tuning bandwidth [Hz]"),
    "Lambda": ("lambda_frac", "fractional radiated power in (0, 1)"),
    "eps_r": ("eps_r", "substrate permittivity factor"),
    "f_c10": ("f_c10", "waveguide cutoff frequency [Hz]"),
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

    Unknown keys and keys set twice are rejected, and missing keys fall back
    to the defaults above. The one f_t key sets both carriers.
    """
    read: dict = {}  # field -> value
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            field = _CONFIG_KEYS[key][0]
            if field in read:
                raise ValueError(f"{path}:{lineno}: config key {key!r} set twice")
            try:
                read[field] = _config_value(key, field, text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return tuple(cls(**{f.name: read[f.name] for f in fields(cls) if f.name in read}) for cls in (ScenarioConfig, DmaDesign))


def save_config(path, cfg: ScenarioConfig, design: DmaDesign) -> None:
    """Write a config in the flat key=value schema that load_config reads; its one f_t is both carriers."""
    if design.f_t != cfg.f_t:
        raise ValueError(f"design carrier {design.f_t!r} differs from scenario carrier {cfg.f_t!r}; a config holds one f_t")
    values = {**asdict(cfg), **asdict(design)}  # fields only, not the kept frequencies
    lines = [f"{key} = {values[field]!r}" for key, (field, _) in _CONFIG_KEYS.items()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def override_fields(obj, **overrides):
    """Return a copy of a frozen config dataclass with the non-None overrides replaced (and validated)."""
    return replace(obj, **{k: v for k, v in overrides.items() if v is not None})
