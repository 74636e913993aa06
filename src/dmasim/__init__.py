"""Wideband dynamic metasurface antenna (DMA) beamforming simulator.

Models frequency-selective Lorentzian elements fed by a leaky waveguide,
evaluates link-level SNR and spectral efficiency over an OFDM grid, provides
two resonance-configuration algorithms, and a closed-form beamforming-gain
approximation; the test suite holds it to numerical oracles (tests/oracles.py).
"""

from types import ModuleType as _ModuleType

from .params import (
    C_LIGHT,
    K_BOLTZ,
    DmaDesign,
    ScenarioConfig,
    leakage_constant,
    load_config,
    noise_power,
    override_fields,
    path_loss,
    radiated_fraction,
    save_config,
    subcarrier_grid,
    waveguide_beta,
    wavelength,
)
from .element import (
    ResonanceConfiguration,
    dma_weight_matrix,
    linear_phase_approx,
    lorentzian_weight,
    normalized_polarizability,
    tuning_range,
)
from .channel import (
    ChannelSet,
    MultipathSpec,
    array_response,
    effective_channel,
    leakage_vector,
    multipath_channel,
    waveguide_phase_vector,
)
from .beamform import (
    ResonanceGrid,
    center_frequency_beamformer,
    resonance_grid,
    successive_beamformer,
)
from .approx import (
    ApproxBreakdown,
    fill_penalty,
    gain_breakdown,
    leakage_penalty,
    phase_fill_ratio,
    power_normalized_gain,
    squint_gain_from_phase,
    squint_phase_profile,
)
from .metrics import (
    GainSpectrum,
    gain_profile,
    gain_spectrum,
    resonance_spectrum,
    run_beamformer,
    snr_profile,
)
from .experiments import ExperimentPlan, run_plan

# the public names only: importing the submodules above also binds them here
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
