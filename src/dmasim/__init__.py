"""Wideband dynamic metasurface antenna (DMA) beamforming simulator.

Models frequency-selective Lorentzian elements fed by a leaky waveguide,
evaluates link-level SNR and spectral efficiency over an OFDM grid, provides
two resonance-configuration algorithms, and a closed-form beamforming-gain
approximation with numerical oracles.
"""

from .params import (
    C_LIGHT,
    K_BOLTZ,
    DmaDesign,
    ScenarioConfig,
    SubcarrierGrid,
    leakage_constant,
    load_config,
    noise_power,
    override_fields,
    path_loss,
    propagation_lobe_suppressed,
    radiated_fraction,
    save_config,
    subcarrier_grid,
    waveguide_beta,
    wavelength,
)
from .element import (
    ResonanceConfiguration,
    TuningRange,
    dma_weight_matrix,
    linear_phase_approx,
    lorentzian_weight,
    normalized_polarizability,
    polarizability,
    polarizability_phase,
    tuning_range,
)
from .channel import (
    ChannelSet,
    MultipathSpec,
    array_response,
    channel_phase_step,
    dump_channel_csv,
    effective_channel,
    leakage_vector,
    multipath_channel,
    waveguide_phase_vector,
)
from .beamform import (
    ResonanceGrid,
    center_frequency_beamformer,
    center_frequency_tuning,
    default_grid,
    export_resonances_csv,
    phased_array_weights,
    resonance_grid,
    successive_beamformer,
)
from .approx import (
    ApproxBreakdown,
    angular_fill,
    export_breakdown_csv,
    fill_penalty,
    fill_penalty_mc,
    fill_penalty_mc_stderr,
    gain_breakdown,
    leakage_penalty,
    leakage_penalty_exact,
    phase_fill_ratio,
    power_normalized_gain,
    propagation_lobe,
    squint_gain_from_phase,
    squint_phase_profile,
)
from .metrics import (
    GainSpectrum,
    gain_profile,
    gain_spectrum,
    phased_array_spectrum,
    resonance_spectrum,
    run_beamformer,
    snr_profile,
    spectral_efficiency,
)
from .experiments import ExperimentPlan, run_plan

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
