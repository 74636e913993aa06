import argparse
import dataclasses
import pkgutil
import re
import types
from pathlib import Path

import dmasim
from dmasim.cli import build_parser
from dmasim.experiments import KINDS

README = Path(__file__).resolve().parent.parent / "README.md"

# The public API. A name joins this set with a caller in src or an acceptance
# criterion that needs it, and leaves it with a note in CHANGES.md.
EXPORTED = {
    "ApproxBreakdown",
    "C_LIGHT",
    "ChannelSet",
    "DmaDesign",
    "ExperimentPlan",
    "GainSpectrum",
    "K_BOLTZ",
    "MultipathSpec",
    "ResonanceConfiguration",
    "ResonanceGrid",
    "ScenarioConfig",
    "SubcarrierGrid",
    "TuningRange",
    "angular_fill",
    "array_response",
    "center_frequency_beamformer",
    "channel_phase_step",
    "default_grid",
    "dma_weight_matrix",
    "effective_channel",
    "fill_penalty",
    "fill_penalty_mc_stderr",
    "gain_breakdown",
    "gain_profile",
    "gain_spectrum",
    "leakage_constant",
    "leakage_penalty",
    "leakage_penalty_exact",
    "leakage_vector",
    "linear_phase_approx",
    "load_config",
    "lorentzian_weight",
    "multipath_channel",
    "noise_power",
    "normalized_polarizability",
    "override_fields",
    "path_loss",
    "phase_fill_ratio",
    "polarizability_phase",
    "power_normalized_gain",
    "radiated_fraction",
    "resonance_grid",
    "resonance_spectrum",
    "run_beamformer",
    "run_plan",
    "save_config",
    "snr_profile",
    "squint_gain_from_phase",
    "squint_phase_profile",
    "subcarrier_grid",
    "successive_beamformer",
    "tuning_range",
    "waveguide_beta",
    "waveguide_phase_vector",
    "wavelength",
}


def test_exported_names_are_pinned():
    assert set(dmasim.__all__) == EXPORTED
    namespace: dict = {}
    exec("from dmasim import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_readme_names_resolve():
    # every dotted dmasim reference in the README names something that exists
    names = set(re.findall(r"\bdmasim(?:\.[A-Za-z_]\w*)+", README.read_text(encoding="utf-8")))
    assert "dmasim.save_config" in names
    for name in sorted(names):
        pkgutil.resolve_name(name)


# The settable surface. Every setting changes some output of a kind that
# accepts it; a setting joins with that output and leaves when it has none.
SCENARIO_FLAGS = ["--f-t", "--b", "--k", "--phi-t", "--r", "--p-in-tot", "--t-temp", "--g-dma"]
DESIGN_FLAGS = ["--n-slot", "--d-x", "--q", "--b-tune", "--lambda", "--eps-r", "--f-c10"]  # --f-t is shared
COMMON_FLAGS = ["--config", "--out", "--axis", "--r-res", *SCENARIO_FLAGS, *DESIGN_FLAGS]
MONTE_CARLO_FLAGS = ["--trials", "--seed", "--pin-los"]


def _option_strings(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        kind: [s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
        for kind, p in sub.choices.items()
    }


def test_cli_options_are_pinned():
    options = _option_strings(build_parser())
    assert list(options) == list(KINDS)
    for kind, strings in options.items():
        expected = COMMON_FLAGS + MONTE_CARLO_FLAGS if kind == "multipath-mc" else COMMON_FLAGS
        assert sorted(strings) == sorted(expected), kind
    assert sum(map(len, options.values())) == 174


def test_config_fields_are_pinned():
    design_fields = [f.name for f in dataclasses.fields(dmasim.DmaDesign)]
    assert design_fields == ["n_slot", "d_x", "q", "f_t", "b_tune", "lambda_frac", "eps_r", "f_c10"]
    assert [f.name for f in dataclasses.fields(dmasim.MultipathSpec)] == ["l_path", "seed", "pin_first_to_los"]
