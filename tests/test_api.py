import argparse
import contextlib
import dataclasses
import io
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import dmasim
from dmasim.cli import build_parser, main
from dmasim.experiments import KINDS, read_body
from dmasim.params import _CONFIG_KEYS

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
    "array_response",
    "center_frequency_beamformer",
    "dma_weight_matrix",
    "effective_channel",
    "fill_penalty",
    "gain_breakdown",
    "gain_profile",
    "gain_spectrum",
    "leakage_constant",
    "leakage_penalty",
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
    assert {"dmasim.save_config", "dmasim.metrics.ALGORITHMS", "dmasim.experiments.read_body"} <= names
    for name in sorted(names):
        pkgutil.resolve_name(name)


# The settable surface. Every setting changes some output of a kind that
# accepts it; a setting joins with that output and leaves when it has none.
SCENARIO_FLAGS = ["--f-t", "--b", "--k", "--phi-t", "--r", "--p-in-tot", "--t-temp", "--g-dma"]
DESIGN_FLAGS = ["--n-slot", "--d-x", "--q", "--b-tune", "--lambda", "--eps-r", "--f-c10"]  # --f-t is shared
COMMON_FLAGS = ["--config", "--out", "--axis", "--r-res", *SCENARIO_FLAGS, *DESIGN_FLAGS]
MONTE_CARLO_FLAGS = ["--trials", "--seed", "--pin-los"]
# the flags a kind lacks among COMMON_FLAGS: the field it sweeps, or what it fixes itself
WITHOUT = {
    "validate-approx": ["--b", "--k", "--b-tune", "--r", "--p-in-tot", "--t-temp", "--g-dma"],
    "sweep-bandwidth": [],
    "sweep-tuning": ["--b-tune"],
    "sweep-lambda": ["--lambda"],
    "sweep-angle": ["--phi-t"],
    "sweep-spacing": [],
    "sweep-damping": ["--q"],
    "max-rate": ["--b", "--b-tune"],
    "multipath-mc": [],
}


def _option_strings(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        kind: [s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings]
        for kind, p in sub.choices.items()
    }


def test_cli_options_are_pinned():
    options = _option_strings(build_parser())
    assert list(options) == list(KINDS) == list(WITHOUT)
    for kind, strings in options.items():
        expected = [flag for flag in COMMON_FLAGS if flag not in WITHOUT[kind]]
        expected += MONTE_CARLO_FLAGS if kind == "multipath-mc" else []
        assert sorted(strings) == sorted(expected), kind
    assert sum(map(len, options.values())) == 161
    assert len(_CONFIG_KEYS) == 15  # one f_t key sets both carriers


# A moved value per flag: each differs from the default (or the base run's
# value) and keeps every kind valid at the small size.
MOVED = {
    "--r-res": "41",
    "--trials": "2",
    "--seed": "1",
    "--pin-los": None,
    "--f-t": "16e9",
    "--b": "4e8",
    "--k": "6",
    "--phi-t": "0.2",
    "--r": "50",
    "--p-in-tot": "2",
    "--t-temp": "400",
    "--g-dma": "0.5",
    "--n-slot": "6",
    "--d-x": "0.004",
    "--q": "70",
    "--b-tune": "1e9",
    "--lambda": "0.5",
    "--eps-r": "2.5",
    "--f-c10": "9e9",
}
MOVED_AXIS = {
    "validate-approx": "1e9",
    "sweep-bandwidth": "1e8",
    "sweep-tuning": "1e9",
    "sweep-lambda": "0.5",
    "sweep-angle": "0.1",
    "sweep-spacing": "0.004",
    "sweep-damping": "70",
    "max-rate": "1e9",
    "multipath-mc": "3",
}


def _bodies(argv: list[str], out: Path) -> dict:
    """Run one CLI job; return {file name: CSV body without the timestamp line}."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0, argv
    return {path.name: read_body(path) for path in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("kind", KINDS)
def test_every_flag_moves_an_output(tmp_path, kind):
    # a kind takes a flag only if some CSV body depends on it, at the small size
    flags = [s for s in _option_strings(build_parser())[kind] if s not in ("--config", "--out")]
    base = [kind, "--n-slot", "8", "--r-res", "51"]
    base += ["--k", "8"] if "--k" in flags else []
    base += ["--trials", "3"] if "--trials" in flags else []
    bodies: dict = {}

    def run(argv: list[str]) -> dict:
        if tuple(argv) not in bodies:
            bodies[tuple(argv)] = _bodies(argv, tmp_path / str(len(bodies)))
        return bodies[tuple(argv)]

    without_effect = []
    for flag in flags:
        # the LOS angle reaches a multipath channel only through its pinned first path
        start = [*base, "--pin-los"] if (kind, flag) == ("multipath-mc", "--phi-t") else base
        value = MOVED_AXIS[kind] if flag == "--axis" else MOVED[flag]
        if run([*start, flag] if value is None else [*start, flag, value]) == run(start):
            without_effect.append(flag)
    assert without_effect == []


def test_config_fields_are_pinned():
    design_fields = [f.name for f in dataclasses.fields(dmasim.DmaDesign)]
    assert design_fields == ["n_slot", "d_x", "q", "f_t", "b_tune", "lambda_frac", "eps_r", "f_c10"]
    assert [f.name for f in dataclasses.fields(dmasim.MultipathSpec)] == ["l_path", "seed", "pin_first_to_los"]
    assert [f.name for f in dataclasses.fields(dmasim.ResonanceGrid)] == ["values", "design", "cfg"]
    # h and the scenario it was built for; no phase table and no taper (the design's): the benchmark's patch tracer
    # still reads both attributes, always None
    assert [f.name for f in dataclasses.fields(dmasim.ChannelSet)] == ["h", "cfg"]
    assert dmasim.ChannelSet.phases is None and dmasim.ChannelSet.h_att is None


# The value types: each builder gets one writable base array and passes views
# of it as every array field.
RECORDS = {
    "ResonanceGrid": (
        float,
        lambda v: dmasim.ResonanceGrid(values=v, design=dmasim.DmaDesign(), cfg=dmasim.ScenarioConfig(k=8)),
    ),
    "ResonanceConfiguration": (float, lambda v: dmasim.ResonanceConfiguration(f_r=v)),
    "GainSpectrum": (float, lambda v: dmasim.GainSpectrum(gain=v, rho=v[1:], se=v[::2], g_sum=1.0, capacity=1.0, rate=1.0)),
    "ApproxBreakdown": (float, lambda v: dmasim.ApproxBreakdown(squint_gain=v, fill_penalty=1.0, leakage_penalty=1.0, product=v[1:])),
    "ChannelSet": (
        complex,
        lambda v: dmasim.ChannelSet(h=v.reshape(2, 4), cfg=dmasim.ScenarioConfig(k=2)),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_hold_read_only_copies(name):
    # a record built from a view must not change when the caller writes the base,
    # and must leave the caller's array writable
    dtype, build = RECORDS[name]
    base = np.arange(1.0, 9.0) * (1 + 1j if dtype is complex else 1)
    view = base[:]
    record = build(view)
    arrays = {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if isinstance(getattr(record, f.name), np.ndarray)}
    kept = {field: array.copy() for field, array in arrays.items()}
    base[:] = 0
    assert arrays and view.flags.writeable and base.flags.writeable
    for field, array in arrays.items():
        assert np.array_equal(array, kept[field]) and not array.flags.writeable, field


def test_scenario_frequencies_are_read_only():
    # every channel and resonance grid of a scenario reads its one kept frequency array: a write would move them all
    cfg = dmasim.ScenarioConfig(k=8)
    with pytest.raises(ValueError, match="read-only"):
        cfg.frequencies[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.frequencies = np.zeros(8)
    assert np.array_equal(cfg.frequencies, dmasim.subcarrier_grid(cfg))


_DESIGN = dmasim.DmaDesign()
# Functions of one frequency-like argument, scalar or array: a scalar gives a float or a complex
SCALAR_IN_SCALAR_OUT = {
    "waveguide_beta": lambda f: dmasim.waveguide_beta(f, _DESIGN),
    "path_loss": lambda f: dmasim.path_loss(f, 100.0),
    "normalized_polarizability": lambda f: dmasim.normalized_polarizability(f, 15.2e9, _DESIGN),
    "linear_phase_approx": lambda f: dmasim.linear_phase_approx(f, 15.2e9, _DESIGN),
    "lorentzian_weight": lambda f: dmasim.lorentzian_weight(f / 1e10),
    "squint_gain_from_phase": lambda f: dmasim.squint_gain_from_phase(f / 1e10, 32),
}


@pytest.mark.parametrize("name", sorted(SCALAR_IN_SCALAR_OUT))
def test_scalar_input_gives_a_python_number(name):
    fn = SCALAR_IN_SCALAR_OUT[name]
    freqs = np.array([14.7e9, 15e9, 15.3e9])
    value = fn(float(freqs[0]))
    assert isinstance(value, (float, complex)) and value == fn(freqs)[0]
