import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmasim import (
    C_LIGHT,
    DmaDesign,
    ScenarioConfig,
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
)


class TestSubcarrierGrid:
    def test_two_point_grid(self):
        grid = subcarrier_grid(ScenarioConfig(f_t=15e9, b=1e9, k=2))
        np.testing.assert_allclose(grid.frequencies, [14.5e9, 15.0e9], rtol=0)
        assert grid.center_index == 1
        assert grid.f_center == 15e9

    def test_four_point_grid(self):
        # construction guarantee: spacing b/k and frequencies[k//2] == f_t
        grid = subcarrier_grid(ScenarioConfig(f_t=15e9, b=0.4e9, k=4))
        np.testing.assert_allclose(grid.frequencies, [14.8e9, 14.9e9, 15.0e9, 15.1e9], rtol=1e-15)
        assert grid.frequencies[2] == 15e9

    @pytest.mark.parametrize("f_t,b,k", [(15e9, 1e9, 64), (28e9, 2e9, 128), (3e9, 1e8, 2)])
    def test_center_is_exactly_the_carrier(self, f_t, b, k):
        grid = subcarrier_grid(ScenarioConfig(f_t=f_t, b=b, k=k))
        assert grid.frequencies[k // 2] == f_t
        assert grid.center_index == k // 2

    def test_uniform_spacing(self):
        cfg = ScenarioConfig(f_t=15e9, b=1e9, k=64)
        diffs = np.diff(subcarrier_grid(cfg).frequencies)
        np.testing.assert_allclose(diffs, cfg.b / cfg.k, rtol=1e-12)
        assert np.all(diffs > 0)

    def test_compares_by_identity(self):
        # the frequency array has no truth value, so grids compare by identity and stay hashable
        a, b = subcarrier_grid(ScenarioConfig()), subcarrier_grid(ScenarioConfig())
        assert a == a and a != b and len({a, a, b}) == 2

    @pytest.mark.parametrize("k", [1, 3, 7, -2, 0])
    def test_rejects_odd_or_small_counts(self, k):
        with pytest.raises(ValueError):
            ScenarioConfig(k=k)


class TestWaveguideBeta:
    def test_algebraic_point(self):
        # f = f_c10*sqrt(2) with unit permittivity gives (2*pi/c)*f_c10
        design = DmaDesign(eps_r=1.0, f_c10=10e9)
        got = waveguide_beta(10e9 * math.sqrt(2.0), design)
        assert got == pytest.approx(2 * math.pi * 10e9 / C_LIGHT, rel=1e-12)

    def test_default_design_value(self, design):
        # frozen from independent high-precision arithmetic
        assert waveguide_beta(15e9, design) == pytest.approx(491.73703117285085, rel=1e-12)

    def test_vanishes_just_above_cutoff(self, design):
        assert 0 < waveguide_beta(design.f_c10 * (1 + 1e-12), design) < 1e-2

    def test_rejects_below_cutoff(self, design):
        for f in (design.f_c10, 0.5 * design.f_c10):
            with pytest.raises(ValueError):
                waveguide_beta(f, design)

    def test_strictly_increasing(self, design):
        f = np.linspace(design.f_c10 * 1.001, 3 * design.f_c10, 500)
        assert np.all(np.diff(waveguide_beta(f, design)) > 0)


class TestLeakageConstant:
    def test_unit_constant_inversion(self):
        d_x, n = 0.004, 16
        lam = 1.0 - math.exp(-2.0 * d_x * (n - 1))
        design = DmaDesign(n_slot=n, d_x=d_x, lambda_frac=lam)
        assert leakage_constant(design) == pytest.approx(1.0, rel=1e-12)

    def test_default_design_value(self, design):
        assert leakage_constant(design) == pytest.approx(7.42769384836789, rel=1e-12)

    def test_vanishes_with_radiated_fraction(self):
        assert leakage_constant(DmaDesign(lambda_frac=1e-12)) == pytest.approx(0.0, abs=1e-9)

    def test_single_element_rejected(self):
        with pytest.raises(ValueError):
            leakage_constant(DmaDesign(n_slot=1))

    @given(
        lam=st.floats(1e-6, 1 - 1e-6),
        d_x=st.floats(1e-4, 0.05),
        n=st.integers(2, 4096),
    )
    def test_round_trip_identity(self, lam, d_x, n):
        design = DmaDesign(n_slot=n, d_x=d_x, lambda_frac=lam)
        a = leakage_constant(design)
        assert math.exp(-2 * a * d_x * (n - 1)) == pytest.approx(1 - lam, rel=1e-12)
        assert radiated_fraction(design) == pytest.approx(lam, rel=1e-12)


class TestPathLossAndNoise:
    def test_frozen_value(self):
        assert path_loss(15e9, 100.0) == pytest.approx(2.5330295910584445e-10, rel=1e-12)

    def test_inverse_square_laws(self):
        base = path_loss(15e9, 100.0)
        assert path_loss(15e9, 200.0) == pytest.approx(base / 4, rel=1e-12)
        assert path_loss(30e9, 100.0) == pytest.approx(base / 4, rel=1e-12)

    def test_noise_frozen_value(self):
        cfg = ScenarioConfig(t_temp=290.0, b=1e9, k=1000)
        assert noise_power(cfg) == pytest.approx(4.0038821e-15, rel=1e-12)

    def test_noise_scalings(self, cfg):
        base = noise_power(cfg)
        assert noise_power(override_fields(cfg, k=2 * cfg.k)) == pytest.approx(base / 2, rel=1e-12)
        assert noise_power(override_fields(cfg, b=2 * cfg.b)) == pytest.approx(base * 2, rel=1e-12)


def test_default_design_suppresses_propagation_lobe(design):
    assert propagation_lobe_suppressed(design)
    # dropping the permittivity factor below free space flips the predicate
    assert not propagation_lobe_suppressed(override_fields(design, eps_r=0.5))


class TestConfigFile:
    def test_round_trip(self, tmp_path, cfg, design):
        path = tmp_path / "scenario.cfg"
        cfg2 = override_fields(cfg, b=2e9, k=32, phi_t=0.1)
        design2 = override_fields(design, n_slot=24, lambda_frac=0.5)
        save_config(path, cfg2, design2)
        loaded_cfg, loaded_design = load_config(path)
        assert loaded_cfg == cfg2
        assert loaded_design == design2

    def test_round_trip_shared_carrier(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        cfg2, design2 = ScenarioConfig(f_t=16e9), DmaDesign(f_t=16e9)
        save_config(path, cfg2, design2)
        assert load_config(path) == (cfg2, design2)

    def test_split_carrier_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        with pytest.raises(ValueError, match=r"16000000000\.0.*15000000000\.0"):
            save_config(path, ScenarioConfig(), DmaDesign(f_t=16e9))
        assert not path.exists()

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("# carrier\nf_t = 12e9\nK = 16  # subcarriers\n")
        cfg, design = load_config(path)
        assert cfg.f_t == 12e9 and cfg.k == 16
        assert design.f_t == 12e9  # design carrier follows the scenario
        assert design.n_slot == DmaDesign().n_slot

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("Lambda = 1.5\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("key,value", [("K", "64.9"), ("K", "inf"), ("N_slot", "nan"), ("N_slot", "31.5")])
    def test_integer_keys_must_be_integral(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# counts\n{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: {key} must be an integer"):
            load_config(path)

    def test_integral_float_spelling_accepted(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("K = 32.0\nN_slot = 1.6e1\n")
        cfg, design = load_config(path)
        assert (cfg.k, design.n_slot) == (32, 16)


def test_readme_config_block_parses(tmp_path):
    import re
    from pathlib import Path

    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Config file.*?```\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg, design = load_config(path)
    assert cfg == ScenarioConfig(phi_t=-0.349)
    assert design == DmaDesign()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_t": 0.0},
            {"b": -1.0},
            {"phi_t": math.pi / 2},
            {"r": 0.0},
            {"p_in_tot": 0.0},
            {"t_temp": -1.0},
            {"g_dma": 0.0},
            {"g_dma": 1.5},
        ],
    )
    def test_scenario_invariants(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_slot": 0},
            {"d_x": 0.0},
            {"q": 0.0},
            {"b_tune": -1.0},
            {"lambda_frac": 0.0},
            {"lambda_frac": 1.0},
            {"f_c10": 20e9},
        ],
    )
    def test_design_invariants(self, kwargs):
        with pytest.raises(ValueError):
            DmaDesign(**kwargs)

    @pytest.mark.parametrize("cls", [ScenarioConfig, DmaDesign])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, cls, bad):
        for field in fields(cls):
            with pytest.raises(ValueError, match=f"{field.name} must be finite"):
                cls(**{field.name: bad})
