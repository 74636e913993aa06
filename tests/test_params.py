import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmasim import (
    C_LIGHT,
    DmaDesign,
    ScenarioConfig,
    array_response,
    leakage_constant,
    load_config,
    noise_power,
    override_fields,
    path_loss,
    radiated_fraction,
    save_config,
    subcarrier_grid,
    waveguide_beta,
)


class TestSubcarrierGrid:
    def test_two_point_grid(self):
        grid = subcarrier_grid(ScenarioConfig(f_t=15e9, b=1e9, k=2))
        np.testing.assert_allclose(grid, [14.5e9, 15.0e9], rtol=0)
        assert grid[1] == 15e9

    def test_four_point_grid(self):
        # construction guarantee: spacing b/k and frequencies[k//2] == f_t
        grid = subcarrier_grid(ScenarioConfig(f_t=15e9, b=0.4e9, k=4))
        np.testing.assert_allclose(grid, [14.8e9, 14.9e9, 15.0e9, 15.1e9], rtol=1e-15)
        assert grid[2] == 15e9

    @pytest.mark.parametrize("f_t,b,k", [(15e9, 1e9, 64), (28e9, 2e9, 128), (3e9, 1e8, 2)])
    def test_center_is_exactly_the_carrier(self, f_t, b, k):
        assert subcarrier_grid(ScenarioConfig(f_t=f_t, b=b, k=k))[k // 2] == f_t

    def test_builds_a_fresh_read_only_array(self):
        # the kept copy is the scenario's; each call builds another, equal and just as read-only
        cfg = ScenarioConfig(k=8)
        grid = subcarrier_grid(cfg)
        assert grid is not cfg.frequencies and np.array_equal(grid, cfg.frequencies)
        assert not grid.flags.writeable

    def test_center_index_is_derived(self):
        # every layer reads the center subcarrier as f_t or row k//2: the two are one value
        cfg = ScenarioConfig(k=8)
        assert cfg.frequencies[cfg.k // 2] == cfg.f_t == 15e9

    @pytest.mark.parametrize("f_t,b", [(1e20, 1e3), (1.7e308, 1.7e308)], ids=["merged", "overflow"])
    def test_rejects_merged_or_infinite_subcarriers(self, f_t, b):
        # a valid scenario whose subcarriers round together (1e3 Hz apart at 1e20 Hz) or overflow the float range
        cfg = ScenarioConfig(f_t=f_t, b=b, k=8)
        with pytest.raises(ValueError, match="^subcarrier frequencies must be finite and strictly increasing$"):
            cfg.frequencies

    def test_uniform_spacing(self):
        cfg = ScenarioConfig(f_t=15e9, b=1e9, k=64)
        diffs = np.diff(subcarrier_grid(cfg))
        np.testing.assert_allclose(diffs, cfg.b / cfg.k, rtol=1e-12)
        assert np.all(diffs > 0)

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

    def test_smallest_radiated_fraction_still_radiates(self):
        # 1 - 1e-16 is still below 1, so the taper keeps a nonzero radiated fraction
        assert radiated_fraction(DmaDesign(lambda_frac=1e-16)) > 0.0

    def test_single_element_rejected(self):
        with pytest.raises(ValueError):
            leakage_constant(DmaDesign(n_slot=1))

    def test_overflow_rejected(self):
        # a denormal spacing puts alpha_g past the float range; the taper would be 0 * inf = NaN at the feed
        with pytest.raises(ValueError, match="^element spacing too small: the leakage constant overflows$"):
            leakage_constant(DmaDesign(n_slot=8, d_x=1e-320))

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


class TestConfigFile:
    def test_round_trip(self, tmp_path, cfg, design):
        path = tmp_path / "scenario.cfg"
        cfg2 = override_fields(cfg, b=2e9, k=32, phi_t=0.1)
        design2 = override_fields(design, n_slot=24, lambda_frac=0.5)
        save_config(path, cfg2, design2)
        loaded_cfg, loaded_design = load_config(path)
        assert loaded_cfg == cfg2
        assert loaded_design == design2

    def test_kept_subcarrier_grid_is_not_a_field(self, tmp_path):
        cfg = ScenarioConfig(k=16)
        np.testing.assert_array_equal(cfg.frequencies, subcarrier_grid(cfg))
        assert cfg.frequencies is cfg.frequencies  # derived once, then kept
        fresh = ScenarioConfig(k=16)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert override_fields(cfg, k=32).frequencies.size == 32  # a copy derives its own
        path = tmp_path / "scenario.cfg"
        save_config(path, cfg, DmaDesign())
        assert load_config(path) == (cfg, DmaDesign())

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
        assert design.f_t == 12e9  # the one f_t key sets both carriers
        assert design.n_slot == DmaDesign().n_slot

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_key_set_twice_rejected(self, tmp_path):
        # the later line used to win silently
        path = tmp_path / "twice.cfg"
        path.write_text("K = 8\n# again\nK = 16\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: config key 'K' set twice$"):
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
            {"b": 30e9},  # the lowest subcarrier f_t - b/2 would sit at 0 Hz
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
            {"lambda_frac": 1e-17},  # 1 - lambda rounds to 1: nothing would radiate
            {"f_c10": 20e9},
            {"n_slot": 2.5},  # unchecked, a 3-element channel beside a 1.5-element leakage design
            {"eps_r": 0.0},
            {"eps_r": -1.0},
            {"f_c10": 0.0},
            {"f_c10": -1e9},  # the waveguide reads f_c10 only squared: unchecked, the mirror of 1e9
            {"q": 1e-300},  # the damping factor 2*pi*f_t/q overflows to inf
            {"q": 1e300, "f_t": 1e-300, "f_c10": 1e-301, "b_tune": 0.0},  # and underflows to 0
        ],
    )
    def test_design_invariants(self, kwargs):
        with pytest.raises(ValueError):
            DmaDesign(**kwargs)

    @pytest.mark.parametrize(
        "call,message",
        [
            pytest.param(lambda: path_loss(15e9, math.nan), "frequency and distance must be positive", id="path_loss-r"),
            pytest.param(lambda: path_loss(math.nan, 100.0), "frequency and distance must be positive", id="path_loss-f"),
            pytest.param(lambda: waveguide_beta(math.nan, DmaDesign()), "frequency at or below waveguide cutoff", id="beta"),
            pytest.param(
                lambda: waveguide_beta(np.array([15e9, math.nan]), DmaDesign()),
                "frequency at or below waveguide cutoff",
                id="beta-array",
            ),
            pytest.param(
                lambda: array_response(math.nan, 15e9, DmaDesign(n_slot=2)),
                r"steering angle must satisfy \|phi_t\| < pi/2",
                id="array_response",
            ),
        ],
    )
    def test_nan_fails_the_range_checks(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("cls,field,low", [(ScenarioConfig, "k", 2), (DmaDesign, "n_slot", 1)])
    def test_counts_must_be_integral(self, cls, field, low):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {low}, got 2.5$"):
            cls(**{field: 2.5})
        assert type(getattr(cls(**{field: 8.0}), field)) is int  # an integral float is kept as its int

    @pytest.mark.parametrize("cls", [ScenarioConfig, DmaDesign])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, cls, bad):
        for field in fields(cls):
            with pytest.raises(ValueError, match=f"{field.name} must be finite"):
                cls(**{field.name: bad})
