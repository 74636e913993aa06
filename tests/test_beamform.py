import math

import numpy as np
import pytest

from dmasim import (
    ChannelSet,
    ResonanceGrid,
    SubcarrierGrid,
    center_frequency_beamformer,
    center_frequency_tuning,
    default_grid,
    effective_channel,
    lorentzian_weight,
    normalized_polarizability,
    override_fields,
    phased_array_weights,
    resonance_grid,
    snr_profile,
    subcarrier_grid,
    successive_beamformer,
    tuning_range,
)


def make_channelset(h, grid, h_att=None, phases=None):
    h = np.asarray(h, dtype=complex)
    if h_att is None:
        h_att = np.ones(h.shape[1])
    return ChannelSet(h=h, h_att=np.asarray(h_att, dtype=float), grid=grid, phases=phases)


def two_point_grid(f_t=15e9, b=1e9):
    freqs = np.array([f_t - b / 2, f_t])
    return SubcarrierGrid(frequencies=freqs, center_index=1)


class TestResonanceGrid:
    def test_endpoints_and_spacing(self, design):
        grid = resonance_grid(tuning_range(design), 101)
        assert grid.values[0] == design.f_t - design.b_tune / 2
        assert grid.values[-1] == design.f_t + design.b_tune / 2
        np.testing.assert_allclose(np.diff(grid.values), design.b_tune / 100, rtol=1e-12)

    def test_single_point_sits_at_center(self, design):
        grid = resonance_grid(tuning_range(design), 1)
        np.testing.assert_array_equal(grid.values, [design.f_t])

    def test_rejects_empty(self, design):
        with pytest.raises(ValueError):
            resonance_grid(tuning_range(design), 0)


class TestCenterFrequencyBeamformer:
    def test_resonant_target_lands_on_carrier(self, design):
        # channel phase pi/2 makes the conjugate target exactly -j, which the
        # weight reaches at resonance; an odd grid contains f_t exactly
        grid = two_point_grid()
        h = np.tile(np.exp(1j * math.pi / 2), (2, design.n_slot))
        channels = make_channelset(h, grid)
        res = center_frequency_beamformer(channels, default_grid(design, 1001), design)
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_zero_tuning_bandwidth_pins_to_carrier(self, cfg, design):
        d0 = override_fields(design, b_tune=0.0)
        channels = effective_channel(cfg, d0)
        res = center_frequency_beamformer(channels, default_grid(d0, 51), d0)
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_matches_bruteforce_oracle(self, cfg, design):
        d2 = override_fields(design, n_slot=2)
        cfg2 = override_fields(cfg, k=2)
        channels = effective_channel(cfg2, d2)
        grid = default_grid(d2, 101)
        res = center_frequency_beamformer(channels, grid, d2)
        kc = channels.grid.center_index
        for n in range(2):
            target = lorentzian_weight(np.angle(np.conj(channels.h[kc, n])))
            best_idx, best_val = 0, float("inf")
            for i, f_r in enumerate(grid.values):
                val = abs(target - normalized_polarizability(channels.grid.f_center, f_r, d2))
                if val < best_val:  # strict: keeps the first (lowest) grid point
                    best_idx, best_val = i, val
            assert res.f_r[n] == grid.values[best_idx]

    def test_tie_breaks_toward_lower_resonance(self, design):
        # duplicated grid values produce an exact tie; the first (lower) wins
        grid = ResonanceGrid(values=np.array([14.9e9, 14.9e9, 15.1e9]), r_res=3)
        channels = make_channelset(np.ones((2, 3)), two_point_grid())
        res = center_frequency_beamformer(channels, grid, design)
        assert set(res.f_r) <= {14.9e9, 15.1e9}
        # a target reached equally by both duplicates resolves to index 0
        h = np.tile(np.exp(1j * math.pi / 2), (2, 1))
        res2 = center_frequency_beamformer(make_channelset(h, two_point_grid()), grid, design)
        assert res2.f_r[0] == 14.9e9

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ResonanceGrid(values=np.array([]), r_res=0)

    def test_deterministic(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = default_grid(design, 501)
        a = center_frequency_beamformer(channels, grid, design)
        b = center_frequency_beamformer(channels, grid, design)
        np.testing.assert_array_equal(a.f_r, b.f_r)

    def test_stays_in_range(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_beamformer(channels, default_grid(design, 257), design)
        assert tuning_range(design).contains(res.f_r)


class TestCenterFrequencyTuning:
    def test_zero_phase_gives_carrier(self, design):
        grid = two_point_grid()
        channels = make_channelset(np.ones((2, design.n_slot)), grid, phases=np.zeros((2, design.n_slot)))
        res = center_frequency_tuning(channels, design)
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, 15e9))

    def test_minus_pi_phase_shifts_by_an_eighth_linewidth(self, design):
        grid = two_point_grid()
        phases = np.full((2, 1), -math.pi)
        channels = make_channelset(np.ones((2, 1)), grid, phases=phases)
        res = center_frequency_tuning(channels, design)
        assert res.f_r[0] == pytest.approx(15e9 + design.gamma / 8, rel=1e-12)

    def test_default_scenario_second_element(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_tuning(channels, design)
        assert res.f_r[1] == pytest.approx(15112347342.775878, rel=1e-12)

    def test_requires_unwrapped_phases(self, cfg, design):
        channels = effective_channel(cfg, design)
        stripped = ChannelSet(h=channels.h, h_att=channels.h_att, grid=channels.grid, phases=None)
        with pytest.raises(ValueError):
            center_frequency_tuning(stripped, design)


class TestSuccessiveBeamformer:
    def test_single_element_single_subcarrier_maximizes_gain(self, design):
        d1 = override_fields(design, n_slot=1)
        grid_1k = SubcarrierGrid(frequencies=np.array([15e9]), center_index=0)
        channels = make_channelset(np.exp(1j * 0.7) * np.ones((1, 1)), grid_1k)
        grid = default_grid(d1, 201)
        res = successive_beamformer(channels, np.array([5.0]), grid, d1)
        gains = np.abs(normalized_polarizability(15e9, grid.values, d1) * channels.h[0, 0])
        assert res.f_r[0] == grid.values[int(np.argmax(gains))]

    def test_matches_stagewise_bruteforce_oracle(self, cfg, design):
        d2 = override_fields(design, n_slot=2)
        cfg2 = override_fields(cfg, k=2)
        channels = effective_channel(cfg2, d2)
        rho = snr_profile(cfg2)
        grid = default_grid(d2, 51)
        res = successive_beamformer(channels, rho, grid, d2)

        freqs = channels.grid.frequencies
        running = np.zeros(2, dtype=complex)
        for n in range(2):
            best_idx, best_val = 0, -float("inf")
            for i, f_r in enumerate(grid.values):
                u = np.array(
                    [
                        normalized_polarizability(f, f_r, d2) * channels.h_att[n] * channels.h[k, n]
                        for k, f in enumerate(freqs)
                    ]
                )
                val = float(np.mean(np.log2(1 + rho * np.abs(u + running) ** 2)))
                if val > best_val:  # strict: keeps the first (lowest) grid point
                    best_idx, best_val = i, val
            assert res.f_r[n] == grid.values[best_idx]
            f_star = grid.values[best_idx]
            running += np.array(
                [
                    normalized_polarizability(f, f_star, d2) * channels.h_att[n] * channels.h[k, n]
                    for k, f in enumerate(freqs)
                ]
            )

    def test_degenerate_grid_pins_every_element(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = default_grid(design, 1)
        res = successive_beamformer(channels, snr_profile(cfg), grid, design)
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_selected_point_beats_worst_grid_point(self, cfg, design):
        # sanity floor implied by the argmax construction, checked explicitly
        d4 = override_fields(design, n_slot=4)
        cfg4 = override_fields(cfg, k=4)
        channels = effective_channel(cfg4, d4)
        rho = snr_profile(cfg4)
        grid = default_grid(d4, 31)
        res = successive_beamformer(channels, rho, grid, d4)
        freqs = channels.grid.frequencies
        running = np.zeros(4, dtype=complex)
        for n in range(4):
            def objective(f_r):
                u = normalized_polarizability(freqs, f_r, d4) * channels.h_att[n] * channels.h[:, n]
                return float(np.mean(np.log2(1 + rho * np.abs(u + running) ** 2)))

            best = objective(res.f_r[n])
            assert all(best >= objective(f_r) - 1e-12 for f_r in grid.values)
            running += normalized_polarizability(freqs, res.f_r[n], d4) * channels.h_att[n] * channels.h[:, n]

    def test_deterministic_and_in_range(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = default_grid(design, 101)
        rho = snr_profile(cfg)
        a = successive_beamformer(channels, rho, grid, design)
        b = successive_beamformer(channels, rho, grid, design)
        np.testing.assert_array_equal(a.f_r, b.f_r)
        assert tuning_range(design).contains(a.f_r)

    def test_rejects_mismatched_snr(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            successive_beamformer(channels, np.ones(3), default_grid(design, 11), design)


def test_resonance_csv_export(tmp_path, cfg, design):
    from dmasim import export_resonances_csv

    channels = effective_channel(cfg, design)
    res = center_frequency_beamformer(channels, default_grid(design, 101), design)
    path = tmp_path / "resonances.csv"
    export_resonances_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,f_r"
    assert len(lines) == 1 + design.n_slot
    n, f_r = lines[5].split(",")
    assert int(n) == 4 and float(f_r) == res.f_r[4]


class TestPhasedArrayWeights:
    def test_unit_modulus_and_center_match(self, cfg, design):
        channels = effective_channel(cfg, design)
        w = phased_array_weights(channels)
        np.testing.assert_allclose(np.abs(w), 1.0, rtol=0, atol=1e-12)
        kc = channels.grid.center_index
        prod = channels.h[kc] * w[kc]
        np.testing.assert_allclose(prod, 1.0, rtol=0, atol=1e-12)

    def test_same_vector_for_all_subcarriers(self, cfg, design):
        w = phased_array_weights(effective_channel(cfg, design))
        np.testing.assert_array_equal(w, np.tile(w[0], (cfg.k, 1)))
