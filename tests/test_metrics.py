import math

import numpy as np
import pytest

from dmasim import (
    DmaDesign,
    ScenarioConfig,
    SubcarrierGrid,
    center_frequency_beamformer,
    data_rate,
    default_grid,
    dma_weight_matrix,
    effective_channel,
    gain_breakdown,
    gain_profile,
    gain_spectrum,
    max_data_rate,
    noise_power,
    normalization,
    override_fields,
    path_loss,
    phased_array_spectrum,
    phased_array_weights,
    power_normalized_gain,
    radiated_fraction,
    resonance_spectrum,
    run_beamformer,
    snr_profile,
    spectral_efficiency,
    subcarrier_grid,
)
from dmasim.channel import ChannelSet


class TestSnr:
    def test_composes_prior_quantities(self, cfg):
        grid = subcarrier_grid(cfg)
        k = 5
        expected = path_loss(grid.frequencies[k], cfg.r) * cfg.g_dma * cfg.p_in / noise_power(cfg)
        assert snr_profile(cfg)[k] == expected

    def test_subcarrier_count_cancels(self, cfg):
        kc = cfg.k // 2
        doubled = override_fields(cfg, k=2 * cfg.k)
        assert snr_profile(cfg)[kc] == pytest.approx(snr_profile(doubled)[2 * kc], rel=1e-12)

    def test_distance_inverse_square(self, cfg):
        far = override_fields(cfg, r=2 * cfg.r)
        np.testing.assert_allclose(snr_profile(far), snr_profile(cfg) / 4, rtol=1e-12)


class TestNormalization:
    def test_single_element_resonant_weight(self):
        design = DmaDesign(n_slot=1)
        m = normalization(np.array([-1j]), np.array([1.0]), design)
        assert m == pytest.approx(design.lambda_frac, rel=1e-12)

    def test_weight_scaling_homogeneity(self, design, rng):
        w = rng.standard_normal(design.n_slot) + 1j * rng.standard_normal(design.n_slot)
        h_att = np.exp(-0.1 * np.arange(design.n_slot))
        m1 = normalization(w, h_att, design)
        m2 = normalization(3.0 * w, h_att, design)
        assert m2 == pytest.approx(m1 / 9.0, rel=1e-12)
        assert m1 * np.sum(np.abs(w * h_att) ** 2) == pytest.approx(m2 * np.sum(np.abs(3 * w * h_att) ** 2), rel=1e-12)

    def test_zero_norm_rejected(self, design):
        with pytest.raises(ValueError):
            normalization(np.zeros(design.n_slot), np.ones(design.n_slot), design)

    def test_power_constraint_residual(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_beamformer(channels, default_grid(design, 501), design)
        weights = dma_weight_matrix(res, channels.grid.frequencies, design)
        target = radiated_fraction(design)
        for k in range(cfg.k):
            m = normalization(weights[k], channels.h_att, design)
            residual = abs(m * np.sum(np.abs(weights[k] * channels.h_att) ** 2) - target)
            assert residual <= 1e-12


class TestBeamformingGain:
    def test_single_element_gain_is_radiated_fraction(self):
        design = DmaDesign(n_slot=1)
        grid = SubcarrierGrid(frequencies=np.array([14.5e9, 15e9]), center_index=1)
        channels = ChannelSet(h=np.ones((2, 1), dtype=complex), h_att=np.ones(1), grid=grid)
        weights = np.full((2, 1), -1j)
        assert gain_profile(channels, weights, design)[1] == pytest.approx(design.lambda_frac, rel=1e-12)

    def test_matched_filter_reaches_coherent_ceiling(self, cfg):
        # with a vanishing taper the normalized gain approaches Lambda * n_slot
        design = DmaDesign(lambda_frac=1e-9)
        channels = effective_channel(cfg, design)
        weights = np.conj(channels.h)
        gain = gain_profile(channels, weights, design)
        np.testing.assert_allclose(gain, radiated_fraction(design) * design.n_slot, rtol=1e-6)

    def test_center_subcarrier_tracks_approximation(self, cfg, design):
        # cross-module: normalized simulated gain vs power-normalized product
        channels = effective_channel(cfg, design)
        _, spectrum = run_beamformer("center-frequency", channels, cfg, design)
        predicted = power_normalized_gain(gain_breakdown(cfg, design), design)
        kc = cfg.k // 2
        assert spectrum.gain[kc] == pytest.approx(predicted[kc], rel=0.10)

    def test_dimension_mismatch_rejected(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            gain_profile(channels, np.ones((2, design.n_slot)), design)


class TestSpectralEfficiency:
    def test_zero_weights_give_zero(self, cfg, design):
        channels = effective_channel(cfg, design)
        weights = np.zeros_like(channels.h)
        assert spectral_efficiency(channels, weights, cfg, design) == 0.0

    def test_single_subcarrier_closed_form(self, design):
        cfg = ScenarioConfig(k=2)
        channels = effective_channel(cfg, design)
        spectrum = gain_spectrum(channels, np.conj(channels.h), cfg, design)
        np.testing.assert_allclose(spectrum.se, np.log2(1 + spectrum.rho * spectrum.gain), rtol=1e-15)
        assert spectrum.capacity == pytest.approx(float(np.mean(spectrum.se)), rel=1e-15)

    def test_successive_beats_center_frequency_on_wideband(self, design):
        cfg = ScenarioConfig(b=1.5e9)
        channels = effective_channel(cfg, design)
        grid = default_grid(design, 301)
        _, s_cf = run_beamformer("center-frequency", channels, cfg, design, grid)
        _, s_succ = run_beamformer("successive", channels, cfg, design, grid)
        assert s_succ.capacity >= s_cf.capacity

    def test_global_phase_invariance(self, cfg, design):
        channels = effective_channel(cfg, design)
        _, spectrum = run_beamformer("center-frequency", channels, cfg, design, default_grid(design, 101))
        res, _ = run_beamformer("center-frequency", channels, cfg, design, default_grid(design, 101))
        weights = dma_weight_matrix(res, channels.grid.frequencies, design)
        rotated = weights * np.exp(1j * 1.234)
        assert spectral_efficiency(channels, rotated, cfg, design) == pytest.approx(spectrum.capacity, rel=1e-12)

    def test_g_sum_is_exact_row_sum(self, cfg, design):
        channels = effective_channel(cfg, design)
        res, spectrum = run_beamformer("center-frequency", channels, cfg, design, default_grid(design, 101))
        assert spectrum.g_sum == float(np.sum(spectrum.gain))
        assert spectrum.rate == cfg.b * spectrum.capacity
        assert np.all(spectrum.gain >= 0) and np.all(spectrum.se >= 0)

    def test_unknown_algorithm_rejected(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            run_beamformer("zero-forcing", channels, cfg, design)


class TestSumGainTrends:
    def test_non_decreasing_in_tuning_bandwidth(self, design):
        # saturation region wobbles ~0.3% as the resonance grid re-quantizes
        cfg = ScenarioConfig(b=5e7, k=16)
        sums = []
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            d = override_fields(design, b_tune=design.gamma * scale)
            channels = effective_channel(cfg, d)
            _, spectrum = run_beamformer("center-frequency", channels, cfg, d, default_grid(d, 501))
            sums.append(spectrum.g_sum)
        assert all(b >= a * 0.995 for a, b in zip(sums, sums[1:]))
        assert sums[-1] > sums[0]

    def test_non_decreasing_in_radiated_fraction(self, design):
        cfg = ScenarioConfig(b=5e7, k=16)
        sums = []
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            d = override_fields(design, lambda_frac=lam, b_tune=8e9)
            channels = effective_channel(cfg, d)
            _, spectrum = run_beamformer("center-frequency", channels, cfg, d, default_grid(d, 501))
            sums.append(spectrum.g_sum)
        assert all(b >= a for a, b in zip(sums, sums[1:]))


class TestDataRate:
    def test_zero_and_scaling(self, cfg):
        assert data_rate(cfg, 0.0) == 0.0
        assert data_rate(override_fields(cfg, b=2 * cfg.b), 3.0) == pytest.approx(2 * data_rate(cfg, 3.0), rel=1e-15)
        with pytest.raises(ValueError):
            data_rate(cfg, -1.0)

    def test_max_rate_single_entry(self, cfg, design):
        best, rates = max_data_rate(cfg, design, [5e8], "center-frequency", r_res=101)
        assert best == rates[0][1]

    def test_max_rate_empty_sweep_rejected(self, cfg, design):
        with pytest.raises(ValueError):
            max_data_rate(cfg, design, [], "successive")

    def test_bandwidth_sweep_has_an_interior_or_edge_maximum(self, cfg, design):
        _, rates = max_data_rate(cfg, design, (2.5e8, 5e8, 1e9, 1.5e9, 2e9), "center-frequency", r_res=201)
        values = [r for _, r in rates]
        assert max(values) > values[0] * 0.999  # the sweep exposes a maximum

    def test_successive_max_rate_non_decreasing_in_tuning(self, cfg, design):
        bests = []
        for scale in (0.5, 1.0, 2.0):
            d = override_fields(design, b_tune=design.gamma * scale)
            best, _ = max_data_rate(cfg, d, (5e8, 1e9, 2e9), "successive", r_res=201)
            bests.append(best)
        assert all(b >= a * 0.99 for a, b in zip(bests, bests[1:]))

    def test_successive_max_rate_dominates_center_frequency(self, cfg, design):
        for scale in (0.5, 2.0):
            d = override_fields(design, b_tune=design.gamma * scale)
            best_succ, _ = max_data_rate(cfg, d, (5e8, 1e9), "successive", r_res=201)
            best_cf, _ = max_data_rate(cfg, d, (5e8, 1e9), "center-frequency", r_res=201)
            assert best_succ >= best_cf * 0.999


class TestPhasedArray:
    def test_single_subcarrier_coherent_gain(self, design):
        grid = SubcarrierGrid(frequencies=np.array([14.5e9, 15e9]), center_index=1)
        n = design.n_slot
        h = np.exp(1j * np.linspace(0, 3, n))[None, :] * np.ones((2, 1))
        channels = ChannelSet(h=h, h_att=np.ones(n), grid=grid)
        spectrum = phased_array_spectrum(channels, phased_array_weights(channels), ScenarioConfig(k=2))
        assert spectrum.gain[1] == pytest.approx(n, rel=1e-12)

    def test_component_loss_scales_snr(self, cfg, design):
        channels = effective_channel(cfg, design)
        w = phased_array_weights(channels)
        lossless = phased_array_spectrum(channels, w, cfg, loss_db=0.0)
        lossy = phased_array_spectrum(channels, w, cfg, loss_db=8.8)
        np.testing.assert_allclose(lossy.rho, lossless.rho * 10 ** (-0.88), rtol=1e-12)
        assert 10 ** (-0.88) == pytest.approx(0.13182567385564073, rel=1e-12)

    def test_beam_squint_favors_center(self, design):
        cfg = ScenarioConfig(b=2e9, k=2)
        channels = effective_channel(cfg, design)
        spectrum = phased_array_spectrum(channels, phased_array_weights(channels), cfg)
        assert spectrum.gain[1] >= spectrum.gain[0]
