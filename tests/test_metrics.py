import numpy as np
import pytest

from dmasim import (
    DmaDesign,
    ResonanceConfiguration,
    ScenarioConfig,
    SubcarrierGrid,
    center_frequency_beamformer,
    dma_weight_matrix,
    effective_channel,
    gain_breakdown,
    gain_profile,
    gain_spectrum,
    leakage_vector,
    noise_power,
    override_fields,
    path_loss,
    power_normalized_gain,
    radiated_fraction,
    resonance_grid,
    resonance_spectrum,
    run_beamformer,
    snr_profile,
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


def loop_oracle_gain(channels, weights, design):
    """gain_profile written out one subcarrier at a time, M_k = radiated_fraction / ||w_k (.) taper||^2."""
    taper = leakage_vector(design)
    gains = []
    for k in range(channels.k):
        tapered = weights[k] * taper
        m_k = radiated_fraction(design) / np.sum(np.abs(tapered) ** 2)
        gains.append(m_k * abs(np.sum(channels.h[k] * tapered)) ** 2)
    return np.array(gains)


class TestNormalization:
    def test_single_element_resonant_weight(self):
        # one element: M_k cancels any weight scale and channel phase, leaving Lambda
        design = DmaDesign(n_slot=1)
        grid = SubcarrierGrid(frequencies=np.array([14.5e9, 15e9]))
        channels = ChannelSet(h=np.exp(1j * np.array([[0.3], [2.1]])), grid=grid)
        gain = gain_profile(channels, np.full((2, 1), -0.4j), design)
        np.testing.assert_allclose(gain, design.lambda_frac, rtol=1e-12)

    def test_weight_scaling_homogeneity(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_beamformer(channels, resonance_grid(design, channels.grid, 501))
        weights = dma_weight_matrix(res, channels.grid.frequencies, design)
        scaled = gain_profile(channels, 3.0 * weights, design)
        np.testing.assert_allclose(scaled, loop_oracle_gain(channels, 3.0 * weights, design), rtol=1e-12)
        np.testing.assert_allclose(scaled, gain_profile(channels, weights, design), rtol=1e-12)

    def test_power_constraint_residual(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_beamformer(channels, resonance_grid(design, channels.grid, 501))
        weights = dma_weight_matrix(res, channels.grid.frequencies, design)
        np.testing.assert_allclose(
            gain_profile(channels, weights, design), loop_oracle_gain(channels, weights, design), rtol=1e-12
        )
        # matched taper-compensated weights radiate exactly the design fraction of the channel energy
        matched = np.conj(channels.h) / leakage_vector(design)
        energy = np.sum(np.abs(channels.h) ** 2, axis=1)
        np.testing.assert_allclose(gain_profile(channels, matched, design), radiated_fraction(design) * energy, rtol=1e-12)

    def test_silent_subcarrier_scores_zero(self, cfg, design):
        # an all-zero weight row has no normalization: it scores 0 and leaves the other rows alone
        channels = effective_channel(cfg, design)
        weights = np.conj(channels.h)
        weights[2] = 0.0
        gain = gain_profile(channels, weights, design)
        assert gain[2] == 0.0
        full = gain_profile(channels, np.conj(channels.h), design)
        np.testing.assert_array_equal(np.delete(gain, 2), np.delete(full, 2))


class TestBeamformingGain:
    def test_single_element_gain_is_radiated_fraction(self):
        design = DmaDesign(n_slot=1)
        grid = SubcarrierGrid(frequencies=np.array([14.5e9, 15e9]))
        channels = ChannelSet(h=np.ones((2, 1), dtype=complex), grid=grid)
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
        _, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(design, channels.grid))
        predicted = power_normalized_gain(gain_breakdown(cfg, design), design)
        kc = cfg.k // 2
        assert spectrum.gain[kc] == pytest.approx(predicted[kc], rel=0.10)

    def test_dimension_mismatch_rejected(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            gain_profile(channels, np.ones((2, design.n_slot)), design)

    @pytest.mark.parametrize("f_r", [15e9, np.full((4, 1), 15e9)], ids=["scalar", "column"])
    def test_resonance_configuration_must_be_a_list(self, f_r):
        # a 0-d f_r ended in an IndexError and a (n_slot, 1) one in numpy's broadcast error
        cfg, design = ScenarioConfig(k=8), DmaDesign(n_slot=4)
        channels = effective_channel(cfg, design)
        message = "^resonance configuration f_r must be a list of resonant frequencies, one per element$"
        with pytest.raises(ValueError, match=message):
            resonance_spectrum(channels, ResonanceConfiguration(f_r=f_r), cfg, design)


class TestSpectralEfficiency:
    def test_zero_weights_give_zero(self, cfg, design):
        channels = effective_channel(cfg, design)
        weights = np.zeros_like(channels.h)
        assert gain_spectrum(channels, weights, cfg, design).capacity == 0.0

    def test_single_subcarrier_closed_form(self, design):
        cfg = ScenarioConfig(k=2)
        channels = effective_channel(cfg, design)
        spectrum = gain_spectrum(channels, np.conj(channels.h), cfg, design)
        np.testing.assert_allclose(spectrum.se, np.log2(1 + spectrum.rho * spectrum.gain), rtol=1e-15)
        assert spectrum.capacity == pytest.approx(float(np.mean(spectrum.se)), rel=1e-15)
        assert spectrum.rate == cfg.b * spectrum.capacity

    def test_successive_beats_center_frequency_on_wideband(self, design):
        cfg = ScenarioConfig(b=1.5e9)
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 301)
        _, s_cf = run_beamformer("center-frequency", channels, cfg, grid)
        _, s_succ = run_beamformer("successive", channels, cfg, grid)
        assert s_succ.capacity >= s_cf.capacity

    def test_global_phase_invariance(self, cfg, design):
        channels = effective_channel(cfg, design)
        _, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(design, channels.grid, 101))
        res, _ = run_beamformer("center-frequency", channels, cfg, resonance_grid(design, channels.grid, 101))
        weights = dma_weight_matrix(res, channels.grid.frequencies, design)
        rotated = weights * np.exp(1j * 1.234)
        assert gain_spectrum(channels, rotated, cfg, design).capacity == pytest.approx(spectrum.capacity, rel=1e-12)

    def test_g_sum_is_exact_row_sum(self, cfg, design):
        channels = effective_channel(cfg, design)
        res, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(design, channels.grid, 101))
        assert spectrum.g_sum == float(np.sum(spectrum.gain))
        assert spectrum.rate == cfg.b * spectrum.capacity
        assert np.all(spectrum.gain >= 0) and np.all(spectrum.se >= 0)

    def test_compares_by_identity(self, cfg, design):
        # the per-subcarrier arrays have no truth value, so spectra compare by identity and stay hashable
        channels = effective_channel(cfg, design)
        a, b = (gain_spectrum(channels, np.conj(channels.h), cfg, design) for _ in range(2))
        assert a == a and a != b and len({a, a, b}) == 2

    def test_resonance_spectrum_scores_like_run_beamformer(self, cfg, design):
        channels = effective_channel(cfg, design)
        res, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(design, channels.grid, 101))
        np.testing.assert_array_equal(resonance_spectrum(channels, res, cfg, design).gain, spectrum.gain)

    @pytest.mark.parametrize("other", [{"b": 5e8, "k": 8}, {"b": 1e9, "k": 16}])
    def test_rejects_a_channel_on_other_subcarriers(self, other):
        # same k, other band: scored, it would pair the channel with the other band's SNR (6.668 for 5.692 bit/s/Hz)
        design = DmaDesign(n_slot=8)
        channels = effective_channel(ScenarioConfig(b=1e9, k=8), design)
        grid = resonance_grid(design, channels.grid, 51)
        with pytest.raises(ValueError, match="channel subcarriers differ from the scenario's"):
            run_beamformer("center-frequency", channels, ScenarioConfig(**other), grid)
        with pytest.raises(ValueError, match="channel subcarriers differ from the scenario's"):
            gain_spectrum(channels, np.conj(channels.h), ScenarioConfig(**other), design)

    def test_equal_scenario_scores_the_channel(self):
        # an equal scenario derives its own grid object; its frequencies match, so it scores as the channel's own
        design, cfg = DmaDesign(n_slot=8), ScenarioConfig(b=1e9, k=8)
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 51)
        twin = ScenarioConfig(b=1e9, k=8)
        assert twin.subcarriers is not channels.grid
        _, own = run_beamformer("center-frequency", channels, cfg, grid)
        _, spectrum = run_beamformer("center-frequency", channels, twin, grid)
        assert spectrum.capacity == own.capacity == pytest.approx(5.692, abs=1e-3)

    @pytest.mark.parametrize("algorithm", ["center-frequency", "successive"])
    def test_scores_with_the_grid_designs_taper(self, algorithm):
        # lambda_frac stays out of h, so a lambda = 0.9 channel scored with a lambda = 0.5 grid and design is the
        # 0.5 channel; mixing in the channel's own 0.9 taper read 8.771 and 9.636 bit/s/Hz for 8.895 and 9.814
        cfg = ScenarioConfig(k=16)
        design = DmaDesign(lambda_frac=0.5)
        grid = resonance_grid(design, cfg.subcarriers, 1001)
        _, mixed = run_beamformer(algorithm, effective_channel(cfg, override_fields(design, lambda_frac=0.9)), cfg, grid)
        _, own = run_beamformer(algorithm, effective_channel(cfg, design), cfg, grid)
        for name in ("gain", "rho", "se"):
            assert np.array_equal(getattr(mixed, name), getattr(own, name))
        assert (mixed.g_sum, mixed.capacity, mixed.rate) == (own.g_sum, own.capacity, own.rate)
        assert own.capacity == pytest.approx({"center-frequency": 8.895, "successive": 9.814}[algorithm], abs=1e-3)

    def test_unknown_algorithm_rejected(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            run_beamformer("zero-forcing", channels, cfg, resonance_grid(design, channels.grid))


class TestSumGainTrends:
    def test_non_decreasing_in_tuning_bandwidth(self, design):
        # saturation region wobbles ~0.3% as the resonance grid re-quantizes
        cfg = ScenarioConfig(b=5e7, k=16)
        sums = []
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            d = override_fields(design, b_tune=design.gamma * scale)
            channels = effective_channel(cfg, d)
            _, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(d, channels.grid, 501))
            sums.append(spectrum.g_sum)
        assert all(b >= a * 0.995 for a, b in zip(sums, sums[1:]))
        assert sums[-1] > sums[0]

    def test_non_decreasing_in_radiated_fraction(self, design):
        cfg = ScenarioConfig(b=5e7, k=16)
        sums = []
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            d = override_fields(design, lambda_frac=lam, b_tune=8e9)
            channels = effective_channel(cfg, d)
            _, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(d, channels.grid, 501))
            sums.append(spectrum.g_sum)
        assert all(b >= a for a, b in zip(sums, sums[1:]))

