import math

import numpy as np
import pytest

from dmasim import (
    C_LIGHT,
    DmaDesign,
    fill_penalty,
    gain_breakdown,
    leakage_penalty,
    override_fields,
    phase_fill_ratio,
    power_normalized_gain,
    radiated_fraction,
    squint_gain_from_phase,
    squint_phase_profile,
    waveguide_beta,
)
from oracles import channel_phase_step, fill_penalty_mc_stderr, leakage_penalty_exact


class TestSquintPhase:
    def test_zero_at_center(self, cfg, design):
        assert squint_phase_profile(cfg, design)[cfg.k // 2] == 0.0

    def test_negative_above_center_for_positive_steering(self, cfg, design):
        tilted = override_fields(cfg, phi_t=math.radians(20.0))
        profile = squint_phase_profile(tilted, design)
        assert np.all(profile[cfg.k // 2 + 1 :] < 0)
        assert np.all(profile[: cfg.k // 2] > 0)

    def test_consistency_with_decomposed_channel_phase(self, cfg, design):
        # the squint offset equals minus the per-element advance difference
        # written with the wireless and guided terms sharing one sign
        profile = squint_phase_profile(cfg, design)
        for k in (0, 3, cfg.k - 1):
            f_k = cfg.frequencies[k]
            advance = lambda f: design.d_x * (
                (2 * math.pi * f / C_LIGHT) * math.sin(cfg.phi_t) + waveguide_beta(f, design)
            )
            expected = -(advance(f_k) - advance(cfg.f_t))
            assert profile[k] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the profile's wireless term has the opposite sign to the channel's: it matches the channel at -phi",
    )
    @pytest.mark.parametrize("phi_deg", [-20.0, 20.0])
    def test_matches_simulated_channel_phase_offset(self, cfg, design, phi_deg):
        tilted = override_fields(cfg, phi_t=math.radians(phi_deg), b=2e9, k=16)
        freqs = tilted.frequencies
        offset = channel_phase_step(freqs, tilted, design) - channel_phase_step(freqs[tilted.k // 2], tilted, design)
        profile = squint_phase_profile(tilted, design)
        assert any(np.allclose(profile, sign * offset, rtol=0, atol=1e-9) for sign in (1.0, -1.0))


class TestSquintGain:
    def test_coherent_limit(self, design):
        assert squint_gain_from_phase(0.0, 32) == 8.0
        # periodic image; float(2*pi) is not an exact period, so only close
        assert squint_gain_from_phase(2 * math.pi, 32) == pytest.approx(8.0, rel=1e-12)

    def test_array_factor_null(self):
        assert squint_gain_from_phase(2 * math.pi / 32, 32) < 1e-20

    def test_frozen_value_against_explicit_sum(self):
        # independent oracle: the 32-term complex geometric sum
        chi, n = 0.01, 32
        explicit = abs(np.sum(np.exp(1j * chi * np.arange(n))) / (2 * math.sqrt(n))) ** 2
        got = squint_gain_from_phase(chi, n)
        assert got == pytest.approx(7.9320320246651528, rel=1e-12)
        assert got == pytest.approx(explicit, rel=1e-12)

    def test_matches_explicit_sum_for_random_offsets(self, rng):
        n = 32
        chi = rng.uniform(-math.pi, math.pi, 1000)
        closed = squint_gain_from_phase(chi, n)
        phases = np.exp(1j * chi[:, None] * np.arange(n)[None, :])
        explicit = np.abs(phases.sum(axis=1) / (2 * math.sqrt(n))) ** 2
        np.testing.assert_allclose(closed, explicit, rtol=1e-10)

    def test_bounded_by_coherent_limit(self, rng):
        n = 32
        chi = rng.uniform(-math.pi, math.pi, 1000)
        assert np.all(squint_gain_from_phase(chi, n) <= n / 4 + 1e-12)

    def test_profile_peak_at_center(self, cfg, design):
        gains = squint_gain_from_phase(squint_phase_profile(cfg, design), design.n_slot)
        assert gains[cfg.k // 2] == design.n_slot / 4
        assert np.argmax(gains) == cfg.k // 2


class TestPhaseFill:
    def test_zero_tuning_bandwidth(self, design):
        assert phase_fill_ratio(override_fields(design, b_tune=0.0)) == 0.0

    def test_wide_tuning_approaches_one(self, design):
        # the reachable arc saturates as the range nears (0, 2*f_t)
        wide = phase_fill_ratio(override_fields(design, b_tune=1.8 * design.f_t))
        assert wide > 0.99
        assert wide > phase_fill_ratio(design) > phase_fill_ratio(override_fields(design, b_tune=1e8))

    def test_quarter_linewidth_frozen(self, cfg, design):
        d = override_fields(design, b_tune=design.gamma / 4.0)
        assert phase_fill_ratio(d) == pytest.approx(0.63908976192010006, rel=1e-12)
        # the breakdown's fill penalty takes the angular fill pi * phase_fill_ratio
        assert gain_breakdown(cfg, d).fill_penalty == pytest.approx(fill_penalty(2.0077597010326363), rel=1e-12)

    def test_default_design_frozen(self, design):
        assert phase_fill_ratio(design) == pytest.approx(0.95229022359956081, rel=1e-12)


class TestFillPenalty:
    def test_endpoints_exact(self):
        assert fill_penalty(0.0) == 0.0
        assert fill_penalty(math.pi) == 1.0

    def test_half_fill_frozen(self):
        assert fill_penalty(math.pi / 2) == pytest.approx(0.66963106982612844, rel=1e-12)

    def test_rejects_out_of_range(self):
        for xi in (-0.1, math.pi + 0.1):
            with pytest.raises(ValueError):
                fill_penalty(xi)

    def test_monotone_non_decreasing(self):
        xs = np.linspace(0.0, math.pi, 500)
        vals = [fill_penalty(x) for x in xs]
        assert np.all(np.diff(vals) >= 0)


class TestLeakagePenalty:
    def test_limit_small_radiated_fraction(self):
        assert leakage_penalty(1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_values(self):
        assert leakage_penalty(0.9) == pytest.approx(0.90245325547629449, rel=1e-12)
        assert leakage_penalty(0.5) == pytest.approx(0.99010934511892918, rel=1e-12)

    def test_rejects_out_of_range(self):
        for lam in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                leakage_penalty(lam)

    def test_monotone_decreasing(self):
        lams = np.linspace(0.01, 0.99, 200)
        vals = [leakage_penalty(l) for l in lams]
        assert np.all(np.diff(vals) < 0)


class TestLeakagePenaltyExact:
    def test_vanishing_taper_limit(self):
        assert leakage_penalty_exact(DmaDesign(lambda_frac=1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_two_element_closed_ratio(self):
        design = DmaDesign(n_slot=2, lambda_frac=0.9)
        q = math.exp(-math.log(10.0) / 2.0)  # exp(-alpha*d_x) for this design
        expected = (1 + q) ** 2 / (2 * (1 + q * q))
        assert leakage_penalty_exact(design) == pytest.approx(expected, rel=1e-12)
        assert leakage_penalty_exact(design) == pytest.approx(0.78747978728803448, rel=1e-12)

    def test_matches_direct_sum(self):
        for n in (2, 7, 33):
            design = DmaDesign(n_slot=n, lambda_frac=0.7)
            a = -math.log(0.3) / (2 * (n - 1))  # alpha_g * d_x, the per-element taper exponent
            powers = math.exp(-a) ** np.arange(n)
            direct = powers.sum() ** 2 / (n * (powers**2).sum())
            # the closed geometric forms: numerator ((1-q^n)/(1-q))^2, denominator n*(1-q^2n)/(1-q^2)
            closed = (math.tanh(n * a / 2.0) / math.tanh(a / 2.0)) / n
            assert leakage_penalty_exact(design) == pytest.approx(direct, rel=1e-12)
            assert leakage_penalty_exact(design) == pytest.approx(closed, rel=1e-12)

    def test_close_to_asymptotic_form_at_default_size(self):
        # the defining 32-term sum sits 5.5e-3 below the large-aperture form
        design = DmaDesign(n_slot=32, lambda_frac=0.9)
        assert abs(leakage_penalty_exact(design) - leakage_penalty(0.9)) < 0.006

    def test_error_halves_as_elements_double(self):
        errs = []
        for n in (512, 1024, 2048):
            design = DmaDesign(n_slot=n, lambda_frac=0.9)
            errs.append(abs(leakage_penalty_exact(design) - leakage_penalty(0.9)))
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, abs=0.2)

    def test_single_element_rejected(self):
        with pytest.raises(ValueError, match="^leakage design undefined for a single element$"):
            leakage_penalty_exact(DmaDesign(n_slot=1))


class TestBreakdown:
    def test_product_identity(self, cfg, design):
        br = gain_breakdown(cfg, design)
        np.testing.assert_array_equal(br.product, br.squint_gain * br.fill_penalty * br.leakage_penalty)

    def test_factor_ceilings_compose(self, cfg, design):
        ideal = override_fields(design, b_tune=1.8 * design.f_t, lambda_frac=1e-9)
        br = gain_breakdown(cfg, ideal)
        kc = cfg.k // 2
        assert br.squint_gain[kc] == design.n_slot / 4
        assert br.product[kc] == pytest.approx(design.n_slot / 4, rel=1e-3)

    def test_zero_fill_zeroes_the_product(self, cfg, design):
        br = gain_breakdown(cfg, override_fields(design, b_tune=0.0))
        np.testing.assert_array_equal(br.product, np.zeros(cfg.k))

    def test_power_normalized_scale(self, cfg, design):
        br = gain_breakdown(cfg, design)
        np.testing.assert_array_equal(
            power_normalized_gain(br, design), 2.0 * radiated_fraction(design) * br.product
        )

    def test_compares_by_identity(self, cfg, design):
        # the factor arrays have no truth value, so breakdowns compare by identity and stay hashable
        a, b = gain_breakdown(cfg, design), gain_breakdown(cfg, design)
        assert a == a and a != b and len({a, a, b}) == 2


class TestFillPenaltyOracle:
    def test_full_fill_has_no_clipping(self):
        assert fill_penalty_mc_stderr(math.pi, 10_000, seed=1)[0] == 1.0

    def test_zero_fill_matches_closed_form(self):
        assert fill_penalty_mc_stderr(0.0, 200_000, seed=2)[0] == pytest.approx(fill_penalty(0.0), abs=1e-3)

    def test_half_fill(self):
        assert fill_penalty_mc_stderr(math.pi / 2, 200_000, seed=3)[0] == pytest.approx(0.6696, abs=0.01)

    def test_three_sigma_agreement(self):
        for xi in (0.3, 1.3, 2.4):
            value, stderr = fill_penalty_mc_stderr(xi, 200_000, seed=17)
            assert abs(fill_penalty(xi) - value) <= 3.0 * stderr

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fill_penalty_mc_stderr(-0.2, 100, seed=0)
