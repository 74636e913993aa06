import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmasim import (
    ChannelSet,
    DmaDesign,
    MultipathSpec,
    ScenarioConfig,
    array_response,
    effective_channel,
    leakage_vector,
    multipath_channel,
    override_fields,
    subcarrier_grid,
    waveguide_phase_vector,
)
from dmasim.channel import ANGLE_MAX, DELAY_MAX, L_PATH_MAX
from oracles import channel_phase_step


def reference_effective_h(cfg, design, grid):
    """Slow oracle: the LOS channel built one subcarrier at a time."""
    h = np.empty((grid.k, design.n_slot), dtype=complex)
    for i, f_k in enumerate(grid.frequencies):
        h[i] = array_response(cfg.phi_t, f_k, design) * waveguide_phase_vector(f_k, design)
    return h


def reference_multipath_h(spec, cfg, design, grid):
    """Slow oracle: the ray-sum channel built per subcarrier and per ray, same RNG draw order."""
    rng = np.random.default_rng(spec.seed)
    l_path = spec.l_path
    scale = math.sqrt(1.0 / (2.0 * l_path))
    gains = scale * (rng.standard_normal(l_path) + 1j * rng.standard_normal(l_path))
    angles = rng.uniform(-ANGLE_MAX, ANGLE_MAX, l_path)
    delays = rng.uniform(0.0, DELAY_MAX, l_path)
    if spec.pin_first_to_los:
        gains[0] = 1.0 / math.sqrt(l_path)
        angles[0] = cfg.phi_t
        delays[0] = 0.0
    h = np.zeros((grid.k, design.n_slot), dtype=complex)
    for i, f_k in enumerate(grid.frequencies):
        rays = np.zeros(design.n_slot, dtype=complex)
        for g, phi, tau in zip(gains, angles, delays):
            rays += g * array_response(phi, f_k, design) * np.exp(-2j * math.pi * f_k * tau)
        h[i] = rays * waveguide_phase_vector(f_k, design)
    return h


def assert_bitwise_equal(got, expected):
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


# (k, n_slot); 128 x 256 complex is 512 KiB, past numpy's 256 KiB temporary-elision threshold
ORACLE_SIZES = [(8, 8), (64, 32), (128, 256)]


class TestBroadcastOracle:
    @pytest.mark.parametrize("k, n_slot", ORACLE_SIZES)
    def test_vector_helpers_match_scalar_rows(self, cfg, design, k, n_slot):
        d = override_fields(design, n_slot=n_slot)
        freq = subcarrier_grid(override_fields(cfg, k=k, b=2e9)).frequencies
        wireless = array_response(0.3, freq, d)
        guide = waveguide_phase_vector(freq, d)
        assert wireless.shape == guide.shape == (k, n_slot)
        assert_bitwise_equal(wireless, np.array([array_response(0.3, f_k, d) for f_k in freq]))
        assert_bitwise_equal(guide, np.array([waveguide_phase_vector(f_k, d) for f_k in freq]))

    @pytest.mark.parametrize("k, n_slot", ORACLE_SIZES)
    def test_effective_channel_matches_loop(self, cfg, design, k, n_slot):
        c = override_fields(cfg, k=k, b=2e9)
        d = override_fields(design, n_slot=n_slot)
        assert_bitwise_equal(effective_channel(c, d).h, reference_effective_h(c, d, subcarrier_grid(c)))

    @pytest.mark.parametrize("pin", [False, True])
    @pytest.mark.parametrize("l_path", [1, 2, 4])
    @pytest.mark.parametrize("k, n_slot", ORACLE_SIZES)
    def test_multipath_channel_matches_loop(self, cfg, design, k, n_slot, l_path, pin):
        c = override_fields(cfg, k=k, b=2e9)
        d = override_fields(design, n_slot=n_slot)
        spec = MultipathSpec(l_path=l_path, seed=7 * k + n_slot + l_path, pin_first_to_los=pin)
        got = multipath_channel(spec, c, d)
        assert_bitwise_equal(got.h, reference_multipath_h(spec, c, d, subcarrier_grid(c)))


class TestArrayResponse:
    def test_broadside_is_all_ones(self, design):
        np.testing.assert_array_equal(array_response(0.0, 15e9, design), np.ones(design.n_slot))

    def test_quarter_wavelength_phase(self, design):
        # (2*pi/lambda)*(lambda/4)*sin(phi) = (pi/2)*sin(phi)
        phi = math.radians(30.0)
        got = array_response(phi, 15e9, design)
        assert np.angle(got[1]) == pytest.approx((math.pi / 2) * math.sin(phi), rel=1e-12)

    def test_frozen_default_angle_phases(self, design):
        got = array_response(math.radians(-20.0), 15e9, override_fields(design, n_slot=4))
        for n in range(4):
            expected = n * -0.53724398482582452
            assert np.angle(got[n]) == pytest.approx(expected, abs=1e-12)

    def test_unit_modulus(self, design):
        got = array_response(0.4, 17e9, design)
        np.testing.assert_allclose(np.abs(got), 1.0, rtol=0, atol=1e-12)

    def test_rejects_endfire(self, design):
        with pytest.raises(ValueError):
            array_response(math.pi / 2, 15e9, design)


class TestWaveguidePhaseVector:
    def test_feed_element_has_zero_phase(self, design):
        assert waveguide_phase_vector(15e9, design)[0] == 1.0

    def test_frozen_first_advance(self, design):
        got = waveguide_phase_vector(15e9, design)
        assert np.angle(got[1]) == pytest.approx(-2.4586851558642542, abs=1e-12)

    def test_conjugate_of_positive_phasor(self, design):
        beta = 491.73703117285085
        n = np.arange(design.n_slot)
        np.testing.assert_allclose(
            waveguide_phase_vector(15e9, design), np.conj(np.exp(1j * n * design.d_x * beta)), rtol=0, atol=1e-9
        )

    def test_below_cutoff_propagates(self, design):
        with pytest.raises(ValueError):
            waveguide_phase_vector(design.f_c10 / 2, design)


class TestLeakageVector:
    def test_feed_element_unattenuated(self, design):
        assert leakage_vector(design)[0] == 1.0

    def test_last_element_square_root_identity(self):
        # exp(-alpha*d_x*(n-1)) == sqrt(1 - Lambda) by the leakage design
        for lam, expected in ((0.9, 0.31622776601683794), (0.5, 0.70710678118654752)):
            design = DmaDesign(n_slot=32, lambda_frac=lam)
            assert leakage_vector(design)[-1] == pytest.approx(expected, rel=1e-12)

    def test_geometric_taper(self, design):
        vec = leakage_vector(design)
        ratios = vec[:-1] / vec[1:]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert np.all(np.diff(vec) < 0) and np.all((0 < vec) & (vec <= 1))

    def test_single_element(self):
        design = DmaDesign(n_slot=1)
        np.testing.assert_array_equal(leakage_vector(design), [1.0])


class TestEffectiveChannel:
    def test_feed_element_is_one_for_all_subcarriers(self, cfg, design):
        channels = effective_channel(cfg, design)
        np.testing.assert_array_equal(channels.h[:, 0], np.ones(cfg.k))

    def test_unit_modulus(self, cfg, design):
        channels = effective_channel(cfg, design)
        np.testing.assert_allclose(np.abs(channels.h), 1.0, rtol=0, atol=1e-12)

    def test_product_of_factors(self, cfg, design):
        d2 = override_fields(design, n_slot=2)
        channels = effective_channel(cfg, d2)
        expected = reference_effective_h(cfg, d2, subcarrier_grid(cfg))
        assert_bitwise_equal(channels.h, expected)

    def test_wrapped_angle_matches_closed_form_phase(self, cfg, design):
        channels = effective_channel(cfg, design)
        phases = channel_phase_step(channels.grid.frequencies, cfg, design)[:, None] * np.arange(design.n_slot)
        wrapped = np.mod(phases + math.pi, 2 * math.pi) - math.pi
        err = np.abs(np.angle(channels.h) - wrapped)
        err = np.minimum(err, 2 * math.pi - err)  # both representations of +-pi
        assert float(err.max()) < 1e-9

    def test_closed_form_phase_step_frozen(self, cfg, design):
        assert channel_phase_step(15e9, cfg, design) == pytest.approx(-2.9959291406900788, rel=1e-12)

    def test_taper_stored_once(self, cfg, design):
        # the design holds the taper: lambda_frac moves the (n_slot,) taper and stays out of h, so one h serves both
        other = override_fields(design, lambda_frac=0.5)
        assert leakage_vector(design).shape == (design.n_slot,)
        assert not np.array_equal(leakage_vector(other), leakage_vector(design))
        assert_bitwise_equal(effective_channel(cfg, other).h, effective_channel(cfg, design).h)

    def test_rejects_rows_other_than_subcarriers(self):
        # one row would broadcast over all 8 subcarriers in the successive scan
        with pytest.raises(ValueError, match="^channel must hold one row per subcarrier$"):
            ChannelSet(h=np.ones((1, 4), complex), grid=subcarrier_grid(ScenarioConfig(k=8)))

    @pytest.mark.parametrize("shape", [(8,), (8, 4, 1)])
    def test_rejects_h_of_other_than_two_dimensions(self, shape):
        # unchecked, either shape ended in an IndexError inside a solve
        with pytest.raises(ValueError, match=r"^channel must be shaped \(k, n_slot\)$"):
            ChannelSet(h=np.ones(shape, complex), grid=subcarrier_grid(ScenarioConfig(k=8)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["h-nan", "h-inf", "h--infj"])
    def test_rejects_non_finite(self, bad):
        # unchecked, one NaN in h gave every algorithm a capacity of nan
        channels = effective_channel(ScenarioConfig(k=8), DmaDesign(n_slot=4))
        h = channels.h.copy()
        h.flat[1] = bad
        with pytest.raises(ValueError, match="^channel must be finite$"):
            ChannelSet(h=h, grid=channels.grid)

    def test_immutable(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            channels.h[0, 0] = 0

    def test_channels_share_the_scenarios_grid(self, cfg, design):
        assert effective_channel(cfg, design).grid is cfg.subcarriers
        assert multipath_channel(MultipathSpec(), cfg, design).grid is cfg.subcarriers

    def test_compares_by_identity(self, cfg, design):
        # the channel arrays have no truth value, so channel sets compare by identity and stay hashable
        a, b = effective_channel(cfg, design), effective_channel(cfg, design)
        assert a == a and a != b and len({a, a, b}) == 2


class TestMultipathChannel:
    @pytest.mark.exactness
    @settings(deadline=None)
    @given(
        half_k=st.integers(1, 32),
        n_slot=st.integers(1, 64),
        b_exp=st.floats(6.0, 9.9),  # 10**9.9 Hz keeps every subcarrier above the 10 GHz cutoff
        phi_t=st.floats(-1.5, 1.5),
        d_x_exp=st.floats(-4.0, -1.0),
        seed=st.integers(0, 2**16),
    )
    def test_pinned_single_path_reduces_to_los(self, half_k, n_slot, b_exp, phi_t, d_x_exp, seed):
        # the line-of-sight channel is the one-ray case of the ray sum, to the sign of every zero
        cfg = ScenarioConfig(k=2 * half_k, b=10.0**b_exp, phi_t=phi_t)
        design = DmaDesign(n_slot=n_slot, d_x=10.0**d_x_exp)
        got = multipath_channel(MultipathSpec(l_path=1, seed=seed, pin_first_to_los=True), cfg, design)
        expected = effective_channel(cfg, design)
        assert_bitwise_equal(got.h, expected.h)

    def test_fixed_seed_is_bit_identical(self, cfg, design):
        spec = MultipathSpec(l_path=4, seed=11)
        first = multipath_channel(spec, cfg, design)
        second = multipath_channel(spec, cfg, design)
        np.testing.assert_array_equal(first.h, second.h)

    def test_different_seeds_differ(self, cfg, design):
        a = multipath_channel(MultipathSpec(l_path=4, seed=1), cfg, design)
        b = multipath_channel(MultipathSpec(l_path=4, seed=2), cfg, design)
        assert not np.allclose(a.h, b.h)

    def test_mean_path_power_is_unit(self):
        # Monte-Carlo oracle: E[sum_l |g_l|^2] = E[|h_n|^2] = 1 for one element
        cfg = ScenarioConfig(k=2)
        design = DmaDesign(n_slot=1)
        total = 0.0
        draws = 20000
        for seed in range(draws):
            ch = multipath_channel(MultipathSpec(l_path=4, seed=seed), cfg, design)
            total += abs(ch.h[0, 0]) ** 2
        assert total / draws == pytest.approx(1.0, rel=0.02)

    def test_rejects_empty_path_list(self):
        with pytest.raises(ValueError):
            MultipathSpec(l_path=0)

    def test_rejects_path_count_past_bound(self):
        # unchecked, --axis 1e9 draws 1e9 gains, angles and delays at once: gigabytes before any other check
        assert MultipathSpec(l_path=L_PATH_MAX).l_path == 1024
        for l_path in (L_PATH_MAX + 1, 1e9):
            with pytest.raises(ValueError, match=f"^l_path must be at most 1024, got {int(l_path)}$"):
                MultipathSpec(l_path=l_path)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"l_path": 2.5}, "l_path must be an integer >= 1, got 2.5"),  # unchecked, a TypeError inside numpy
            ({"seed": 0.5}, "seed must be an integer >= 0, got 0.5"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),  # unchecked, numpy's message without the field
        ],
    )
    def test_rejects_fractional_count_or_negative_seed(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MultipathSpec(**kwargs)

    def test_integral_float_counts_kept_as_ints(self):
        spec = MultipathSpec(l_path=4.0, seed=7.0)
        assert (spec.l_path, spec.seed) == (4, 7) and type(spec.l_path) is type(spec.seed) is int

