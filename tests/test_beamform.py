import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmasim import (
    ChannelSet,
    DmaDesign,
    MultipathSpec,
    ResonanceConfiguration,
    ResonanceGrid,
    ScenarioConfig,
    SubcarrierGrid,
    center_frequency_beamformer,
    center_frequency_tuning,
    default_grid,
    effective_channel,
    lorentzian_weight,
    multipath_channel,
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


def dense_center_frequency(channels, grid, design):
    """The distance table over every grid row: the oracle of the dot-product search."""
    kc = channels.grid.center_index
    f_c = channels.grid.f_center
    targets = lorentzian_weight(np.angle(np.conj(channels.h[kc])))  # (n_slot,)
    achievable = normalized_polarizability(f_c, grid.values, design)  # (r_res,)
    dist = np.abs(targets[None, :] - achievable[:, None])  # (r_res, n_slot)
    idx = np.argmin(dist, axis=0)  # first minimum = lower resonant frequency
    return ResonanceConfiguration(f_r=grid.values[idx])


def exhaustive_successive(channels, snr, grid, design):
    """The successive scan over every grid row: the oracle of the pruned scan."""
    snr = np.asarray(snr, dtype=float)
    freq = channels.grid.frequencies
    weights = normalized_polarizability(freq[None, :], grid.values[:, None], design)
    running = np.zeros(freq.size, dtype=complex)
    chosen = np.empty(design.n_slot)
    for n in range(design.n_slot):
        contrib = weights * (channels.h_att[n] * channels.h[:, n])[None, :]
        objective = np.mean(np.log2(1.0 + snr[None, :] * np.abs(contrib + running[None, :]) ** 2), axis=1)
        best = int(np.argmax(objective))  # first maximum = lower resonant frequency
        chosen[n] = grid.values[best]
        running = running + contrib[best]
    return chosen


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

    def test_compares_by_identity(self, design):
        # the value array has no truth value, so grids compare by identity and stay hashable
        a, b = default_grid(design, 11), default_grid(design, 11)
        assert a == a and a != b and len({a, a, b}) == 2


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
        grid = ResonanceGrid(values=np.array([14.9e9, 14.9e9, 15.1e9]))
        channels = make_channelset(np.ones((2, 3)), two_point_grid())
        res = center_frequency_beamformer(channels, grid, design)
        assert set(res.f_r) <= {14.9e9, 15.1e9}
        # a target reached equally by both duplicates resolves to index 0
        h = np.tile(np.exp(1j * math.pi / 2), (2, 1))
        res2 = center_frequency_beamformer(make_channelset(h, two_point_grid()), grid, design)
        assert res2.f_r[0] == 14.9e9

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ResonanceGrid(values=np.array([]))

    @settings(deadline=None)
    @given(
        kind=st.sampled_from(("los", "multipath", "synthetic")),
        n_slot=st.integers(1, 64),
        r_res=st.sampled_from((1, 2, 3, 7, 64, 65, 1001, 4001)),
        b_tune=st.one_of(
            st.just(0.0),
            st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
            st.floats(6.0, 10.4).map(lambda e: 10.0**e),  # 10**10.4 Hz stays below 2 * f_t
        ),
        q_exp=st.floats(1.0, 3.0),
        placed=st.sampled_from(("channel", "on grid", "special")),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_scan(self, kind, n_slot, r_res, b_tune, q_exp, placed, seed):
        rng = np.random.default_rng(seed)
        cfg = ScenarioConfig(k=8)
        design = DmaDesign(n_slot=n_slot, b_tune=b_tune, q=10.0**q_exp)
        if kind == "los":
            channels = effective_channel(cfg, design)
        elif kind == "multipath":
            channels = multipath_channel(MultipathSpec(l_path=1 + seed % 6, seed=seed), cfg, design)
        else:
            channels = make_channelset(np.exp(1j * rng.uniform(-np.pi, np.pi, (cfg.k, n_slot))), subcarrier_grid(cfg))
        grid = default_grid(design, r_res)
        h = channels.h.copy()
        kc = channels.grid.center_index
        moved = rng.random(n_slot) < 0.5
        if placed == "on grid":  # the target e^(j zeta)/2 - j/2 lands on a grid weight a: zeta = angle(2a + j)
            weights = normalized_polarizability(channels.grid.f_center, grid.values, design)
            zeta = np.angle(2 * weights[rng.integers(0, r_res, n_slot)] + 1j)
            h[kc, moved] = np.exp(-1j * zeta[moved])
        elif placed == "special":  # -j (resonance), 0 (the circle's origin point) and the two sides
            zeta = rng.choice([-math.pi / 2, math.pi / 2, -math.pi, math.pi, 0.0], n_slot)
            h[kc, moved] = np.exp(-1j * zeta[moved])
        h[:, rng.random(n_slot) < 0.15] = 0.0  # silent elements
        channels = make_channelset(h, channels.grid, channels.h_att)
        res = center_frequency_beamformer(channels, grid, design)
        assert np.array_equal(res.f_r, dense_center_frequency(channels, grid, design).f_r)

    def test_sub_hz_far_target_tie(self):
        # every grid weight sits within ~1e-15 of the same distance from a target at the origin
        # point: the dot product alone picks other rows than the distance table, the re-rank does not
        n_slot = 64
        design = DmaDesign(n_slot=n_slot, b_tune=5e-3)
        grid = default_grid(design, 4001)
        zeta = math.pi / 2 + np.linspace(-1e-6, 1e-6, n_slot)
        channels = make_channelset(
            np.exp(-1j * zeta)[None, :], SubcarrierGrid(frequencies=np.array([design.f_t]), center_index=0)
        )
        res = center_frequency_beamformer(channels, grid, design)
        assert np.array_equal(res.f_r, dense_center_frequency(channels, grid, design).f_r)

    def test_solve_allocates_no_distance_table(self):
        # a complex (r_res, n_slot) distance table alone takes 16 MB here; the dot table takes 8 MB
        design = DmaDesign(n_slot=256)
        channels = effective_channel(ScenarioConfig(k=16), design)
        grid = default_grid(design, 4001)
        center_frequency_beamformer(channels, grid, design)  # warm call
        tracemalloc.start()
        try:
            center_frequency_beamformer(channels, grid, design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

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

    @settings(deadline=None)
    @given(
        r_res=st.sampled_from((1, 2, 7, 8, 9, 63, 64, 65, 1001)),
        n_slot=st.integers(1, 24),
        half_k=st.integers(1, 16),
        snr_exp=st.floats(-3.0, 3.0),
        tune_exp=st.floats(8.0, 9.9),
        l_path=st.integers(0, 6),  # 0: line of sight
        pin=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_exhaustive_scan(self, r_res, n_slot, half_k, snr_exp, tune_exp, l_path, pin, seed):
        cfg = ScenarioConfig(k=2 * half_k)
        design = DmaDesign(n_slot=n_slot, b_tune=10.0**tune_exp)
        if l_path == 0:
            channels = effective_channel(cfg, design)
        else:
            channels = multipath_channel(MultipathSpec(l_path=l_path, seed=seed, pin_first_to_los=pin), cfg, design)
        snr = snr_profile(cfg) * 10.0**snr_exp
        grid = default_grid(design, r_res)
        res = successive_beamformer(channels, snr, grid, design)
        assert np.array_equal(res.f_r, exhaustive_successive(channels, snr, grid, design))

    def test_one_grid_serves_every_scan_input(self, monkeypatch):
        # one grid across channel draws, subcarrier sets and dampings at one tuning range:
        # a table left over from another solve would make the scan pick other rows than the oracle
        builds = []
        build = normalized_polarizability
        monkeypatch.setattr("dmasim.beamform.normalized_polarizability", lambda *a: builds.append(a) or build(*a))
        grid = default_grid(DmaDesign(n_slot=16), 1001)
        solves = [  # (scenario, q, multipath seed; None for line of sight), each key change rebuilds
            (ScenarioConfig(), 100.0, None),
            (ScenarioConfig(), 100.0, 1),
            (ScenarioConfig(k=16), 100.0, 2),
            (ScenarioConfig(), 100.0, 3),  # back to the first key: one table is kept, not two
            (ScenarioConfig(b=2e9), 100.0, None),
            (ScenarioConfig(b=2e9), 100.0, 4),
            (ScenarioConfig(), 50.0, 5),
            (ScenarioConfig(), 100.0, None),
        ]
        for cfg, q, seed in solves:
            design = DmaDesign(n_slot=16, q=q)
            if seed is None:
                channels = effective_channel(cfg, design)
            else:
                channels = multipath_channel(MultipathSpec(l_path=3, seed=seed), cfg, design)
            snr = snr_profile(cfg)
            res = successive_beamformer(channels, snr, grid, design)
            assert np.array_equal(res.f_r, exhaustive_successive(channels, snr, grid, design))
        assert len(builds) == 6

    def test_result_independent_of_solve_order(self, cfg):
        # Monte-Carlo trials share one grid; no trial may see what an earlier one left on it
        design = DmaDesign(n_slot=16)
        snr = snr_profile(cfg)
        trials = [multipath_channel(MultipathSpec(l_path=l, seed=s), cfg, design) for l, s in [(1, 7), (2, 8), (4, 9)]]
        shared = default_grid(design, 1001)
        forward = [successive_beamformer(c, snr, shared, design).f_r for c in trials]
        backward = [successive_beamformer(c, snr, shared, design).f_r for c in reversed(trials)][::-1]
        fresh = [successive_beamformer(c, snr, default_grid(design, 1001), design).f_r for c in trials]
        for f_r, back, alone in zip(forward, backward, fresh):
            assert np.array_equal(f_r, back) and np.array_equal(f_r, alone)

    @pytest.mark.parametrize("r_res", [5, 201])  # 5: shorter than one interval of any bound level
    def test_silent_element_takes_lowest_resonance(self, cfg, design, rng, r_res):
        # a zero channel column scores every grid row alike, so no interval can be dropped
        d4 = override_fields(design, n_slot=4)
        cfg4 = override_fields(cfg, k=8)
        h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        h[:, 2] = 0.0
        channels = make_channelset(h, subcarrier_grid(cfg4))
        rho = snr_profile(cfg4)
        grid = default_grid(d4, r_res)
        res = successive_beamformer(channels, rho, grid, d4)
        assert res.f_r[2] == grid.values[0]
        np.testing.assert_array_equal(res.f_r, exhaustive_successive(channels, rho, grid, d4))

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
