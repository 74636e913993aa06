import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmasim import (
    ChannelSet,
    DmaDesign,
    MultipathSpec,
    ResonanceConfiguration,
    ResonanceGrid,
    ScenarioConfig,
    SubcarrierGrid,
    center_frequency_beamformer,
    effective_channel,
    leakage_vector,
    lorentzian_weight,
    multipath_channel,
    normalized_polarizability,
    override_fields,
    resonance_grid,
    run_beamformer,
    snr_profile,
    subcarrier_grid,
    successive_beamformer,
    tuning_range,
)
from dmasim import beamform
from dmasim.beamform import ANCHOR_ROW, PRUNE_RTOL, PRUNE_STEP, _circle_arg, _interval_planes
from dmasim.element import _resonance_at_angle
from dmasim.experiments import _gamma_axis


def make_channelset(h, grid):
    return ChannelSet(h=np.asarray(h, dtype=complex), grid=grid)


def dense_center_frequency(channels, grid):
    """The distance table over every grid row: the oracle of the windowed search."""
    kc = channels.grid.center_index
    f_c = channels.grid.f_center
    targets = lorentzian_weight(np.angle(np.conj(channels.h[kc])))  # (n_slot,)
    achievable = normalized_polarizability(f_c, grid.values, grid.design)  # (r_res,)
    dist = np.abs(targets[None, :] - achievable[:, None])  # (r_res, n_slot)
    idx = np.argmin(dist, axis=0)  # first minimum = lower resonant frequency
    return ResonanceConfiguration(f_r=grid.values[idx])


def exhaustive_successive(channels, snr, grid):
    """The successive scan over every grid row: the oracle of the pruned scan."""
    design = grid.design
    snr = np.asarray(snr, dtype=float)
    freq = channels.grid.frequencies
    weights = normalized_polarizability(freq[None, :], grid.values[:, None], design)
    taper = leakage_vector(design)
    running = np.zeros(freq.size, dtype=complex)
    chosen = np.empty(design.n_slot)
    for n in range(design.n_slot):
        contrib = weights * (taper[n] * channels.h[:, n])[None, :]
        objective = np.mean(np.log2(1.0 + snr[None, :] * np.abs(contrib + running[None, :]) ** 2), axis=1)
        best = int(np.argmax(objective))  # first maximum = lower resonant frequency
        chosen[n] = grid.values[best]
        running = running + contrib[best]
    return chosen


def two_point_grid(f_t=15e9, b=1e9):
    freqs = np.array([f_t - b / 2, f_t])
    return SubcarrierGrid(frequencies=freqs)


class TestResonanceGrid:
    def test_endpoints_and_spacing(self, cfg, design):
        grid = resonance_grid(design, subcarrier_grid(cfg), 101)
        assert grid.values[0] == design.f_t - design.b_tune / 2
        assert grid.values[-1] == design.f_t + design.b_tune / 2
        np.testing.assert_allclose(np.diff(grid.values), design.b_tune / 100, rtol=1e-12)

    def test_single_point_sits_at_center(self, cfg, design):
        grid = resonance_grid(design, subcarrier_grid(cfg), 1)
        np.testing.assert_array_equal(grid.values, [design.f_t])

    def test_rejects_empty(self, cfg, design):
        for r_res in (0, 2.5):  # no rows, or not a whole number of them
            with pytest.raises(ValueError, match=f"^r_res must be an integer >= 1, got {r_res}$"):
                resonance_grid(design, subcarrier_grid(cfg), r_res)

    def test_integral_float_resolution_kept_as_int(self, cfg, design):
        # as ExperimentPlan stores r_res=3.0; numpy's linspace rejects a float count
        grid = resonance_grid(design, subcarrier_grid(cfg), np.float64(3.0))
        assert grid.values.shape == (3,)

    @pytest.mark.parametrize(
        "values",
        [[15.1e9, 14.9e9], [14.9e9, math.nan, 15.1e9], [14.9e9, math.inf], [math.nan], 15e9, np.full((2, 3), 15e9), [[15e9]]],
    )
    def test_rejects_descending_or_non_finite(self, cfg, design, values):
        # the center-frequency search places each element among ascending rows; unchecked, a 0-d or
        # multi-dimensional list ended in an IndexError or a TypeError
        with pytest.raises(ValueError, match="^resonance grid values must be a non-empty list, all finite and ascending$"):
            ResonanceGrid(values=np.array(values), design=design, subcarriers=subcarrier_grid(cfg))

    def test_center_row_is_built_once_and_read_only(self, cfg, design, monkeypatch):
        # every center-frequency solve on a grid reads the one row of achievable weights the grid keeps
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 1001)
        calls = []

        def counted(*args):
            calls.append(args)
            return normalized_polarizability(*args)

        monkeypatch.setattr(beamform, "normalized_polarizability", counted)
        picks = [center_frequency_beamformer(channels, grid).f_r for _ in range(3)]
        assert len(calls) == 1 and all(np.array_equal(f_r, picks[0]) for f_r in picks)
        row = grid.center_row
        expected = normalized_polarizability(channels.grid.f_center, grid.values, design)
        assert row.dtype == expected.dtype and row.tobytes() == expected.tobytes()  # bit for bit
        with pytest.raises(ValueError, match="read-only"):
            row[:] = 0
        assert len(calls) == 1

    def test_compares_by_identity(self, cfg, design):
        # the value array has no truth value, so grids compare by identity and stay hashable
        a, b = resonance_grid(design, subcarrier_grid(cfg), 11), resonance_grid(design, subcarrier_grid(cfg), 11)
        assert a == a and a != b and len({a, a, b}) == 2


class TestCenterFrequencyBeamformer:
    def test_resonant_target_lands_on_carrier(self, design):
        # channel phase pi/2 makes the conjugate target exactly -j, which the
        # weight reaches at resonance; an odd grid contains f_t exactly
        grid = two_point_grid()
        h = np.tile(np.exp(1j * math.pi / 2), (2, design.n_slot))
        channels = make_channelset(h, grid)
        res = center_frequency_beamformer(channels, resonance_grid(design, channels.grid, 1001))
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_zero_tuning_bandwidth_pins_to_carrier(self, cfg, design):
        d0 = override_fields(design, b_tune=0.0)
        channels = effective_channel(cfg, d0)
        res = center_frequency_beamformer(channels, resonance_grid(d0, channels.grid, 51))
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_matches_bruteforce_oracle(self, cfg, design):
        d2 = override_fields(design, n_slot=2)
        cfg2 = override_fields(cfg, k=2)
        channels = effective_channel(cfg2, d2)
        grid = resonance_grid(d2, channels.grid, 101)
        res = center_frequency_beamformer(channels, grid)
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
        def tied_grid(n_slot):
            values = np.array([14.9e9, 14.9e9, 15.1e9])
            return ResonanceGrid(values=values, design=override_fields(design, n_slot=n_slot), subcarriers=two_point_grid())

        channels = make_channelset(np.ones((2, 3)), two_point_grid())
        res = center_frequency_beamformer(channels, tied_grid(3))
        assert set(res.f_r) <= {14.9e9, 15.1e9}
        # a target reached equally by both duplicates resolves to index 0
        h = np.tile(np.exp(1j * math.pi / 2), (2, 1))
        res2 = center_frequency_beamformer(make_channelset(h, two_point_grid()), tied_grid(1))
        assert res2.f_r[0] == 14.9e9

    def test_rejects_empty_grid(self, design):
        with pytest.raises(ValueError):
            ResonanceGrid(values=np.array([]), design=design, subcarriers=two_point_grid())

    @pytest.mark.exactness
    @settings(deadline=None)
    @given(
        kind=st.sampled_from(("los", "multipath", "synthetic")),
        n_slot=st.integers(1, 64),
        r_res=st.sampled_from((1, 2, 3, 4, 5, 6, 7, 64, 65, 1001, 4001)),  # 4: the last grid its 4-row window covers
        b_tune=st.one_of(
            st.just(0.0),
            st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
            st.floats(6.0, 10.4).map(lambda e: 10.0**e),  # 10**10.4 Hz stays below 2 * f_t
        ),
        q_exp=st.floats(0.0, 3.0),
        placed=st.sampled_from(("channel", "on grid", "special", "gap")),
        seed=st.integers(0, 2**16),
    )
    # targets in the arc's gap whose nearest rows are 0 and r_res - 1 (a scan blind to the wrap returns the wrong one)
    @example(kind="los", n_slot=30, r_res=4001, b_tune=2.47e7, q_exp=0.06, placed="gap", seed=37605)
    @example(kind="multipath", n_slot=29, r_res=64, b_tune=1.72e6, q_exp=1.37, placed="gap", seed=34073)
    @example(kind="los", n_slot=23, r_res=1001, b_tune=1.42e8, q_exp=1.13, placed="gap", seed=11627)
    # one weight on every row: every window end ties its best, so every element is scored on every row
    @example(kind="synthetic", n_slot=64, r_res=4001, b_tune=0.0, q_exp=2.0, placed="channel", seed=1)
    # a sub-ulp spacing repeats rows: 6 rows hold 3 distinct resonances
    @example(kind="los", n_slot=40, r_res=6, b_tune=4e-6, q_exp=2.0, placed="on grid", seed=2)
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
        grid = resonance_grid(design, channels.grid, r_res)
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
        elif placed == "gap":  # opposite the middle of the weight arc, where rows 0 and r_res - 1 tie
            psi = np.angle(2 * normalized_polarizability(channels.grid.f_center, grid.values, design) + 1j)
            arc = np.mod(psi[-1] - psi[0], 2 * math.pi)  # psi rises with the row over an arc shorter than 2 pi
            zeta = psi[-1] + (2 * math.pi - arc) / 2 + rng.normal(0.0, 1e-13, n_slot)
            h[kc, moved] = np.exp(-1j * zeta[moved])
        h[:, rng.random(n_slot) < 0.15] = 0.0  # silent elements
        channels = make_channelset(h, channels.grid)
        res = center_frequency_beamformer(channels, grid)
        assert np.array_equal(res.f_r, dense_center_frequency(channels, grid).f_r)

    @pytest.mark.exactness
    @settings(deadline=None)
    @given(
        l_path=st.sampled_from((0, 4)),  # 0: line of sight
        tune=st.sampled_from((0.25, 1.0, 4.0)),
        r_res=st.sampled_from((2, 3, 5, 17, 101, 1001)),
        seed=st.integers(0, 2**16),
    )
    def test_picks_bracket_the_grid_free_resonance(self, l_path, tune, r_res, seed):
        # the r_res -> infinity limit takes the resonance each target angle inverts to; the grid's pick is one of the
        # two grid values around it, or an end value when the limit lies outside the tuning range
        cfg = ScenarioConfig(k=8)
        design = DmaDesign(n_slot=16, b_tune=tune * DmaDesign().gamma)
        if l_path == 0:
            channels = effective_channel(cfg, design)
        else:
            channels = multipath_channel(MultipathSpec(l_path=l_path, seed=seed), cfg, design)
        grid = resonance_grid(design, channels.grid, r_res)
        zeta = np.angle(np.conj(channels.h[channels.grid.center_index]))
        pos = np.searchsorted(grid.values, _resonance_at_angle(channels.grid.f_center, zeta, design))
        bracket = grid.values[np.clip([pos - 1, pos], 0, r_res - 1)]
        ends = grid.values[[0, -1], None]
        picks = center_frequency_beamformer(channels, grid).f_r
        assert np.all((picks == bracket).any(axis=0) | (picks == ends).any(axis=0))

    def test_sub_hz_far_target_tie(self):
        # every grid weight sits within ~1e-15 of the same distance from a target at the origin point:
        # each window's end rows tie its least distance, so every element is ranked on every row
        n_slot = 64
        design = DmaDesign(n_slot=n_slot, b_tune=5e-3)
        zeta = math.pi / 2 + np.linspace(-1e-6, 1e-6, n_slot)
        channels = make_channelset(np.exp(-1j * zeta)[None, :], SubcarrierGrid(frequencies=np.array([design.f_t])))
        grid = resonance_grid(design, channels.grid, 4001)
        res = center_frequency_beamformer(channels, grid)
        assert np.array_equal(res.f_r, dense_center_frequency(channels, grid).f_r)

    @pytest.mark.parametrize("start,far", [(16e9, (-4e8, -2e8)), (14.5e9, (2e8, 4e8))])
    def test_misplaced_window_falls_back(self, start, far):
        # 60 rows 1 ulp apart far off resonance, beside two far rows: the angle inverse lands several rows off a
        # target's own row, past the window's end on the dense side, and only the end-row test there sends it to
        # the full row (the far rows before the dense ones test the right end, those after them the left end)
        design = DmaDesign(n_slot=62, q=1000.0)
        values = np.sort(np.concatenate([start + np.arange(60) * np.spacing(start), start + np.array(far)]))
        sub = SubcarrierGrid(frequencies=np.array([15e9]))
        grid = ResonanceGrid(values=values, design=design, subcarriers=sub)
        zeta = np.angle(2 * normalized_polarizability(15e9, values, design) + 1j)  # each target on its own row
        channels = make_channelset(np.exp(-1j * zeta)[None, :], sub)
        assert np.array_equal(center_frequency_beamformer(channels, grid).f_r, dense_center_frequency(channels, grid).f_r)

    @pytest.mark.exactness
    @pytest.mark.parametrize("l_path", [0, 4])  # 0: line of sight
    def test_matches_dense_scan_at_benchmark_sizes(self, l_path):
        # 256 slots x 4001 rows at each point of the default tuning axis
        design, cfg = DmaDesign(n_slot=256), ScenarioConfig()
        for b_tune in _gamma_axis(design):
            d = override_fields(design, b_tune=b_tune)
            if l_path == 0:
                channels = effective_channel(cfg, d)
            else:
                channels = multipath_channel(MultipathSpec(l_path=l_path, seed=4), cfg, d)
            grid = resonance_grid(d, channels.grid, 4001)
            assert np.array_equal(center_frequency_beamformer(channels, grid).f_r, dense_center_frequency(channels, grid).f_r)

    def test_solve_allocates_no_distance_table(self):
        # a complex (r_res, n_slot) distance table alone takes 16 MB here; the windowed search takes no table
        design = DmaDesign(n_slot=256)
        channels = effective_channel(ScenarioConfig(k=16), design)
        grid = resonance_grid(design, channels.grid, 4001)
        center_frequency_beamformer(channels, grid)  # warm call
        tracemalloc.start()
        try:
            center_frequency_beamformer(channels, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_solve_stays_under_one_megabyte(self):
        # a (n_slot, r_res) dot table takes 8 MB here; the search keeps 4 rows per element
        design = DmaDesign(n_slot=256)
        channels = effective_channel(ScenarioConfig(), design)
        grid = resonance_grid(design, channels.grid, 4001)
        center_frequency_beamformer(channels, grid)  # warm call
        tracemalloc.start()
        try:
            center_frequency_beamformer(channels, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_deterministic(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 501)
        a = center_frequency_beamformer(channels, grid)
        b = center_frequency_beamformer(channels, grid)
        np.testing.assert_array_equal(a.f_r, b.f_r)

    def test_stays_in_range(self, cfg, design):
        channels = effective_channel(cfg, design)
        res = center_frequency_beamformer(channels, resonance_grid(design, channels.grid, 257))
        f_r_min, f_r_max = tuning_range(design)
        assert np.all((res.f_r >= f_r_min) & (res.f_r <= f_r_max))


def _scan_state(design, l_path, element, snr_scale=1.0):
    """The successive scan at one element on a 1001-row grid: snr, grid, weights, the element's tap, the running sum."""
    cfg = ScenarioConfig()
    if l_path == 0:
        channels = effective_channel(cfg, design)
    else:
        channels = multipath_channel(MultipathSpec(l_path=l_path, seed=l_path), cfg, design)
    snr = snr_profile(cfg) * snr_scale
    grid = resonance_grid(design, channels.grid, 1001)  # 15 whole 64-row intervals and a short one of 41 rows
    weights = normalized_polarizability(channels.grid.frequencies[None, :], grid.values[:, None], design)
    taps = leakage_vector(design) * channels.h
    picks = np.searchsorted(grid.values, exhaustive_successive(channels, snr, grid))
    running = np.sum(weights[picks[:element]] * taps[:, :element].T, axis=0)  # the earlier elements' selections
    return snr, grid, weights, taps[:, element], running


def _check_interval_planes(design, l_path, element):
    # each interval's plane, one real product per row, is the objective's tangent plane at the interval's anchor:
    # above every row, equal at its anchor; its interval bound, the plane's larger end-row value plus its rise over
    # the reach about the end rows' chord, is above every row of the interval and above the plane on each of them
    snr, grid, weights, a, running = _scan_state(design, l_path, element)
    table, ends, reach = grid.successive_table
    blocks = table.reshape(reach.shape[0], PRUNE_STEP, -1)
    starts = np.arange(reach.shape[0]) * PRUNE_STEP
    anchors = starts + ANCHOR_ROW  # the short interval's too: 991 of its rows 960-1000
    assert np.array_equal(table[: grid.r_res], weights) and np.all(table[grid.r_res :] == weights[-1])
    assert np.array_equal(ends, blocks[:, [0, ANCHOR_ROW, PRUNE_STEP - 1]])
    assert np.array_equal(ends[:, 1], weights[anchors])
    first, last = ends[:, None, 0], ends[:, None, 2]
    chord = np.arange(PRUNE_STEP)[:, None] / (PRUNE_STEP - 1) * (last - first)  # from the first row, per row offset
    assert np.array_equal(reach, np.max(np.abs(blocks - first - chord), axis=1))
    z = np.abs(weights * a + running) ** 2
    exact = np.mean(np.log2(1.0 + snr * z), axis=1)
    floor = np.max(exact[anchors])
    scale = (snr / ((1.0 + snr * z[anchors]) * math.log(2.0) * snr.size)) @ (np.abs(a) + np.abs(running)) ** 2
    v, cut, bound = _interval_planes(a, running, snr, ends, reach)
    flat = weights.view(np.float64)
    for i, (r0, lo) in enumerate(zip(anchors, starts)):
        plane = exact[r0] + (flat - flat[r0]) @ v[i]
        tangent = np.mean(np.log2(1.0 + snr * z[r0]) + snr / ((1.0 + snr * z[r0]) * math.log(2.0)) * (z - z[r0]), axis=1)
        tol = 1e-12 * (1.0 + np.max(exact) + scale[i])
        assert plane[r0] == exact[r0] and tangent[r0] == pytest.approx(exact[r0], rel=1e-15, abs=0)
        np.testing.assert_allclose(plane, tangent, rtol=0, atol=tol)
        assert np.all(plane >= exact - tol)
        assert np.max(plane - exact) > 1e3 * tol  # not equal to the objective everywhere
        shift = exact[r0] - flat[r0] @ v[i]  # from a row's plane product to its plane value
        assert shift + cut[i] == pytest.approx(floor - PRUNE_RTOL * (1.0 + abs(floor) + scale[i]), rel=0, abs=tol)
        rows = slice(lo, lo + PRUNE_STEP)
        assert shift + bound[i] >= np.max(exact[rows]) - tol
        assert np.all(plane[rows] <= shift + bound[i] + tol)


def _live_intervals(channels, snr, grid, picks):
    """Per element of the scan that picks the resonances picks: its row and the intervals its interval bound keeps."""
    table, ends, reach = grid.successive_table
    taps = leakage_vector(grid.design) * channels.h
    running = np.zeros(channels.k, dtype=complex)
    for n, row in enumerate(np.searchsorted(grid.values, picks)):
        _, cut, bound = _interval_planes(taps[:, n], running, snr, ends, reach)
        yield row, np.flatnonzero(~(bound < cut))
        running = running + table[row] * taps[:, n]


class TestSuccessiveBeamformer:
    def test_single_element_single_subcarrier_maximizes_gain(self, design):
        d1 = override_fields(design, n_slot=1)
        grid_1k = SubcarrierGrid(frequencies=np.array([15e9]))
        channels = make_channelset(np.exp(1j * 0.7) * np.ones((1, 1)), grid_1k)
        grid = resonance_grid(d1, channels.grid, 201)
        res = successive_beamformer(channels, np.array([5.0]), grid)
        gains = np.abs(normalized_polarizability(15e9, grid.values, d1) * channels.h[0, 0])
        assert res.f_r[0] == grid.values[int(np.argmax(gains))]

    def test_matches_stagewise_bruteforce_oracle(self, cfg, design):
        d2 = override_fields(design, n_slot=2)
        cfg2 = override_fields(cfg, k=2)
        channels = effective_channel(cfg2, d2)
        rho = snr_profile(cfg2)
        grid = resonance_grid(d2, channels.grid, 51)
        res = successive_beamformer(channels, rho, grid)

        freqs = channels.grid.frequencies
        taper = leakage_vector(d2)
        running = np.zeros(2, dtype=complex)
        for n in range(2):
            best_idx, best_val = 0, -float("inf")
            for i, f_r in enumerate(grid.values):
                u = np.array(
                    [
                        normalized_polarizability(f, f_r, d2) * taper[n] * channels.h[k, n]
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
                    normalized_polarizability(f, f_star, d2) * taper[n] * channels.h[k, n]
                    for k, f in enumerate(freqs)
                ]
            )

    def test_degenerate_grid_pins_every_element(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 1)
        res = successive_beamformer(channels, snr_profile(cfg), grid)
        np.testing.assert_array_equal(res.f_r, np.full(design.n_slot, design.f_t))

    def test_selected_point_beats_worst_grid_point(self, cfg, design):
        # sanity floor implied by the argmax construction, checked explicitly
        d4 = override_fields(design, n_slot=4)
        cfg4 = override_fields(cfg, k=4)
        channels = effective_channel(cfg4, d4)
        rho = snr_profile(cfg4)
        grid = resonance_grid(d4, channels.grid, 31)
        res = successive_beamformer(channels, rho, grid)
        freqs = channels.grid.frequencies
        taper = leakage_vector(d4)
        running = np.zeros(4, dtype=complex)
        for n in range(4):
            def objective(f_r):
                u = normalized_polarizability(freqs, f_r, d4) * taper[n] * channels.h[:, n]
                return float(np.mean(np.log2(1 + rho * np.abs(u + running) ** 2)))

            best = objective(res.f_r[n])
            assert all(best >= objective(f_r) - 1e-12 for f_r in grid.values)
            running += normalized_polarizability(freqs, res.f_r[n], d4) * taper[n] * channels.h[:, n]

    def test_deterministic_and_in_range(self, cfg, design):
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 101)
        rho = snr_profile(cfg)
        a = successive_beamformer(channels, rho, grid)
        b = successive_beamformer(channels, rho, grid)
        np.testing.assert_array_equal(a.f_r, b.f_r)
        f_r_min, f_r_max = tuning_range(design)
        assert np.all((a.f_r >= f_r_min) & (a.f_r <= f_r_max))

    @pytest.mark.exactness
    @settings(deadline=None)
    @given(
        r_res=st.sampled_from((1, 2, 7, 8, 9, 63, 64, 65, 1001, 2001, 4001)),
        n_slot=st.integers(1, 24),
        half_k=st.integers(1, 16),
        snr_exp=st.floats(-3.0, 3.0),
        tune_exp=st.floats(8.0, 9.9),
        l_path=st.integers(0, 6),  # 0: line of sight
        pin=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # b_tune = 0.47 Gamma at the benchmark's large size, where a plane at the best anchor alone left ~330 rows per element
    @example(r_res=4001, n_slot=24, half_k=32, snr_exp=0.0, tune_exp=8.646, l_path=0, pin=False, seed=0)
    def test_matches_exhaustive_scan(self, r_res, n_slot, half_k, snr_exp, tune_exp, l_path, pin, seed):
        cfg = ScenarioConfig(k=2 * half_k)
        design = DmaDesign(n_slot=n_slot, b_tune=10.0**tune_exp)
        if l_path == 0:
            channels = effective_channel(cfg, design)
        else:
            channels = multipath_channel(MultipathSpec(l_path=l_path, seed=seed, pin_first_to_los=pin), cfg, design)
        snr = snr_profile(cfg) * 10.0**snr_exp
        grid = resonance_grid(design, channels.grid, r_res)
        res = successive_beamformer(channels, snr, grid)
        assert np.array_equal(res.f_r, exhaustive_successive(channels, snr, grid))

    @pytest.mark.parametrize("l_path", [0, 1, 4])  # 0: line of sight
    def test_tangent_plane_bounds_every_row(self, l_path):
        # the 9th element at the default tuning bandwidth
        _check_interval_planes(DmaDesign(n_slot=16), l_path, element=8)

    @pytest.mark.exactness
    @settings(deadline=None)
    @given(l_path=st.sampled_from((0, 1, 4)), tune_exp=st.floats(8.0, 9.9), element=st.integers(0, 15))  # 0: LOS
    def test_interval_planes_bound_every_row(self, l_path, tune_exp, element):
        _check_interval_planes(DmaDesign(n_slot=16, b_tune=10.0**tune_exp), l_path, element)

    @pytest.mark.exactness
    @settings(deadline=None)
    @given(
        l_path=st.sampled_from((0, 1, 4)),  # 0: line of sight
        tune_exp=st.floats(8.0, 9.9),
        snr_exp=st.floats(-3.0, 3.0),
        element=st.integers(0, 15),
    )
    def test_circle_arg_matches_direct_expression(self, l_path, tune_exp, snr_exp, element):
        # the anchors take the log's argument through the circle identity, far inside the bounds' margin PRUNE_RTOL
        design = DmaDesign(n_slot=16, b_tune=10.0**tune_exp)
        snr, _, weights, a, running = _scan_state(design, l_path, element, 10.0**snr_exp)
        direct = 1.0 + snr * np.abs(weights * a + running) ** 2
        size = 1.0 + snr * (np.abs(a) + np.abs(running)) ** 2
        arg = _circle_arg(weights, a, running, snr, np.abs(a), np.abs(running))[1]
        assert np.all(np.abs(arg - direct) <= 1e-12 * size)

    @pytest.mark.exactness
    def test_split_live_intervals(self):
        # at b_tune = 3 Gamma elements 59, 60, 61 and 63 keep intervals on both sides of dropped ones, so the scan's
        # one plane product spans the dropped ones; 59, 61 and 63 pick past their first run of kept intervals, 60
        # before its last, so scoring any one run alone would lose a maximum
        design = DmaDesign(n_slot=64, b_tune=3.0 * DmaDesign().gamma)
        cfg = ScenarioConfig()
        channels = effective_channel(cfg, design)
        snr = snr_profile(cfg)
        grid = resonance_grid(design, channels.grid, 4001)
        picks = exhaustive_successive(channels, snr, grid)
        split = []  # per split element: (its pick lies past its first run, before its last run)
        for row, live in _live_intervals(channels, snr, grid, picks):
            gaps = np.flatnonzero(np.diff(live) > 1)
            if gaps.size:
                split.append((row // PRUNE_STEP > live[gaps[0]], row // PRUNE_STEP < live[gaps[-1] + 1]))
        assert any(past for past, _ in split) and any(before for _, before in split)
        assert np.array_equal(successive_beamformer(channels, snr, grid).f_r, picks)

    def test_row_test_spans_few_intervals(self):
        # at b_tune = 0.47 Gamma a bound from the plane's rise about each interval's anchor leaves a row-test product
        # over a mean of 21.5 of the 63 intervals per element; the chord between the end rows leaves 5.1
        design = DmaDesign(n_slot=256, b_tune=0.47 * DmaDesign().gamma)
        cfg = ScenarioConfig()
        channels = effective_channel(cfg, design)
        snr = snr_profile(cfg)
        grid = resonance_grid(design, channels.grid, 4001)
        picks = successive_beamformer(channels, snr, grid).f_r
        assert np.mean([live[-1] + 1 - live[0] for _, live in _live_intervals(channels, snr, grid, picks)]) <= 8

    def test_result_independent_of_solve_order(self, cfg):
        # Monte-Carlo trials share one grid; no trial may see what an earlier one left on it
        design = DmaDesign(n_slot=16)
        snr = snr_profile(cfg)
        trials = [multipath_channel(MultipathSpec(l_path=l, seed=s), cfg, design) for l, s in [(1, 7), (2, 8), (4, 9)]]
        shared = resonance_grid(design, subcarrier_grid(cfg), 1001)
        forward = [successive_beamformer(c, snr, shared).f_r for c in trials]
        backward = [successive_beamformer(c, snr, shared).f_r for c in reversed(trials)][::-1]
        fresh = [successive_beamformer(c, snr, resonance_grid(design, c.grid, 1001)).f_r for c in trials]
        for c, f_r, back, alone in zip(trials, forward, backward, fresh):
            assert np.array_equal(f_r, back) and np.array_equal(f_r, alone)
            assert np.array_equal(f_r, exhaustive_successive(c, snr, shared))

    def test_table_is_read_only(self, cfg):
        # a shared grid serves every later solve: a write through its table would change them all
        design = DmaDesign(n_slot=16)
        channels = effective_channel(cfg, design)
        snr = snr_profile(cfg)
        grid = resonance_grid(design, channels.grid, 1001)
        for part in grid.successive_table:
            with pytest.raises(ValueError, match="read-only"):
                part[:] = 0
        res = successive_beamformer(channels, snr, grid)
        assert np.array_equal(res.f_r, exhaustive_successive(channels, snr, grid))

    def test_table_builds_in_the_array_it_returns(self, cfg, design):
        # built from full-size temporaries, a fresh 1001 x 64 table peaked at 2.5 times its own size
        resonance_grid(design, cfg.subcarriers, 1001).successive_table  # warm call
        grid = resonance_grid(design, cfg.subcarriers, 1001)
        tracemalloc.start()
        try:
            weights = grid.successive_table[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * weights.nbytes

    @pytest.mark.parametrize("algorithm", ["center-frequency", "successive"])
    def test_rejects_grid_of_other_subcarriers(self, design, algorithm):
        # a grid's tables serve its own subcarriers only: equal k at another bandwidth is refused by both algorithms,
        # the center-frequency one although its center subcarrier is the same
        grid = resonance_grid(design, subcarrier_grid(ScenarioConfig(k=8, b=5e8)), 51)
        cfg = ScenarioConfig(k=8, b=2e9)
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError, match="^channel subcarriers differ from the resonance grid's$"):
            if algorithm == "center-frequency":
                center_frequency_beamformer(channels, grid)
            else:
                successive_beamformer(channels, snr_profile(cfg), grid)

    @pytest.mark.parametrize("r_res", [5, 201])  # 5: shorter than one interval of any bound level
    def test_silent_element_takes_lowest_resonance(self, cfg, design, rng, r_res):
        # a zero channel column scores every grid row alike, so no interval can be dropped
        d4 = override_fields(design, n_slot=4)
        cfg4 = override_fields(cfg, k=8)
        h = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        h[:, 2] = 0.0
        channels = make_channelset(h, subcarrier_grid(cfg4))
        rho = snr_profile(cfg4)
        grid = resonance_grid(d4, channels.grid, r_res)
        res = successive_beamformer(channels, rho, grid)
        assert res.f_r[2] == grid.values[0]
        np.testing.assert_array_equal(res.f_r, exhaustive_successive(channels, rho, grid))

    def test_rejects_mismatched_snr(self, cfg, design):
        channels = effective_channel(cfg, design)
        with pytest.raises(ValueError):
            successive_beamformer(channels, np.ones(3), resonance_grid(design, channels.grid, 11))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_snr(self, bad):
        # both bounds need log2(1 + s * z) concave and increasing; unchecked, -1 fails inside numpy and NaN or
        # inf silently gives every element the same pick
        cfg = ScenarioConfig(k=8)
        channels = effective_channel(cfg, DmaDesign(n_slot=8))
        snr = snr_profile(cfg)
        snr[3] = bad
        with pytest.raises(ValueError, match="snr list must be finite and non-negative"):
            successive_beamformer(channels, snr, resonance_grid(DmaDesign(n_slot=8), channels.grid, 201))

    @pytest.mark.exactness
    def test_zero_snr_matches_exhaustive_scan(self):
        cfg = ScenarioConfig(k=8)
        channels = effective_channel(cfg, DmaDesign(n_slot=8))
        grid = resonance_grid(DmaDesign(n_slot=8), channels.grid, 201)
        for snr in (np.zeros(8), np.where(np.arange(8) % 2, snr_profile(cfg), 0.0)):
            res = successive_beamformer(channels, snr, grid)
            assert np.array_equal(res.f_r, exhaustive_successive(channels, snr, grid))

    def test_solve_stays_under_one_megabyte(self):
        # at b_tune = 0.47 Gamma one plane at the best anchor left a mean of 328 rows per element and an 8 MB peak
        design = DmaDesign(n_slot=256, b_tune=0.47 * DmaDesign().gamma)
        cfg = ScenarioConfig()
        channels = effective_channel(cfg, design)
        snr = snr_profile(cfg)
        grid = resonance_grid(design, channels.grid, 4001)
        successive_beamformer(channels, snr, grid)  # warm call: builds the grid's table
        tracemalloc.start()
        try:
            successive_beamformer(channels, snr, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


@pytest.mark.parametrize(
    "algorithm,channel_slots,grid_slots", [("center-frequency", 4, 8), ("successive", 8, 4), ("successive", 4, 8)]
)
def test_rejects_channel_of_other_element_count(algorithm, channel_slots, grid_slots):
    # unchecked, the first call scores 4 elements with the 8-slot design (6.03 bit/s/Hz), the second
    # configures only 4 of the 8 elements before the scoring fails, and the third raises IndexError
    cfg = ScenarioConfig(k=8)
    channels = effective_channel(cfg, DmaDesign(n_slot=channel_slots))
    grid = resonance_grid(DmaDesign(n_slot=grid_slots), channels.grid, 51)
    with pytest.raises(ValueError, match="element count"):
        run_beamformer(algorithm, channels, cfg, grid)
