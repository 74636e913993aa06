import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dmasim import (
    DmaDesign,
    ResonanceConfiguration,
    dma_weight_matrix,
    linear_phase_approx,
    lorentzian_weight,
    normalized_polarizability,
    override_fields,
    tuning_range,
)
from dmasim.element import _detuning, _resonance_at_angle
from oracles import normalized_polarizability_exact

designs = st.builds(
    DmaDesign,
    q=st.floats(0.5, 1e4),
    f_t=st.floats(1e9, 1e11),
    f_c10=st.just(1e8),
    b_tune=st.just(1e8),
)
freqs = st.floats(1e8, 1e12)


def polarizability(f, f_r, design: DmaDesign, f_coupl: float):
    """Magnetic polarizability 2*pi*f^2*F / (2*pi*f_r^2 - 2*pi*f^2 + j*Gamma*f).

    The rational form of the element response with coupling factor F, kept
    here as the oracle of normalized_polarizability. The damping term
    j*Gamma*f keeps the denominator away from zero for all real frequencies.
    """
    f = np.asarray(f, dtype=float)
    f_r = np.asarray(f_r, dtype=float)
    num = 2 * math.pi * f * f * f_coupl
    den = 2 * math.pi * f_r * f_r - 2 * math.pi * f * f + 1j * design.gamma * f
    out = num / den
    return complex(out) if out.ndim == 0 else out


class TestPolarizability:
    def test_resonance_value(self, design):
        # at f == f_r the response is -j * Q_k * F
        f = 12e9
        q_k = 2 * math.pi * f / design.gamma
        got = polarizability(f, f, design, 2.5)
        assert got == pytest.approx(-1j * q_k * 2.5, rel=1e-12)

    def test_vanishes_for_remote_resonance(self, design):
        assert abs(polarizability(15e9, 1e15, design, 1.0)) < 1e-9

    @given(design=designs, f_coupl=st.floats(0.1, 10.0), f=freqs, f_r=freqs)
    def test_normalized_form_matches_rational_form(self, design, f_coupl, f, f_r):
        # the coupling factor cancels: the normalized weight is the polarizability over Q_k * F, for every F
        q_k = 2 * math.pi * f / design.gamma
        direct = polarizability(f, f_r, design, f_coupl) / (q_k * f_coupl)
        assert cmath.isclose(direct, normalized_polarizability(f, f_r, design), rel_tol=1e-9)


class TestNormalizedPolarizability:
    def test_resonance_is_minus_j(self, design):
        assert normalized_polarizability(15e9, 15e9, design) == -1j

    def test_frozen_offresonance_value(self, design):
        got = normalized_polarizability(15e9, 15.1e9, design)
        assert got.real == pytest.approx(0.47955050769688301, rel=1e-12)
        assert got.imag == pytest.approx(-0.35846798748105873, rel=1e-12)

    def test_vanishes_far_from_resonance(self, design):
        assert abs(normalized_polarizability(15e9, 1e14, design)) < 1e-6

    @given(design=designs, f=freqs, f_r=freqs)
    def test_circle_membership(self, design, f, f_r):
        w = normalized_polarizability(f, f_r, design)
        assert abs(abs(w + 0.5j) - 0.5) <= 1e-12

    @given(design=designs, f=freqs, f_r=freqs)
    def test_amplitude_phase_form(self, design, f, f_r):
        # on the circle through 0 and -j the amplitude is cos(psi) with psi = arg w + pi/2 = arctan(x)
        w = normalized_polarizability(f, f_r, design)
        psi = cmath.phase(w) + math.pi / 2
        assert cmath.isclose(w, math.cos(psi) * cmath.exp(1j * (psi - math.pi / 2)), rel_tol=0, abs_tol=1e-12)
        assert psi == pytest.approx(math.atan(_detuning(f, f_r, design)), rel=0, abs=1e-12)

    def test_peak_amplitude_and_monotone_falloff(self, design):
        f = 15e9
        offsets = np.linspace(0.0, 2e9, 200)
        amps = np.abs(normalized_polarizability(f, f + offsets, design))
        assert amps[0] == 1.0
        assert np.all(np.diff(amps) < 0)

    @pytest.mark.exactness
    @pytest.mark.parametrize("layout", ["0-d", "1-D", "columns", "rows"])
    @given(design=designs, pairs=st.lists(st.tuples(freqs, freqs | st.just(0.0)), min_size=1, max_size=8))
    # q = 1 at f_t = 3 * 2**32 makes Gamma 2**32 fl(3 fl(2 pi)): with m = 2**32 the pairs (m, 2m), (4m, 2m) and
    # (2m, 2m) detune by exactly 1, -1 and 0, so |x| = 1 meets the complex division's branch point
    @example(design=DmaDesign(q=1.0, f_t=3 * 2**32), pairs=[(2.0**32, 2.0**33), (2.0**34, 2.0**33), (2.0**33, 2.0**33)])
    # q = 1e300: the pairs detune by -1e300, about 1e300 and 3e300, where 1/x leaves the normal range
    @example(design=DmaDesign(q=1e300), pairs=[(15e9, 0.0), (15e9, 15e9 * math.sqrt(2.0)), (15e9, 30e9)])
    def test_one_array_form_equals_exact_expression(self, layout, design, pairs):
        f, f_r = (np.array(v) for v in zip(*pairs))
        cases = {
            "0-d": pairs,
            "1-D": [(f, f_r)],
            "columns": [(f[:, None], f_r[None, :])],  # (k, n_slot), as dma_weight_matrix
            "rows": [(f[None, :], f_r[:, None])],  # (r_res, k), as the successive table
        }[layout]
        for a, b in cases:
            got, want = normalized_polarizability(a, b, design), normalized_polarizability_exact(a, b, design)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(np.atleast_1d(got).view(np.int64), np.atleast_1d(want).view(np.int64))


class TestPolarizabilityPhase:
    # the phase is the weight's own argument, arctan(x) - pi/2 in (-pi, 0)
    def test_zero_at_resonance(self, design):
        assert np.angle(normalized_polarizability(15e9, 15e9, design)) == -math.pi / 2

    def test_limit_for_remote_resonance(self, design):
        assert np.angle(normalized_polarizability(15e9, 1e14, design)) == pytest.approx(0.0, abs=1e-6)

    def test_frozen_value(self, design):
        phase = np.angle(normalized_polarizability(15e9, 15.1e9, design))
        assert phase == pytest.approx(0.92889181057792501 - math.pi / 2, rel=1e-12)


class TestLinearPhaseApprox:
    def test_value_at_resonance(self, design):
        assert linear_phase_approx(15e9, 15e9, design) == -math.pi / 2

    def test_slope_is_exactly_linear(self, design):
        f_r, delta = 15e9, float(2**26)
        slope = (linear_phase_approx(f_r + delta, f_r, design) - linear_phase_approx(f_r - delta, f_r, design)) / (
            2 * delta
        )
        assert slope == pytest.approx(-4 * math.pi / design.gamma, rel=1e-13)

    @staticmethod
    def _max_error(design, delta):
        f_r = design.f_t
        f = f_r + np.linspace(-delta, delta, 2001)
        true = np.angle(normalized_polarizability(f, f_r, design))
        return float(np.max(np.abs(true - linear_phase_approx(f, f_r, design))))

    def test_second_order_convergence_in_the_small_offset_regime(self, design):
        # quadratic remainder dominates once the cubic arctan term is negligible
        ratio = self._max_error(design, 2e4) / self._max_error(design, 1e4)
        assert 3.6 <= ratio <= 4.4

    def test_quarter_linewidth_offsets_sit_in_the_cubic_regime(self, design):
        # characterization: at delta = Gamma/(16*pi) the odd third-order term of
        # arctan dominates the curvature term by ~Q/3, so halving shrinks the
        # error by ~8, not 4; the factor-4 regime needs much smaller offsets.
        d0 = design.gamma / (16 * math.pi)
        ratio = self._max_error(design, d0) / self._max_error(design, d0 / 2)
        assert ratio == pytest.approx(7.56, abs=0.25)


class TestLorentzianWeight:
    def test_anchor_points(self):
        assert lorentzian_weight(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert lorentzian_weight(3 * math.pi / 2) == pytest.approx(-1j, abs=1e-15)
        assert lorentzian_weight(0.0) == pytest.approx((1 - 1j) / 2, abs=1e-15)
        assert abs(lorentzian_weight(0.0)) == pytest.approx(math.sqrt(2) / 2, rel=1e-15)

    @given(zeta=st.floats(0, 2 * math.pi))
    def test_circle_membership(self, zeta):
        assert abs(abs(lorentzian_weight(zeta) + 0.5j) - 0.5) <= 1e-15


@pytest.mark.parametrize("q", [10.0, 100.0, 1000.0])
def test_resonance_at_angle_inverts_the_weight_angle(q):
    # across the reachable arc, from just above the angle of f_r = 0 up to pi/2, as a channel angle in (-pi, pi]
    design, f = DmaDesign(q=q), 15.1e9
    lowest = math.pi / 2 - 2 * math.atan2(1.0, -2 * math.pi * f / design.gamma)
    arc = np.concatenate([np.linspace(lowest + 1e-9, math.pi / 2 - 1e-9, 2001), [-math.pi / 2, -math.pi, 0.0]])
    zeta = np.angle(np.exp(1j * arc))
    f_r = _resonance_at_angle(f, zeta, design)
    psi = np.angle(2 * normalized_polarizability(f, f_r, design) + 1j)  # the weight's angle about -j/2
    assert np.max(np.abs(np.angle(np.exp(1j * (psi - zeta))))) < 1e-12
    assert _resonance_at_angle(f, -math.pi / 2, design) == f  # -j: resonance


class TestTuningRangeAndWeights:
    def test_range_centered_on_carrier(self, design):
        f_r_min, f_r_max = tuning_range(design)
        assert f_r_max - f_r_min == pytest.approx(design.b_tune, rel=1e-15)
        assert (f_r_min + f_r_max) / 2 == pytest.approx(design.f_t, rel=1e-15)

    def test_degenerate_range(self, design):
        f_r_min, f_r_max = tuning_range(override_fields(design, b_tune=0.0))
        assert f_r_min == f_r_max == design.f_t

    def test_all_resonant_elements_give_minus_j(self, design):
        res = ResonanceConfiguration(f_r=np.full(design.n_slot, design.f_t))
        weights = dma_weight_matrix(res, [design.f_t], design)[0]
        np.testing.assert_array_equal(weights, np.full(design.n_slot, -1j))

    def test_single_element_reduces_to_scalar_weight(self, design):
        d1 = override_fields(design, n_slot=1)
        res = ResonanceConfiguration(f_r=np.array([15.05e9]))
        got = dma_weight_matrix(res, [15e9], d1)[0]
        assert got.shape == (1,)
        assert got[0] == normalized_polarizability(15e9, 15.05e9, d1)

    def test_mixed_resonances_concatenate_elementwise(self, design):
        f_r = np.array([14.9e9, 15.0e9, 15.3e9])
        res = ResonanceConfiguration(f_r=f_r)
        got = dma_weight_matrix(res, [15e9], design)[0]
        expected = [normalized_polarizability(15e9, fr, design) for fr in f_r]
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    @pytest.mark.parametrize("offset", [1.0, -1.0, math.nan], ids=["above", "below", "nan"])
    def test_out_of_range_rejected(self, design, offset):
        # offset from the carrier in tuning bandwidths; NaN compares false against both bounds
        res = ResonanceConfiguration(f_r=np.array([design.f_t + offset * design.b_tune]))
        with pytest.raises(ValueError):
            dma_weight_matrix(res, np.array([15e9]), design)

    def test_weight_matrix_matches_per_subcarrier_vectors(self, design):
        res = ResonanceConfiguration(f_r=np.linspace(14.5e9, 15.5e9, design.n_slot))
        freqs = np.array([14.8e9, 15.0e9, 15.2e9])
        mat = dma_weight_matrix(res, freqs, design)
        for i, f in enumerate(freqs):
            np.testing.assert_array_equal(mat[i], dma_weight_matrix(res, [f], design)[0])

    def test_compares_by_identity(self):
        # the resonance array has no truth value, so configurations compare by identity and stay hashable
        a, b = ResonanceConfiguration(f_r=[1.0, 2.0]), ResonanceConfiguration(f_r=[1.0, 2.0])
        assert a == a and a != b and len({a, a, b}) == 2
