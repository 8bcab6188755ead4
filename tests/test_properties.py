"""Property-based tests for algebraic invariants of the core model."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvtherm.lineshape import Spectrum, p0
from nvtherm.spin import (
    PhysicalEnvironment,
    dressed_resonances,
    residual_broadening,
    zero_field_splitting,
)

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-3, max_value=50.0, allow_nan=False, allow_infinity=False
)
nonneg = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestSteadyStatePopulation:
    @given(finite, finite, finite, finite, positive, positive)
    def test_never_exceeds_one(self, ob, od, j, lam, gb, gd):
        value = p0(ob, od, j, lam, gb, gd)
        assert value <= 1.0 + 1e-12

    @given(finite, finite, finite, positive, positive, positive)
    def test_depletion_scales_exactly_quadratically(self, ob, od, j, lam, gb, gd):
        base = 1.0 - p0(ob, od, j, lam, gb, gd)
        doubled = 1.0 - p0(ob, od, j, 2.0 * lam, gb, gd)
        # 1 - (1 - s) loses a few bits for tiny depletions s, hence the atol.
        np.testing.assert_allclose(doubled, 4.0 * base, rtol=1e-6, atol=1e-12)

    @given(finite, finite, finite, finite, positive, positive)
    def test_invariant_under_coupling_sign(self, ob, od, j, lam, gb, gd):
        plus = p0(ob, od, j, lam, gb, gd)
        minus = p0(ob, od, -j, lam, gb, gd)
        assert plus == minus


class TestResidualBroadening:
    @given(nonneg, nonneg)
    def test_bounded_by_half_spread(self, delta, omega):
        value = residual_broadening(delta, omega)
        assert 0.0 <= value <= delta / 2.0 + 1e-12

    @given(positive, positive, positive)
    def test_monotone_decreasing_in_drive(self, delta, omega, extra):
        assert residual_broadening(delta, omega + extra) <= residual_broadening(
            delta, omega
        )

    @given(positive, positive)
    @example(delta=0.001, omega=48.0)  # cancellation in the unrationalised form
    def test_taylor_always_overestimates(self, delta, omega):
        exact = residual_broadening(delta, omega)
        taylor = residual_broadening(delta, omega, exact=False)
        assert exact <= taylor + 1e-15


class TestDressedResonances:
    @given(
        st.floats(min_value=2000.0, max_value=4000.0),
        nonneg,
        nonneg,
        finite,
    )
    def test_sorted_and_centered(self, d, ex, omega_rf, rabi_rf):
        out = dressed_resonances(d, ex, omega_rf, rabi_rf)
        assert out.shape == (4,)
        assert np.all(np.diff(out) >= 0)
        # The four resonances always average to the zero-field splitting.
        np.testing.assert_allclose(np.mean(out), d, atol=1e-8)

    @given(
        st.floats(min_value=2000.0, max_value=4000.0), nonneg, nonneg, positive
    )
    def test_drive_sign_symmetry(self, d, ex, omega_rf, rabi_rf):
        a = dressed_resonances(d, ex, omega_rf, rabi_rf)
        b = dressed_resonances(d, ex, omega_rf, -rabi_rf)
        np.testing.assert_array_equal(a, b)


class TestZeroFieldSplitting:
    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_shift_is_linear_in_temperature(self, dt1, dt2):
        env = PhysicalEnvironment()
        base = zero_field_splitting(env, 300.0)
        s1 = zero_field_splitting(env, 300.0 + dt1) - base
        s2 = zero_field_splitting(env, 300.0 + dt2) - base
        both = zero_field_splitting(env, 300.0 + dt1 + dt2) - base
        np.testing.assert_allclose(both, s1 + s2, atol=1e-9)


class TestSerializationRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_csv_round_trip_is_bit_exact(self, rows):
        freqs = np.sort(np.unique([r[0] for r in rows]))
        n = len(freqs)
        if n < 2:
            return
        signal = np.array([r[1] for r in rows][:n])
        sigma = np.array([r[2] for r in rows][:n])
        spec = Spectrum(freqs, signal, sigma)
        back = Spectrum.from_csv(spec.to_csv())
        np.testing.assert_array_equal(back.frequencies, spec.frequencies)
        np.testing.assert_array_equal(back.signal, spec.signal)
        np.testing.assert_array_equal(back.sigma, spec.sigma)
        assert back.to_csv() == spec.to_csv()
