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


def _depletion_bound(lam, gb, gd):
    """(lambda / min(gamma))^2, with room for the rounding of 1 - p0."""
    return (lam / np.minimum(gb, gd)) ** 2 * (1.0 + 1e-12) + 4.0 * np.finfo(float).eps


class TestDepletionBound:
    """0 <= 1 - p0 <= (lambda / min(gamma_b, gamma_d))^2.

    The response matrix [[zb, j], [j, zd]] has the anti-Hermitian part
    -i diag(gamma_b, gamma_d), so its smallest singular value is at least
    min(gamma) and |amp|^2 at most (lambda / min(gamma))^2.  Within the
    closed form's regime (lambda <= min(gamma)) p0 is therefore in [0, 1].
    """

    @given(finite, finite, finite, positive, positive, st.floats(0.0, 1.0))
    @example(ob=0.0, od=3.0, j=0.0, gb=0.5, gd=2.0, frac=0.1)  # the bound, attained
    def test_scalar_calls(self, ob, od, j, gb, gd, frac):
        lam = frac * min(gb, gd)
        depletion = 1.0 - p0(ob, od, j, lam, gb, gd)
        assert 0.0 <= depletion <= _depletion_bound(lam, gb, gd)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16))
    def test_stacked_rows(self, seed, rows):
        rng = np.random.default_rng(seed)
        ob, od = rng.normal(0.0, 20.0, (2, rows, 2, 64)) * rng.integers(0, 2, (2, rows, 2, 64))
        j = rng.normal(0.0, 20.0, rows) * rng.integers(0, 2, rows)
        gb, gd = 10.0 ** rng.uniform(-3.0, 1.7, (2, rows))
        lam = rng.uniform(0.0, 1.0, rows) * np.minimum(gb, gd)
        depletion = 1.0 - p0(ob, od, *(p[:, None, None] for p in (j, lam, gb, gd)))
        assert np.all(depletion >= 0.0)
        assert np.all(depletion <= _depletion_bound(lam, gb, gd)[:, None, None])


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
        taylor = 0.25 * delta**2 / omega  # the strong-drive form
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
        def d(t):
            return zero_field_splitting(PhysicalEnvironment(temperature=t))

        base = d(300.0)
        s1 = d(300.0 + dt1) - base
        s2 = d(300.0 + dt2) - base
        both = d(300.0 + dt1 + dt2) - base
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
        # The same spectra round-trip bit for bit through JSON as well.
        for back in (Spectrum.from_csv(spec.to_csv()), Spectrum.from_json(spec.to_json())):
            for name in ("frequencies", "signal", "sigma"):
                assert getattr(back, name).tobytes() == getattr(spec, name).tobytes()
            assert back.to_csv() == spec.to_csv()
            assert back.to_json() == spec.to_json()
