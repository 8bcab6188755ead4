"""Property-based tests for algebraic invariants of the core model."""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nvtherm.lineshape import Spectrum, dressed_depletion, ensemble_spectrum, p0
from nvtherm.oracle import oracle_spectrum
from nvtherm.spin import (
    DriveConfig,
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


def _twin(gamma_b, gamma_d, j):
    """The resonant twin of (gamma_b, gamma_d, J), or None where it does not exist."""
    j2 = j**2 + gamma_d**2 - ((gamma_b - gamma_d) / 2.0) ** 2
    if not (gamma_b > gamma_d and j2 > 0.0):
        return None
    return (gamma_b + 3.0 * gamma_d) / 2.0, (gamma_b - gamma_d) / 2.0, np.sqrt(j2)


class TestResonantTwin:
    """On two-photon resonance (omega_rf = 2 E_x, no strain spread) each branch
    has omega_b = omega_d, and the closed form depends on (gamma_b, gamma_d, J)
    only through gamma_b + gamma_d, gamma_b * gamma_d + J^2 and gamma_d^2 + J^2,
    which the twin shares."""

    @staticmethod
    def _pair(ex, omega_rf, rabi_rf, gamma_b, gamma_d, twin):
        tb, td, tj = twin
        reach = ex + omega_rf / 2.0 + rabi_rf + 10.0 * gamma_b
        grid = np.linspace(2870.0 - reach, 2870.0 + reach, 401)
        args = (2870.0, ex, omega_rf, grid)
        return (
            dressed_depletion(*args, rabi_rf, 0.1, gamma_b, gamma_d),
            dressed_depletion(*args, 2.0 * tj, 0.1, tb, td),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        ex=st.floats(0.5, 30.0),
        rabi_rf=st.floats(0.01, 30.0),
        gamma_d=st.floats(1e-3, 5.0),
        excess=st.floats(1e-3, 10.0),
    )
    @example(ex=8.0, rabi_rf=5.0, gamma_d=0.1, excess=0.9)  # fig2
    def test_twin_gives_the_same_depletion(self, ex, rabi_rf, gamma_d, excess):
        gamma_b = gamma_d + excess
        twin = _twin(gamma_b, gamma_d, rabi_rf / 2.0)
        assume(twin is not None)
        dep, other = self._pair(ex, 2.0 * ex, rabi_rf, gamma_b, gamma_d, twin)
        assert np.max(np.abs(dep - other)) <= 1e-8 * np.max(dep)

    def test_detuning_breaks_the_twin(self):
        # fig2's rates and drive with omega_rf 15 MHz, not 2 E_x = 16 MHz.
        twin = _twin(1.0, 0.1, 2.5)
        dep, other = self._pair(8.0, 15.0, 5.0, 1.0, 0.1, twin)
        assert np.max(np.abs(dep - other)) > 0.1 * np.max(dep)


class TestClosedFormMatchesOracle:
    """At weak MW drive the Lindblad steady state is the closed form's linear
    response: with pump-only dissipation (gamma_b = gamma_d = pump / 2) the
    depletions differ by saturation, of relative order (lambda / gamma)^2."""

    @settings(max_examples=30, deadline=None)
    @given(
        ex=st.floats(0.5, 20.0),
        omega_rf=st.floats(0.0, 40.0),
        rabi_rf=st.floats(0.0, 20.0),
        gamma=st.floats(0.1, 5.0),
        ratio=st.floats(1e-3, 0.02),
    )
    def test_weak_drive(self, ex, omega_rf, rabi_rf, gamma, ratio):
        env = PhysicalEnvironment(ex=ex, b_transverse=80.0)
        drive = DriveConfig(rabi_mw=2.0 * ratio * gamma, omega_rf=omega_rf, rabi_rf=rabi_rf)
        reach = ex + omega_rf / 2.0 + rabi_rf + 10.0 * gamma
        grid = np.linspace(2870.0 - reach, 2870.0 + reach, 81)
        closed = 1.0 - ensemble_spectrum(env, drive, grid, gamma, gamma).signal
        brute = 1.0 - oracle_spectrum(env, drive, grid, pump_rate=2.0 * gamma).signal
        rel_rms = np.sqrt(np.mean((closed - brute) ** 2) / np.mean(closed**2))
        assert rel_rms <= 4.0 * ratio**2


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
        back = Spectrum.from_csv(spec.to_csv())
        # The JSON document holds the same bits.
        doc = json.loads(spec.to_json())
        for name, key in (("frequencies", "frequency_mhz"), ("signal", "signal"), ("sigma", "sigma")):
            assert getattr(back, name).tobytes() == getattr(spec, name).tobytes()
            assert np.array(doc[key]).tobytes() == getattr(spec, name).tobytes()
        assert back.to_csv() == spec.to_csv()
        assert back.to_json() == spec.to_json()
