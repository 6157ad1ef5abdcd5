"""Observable dictionaries and closed-form Gram data."""

import numpy as np
import pytest

from edmdmap.edmd import cross_gram_quadrature
from edmdmap.errors import MapDomainError, ParameterError
from edmdmap.maps import make_skewed_doubling
from edmdmap.observables import (
    ObservableBasis,
    eval_basis,
    fourier_basis,
    fourier_cross_closed,
    gram_infinite,
    monomial_basis,
)
from edmdmap.spectral import spectral_norm

SKEW = 1.0 / np.sqrt(2.0)


def _sample_points(dtype=float):
    rng = np.random.default_rng(20240)
    return np.concatenate([rng.uniform(-1.0, 1.0, 500), [-1.0, 0.0, 1.0]]).astype(dtype)


class TestEvalBasis:
    # Inputs are looped rather than parametrised so the test ids stay stable.
    def test_monomial_powers(self):
        assert eval_basis(monomial_basis(3), 0.5) == pytest.approx([1.0, 0.5, 0.25])
        for dtype in (np.float64, np.longdouble):
            xs = _sample_points(dtype)
            for n in (1, 3, 15, 40):
                values = eval_basis(monomial_basis(n), xs)
                assert values.dtype == dtype and values.shape == (n, xs.size)
                k = np.arange(n)
                # row k carries k rounded products; pow rounds to about 1 ulp
                tol = (k + 1) * np.finfo(dtype).eps
                assert np.all(np.abs(values - xs ** k[:, None]) <= tol[:, None])
                for x in (-1.0, 1.0):
                    assert np.array_equal(eval_basis(monomial_basis(n), dtype(x)), x ** k)

    def test_monomials_at_zero(self):
        for n in (1, 6):
            values = eval_basis(monomial_basis(n), 0.0)
            assert values.shape == (n,)
            assert values[0] == 1.0 and np.all(values[1:] == 0.0)

    def test_fourier_endpoint(self):
        values = eval_basis(fourier_basis(3), 1.0)
        assert values == pytest.approx([-1.0, 1.0, -1.0], abs=1e-15)
        for n in (1, 3, 49):
            modes = np.arange(n) - n // 2
            for x in (-1.0, 1.0):
                values = eval_basis(fourier_basis(n), x)
                assert values.shape == (n,) and values[n // 2] == 1.0
                # exp(+-i*pi) carries the rounding of pi, raised to the power |k|
                tol = (np.abs(modes) + 1) * np.finfo(float).eps
                assert np.all(np.abs(values - (-1.0) ** modes) <= tol)

    @pytest.mark.parametrize("n", [1, 7, 49, 129])
    def test_fourier_against_exp(self, n):
        xs = _sample_points()
        values = eval_basis(fourier_basis(n), xs)
        assert values.dtype == complex and values.shape == (n, xs.size)
        modes = np.arange(n) - n // 2
        direct = np.exp(1j * np.pi * modes[:, None] * xs[None, :])
        # the rounding of pi*x is amplified |k| times in both forms
        tol = 2.0 * np.pi * (np.abs(modes) + 1) * np.finfo(float).eps
        assert np.all(np.abs(values - direct) <= tol[:, None])

    def test_fourier_unit_modulus(self):
        xs = np.linspace(-1.0, 1.0, 37)
        for n in (7, 49):
            values = eval_basis(fourier_basis(n), xs)
            assert np.abs(np.abs(values) - 1.0).max() < 1e-14

    def test_domain_check(self):
        with pytest.raises(MapDomainError):
            eval_basis(monomial_basis(3), 1.0001)

    def test_basis_validation(self):
        with pytest.raises(ParameterError):
            fourier_basis(4)  # must be odd
        with pytest.raises(ParameterError):
            ObservableBasis("chebyshev", 5)
        with pytest.raises(ParameterError):
            monomial_basis(0)


class TestGramInfinite:
    def test_monomial_entries(self):
        h = gram_infinite(monomial_basis(4))
        assert h[0, 0] == 1.0
        # analytic integral oracle: (1/2) * integral of x^2 over [-1, 1]
        poly = np.polynomial.Polynomial([0.0, 0.0, 1.0]).integ()
        assert h[0, 2] == pytest.approx(0.5 * (poly(1.0) - poly(-1.0)), abs=1e-15)
        assert h[0, 2] == pytest.approx(1.0 / 3.0)
        assert h[0, 1] == 0.0 and h[1, 2] == 0.0

    def test_fourier_identity_exact(self):
        h = gram_infinite(fourier_basis(9))
        assert np.array_equal(h, np.eye(9, dtype=complex))

    def test_matches_symmetrized_hilbert(self):
        n = 8
        k = np.arange(n)
        f = 1.0 / (k[:, None] + k[None, :] + 1.0)
        j = np.diag((-1.0) ** k)
        assert np.abs(gram_infinite(monomial_basis(n)) - (f + j @ f @ j) / 2.0).max() < 1e-15

    def test_spectral_norm_below_pi(self):
        for n in (5, 50, 200):
            assert spectral_norm(gram_infinite(monomial_basis(n))) < np.pi

    def test_extended_dtype(self):
        h = gram_infinite(monomial_basis(5), dtype=np.longdouble)
        assert h.dtype == np.longdouble
        assert np.abs(h.astype(float) - gram_infinite(monomial_basis(5))).max() < 1e-16


class TestFourierCrossClosed:
    def test_center_entry_is_one(self):
        for a in (0.0, 0.3, -0.6, SKEW):
            n = 7
            half = n // 2
            g = fourier_cross_closed(a, n)
            assert g[half, half] == pytest.approx(1.0, abs=1e-15)

    def test_doubling_known_entries(self):
        # a = 0: G[k, l] = cos(pi l / 2) * sinc(k - l/2) in mode coordinates
        n, half = 5, 2
        g = fourier_cross_closed(0.0, n)
        assert g[1 + half, 2 + half] == pytest.approx(-1.0, abs=1e-14)
        assert abs(g[1 + half, 1 + half]) < 1e-14

    def test_doubling_entry_against_direct_integral(self):
        # (1/2) * integral exp(i pi T(x)) exp(-2 i pi x) dx via plain quadrature
        pts, wts = np.polynomial.legendre.leggauss(80)
        total = 0.0j
        for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
            x = (hi + lo) / 2 + (hi - lo) / 2 * pts
            tx = np.where(x <= 0.0, 2 * x + 1, 2 * x - 1)
            total += 0.5 * ((hi - lo) / 2 * wts) @ (np.exp(1j * np.pi * tx) * np.exp(-2j * np.pi * x))
        g = fourier_cross_closed(0.0, 5)
        assert g[1 + 2, 2 + 2] == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3, SKEW])
    def test_matches_per_branch_quadrature(self, a):
        n = 21
        g_closed = fourier_cross_closed(a, n)
        g_quad = cross_gram_quadrature(make_skewed_doubling(a), fourier_basis(n), n, 64)
        assert np.abs(g_closed - g_quad).max() < 1e-10

    def test_sinc_removable_singularity(self):
        # tiny skew puts sinc arguments within the series-fallback window
        g_tiny = fourier_cross_closed(2e-9, 9)
        assert np.all(np.isfinite(g_tiny))
        assert np.abs(g_tiny - fourier_cross_closed(0.0, 9)).max() < 1e-6

    def test_validation(self):
        with pytest.raises(ParameterError):
            fourier_cross_closed(0.3, 6)
        with pytest.raises(ParameterError):
            fourier_cross_closed(1.0, 5)
