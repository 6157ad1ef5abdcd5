"""Observable dictionaries and closed-form Gram data."""

import numpy as np
import pytest

from edmdmap.edmd import build_finite, cross_gram_quadrature, edmd_spectrum, nodes_equidistant
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

from test_spectral import multiset_distance

SKEW = 1.0 / np.sqrt(2.0)
# rows of the real Fourier dictionary 1, sqrt2 cos(pi x), sqrt2 sin(pi x), ...
COS1, SIN1, COS2, SIN2 = 1, 2, 3, 4


def _complex_cross_closed(a, size):
    """Reference: the closed-form cross matrix in the complex modes
    exp(i*pi*m*x), m = -K..K, with the second slot conjugated."""
    modes = np.arange(size) - size // 2
    k, ell = modes[:, None].astype(float), modes[None, :].astype(float)
    plus, minus = (1.0 + a) / 2.0, (1.0 - a) / 2.0
    return (
        plus * np.exp(1j * np.pi * ell * minus) * np.sinc(k - ell * plus)
        + minus * np.exp(-1j * np.pi * ell * plus) * np.sinc(k - ell * minus)
    )


def _complex_to_real(size):
    """Unitary U with real row i = sum_m U[i, m] exp(i*pi*m*x)."""
    half = size // 2
    u = np.zeros((size, size), dtype=complex)
    u[0, half] = 1.0
    for k in range(1, half + 1):
        u[2 * k - 1, [half + k, half - k]] = np.sqrt(0.5)  # sqrt2 cos = (e_k + e_-k)/sqrt2
        u[2 * k, [half + k, half - k]] = [-1j * np.sqrt(0.5), 1j * np.sqrt(0.5)]
    return u


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
        assert values == pytest.approx([1.0, -np.sqrt(2.0), 0.0], abs=1e-15)
        for n in (1, 3, 49):
            k = np.arange(1, n // 2 + 1)
            for x in (-1.0, 1.0):
                values = eval_basis(fourier_basis(n), x)
                assert values.shape == (n,) and values[0] == 1.0
                # exp(+-i*pi) carries the rounding of pi, raised to the power k
                tol = np.sqrt(2.0) * (k + 1) * np.finfo(float).eps
                assert np.all(np.abs(values[1::2] - np.sqrt(2.0) * (-1.0) ** k) <= tol)
                assert np.all(np.abs(values[2::2]) <= tol)

    @pytest.mark.parametrize("n", [1, 7, 49, 129])
    def test_fourier_against_exp(self, n):
        xs = _sample_points()
        values = eval_basis(fourier_basis(n), xs)
        assert values.dtype == float and values.shape == (n, xs.size)
        assert np.all(values[0] == 1.0)
        k = np.arange(1, n // 2 + 1)
        phase = np.pi * k[:, None] * xs[None, :]
        # the rounding of pi*x is amplified k times in both forms
        tol = np.sqrt(2.0) * 2.0 * np.pi * (k + 1) * np.finfo(float).eps
        assert np.all(np.abs(values[1::2] - np.sqrt(2.0) * np.cos(phase)) <= tol[:, None])
        assert np.all(np.abs(values[2::2] - np.sqrt(2.0) * np.sin(phase)) <= tol[:, None])

    def test_fourier_unit_modulus(self):
        xs = np.linspace(-1.0, 1.0, 37)
        for n in (7, 49):
            values = eval_basis(fourier_basis(n), xs)
            # cos^2 + sin^2 = 1 for each mode, scaled by the sqrt(2) normalisation
            assert np.abs(values[1::2] ** 2 + values[2::2] ** 2 - 2.0).max() < 1e-14

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
        assert h.dtype == float and np.array_equal(h, np.eye(9))

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
            g = fourier_cross_closed(a, 7)
            assert g[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_doubling_known_entries(self):
        # a = 0: T doubles the frequency, so cos(pi T(x)) = -cos(2 pi x) and
        # sin(pi T(x)) = -sin(2 pi x), and cos(pi T(x)) is orthogonal to cos(pi x)
        g = fourier_cross_closed(0.0, 5)
        assert g.dtype == float
        assert g[COS1, COS2] == pytest.approx(-1.0, abs=1e-14)
        assert g[SIN1, SIN2] == pytest.approx(-1.0, abs=1e-14)
        assert abs(g[COS1, COS1]) < 1e-14

    def test_doubling_entry_against_direct_integral(self):
        # (1/2) * integral psi_i(T(x)) psi_j(x) dx via plain quadrature
        pts, wts = np.polynomial.legendre.leggauss(80)
        rows = {COS1: np.cos, SIN1: np.sin}
        cols = {COS2: np.cos, SIN2: np.sin}
        g = fourier_cross_closed(0.0, 5)
        for i, f in rows.items():
            for j, h in cols.items():
                total = 0.0
                for lo, hi in ((-1.0, 0.0), (0.0, 1.0)):
                    x = (hi + lo) / 2 + (hi - lo) / 2 * pts
                    tx = np.where(x <= 0.0, 2 * x + 1, 2 * x - 1)
                    values = 2.0 * f(np.pi * tx) * h(2 * np.pi * x)
                    total += 0.5 * ((hi - lo) / 2 * wts) @ values
                assert g[i, j] == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3, SKEW])
    def test_matches_per_branch_quadrature(self, a):
        n = 21
        g_closed = fourier_cross_closed(a, n)
        g_quad = cross_gram_quadrature(make_skewed_doubling(a), fourier_basis(n), n, 64)
        assert np.abs(g_closed - g_quad).max() < 1e-10

    def test_real_dictionary_spans_complex_exponentials(self):
        # the unitary change of basis maps the complex closed form onto the real one
        for n in (1, 7, 21, 49, 129):
            u = _complex_to_real(n)
            assert np.allclose(u @ u.conj().T, np.eye(n), rtol=0.0, atol=1e-15)
            for a in (0.0, 0.3, -0.6, SKEW):
                g_real = u @ _complex_cross_closed(a, n) @ u.conj().T
                assert np.abs(g_real - fourier_cross_closed(a, n)).max() < 1e-14
        # equal spans give equal EDMD eigenvalues: fig1.1L's finite-node cells
        imap = make_skewed_doubling(SKEW)
        for n in (21, 49):
            nodes = nodes_equidistant(5000)
            modes = np.arange(n) - n // 2
            psi_x = np.exp(1j * np.pi * modes[:, None] * nodes.nodes[None, :])
            psi_tx = np.exp(1j * np.pi * modes[:, None] * imap(nodes.nodes)[None, :])
            h = psi_x @ psi_x.conj().T / nodes.m
            g = psi_tx @ psi_x.conj().T / nodes.m
            reference = np.linalg.eigvals(np.linalg.solve(h, g))
            values = edmd_spectrum(build_finite(imap, fourier_basis(n), nodes)).values
            # measured 3e-15 (N = 21) and 3.5e-13 (N = 49)
            assert multiset_distance(values, reference) < 1e-11

    def test_sinc_removable_singularity(self):
        # tiny skew puts sinc arguments next to the removable singularity
        g_tiny = fourier_cross_closed(2e-9, 9)
        assert np.all(np.isfinite(g_tiny))
        assert np.abs(g_tiny - fourier_cross_closed(0.0, 9)).max() < 1e-6

    def test_validation(self):
        with pytest.raises(ParameterError):
            fourier_cross_closed(0.3, 6)
        with pytest.raises(ParameterError):
            fourier_cross_closed(1.0, 5)
