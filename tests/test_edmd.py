"""EDMD matrix pairs: node sets, finite/infinite builders, eigensolve, schedule."""

import numpy as np
import pytest

from edmdmap.edmd import (
    EdmdPair,
    Provenance,
    build_finite,
    build_infinite,
    cross_gram_quadrature,
    edmd_spectrum,
    node_schedule,
    nodes_equidistant,
)
from edmdmap.errors import (
    ParameterError,
    QuadratureError,
    RangeOverflowError,
    RankTruncationWarning,
)
from edmdmap.maps import exact_spectrum_values, make_blaschke, make_skewed_doubling
from edmdmap.observables import fourier_basis, gram_infinite, monomial_basis
from edmdmap.spectral import scale_similarity, eigenvalues, spectral_norm
from edmdmap.transfer import transfer_matrix_affine

from test_spectral import multiset_distance

SKEW = 1.0 / np.sqrt(2.0)


def greedy_deltas(spec, imap, k):
    from edmdmap.bench import match_spectra

    return match_spectra(spec, exact_spectrum_values(imap, k), k).delta


class TestNodes:
    def test_midpoints_m2(self):
        assert nodes_equidistant(2, 0.5).nodes == pytest.approx([-0.5, 0.5])

    def test_delta_zero(self):
        assert nodes_equidistant(4, 0.0).nodes == pytest.approx([-1.0, -0.5, 0.0, 0.5])

    def test_single_midpoint(self):
        assert nodes_equidistant(1, 1.0).nodes == pytest.approx([0.0])

    def test_default_is_midpoint_rule(self):
        m = 7
        expected = -1.0 + (2.0 * np.arange(m) + 1.0) / m
        assert nodes_equidistant(m).nodes == pytest.approx(expected, abs=1e-15)

    def test_spacing_and_range(self):
        ns = nodes_equidistant(100, 0.02)
        assert np.diff(ns.nodes) == pytest.approx(np.full(99, 0.02), abs=1e-15)
        assert ns.nodes[0] >= -1.0 and ns.nodes[-1] <= 1.0

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            nodes_equidistant(10, 0.21)
        with pytest.raises(ParameterError):
            nodes_equidistant(10, -0.01)
        with pytest.raises(ParameterError):
            nodes_equidistant(0)


class TestBuildFinite:
    def test_constant_observable(self):
        pair = build_finite(make_skewed_doubling(0.0), monomial_basis(1), nodes_equidistant(2, 0.5))
        assert pair.h == pytest.approx(np.ones((1, 1)))
        assert pair.g == pytest.approx(np.ones((1, 1)))

    @pytest.mark.parametrize("imap", [make_skewed_doubling(0.0), make_blaschke(0.2)])
    def test_h_from_two_midpoints(self, imap):
        pair = build_finite(imap, monomial_basis(2), nodes_equidistant(2, 0.5))
        assert pair.h == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.25]]), abs=1e-15)

    def test_fourier_h_identity_at_rate(self):
        for m in (50, 200):
            pair = build_finite(make_skewed_doubling(SKEW), fourier_basis(3), nodes_equidistant(m))
            err = np.abs(pair.h - np.eye(3)).max()
            assert err <= 1.0 / m  # equidistant exponential sums cancel exactly

    def test_monomial_matrices_stay_real(self):
        # looped rather than parametrised so the test id stays stable
        for basis in (monomial_basis(4), fourier_basis(5)):
            for imap in (make_skewed_doubling(0.3), make_blaschke(0.2)):
                for pair in (build_finite(imap, basis, nodes_equidistant(50)),
                             build_infinite(imap, basis)):
                    assert pair.h.dtype == np.float64 and pair.g.dtype == np.float64

    def test_provenance(self):
        pair = build_finite(make_skewed_doubling(0.3), monomial_basis(3), nodes_equidistant(8, 0.1))
        assert pair.provenance == Provenance("finite", m=8, delta=0.1)


class TestBuildInfinite:
    def test_g00_is_one(self):
        for imap in (make_skewed_doubling(0.4), make_blaschke(0.25)):
            pair = build_infinite(imap, monomial_basis(4))
            assert pair.g[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_affine_matches_binomial_closed_form(self):
        imap = make_skewed_doubling(SKEW)
        n = 8
        pair = build_infinite(imap, monomial_basis(n))
        oracle = gram_infinite(monomial_basis(n)) @ transfer_matrix_affine(imap, n).l
        assert np.abs(pair.g - oracle).max() < 1e-12

    def test_blaschke_quadrature_stability(self):
        imap = make_blaschke(0.3)
        g64 = build_infinite(imap, monomial_basis(15), quad_order=64).g
        g128 = build_infinite(imap, monomial_basis(15), quad_order=128).g
        assert np.abs(g64 - g128).max() < 1e-10

    def test_underresolved_quadrature_raises(self):
        with pytest.raises(QuadratureError):
            build_infinite(make_blaschke(0.3), monomial_basis(12), quad_order=2)

    def test_fourier_skewed_uses_closed_form(self):
        pair = build_infinite(make_skewed_doubling(0.3), fourier_basis(7))
        assert pair.provenance.kind == "closed_form"
        assert pair.g.dtype == float and np.array_equal(pair.h, np.eye(7))

    def test_extended_copies_for_monomials(self):
        pair = build_infinite(make_skewed_doubling(0.3), monomial_basis(6))
        assert pair.h_ext is not None and pair.h_ext.dtype == np.longdouble
        assert np.abs(pair.h_ext.astype(float) - pair.h).max() == 0.0


class TestEdmdSpectrum:
    def test_diagonal_pair(self):
        pair = EdmdPair(
            h=np.eye(2),
            g=np.diag([1.0, 0.5]),
            provenance=Provenance("finite", m=2, delta=0.5),
            basis=monomial_basis(2),
            imap=make_skewed_doubling(0.0),
        )
        assert edmd_spectrum(pair).values == pytest.approx([1.0, 0.5])

    def test_skewed_infinite_leading_eigenvalues(self):
        pair = build_infinite(make_skewed_doubling(SKEW), monomial_basis(5))
        values = edmd_spectrum(pair).values
        assert abs(values[0] - 1.0) < 1e-10
        assert abs(values[1] - 0.75) < 1e-10

    def test_blaschke_subleading_is_065(self):
        pair = build_infinite(make_blaschke(0.3), monomial_basis(15))
        assert abs(edmd_spectrum(pair).values[1] - 0.65) < 1e-8

    def test_rank_truncation_warning_and_metadata(self):
        pair = EdmdPair(
            h=np.diag([1.0, 1e-15]),
            g=np.eye(2),
            provenance=Provenance("finite", m=4, delta=0.25),
            basis=monomial_basis(2),
            imap=make_skewed_doubling(0.0),
        )
        with pytest.warns(RankTruncationWarning):
            spec = edmd_spectrum(pair, eps=1e-12)
        assert spec.truncated_rank == 1


class TestNodeSchedule:
    def test_values(self):
        assert node_schedule(2, 2.0) == 16
        assert node_schedule(1, 1.5) == 2
        assert node_schedule(5, 1.2) == 63

    def test_validation(self):
        with pytest.raises(ParameterError):
            node_schedule(3, 1.0)
        with pytest.raises(ParameterError):
            node_schedule(0, 2.0)

    def test_overflow(self):
        with pytest.raises(RangeOverflowError):
            node_schedule(1000, 2.0)
        with pytest.raises(RangeOverflowError):
            node_schedule(10_000, 10.0)


class TestEdmdInvariants:
    @pytest.mark.parametrize("a", [0.0, SKEW])
    def test_finite_h_positive_definite_for_m_ge_n(self, a):
        imap = make_skewed_doubling(a)
        for n, m in ((4, 4), (6, 10), (8, 50)):
            pair = build_finite(imap, monomial_basis(n), nodes_equidistant(m))
            np.linalg.cholesky(pair.h)  # raises LinAlgError if not SPD

    def test_finite_h_rank_deficient_for_m_lt_n(self):
        pair = build_finite(make_skewed_doubling(0.3), monomial_basis(6), nodes_equidistant(3))
        s = np.linalg.svd(pair.h, compute_uv=False)
        assert np.count_nonzero(s > 1e-12 * s[0]) == 3

    @pytest.mark.parametrize("a", [0.0, SKEW])
    def test_collocation_bounds_prop7(self, a):
        imap = make_skewed_doubling(a)
        n = 10
        factor = max(imap.deriv_sup, 2.0 * (imap.n_branches - 1))
        h_inf = gram_infinite(monomial_basis(n))
        g_inf = build_infinite(imap, monomial_basis(n)).g
        k = np.arange(n)
        for m in (50, 500):
            pair = build_finite(imap, monomial_basis(n), nodes_equidistant(m, 0.0))
            bound_h = (k[:, None] + k[None, :]) / m
            bound_g = factor * (k[:, None] + k[None, :] + 1.0) / m
            assert np.all(np.abs(h_inf - pair.h) <= bound_h + 1e-15)
            assert np.all(np.abs(g_inf - pair.g) <= bound_g)
            assert spectral_norm(h_inf - pair.h) <= 1.5 * n * n / m
            assert spectral_norm(g_inf - pair.g) <= 1.5 * factor * n * n / m

    def test_spectrum_invariant_under_diagonal_similarity(self):
        pair = build_infinite(make_skewed_doubling(SKEW), monomial_basis(6))
        k_mat = np.linalg.solve(pair.h, pair.g)
        base = eigenvalues(k_mat).values
        for rho in (1.1, 2.0):
            scaled = eigenvalues(scale_similarity(k_mat, rho)).values
            assert multiset_distance(base, scaled) < 1e-10

    def test_piecewise_affine_infinite_node_exactness(self):
        # float64 entry rounding alone shifts the N = 12 Gram-pencil
        # eigenvalues by ~7e-7; the 80-bit path reaches ~1.5e-9 there
        # (measured), and 1e-9 through N = 11.
        imap = make_skewed_doubling(SKEW)
        for n, tol in ((8, 1e-9), (11, 1e-9), (12, 2e-9)):
            spec = edmd_spectrum(build_infinite(imap, monomial_basis(n)))
            assert greedy_deltas(spec, imap, n).max() < tol


class TestCrossGramQuadrature:
    def test_extended_agrees_with_double(self):
        imap = make_blaschke(0.3)
        g64 = cross_gram_quadrature(imap, monomial_basis(8), 64)
        g_ext = cross_gram_quadrature(imap, monomial_basis(8), 64, dtype=np.longdouble)
        assert np.abs(g64 - g_ext.astype(float)).max() < 1e-14

    def test_extended_fourier_rejected(self):
        with pytest.raises(ParameterError):
            cross_gram_quadrature(
                make_skewed_doubling(0.1), fourier_basis(5), 32, dtype=np.longdouble
            )

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            cross_gram_quadrature(make_skewed_doubling(0.1), monomial_basis(3), 0)
