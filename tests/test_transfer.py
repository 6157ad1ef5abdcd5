"""Transfer-operator matrices: affine closed form, Cauchy sampling, bounds."""

import math

import numpy as np
import pytest

from edmdmap.edmd import build_infinite, edmd_spectrum
from edmdmap.errors import AliasingError, BranchCutError, NonAffineBranchError, ParameterError
from edmdmap.maps import Branch, IntervalMap, exact_spectrum_values, make_blaschke, make_skewed_doubling
from edmdmap.observables import monomial_basis
from edmdmap.spectral import GAMMA, eigenvalues
from edmdmap.transfer import (
    derivative_sum_estimate,
    projection_error_bound,
    taylor_coefficients_on_circle,
    schedule_regime,
    transfer_matrix_affine,
    transfer_matrix_analytic,
)

from test_spectral import multiset_distance

SKEW = 1.0 / np.sqrt(2.0)


def affine_matrix_oracle(imap, n, rho):
    """Independent route: expand sign*alpha*(alpha z + beta)^l with polypow."""
    l_mat = np.zeros((n, n))
    for branch in imap.branches:
        alpha, beta = branch.affine
        for ell in range(n):
            coeffs = branch.sign * alpha * np.polynomial.polynomial.polypow([beta, alpha], ell)
            for k in range(ell + 1):
                l_mat[k, ell] += coeffs[k] * rho ** (k - ell)
    return l_mat


class TestAffine:
    def test_diagonal_equals_exact_spectrum(self):
        imap = make_skewed_doubling(SKEW)
        tm = transfer_matrix_affine(imap, 8)
        assert np.diag(tm.l) == pytest.approx(exact_spectrum_values(imap, 8).real, abs=1e-15)

    def test_l00_is_one(self):
        for a in (0.0, 0.5, -0.7):
            assert transfer_matrix_affine(make_skewed_doubling(a), 3).l[0, 0] == pytest.approx(1.0)

    def test_upper_triangular(self):
        tm = transfer_matrix_affine(make_skewed_doubling(0.4), 7)
        assert np.abs(np.tril(tm.l, -1)).max() == 0.0

    def test_symmetric_map_kills_odd_coupling(self):
        tm = transfer_matrix_affine(make_skewed_doubling(0.0), 6)
        assert tm.l[0, 1] == 0.0

    @pytest.mark.parametrize("rho", [1.0, 1.3])
    def test_binomial_expansion_oracle(self, rho):
        imap = make_skewed_doubling(0.35)
        tm = transfer_matrix_affine(imap, 8, rho=rho)
        assert np.abs(tm.l - affine_matrix_oracle(imap, 8, rho)).max() < 1e-14

    def test_nonaffine_rejected(self):
        with pytest.raises(NonAffineBranchError):
            transfer_matrix_affine(make_blaschke(0.2), 5)

    def test_spectrum_rho_independent(self):
        imap = make_skewed_doubling(SKEW)
        for rho in (0.7, 1.0, 2.5):
            tm = transfer_matrix_affine(imap, 9, rho=rho)
            assert np.diag(tm.l) == pytest.approx(exact_spectrum_values(imap, 9).real)


class TestCauchy:
    def test_matches_affine_closed_form(self):
        imap = make_skewed_doubling(SKEW)
        tm = transfer_matrix_analytic(imap, 10, rho=1.0, sample_radius=1.5, samples=64)
        assert np.abs(tm.l - transfer_matrix_affine(imap, 10).l).max() < 1e-11

    def test_blaschke_mu_zero_degenerates_to_doubling(self):
        tm = transfer_matrix_analytic(make_blaschke(0.0), 8, sample_radius=1.2, samples=64)
        assert np.abs(tm.l - transfer_matrix_affine(make_skewed_doubling(0.0), 8).l).max() < 1e-10

    def test_blaschke_eigenvalues_approach_exact_families(self):
        # deeper eigenvalues (and the multiplicity-two family) converge
        # slower in N; tolerances pinned from the measured N = 15 misses
        imap = make_blaschke(0.3)
        exact = exact_spectrum_values(imap, 6)
        tolerances = [1e-10, 1e-5, 1e-4, 1e-3, 1e-3, 1e-2]
        values = eigenvalues(transfer_matrix_analytic(imap, 15, sample_radius=1.1).l).values
        misses_15 = [np.abs(values - t).min() for t in exact]
        for miss, tol, target in zip(misses_15, tolerances, exact):
            assert miss < tol, f"family value {target} missed by {miss}"
        coarse = eigenvalues(transfer_matrix_analytic(imap, 8, sample_radius=1.1).l).values
        misses_8 = [np.abs(coarse - t).min() for t in exact]
        assert max(misses_15) < max(misses_8)

    def test_rho_invariance_of_spectrum(self):
        imap = make_blaschke(0.25)
        v1 = eigenvalues(transfer_matrix_analytic(imap, 10, rho=1.0).l).values
        v2 = eigenvalues(transfer_matrix_analytic(imap, 10, rho=1.3).l).values
        assert multiset_distance(v1, v2) < 1e-9

    def test_projection_commutes_for_affine_maps(self):
        # (1 - P_N) L P_N = 0: infinite-node EDMD spectrum = eig(L_N)
        imap = make_skewed_doubling(SKEW)
        n = 8
        edmd_vals = edmd_spectrum(build_infinite(imap, monomial_basis(n))).values
        l_vals = eigenvalues(transfer_matrix_affine(imap, n).l).values
        assert multiset_distance(edmd_vals, l_vals) < 1e-9

    def test_known_polynomial_coefficients(self):
        # identity test hook: feed (0.3 z + 0.5)^5 sampled on a circle
        radius, samples, ell = 1.4, 64, 5
        z = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
        coeffs = taylor_coefficients_on_circle((0.3 * z + 0.5) ** ell, ell + 1, radius)
        expected = [math.comb(ell, k) * 0.3**k * 0.5 ** (ell - k) for k in range(ell + 1)]
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_branch_cut_detected(self):
        with pytest.raises(BranchCutError):
            transfer_matrix_analytic(make_blaschke(0.3), 10, sample_radius=1.5)

    def test_aliasing_detected_until_samples_resolve_pole(self):
        # a pole at z = 1.3 added to the left doubling branch: the Taylor
        # coefficients on |z| = 1.1 decay only like (1.1/1.3)^k, so 64 samples
        # alias (entries move by 8.75e-6 under doubling) and 256 do not
        left, right = make_skewed_doubling(0.0).branches
        pole = Branch(
            domain_lo=left.domain_lo,
            domain_hi=left.domain_hi,
            forward=left.forward,
            inverse=lambda z: left.inverse(z) + 0.01 / (np.asarray(z) - 1.3),
            inverse_derivative=(
                lambda z: left.inverse_derivative(z) - 0.01 / (np.asarray(z) - 1.3) ** 2
            ),
            sign=1,
        )
        imap = IntervalMap(branches=(pole, right), critical_points=(0.0,), deriv_sup=2.0)
        with pytest.raises(AliasingError):
            transfer_matrix_analytic(imap, 10, sample_radius=1.1, samples=64)
        transfer_matrix_analytic(imap, 10, sample_radius=1.1, samples=256)

    def test_sample_validation(self):
        imap = make_skewed_doubling(0.2)
        with pytest.raises(ParameterError):
            transfer_matrix_analytic(imap, 10, samples=100)  # not a power of two
        with pytest.raises(ParameterError):
            transfer_matrix_analytic(imap, 10, samples=32)  # below 4N


class TestBounds:
    def test_plugin_arithmetic(self):
        # C = 2/sqrt(3), bound = 2C at N = 0
        value = projection_error_bound(1.0, 4.0, 2.0, 0, 1.0)
        assert value == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-15)

    def test_geometric_decay_factor_at_optimal_rho(self):
        r, big_r = 1.3, 5.2
        rho = math.sqrt(r * big_r)
        values = [projection_error_bound(r, big_r, rho, n, 2.0) for n in range(6)]
        ratios = np.diff(np.log(values))
        assert ratios == pytest.approx(np.full(5, 0.5 * np.log(r / big_r)), abs=1e-12)

    def test_ordering_validation(self):
        with pytest.raises(ParameterError):
            projection_error_bound(2.0, 4.0, 1.5, 3, 1.0)
        with pytest.raises(ParameterError):
            projection_error_bound(2.0, 4.0, 5.0, 3, 1.0)

    def test_schedule_regime_flag(self):
        assert schedule_regime(1.01, 1.02 * GAMMA * 1.01)
        assert not schedule_regime(2.0, 4.0)
        with pytest.raises(ParameterError):
            schedule_regime(0.5, 2.0)

    def test_derivative_sum_estimate_affine(self):
        # sum |phi_l'| = (1+a)/2 + (1-a)/2 = 1 everywhere for the skewed map
        est = derivative_sum_estimate(make_skewed_doubling(0.4), radius=2.0)
        assert est == pytest.approx(1.05, rel=1e-12)
