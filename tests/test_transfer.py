"""Transfer-operator matrices: affine closed form, Cauchy sampling, bounds."""

import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from edmdmap import transfer
from edmdmap.edmd import build_infinite, edmd_spectrum, node_schedule
from edmdmap.errors import AliasingError, BranchCutError, NonAffineBranchError, ParameterError
from edmdmap.maps import (
    Branch,
    IntervalMap,
    exact_spectrum_values,
    make_blaschke,
    make_skewed_doubling,
    verify_branch_analyticity,
)
from edmdmap.observables import monomial_basis
from edmdmap.spectral import GAMMA, eigenvalues, pseudoinverse
from edmdmap.transfer import (
    derivative_sum_estimate,
    projection_error_bound,
    schedule_regime,
    transfer_matrix_affine,
    transfer_matrix_analytic,
)
from similarity import scale_similarity

from test_spectral import multiset_distance

SKEW = 1.0 / np.sqrt(2.0)


def affine_matrix_oracle(imap, n, rho):
    """Independent route: expand sign*alpha*(alpha z + beta)^l with polypow,
    in the orthonormal basis (z/rho)^n of the disk of radius rho."""
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
        # the (z/rho)^n basis conjugates the Taylor-basis matrix by diag(rho^n)
        imap = make_skewed_doubling(0.35)
        for size in (8, 40):
            l_rho = scale_similarity(transfer_matrix_affine(imap, size).l, rho)
            assert np.abs(l_rho - affine_matrix_oracle(imap, size, rho)).max() < 1e-14

    def test_large_size_stays_finite(self):
        # the coefficients sum to at most 1, while binomials such as
        # math.comb(1030, 515) no longer convert to float
        imap = make_skewed_doubling(SKEW)
        l_mat = transfer_matrix_affine(imap, 1100).l
        assert np.isfinite(l_mat).all() and np.abs(l_mat).max() <= 1.0
        exact = exact_spectrum_values(imap, 1100).real
        assert np.diag(l_mat) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a", [SKEW, 0.5, 0.8])
    def test_leading_eigenvalues_at_rounding(self, a):
        imap = make_skewed_doubling(a)
        exact = exact_spectrum_values(imap, 6)
        for n in (10, 20, 30, 40):
            values = eigenvalues(transfer_matrix_affine(imap, n).l).values[:6]
            assert np.abs(values - exact).max() <= 1e-15

    def test_nonaffine_rejected(self):
        with pytest.raises(NonAffineBranchError):
            transfer_matrix_affine(make_blaschke(0.2), 5)

    def test_spectrum_rho_independent(self):
        imap = make_skewed_doubling(SKEW)
        l_mat = transfer_matrix_affine(imap, 9).l
        for rho in (0.7, 1.0, 2.5):
            values = eigenvalues(scale_similarity(l_mat, rho)).values
            assert values == pytest.approx(exact_spectrum_values(imap, 9))


class TestCauchy:
    def test_matches_affine_closed_form(self):
        imap = make_skewed_doubling(SKEW)
        tm = transfer_matrix_analytic(imap, 10, sample_radius=1.5)
        assert np.abs(tm.l - transfer_matrix_affine(imap, 10).l).max() < 1e-11

    def test_blaschke_mu_zero_degenerates_to_doubling(self):
        tm = transfer_matrix_analytic(make_blaschke(0.0), 8, sample_radius=1.2)
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
        # L_N in the (z/rho)^n basis of another Hardy disk has the same spectrum
        l_mat = transfer_matrix_analytic(make_blaschke(0.25), 10).l
        v1 = eigenvalues(l_mat).values
        v2 = eigenvalues(scale_similarity(l_mat, 1.3)).values
        assert multiset_distance(v1, v2) < 1e-9

    def test_projection_commutes_for_affine_maps(self):
        # (1 - P_N) L P_N = 0: infinite-node EDMD spectrum = eig(L_N)
        imap = make_skewed_doubling(SKEW)
        n = 8
        edmd_vals = edmd_spectrum(build_infinite(imap, monomial_basis(n))).values
        l_vals = eigenvalues(transfer_matrix_affine(imap, n).l).values
        assert multiset_distance(edmd_vals, l_vals) < 1e-9

    @pytest.mark.parametrize("size", [1, 10, 25])
    @pytest.mark.parametrize("radius", [1.19, 1.5])
    def test_radius_past_branch_points_matches(self, radius, size):
        # the Blaschke mu = 0.3 branches swap across cuts from their branch
        # points at +-1.193i on, but the branch sum stays analytic: its L_N
        # does not depend on the radius (largest difference measured 1.9e-13)
        blaschke = make_blaschke(0.3)
        near = transfer_matrix_analytic(blaschke, size, sample_radius=1.1).l
        far = transfer_matrix_analytic(blaschke, size, sample_radius=radius).l
        assert np.abs(far - near).max() < 1e-12

    def test_singular_branch_sum_raises_aliasing(self):
        # at radius 2.2 the branch sum is not resolved: it still leaks 4.1e-9
        # into negative modes at the 4096-sample ceiling
        with pytest.raises(AliasingError):
            transfer_matrix_analytic(make_blaschke(0.3), 25, sample_radius=2.2)
        # a pole at 1.05 inside the circle is a negative mode at every S
        # (leak 0.068, 0.022 and 0.0065 at the ceiling), not an aliased tail
        for radius in (1.1, 1.2, 1.5):
            with pytest.raises(AliasingError):
                transfer_matrix_analytic(pole_map(0.01, 1.05), 10, sample_radius=radius)

    def test_small_radius_leak_on_entry_scale(self):
        # below radius 1 the entries carry radius^-k, up to 2^39 at 0.5 and
        # N = 40, and the leak is measured on that scale: rounding alone
        # leaks 9.5e-6 there; at 1e-300 the scale overflows, which is a
        # non-finite matrix and no RuntimeWarning
        blaschke = make_blaschke(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AliasingError):
                transfer_matrix_analytic(blaschke, 40, sample_radius=0.5)
            with pytest.raises(ParameterError):
                transfer_matrix_analytic(blaschke, 10, sample_radius=1e-300)

    def test_each_branch_function_evaluated_once(self):
        # the first rung settles, and it reads each branch once on its 2S circle
        calls = Counter()

        def counted(key, fn):
            def wrapper(z):
                calls[key] += 1
                return fn(z)
            return wrapper

        imap = make_blaschke(0.3)
        branches = tuple(
            replace(
                branch,
                inverse=counted((index, "inverse"), branch.inverse),
                inverse_derivative=counted((index, "inverse_derivative"), branch.inverse_derivative),
            )
            for index, branch in enumerate(imap.branches)
        )
        counted_map = replace(imap, branches=branches)
        calls.clear()  # Branch.__post_init__ reads the derivative at 0
        tm = transfer_matrix_analytic(counted_map, 10)
        assert calls == {(index, name): 1 for index in range(2)
                         for name in ("inverse", "inverse_derivative")}
        assert np.array_equal(tm.l, transfer_matrix_analytic(imap, 10).l)

    def test_non_finite_circle_refused_on_first_rung(self):
        # a non-finite value comes back on every finer circle, which holds the
        # coarser points, so the first rung refuses: each branch function is
        # read at most once, with the same error classes as at the ceiling
        calls = Counter()

        def counted(imap):
            def wrap(key, fn):
                def wrapper(z):
                    calls[key] += 1
                    return fn(z)
                return wrapper
            return replace(imap, branches=tuple(
                replace(branch,
                        inverse=wrap((index, "inverse"), branch.inverse),
                        inverse_derivative=wrap((index, "inverse_derivative"),
                                                branch.inverse_derivative))
                for index, branch in enumerate(imap.branches)))

        for call, error in (
            (lambda imap: transfer_matrix_analytic(imap, 10, sample_radius=1e-300), ParameterError),
            (lambda imap: derivative_sum_estimate(imap, 1e300), BranchCutError),
        ):
            imap = counted(make_blaschke(0.3))
            calls.clear()  # Branch.__post_init__ reads the derivative at 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error):
                    call(imap)
            assert calls and max(calls.values()) == 1, calls

    def test_aliasing_detected_until_samples_resolve_pole(self, monkeypatch):
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
        )
        imap = IntervalMap(branches=(pole, right), deriv_sup=2.0)
        assert transfer_matrix_analytic(imap, 10, sample_radius=1.1).method.endswith("samples=256)")
        monkeypatch.setattr(transfer, "DEFAULT_SAMPLES", 64)
        with pytest.raises(AliasingError):
            transfer_matrix_analytic(imap, 10, sample_radius=1.1)
        monkeypatch.setattr(transfer, "DEFAULT_SAMPLES", 256)
        assert "samples=256" in transfer_matrix_analytic(imap, 10, sample_radius=1.1).method

    def test_sample_count_follows_size(self, monkeypatch):
        # the ceiling, DEFAULT_SAMPLES raised to the next power of two >= 4*size,
        # caps the start rung
        monkeypatch.setattr(transfer, "DEFAULT_SAMPLES", 16)
        imap = make_skewed_doubling(0.2)
        assert transfer_matrix_analytic(imap, 3).method.endswith("samples=16)")
        assert transfer_matrix_analytic(imap, 10).method.endswith("samples=64)")
        assert transfer_matrix_analytic(imap, 16).method.endswith("samples=64)")


def pole_map(weight, pole):
    """The left doubling branch plus weight/(z - pole), and the right one."""
    left, right = make_skewed_doubling(0.0).branches
    branch = Branch(
        domain_lo=left.domain_lo,
        domain_hi=left.domain_hi,
        forward=left.forward,
        inverse=lambda z: left.inverse(z) + weight / (np.asarray(z) - pole),
        inverse_derivative=(
            lambda z: left.inverse_derivative(z) - weight / (np.asarray(z) - pole) ** 2
        ),
    )
    return IntervalMap(branches=(branch, right), deriv_sup=2.0)


def ceiling_matrix(monkeypatch, imap, size):
    """The matrix at the ladder's ceiling count: the start rung is moved
    above every ceiling, so the ceiling rung is the only one."""
    with monkeypatch.context() as patch:
        patch.setattr(transfer, "_START_SAMPLES", 1 << 40)
        return transfer_matrix_analytic(imap, size)


class TestSampleLadder:
    def test_blaschke_settles_on_first_rung(self):
        # N = 25 starts at S = 128: one evaluation per function on the 2S circle
        points = Counter()

        def counted(key, fn):
            def wrapper(z):
                points[key] += np.size(z)
                return fn(z)
            return wrapper

        imap = make_blaschke(0.3)
        counted_map = replace(imap, branches=tuple(
            replace(
                branch,
                inverse=counted((index, "inverse"), branch.inverse),
                inverse_derivative=counted((index, "inverse_derivative"), branch.inverse_derivative),
            )
            for index, branch in enumerate(imap.branches)
        ))
        points.clear()  # Branch.__post_init__ reads the derivative at 0
        tm = transfer_matrix_analytic(counted_map, 25)
        assert tm.method == "cauchy(radius=1.1, samples=128)"
        assert points == {(index, name): 256 for index in range(2)
                          for name in ("inverse", "inverse_derivative")}

    @pytest.mark.parametrize("mu", [0.2, 0.25, 0.3])
    def test_settled_entries_match_ceiling(self, monkeypatch, mu):
        imap = make_blaschke(mu)
        for size in range(10, 26):
            settled = transfer_matrix_analytic(imap, size)
            ceiling = ceiling_matrix(monkeypatch, imap, size)
            assert ceiling.method == "cauchy(radius=1.1, samples=4096)"
            assert np.abs(settled.l - ceiling.l).max() < 1e-14, size

    @pytest.mark.parametrize("imap", [make_blaschke(0.3), make_skewed_doubling(SKEW)],
                             ids=["blaschke", "skewed-doubling"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_sizes_settle_at_start(self, imap, size):
        assert transfer_matrix_analytic(imap, size).method == "cauchy(radius=1.1, samples=64)"

    def test_steep_radius_settles_at_every_size(self):
        # |z| = 1.19 lies just inside the Blaschke branch points, where each
        # branch is analytic but steep
        blaschke = make_blaschke(0.3)
        for size in range(1, 61):
            assert transfer_matrix_analytic(blaschke, size, sample_radius=1.19).l.shape == (size, size)

    @pytest.mark.parametrize("weight, pole", [(0.01, 1.15), (0.002, 1.12)])
    def test_pole_near_circle_climbs_past_coarse_cut_jumps(self, monkeypatch, weight, pole):
        # a pole just outside |z| = 1.1 leaks into the negative modes of a
        # coarse circle by aliasing; the ladder climbs until the leak
        # settles (S = 1024 and 2048, the ceiling is 4096)
        imap = pole_map(weight, pole)
        settled = transfer_matrix_analytic(imap, 10)
        assert np.abs(settled.l - ceiling_matrix(monkeypatch, imap, 10).l).max() < 1e-10


def tent_map():
    """The full tent map through the public API: phi_0(z) = (z - 1)/2 on
    [-1, 0] and the decreasing phi_1(z) = (1 - z)/2 on [0, 1]."""
    left = Branch(
        domain_lo=-1.0,
        domain_hi=0.0,
        forward=lambda x: 2.0 * np.asarray(x) + 1.0,
        inverse=lambda z: (np.asarray(z) - 1.0) / 2.0,
        inverse_derivative=lambda z: np.full_like(np.asarray(z, dtype=complex), 0.5),
        affine=(0.5, -0.5),
    )
    right = Branch(
        domain_lo=0.0,
        domain_hi=1.0,
        forward=lambda x: 1.0 - 2.0 * np.asarray(x),
        inverse=lambda z: (1.0 - np.asarray(z)) / 2.0,
        inverse_derivative=lambda z: np.full_like(np.asarray(z, dtype=complex), -0.5),
        affine=(-0.5, 0.5),
    )
    return IntervalMap(branches=(left, right), deriv_sup=2.0)


class TestDecreasingBranch:
    # both L_N routes multiply by the derived sign; the tent map's spectrum
    # is sum_l sign_l * alpha_l^(n+1) = (1 + (-1)^n) / 2^(n+1): 1, 0, 1/4, 0, ...
    def test_derived_signs(self):
        assert tuple(branch.sign for branch in tent_map().branches) == (1, -1)

    def test_affine_diagonal(self):
        size = 12
        diagonal = [(1.0 + (-1.0) ** n) / 2.0 ** (n + 1) for n in range(size)]
        assert np.array_equal(np.diag(transfer_matrix_affine(tent_map(), size).l), diagonal)

    def test_cauchy_matches_affine(self):
        imap = tent_map()
        for size in (5, 20):
            cauchy = transfer_matrix_analytic(imap, size).l
            assert np.abs(cauchy - transfer_matrix_affine(imap, size).l).max() < 1e-13

    def test_infinite_edmd_leading_eigenvalues(self):
        values = edmd_spectrum(build_infinite(tent_map(), monomial_basis(10))).values
        assert np.abs(values[:3] - [1.0, 0.25, 0.0625]).max() < 1e-12


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
        # sum |phi_l'| = (1+a)/2 + (1-a)/2 = 1 everywhere for the skewed map;
        # affine branches are entire, so no radius trips the cut check
        for radius in (2.0, 100.0):
            est = derivative_sum_estimate(make_skewed_doubling(0.4), radius=radius)
            assert est == pytest.approx(1.05, rel=1e-12)

    def test_derivative_sum_estimate_checks_cut(self):
        # mu cos(pi z/2) = +-1 first at |z| = (2/pi) arccosh(10/3) ~ 1.193
        blaschke = make_blaschke(0.3)
        assert math.isfinite(derivative_sum_estimate(blaschke, 1.15))
        with pytest.raises(BranchCutError):
            derivative_sum_estimate(blaschke, 1.4)
        # analytic but steep up to the branch points: the circle doubles
        # from 720 points (46080 at 1.192) instead of refusing the disk; a
        # double pole just outside the circle leaks 3.68, 2.0, 0.88, 0.13,
        # 1.4e-3, 7.7e-8 and 1.2e-13 on the way to 46080 points, so a leak
        # that falls slowly at first is no reason to stop the climb
        steep = [(blaschke, radius) for radius in (1.175, 1.18, 1.19, 1.192)]
        for imap, radius in steep + [(pole_map(0.01, 1.102), 1.1)]:
            assert math.isfinite(derivative_sum_estimate(imap, radius)), radius
        for radius in (1.193, 1e300):  # 1e300: an overflow is a cut, not a RuntimeWarning
            with pytest.raises(BranchCutError):
                derivative_sum_estimate(blaschke, radius)
        with pytest.raises(ParameterError):  # no circle of infinite radius is built
            derivative_sum_estimate(blaschke, math.inf)
        # a pole at 1.05 leaves every value on the circle finite and smooth,
        # but the disk it bounds is not one of analyticity
        for radius in (1.1, 1.5):
            with pytest.raises(BranchCutError):
                derivative_sum_estimate(pole_map(0.01, 1.05), radius)
            with pytest.raises(BranchCutError):
                verify_branch_analyticity(pole_map(0.01, 1.05), radius)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: transfer_matrix_analytic(make_blaschke(0.3), 4, sample_radius=math.nan),
                     id="cauchy-sample-radius"),
        pytest.param(lambda: scale_similarity(np.eye(3), math.nan), id="scale-similarity-rho"),
        pytest.param(lambda: node_schedule(3, math.nan), id="node-schedule-rate"),
        pytest.param(lambda: projection_error_bound(1.1, 1.5, 1.2, 4, math.nan),
                     id="projection-bound-derivative-sum"),
        pytest.param(lambda: pseudoinverse(np.array([[1.0, math.nan], [0.0, 1.0]]), 1e-12),
                     id="pseudoinverse-entry"),
        pytest.param(lambda: exact_spectrum_values(make_blaschke(0.3), 0),
                     id="exact-spectrum-size-0"),
        pytest.param(lambda: transfer_matrix_affine(make_skewed_doubling(SKEW), 0),
                     id="affine-size-0"),
        pytest.param(lambda: transfer_matrix_analytic(make_blaschke(0.3), 0), id="cauchy-size-0"),
    ],
)
def test_nan_parameter_rejected(call):
    """A NaN parameter, a non-finite matrix entry or a size of 0 fails its
    range guard instead of flowing into the result."""
    with pytest.raises(ParameterError):
        call()
