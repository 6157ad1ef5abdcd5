"""Dense spectral kernel: eigenvalues, SVD pseudoinverse, norms, scaling."""

import numpy as np
import pytest

from edmdmap.errors import ConvergenceError, ParameterError, RangeOverflowError
from edmdmap.observables import gram_infinite, monomial_basis
from edmdmap.spectral import (
    GAMMA,
    eigenvalues,
    pseudoinverse,
    qr_eigenvalues,
    schur_bound,
    scale_similarity,
    solve_gauss,
    sort_eigenvalues,
    spectral_norm,
)


def multiset_distance(a, b) -> float:
    """Max distance under greedy nearest pairing of two eigenvalue multisets."""
    pool = list(np.asarray(a, dtype=complex))
    worst = 0.0
    for v in np.asarray(b, dtype=complex):
        j = int(np.argmin([abs(v - u) for u in pool]))
        worst = max(worst, abs(v - pool[j]))
        pool.pop(j)
    return worst


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([3.0 + 0j, 1.0 + 2.0j]))
        assert spec.values == pytest.approx([3.0, 1.0 + 2.0j], abs=1e-15)

    def test_rotation(self):
        spec = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert multiset_distance(spec.values, [1j, -1j]) < 1e-14

    def test_companion_cube_roots(self):
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert multiset_distance(eigenvalues(companion).values, roots) < 1e-12

    def test_sort_convention(self):
        # descending modulus, ties by descending real part, then imaginary
        values = sort_eigenvalues(np.array([0.5, -1.0, 1.0, 1j, -1j]))
        assert values == pytest.approx([1.0, 1j, -1j, -1.0, 0.5])

    def test_real_matrix_exact_conjugate_pairs(self):
        # real input goes to the real LAPACK solver: complex eigenvalues come
        # in exact conjugate pairs, real ones carry no imaginary part
        a = np.random.default_rng(17).standard_normal((15, 15))
        values = eigenvalues(a).values
        real = values.imag == 0.0
        assert 0 < np.count_nonzero(real) < len(values)
        pairs = values[~real]
        assert np.array_equal(np.sort_complex(pairs), np.sort_complex(pairs.conj()))
        assert multiset_distance(values, np.linalg.eigvals(a)) < 1e-12

    def test_shape_and_finite_validation(self):
        with pytest.raises(ParameterError):
            eigenvalues(np.ones((2, 3)))
        with pytest.raises(ParameterError):
            eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_dimension_cap(self):
        huge = np.broadcast_to(0.0, (10_001, 10_001))
        with pytest.raises(ParameterError):
            eigenvalues(huge)


class TestQrEigenvalues:
    def test_agrees_with_lapack_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9, 17, 30):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert multiset_distance(qr_eigenvalues(a), np.linalg.eigvals(a)) < 1e-11

    def test_real_input_conjugate_pairs(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        assert multiset_distance(qr_eigenvalues(a), np.linalg.eigvals(a)) < 1e-11

    def test_extended_precision_dtype(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)).astype(np.longdouble)
        values = qr_eigenvalues(a)
        assert values.dtype == np.clongdouble
        assert multiset_distance(values.astype(complex), np.linalg.eigvals(a.astype(float))) < 1e-12

    def test_defective_jordan_block(self):
        j = np.eye(6) * 0.5 + np.diag(np.ones(5), 1)
        values = qr_eigenvalues(j)
        assert np.abs(values - 0.5).max() < 1e-2  # eps^(1/6) clustering is expected
        assert abs(np.prod(values) - 0.5**6) < 1e-6

    def test_sweep_cap_carries_partials(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        with pytest.raises(ConvergenceError) as info:
            qr_eigenvalues(a, sweep_cap=0)
        assert hasattr(info.value, "partial")

    def test_longdouble_dispatch_through_eigenvalues(self):
        a = np.diag(np.asarray([2.0, 1.0], dtype=np.longdouble))
        spec = eigenvalues(a)
        assert spec.values[0] == pytest.approx(2.0)


class TestPseudoinverse:
    def test_truncates_tiny_singular_value(self):
        p = pseudoinverse(np.diag([2.0, 1e-20]), 1e-12)
        assert p == pytest.approx(np.diag([0.5, 0.0]), abs=1e-15)

    def test_identity(self):
        assert pseudoinverse(np.eye(4), 0.5) == pytest.approx(np.eye(4))

    def test_rank_report(self):
        _, dropped = pseudoinverse(np.diag([1.0, 1e-20, 1e-20]), 1e-12, return_rank=True)
        assert dropped == 2

    def test_projection_self_consistency_hilbert5(self):
        h = gram_infinite(monomial_basis(5))
        eps = 1e-6
        pinv = pseudoinverse(h, eps)
        u, s, vh = np.linalg.svd(h)
        kept = s > eps * s[0]
        projector = (vh[kept].conj().T) @ vh[kept]
        assert spectral_norm(pinv @ h - projector) < 1e-8

    def test_zero_eps_inverts_well_conditioned(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 6 * np.eye(6)  # condition number far below 1e6
        assert spectral_norm(pseudoinverse(h, 0.0) @ h - np.eye(6)) < 1e-8

    def test_eps_validation(self):
        for eps in (-1.0, np.nan):
            with pytest.raises(ParameterError):
                pseudoinverse(np.eye(2), eps)


class TestNormsAndBounds:
    def test_spectral_norm_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0)

    def test_spectral_norm_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_schur_identity(self):
        assert schur_bound(np.eye(3)) == pytest.approx(3.0)
        assert spectral_norm(np.eye(3)) <= schur_bound(np.eye(3))

    def test_schur_all_ones_tight(self):
        ones = np.ones((2, 2))
        assert schur_bound(ones) == pytest.approx(2.0)
        assert spectral_norm(ones) == pytest.approx(2.0)

    def test_schur_linear_growth_matrix(self):
        # |B[k, l]| = k + l + 1 has Schur bound at most 3 N^2 / 2
        n = 4
        k = np.arange(n)
        b = (k[:, None] + k[None, :] + 1).astype(float)
        assert schur_bound(b) <= 1.5 * n * n
        assert spectral_norm(b) <= schur_bound(b)

    def test_schur_dominates_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 10, 20):
            for _ in range(100):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                assert spectral_norm(a) <= schur_bound(a) * (1 + 1e-12)

    def test_gamma_constant(self):
        assert GAMMA == pytest.approx((1 + np.sqrt(2)) ** 2, rel=1e-15)


class TestScaleSimilarity:
    def test_rho_one_unchanged(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        assert np.array_equal(scale_similarity(a, 1.0), a)

    def test_diagonal_commutes(self):
        d = np.diag([3.0, 1.0, 0.2])
        assert scale_similarity(d, 2.7) == pytest.approx(d)

    def test_eigenvalue_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        base = eigenvalues(a).values
        for rho in (0.5, 1.1, 2.0, 3.0):
            scaled = eigenvalues(scale_similarity(a, rho)).values
            assert multiset_distance(base, scaled) < 1e-9 * max(1.0, np.abs(base).max())

    def test_overflow_error(self):
        with pytest.raises(RangeOverflowError):
            scale_similarity(np.eye(400), 10.0)

    def test_rho_validation(self):
        with pytest.raises(ParameterError):
            scale_similarity(np.eye(3), 0.0)


class TestSolveGauss:
    def test_matches_lapack(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 2))
        assert solve_gauss(a, b) == pytest.approx(np.linalg.solve(a, b), abs=1e-10)

    def test_extended_precision_residual(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((8, 8)).astype(np.longdouble)
        b = rng.standard_normal(8).astype(np.longdouble)
        x = solve_gauss(a, b)
        assert x.dtype == np.longdouble
        assert float(np.abs(a @ x - b).max()) < 1e-17

    def test_singular_error(self):
        with pytest.raises(ParameterError):
            solve_gauss(np.zeros((3, 3)), np.ones(3))
