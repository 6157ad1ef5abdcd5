"""EDMD matrix pairs: node sets, finite/infinite builders, eigensolve, schedule."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from edmdmap import edmd
from edmdmap.edmd import (
    EdmdPair,
    NodeSet,
    Provenance,
    build_finite,
    build_infinite,
    cross_gram_quadrature,
    edmd_spectrum,
    node_schedule,
    nodes_equidistant,
)
from edmdmap.errors import (
    MapDomainError,
    ParameterError,
    QuadratureError,
    RangeOverflowError,
    RankTruncationWarning,
)
from edmdmap.maps import exact_spectrum_values, make_blaschke, make_skewed_doubling
from edmdmap.observables import (
    eval_basis,
    fourier_basis,
    fourier_cross_closed,
    gram_infinite,
    monomial_basis,
)
from edmdmap.spectral import eigenvalues, spectral_norm
from edmdmap.transfer import transfer_matrix_affine
from similarity import scale_similarity

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

    @pytest.mark.parametrize("m", [2**62 + 1, 2**63 - 1, 2**63 + 1024])
    def test_count_past_range_names_m(self, m):
        # past 2^62; numpy's arange(M) is empty near 2^63, so such an M gave no nodes
        with pytest.raises(ParameterError, match=f"M = {m} outside"):
            nodes_equidistant(m)

    @pytest.mark.parametrize("m", [2**50, 2**60])
    def test_unallocatable_count_names_m(self, m):
        # 8 PiB and 8 EiB of nodes: numpy refuses either allocation at once
        with pytest.raises(ParameterError, match=f"M = {m} "):
            nodes_equidistant(m)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 1000, 2**17 + 1, 10**5, 10**6])
    @pytest.mark.parametrize("share", [0.0, 1.0, 2.0, 0.6], ids=["0", "1/M", "2/M", "0.6/M"])
    def test_nodes_bit_identical_to_formula(self, m, share):
        delta = share / m
        expected = -1.0 + delta + 2.0 * np.arange(m) / m
        assert nodes_equidistant(m, delta).nodes.tobytes() == expected.tobytes()

    def test_memory_one_node_array(self):
        # the nodes are scaled and shifted in place: one 8 MB array, no temporaries
        tracemalloc.start()
        try:
            nodes_equidistant(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 8 * 10**6


def mirrored(basis, nodes):
    """Whether build_finite mirrors this odd-map build (Blaschke maps are odd)."""
    return basis.kind == "monomials" and nodes.m % 2 == 0 and nodes.delta == 1.0 / nodes.m


def mirrored_reference(imap, basis, nodes):
    """The mirrored pair from the whole x > 0 half table: parity blocks
    averaged over the M/2 nodes, off-parity entries 0."""
    half = nodes.nodes[nodes.m // 2 :]
    psi_x, psi_tx = eval_basis(basis, half), eval_basis(basis, imap(half))
    h, g = np.zeros((basis.size, basis.size)), np.zeros((basis.size, basis.size))
    for p in (0, 1):
        h[p::2, p::2] = psi_x[p::2] @ psi_x[p::2].T
        g[p::2, p::2] = psi_tx[p::2] @ psi_x[p::2].T
    return h / (nodes.m // 2), g / (nodes.m // 2)


def full_loop(imap, basis, nodes):
    """build_finite's chunk loop over every node and every row."""
    step, size = edmd._chunk_nodes(basis.size), basis.size
    h, g = np.zeros((size, size)), np.zeros((size, size))
    for lo in range(0, nodes.m, step):
        x = nodes.nodes[lo : lo + step]
        psi_x, psi_tx = eval_basis(basis, x), eval_basis(basis, imap(x))
        h += psi_x @ psi_x.T
        g += psi_tx @ psi_x.T
    return h / nodes.m, g / nodes.m


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

    @pytest.mark.parametrize("basis", [monomial_basis(16), fourier_basis(49)],
                             ids=["mono16", "fourier49"])
    @pytest.mark.parametrize("offset", [None, 0.3], ids=["midpoint", "offset"])
    def test_chunk_boundaries_match_full_table(self, basis, offset):
        imap, c = make_blaschke(0.3), edmd._chunk_nodes(basis.size)
        for m in (1, c - 1, c, c + 1, 3 * c + 5):
            nodes = nodes_equidistant(m, None if offset is None else offset * 2.0 / m)
            psi_x = eval_basis(basis, nodes.nodes)
            psi_tx = eval_basis(basis, imap(nodes.nodes))
            h, g = psi_x @ psi_x.T / m, psi_tx @ psi_x.T / m
            pair = build_finite(imap, basis, nodes)
            assert np.array_equal(pair.h, pair.h.T)
            if m <= c:  # one chunk is the whole table, or its x > 0 half when mirrored
                ref = mirrored_reference(imap, basis, nodes) if mirrored(basis, nodes) else (h, g)
                assert np.array_equal(pair.h, ref[0]) and np.array_equal(pair.g, ref[1])
            assert np.abs(pair.h - h).max() <= 1e-14
            assert np.abs(pair.g - g).max() <= 1e-14

    @pytest.mark.parametrize("imap", [make_blaschke(0.3), make_skewed_doubling(SKEW)],
                             ids=["blaschke", "skewed"])
    @pytest.mark.parametrize("basis", [monomial_basis(16), fourier_basis(7), fourier_basis(49)],
                             ids=["mono16", "fourier7", "fourier49"])
    @pytest.mark.parametrize("c", [1, 2, 3, 17, 1023, 2730])
    def test_fused_table_matches_separate_tables(self, imap, basis, c):
        # build_finite evaluates the basis once on [x | T(x)]; each half must be
        # the table of its own points, bit for bit
        x = nodes_equidistant(3 * c).nodes[c : 2 * c]
        tx = imap(x)
        fused = eval_basis(basis, np.concatenate([x, tx]))
        assert fused[:, :c].tobytes() == eval_basis(basis, x).tobytes()
        assert fused[:, c:].tobytes() == eval_basis(basis, tx).tobytes()

    @pytest.mark.parametrize("size", [1, 16])
    def test_branch_nan_is_a_domain_error(self, size):
        # T(x) is checked once, by eval_basis on [x | T(x)]
        blaschke = make_blaschke(0.3)
        left, right = blaschke.branches
        broken = replace(right, forward=lambda x: np.where(x > 0.5, np.nan, right.forward(x)))
        imap = replace(blaschke, branches=(left, broken))
        for m in (10, 10**5):
            with pytest.raises(MapDomainError):
                build_finite(imap, monomial_basis(size), nodes_equidistant(m))

    def test_decreasing_nodes_refused(self):
        # each branch maps its run of a chunk's ordered nodes
        c = edmd._chunk_nodes(16)
        ordered = nodes_equidistant(3 * c)
        for nodes in (
            NodeSet(m=5, delta=0.2, nodes=ordered.nodes[:5][::-1].copy()),
            NodeSet(m=3 * c, delta=ordered.delta, nodes=np.roll(ordered.nodes, c)),  # at a chunk start
        ):
            with pytest.raises(ParameterError, match="non-decreasing"):
                build_finite(make_skewed_doubling(SKEW), monomial_basis(16), nodes)
        repeated = NodeSet(m=4, delta=0.0, nodes=np.array([-0.5, 0.0, 0.0, 0.5]))
        pair = build_finite(make_skewed_doubling(0.0), monomial_basis(2), repeated)
        assert pair.h[1, 1] == pytest.approx(0.125)

    @pytest.mark.parametrize("imap, basis", [
        (make_blaschke(0.3), monomial_basis(16)),
        (make_skewed_doubling(SKEW), monomial_basis(6)),
        (make_skewed_doubling(SKEW), fourier_basis(49)),
        (make_blaschke(0.3), monomial_basis(2)),
    ], ids=["blaschke-mono16", "skewed-mono6", "skewed-fourier49", "blaschke-mono2"])
    def test_memory_bounded_by_chunk(self, imap, basis):
        # a whole (N, 10^6) table pair is 16N MB; one chunk's [x | T(x)] table is at most 256 KiB
        nodes = nodes_equidistant(10**6)
        tracemalloc.start()
        try:
            build_finite(imap, basis, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


C16 = edmd._chunk_nodes(16)  # nodes per chunk at N = 16


class TestMirroredBuild:
    # odd map, monomials, an even count of midpoint nodes: build_finite sums
    # over the M/2 nodes x > 0 and the two parity blocks only
    @pytest.mark.parametrize("size", [15, 16])
    @pytest.mark.parametrize("m", [2, 100, 2 * C16 + 2, 10**5], ids=["2", "100", "2c+2", "100000"])
    def test_reads_half_the_nodes(self, size, m):
        read = []

        def counted(forward):
            return lambda x: read.append(np.size(x)) or forward(x)

        blaschke = make_blaschke(0.3)
        imap = replace(blaschke, branches=tuple(
            replace(b, forward=counted(b.forward)) for b in blaschke.branches))
        assert imap.odd
        read.clear()  # the oddness probe ran at construction
        pair = build_finite(imap, monomial_basis(size), nodes_equidistant(m))
        assert sum(read) == m // 2
        k = np.arange(size)
        off_parity = (k[:, None] + k[None, :]) % 2 == 1
        assert np.all(pair.h[off_parity] == 0.0) and np.all(pair.g[off_parity] == 0.0)
        assert np.array_equal(pair.h, pair.h.T)
        ref_h, ref_g = full_loop(blaschke, monomial_basis(size), nodes_equidistant(m))
        assert np.abs(pair.h - ref_h).max() <= 1e-14
        assert np.abs(pair.g - ref_g).max() <= 1e-14

    @pytest.mark.parametrize("imap, basis, m, delta", [
        (make_blaschke(0.3), monomial_basis(16), 101, None),
        (make_blaschke(0.3), monomial_basis(16), 3 * C16 + 5, None),
        (make_blaschke(0.3), monomial_basis(16), 1000, 0.0),
        (make_blaschke(0.3), monomial_basis(16), 1000, 0.6 / 1000),
        (make_blaschke(0.3), fourier_basis(21), 1000, None),
        (make_skewed_doubling(SKEW), monomial_basis(10), 10**4, None),
    ], ids=["odd-m", "odd-m-chunks", "delta0", "offset", "fourier", "skewed"])
    def test_other_builds_bit_identical_to_full_loop(self, imap, basis, m, delta):
        nodes = nodes_equidistant(m, delta)
        pair = build_finite(imap, basis, nodes)
        h, g = full_loop(imap, basis, nodes)
        assert np.array_equal(pair.h, h) and np.array_equal(pair.g, g)

    def test_memory_no_higher_than_full_path(self):
        # a build holds one 256 KiB table, reused by every chunk, its [x | T(x)]
        # point buffer and the map's temporaries
        imap, basis, m = make_blaschke(0.3), monomial_basis(16), 10**6
        peaks = []
        for nodes in (nodes_equidistant(m), nodes_equidistant(m, 0.0)):
            build_finite(imap, basis, nodes)  # first-call set-up is not the build's
            tracemalloc.start()
            try:
                build_finite(imap, basis, nodes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1] < 2**20


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
        g64 = cross_gram_quadrature(imap, monomial_basis(15), 64)
        g128 = cross_gram_quadrature(imap, monomial_basis(15), 128)
        assert np.abs(g64 - g128).max() < 1e-10

    def test_underresolved_quadrature_raises(self, monkeypatch):
        # Fourier N = 41 on Blaschke moves by 1.84e-9 from order 64 to 128
        monkeypatch.setattr(edmd, "_MAX_QUAD_ORDER", 128)
        with pytest.raises(QuadratureError):
            build_infinite(make_blaschke(0.3), fourier_basis(41))

    def test_quadrature_order_doubles_until_settled(self):
        for n in (41, 61, 81):
            pair = build_infinite(make_blaschke(0.3), fourier_basis(n))
            assert pair.provenance.quad_order == 128
        assert build_infinite(make_blaschke(0.3), fourier_basis(21)).provenance.quad_order == 64

    @pytest.mark.parametrize("basis", [monomial_basis(8), fourier_basis(9)], ids=["mono", "fourier"])
    def test_second_build_reuses_cached_rules(self, monkeypatch, basis):
        # the float64 and the 80-bit Gauss-Legendre rules are built once per order
        monkeypatch.setattr(edmd, "_leggauss_cache", {})
        leggauss, calls = np.polynomial.legendre.leggauss, []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda q: calls.append(q) or leggauss(q))
        first = build_infinite(make_blaschke(0.3), basis)
        built = len(calls)
        second = build_infinite(make_blaschke(0.3), basis)
        assert built > 0 and len(calls) == built
        assert np.array_equal(first.g, second.g)
        assert not any(array.flags.writeable for rule in edmd._leggauss_cache.values()
                       for array in rule)

    @pytest.mark.parametrize("a", [0.0, 0.3, SKEW, 0.95])
    @pytest.mark.parametrize("n", [7, 21, 49])
    def test_fourier_skewed_quadrature_matches_closed_form(self, a, n):
        pair = build_infinite(make_skewed_doubling(a), fourier_basis(n))
        assert pair.provenance.kind == "infinite"
        assert pair.g.dtype == float and np.array_equal(pair.h, np.eye(n))
        assert np.abs(pair.g - fourier_cross_closed(a, n)).max() < 1e-13

    def test_g_follows_the_branches_not_the_label(self):
        # labelled for a = 0.3, built from the a = 0.6 branches
        imap = replace(make_skewed_doubling(0.3), branches=make_skewed_doubling(0.6).branches)
        pair = build_infinite(imap, fourier_basis(7))
        assert np.abs(pair.g - fourier_cross_closed(0.6, 7)).max() < 1e-13

    def test_extended_copies_for_monomials(self):
        # h and g are the float64 rounding of the one 80-bit assembly
        for imap in (make_skewed_doubling(0.3), make_blaschke(0.3)):
            pair = build_infinite(imap, monomial_basis(6))
            for ext, working in ((pair.h_ext, pair.h), (pair.g_ext, pair.g)):
                assert ext.dtype == np.longdouble and working.dtype == np.float64
                assert np.array_equal(ext.astype(float), working)


class TestLeading:
    def test_size_checked(self):
        pair = build_finite(make_skewed_doubling(SKEW), monomial_basis(4), nodes_equidistant(10))
        for n in (0, 5):
            with pytest.raises(ParameterError):
                pair.leading(n)

    def test_extended_copies_follow_the_block(self):
        imap = make_skewed_doubling(0.3)
        block = build_infinite(imap, monomial_basis(6)).leading(4)
        assert np.array_equal(block.h_ext, gram_infinite(monomial_basis(4), dtype=np.longdouble))
        assert block.g_ext.shape == (4, 4) and block.basis == monomial_basis(4)
        direct = edmd_spectrum(build_infinite(imap, monomial_basis(4)))
        assert multiset_distance(edmd_spectrum(block).values, direct.values) < 1e-12


class TestEdmdSpectrum:
    def test_diagonal_pair(self):
        pair = EdmdPair(
            h=np.eye(2),
            g=np.diag([1.0, 0.5]),
            provenance=Provenance("finite", m=2, delta=0.5),
            basis=monomial_basis(2),
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
        )
        with pytest.warns(RankTruncationWarning):
            spec = edmd_spectrum(pair)
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
    def test_precision_follows_dictionary(self):
        # monomials are integrated in 80-bit, the Fourier dictionary in float64
        imap = make_blaschke(0.3)
        assert cross_gram_quadrature(imap, monomial_basis(8), 64).dtype == np.longdouble
        assert cross_gram_quadrature(imap, fourier_basis(5), 64).dtype == np.float64
        with pytest.raises(ParameterError):  # the float64 route checks the order too
            cross_gram_quadrature(imap, fourier_basis(3), 0)

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            cross_gram_quadrature(make_skewed_doubling(0.1), monomial_basis(3), 0)
