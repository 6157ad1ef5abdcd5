"""Harness: matching, sweeps, CSV round-trip, fits, config parsing."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmdmap import bench, edmd
from edmdmap.bench import (
    SweepConfig,
    SweepPairs,
    SweepRecord,
    figure_recipe,
    fit_decay,
    fourier_radius_study,
    map_from_config,
    match_spectra,
    parse_config,
    read_records,
    run_sweep,
    sweep_config_from_text,
    write_records,
)
from edmdmap.edmd import build_finite, build_infinite, nodes_equidistant
from edmdmap.errors import (
    ConfigError,
    InsufficientDataError,
    MapDomainError,
    ParameterError,
    RankTruncationWarning,
)
from edmdmap.maps import exact_spectrum_values, make_blaschke, make_skewed_doubling
from edmdmap.observables import (
    FOURIER,
    MONOMIALS,
    fourier_basis,
    fourier_cross_closed,
    monomial_basis,
)
from edmdmap.spectral import eigenvalues

SKEW = 1.0 / np.sqrt(2.0)


class TestMatchSpectra:
    def test_simple_pairs(self):
        result = match_spectra(np.array([1.01, 0.76]), np.array([1.0, 0.75]), 2)
        assert result.delta == pytest.approx([0.01, 0.01])
        assert result.delta_rank == pytest.approx([0.01, 0.01])

    def test_identical_spectra(self):
        values = np.array([1.0, 0.5, 0.25])
        result = match_spectra(values, values, 3)
        assert result.delta == pytest.approx([0.0, 0.0, 0.0], abs=0.0)

    def test_double_eigenvalue_gets_distinct_approximants(self):
        # greedy oracle on the explicit 3x3 distance matrix: exact 0.3 (two
        # copies) must bind to the two distinct members of the 0.3-cluster
        approx = np.array([1.0001, 0.3002, 0.2999])
        exact = np.array([1.0, 0.3, 0.3])
        dist = np.abs(exact[:, None] - approx[None, :])
        used, oracle = [], []
        for row in dist:
            order = [j for j in np.argsort(row) if j not in used]
            used.append(order[0])
            oracle.append(row[order[0]])
        result = match_spectra(approx, exact, 3)
        assert result.delta == pytest.approx(oracle)
        assert len({complex(v) for v in result.matched}) == 3

    def test_length_error(self):
        with pytest.raises(ParameterError):
            match_spectra(np.array([1.0]), np.array([1.0, 0.5]), 2)

    def test_matches_row_by_row_greedy(self):
        # one distance matrix gives the greedy pairing of one |a - e[n]| row
        # per index, ties to the first index, bit for bit
        def row_by_row(a, e, k_max):
            delta, matched, used = np.empty(k_max), np.empty(k_max, complex), np.zeros(a.size, bool)
            for n in range(k_max):
                dist = np.abs(a - e[n])
                dist[used] = np.inf
                j = int(np.argmin(dist))
                used[j], delta[n], matched[n] = True, dist[j], a[j]
            return delta, matched

        rng = np.random.default_rng(7)
        for trial in range(200):
            size = int(rng.integers(1, 40))
            a = rng.normal(size=size) + 1j * rng.normal(size=size)
            e = rng.normal(size=size) + 1j * rng.normal(size=size)
            if trial % 2:  # coarse values: many ties
                a, e = np.round(a, 0), np.round(e, 0)
            k_max = int(rng.integers(1, size + 1))
            result = match_spectra(a, e, k_max)
            delta, matched = row_by_row(a, e, k_max)
            assert result.delta.tobytes() == delta.tobytes()
            assert result.matched.tobytes() == matched.tobytes()
        tie = match_spectra(np.array([0.5, 0.5, 0.9]), np.array([0.6, 0.6]), 2)
        assert list(tie.matched) == [0.5, 0.5] and list(tie.delta) == pytest.approx([0.1, 0.1])


class TestRunSweep:
    def test_degenerate_single_observable(self):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(1,),
            m_values=(None,),
            eigen_indices=(0,),
        )
        records = run_sweep(config)
        assert len(records) == 1
        assert records[0].delta == pytest.approx(0.0, abs=1e-12)  # G00 = 1 exactly

    def test_csv_roundtrip_exact(self, tmp_path):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(4, 5),
            m_values=(200, None),
            eigen_indices=(0, 1),
        )
        records = run_sweep(config)
        write_records(records, tmp_path / "sweep.csv")
        assert read_records(tmp_path / "sweep.csv") == records

    def test_csv_bytes_deterministic(self, tmp_path):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(4,),
            m_values=(150, None),
            eigen_indices=(0, 1),
        )
        records = run_sweep(config)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(records, first)
        write_records(read_records(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(database=None, deadline=None)
    @given(
        st.lists(
            st.builds(
                SweepRecord,
                n_observables=st.integers(),
                m_nodes=st.none() | st.integers(),
                index=st.integers(),
                approx=st.complex_numbers(allow_nan=True, allow_infinity=True),
                exact=st.complex_numbers(allow_nan=True, allow_infinity=True),
                delta=st.floats(),
                delta_rank_paired=st.floats(),
                eps_rank=st.integers(),
                wall_ms=st.floats(),
                status=st.text(),
            )
        )
    )
    def test_csv_bytes_roundtrip_property(self, tmp_path_factory, records):
        """NaN, infinities, -0.0, M = inf and any status text survive
        write -> read -> write byte for byte."""
        folder = tmp_path_factory.mktemp("roundtrip")
        first, second = folder / "a.csv", folder / "b.csv"
        write_records(records, first)
        reread = read_records(first)
        write_records(reread, second)
        assert len(reread) == len(records)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param("5,inf,0,1.0,0.0,1.0,0.0,0.0,0.0,0", id="short-row"),
            pytest.param("5,inf,0,one,0,0,0,0,0,0,0,ok", id="non-numeric-field"),
        ],
    )
    def test_malformed_row_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        write_records([SweepRecord(5, None, 0, 1.0, 1.0, 0.0, 0.0, 0, 0.0, "ok")], path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_records(path)

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe not text\n", None],
                             ids=["empty", "not-utf8", "missing"])
    def test_unreadable_csv_names_path(self, tmp_path, content):
        path = tmp_path / "records.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="records.csv"):
            read_records(path)

    def test_inf_literal_in_csv(self, tmp_path):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(3,),
            m_values=(None,),
        )
        write_records(run_sweep(config), tmp_path / "inf.csv")
        body = (tmp_path / "inf.csv").read_text().splitlines()
        assert body[1].split(",")[1] == "inf"

    def test_cell_failure_recorded_not_raised(self, monkeypatch):
        # Fourier N = 41 on Blaschke needs quadrature order 256, above this ceiling
        monkeypatch.setattr(edmd, "_MAX_QUAD_ORDER", 128)
        config = SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=FOURIER,
            n_values=(41,),
            m_values=(100, None),
            eigen_indices=(0, 1),
        )
        records = run_sweep(config)
        by_m = {rec.m_nodes: rec for rec in records}
        assert by_m[100].status == "ok"
        assert by_m[None].status.startswith("QuadratureError")
        assert "," not in by_m[None].status

    def test_eigensolver_failure_recorded_in_cell(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        config = SweepConfig(imap=make_blaschke(0.3), basis_kind=FOURIER, n_values=(5,),
                             m_values=(100, None))
        for rec in run_sweep(config):
            assert rec.status == "ConvergenceError: eigenvalue iteration failed: " \
                                 "Eigenvalues did not converge"

    def test_exact_values_once_per_k_max(self, monkeypatch):
        calls = []

        def counted(imap, k_max):
            calls.append(k_max)
            return exact_spectrum_values(imap, k_max)

        monkeypatch.setattr(bench, "exact_spectrum_values", counted)
        config = SweepConfig(imap=make_skewed_doubling(SKEW), basis_kind=MONOMIALS,
                             n_values=(3, 4, 5), m_values=(100, None), eigen_indices=None)
        records = run_sweep(config)
        assert sorted(calls) == [3, 4, 5]
        assert all(rec.status == "ok" for rec in records)

    def test_map_without_exact_spectrum_fails_every_cell(self):
        plain = replace(make_skewed_doubling(SKEW), spectrum_kind="")
        config = SweepConfig(imap=plain, basis_kind=MONOMIALS, n_values=(3, 4),
                             m_values=(100, None), eigen_indices=(0, 2))
        records = run_sweep(config)
        assert len(records) == 8
        assert all(rec.status == "UnsupportedMapError: map has no exact reference spectrum"
                   for rec in records)

    def test_rank_truncation_warning_stays_inside_cell(self):
        # N = 18 is the first fig2.2 size whose Gram matrix the eps-pseudoinverse truncates
        config = SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=MONOMIALS,
            n_values=(18,),
            m_values=(None,),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            records = run_sweep(config)
            assert warnings.filters == filters
        assert records[0].eps_rank == 1
        assert not [w for w in caught if issubclass(w.category, RankTruncationWarning)]

    def test_fig22_real_eigenvalues_print_zero_imaginary_part(self):
        # the untruncated cells (N = 6..17) run the 80-bit route on a real
        # pencil: a real eigenvalue carries no rounding-level imaginary part,
        # and the rows that are not real are members of genuine complex pairs
        records = run_sweep(figure_recipe("fig2.2")[1])
        untruncated = [rec for rec in records if rec.status == "ok" and rec.eps_rank == 0]
        assert sorted({rec.n_observables for rec in untruncated}) == list(range(6, 18))
        real = [rec for rec in untruncated if rec.approx.imag == 0.0]
        assert len(real) == 50
        assert all(abs(rec.approx.imag) > 1e-3 for rec in untruncated if rec not in real)

    def test_schedule_driven_sweep_end_to_end(self):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(2, 3),
            schedule=("corollary1", 2.0),
            eigen_indices=(0, 1),
        )
        records = run_sweep(config)
        assert [(rec.n_observables, rec.m_nodes) for rec in records] == [
            (2, 16), (2, 16), (3, 72), (3, 72),
        ]
        assert all(rec.status == "ok" for rec in records)

    def test_delta_consistent_with_eigenvalue_columns(self, tmp_path):
        config = SweepConfig(
            imap=make_blaschke(0.25),
            basis_kind=MONOMIALS,
            n_values=(5,),
            m_values=(300,),
            eigen_indices=(0, 1, 2),
        )
        write_records(run_sweep(config), tmp_path / "d.csv")
        for rec in read_records(tmp_path / "d.csv"):
            assert rec.delta == abs(rec.approx - rec.exact)

    def test_schedule_rule_cells(self):
        config = SweepConfig(
            imap=make_skewed_doubling(0.3),
            basis_kind=MONOMIALS,
            n_values=(2, 3),
            schedule=("corollary1", 2.0),
        )
        assert config.cells() == [(2, 16), (3, 72)]
        quad = SweepConfig(
            imap=make_skewed_doubling(0.3),
            basis_kind=MONOMIALS,
            n_values=(4,),
            schedule=("quadratic", 3.0),
        )
        assert quad.cells() == [(4, 48)]

    def test_doubling_m_keeps_delta0_at_floor(self):
        # guard against collocation-noise regressions: the leading
        # eigenvalue is exact by construction, so doubling M must keep
        # delta_0 within 10x up to the eigensolver noise floor
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(5,),
            m_values=(100, 200, 400, 800),
            eigen_indices=(0,),
        )
        records = run_sweep(config)
        floored = [max(rec.delta, 1e-13) for rec in records]
        for previous, doubled in zip(floored, floored[1:]):
            assert doubled <= 10.0 * previous

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(
                imap=make_skewed_doubling(0.2),
                basis_kind=MONOMIALS,
                n_values=(),
                m_values=(10,),
            )
        with pytest.raises(ConfigError):
            SweepConfig(
                imap=make_skewed_doubling(0.2),
                basis_kind=MONOMIALS,
                n_values=(4,),
                m_values=(10,),
                eigen_indices=(4,),
            )
        with pytest.raises(ConfigError):
            SweepConfig(
                imap=make_skewed_doubling(0.2),
                basis_kind=MONOMIALS,
                n_values=(4,),
            )

    @pytest.mark.parametrize(
        "fields, key",
        [
            pytest.param({"basis_kind": "legendre"}, "basis", id="basis-legendre"),
            pytest.param({"basis_kind": FOURIER, "n_values": (5, 6)}, "N", id="fourier-even-N"),
            pytest.param({"n_values": (0, 3)}, "N", id="N-zero"),
            pytest.param({"m_values": (), "schedule": ("cubic", 2.0)}, "schedule",
                         id="schedule-cubic"),
            pytest.param({"m_values": (2**63 - 1,)}, "M", id="M-past-range"),
            pytest.param({"m_values": (), "schedule": ("quadratic", 2.0**62)}, "schedule",
                         id="schedule-quadratic-past-range"),
        ],
    )
    def test_config_error_names_key(self, fields, key):
        # a config built in code meets the same checks as one read from text
        base = {"imap": make_skewed_doubling(0.2), "basis_kind": MONOMIALS, "n_values": (3,),
                "m_values": (10,)}
        with pytest.raises(ConfigError, match=f"key {key!r}"):
            SweepConfig(**(base | fields))


class TestSharedFinitePairs:
    """run_sweep builds one pair per M, inf included (SweepPairs), at the
    largest N asked for there, and gives each cell its leading block."""

    @staticmethod
    def _count_builds(monkeypatch, fail_at=0):
        """Record (N, M) of every build, M = None for build_infinite; the
        build at M = fail_at raises (the default 0 is no node count)."""
        calls = []

        def check(size, m):
            calls.append((size, m))
            if m == fail_at:
                raise MapDomainError("observables evaluated outside [-1, 1]")

        def finite(imap, basis, nodes):
            check(basis.size, nodes.m)
            return build_finite(imap, basis, nodes)

        def infinite(imap, basis):
            check(basis.size, None)
            return build_infinite(imap, basis)

        monkeypatch.setattr(bench, "build_finite", finite)
        monkeypatch.setattr(bench, "build_infinite", infinite)
        return calls

    def test_one_build_per_m_at_largest_n(self, monkeypatch):
        config = figure_recipe("fig2.4")[1]
        calls = self._count_builds(monkeypatch)
        records = run_sweep(config)
        assert sorted(calls) == sorted((16, m) for m in config.m_values)
        assert all(rec.status == "ok" for rec in records)

    def test_largest_n_cell_identical_to_its_own_build(self):
        config = figure_recipe("fig2.4")[1]
        shared = {(rec.n_observables, rec.m_nodes, rec.index): replace(rec, wall_ms=0.0)
                  for rec in run_sweep(config)}
        pairs = SweepPairs(config)
        for m in config.m_values:
            direct = build_finite(config.imap, monomial_basis(16), nodes_equidistant(m))
            pair = pairs.pair(16, m)
            assert np.array_equal(pair.h, direct.h) and np.array_equal(pair.g, direct.g)
            alone = run_sweep(replace(config, n_values=(16,), m_values=(m,)))
            for rec in alone:
                assert shared[(16, m, rec.index)] == replace(rec, wall_ms=0.0)

    def test_leading_block_eigenvalues_within_conditioning(self):
        # the blocks differ from a direct build only by the GEMM's rounding,
        # which the pencil amplifies by cond(H) and the eigenvalue condition
        # numbers kappa_i = |x_i| |y_i| / |y_i^H x_i|
        config = figure_recipe("fig2.4")[1]
        pairs = SweepPairs(config)
        eps = np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankTruncationWarning)
            for n, m in config.cells():
                if n == max(config.n_values):
                    continue
                direct = build_finite(config.imap, monomial_basis(n), nodes_equidistant(m))
                _, right = np.linalg.eig(np.linalg.solve(direct.h, direct.g))
                left = np.linalg.inv(right)
                kappa = (np.linalg.norm(right, axis=0) * np.linalg.norm(left, axis=1)
                         / np.abs(np.einsum("ij,ji->i", left, right)))
                tol = eps * np.linalg.cond(direct.h) * kappa.max()
                moved = match_spectra(edmd.edmd_spectrum(pairs.pair(n, m)),
                                      edmd.edmd_spectrum(direct), n).delta
                assert moved.max() <= tol, (n, m, moved.max(), tol)

    def test_fourier_leading_block_matches_direct_build(self):
        imap, nodes = make_skewed_doubling(SKEW), nodes_equidistant(3000)
        full = build_finite(imap, fourier_basis(21), nodes)
        for n in (1, 3, 9, 21):
            block, direct = full.leading(n), build_finite(imap, fourier_basis(n), nodes)
            assert block.basis == direct.basis
            assert np.abs(block.h - direct.h).max() <= 1e-15
            assert np.abs(block.g - direct.g).max() <= 1e-15

    def test_failed_build_marks_every_cell_at_its_m_only(self, monkeypatch):
        config = SweepConfig(
            imap=make_skewed_doubling(SKEW),
            basis_kind=MONOMIALS,
            n_values=(3, 5, 4),
            m_values=(100, 200, None),
            eigen_indices=(0, 1),
        )
        for fail_at in (200, None):
            calls = self._count_builds(monkeypatch, fail_at=fail_at)
            records = run_sweep(config)
            assert sorted(calls, key=str) == [(5, 100), (5, 200), (5, None)]
            failed = {rec.status for rec in records if rec.m_nodes == fail_at}
            assert failed == {"MapDomainError: observables evaluated outside [-1; 1]"}
            assert all(rec.status == "ok" for rec in records if rec.m_nodes != fail_at)

    def test_one_infinite_build_at_largest_n(self, monkeypatch):
        config = figure_recipe("fig2.2")[1]
        calls = self._count_builds(monkeypatch)
        records = run_sweep(config)
        assert calls == [(25, None)]
        assert all(rec.status == "ok" for rec in records)

    def test_infinite_rows_identical_to_one_cell_sweeps(self):
        # each cell solves the leading blocks of the N = 25 pair, the 80-bit
        # h_ext and g_ext included; the quadrature settles at the same order
        config = figure_recipe("fig2.2")[1]
        shared = [replace(rec, wall_ms=0.0) for rec in run_sweep(config)]
        alone = [replace(rec, wall_ms=0.0) for n in config.n_values
                 for rec in run_sweep(replace(config, n_values=(n,)))]
        assert shared == alone

    def test_rows_follow_grid_order(self):
        config = SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=MONOMIALS,
            n_values=(5, 3, 4),
            m_values=(300, None, 100),
            eigen_indices=(0, 2),
        )
        rows = [(rec.n_observables, rec.m_nodes, rec.index) for rec in run_sweep(config)]
        assert rows == [(n, m, i) for n, m in config.cells() for i in (0, 2)]
        schedule = replace(config, m_values=(), schedule=("quadratic", 10.0))
        rows = [(rec.n_observables, rec.m_nodes) for rec in run_sweep(schedule)]
        assert rows[::2] == schedule.cells()


class TestFitDecay:
    def test_algebraic_slope(self):
        rows = [SweepRecord(5, m, 1, 0j, 0j, 7.0 / m, 0.0, 0, 1.0) for m in (10, 100, 1000, 10_000)]
        fit = fit_decay(rows, "algebraic")
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.intercept == pytest.approx(np.log(7.0), abs=1e-6)

    def test_exponential_slope(self):
        rows = [SweepRecord(n, None, 1, 0j, 0j, 3.0 * 0.5**n, 0.0, 0, 1.0) for n in range(3, 9)]
        assert fit_decay(rows, "exponential").slope == pytest.approx(np.log(0.5), abs=1e-9)

    def test_insufficient_data(self):
        rows = [SweepRecord(5, 10, 1, 0j, 0j, 0.1, 0.0, 0, 1.0)] * 2
        with pytest.raises(InsufficientDataError):
            fit_decay(rows, "algebraic")
        # three records at one M: polyfit would give a slope with only a RankWarning
        rows = [SweepRecord(5, 100, 1, 0j, 0j, delta, 0.0, 0, 1.0) for delta in (0.1, 0.2, 0.3)]
        with pytest.raises(InsufficientDataError):
            fit_decay(rows, "algebraic")

    def test_skips_failed_and_infinite_rows(self):
        rows = [SweepRecord(5, m, 1, 0j, 0j, 7.0 / m, 0.0, 0, 1.0) for m in (10, 100, 1000)]
        rows.append(SweepRecord(5, None, 1, 0j, 0j, 0.5, 0.0, 0, 1.0))
        rows.append(SweepRecord(5, 9, 1, 0j, 0j, 0.0, 0.0, 0, 1.0, status="QuadratureError: x"))
        assert fit_decay(rows, "algebraic").slope == pytest.approx(-1.0, abs=1e-9)

    def test_mode_validation(self):
        with pytest.raises(ParameterError):
            fit_decay([], "geometric")


class TestFourierRadiusStudy:
    def test_zero_skew_spurious_eigenvalue_is_small(self):
        rec = fourier_radius_study([0.0], [41])[0]
        assert 0.0 <= rec.abs_lambda1 < 0.05

    def test_moderate_skew_tracks_essential_radius(self):
        rec = fourier_radius_study([0.6], [41])[0]
        assert rec.essential_radius == pytest.approx(0.8)
        assert abs(rec.abs_lambda1 - 0.8) < 0.1

    def test_tiny_skew_product(self):
        rec = fourier_radius_study([1e-16], [65])[0]
        target = np.log(1e-16) * np.log(2.0)
        assert abs(rec.product_log - target) < 0.3 * abs(target)

    def test_leading_blocks_match_per_size_matrices(self):
        _, a_values, n_values = figure_recipe("fig2.5")
        records = fourier_radius_study(a_values, n_values)
        assert [(rec.a, rec.n_observables) for rec in records] == [
            (a, n) for a in a_values for n in n_values
        ]
        for rec in records:
            vals = eigenvalues(fourier_cross_closed(rec.a, rec.n_observables)).values
            assert rec.abs_lambda1 == float(np.abs(vals[1]))

    def test_even_size_raises_below_an_odd_largest_size(self):
        with pytest.raises(ParameterError):
            fourier_radius_study([0.3], [5, 4, 9])

    def test_empty_sizes_give_no_records(self):
        assert fourier_radius_study([0.3, 0.6], []) == []

    def test_accepts_any_iterable(self):
        listed = fourier_radius_study([0.3, 0.6], [9, 5])
        assert fourier_radius_study((a for a in (0.3, 0.6)), iter((9, 5))) == listed
        assert len(listed) == 4


class TestConfigParsing:
    def test_comments_and_lists(self):
        raw = parse_config("""
        # heading comment
        map = skewed_doubling
        a = 0.5   # trailing comment
        N = 3,4,5
        """, "sweep")
        assert raw == {"map": "skewed_doubling", "a": 0.5, "N": (3, 4, 5)}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2", "sweep")

    def test_bad_line_rejected(self):
        for text in ("just words", "N ="):  # no '='; an empty value
            with pytest.raises(ConfigError):
                parse_config(text, "sweep")

    def test_full_sweep_config(self):
        config = sweep_config_from_text(
            "map = blaschke\nmu = 0.3\nbasis = monomials\nN = 5,6\n"
            "M = 100,inf\neigen_indices = 0,1\n"
        )
        assert config.imap.spectrum_kind == "blaschke"
        assert config.m_values == (100, None)

    def test_schedule_syntax(self):
        config = sweep_config_from_text(
            "map = skewed_doubling\na = 0.5\nN = 2,3\nschedule = corollary1(2.0)\n"
        )
        assert config.schedule == ("corollary1", 2.0)
        with pytest.raises(ConfigError):
            sweep_config_from_text("map = skewed_doubling\na = 0.5\nN = 2\nschedule = cubic(2)\n")

    def test_node_rule_offset(self):
        # a delta key selects offset nodes; without it the nodes are midpoints
        base = "map = skewed_doubling\na = 0.5\nN = 3\nM = 10\n"
        assert sweep_config_from_text(base + "delta = 0.0\n").delta == 0.0
        assert sweep_config_from_text(base).delta is None
        with pytest.raises(ConfigError, match="unknown key 'node_rule'"):
            sweep_config_from_text(base + "node_rule = offset\n")

    def test_eigen_indices_all(self):
        config = sweep_config_from_text(
            "map = skewed_doubling\na = 0.5\nN = 3\nM = 10\neigen_indices = all\n"
        )
        assert config.eigen_indices is None

    def test_map_from_config_errors(self):
        with pytest.raises(ConfigError):
            map_from_config({"map": "henon"})
        with pytest.raises(ConfigError):
            map_from_config({"map": "blaschke"})
        with pytest.raises(ConfigError):
            map_from_config({"map": "blaschke", "mu": 0.9})

    def test_expansion_params_from_config(self):
        imap = map_from_config({"map": "skewed_doubling", "a": 0.2, "r": 2.5, "R_disk": 4.0})
        assert imap.expansion_params == (2.5, 4.0)


class TestFigureRecipes:
    @pytest.mark.parametrize(
        "name", ["fig1.1L", "fig1.1R", "fig2.1", "fig2.2", "fig2.3", "fig2.4"]
    )
    def test_sweep_recipes_valid(self, name):
        kind, config = figure_recipe(name)
        assert kind == "sweep"
        assert config.cells()

    def test_radius_recipe(self):
        kind, a_values, n_values = figure_recipe("fig2.5")
        assert kind == "radius"
        assert 1e-16 in a_values and 129 in n_values

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            figure_recipe("fig9.9")
