"""Harness: matching, sweeps, CSV round-trip, fits, config parsing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmdmap import edmd
from edmdmap.bench import (
    SweepConfig,
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
from edmdmap.errors import ConfigError, InsufficientDataError, ParameterError, RankTruncationWarning
from edmdmap.maps import make_blaschke, make_skewed_doubling
from edmdmap.observables import FOURIER, MONOMIALS

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


class TestConfigParsing:
    def test_comments_and_lists(self):
        raw = parse_config("""
        # heading comment
        map = skewed_doubling
        a = 0.5   # trailing comment
        N = 3,4,5
        """)
        assert raw == {"map": "skewed_doubling", "a": 0.5, "N": (3, 4, 5)}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just words")

    def test_full_sweep_config(self):
        config = sweep_config_from_text(
            "map = blaschke\nmu = 0.3\nbasis = monomials\nN = 5,6\n"
            "M = 100,inf\neigen_indices = 0,1\neps_pinv = 1e-10\n"
        )
        assert config.imap.spectrum_kind == "blaschke"
        assert config.m_values == (100, None)
        assert config.eps_pinv == pytest.approx(1e-10)

    def test_schedule_syntax(self):
        config = sweep_config_from_text(
            "map = skewed_doubling\na = 0.5\nN = 2,3\nschedule = corollary1(2.0)\n"
        )
        assert config.schedule == ("corollary1", 2.0)
        with pytest.raises(ConfigError):
            sweep_config_from_text("map = skewed_doubling\na = 0.5\nN = 2\nschedule = cubic(2)\n")

    def test_node_rule_offset(self):
        config = sweep_config_from_text(
            "map = skewed_doubling\na = 0.5\nN = 3\nM = 10\nnode_rule = offset\ndelta = 0.0\n"
        )
        assert config.delta == 0.0
        with pytest.raises(ConfigError):
            sweep_config_from_text(
                "map = skewed_doubling\na = 0.5\nN = 3\nM = 10\nnode_rule = offset\n"
            )

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
