"""The public names: what the package re-exports, and each module's __all__."""

import importlib
import pkgutil
import types

import edmdmap

# a new public name, or one dropped, must edit this table
PUBLIC = {
    "edmdmap": {
        "AliasingError", "Branch", "BranchCutError", "ConfigError", "ConvergenceError",
        "EdmdMapError", "EdmdPair", "FitResult", "GAMMA", "InsufficientDataError",
        "IntervalMap", "MapDomainError", "MatchResult", "NodeSet", "NonAffineBranchError",
        "ObservableBasis", "ParameterError", "Provenance", "QuadratureError", "RadiusRecord",
        "RangeOverflowError", "RankTruncationWarning", "Spectrum", "SweepConfig", "SweepRecord",
        "TransferMatrix", "UnsupportedMapError", "build_finite", "build_infinite",
        "cross_gram_quadrature", "derivative_sum_estimate", "edmd_spectrum", "eigenvalues",
        "eval_basis", "exact_spectrum_values", "figure_recipe", "fit_decay", "fourier_basis",
        "fourier_cross_closed", "fourier_radius_study", "gram_infinite", "make_blaschke",
        "make_skewed_doubling", "match_spectra", "monomial_basis", "node_schedule",
        "nodes_equidistant", "parse_config", "projection_error_bound", "pseudoinverse",
        "qr_eigenvalues", "read_records", "run_sweep", "schedule_regime", "schur_bound",
        "solve_gauss", "sort_eigenvalues", "spectral_norm", "sweep_config",
        "sweep_config_from_file", "sweep_config_from_text", "transfer_matrix_affine",
        "transfer_matrix_analytic", "verify_branch_analyticity", "write_radius_records",
        "write_records",
    },
    "edmdmap.bench": {
        "FIGURE_NAMES", "MatchResult", "RadiusRecord", "SweepConfig", "SweepPairs",
        "SweepRecord", "figure_recipe", "fit_decay", "fourier_radius_study", "match_spectra",
        "parse_config", "read_records", "run_sweep", "sweep_config", "write_radius_records",
        "write_records",
    },
    "edmdmap.edmd": {
        "DEFAULT_QUAD_ORDER", "EdmdPair", "NodeSet", "Provenance", "build_finite",
        "build_infinite", "cross_gram_quadrature", "edmd_spectrum", "node_schedule",
        "nodes_equidistant",
    },
    "edmdmap.maps": {
        "Branch", "IntervalMap", "exact_spectrum_values", "make_blaschke",
        "make_skewed_doubling", "verify_branch_analyticity",
    },
    "edmdmap.observables": {
        "ObservableBasis", "eval_basis", "fourier_basis", "fourier_cross_closed",
        "gram_infinite", "monomial_basis",
    },
    "edmdmap.spectral": {
        "GAMMA", "Spectrum", "eigenvalues", "pseudoinverse", "qr_eigenvalues", "schur_bound",
        "solve_gauss", "sort_eigenvalues", "spectral_norm",
    },
    "edmdmap.transfer": {
        "DEFAULT_SAMPLES", "DEFAULT_SAMPLE_RADIUS", "TransferMatrix", "derivative_sum_estimate",
        "projection_error_bound", "schedule_regime", "transfer_matrix_affine",
        "transfer_matrix_analytic",
    },
}


def test_public_names_pinned():
    found = {"edmdmap": {name for name, value in vars(edmdmap).items()
                         if not name.startswith("_") and not isinstance(value, types.ModuleType)}}
    for info in pkgutil.iter_modules(edmdmap.__path__):
        module = importlib.import_module(f"edmdmap.{info.name}")
        if hasattr(module, "__all__"):
            assert set(module.__all__) <= set(vars(module)), module.__name__
            found[module.__name__] = set(module.__all__)
    assert found == PUBLIC
