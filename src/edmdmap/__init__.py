"""EDMD spectral approximation of transfer/Koopman operators for analytic
full-branch interval maps, with benchmark maps of exactly known spectrum."""

from .errors import (
    AliasingError,
    BranchCutError,
    ConfigError,
    ConvergenceError,
    EdmdMapError,
    InsufficientDataError,
    MapDomainError,
    NonAffineBranchError,
    ParameterError,
    QuadratureError,
    RangeOverflowError,
    RankTruncationWarning,
    UnsupportedMapError,
)
from .maps import (
    Branch,
    IntervalMap,
    exact_spectrum_values,
    make_blaschke,
    make_skewed_doubling,
    verify_branch_analyticity,
)
from .observables import (
    ObservableBasis,
    eval_basis,
    fourier_basis,
    fourier_cross_closed,
    gram_infinite,
    monomial_basis,
)
from .spectral import (
    GAMMA,
    Spectrum,
    eigenvalues,
    pseudoinverse,
    qr_eigenvalues,
    schur_bound,
    scale_similarity,
    solve_gauss,
    sort_eigenvalues,
    spectral_norm,
)
from .edmd import (
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
from .transfer import (
    TransferMatrix,
    derivative_sum_estimate,
    projection_error_bound,
    taylor_coefficients_on_circle,
    schedule_regime,
    transfer_matrix_affine,
    transfer_matrix_analytic,
)
from .bench import (
    FitResult,
    MatchResult,
    RadiusRecord,
    SweepConfig,
    SweepRecord,
    figure_recipe,
    fit_decay,
    fourier_radius_study,
    match_spectra,
    parse_config,
    read_records,
    run_sweep,
    sweep_config,
    sweep_config_from_file,
    sweep_config_from_text,
    write_radius_records,
    write_records,
)

__version__ = "0.1.0"
