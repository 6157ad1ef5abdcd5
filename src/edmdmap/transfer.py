"""Finite-rank transfer operator matrices in the Taylor basis.

The operator acts on functions analytic near the interval through its
inverse branches, (L f)(z) = sum_l sign_l * phi_l'(z) * f(phi_l(z)).  Its
matrix in the Taylor basis z^n is computed exactly by binomial expansion
when every inverse branch is affine, and otherwise by Cauchy-integral
Taylor coefficients recovered from samples on a circle.

This is the Galerkin truncation L_N in the Hardy space of every disk
|z| < rho: the projection onto polynomials of degree < N is the Taylor
truncation for each rho, and the orthonormal basis (z/rho)^n only
conjugates L_N by diag(rho^n).  So the spectrum of L_N does not depend on
rho, which enters only ``projection_error_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, NonAffineBranchError, ParameterError
from .maps import IntervalMap, _branches_on_circle, _circle_dft, _circle_ladder
from .observables import _power_rows

__all__ = [
    "TransferMatrix",
    "transfer_matrix_affine",
    "transfer_matrix_analytic",
    "projection_error_bound",
    "derivative_sum_estimate",
    "schedule_regime",
    "DEFAULT_SAMPLE_RADIUS",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLE_RADIUS = 1.1
DEFAULT_SAMPLES = 4096
_START_SAMPLES = 64

_DERIV_SUM_SAFETY = 1.05


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Truncated transfer operator matrix L[k, l] = [z^k] (L z^l), and the
    route that built it."""

    l: np.ndarray
    method: str


def transfer_matrix_affine(imap: IntervalMap, size: int) -> TransferMatrix:
    """Exact truncation for piecewise-affine maps.

    With inverse branches alpha*z + beta, the image of z^l is a polynomial
    of degree l, so the matrix is upper triangular with the transfer
    operator eigenvalues sum_l sign*alpha^(n+1) on the diagonal:
    L[k, l] = [z^k] sum_branches sign * alpha * (alpha z + beta)^l.
    Column l + 1 of each branch follows from column l by one multiplication
    by alpha z + beta.  Each branch maps [-1, 1] into itself, so
    |alpha| + |beta| <= 1 and no coefficient exceeds |alpha|.
    """
    if size < 1:
        raise ParameterError("size must be positive")
    if any(branch.affine is None for branch in imap.branches):
        raise NonAffineBranchError("map has a branch without affine inverse coefficients")
    sign = np.array([float(branch.sign) for branch in imap.branches])[:, np.newaxis]
    alpha, beta = np.array([branch.affine for branch in imap.branches]).T[:, :, np.newaxis]
    # per-branch coefficients of sign * alpha * (alpha z + beta)^l, l = 0, 1, ...
    column = np.zeros((imap.n_branches, size))
    column[:, :1] = sign * alpha
    l_mat = np.empty((size, size))
    for ell in range(size):
        if ell:
            column[:, 1:] = alpha * column[:, :-1] + beta * column[:, 1:]
            column[:, :1] *= beta
        l_mat[:, ell] = column.sum(axis=0)
    return TransferMatrix(l=l_mat, method="affine_closed_form")


def transfer_matrix_analytic(
    imap: IntervalMap, size: int, sample_radius: float = DEFAULT_SAMPLE_RADIUS
) -> TransferMatrix:
    """Truncation via Cauchy-integral coefficients of z -> sum_l sign*phi'(z)*phi(z)^l.

    The sums g_l climb the sample ladder of ``maps._circle_ladder`` on the
    2S points radius*exp(2*pi*i*j/2S).  S starts at the next power of two
    >= 4*size, at least 64, up to DEFAULT_SAMPLES or that power if larger;
    ``method`` names the S that settled.  L[k, l] is bin k of the DFT of
    g_l times radius^-k, and the leak is scaled by the largest such factor.
    A refusal is ParameterError for a non-finite leak, else AliasingError;
    a branch-sum table that cannot be allocated is ParameterError naming N.
    The sum is symmetric in the branches, so it stays analytic where they
    swap across a cut (Blaschke past +-1.193i).
    """
    if size < 1:
        raise ParameterError("size must be positive")

    def branch_sums(pairs):
        # L[k, l] = [z^k] g_l(z) = radius^-k times bin k of the DFT of g_l
        g = 0
        for branch, (phi, dphi) in zip(imap.branches, pairs):
            g = g + branch.sign * dphi * _power_rows(phi, np.empty((size, phi.size), dtype=complex))
        coeffs, leak = _circle_dft(g)
        scale = sample_radius ** -np.arange(size, dtype=float)
        return leak * scale.max(), (coeffs[:, :size] * scale).T

    def refuse(count, leak, _):
        if not math.isfinite(leak):
            return ParameterError(f"sample radius {sample_radius} gives a non-finite transfer matrix")
        return AliasingError(f"branch sum not analytic on the disk of radius {sample_radius}, or not "
                             f"resolved at {count // 2} samples (leak {leak:.3g}); reduce the radius")

    least = 1 << (4 * size - 1).bit_length()
    ceiling = max(DEFAULT_SAMPLES, least)
    start = min(ceiling, max(_START_SAMPLES, least))
    try:
        count, l_mat = _circle_ladder(imap, sample_radius, 2 * start, 2 * ceiling, branch_sums, refuse)
    except MemoryError:  # the (N, 2S) table takes at least 128 N^2 bytes per branch
        raise ParameterError(f"size N = {size} too large to allocate its branch-sum table") from None
    return TransferMatrix(l=l_mat, method=f"cauchy(radius={sample_radius}, samples={count // 2})")


def projection_error_bound(
    r: float, big_r: float, rho: float, size: int, deriv_sum_sup: float
) -> float:
    """Operator-norm bound on the rank-N truncation error of the transfer
    operator: C * ((rho/R)^N + (r/rho)^N) with C = rho/sqrt(rho^2 - r^2) * sup sum |phi'|.

    At rho = sqrt(r*R) both decay terms coincide and the bound becomes
    2C (r/R)^(N/2).
    """
    if not r < rho < big_r:
        raise ParameterError(f"need r < rho < R, got r={r}, rho={rho}, R={big_r}")
    if not deriv_sum_sup > 0:
        raise ParameterError("derivative sum supremum must be positive")
    c = rho / math.sqrt(rho * rho - r * r) * deriv_sum_sup
    return c * ((rho / big_r) ** size + (r / rho) ** size)


def derivative_sum_estimate(imap: IntervalMap, radius: float) -> float:
    """Grid estimate (not a certified supremum) of sup over |z| = radius of
    sum_l |phi_l'(z)|, inflated by _DERIV_SUM_SAFETY; a disk on which a
    branch is not analytic raises BranchCutError (``_branches_on_circle``).
    """
    total = sum(np.abs(dphi) for _, dphi in _branches_on_circle(imap, radius))
    return _DERIV_SUM_SAFETY * float(total.max())


def schedule_regime(r: float, big_r: float) -> bool:
    """Whether the expansion ratio satisfies r/R < 1/gamma with
    gamma = (1+sqrt(2))^2, the regime in which the M = ceil(N^2 R^N) node
    schedule certifies spectral convergence."""
    from .spectral import GAMMA

    if not 1.0 < r < big_r:
        raise ParameterError("need 1 < r < R")
    return r / big_r < 1.0 / GAMMA
