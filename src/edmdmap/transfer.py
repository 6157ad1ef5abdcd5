"""Finite-rank transfer operator matrices in the scaled monomial basis.

The operator acts on functions analytic near the interval through its
inverse branches, (L f)(z) = sum_l sign_l * phi_l'(z) * f(phi_l(z)).  Its
matrix in the orthonormal basis e_n(z) = (z/rho)^n is computed exactly by
binomial expansion when every inverse branch is affine, and otherwise by
Cauchy-integral Taylor coefficients recovered from samples on a circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, NonAffineBranchError, ParameterError
from .maps import IntervalMap, _branch_on_circle
from .observables import _power_rows

__all__ = [
    "TransferMatrix",
    "transfer_matrix_affine",
    "transfer_matrix_analytic",
    "taylor_coefficients_on_circle",
    "projection_error_bound",
    "derivative_sum_estimate",
    "schedule_regime",
    "DEFAULT_SAMPLE_RADIUS",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLE_RADIUS = 1.1
DEFAULT_SAMPLES = 4096

_DERIV_SUM_POINTS = 720
_DERIV_SUM_SAFETY = 1.05


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Truncated transfer operator matrix L[k, l] = (L e_l, e_k)."""

    l: np.ndarray
    rho: float
    method: str


def transfer_matrix_affine(imap: IntervalMap, size: int, rho: float = 1.0) -> TransferMatrix:
    """Exact truncation for piecewise-affine maps.

    With inverse branches alpha*z + beta, the image of e_l is a polynomial
    of degree l, so the matrix is upper triangular with the transfer
    operator eigenvalues sum_l sign*alpha^(n+1) on the diagonal:
    L[k, l] = rho^(k-l) * [z^k] sum_branches sign * alpha * (alpha z + beta)^l.
    """
    if size < 1:
        raise ParameterError("size must be positive")
    if not rho > 0:
        raise ParameterError("rho must be positive")
    coeffs = []
    for branch in imap.branches:
        if branch.affine is None:
            raise NonAffineBranchError("map has a branch without affine inverse coefficients")
        coeffs.append((branch.sign, *branch.affine))
    l_mat = np.zeros((size, size))
    for sign, alpha, beta in coeffs:
        for ell in range(size):
            for k in range(ell + 1):
                l_mat[k, ell] += (
                    sign
                    * alpha ** (k + 1)
                    * beta ** (ell - k)
                    * math.comb(ell, k)
                    * rho ** (k - ell)
                )
    return TransferMatrix(l=l_mat, rho=rho, method="affine_closed_form")


def taylor_coefficients_on_circle(
    values_on_circle: np.ndarray, n_coeffs: int, radius: float
) -> np.ndarray:
    """Taylor coefficients c_0..c_{n-1} of an analytic function from its
    values at equispaced points on |z| = radius (discrete Cauchy integral).

    values_on_circle[j] must be f(radius * exp(2*pi*i*j/samples)), and may
    be a (samples, m) block for m functions at once.
    """
    samples = values_on_circle.shape[0]
    if n_coeffs > samples:
        raise ParameterError("more coefficients requested than circle samples")
    coeffs = np.fft.fft(values_on_circle, axis=0)[:n_coeffs] / samples
    scale = radius ** -np.arange(n_coeffs, dtype=float)
    return coeffs * (scale[:, np.newaxis] if values_on_circle.ndim > 1 else scale)


def transfer_matrix_analytic(
    imap: IntervalMap,
    size: int,
    rho: float = 1.0,
    sample_radius: float = DEFAULT_SAMPLE_RADIUS,
) -> TransferMatrix:
    """Truncation via Cauchy-integral coefficients of z -> sum_l sign*phi'(z)*(phi(z)/rho)^l.

    The sample count is DEFAULT_SAMPLES, raised to the next power of two
    >= 4*size.  The inverse branches must be analytic on the closed disk of
    the sampling radius: each branch and its derivative, evaluated once on
    the 2*samples sampling circle, are checked for cut jumps there before
    any power or FFT.  The result is accepted only if doubling the sample
    count moves no entry by more than 1e-10; rho and sample_radius must
    give a finite matrix.
    """
    if size < 1:
        raise ParameterError("size must be positive")
    if not 0 < rho < math.inf:
        raise ParameterError("rho must be positive and finite")
    if not 0 < sample_radius < math.inf:
        raise ParameterError("sample radius must be positive and finite")
    samples = max(DEFAULT_SAMPLES, 1 << (4 * size - 1).bit_length())
    # the even points of the 2*samples circle are the samples circle exactly
    # (2*pi*(2j)/(2S) rounds like 2*pi*j/S), so one evaluation serves both
    count = 2 * samples
    circle = sample_radius * np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
    powers = np.empty((size, count), dtype=complex)
    g = np.zeros((size, count), dtype=complex)
    with np.errstate(all="ignore"):  # a radius or rho far from 1 overflows; caught below
        for index, branch in enumerate(imap.branches):
            phi, dphi = _branch_on_circle(branch, index, circle, sample_radius)
            g += branch.sign * dphi * _power_rows(phi / rho, powers)
        # L[k, l] = rho^k [z^k] g_l(z) = [w^k] g_l(rho*w), sampled on |w| = sample_radius/rho
        fine = taylor_coefficients_on_circle(g.T, size, sample_radius / rho)
        coarse = taylor_coefficients_on_circle(g[:, ::2].T, size, sample_radius / rho)
        drift = float(np.abs(fine - coarse).max())
    if not math.isfinite(drift):
        raise ParameterError(
            f"rho = {rho} and sample radius {sample_radius} give a non-finite transfer matrix"
        )
    if not drift <= 1e-10:
        raise AliasingError(
            f"transfer matrix entries moved by {drift:.3g} under sample doubling; "
            "reduce the sampling radius or bring rho closer to 1"
        )
    return TransferMatrix(
        l=fine,
        rho=rho,
        method=f"cauchy(radius={sample_radius}, samples={samples})",
    )


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
    sum_l |phi_l'(z)| on _DERIV_SUM_POINTS points, inflated by _DERIV_SUM_SAFETY."""
    angles = 2.0 * np.pi * np.arange(_DERIV_SUM_POINTS) / _DERIV_SUM_POINTS
    circle = radius * np.exp(1j * angles)
    total = np.zeros(_DERIV_SUM_POINTS)
    for branch in imap.branches:
        total += np.abs(np.asarray(branch.inverse_derivative(circle)))
    return _DERIV_SUM_SAFETY * float(total.max())


def schedule_regime(r: float, big_r: float) -> bool:
    """Whether the expansion ratio satisfies r/R < 1/gamma with
    gamma = (1+sqrt(2))^2, the regime in which the M = ceil(N^2 R^N) node
    schedule certifies spectral convergence."""
    from .spectral import GAMMA

    if not 1.0 < r < big_r:
        raise ParameterError("need 1 < r < R")
    return r / big_r < 1.0 / GAMMA
