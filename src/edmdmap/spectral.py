"""Dense linear-algebra kernel for desk-scale spectral computations.

Double-precision input goes to LAPACK through numpy: eigenvalues by
*geev, singular values (pseudoinverse, spectral norm) by *gesdd.
Extended-precision (longdouble) input, which LAPACK does not cover, goes
to qr_eigenvalues (LAPACK on the float64 rounding plus one longdouble
correction step per eigenvalue) and to the Gaussian elimination of
solve_gauss.  All spectra are reported in complex arithmetic and sorted
by descending modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = [
    "GAMMA",
    "Spectrum",
    "sort_eigenvalues",
    "eigenvalues",
    "qr_eigenvalues",
    "solve_gauss",
    "pseudoinverse",
    "spectral_norm",
    "schur_bound",
]

# Growth-rate constant (1+sqrt(2))^2 appearing in pseudoinverse-norm and
# node-schedule bounds; used in reporting only, never in algorithmic branches.
GAMMA = (1.0 + np.sqrt(2.0)) ** 2

_MAX_DIM = 10_000


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part.  ``truncated_rank`` records how many singular values an
    eps-pseudoinverse removed while forming the underlying matrix (0 when
    not applicable).
    """

    values: np.ndarray
    truncated_rank: int = 0

    def __len__(self) -> int:
        return len(self.values)


def sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Sort complex values by descending modulus, then real, then imaginary part."""
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return values[order]


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix has non-finite entries")
    return a


def eigenvalues(a: np.ndarray) -> Spectrum:
    """All eigenvalues of a dense square matrix, with multiplicity.

    Real and complex double input goes to LAPACK as it is (real input keeps
    conjugate pairs exact); extended-precision input, which LAPACK does not
    cover, goes to qr_eigenvalues, which corrects the LAPACK eigenvalues of
    its float64 rounding in longdouble.
    """
    a = _as_square(a)
    if a.shape[0] > _MAX_DIM:
        raise ParameterError(f"dimension {a.shape[0]} exceeds desk-scale cap {_MAX_DIM}")
    if a.dtype in (np.longdouble, np.clongdouble):
        return Spectrum(values=sort_eigenvalues(qr_eigenvalues(a)))
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # LAPACK's QR iteration did not converge
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return Spectrum(values=sort_eigenvalues(vals))


def qr_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Dense eigenvalues to the precision of the input's own dtype.

    LAPACK (*geev) solves the float64/complex128 rounding of ``a``; the rows
    of the inverse eigenvector matrix are the left eigenvectors y_i.  One
    first-order correction per eigenvalue, lambda_i += y_i r_i / (y_i x_i)
    with the residual r_i = A x_i - lambda_i x_i taken in longdouble
    (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983), then
    recovers the accuracy the float64 rounding lost.  A correction is kept
    only when it is below 1e-3 of the distance to the nearest other
    eigenvalue, where first-order perturbation theory holds; clustered or
    defective eigenvalues keep their LAPACK value.  Real eigenvalues of real
    input stay exactly real.  The result has the complex counterpart of the
    input dtype.
    """
    a = _as_square(a)
    ctype = np.result_type(a.dtype, np.complex64)
    try:
        lam, x = np.linalg.eig(a.astype(complex if np.iscomplexobj(a) else float))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    lam = lam.astype(complex)
    try:
        y = np.linalg.inv(x)
    except np.linalg.LinAlgError:  # exactly defective: no first-order step exists
        return lam.astype(ctype)
    with np.errstate(all="ignore"):
        xe = x.astype(np.clongdouble)
        residual = a.astype(np.clongdouble) @ xe - xe * lam
        corr = np.einsum("ij,ji->i", y, residual) / np.einsum("ij,ji->i", y, xe)
        gap = np.abs(lam[:, np.newaxis] - lam[np.newaxis, :])
        np.fill_diagonal(gap, np.inf)
        keep = np.abs(corr) <= 1e-3 * gap.min(axis=1, initial=np.inf)
    if not np.iscomplexobj(a):
        corr = np.where(lam.imag == 0.0, corr.real, corr)
    return (lam + np.where(keep, corr, 0.0)).astype(ctype)


def solve_gauss(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear solve by Gaussian elimination with partial pivoting.

    dtype-preserving; exists so extended-precision systems can be solved
    without falling back to double precision.
    """
    a = _as_square(a).copy()
    rhs = np.array(b, dtype=np.result_type(a, b), copy=True)
    single = rhs.ndim == 1
    if single:
        rhs = rhs[:, np.newaxis]
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0:
            raise ParameterError("matrix is singular to working precision")
        if p != k:
            a[[k, p]] = a[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(factors, a[k, k + 1 :])
        rhs[k + 1 :] -= np.outer(factors, rhs[k])
    x = np.zeros_like(rhs)
    for k in range(n - 1, -1, -1):
        x[k] = (rhs[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x[:, 0] if single else x


def pseudoinverse(
    h: np.ndarray, eps: float, return_rank: bool = False
) -> np.ndarray | tuple[np.ndarray, int]:
    """SVD pseudoinverse zeroing singular values sigma <= eps * sigma_max.

    With eps below sigma_min/sigma_max this is the exact inverse for
    nonsingular h.  ``return_rank`` additionally reports how many singular
    values were truncated.
    """
    if not eps >= 0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ParameterError("matrix has non-finite entries")
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    cutoff = eps * (s[0] if s.size else 0.0)
    keep = s > cutoff
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv) @ u.conj().T
    if return_rank:
        return pinv, int(np.count_nonzero(~keep))
    return pinv


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def schur_bound(a: np.ndarray) -> float:
    """Schur test upper bound sqrt(C*R) >= ||A||_2, with R the sum of row
    maxima and C the sum of column maxima of |A|."""
    mag = np.abs(np.asarray(a))
    r = float(mag.max(axis=1).sum())
    c = float(mag.max(axis=0).sum())
    return float(np.sqrt(c * r))
