"""Dense linear-algebra kernel for desk-scale spectral computations.

Double-precision input goes to LAPACK through numpy: eigenvalues by
*geev, singular values (pseudoinverse, spectral norm) by *gesdd.
Extended-precision (longdouble) input, which LAPACK does not cover, goes
to the in-house qr_eigenvalues (balancing, Hessenberg reduction, shifted
QR capped at 30 sweeps per eigenvalue) and to the Gaussian elimination of
solve_gauss.  All spectra are reported in complex arithmetic and sorted
by descending modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, RangeOverflowError

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
    "scale_similarity",
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

    def __getitem__(self, i):
        return self.values[i]


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
    conjugate pairs exact); extended-precision input is handled by the
    in-house QR iteration of qr_eigenvalues, which LAPACK does not cover.
    """
    a = _as_square(a)
    if a.shape[0] > _MAX_DIM:
        raise ParameterError(f"dimension {a.shape[0]} exceeds desk-scale cap {_MAX_DIM}")
    if a.dtype in (np.longdouble, np.clongdouble):
        return Spectrum(values=sort_eigenvalues(qr_eigenvalues(a)))
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR sweep cap exhausted
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    return Spectrum(values=sort_eigenvalues(vals))


def _balance(a: np.ndarray, radix: float = 2.0) -> np.ndarray:
    """Diagonal similarity with radix powers equalizing row/column 1-norms."""
    a = a.copy()
    n = a.shape[0]
    moved = True
    while moved:
        moved = False
        for i in range(n):
            c = float(np.abs(a[:, i]).sum() - abs(a[i, i]))
            r = float(np.abs(a[i, :]).sum() - abs(a[i, i]))
            if c == 0.0 or r == 0.0:
                continue
            f, s = 1.0, c + r
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if c + r < 0.95 * s:
                moved = True
                a[i, :] /= f
                a[:, i] *= f
    return a


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Unitary reduction to upper Hessenberg form by Householder reflectors.

    Norms are accumulated in the working dtype so extended precision is
    not silently lost.
    """
    a = a.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k]
        norm_x = np.sqrt((np.abs(x) ** 2).sum())
        if norm_x == 0.0:
            continue
        v = x.copy()
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        v[0] += phase * norm_x
        v /= np.sqrt((np.abs(v) ** 2).sum())
        a[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ a[k + 1 :, k:])
        a[:, k + 1 :] -= 2.0 * np.outer(a[:, k + 1 :] @ v, v.conj())
        a[k + 2 :, k] = 0.0
    return a


def _wilkinson_shift(h: np.ndarray) -> complex:
    """Eigenvalue of the trailing 2x2 block closest to its lower-right entry."""
    a, b = h[-2, -2], h[-2, -1]
    c, d = h[-1, -2], h[-1, -1]
    half = (a - d) / 2.0
    disc = np.sqrt(half * half + b * c)
    lo, hi = d + half - disc, d + half + disc
    return lo if abs(lo - d) <= abs(hi - d) else hi


def qr_eigenvalues(a: np.ndarray, sweep_cap: int = 30) -> np.ndarray:
    """Dense eigenvalues by balancing, Hessenberg reduction and shifted QR.

    Works in the dtype of the input (promoted to its complex counterpart),
    so extended-precision matrices stay extended.  At most ``sweep_cap``
    sweeps are spent per eigenvalue; on failure the ConvergenceError
    carries the eigenvalues deflated so far in its ``partial`` attribute.
    """
    a = _as_square(a)
    n = a.shape[0]
    ctype = np.result_type(a.dtype, np.complex64)
    eps = float(np.finfo(ctype).eps)
    h = _hessenberg(_balance(a.astype(ctype)))
    found: list = []
    hi = n
    sweeps = 0
    while hi > 0:
        if hi == 1:
            found.append(h[0, 0])
            hi -= 1
            continue
        # deflate converged subdiagonal entries of the active block
        m = hi - 1
        while m > 0 and abs(h[m, m - 1]) > eps * (abs(h[m - 1, m - 1]) + abs(h[m, m])):
            m -= 1
        if m > 0:
            h[m, m - 1] = 0.0
        if m == hi - 1:
            found.append(h[hi - 1, hi - 1])
            hi -= 1
            sweeps = 0
            continue
        if sweeps >= sweep_cap:
            err = ConvergenceError(
                f"QR iteration exceeded {sweep_cap} sweeps for one eigenvalue "
                f"({n - len(found)} remaining)"
            )
            err.partial = np.asarray(found, dtype=ctype)
            raise err
        # occasional ad-hoc shift breaks symmetric stalls
        if sweeps % 10 == 9:
            shift = h[hi - 1, hi - 1] + 0.9 * abs(h[hi - 1, hi - 2])
        else:
            shift = _wilkinson_shift(h[m:hi, m:hi])
        _qr_sweep(h, m, hi, shift)
        sweeps += 1
    return np.asarray(found, dtype=ctype)


def _qr_sweep(h: np.ndarray, lo: int, hi: int, shift) -> None:
    """One explicit shifted QR step (H - sI = QR, H <- RQ + sI) on the
    Hessenberg block h[lo:hi, lo:hi], updated in place."""
    b = h[lo:hi, lo:hi]
    m = hi - lo
    diag = np.arange(m)
    b[diag, diag] -= shift
    rotations = []
    for k in range(m - 1):
        c, s, r = _givens(b[k, k], b[k + 1, k])
        rotations.append((c, s))
        row_a, row_b = b[k, k:].copy(), b[k + 1, k:].copy()
        b[k, k:] = c * row_a + s * row_b
        b[k + 1, k:] = -np.conj(s) * row_a + c * row_b
        b[k, k] = r
        b[k + 1, k] = 0.0
    for k, (c, s) in enumerate(rotations):
        col_a, col_b = b[: k + 2, k].copy(), b[: k + 2, k + 1].copy()
        b[: k + 2, k] = c * col_a + np.conj(s) * col_b
        b[: k + 2, k + 1] = -s * col_a + c * col_b
    b[diag, diag] += shift


def _givens(f, g):
    """Complex Givens pair (c real, s) with [[c, s], [-conj(s), c]] @ (f, g) = (r, 0)."""
    if g == 0:
        return 1.0, g * 0.0, f
    if f == 0:
        return 0.0, np.conj(g) / abs(g), abs(g)
    d = np.sqrt(abs(f) ** 2 + abs(g) ** 2)
    phase = f / abs(f)
    return abs(f) / d, phase * np.conj(g) / d, phase * d


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


def scale_similarity(a: np.ndarray, rho: float) -> np.ndarray:
    """Conjugate by the diagonal scaling diag(rho^n): rho^(k-l) * A[k, l]."""
    a = _as_square(a)
    if not rho > 0:
        raise ParameterError("rho must be positive")
    n = a.shape[0]
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        top = np.float64(rho) ** (n - 1)
        if not (np.isfinite(top) and top != 0.0 and np.isfinite(1.0 / top)):
            raise RangeOverflowError(f"rho^(N-1) = {rho}^{n - 1} leaves floating range")
    k = np.arange(n, dtype=float)
    out = a * float(rho) ** (k[:, np.newaxis] - k[np.newaxis, :])
    if not np.all(np.isfinite(out)):
        raise RangeOverflowError("diagonal similarity overflowed")
    return out
