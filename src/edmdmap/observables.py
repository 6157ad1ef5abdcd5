"""Observable dictionaries and their closed-form infinite-node Gram data.

Two dictionaries are supported: monomials x^k, k = 0..N-1, and Fourier
modes exp(i*pi*(k-K)*x) with N = 2K+1 odd.  For Fourier modes the second
slot of every pairing is conjugated, which turns the infinite-node Gram
matrix into the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MapDomainError, ParameterError

__all__ = [
    "ObservableBasis",
    "monomial_basis",
    "fourier_basis",
    "eval_basis",
    "gram_infinite",
    "fourier_cross_closed",
]

MONOMIALS = "monomials"
FOURIER = "fourier"


@dataclass(frozen=True)
class ObservableBasis:
    """Descriptor of a dictionary of N observables."""

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in (MONOMIALS, FOURIER):
            raise ParameterError(f"unknown basis kind {self.kind!r}")
        if self.size < 1:
            raise ParameterError("basis size must be positive")
        if self.kind == FOURIER and self.size % 2 == 0:
            raise ParameterError("fourier basis size must be odd (N = 2K+1)")

    def resized(self, size: int) -> "ObservableBasis":
        return self if size == self.size else replace(self, size=size)


def monomial_basis(size: int) -> ObservableBasis:
    return ObservableBasis(MONOMIALS, size)


def fourier_basis(size: int) -> ObservableBasis:
    return ObservableBasis(FOURIER, size)


def _power_rows(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[k] = z**k, each row the previous row times z.

    Costs one vectorised multiply per row; row k carries at most k
    roundings of the working dtype.
    """
    out[0] = 1
    for k in range(1, len(out)):
        np.multiply(out[k - 1], z, out=out[k])
    return out


def eval_basis(basis: ObservableBasis, x: np.ndarray | float) -> np.ndarray:
    """Evaluate all N observables at x.

    Returns shape (N,) for scalar x and (N, len(x)) for array x; monomial
    values are real, Fourier values complex of unit modulus.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, float)))
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise MapDomainError("observables evaluated outside [-1, 1]")
    if basis.kind == MONOMIALS:
        out = _power_rows(arr, np.empty((basis.size, arr.size), dtype=arr.dtype))
    else:
        # modes 0..K as powers of exp(i*pi*x); modes -K..-1 are their conjugates
        half = basis.size // 2
        z = np.exp(1j * np.pi * arr)
        out = np.empty((basis.size, arr.size), dtype=z.dtype)
        _power_rows(z, out[half:])
        np.conjugate(out[:half:-1], out=out[:half])
    return out[:, 0] if np.ndim(x) == 0 else out


def gram_infinite(
    basis: ObservableBasis, size: int | None = None, dtype: type = float
) -> np.ndarray:
    """Infinite-node Gram matrix H of the dictionary.

    Monomials: H[k, l] = 1/(k+l+1) for k+l even, 0 otherwise (normalized
    integral of x^(k+l) over [-1, 1]).  Fourier with conjugated second
    slot: exactly the identity.
    """
    n = basis.size if size is None else size
    if basis.kind == MONOMIALS:
        k = np.arange(n)
        total = k[:, np.newaxis] + k[np.newaxis, :]
        one = np.asarray(1, dtype=dtype)
        return np.where(total % 2 == 0, one / (total + one), np.zeros_like(one))
    return np.eye(n, dtype=complex)


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(pi u)/(pi u) with a series fallback near the removable singularity."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-8
    safe = np.where(small, 1.0, u)
    return np.where(small, 1.0 - (np.pi * u) ** 2 / 6.0, np.sin(np.pi * safe) / (np.pi * safe))


def fourier_cross_closed(a: float, size: int) -> np.ndarray:
    """Closed-form infinite-node cross matrix G for the skewed doubling map
    under Fourier modes with conjugated second slot.

    Matrix indices map to mode numbers by subtracting K = (size-1)//2.
    """
    if not abs(a) < 1.0:
        raise ParameterError(f"skew parameter must satisfy |a| < 1, got {a}")
    if size % 2 == 0:
        raise ParameterError("fourier basis size must be odd")
    half = size // 2
    modes = np.arange(size) - half
    k = modes[:, np.newaxis].astype(float)
    ell = modes[np.newaxis, :].astype(float)
    plus, minus = (1.0 + a) / 2.0, (1.0 - a) / 2.0
    return (
        plus * np.exp(1j * np.pi * ell * minus) * _sinc(k - ell * plus)
        + minus * np.exp(-1j * np.pi * ell * plus) * _sinc(k - ell * minus)
    )
