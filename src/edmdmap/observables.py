"""Observable dictionaries and their closed-form infinite-node Gram data.

Two dictionaries are supported: monomials x^k, k = 0..N-1, and the real
Fourier dictionary 1, sqrt(2)*cos(k*pi*x), sqrt(2)*sin(k*pi*x), k = 1..K,
with N = 2K+1 odd.  Both are real, and the Fourier one is orthonormal, so
its infinite-node Gram matrix is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Returns real values of shape (N,) for scalar x and (N, len(x)) for
    array x.  Fourier rows come in the order 1, sqrt(2)*cos(pi*x),
    sqrt(2)*sin(pi*x), sqrt(2)*cos(2*pi*x), ...
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, float)))
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        raise MapDomainError("observables evaluated outside [-1, 1]")
    if basis.kind == MONOMIALS:
        out = _power_rows(arr, np.empty((basis.size, arr.size), dtype=arr.dtype))
    else:
        z = np.exp(1j * np.pi * arr)
        powers = _power_rows(z, np.empty((basis.size // 2 + 1, arr.size), dtype=z.dtype))
        out = np.empty((basis.size, arr.size), dtype=arr.dtype)
        out[0] = 1
        np.multiply(np.sqrt(2.0), powers[1:].real, out=out[1::2])
        np.multiply(np.sqrt(2.0), powers[1:].imag, out=out[2::2])
    return out[:, 0] if np.ndim(x) == 0 else out


def gram_infinite(basis: ObservableBasis, dtype: type = float) -> np.ndarray:
    """Infinite-node Gram matrix H of the dictionary.

    Monomials: H[k, l] = 1/(k+l+1) for k+l even, 0 otherwise (normalized
    integral of x^(k+l) over [-1, 1]).  Fourier: exactly the identity.
    """
    if basis.kind == MONOMIALS:
        k = np.arange(basis.size)
        total = k[:, np.newaxis] + k[np.newaxis, :]
        one = np.asarray(1, dtype=dtype)
        return np.where(total % 2 == 0, one / (total + one), np.zeros_like(one))
    return np.eye(basis.size, dtype=dtype)


def fourier_cross_closed(a: float, size: int) -> np.ndarray:
    """Closed-form infinite-node cross matrix G for the skewed doubling map
    in the real Fourier dictionary.

    Each branch has the affine inverse x = alpha*y + c.  Product-to-sum
    turns its integral of a cos or sin row of mode k against a cos or sin
    column of mode l into sinc(k - l*alpha) +- sinc(k + l*alpha), times the
    cos or sin of the column phase l*pi*c (sine rows shift the phase by
    pi/2).  The four blocks are built on the mode grid, then interleaved.
    """
    if not abs(a) < 1.0:
        raise ParameterError(f"skew parameter must satisfy |a| < 1, got {a}")
    if size % 2 == 0:
        raise ParameterError("fourier basis size must be odd")
    half = size // 2
    k = np.arange(half + 1)[:, np.newaxis]
    ell = k.T
    cc = cs = sc = ss = 0.0  # (row, column) kinds
    for alpha, c in (((1.0 + a) / 2.0, (a - 1.0) / 2.0), ((1.0 - a) / 2.0, (1.0 + a) / 2.0)):
        minus, plus = np.sinc(k - ell * alpha), np.sinc(k + ell * alpha)
        cos_c, sin_c = alpha * np.cos(np.pi * ell * c), alpha * np.sin(np.pi * ell * c)
        cc, cs = cc + cos_c * (minus + plus), cs + sin_c * (minus + plus)
        sc, ss = sc + sin_c * (plus - minus), ss + cos_c * (minus - plus)
    blocks = np.block([[cc, cs[:, 1:]], [sc[1:], ss[1:, 1:]]])  # cos modes 0..K, sin modes 1..K
    # dictionary order 1, cos 1, sin 1, cos 2, ... as positions in the blocks
    order = np.r_[0, np.column_stack((np.arange(1, half + 1), np.arange(half + 1, size))).ravel()]
    scale = np.where(order > 0, 1.0, np.sqrt(0.5))  # the constant row has norm 1, not sqrt(2)
    return blocks[np.ix_(order, order)] * np.outer(scale, scale)
