"""Diagonal similarity, the rho-invariance oracle of the spectral tests.

The spectrum of L_N does not depend on the Hardy-space radius rho because
the orthonormal basis (z/rho)^n only conjugates the Taylor-basis matrix by
diag(rho^n); the tests check that invariance with this conjugation.
"""

import numpy as np

from edmdmap.errors import ParameterError, RangeOverflowError
from edmdmap.spectral import _as_square


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
