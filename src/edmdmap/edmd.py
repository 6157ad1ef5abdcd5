"""EDMD matrix pairs and the generalized eigenvalue solve.

The pair (H, G) is assembled either from M equidistant nodes (empirical
averages) or in the infinite-node limit, where H has a closed form and G
is an integral evaluated by per-branch Gauss-Legendre quadrature -- or,
for Fourier observables on the skewed doubling map, by the closed-form
cross matrix.  The generalized problem lambda*H*u = G*u is reduced to the
ordinary eigenproblem of pinv(H) @ G, justified by positive definiteness
of H for M >= N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, QuadratureError, RangeOverflowError, RankTruncationWarning
from .maps import IntervalMap
from .observables import (
    FOURIER,
    MONOMIALS,
    ObservableBasis,
    eval_basis,
    fourier_cross_closed,
    gram_infinite,
)
from .spectral import Spectrum, eigenvalues, pseudoinverse, solve_gauss

__all__ = [
    "NodeSet",
    "Provenance",
    "EdmdPair",
    "nodes_equidistant",
    "build_finite",
    "build_infinite",
    "cross_gram_quadrature",
    "edmd_spectrum",
    "node_schedule",
    "DEFAULT_QUAD_ORDER",
    "DEFAULT_EPS_PINV",
]

DEFAULT_QUAD_ORDER = 64
DEFAULT_EPS_PINV = 1e-12

# highest Gauss-Legendre order build_infinite evaluates before it gives up
_MAX_QUAD_ORDER = 1024

_MAX_COUNT = 2**62


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Equidistant nodes x_m = -1 + delta + 2m/M, m = 0..M-1."""

    m: int
    delta: float
    nodes: np.ndarray


def nodes_equidistant(m: int, delta: float | None = None) -> NodeSet:
    """Equidistant node set; delta defaults to 1/M (interval midpoints)."""
    if m < 1:
        raise ParameterError("node count must be at least 1")
    if delta is None:
        delta = 1.0 / m
    if not 0.0 <= delta <= 2.0 / m:
        raise ParameterError(f"node offset delta = {delta} outside [0, 2/M]")
    nodes = -1.0 + delta + 2.0 * np.arange(m) / m
    return NodeSet(m=m, delta=float(delta), nodes=nodes)


@dataclass(frozen=True)
class Provenance:
    """How an EDMD pair was produced: 'finite', 'infinite' or 'closed_form'."""

    kind: str
    m: int | None = None
    delta: float | None = None
    quad_order: int | None = None


@dataclass(frozen=True, eq=False)
class EdmdPair:
    """Matrix pair (H, G) with provenance.

    ``h``/``g`` are the double-precision working matrices.  Infinite-node
    monomial pairs additionally carry 80-bit copies (``h_ext``/``g_ext``):
    the exact eigenvalues of small Gram pencils sit below the float64
    representation floor, so the high-accuracy solve needs entries carried
    above double precision.
    """

    h: np.ndarray
    g: np.ndarray
    provenance: Provenance
    basis: ObservableBasis
    imap: IntervalMap
    h_ext: np.ndarray | None = field(default=None, repr=False, compare=False)
    g_ext: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.h.shape[0]


def build_finite(imap: IntervalMap, basis: ObservableBasis, nodes: NodeSet) -> EdmdPair:
    """Empirical pair: H, G as averages of observable products over the nodes."""
    psi_x = eval_basis(basis, nodes.nodes)
    psi_tx = eval_basis(basis, imap(nodes.nodes))
    h = psi_x @ psi_x.T / nodes.m
    g = psi_tx @ psi_x.T / nodes.m
    return EdmdPair(
        h=h,
        g=g,
        provenance=Provenance("finite", m=nodes.m, delta=nodes.delta),
        basis=basis,
        imap=imap,
    )


_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss_extended(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights in 80-bit precision.

    Double-precision nodes are polished with Newton steps on the Legendre
    recurrence carried out in longdouble.
    """
    if q in _leggauss_cache:
        return _leggauss_cache[q]
    x = np.polynomial.legendre.leggauss(q)[0].astype(np.longdouble)

    def legendre_pair(x):
        p_prev = np.ones_like(x)
        p = x.copy()
        for k in range(2, q + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        dp = q * (x * p - p_prev) / (x * x - 1.0)
        return p, dp

    for _ in range(3):
        p, dp = legendre_pair(x)
        x = x - p / dp
    _, dp = legendre_pair(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    _leggauss_cache[q] = (x, w)
    return x, w


def cross_gram_quadrature(
    imap: IntervalMap,
    basis: ObservableBasis,
    order: int,
    dtype: type = float,
) -> np.ndarray:
    """G[k, l] = (1/2) * integral of psi_k(T x) * psi_l(x) over [-1, 1],
    as a sum of Gauss-Legendre rules on the branch intervals, where the
    integrand is analytic.  dtype=numpy.longdouble runs the rule in 80-bit
    arithmetic (monomial bases only)."""
    if order < 1:
        raise ParameterError("quadrature order must be positive")
    if dtype is np.longdouble:
        if basis.kind == FOURIER:
            raise ParameterError("extended-precision quadrature supports monomials only")
        pts, wts = _leggauss_extended(order)
    else:
        pts, wts = np.polynomial.legendre.leggauss(order)
    g = np.zeros((basis.size, basis.size), dtype=pts.dtype)
    for branch in imap.branches:
        lo, hi = branch.domain_lo, branch.domain_hi
        x = (hi + lo) / 2.0 + (hi - lo) / 2.0 * pts
        w = (hi - lo) / 2.0 * wts
        psi_x = eval_basis(basis, x)
        psi_tx = eval_basis(basis, np.asarray(imap(x)))
        g += psi_tx @ (w * psi_x).T
    return g / 2.0


def build_infinite(imap: IntervalMap, basis: ObservableBasis) -> EdmdPair:
    """Infinite-node pair: closed-form H; G by the Fourier/skewed-doubling
    closed form when available, else by quadrature whose order doubles from
    DEFAULT_QUAD_ORDER until no entry moves by more than 1e-10."""
    h = gram_infinite(basis)
    h_ext = g_ext = None
    if basis.kind == FOURIER and imap.spectrum_kind == "skewed_doubling":
        g = fourier_cross_closed(imap.spectrum_param, basis.size)
        provenance = Provenance("closed_form")
    else:
        order = DEFAULT_QUAD_ORDER
        coarse = cross_gram_quadrature(imap, basis, order)
        while True:
            if basis.kind == MONOMIALS:
                g_ext = cross_gram_quadrature(imap, basis, 2 * order, dtype=np.longdouble)
                g = g_ext.astype(float)
            else:
                g = cross_gram_quadrature(imap, basis, 2 * order)
            drift = float(np.abs(g - coarse).max())
            if drift <= 1e-10:
                break
            if 4 * order > _MAX_QUAD_ORDER:
                raise QuadratureError(
                    f"cross matrix changed by {drift:.3g} when doubling the quadrature "
                    f"order from {order} to {2 * order}, the highest order tried; "
                    "integrand under-resolved"
                )
            order, coarse = 2 * order, g
        if basis.kind == MONOMIALS:
            h_ext = gram_infinite(basis, dtype=np.longdouble)
        provenance = Provenance("infinite", quad_order=order)
    return EdmdPair(
        h=h, g=g, provenance=provenance, basis=basis, imap=imap, h_ext=h_ext, g_ext=g_ext
    )


def edmd_spectrum(pair: EdmdPair, eps: float = DEFAULT_EPS_PINV) -> Spectrum:
    """Eigenvalues of pinv(H) @ G with the relative eps-pseudoinverse.

    When no singular value falls below the eps cutoff the pseudoinverse is
    the plain inverse, and pairs carrying 80-bit entries are solved in
    extended precision (the float64 entry rounding alone already perturbs
    small-Gram eigenvalues by more than 1e-9).  If the truncation removed
    singular values, a RankTruncationWarning is issued, the count is
    reported in the metadata, and the double-precision route is used.
    """
    h_pinv, truncated = pseudoinverse(pair.h, eps, return_rank=True)
    if truncated:
        warnings.warn(
            f"eps-pseudoinverse removed {truncated} singular value(s) of H",
            RankTruncationWarning,
            stacklevel=2,
        )
    if not truncated and pair.h_ext is not None:
        spec = eigenvalues(solve_gauss(pair.h_ext, pair.g_ext))
        return Spectrum(values=spec.values.astype(complex), truncated_rank=0)
    spec = eigenvalues(h_pinv @ pair.g)
    return Spectrum(values=spec.values, truncated_rank=truncated)


def node_schedule(n: int, r: float) -> int:
    """Node count M = ceil(N^2 * R^N) sufficient for spectral convergence."""
    if not r > 1.0:
        raise ParameterError("schedule rate R must exceed 1")
    if n < 1:
        raise ParameterError("N must be at least 1")
    with np.errstate(over="ignore"):
        value = float(n) * float(n) * np.float64(r) ** n
    if not np.isfinite(value) or value > _MAX_COUNT:
        raise RangeOverflowError(f"node schedule N={n}, R={r} exceeds the count range")
    return math.ceil(value)
