"""EDMD matrix pairs and the generalized eigenvalue solve.

The pair (H, G) is assembled either from M equidistant nodes (empirical
averages) or in the infinite-node limit, where H has a closed form and G
is an integral over the map's branches, evaluated by per-branch
Gauss-Legendre quadrature for every map and dictionary.  The generalized
problem lambda*H*u = G*u is reduced to the ordinary eigenproblem of
pinv(H) @ G, justified by positive definiteness of H for M >= N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, QuadratureError, RangeOverflowError, RankTruncationWarning
from .maps import IntervalMap, _forward_runs
from .observables import MONOMIALS, ObservableBasis, eval_basis, gram_infinite
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
]

DEFAULT_QUAD_ORDER = 64

# edmd_spectrum drops the singular values of H at or below this times the largest
_EPS_PINV = 1e-12

# highest Gauss-Legendre order build_infinite evaluates before it gives up
_MAX_QUAD_ORDER = 1024

# largest node count M, for a literal M and for every schedule
_MAX_COUNT = 2**62


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Equidistant nodes x_m = -1 + delta + 2m/M, m = 0..M-1."""

    m: int
    delta: float
    nodes: np.ndarray


def nodes_equidistant(m: int, delta: float | None = None) -> NodeSet:
    """Equidistant node set; delta defaults to 1/M (interval midpoints)."""
    if not 1 <= m <= _MAX_COUNT:
        raise ParameterError(f"node count M = {m} outside [1, 2^62]")
    if delta is None:
        delta = 1.0 / m
    if not 0.0 <= delta <= 2.0 / m:
        raise ParameterError(f"node offset delta = {delta} outside [0, 2/M]")
    try:  # one array, scaled and shifted in place: -1 + delta + 2k/M, bit for bit
        nodes = np.arange(0.0, 2.0 * m, 2.0)
    except (MemoryError, ValueError):  # allocation refused, or bytes past numpy's size range
        raise ParameterError(f"node count M = {m} too large to allocate its nodes") from None
    np.divide(nodes, m, out=nodes)
    np.add(-1.0 + delta, nodes, out=nodes)
    return NodeSet(m=m, delta=float(delta), nodes=nodes)


@dataclass(frozen=True)
class Provenance:
    """How an EDMD pair was produced: 'finite' or 'infinite'."""

    kind: str
    m: int | None = None
    delta: float | None = None
    quad_order: int | None = None


@dataclass(frozen=True, eq=False)
class EdmdPair:
    """Matrix pair (H, G) with provenance.

    ``h``/``g`` are the double-precision working matrices.  An infinite-node
    monomial pair carries its 80-bit assembly as ``h_ext``/``g_ext``, and
    ``h``/``g`` are its float64 rounding: rounding the Hilbert-like entries
    already moves the eigenvalues by more than 1e-9 around N = 10-12, so
    the high-accuracy solve needs entries carried above double precision.
    """

    h: np.ndarray
    g: np.ndarray
    provenance: Provenance
    basis: ObservableBasis
    h_ext: np.ndarray | None = field(default=None, repr=False, compare=False)
    g_ext: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.h.shape[0]

    def leading(self, n: int) -> EdmdPair:
        """The pair of the first n observables: the leading n x n blocks.

        Both dictionaries are prefix-nested (monomials x^k; Fourier 1,
        cos 1, sin 1, cos 2, ...), so this is the pair of basis size n on
        the same nodes, up to rounding: a larger finite build sums over
        chunks of fewer nodes (build_finite), so its sums round differently.
        """
        if not 1 <= n <= self.size:
            raise ParameterError(f"leading block size {n} outside [1, {self.size}]")
        extended = self.h_ext is not None
        return replace(
            self,
            h=self.h[:n, :n],
            g=self.g[:n, :n],
            basis=ObservableBasis(self.basis.kind, n),
            h_ext=self.h_ext[:n, :n] if extended else None,
            g_ext=self.g_ext[:n, :n] if extended else None,
        )


_ALL_ROWS = (slice(None),)
_PARITY_ROWS = (slice(0, None, 2), slice(1, None, 2))


def _chunk_nodes(size: int) -> int:
    """Nodes per build_finite chunk: the chunk's (N, 2c) float64 table of
    the basis on [x | T(x)] stays within 256 KiB."""
    return max(1, 2**14 // size)


def build_finite(imap: IntervalMap, basis: ObservableBasis, nodes: NodeSet) -> EdmdPair:
    """Empirical pair: H, G as averages of observable products over the nodes.

    The sums run over chunks of c = _chunk_nodes(N) nodes, so memory is O(N*c)
    beside the node array and no (N, M) observable table is ever built.
    One point buffer and one table are allocated per build and reused by
    every chunk.  A chunk's nodes are copied into the first half of the
    points [x | T(x)], each branch maps its own run of them into the second
    half (so the nodes must not decrease; a decrease raises ParameterError),
    and the basis on those 2c points fills an (N, 2c) view of the table, at
    most 256 KiB.  H and G are summed from views of its two halves.  H is
    a sum of exactly symmetric chunk Gram products (x @ x.T takes the
    symmetric rank-k BLAS update), so it is exactly symmetric.

    An odd map (``imap.odd``) on an even count of midpoint nodes with
    monomials is mirrored: x^k(-x) = (-1)^k x^k and T(-x) = -T(x), so every
    entry with k + l odd is zero, and every other entry is the average over
    the M/2 nodes x > 0.  Only those nodes are read, and only the even-even
    and odd-odd blocks are summed.
    """
    size = basis.size
    step = _chunk_nodes(size)
    h = np.zeros((size, size))
    g = np.zeros((size, size))
    mirrored = (basis.kind == MONOMIALS and imap.odd and nodes.m % 2 == 0
                and nodes.delta == 1.0 / nodes.m)
    groups = _PARITY_ROWS if mirrored else _ALL_ROWS
    # nodes[M/2:] are the x > 0; both paths then loop over the same indices
    # and keep no count, so the mirrored one holds no object the full one does not
    read = nodes.nodes[nodes.m // 2 if mirrored else 0 :]
    points = np.empty(2 * min(step, read.size))
    table = np.empty(size * points.size)  # each chunk's (N, 2c) table is a view of its head
    for lo in range(0, read.size, step):
        ordered = read[max(lo - 1, 0) : lo + step]  # with the previous chunk's last node
        if (ordered[1:] < ordered[:-1]).any():
            raise ParameterError("build_finite needs nodes in non-decreasing order")
        c = min(step, read.size - lo)
        pts = points[: 2 * c]
        pts[:c] = read[lo : lo + c]
        _forward_runs(imap, pts[:c], pts[c:])
        t = eval_basis(basis, pts, out=table[: size * 2 * c].reshape(size, 2 * c))
        for rows in groups:  # columns: psi(x), then psi(T(x))
            h[rows, rows] += t[rows, :c] @ t[rows, :c].T
            g[rows, rows] += t[rows, c:] @ t[rows, :c].T
    h /= read.size
    g /= read.size
    return EdmdPair(
        h=h,
        g=g,
        provenance=Provenance("finite", m=nodes.m, delta=nodes.delta),
        basis=basis,
    )


_leggauss_cache: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(q: int, extended: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights of order q in float64, or in 80-bit
    precision when extended; each rule is built once and cached read-only."""
    key = (q, extended)
    if key not in _leggauss_cache:
        rule = _leggauss_extended(q) if extended else np.polynomial.legendre.leggauss(q)
        for array in rule:
            array.flags.writeable = False
        _leggauss_cache[key] = rule
    return _leggauss_cache[key]


def _leggauss_extended(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights in 80-bit precision.

    Double-precision nodes are polished with Newton steps on the Legendre
    recurrence carried out in longdouble.
    """
    x = _leggauss(q)[0].astype(np.longdouble)

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
    return x, w


def cross_gram_quadrature(imap: IntervalMap, basis: ObservableBasis, order: int) -> np.ndarray:
    """G[k, l] = (1/2) * integral of psi_k(T x) * psi_l(x) over [-1, 1],
    as a sum of Gauss-Legendre rules on the branch intervals, where the
    integrand is analytic.  Monomials are integrated in 80-bit arithmetic,
    the Fourier dictionary in float64."""
    if order < 1:
        raise ParameterError("quadrature order must be positive")
    pts, wts = _leggauss(order, extended=basis.kind == MONOMIALS)
    g = np.zeros((basis.size, basis.size), dtype=pts.dtype)
    for branch in imap.branches:
        lo, hi = branch.domain_lo, branch.domain_hi
        x = (hi + lo) / 2.0 + (hi - lo) / 2.0 * pts
        w = (hi - lo) / 2.0 * wts
        psi_x = eval_basis(basis, x)
        psi_tx = eval_basis(basis, np.asarray(imap(x)))
        # np.dot, not @: same summation order, about twice as fast on longdouble
        g += np.dot(psi_tx, (w * psi_x).T)
    return g / 2.0


def build_infinite(imap: IntervalMap, basis: ObservableBasis) -> EdmdPair:
    """Infinite-node pair: closed-form H; G by quadrature over the map's
    branches, whose order doubles from DEFAULT_QUAD_ORDER until no entry
    moves by more than 1e-10.  A monomial pair keeps that 80-bit assembly
    as h_ext/g_ext and rounds it once to h/g."""
    order = DEFAULT_QUAD_ORDER
    coarse = cross_gram_quadrature(imap, basis, order)
    while True:
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
    h = gram_infinite(basis, dtype=g.dtype)
    extended = g.dtype == np.longdouble
    return EdmdPair(h=h.astype(float), g=g.astype(float), basis=basis,
                    provenance=Provenance("infinite", quad_order=order),
                    h_ext=h if extended else None, g_ext=g if extended else None)


def edmd_spectrum(pair: EdmdPair) -> Spectrum:
    """Eigenvalues of pinv(H) @ G with the relative eps-pseudoinverse
    (cutoff 1e-12 times the largest singular value).

    When no singular value falls below the cutoff the pseudoinverse is
    the plain inverse, and a pair carrying its 80-bit assembly (every
    quadrature rung ran in 80-bit; h/g are its rounding) is solved in
    extended precision (the float64 entry rounding alone already perturbs
    small-Gram eigenvalues by more than 1e-9): H^-1 G by 80-bit Gaussian
    elimination, its eigenvalues by LAPACK plus one longdouble correction
    step (spectral.qr_eigenvalues).  If the truncation removed
    singular values, a RankTruncationWarning is issued, the count is
    reported in the metadata, and the double-precision route is used.
    """
    h_pinv, truncated = pseudoinverse(pair.h, _EPS_PINV, return_rank=True)
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
