"""Analytic full-branch maps of the interval [-1, 1].

A map is described by its branches: each branch carries the forward map on
its subinterval together with the inverse branch (and its derivative) as
complex-analytic callables, so that downstream code can evaluate them on
disks in the complex plane.  Two families with exactly known transfer
operator spectra are built in: the skewed doubling map and the interval
Blaschke map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BranchCutError,
    MapDomainError,
    ParameterError,
    UnsupportedMapError,
)
from .spectral import sort_eigenvalues

__all__ = [
    "Branch",
    "IntervalMap",
    "make_skewed_doubling",
    "make_blaschke",
    "exact_spectrum_values",
    "verify_branch_analyticity",
]

_LEAK_TOLERANCE = 1e-10
_CIRCLE_POINTS = 720
_CIRCLE_CEILING = _CIRCLE_POINTS << 7  # 92160; Blaschke mu = 0.3 settles at |z| = 1.192 on 46080
_ODD_PROBES = np.linspace(0.0, 1.0, 18)[1:-1]  # 16 points in (0, 1)


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a full-branch interval map.

    ``forward`` acts on real points of ``[domain_lo, domain_hi]``;
    ``inverse`` and ``inverse_derivative`` accept complex arrays.  ``bounds``
    needs each of them analytic on its disk, the Cauchy L_N only their
    branch sum; both are checked by the leak of ``_circle_dft``.  ``affine``
    holds ``(alpha, beta)`` when the inverse branch is exactly
    ``alpha*z + beta``, enabling closed forms; such a branch is entire.
    ``sign`` is derived: the sign of the real part of the inverse
    derivative at 0, +1 for an increasing branch and -1 for a decreasing one.
    """

    domain_lo: float
    domain_hi: float
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    inverse_derivative: Callable[[np.ndarray], np.ndarray]
    affine: tuple[float, float] | None = None
    sign: int = field(init=False)

    def __post_init__(self) -> None:
        if not -1.0 <= self.domain_lo < self.domain_hi <= 1.0:
            raise ParameterError(
                f"branch domain [{self.domain_lo}, {self.domain_hi}] is not a "
                "subinterval of [-1, 1]"
            )
        sign = 1 if np.real(self.inverse_derivative(np.complex128(0.0))) > 0 else -1
        object.__setattr__(self, "sign", sign)


@dataclass(frozen=True)
class IntervalMap:
    """Full-branch map assembled from branches whose domains tile [-1, 1]
    in order.

    ``critical_points`` are the interior branch endpoints, derived from the
    domains; forward evaluation at a critical point uses the branch to its
    left.  ``deriv_sup`` is (an upper bound for) ``sup |T'|`` off the
    critical set.  ``spectrum_kind``/``spectrum_param`` identify an exactly
    known transfer operator spectrum ("skewed_doubling", "blaschke") or ""
    when none is.  ``expansion_params`` is an optional, uncertified pair
    ``(r, R)`` with ``1 < r < R`` used only in bound reporting.  ``odd`` is
    derived: true when T(-p) == -T(p) holds exactly in float64 on the fixed
    probe points _ODD_PROBES, so a map odd only up to rounding is not odd.
    """

    branches: tuple[Branch, ...]
    deriv_sup: float
    spectrum_kind: str = ""
    spectrum_param: float = 0.0
    expansion_params: tuple[float, float] | None = None
    critical_points: tuple[float, ...] = field(init=False)
    odd: bool = field(init=False)

    def __post_init__(self) -> None:
        ends = [(b.domain_lo, b.domain_hi) for b in self.branches]
        if not ends or ends[0][0] != -1.0 or ends[-1][1] != 1.0 or any(
            left[1] != right[0] for left, right in zip(ends, ends[1:])
        ):
            raise ParameterError(f"branch domains {ends} do not tile [-1, 1] in order")
        if self.deriv_sup < 1.0:
            raise ParameterError("expanding map requires deriv_sup >= 1")
        if self.expansion_params is not None:
            r, big_r = self.expansion_params
            if not 1.0 < r < big_r < math.inf:
                raise ParameterError("expansion parameters must satisfy 1 < r < R < inf")
        object.__setattr__(self, "critical_points", tuple(hi for _, hi in ends[:-1]))
        object.__setattr__(self, "odd", bool(np.array_equal(self(-_ODD_PROBES), -self(_ODD_PROBES))))

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Forward evaluation T(x) for x in [-1, 1], scalar or array.

        Extended-precision (longdouble) input is propagated, so quadrature
        can run above double precision.
        """
        arr = np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, float))
        if arr.size and not (arr.min() >= -1.0 and arr.max() <= 1.0):  # NaN fails too
            raise MapDomainError("map evaluation outside [-1, 1]")
        idx = np.searchsorted(self.critical_points, arr, side="left")
        out = np.empty_like(arr)
        for b, branch in enumerate(self.branches):
            mask = idx == b
            if np.any(mask):
                out[mask] = branch.forward(arr[mask])
        np.clip(out, -1.0, 1.0, out=out)
        return float(out) if np.ndim(x) == 0 else out


def _forward_runs(imap: IntervalMap, x: np.ndarray, out: np.ndarray) -> None:
    """Write T(x) into ``out`` for float64 nodes ``x`` in non-decreasing
    order: each branch maps its own run of nodes, split at the critical
    points so that a node on one takes the branch to its left, as in
    ``IntervalMap.__call__``, whose values this matches bit for bit.  Nodes
    are not checked against [-1, 1]; the caller checks x and T(x)."""
    ends = (0, *np.searchsorted(x, imap.critical_points, side="right"), x.size)
    for branch, lo, hi in zip(imap.branches, ends, ends[1:]):
        if lo < hi:
            out[lo:hi] = branch.forward(x[lo:hi])
    np.clip(out, -1.0, 1.0, out=out)


def _affine_branch(lo: float, hi: float, alpha: float, beta: float) -> Branch:
    """Branch whose inverse is the affine function alpha*z + beta."""
    slope = 1.0 / alpha

    def forward(x):
        return (np.asarray(x) - beta) * slope

    return Branch(
        domain_lo=lo,
        domain_hi=hi,
        forward=forward,
        inverse=lambda z: alpha * np.asarray(z) + beta,
        inverse_derivative=lambda z: np.full_like(np.asarray(z, dtype=complex), alpha),
        affine=(alpha, beta),
    )


def make_skewed_doubling(a: float) -> IntervalMap:
    """Skewed doubling map: two increasing affine branches split at x = a.

    The left branch maps [-1, a] onto [-1, 1] with slope 2/(1+a), the right
    branch maps [a, 1] likewise with slope 2/(1-a).  Its transfer operator
    spectrum is known in closed form.
    """
    if not abs(a) < 1.0:
        raise ParameterError(f"skew parameter must satisfy |a| < 1, got {a}")
    left = _affine_branch(-1.0, a, (1.0 + a) / 2.0, (a - 1.0) / 2.0)
    right = _affine_branch(a, 1.0, (1.0 - a) / 2.0, (a + 1.0) / 2.0)
    return IntervalMap(
        branches=(left, right),
        deriv_sup=2.0 / (1.0 - abs(a)),
        spectrum_kind="skewed_doubling",
        spectrum_param=a,
    )


def _blaschke_forward(mu: float, offset: float) -> Callable[[np.ndarray], np.ndarray]:
    def forward(x):
        x = np.asarray(x)
        pi = np.pi if x.dtype != np.longdouble else np.longdouble("3.14159265358979323846")
        return 2.0 * x + offset + (2.0 / pi) * np.arctan(
            mu * np.sin(pi * x) / (1.0 - mu * np.cos(pi * x))
        )

    return forward


def _blaschke_branch(mu: float, side: int) -> Branch:
    """Blaschke inverse branch z/2 + side*arccos(mu*cos(pi z/2))/pi, side = -1 left, +1 right."""

    def inverse(z):
        z = np.asarray(z, dtype=complex)
        return z / 2.0 + side * np.arccos(mu * np.cos(np.pi * z / 2.0)) / np.pi

    def inverse_derivative(z):
        z = np.asarray(z, dtype=complex)
        w = mu * np.cos(np.pi * z / 2.0)
        return 0.5 + side * (mu / 2.0) * np.sin(np.pi * z / 2.0) / np.sqrt(1.0 - w * w)

    lo, hi = (-1.0, 0.0) if side < 0 else (0.0, 1.0)
    return Branch(
        domain_lo=lo,
        domain_hi=hi,
        forward=_blaschke_forward(mu, offset=1.0 if side < 0 else -1.0),
        inverse=inverse,
        inverse_derivative=inverse_derivative,
    )


def make_blaschke(mu: float) -> IntervalMap:
    """Interval Blaschke map: nonlinear symmetric deformation of the doubling map.

    Restricted to ``|mu| <= 0.3`` so that both inverse branches extend
    analytically to a disk of radius > 1.  T'(x) = 2 + 2 mu (c - mu) /
    (1 - 2 mu c + mu^2) is monotone in c = cos(pi x), so sup |T'| is
    2/(1 - |mu|) (x1.01 safety factor); it feeds bound reporting only.
    """
    if not abs(mu) <= 0.3:
        raise ParameterError(f"blaschke parameter must satisfy |mu| <= 0.3, got {mu}")
    return IntervalMap(
        branches=(_blaschke_branch(mu, side=-1), _blaschke_branch(mu, side=+1)),
        deriv_sup=1.01 * 2.0 / (1.0 - abs(mu)),
        spectrum_kind="blaschke",
        spectrum_param=mu,
    )


def exact_spectrum_values(imap: IntervalMap, n_max: int) -> np.ndarray:
    """Leading n_max exact transfer operator eigenvalues, descending modulus.

    Skewed doubling with skew a: lambda_n = ((1+a)/2)^(n+1) + ((1-a)/2)^(n+1).
    Blaschke with parameter mu: {1} plus the family mu^n with multiplicity
    two and the simple family ((1+mu)/2)^n, n >= 1.
    """
    if n_max < 1:
        raise ParameterError("n_max must be at least 1")
    if imap.spectrum_kind == "skewed_doubling":
        a = imap.spectrum_param
        n = np.arange(n_max)
        values = ((1.0 + a) / 2.0) ** (n + 1) + ((1.0 - a) / 2.0) ** (n + 1)
        return values.astype(complex)
    if imap.spectrum_kind == "blaschke":
        mu = imap.spectrum_param
        pool = [1.0]
        for n in range(1, n_max + 1):
            pool.extend([mu**n, mu**n, ((1.0 + mu) / 2.0) ** n])
        return sort_eigenvalues(pool)[:n_max]
    raise UnsupportedMapError("map has no exact reference spectrum")


def _circle_dft(samples: np.ndarray) -> tuple[np.ndarray, float]:
    """DFT of samples on a closed circle (last axis), divided by the count,
    and its leak: the largest modulus among the upper half of the bins, the
    negative frequencies.  A function analytic on the closed disk has none,
    only the aliased tail of its Taylor series, which falls as the count
    grows; a cut crossing the circle, or a pole inside it, leaks at every
    count (Trefethen & Weideman, SIAM Review 56, 2014).  A non-finite
    sample gives a non-finite leak."""
    count = samples.shape[-1]
    coeffs = np.fft.fft(samples, axis=-1) / count
    return coeffs, float(np.abs(coeffs[..., count // 2:]).max())


def _circle_ladder(imap: IntervalMap, radius: float, count: int, ceiling: int, measure, refuse):
    """Read the inverse branches and their derivatives on the closed circle
    z_j = radius * exp(2*pi*i*j/K), warnings off, for K = count, 2*count, ...
    and return (K, result) at the first K where ``measure``, given the lazy
    (phi, phi') pairs, returns (leak, result) with leak <= _LEAK_TOLERANCE.
    At ``ceiling``, or at once for a non-finite leak, which the 2K circle
    (holding the K points) repeats, ``refuse(K, leak, result)`` is raised."""
    if not 0 < radius < math.inf:
        raise ParameterError("radius must be positive and finite")
    while True:
        with np.errstate(all="ignore"):
            circle = radius * np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
            leak, result = measure((np.asarray(b.inverse(circle)), np.asarray(b.inverse_derivative(circle)))
                                   for b in imap.branches)
        if leak <= _LEAK_TOLERANCE:
            return count, result
        if count >= ceiling or not math.isfinite(leak):
            raise refuse(count, leak, result)
        count *= 2


def _branches_on_circle(imap: IntervalMap, radius: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs (phi, phi') on the first circle of ``_circle_ladder`` from
    _CIRCLE_POINTS up to _CIRCLE_CEILING points (a steep analytic branch
    aliases on a coarse one) where each non-affine branch passes the leak
    test of ``_circle_dft``; BranchCutError names the first that fails."""
    def measure(pairs):
        read = []
        for index, (branch, pair) in enumerate(zip(imap.branches, pairs)):
            read.append(pair)
            for name, values in zip(("inverse", "inverse_derivative"), () if branch.affine else pair):
                leak = _circle_dft(values)[1]
                if not leak <= _LEAK_TOLERANCE:
                    return leak, f"branch {index} {name}"
        return 0.0, read

    def refuse(count, leak, where):
        return BranchCutError(f"{where} is not analytic on the disk of radius {radius} "
                              f"(leak {leak:.3g} on {count} points); reduce the radius")

    return _circle_ladder(imap, radius, _CIRCLE_POINTS, _CIRCLE_CEILING, measure, refuse)[1]


def verify_branch_analyticity(imap: IntervalMap, radius: float) -> None:
    """Raise BranchCutError unless every inverse branch passes the leak
    test of ``_branches_on_circle`` on the disk |z| <= radius."""
    _branches_on_circle(imap, radius)
