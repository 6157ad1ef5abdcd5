"""Analytic full-branch maps of the interval [-1, 1].

A map is described by its branches: each branch carries the forward map on
its subinterval together with the inverse branch (and its derivative) as
complex-analytic callables, so that downstream code can evaluate them on
disks in the complex plane.  Two families with exactly known transfer
operator spectra are built in: the skewed doubling map and the interval
Blaschke map.
"""

from __future__ import annotations

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

_ANALYTICITY_POINTS = 720


@dataclass(frozen=True)
class Branch:
    """One monotone branch of a full-branch interval map.

    ``forward`` acts on real points of ``[domain_lo, domain_hi]``;
    ``inverse`` and ``inverse_derivative`` accept complex arrays and must be
    analytic on the disks used by callers.  ``sign`` is the sign of the
    inverse derivative at 0.  ``affine`` holds ``(alpha, beta)`` when the
    inverse branch is exactly ``alpha*z + beta``, enabling closed forms.
    """

    domain_lo: float
    domain_hi: float
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    inverse_derivative: Callable[[np.ndarray], np.ndarray]
    sign: int
    affine: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not -1.0 <= self.domain_lo < self.domain_hi <= 1.0:
            raise ParameterError(
                f"branch domain [{self.domain_lo}, {self.domain_hi}] is not a "
                "subinterval of [-1, 1]"
            )
        expected = 1 if np.real(self.inverse_derivative(np.complex128(0.0))) > 0 else -1
        if self.sign != expected:
            raise ParameterError(f"branch sign {self.sign} contradicts inverse derivative at 0")


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
    ``(r, R)`` with ``1 < r < R`` used only in bound reporting.
    """

    branches: tuple[Branch, ...]
    deriv_sup: float
    spectrum_kind: str = ""
    spectrum_param: float = 0.0
    expansion_params: tuple[float, float] | None = None
    critical_points: tuple[float, ...] = field(init=False)

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
            if not 1.0 < r < big_r:
                raise ParameterError("expansion parameters must satisfy 1 < r < R")
        object.__setattr__(self, "critical_points", tuple(hi for _, hi in ends[:-1]))

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Forward evaluation T(x) for x in [-1, 1], scalar or array.

        Extended-precision (longdouble) input is propagated, so quadrature
        can run above double precision.
        """
        arr = np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, float))
        if np.any(arr < -1.0) or np.any(arr > 1.0):
            raise MapDomainError("map evaluation outside [-1, 1]")
        idx = np.searchsorted(self.critical_points, arr, side="left")
        out = np.empty_like(arr)
        for b, branch in enumerate(self.branches):
            mask = idx == b
            if np.any(mask):
                out[mask] = branch.forward(arr[mask])
        out = np.clip(out, -1.0, 1.0)
        return float(out) if np.ndim(x) == 0 else out


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
        sign=1 if alpha > 0 else -1,
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
        sign=1,
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


def _branch_on_circle(branch: Branch, index: int, circle: np.ndarray, radius: float):
    """Values of one inverse branch and its derivative on a closed circle.

    ``circle`` holds equispaced points of |z| = radius in angular order.
    Every value must be finite and no two neighbours (the last and the
    first included) may differ by 0.5 or more: principal-branch arccos
    crossing a cut produces an O(1) jump.  Raises BranchCutError otherwise,
    and ParameterError for a radius that is not positive (NaN included).
    """
    if not radius > 0:
        raise ParameterError("radius must be positive")
    values = []
    for name, fn in (("inverse", branch.inverse), ("inverse_derivative", branch.inverse_derivative)):
        vals = np.asarray(fn(circle))
        if not np.all(np.isfinite(vals)):
            raise BranchCutError(f"branch {index} {name} not finite on circle of radius {radius}")
        jump = float(np.abs(np.diff(vals, append=vals[:1])).max())
        if jump >= 0.5:
            raise BranchCutError(
                f"branch {index} {name} jumps by {jump:.3g} on circle of "
                f"radius {radius}; reduce the sampling radius"
            )
        values.append(vals)
    return values


def verify_branch_analyticity(imap: IntervalMap, radius: float) -> None:
    """Check inverse branches for branch-cut crossings on _ANALYTICITY_POINTS
    equispaced points of the circle |z| = radius, by the rule of
    ``_branch_on_circle``."""
    angles = np.linspace(0.0, 2.0 * np.pi, _ANALYTICITY_POINTS, endpoint=False)
    circle = radius * np.exp(1j * angles)
    for index, branch in enumerate(imap.branches):
        _branch_on_circle(branch, index, circle, radius)
