"""Experiment harness: spectrum matching, (N, M) sweeps, decay fits, CSV.

Experiments are described by flat ``key = value`` text files (``#`` starts
a comment, lists are comma-separated) and produce one CSV row per
requested eigenvalue index per grid cell.  Failures of individual cells
are recorded in the ``status`` column and never abort a sweep.
"""

from __future__ import annotations

import csv
import functools
import math
import re
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .edmd import (
    _MAX_COUNT,
    EdmdPair,
    build_finite,
    build_infinite,
    edmd_spectrum,
    node_schedule,
    nodes_equidistant,
)
from .errors import ConfigError, EdmdMapError, InsufficientDataError, ParameterError, RankTruncationWarning
from .maps import IntervalMap, exact_spectrum_values, make_blaschke, make_skewed_doubling
from .observables import FOURIER, MONOMIALS, ObservableBasis, fourier_cross_closed
from .spectral import Spectrum, eigenvalues

__all__ = [
    "MatchResult",
    "SweepConfig",
    "SweepRecord",
    "SweepPairs",
    "RadiusRecord",
    "match_spectra",
    "run_sweep",
    "fit_decay",
    "fourier_radius_study",
    "parse_config",
    "sweep_config",
    "write_records",
    "read_records",
    "write_radius_records",
    "figure_recipe",
    "FIGURE_NAMES",
]

CSV_HEADER = [
    "N",
    "M",
    "n",
    "re_approx",
    "im_approx",
    "re_exact",
    "im_exact",
    "delta",
    "delta_rank_paired",
    "eps_rank",
    "wall_ms",
    "status",
]


@dataclass(frozen=True, eq=False)
class MatchResult:
    """Greedy nearest-neighbour pairing of exact and approximate eigenvalues.

    ``delta[n]`` is the distance from the n-th exact eigenvalue to its
    greedily assigned (unused nearest) approximant ``matched[n]``;
    ``delta_rank[n]`` is the naive modulus-rank pairing distance, kept as a
    secondary column because plain rank pairing produces sorting artifacts
    near eigenvalue crossings.
    """

    delta: np.ndarray
    delta_rank: np.ndarray
    matched: np.ndarray


def match_spectra(
    approx: Spectrum | np.ndarray, exact: Spectrum | np.ndarray, k_max: int
) -> MatchResult:
    """Pair the leading k_max exact eigenvalues with approximants.

    Both inputs must already be sorted by descending modulus.
    """
    a = np.asarray(getattr(approx, "values", approx), dtype=complex)
    e = np.asarray(getattr(exact, "values", exact), dtype=complex)
    if k_max > min(a.size, e.size):
        raise ParameterError(
            f"k_max = {k_max} exceeds spectrum lengths ({a.size}, {e.size})"
        )
    delta = np.empty(k_max)
    matched = np.empty(k_max, dtype=complex)
    dist = np.abs(a - e[:k_max, np.newaxis])  # row n: |a - e[n]|
    for n in range(k_max):
        j = int(np.argmin(dist[n]))  # ties go to the first index
        delta[n] = dist[n, j]
        matched[n] = a[j]
        dist[n + 1 :, j] = np.inf  # a[j] is used
    delta_rank = np.abs(a[:k_max] - e[:k_max])
    return MatchResult(delta=delta, delta_rank=delta_rank, matched=matched)


@dataclass(frozen=True)
class SweepRecord:
    """One CSV row: requested eigenvalue index of one (N, M) cell."""

    n_observables: int
    m_nodes: int | None  # None encodes the infinite-node limit
    index: int
    approx: complex
    exact: complex
    delta: float
    delta_rank_paired: float
    eps_rank: int
    wall_ms: float
    status: str = "ok"


@dataclass(frozen=True)
class SweepConfig:
    """Declarative experiment grid over (map, basis, N, M); construction
    checks every range, and its errors name the config key."""

    imap: IntervalMap
    basis_kind: str
    n_values: tuple[int, ...]
    m_values: tuple[int | None, ...] = ()
    schedule: tuple[str, float] | None = None
    delta: float | None = None  # None selects the midpoint rule
    eigen_indices: tuple[int, ...] | None = (0,)  # None means all per cell

    def __post_init__(self) -> None:
        if not self.n_values:
            raise ConfigError("key 'N': need at least one size")
        # ObservableBasis checks the kind and each size; size 1 suits every kind
        for key, n in (("basis", 1), *(("N", n) for n in self.n_values)):
            try:
                ObservableBasis(self.basis_kind, n)
            except ParameterError as exc:
                raise ConfigError(f"key {key!r}: {exc}") from exc
        if bool(self.m_values) == (self.schedule is not None):
            raise ConfigError("need exactly one of the keys 'M' and 'schedule'")
        indices, n_min = self.eigen_indices, min(self.n_values)
        if indices is not None and not (indices and 0 <= min(indices) <= max(indices) < n_min):
            raise ConfigError(f"key 'eigen_indices': need indices in [0, min(N)), got {indices}")
        try:
            cells = self.cells()
        except (EdmdMapError, ArithmeticError, ValueError) as exc:
            raise ConfigError(f"key 'schedule': {exc}") from exc
        finite = [m for _, m in cells if m is not None]
        for m in finite:
            if not 1 <= m <= _MAX_COUNT:
                key = "M" if self.schedule is None else "schedule"
                raise ConfigError(f"key {key!r}: need node counts in [1, 2^62], got {m}")
        if self.delta is not None and not finite:
            raise ConfigError(f"key 'delta': {self.delta} needs a finite M, but every M is inf")
        if self.delta is not None and not all(0.0 <= self.delta <= 2.0 / m for m in finite):
            raise ConfigError(f"key 'delta': {self.delta} outside [0, 2/M] at M = {max(finite)}")

    def cells(self) -> list[tuple[int, int | None]]:
        if self.schedule is not None:
            rule, value = self.schedule
            if rule == "corollary1":
                return [(n, node_schedule(n, value)) for n in self.n_values]
            if rule == "quadratic":
                if not value > 0:
                    raise ParameterError(f"quadratic(c) needs c > 0, got {value}")
                return [(n, max(n, math.ceil(value * n * n))) for n in self.n_values]
            raise ConfigError(f"unknown rule {rule!r}; expected corollary1(R) or quadratic(c)")
        return [(n, m) for n in self.n_values for m in self.m_values]


class SweepPairs:
    """The pairs of a config's grid, one build per node count M.

    Each distinct M, the infinite-node limit None included, gets one build
    (build_infinite for None, build_finite otherwise) at the largest N that
    any cell at that M asks for, made when a cell at that M first needs it;
    every cell then takes the leading block.  Only the pair's N x N
    matrices are kept, never the observable tables.  A failed build is
    raised again for every cell at that M.
    """

    def __init__(self, config: SweepConfig) -> None:
        self._config = config
        self._n_max: dict[int | None, int] = {}
        for n, m in config.cells():
            self._n_max[m] = max(n, self._n_max.get(m, 0))
        self._built: dict[int | None, EdmdPair | EdmdMapError] = {}

    def pair(self, n: int, m: int | None) -> EdmdPair:
        if m not in self._built:
            config = self._config
            try:
                basis = ObservableBasis(config.basis_kind, self._n_max[m])
                if m is None:
                    self._built[m] = build_infinite(config.imap, basis)
                else:
                    nodes = nodes_equidistant(m, config.delta)
                    self._built[m] = build_finite(config.imap, basis, nodes)
            except EdmdMapError as exc:
                self._built[m] = exc
        built = self._built[m]
        if isinstance(built, EdmdMapError):
            # its old traceback holds the failed build's frames, and so its tables
            raise built.with_traceback(None)
        return built.leading(n)


def _run_cell(
    config: SweepConfig, pairs: SweepPairs, exact_values, n: int, m: int | None
) -> list[SweepRecord]:
    indices = config.eigen_indices if config.eigen_indices is not None else tuple(range(n))
    t0 = time.perf_counter()
    try:
        pair = pairs.pair(n, m)
        spec = edmd_spectrum(pair)
        k_max = max(indices) + 1
        exact = exact_values(k_max)
        match = match_spectra(spec, exact, k_max)
        # (approx, exact, delta, delta_rank_paired) per requested index
        values = [
            (complex(match.matched[i]), complex(exact[i]), float(match.delta[i]),
             float(match.delta_rank[i]))
            for i in indices
        ]
        eps_rank, status = spec.truncated_rank, "ok"
    except EdmdMapError as exc:
        values = [(0j, 0j, 0.0, 0.0)] * len(indices)
        eps_rank, status = 0, re.sub(r"[,\n]", ";", f"{type(exc).__name__}: {exc}")
    wall_ms = (time.perf_counter() - t0) * 1e3
    return [
        SweepRecord(n, m, i, *row, eps_rank=eps_rank, wall_ms=wall_ms, status=status)
        for i, row in zip(indices, values)
    ]


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate the whole grid, one cell after another; rows come back in
    grid order.  The cells at one M, inf included, share one pair
    (SweepPairs), and a cell's wall_ms includes that build only if the
    cell triggered it.  The exact values are computed once per k_max (a
    map without them fails each cell), and RankTruncationWarning is
    silenced for the sweep: a cell reports the truncation as eps_rank."""
    pairs = SweepPairs(config)
    exact_values = functools.cache(functools.partial(exact_spectrum_values, config.imap))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankTruncationWarning)
        return [record for n, m in config.cells()
                for record in _run_cell(config, pairs, exact_values, n, m)]


class FitResult(NamedTuple):
    slope: float
    intercept: float


def fit_decay(records: Iterable[SweepRecord], mode: str) -> FitResult:
    """Least-squares slope of log(delta) against log(M) ("algebraic") or
    against N ("exponential"), over records with positive delta."""
    if mode not in ("algebraic", "exponential"):
        raise ParameterError(f"unknown decay mode {mode!r}")
    xs, ys = [], []
    for rec in records:
        if rec.status != "ok" or not (rec.delta > 0 and math.isfinite(rec.delta)):
            continue
        if mode == "algebraic":
            if rec.m_nodes is None:
                continue
            xs.append(math.log(rec.m_nodes))
        else:
            xs.append(float(rec.n_observables))
        ys.append(math.log(rec.delta))
    if len(xs) < 3 or len(set(xs)) < 2:
        raise InsufficientDataError(f"need at least 3 usable records at 2 or more x values, "
                                    f"have {len(xs)} at {len(set(xs))}")
    slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return FitResult(slope=float(slope), intercept=float(intercept))


@dataclass(frozen=True)
class RadiusRecord:
    """Subleading Fourier-EDMD eigenvalue against the essential radius."""

    a: float
    n_observables: int
    abs_lambda1: float
    essential_radius: float
    product_log: float  # ln|lambda1| * ln N


def fourier_radius_study(
    a_values: Iterable[float], n_values: Iterable[int]
) -> list[RadiusRecord]:
    """|lambda_1| of the closed-form Fourier cross matrix per (a, N), with
    the essential-radius companion (1+|a|)/2 and the ln|lambda1|*ln N
    product used for the small-skew perturbation scaling.

    Each a gets one cross matrix, at the largest N; every N solves its
    leading N x N block, which is the N-size matrix entry for entry (the
    dictionary is prefix-nested and each entry depends on its modes only).
    """
    n_values = [ObservableBasis(FOURIER, n).size for n in n_values]  # an even N raises
    if not n_values:
        return []
    records = []
    for a in a_values:
        cross = fourier_cross_closed(a, max(n_values))
        for n in n_values:
            vals = eigenvalues(cross[:n, :n]).values
            lam1 = float(np.abs(vals[1])) if len(vals) > 1 else 0.0
            product = math.log(lam1) * math.log(n) if lam1 > 0 else float("-inf")
            records.append(
                RadiusRecord(
                    a=a,
                    n_observables=n,
                    abs_lambda1=lam1,
                    essential_radius=(1.0 + abs(a)) / 2.0,
                    product_log=product,
                )
            )
    return records


# ----------------------------------------------------------------------
# Plain-text configuration


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _schedule(text: str) -> tuple[str, float]:
    found = re.fullmatch(r"(\w+)\(([^)]+)\)", text.replace(" ", ""))
    if not found:
        raise ValueError("expected rule(value)")
    return found.group(1), float(found.group(2))


# map kind -> (the key holding its parameter, constructor)
_MAPS = {"skewed_doubling": ("a", make_skewed_doubling), "blaschke": ("mu", make_blaschke)}

# Every accepted key: the reader of its text value and the commands that read it.
# Names and ranges are checked by SweepConfig and map_from_config, as for figure recipes.
_ALL = ("sweep", "spectrum", "bounds")
CONFIG_KEYS = {
    "map": (str, _ALL),
    "a": (float, _ALL),
    "mu": (float, _ALL),
    "basis": (str, _ALL),
    "N": (_int_list, _ALL),
    "M": (lambda t: tuple(None if p.strip() == "inf" else int(p) for p in t.split(",")), _ALL),
    "schedule": (_schedule, _ALL),
    "delta": (float, _ALL),
    "eigen_indices": (lambda text: None if text == "all" else _int_list(text), ("sweep",)),
    "r": (float, ("bounds",)),
    "R_disk": (float, ("bounds",)),
}


def parse_config(text: str, command: str) -> dict[str, object]:
    """Parse flat ``key = value`` lines ('#' starts a comment) into typed
    values.  A key outside CONFIG_KEYS, a value its reader rejects or, once
    all lines have parsed, a key ``command`` does not read is a ConfigError."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: cannot read {value!r}: {exc}") from exc
    for key in out:
        if command not in CONFIG_KEYS[key][1]:
            raise ConfigError(f"key {key!r} is not read by {command}")
    return out


def map_from_config(cfg: dict[str, object]) -> IntervalMap:
    """The interval map a parsed config names, with its optional (r, R_disk)."""
    kind = cfg.get("map")
    if kind not in _MAPS:
        raise ConfigError(f"key 'map': expected one of {', '.join(_MAPS)}, got {kind!r}")
    param, make = _MAPS[kind]
    for other, _ in _MAPS.values():
        if other != param and other in cfg:
            raise ConfigError(f"key {other!r} is not read by map = {kind}")
    if param not in cfg:
        raise ConfigError(f"map = {kind} needs key {param!r}")
    if ("r" in cfg) != ("R_disk" in cfg):
        raise ConfigError("keys 'r' and 'R_disk' must be given together")
    try:
        imap = make(cfg[param])
        return replace(imap, expansion_params=(cfg["r"], cfg["R_disk"])) if "r" in cfg else imap
    except ParameterError as exc:
        raise ConfigError(f"key {param!r}, 'r' or 'R_disk': {exc}") from exc


def sweep_config(cfg: dict[str, object]) -> SweepConfig:
    """Build a SweepConfig from the typed values of parse_config."""
    return SweepConfig(
        imap=map_from_config(cfg),
        basis_kind=cfg.get("basis", MONOMIALS),
        n_values=cfg.get("N", ()),
        m_values=cfg.get("M", ()),
        schedule=cfg.get("schedule"),
        delta=cfg.get("delta"),
        eigen_indices=cfg.get("eigen_indices", (0,)),
    )


def sweep_config_from_text(text: str) -> SweepConfig:
    """Build a SweepConfig from the plain-text experiment format."""
    return sweep_config(parse_config(text, "sweep"))


def read_config_text(path: str | Path) -> str:
    """The text of a config file; one that cannot be read as UTF-8 text
    (missing, a directory, no permission, other bytes) is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc


def sweep_config_from_file(path: str | Path) -> SweepConfig:
    return sweep_config_from_text(read_config_text(path))


# ----------------------------------------------------------------------
# CSV emission

def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write the header and the rows; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write CSV file {str(path)!r}: {exc}") from exc


def write_records(records: Iterable[SweepRecord], path: str | Path) -> None:
    _write_csv(path, CSV_HEADER, (
        [rec.n_observables, "inf" if rec.m_nodes is None else rec.m_nodes, rec.index,
         _fmt(rec.approx.real), _fmt(rec.approx.imag), _fmt(rec.exact.real), _fmt(rec.exact.imag),
         _fmt(rec.delta), _fmt(rec.delta_rank_paired), rec.eps_rank, _fmt(rec.wall_ms), rec.status]
        for rec in records
    ))


def read_records(path: str | Path) -> list[SweepRecord]:
    """Inverse of write_records, exactly; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read CSV file {str(path)!r}: {exc}") from exc
    records = []
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ConfigError(f"{path}: unexpected CSV header {header!r}")
    for row in reader:
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{len(row)} fields, not {len(CSV_HEADER)}")
            records.append(
                SweepRecord(
                    n_observables=int(row[0]),
                    m_nodes=None if row[1] == "inf" else int(row[1]),
                    index=int(row[2]),
                    approx=complex(float(row[3]), float(row[4])),
                    exact=complex(float(row[5]), float(row[6])),
                    delta=float(row[7]),
                    delta_rank_paired=float(row[8]),
                    eps_rank=int(row[9]),
                    wall_ms=float(row[10]),
                    status=row[11],
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return records


def write_radius_records(records: Iterable[RadiusRecord], path: str | Path) -> None:
    _write_csv(path, ["a", "N", "abs_lambda1", "essential_radius", "product_lnl1_lnN"], (
        [_fmt(rec.a), rec.n_observables, _fmt(rec.abs_lambda1), _fmt(rec.essential_radius),
         _fmt(rec.product_log)]
        for rec in records
    ))


# ----------------------------------------------------------------------
# Bundled figure recipes at the reference parameters a = 1/sqrt(2) and
# mu = 0.3; see README for the grid choices

_SKEW = 1.0 / math.sqrt(2.0)
FIGURE_NAMES = ("fig1.1L", "fig1.1R", "fig2.1", "fig2.2", "fig2.3", "fig2.4", "fig2.5")


def _log_m_grid(lo_exp: float, hi_exp: float, per_decade: int, even: bool) -> tuple[int, ...]:
    count = int(round((hi_exp - lo_exp) * per_decade)) + 1
    ms = []
    for expo in np.linspace(lo_exp, hi_exp, count):
        m = int(round(10**expo))
        if even:
            m = max(2, 2 * ((m + 1) // 2))
        ms.append(m)
    return tuple(dict.fromkeys(ms))


def figure_recipe(name: str):
    """Experiment grid behind one of the bundled fig* data sets.

    Returns ("sweep", SweepConfig) or ("radius", a_values, n_values).
    """
    if name == "fig1.1L":
        # Fourier-observable eigenvalue scatter; odd sizes nearest 50 / 20
        return "sweep", SweepConfig(
            imap=make_skewed_doubling(_SKEW),
            basis_kind=FOURIER,
            n_values=(21, 49),
            m_values=(5000, 10_000),
            eigen_indices=None,
        )
    if name == "fig1.1R":
        return "sweep", SweepConfig(
            imap=make_skewed_doubling(_SKEW),
            basis_kind=MONOMIALS,
            n_values=(5, 10),
            m_values=(10_000,),
            eigen_indices=None,
        )
    if name == "fig2.1":
        return "sweep", SweepConfig(
            imap=make_skewed_doubling(_SKEW),
            basis_kind=MONOMIALS,
            n_values=(5, 6),
            m_values=_log_m_grid(2.0, 5.0, 4, even=False),
            eigen_indices=(1, 2),
        )
    if name == "fig2.2":
        return "sweep", SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=MONOMIALS,
            n_values=tuple(range(6, 26)),
            m_values=(None,),
            eigen_indices=(1, 2, 3, 4, 5),
        )
    if name == "fig2.3":
        return "sweep", SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=MONOMIALS,
            n_values=(15,),
            m_values=_log_m_grid(2.0, 5.0, 4, even=True),
            eigen_indices=(1, 2, 3, 4, 5),
        )
    if name == "fig2.4":
        return "sweep", SweepConfig(
            imap=make_blaschke(0.3),
            basis_kind=MONOMIALS,
            n_values=(4, 6, 8, 10, 12, 14, 16),
            m_values=_log_m_grid(2.0, 5.0, 3, even=True),
            eigen_indices=(1, 2),
        )
    if name == "fig2.5":
        a_values = tuple(np.round(np.arange(0.05, 0.96, 0.05), 2)) + (1e-16,)
        return "radius", a_values, (33, 65, 129)
    raise ConfigError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")
