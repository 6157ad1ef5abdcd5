"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each public function of ``src/edmdmap`` by a
wrapper in every module that holds a reference to it (``from .x import f``
copies it into ``edmd``, ``bench``, ``cli``, ``transfer`` and the package
namespace), replaces ``spectral.qr_eigenvalues`` through the module global
that ``eigenvalues`` calls, and wraps ``IntervalMap.__call__`` on the class.
Each wrapper records a span (name, start, end, parent) in memory; spans are
written out only when the run ends. ``uninstall()`` restores the originals,
so traced and untraced passes can alternate in one process.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

_EXTENDED = (np.longdouble, np.clongdouble)


def _eig_span(args, kwargs) -> str:
    # eigenvalues() dispatches on dtype: LAPACK, or the in-house 80-bit QR.
    # Both the dispatch and the QR itself count as the extended route.
    a = args[0] if args else kwargs["a"]
    return "spectral.qr_ext" if np.asarray(a).dtype in _EXTENDED else "spectral.eig_lapack"


def _count_forward(counts, args, kwargs, result):
    counts["maps.forward_points"] += int(np.size(args[1]))


def _count_basis(counts, args, kwargs, result):
    counts["observables.eval_basis_calls"] += 1
    counts["observables.basis_values"] += int(args[0].size * np.size(args[1]))


def _count_gemm(counts, args, kwargs, result):
    n, m = result.size, args[2].m
    counts["edmd.gemm_flops"] += 4 * n * n * m


def _count_solve(counts, args, kwargs, result):
    pair = args[0]
    if result.truncated_rank > 0:
        counts["edmd.truncated_cells"] += 1
    elif pair.h_ext is not None:
        counts["edmd.ext_route_cells"] += 1


def _count_eig(counts, args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    if a.dtype not in _EXTENDED:
        counts["spectral.eig_lapack_calls"] += 1
        counts["spectral.eig_n3"] += a.shape[0] ** 3


def _count_qr(counts, args, kwargs, result):
    counts["spectral.qr_ext_calls"] += 1


def _count_cauchy(counts, args, kwargs, result):
    from edmdmap.transfer import DEFAULT_SAMPLES

    samples = args[4] if len(args) > 4 else kwargs.get("samples", DEFAULT_SAMPLES)
    # coarse pass at `samples` points plus the doubling check at 2*samples,
    # on every inverse branch
    counts["transfer.circle_samples"] += 3 * samples * args[0].n_branches


def _count_csv(counts, args, kwargs, result):
    counts["bench.csv_bytes"] += Path(args[1]).stat().st_size


# (module, attribute, span name or name(args, kwargs), counter)
def _targets():
    from edmdmap import bench, cli, edmd, maps, observables, spectral, transfer

    return [
        (maps, "verify_branch_analyticity", "maps.analyticity", None),
        (maps, "make_blaschke", "maps.build", None),
        (maps, "make_skewed_doubling", "maps.build", None),
        (maps, "exact_spectrum_values", "maps.exact", None),
        (observables, "eval_basis", "observables.eval_basis", _count_basis),
        (observables, "gram_infinite", "observables.gram", None),
        (observables, "fourier_cross_closed", "observables.fourier_cross", None),
        (edmd, "nodes_equidistant", "edmd.nodes", None),
        (edmd, "build_finite", "edmd.gemm", _count_gemm),
        (edmd, "cross_gram_quadrature", "edmd.quadrature", None),
        (edmd, "build_infinite", "edmd.build_infinite", None),
        (edmd, "edmd_spectrum", "edmd.solve", _count_solve),
        (spectral, "eigenvalues", _eig_span, _count_eig),
        (spectral, "qr_eigenvalues", "spectral.qr_ext", _count_qr),
        (spectral, "solve_gauss", "spectral.solve_gauss", None),
        (spectral, "pseudoinverse", "spectral.pinv", None),
        (transfer, "transfer_matrix_analytic", "transfer.cauchy", _count_cauchy),
        (transfer, "transfer_matrix_affine", "transfer.affine", None),
        (bench, "sweep_config_from_file", "bench.config", None),
        (bench, "match_spectra", "bench.match", None),
        (bench, "write_records", "bench.csv_write", _count_csv),
        (bench, "run_sweep", "bench.sweep", None),
        (bench, "fourier_radius_study", "bench.radius", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Span recorder for one process; single-threaded, so a stack gives parents."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self.spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import edmdmap
        from edmdmap import bench, cli, edmd, maps, observables, spectral, transfer

        holders = (edmdmap, maps, observables, spectral, edmd, transfer, bench, cli)
        for module, attr, name, counter in _targets():
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for holder in holders:
                if getattr(holder, attr, None) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        original_call = maps.IntervalMap.__call__
        self._saved.append((maps.IntervalMap, "__call__", original_call))
        maps.IntervalMap.__call__ = self._wrap(original_call, "maps.forward", _count_forward)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []


def self_times_ms(spans: list[list]) -> Counter:
    """Self time per span name: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Counter = Counter()
    for (name, start, end, _), covered in zip(spans, child):
        totals[name] += (end - start - covered) * 1e3
    return totals


def root_ms(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0) * 1e3
