"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload reproduces bundled figure recipes. Sweeps are written as
config files and run through ``edmdmap.cli.main(["sweep", ...])`` in this
process; the remaining figure data come from library calls. Seed 0 uses the
reference parameters a = 1/sqrt(2), mu = 0.3; any other seed draws
a in [0.5, 0.8] and mu in [0.2, 0.3] and keeps every grid of the recipes.

Module attributes are looked up at call time (``cli.main``,
``transfer.transfer_matrix_analytic``, ...), so the tracer in ``tracing.py``
sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

# Why each workload exists is recorded in BENCHMARK.json and trajectory.json.
WORKLOADS = ("finite_grid", "infinite_spectra", "fourier_dense")

REFERENCE_A = 1.0 / math.sqrt(2.0)
REFERENCE_MU = 0.3

# N grids of the transfer-matrix spectra in infinite_spectra, and how many
# leading eigenvalues are matched against the exact spectrum.
CAUCHY_N = (10, 15, 20, 25)
AFFINE_N = (10, 20, 30, 40)
L_LEADING = 6

# Acceptance windows taken from the paper's criteria (tests/test_acceptance.py).
FIG21_SLOPE = (-1.4, -0.6)
FIG23_SLOPE = (-2.5, -1.5)
FIG22_RATIO = 1e-2
FIG25_RADIUS_TOL = 0.1
FIG25_A_RANGE = (0.2, 0.8)
# Criterion 6 states the radius window at N = 81; at N = 33 and 65 the
# finite-N |lambda_1| of a <= 0.25 still sits 0.10-0.12 below (1+a)/2.
FIG25_MIN_N = 81
# Leading-6 L_N deltas count as "not growing" while they stay below the
# previous N's value or below this rounding floor.
L_DELTA_FLOOR = 1e-12


def draw_params(seed: int) -> tuple[float, float]:
    """(a, mu) for a seed: the paper's reference values at seed 0."""
    if seed == 0:
        return REFERENCE_A, REFERENCE_MU
    rng = random.Random(seed)
    # make_blaschke rejects mu > 0.3, which 0.2 + 0.1 * u can round to
    return rng.uniform(0.5, 0.8), min(rng.uniform(0.2, 0.3), REFERENCE_MU)


@dataclass
class Sweep:
    """One figure recipe as a generated config file and its expected row order."""

    label: str
    config_path: Path
    out_path: Path
    expected: list[tuple[int, int | None, int]]


@dataclass
class Inputs:
    name: str
    sweeps: list[Sweep]
    # library-call inputs, by workload
    blaschke: object = None
    skewed: object = None
    radius_grid: tuple = ()


@dataclass
class PassResult:
    """What one pass produced: the deltas of its ok rows and its check outcomes."""

    deltas: list[float] = field(default_factory=list)
    cells: int = 0
    failed_cells: int = 0
    checks: dict[str, bool] = field(default_factory=dict)


def _config_text(param: float, config) -> str:
    kind = config.imap.spectrum_kind
    m_values = ",".join("inf" if m is None else str(m) for m in config.m_values)
    indices = config.eigen_indices
    return "\n".join(
        [
            f"map = {kind}",
            f"{'mu' if kind == 'blaschke' else 'a'} = {param!r}",
            f"basis = {config.basis_kind}",
            f"N = {','.join(str(n) for n in config.n_values)}",
            f"M = {m_values}",
            f"eigen_indices = {'all' if indices is None else ','.join(map(str, indices))}",
            "",
        ]
    )


def _make_sweep(label: str, a: float, mu: float, workdir: Path) -> Sweep:
    """The recipe's grid on the seed's map parameter, as a config file."""
    from edmdmap import bench

    config = bench.figure_recipe(label)[1]
    param = mu if config.imap.spectrum_kind == "blaschke" else a
    config_path = workdir / f"{label}.cfg"
    config_path.write_text(_config_text(param, config))
    expected = [
        (n, m, i)
        for n, m in config.cells()
        for i in (range(n) if config.eigen_indices is None else config.eigen_indices)
    ]
    return Sweep(label, config_path, workdir / f"{label}.csv", expected)


def build_inputs(name: str, seed: int, workdir: Path) -> Inputs:
    """Everything a pass needs, made before the first timed call."""
    import edmdmap

    a, mu = draw_params(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(name=name, sweeps=[])
    if name == "finite_grid":
        inputs.sweeps = [
            _make_sweep("fig1.1R", a, mu, workdir),
            _make_sweep("fig2.1", a, mu, workdir),
            _make_sweep("fig2.3", a, mu, workdir),
            _make_sweep("fig2.4", a, mu, workdir),
        ]
    elif name == "infinite_spectra":
        inputs.sweeps = [_make_sweep("fig2.2", a, mu, workdir)]
        inputs.blaschke = edmdmap.make_blaschke(mu)
        inputs.skewed = edmdmap.make_skewed_doubling(a)
    elif name == "fourier_dense":
        inputs.sweeps = [_make_sweep("fig1.1L", a, mu, workdir)]
        _, a_values, n_values = edmdmap.figure_recipe("fig2.5")
        inputs.radius_grid = (a_values, n_values)
    else:
        raise KeyError(name)
    return inputs


def run_pass(inputs: Inputs) -> dict:
    """The timed part: every program call of one pass. Returns raw outputs."""
    from edmdmap import bench, cli, edmd, observables, spectral, transfer

    out = {"exit_codes": []}
    for sweep in inputs.sweeps:
        argv = ["sweep", "--config", str(sweep.config_path), "--out", str(sweep.out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            out["exit_codes"].append(cli.main(argv))
    if inputs.name == "infinite_spectra":
        # fig2.2's grid starts at N = 6; criterion 4 compares against N = 5
        pair = edmd.build_infinite(inputs.blaschke, observables.monomial_basis(5))
        out["fig2.2_n5"] = edmd.edmd_spectrum(pair)
        spectra = {}
        for n in CAUCHY_N:
            tm = transfer.transfer_matrix_analytic(inputs.blaschke, n)
            spectra[("cauchy", n)] = spectral.eigenvalues(tm.l)
        for n in AFFINE_N:
            tm = transfer.transfer_matrix_affine(inputs.skewed, n)
            spectra[("affine", n)] = spectral.eigenvalues(tm.l)
        out["l_spectra"] = spectra
    if inputs.name == "fourier_dense":
        out["radius"] = bench.fourier_radius_study(*inputs.radius_grid)
    return out


def _slope_ok(records, n: int, window: tuple[float, float]) -> bool:
    from edmdmap import bench

    rows = [r for r in records if r.n_observables == n and r.index == 1]
    slope = bench.fit_decay(rows, "algebraic").slope
    return window[0] <= slope <= window[1]


def check_pass(inputs: Inputs, out: dict) -> PassResult:
    """Read back every output of a pass and apply the output checks."""
    from edmdmap import bench, maps

    result = PassResult()
    by_label = {}
    for sweep, code in zip(inputs.sweeps, out["exit_codes"]):
        records = bench.read_records(sweep.out_path)
        by_label[sweep.label] = records
        # one cell per distinct (N, M); a failed cell fails all its rows
        cells = {(r.n_observables, r.m_nodes) for r in records}
        bad = {(r.n_observables, r.m_nodes) for r in records if r.status != "ok"}
        result.cells += len(cells)
        result.failed_cells += len(bad)
        result.deltas += [r.delta for r in records if r.status == "ok"]
        fd, copy = tempfile.mkstemp(dir=sweep.out_path.parent, suffix=".csv")
        os.close(fd)
        try:
            bench.write_records(records, copy)
            same = Path(copy).read_bytes() == sweep.out_path.read_bytes()
        finally:
            os.unlink(copy)
        grid = [(r.n_observables, r.m_nodes, r.index) for r in records]
        result.checks[f"{sweep.label}.csv"] = code == 0 and same and grid == sweep.expected

    if "fig2.1" in by_label:
        for n in (5, 6):
            result.checks[f"fig2.1.slope_N{n}"] = _slope_ok(by_label["fig2.1"], n, FIG21_SLOPE)
    if "fig2.3" in by_label:
        result.checks["fig2.3.slope"] = _slope_ok(by_label["fig2.3"], 15, FIG23_SLOPE)
    if "fig2.2" in by_label:
        delta1 = {r.n_observables: r.delta for r in by_label["fig2.2"] if r.index == 1}
        exact = maps.exact_spectrum_values(inputs.blaschke, 2)
        delta1[5] = float(bench.match_spectra(out["fig2.2_n5"], exact, 2).delta[1])
        result.checks["fig2.2.ratio"] = delta1[20] / delta1[5] < FIG22_RATIO
    if "l_spectra" in out:
        for family, imap, n_grid in (
            ("cauchy", inputs.blaschke, CAUCHY_N),
            ("affine", inputs.skewed, AFFINE_N),
        ):
            exact = maps.exact_spectrum_values(imap, L_LEADING)
            worst = []
            for n in n_grid:
                delta = bench.match_spectra(out["l_spectra"][(family, n)], exact, L_LEADING).delta
                result.deltas += [float(d) for d in delta]
                worst.append(float(delta.max()))
            result.checks[f"L_N.{family}"] = all(
                cur <= max(prev, L_DELTA_FLOOR) for prev, cur in zip(worst, worst[1:])
            )
    if "radius" in out:
        lo, hi = FIG25_A_RANGE
        result.checks["fig2.5.radius"] = all(
            abs(rec.abs_lambda1 - rec.essential_radius) < FIG25_RADIUS_TOL
            for rec in out["radius"]
            if lo - 1e-9 <= rec.a <= hi + 1e-9 and rec.n_observables >= FIG25_MIN_N
        )
    return result
