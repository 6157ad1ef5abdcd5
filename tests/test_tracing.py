"""The benchmark still runs on the library.

``perfbench/tracing.py`` looks library functions up by name, and
``perfbench/workloads.py`` writes config files; a rename, a deletion or a
removed config key in ``src/edmdmap`` would otherwise show only in the slow
benchmark self-test.  Both modules are imported from their files and never
modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import edmdmap
from edmdmap import bench, cli, edmd, maps, observables, spectral, transfer
from edmdmap.maps import make_skewed_doubling
from edmdmap.observables import monomial_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HOLDERS = (edmdmap, maps, observables, spectral, edmd, transfer, bench, cli)


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return _load(monkeypatch, "tracing")


def _snapshot():
    return {(holder.__name__, attr): getattr(holder, attr)
            for holder in HOLDERS for attr in dir(holder) if callable(getattr(holder, attr))}


def test_tracer_targets_resolve_and_restore(tracing):
    targets = tracing._targets()
    for module, attr, _, _ in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is traced but missing"
    before = _snapshot()
    call = maps.IntervalMap.__call__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _, _ in targets:
            assert getattr(module, attr).__wrapped__ is before[(module.__name__, attr)]
        assert maps.IntervalMap.__call__.__wrapped__ is call
        # one infinite monomial cell exercises the counters that read pair fields
        spec = edmd.edmd_spectrum(edmd.build_infinite(make_skewed_doubling(0.3), monomial_basis(4)))
        assert len(spec) == 4
        assert tracer.counts["edmd.ext_route_cells"] == 1
        assert tracer.counts["spectral.qr_ext_calls"] == 1
        assert {"edmd.build_infinite", "edmd.solve", "spectral.qr_ext"} <= {s[0] for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert maps.IntervalMap.__call__ is call


@pytest.mark.parametrize("seed", [0, 1])
def test_workload_configs_parse(monkeypatch, tmp_path, seed):
    workloads = _load(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        inputs = workloads.build_inputs(name, seed, tmp_path / name)
        assert inputs.sweeps
        for sweep in inputs.sweeps:
            config = bench.sweep_config_from_file(sweep.config_path)
            recipe = bench.figure_recipe(sweep.label)[1]
            assert config.cells() == recipe.cells(), sweep.label
            assert config.basis_kind == recipe.basis_kind
            assert config.eigen_indices == recipe.eigen_indices


def test_finite_sweep_builds_one_pair_per_m(tracing):
    # edmd.gemm spans and gemm_flops count the per-M builds that run_sweep shares
    config = bench.SweepConfig(
        imap=make_skewed_doubling(0.3),
        basis_kind="monomials",
        n_values=(3, 6, 4),
        m_values=(50, None, 120),
        eigen_indices=(0,),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = bench.run_sweep(config)
    finally:
        tracer.uninstall()
    assert all(rec.status == "ok" for rec in records)
    assert [s[0] for s in tracer.spans].count("edmd.gemm") == 2
    assert tracer.counts["edmd.gemm_flops"] == 4 * 6 * 6 * 50 + 4 * 6 * 6 * 120
