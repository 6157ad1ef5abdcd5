"""The benchmark's tracer still finds every library function it wraps.

``perfbench/tracing.py`` looks library functions up by name; a rename or a
deletion in ``src/edmdmap`` would otherwise show only in the slow benchmark
self-test.  The tracer is imported from its file and never modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import edmdmap
from edmdmap import bench, cli, edmd, maps, observables, spectral, transfer
from edmdmap.maps import make_skewed_doubling
from edmdmap.observables import monomial_basis

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
HOLDERS = (edmdmap, maps, observables, spectral, edmd, transfer, bench, cli)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        assert {"edmd.build_infinite", "edmd.solve", "spectral.qr_ext"} <= {s[0] for s in tracer.spans}
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert maps.IntervalMap.__call__ is call
