"""The traced benchmark's targets still exist in the package."""

import importlib
import importlib.util
import threading
from pathlib import Path

import rstcnn.parts
from rstcnn import build_basis, disk_quadrature, sample_filter_bank

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    # perfbench/run.py --trace 1 wraps rstcnn.<module>.<function> for each
    # entry of its TARGETS; a refactor that drops one breaks that run
    tracer = _tracer_module()
    missing = [
        f"rstcnn.{module}.{function}"
        for module, function, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"rstcnn.{module}"), function, None))
    ]
    assert len(tracer.TARGETS) > 0 and missing == []


def test_basis_evaluation_parts_call_no_traced_function(monkeypatch):
    # The tracer keeps one span stack for all threads, so a traced function
    # (bessel_j, say) called inside a part of the pool would corrupt the
    # parent links of its spans.
    tracer = _tracer_module().Tracer()
    opened_in = []
    open_span = tracer._open
    monkeypatch.setattr(tracer, "_open", lambda name: opened_in.append(threading.current_thread()) or open_span(name))
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 3)
    basis = build_basis("fb", 10)
    tracer.install()
    try:
        disk_quadrature(basis, 41)
        sample_filter_bank(basis, 8, 9, 1.0, 9, layer_scale=2.0)
    finally:
        tracer.uninstall()
    assert {t.name for t in opened_in} <= {threading.main_thread().name}
    assert tracer._stack == []
