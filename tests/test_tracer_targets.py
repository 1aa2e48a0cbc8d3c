"""The traced benchmark's targets still exist in the package."""

import importlib
import importlib.util
import math
import threading
from pathlib import Path

import numpy as np

import rstcnn.parts
import rstcnn.analysis
import rstcnn.basis
import rstcnn.net
from conftest import small_net
from rstcnn import (
    FeatureMap,
    ImageTensor,
    LayerSpec,
    build_basis,
    disk_quadrature,
    filter_bound_report,
    init_coeffs,
    layer_basis,
    sample_filter_bank,
)

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
    # parent links of its spans.  The parts of a bounds report assemble basis
    # blocks, so it runs on a lifting and a joint layer too.
    tracer = _tracer_module().Tracer()
    opened_in = []
    open_span = tracer._open
    monkeypatch.setattr(tracer, "_open", lambda name: opened_in.append(threading.current_thread()) or open_span(name))
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 3)
    # per stage, the threads that assembled basis blocks or ran the radial Bessel call
    worked_in = [set()]
    fill = rstcnn.basis.SpatialRecipe.fill
    monkeypatch.setattr(rstcnn.basis.SpatialRecipe, "fill", lambda *a: worked_in[-1].add(threading.current_thread()) or fill(*a))
    bessel_j = rstcnn.basis.bessel_j
    monkeypatch.setattr(rstcnn.basis, "bessel_j", lambda *a: worked_in[-1].add(threading.current_thread()) or bessel_j(*a))
    basis = build_basis("fb", 10)
    net = small_net(layers=2, channels=2, K=5, L_alpha=3)
    coeffs = init_coeffs(net, seed=0)
    quad = disk_quadrature(layer_basis(net, 0), 42)
    quad.recipe.chunk = 200  # several blocks of the rule's 1,764 nodes, the last one short
    stages = [
        lambda: disk_quadrature(basis),
        lambda: sample_filter_bank(basis, 8, 9, 1.0, 9, layer_scale=2.0),
        *(lambda layer=layer: filter_bound_report([coeffs[layer]], [layer_basis(net, layer)], [net.layers[layer]], quad) for layer in (0, 1)),
    ]
    tracer.install()
    try:
        for stage in stages:
            worked_in.append(set())
            stage()
    finally:
        tracer.uninstall()
    main = threading.main_thread()
    # both reports' blocks run on pool threads; the quadrature's one radial
    # Bessel call and the bank's chunks run on the caller's thread, as every
    # basis evaluation outside a bounds report does
    assert [len(threads - {main}) > 0 for threads in worked_in[1:]] == [False, False, True, True]
    assert {t.name for t in opened_in} <= {main.name}
    assert tracer._stack == []


def test_correlation_row_passes_call_no_traced_function(monkeypatch):
    # The row passes of net._group_correlate run on the part pool: each forms
    # its row's filter spectra, so the spectra helper marks where rows ran.
    # Like the basis parts, they must open no span there.
    tracer = _tracer_module().Tracer()
    opened_in = []
    open_span = tracer._open
    monkeypatch.setattr(tracer, "_open", lambda name: opened_in.append(threading.current_thread()) or open_span(name))
    monkeypatch.setattr(rstcnn.parts, "_PARTS", 3)
    rows_in = [set()]  # per stage, the threads that ran rows
    row_spectra = rstcnn.net._row_spectra
    monkeypatch.setattr(rstcnn.net, "_row_spectra", lambda *a: rows_in[-1].add(threading.current_thread()) or row_spectra(*a))
    rng = np.random.default_rng(58)
    spec = LayerSpec(2, 2, 1, 5, L_theta=2, L_alpha=2)
    feat = FeatureMap(rng.standard_normal((2, 2, 4, 3, 9, 8)), math.pi / 2, np.linspace(-1.0, 1.0, 3))
    bias = np.zeros(2)
    stages = [
        lambda: rstcnn.net.lifting_conv(ImageTensor(rng.standard_normal((2, 2, 9, 8))), rng.standard_normal((2, 2, 4, 3, 5, 5)), bias, feat.scale_grid),
        lambda: rstcnn.net.joint_conv(feat, rng.standard_normal((2, 2, 4, 2, 3, 2, 5, 5)), bias, spec),
    ]
    tracer.install()
    try:
        for stage in stages:
            rows_in.append(set())
            stage()
    finally:
        tracer.uninstall()
    main = threading.main_thread()
    assert [len(threads - {main}) > 0 for threads in rows_in[1:]] == [True, True]
    assert [t.name for t in opened_in] == [main.name, main.name]
    assert tracer._stack == []
