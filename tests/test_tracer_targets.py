"""The traced benchmark's targets still exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    # perfbench/run.py --trace 1 wraps rstcnn.<module>.<function> for each
    # entry of its TARGETS; a refactor that drops one breaks that run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"rstcnn.{module}.{function}"
        for module, function, *_ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"rstcnn.{module}"), function, None))
    ]
    assert len(tracer.TARGETS) > 0 and missing == []
