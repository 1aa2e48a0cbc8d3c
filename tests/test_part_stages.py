"""Every run_parts call in the package sits in a stage that the rstcnn.parts docstring lists."""

import ast
import re
from pathlib import Path

import rstcnn.parts

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rstcnn"


def listed_stages():
    """The (module, function) of each "- module.function" bullet of the parts docstring."""
    return set(re.findall(r"^- (\w+)\.(\w+) ", rstcnn.parts.__doc__, flags=re.MULTILINE))


def run_parts_callers(source, module):
    """The (module, top-level function) around each run_parts call in source; None for one outside any function."""
    callers = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call):
                func = inner.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "run_parts":
                    callers.append((module, name))
    return callers


def test_run_parts_callers_find_nested_and_attribute_calls():
    source = (
        "def stage(n):\n"
        "    def part(lo, hi):\n"
        "        run_parts(f, 2)\n"
        "    parts.run_parts(part, n)\n"
        "run_parts(g, 3)\n"
        "def plain():\n"
        "    return run(1)\n"
    )
    assert run_parts_callers(source, "m") == [("m", "stage"), ("m", "stage"), ("m", None)]


def test_every_run_parts_call_is_a_listed_stage():
    stages = listed_stages()
    assert stages == {("net", "_group_correlate"), ("analysis", "filter_bound_report")}
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= set(run_parts_callers(path.read_text(encoding="utf-8"), path.stem))
    assert callers - stages == set(), "a run_parts call outside the stages the parts docstring lists; list it with its measured gain"
    assert stages - callers == set(), "the parts docstring lists a stage that no longer calls run_parts"
