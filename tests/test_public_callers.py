"""Every public function of the package has a caller in src/, scripts/ or perfbench/, or a reason to stay."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rstcnn"
CALLER_DIRS = ("src", "scripts", "perfbench")

# (module, function) -> why it stays without a caller in those directories
ALLOWED = {
    ("analysis", "equivariance_error"): "acceptance API: tests/test_acceptance.py measures criterion 3 with it",
    ("analysis", "isometry_deviation"): "acceptance API: tests/test_acceptance.py measures criterion 6 with it",
    ("container", "read_bank"): "acceptance API: tests/test_acceptance.py round-trips the container with it",
    ("data", "parse_idx_images"): "acceptance API: tests/test_acceptance.py round-trips IDX images with it",
    ("basis", "eval_spatial"): "perfbench/tracer.py wraps it by name, as a string in TARGETS",
    ("basis", "eval_spatial_grad"): "perfbench/tracer.py wraps it by name, as a string in TARGETS",
    ("group", "compose"): "group law kept for certifying off-lattice elements (ROADMAP item 7)",
    ("group", "inverse"): "group law kept for certifying off-lattice elements (ROADMAP item 7)",
    ("data", "synthetic_blob_set"): "test data helper: the tests draw labelled image sets from it",
    ("data", "smooth_feature_values"): "test data helper: the tests draw smooth feature maps from it",
}


def public_functions():
    """The (module, name) of every top-level function of the package without a leading underscore."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found.add((path.stem, node.name))
    return found


def referenced_names(source):
    """The names and attribute names source reads, except a function's reads of its own name inside itself."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return names


def test_referenced_names_skip_imports_strings_and_self_calls():
    source = (
        "from .net import forward\n"
        "__all__ = ['draw']\n"
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "basis.eval_spatial_stack(e, p)\n"
        "layer_bank(net)\n"
    )
    assert referenced_names(source) == {"basis", "eval_spatial_stack", "e", "p", "layer_bank", "net", "n", "__all__"}


def test_every_public_function_has_a_caller_or_a_reason():
    called = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            called |= referenced_names(path.read_text(encoding="utf-8"))
    uncalled = {key for key in public_functions() if key[1] not in called}
    assert uncalled - set(ALLOWED) == set(), "a public function has no caller outside the tests; delete it or give a reason"
    assert set(ALLOWED) - uncalled == set(), "an allow-list entry has a caller now (or is gone); drop it"
    assert all(reason.strip() for reason in ALLOWED.values())
