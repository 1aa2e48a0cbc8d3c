"""Every defaulted parameter of a public function is set by some caller in src/, scripts/ or perfbench/, or has a reason.

A default that no run changes is a setting that only the tests vary; it
should be a constant in the module that reads it.  A call sets a parameter
when it passes it by keyword, passes enough positional arguments to reach
it, or passes *args or **kwargs (which may hold it).  A call that forwards a
parameter it received counts like any other call (save_bank passes tau on
to dump_bank, so dump_bank's tau is set).  Calls are matched by the called
name, a plain name or an attribute, as tests/test_public_callers.py does,
and a function's calls of itself do not count.

The scan has two blind spots.  A default that only another public function
sets counts as set, even when only the tests and perfbench/tracer.py reach
that function: eval_spatial_stack's grad, set only by eval_spatial_grad,
passed this way until it went.  And a parameter without a default is not
scanned: make_tau_targeting_grad's max_freq had none until it became the
constant deform.TAU_MAX_FREQ.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rstcnn"
CALLER_DIRS = ("src", "scripts", "perfbench")

# (module, function, parameter) -> why no caller in those directories sets it
ALLOWED = {
    ("analysis", "disk_quadrature", "n"): "tests build the n = 1024 reference rule of the bounds report with it",
    ("container", "save_bank", "tau"): "acceptance criterion 10 round-trips a TAU section through save_bank",
}


def defaulted_parameters(source):
    """{(function, parameter): its position, or None when keyword-only} of source's top-level public functions."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        for position in range(len(positional) - len(args.defaults), len(positional)):
            found[node.name, positional[position].arg] = position
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[node.name, arg.arg] = None
    return found


def set_parameters(source, defaulted):
    """The (function, parameter) keys of defaulted that some call in source sets."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is not None and name not in inside:
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                keywords = {k.arg for k in node.keywords}
                for (function, parameter), position in defaulted.items():
                    reached = position is not None and position < len(node.args)
                    if function == name and (spread or reached or parameter in keywords):
                        found.add((function, parameter))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def test_the_scanner_reads_keywords_positions_spreads_forwards_and_skips_self_calls():
    package = (
        "def draw(n, side=28, *, margin=4):\n"
        "    return draw(n, side, margin=margin)\n"
        "def save(n, side=28):\n"
        "    return draw(n, side)\n"
        "def report(x, theta=64, quad=None):\n"
        "    return x\n"
        "def spread(a=1, b=2):\n"
        "    return a\n"
        "def _private(c=3):\n"
        "    return c\n"
    )
    defaulted = defaulted_parameters(package)
    assert defaulted == {
        ("draw", "side"): 1,
        ("draw", "margin"): None,
        ("save", "side"): 1,
        ("report", "theta"): 1,
        ("report", "quad"): 2,
        ("spread", "a"): 0,
        ("spread", "b"): 1,
    }
    # draw's own call passes side and margin but does not count; save forwards its side to draw
    assert set_parameters(package, defaulted) == {("draw", "side")}
    callers = "analysis.report(x, 32)\nreport(x, quad=q)\nspread(**kw)\ndraw(n)\n"
    assert set_parameters(callers, defaulted) == {
        ("report", "theta"),
        ("report", "quad"),
        ("spread", "a"),
        ("spread", "b"),
    }
    assert set_parameters("spread(*args)\n", defaulted) == {("spread", "a"), ("spread", "b")}


def test_every_defaulted_parameter_is_set_by_a_caller_or_has_a_reason():
    defaulted = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for (function, parameter), position in defaulted_parameters(path.read_text(encoding="utf-8")).items():
            defaulted[path.stem, function, parameter] = position
    by_function = {(function, parameter): position for (_, function, parameter), position in defaulted.items()}
    set_somewhere = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            set_somewhere |= set_parameters(path.read_text(encoding="utf-8"), by_function)
    unset = {key for key in defaulted if key[1:] not in set_somewhere}
    missing = sorted(unset - set(ALLOWED))
    assert not missing, f"no caller sets {missing}; make each a constant or give a reason"
    stale = sorted(set(ALLOWED) - unset)
    assert not stale, f"{stale} are set by a caller now (or are gone); drop them from ALLOWED"
    assert all(reason.strip() for reason in ALLOWED.values())
