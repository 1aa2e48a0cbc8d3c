"""No module of the package imports or reads a sibling module's underscore names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rstcnn"
MODULES = frozenset(path.stem for path in PACKAGE.glob("*.py"))

# (module, sibling, private name) -> why the crossing stays
ALLOWED = {}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _sibling(node):
    """The package module an `import` / `from ... import` statement names, or None."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 1:
            return module or None
        if node.level == 0 and module.startswith("rstcnn."):
            return module[len("rstcnn.") :]
    return None


def crossings(module, source):
    """The (module, sibling, name) triples where source touches a sibling's underscore name."""
    found = set()
    aliases = {}  # local name -> sibling module it is bound to
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node)
            from_package = (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "rstcnn")
            for alias in node.names:
                if from_package and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif sibling in MODULES and _private(alias.name):
                    found.add((module, sibling, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rstcnn.") and alias.asname:
                    aliases[alias.asname] = alias.name[len("rstcnn.") :]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.add((module, aliases[node.value.id], node.attr))
    return found


def test_crossings_sees_imports_and_attribute_reads():
    source = (
        "from . import group\n"
        "from .net import _coeff_shape, layer_basis\n"
        "import rstcnn.bank as bk\n"
        "group._warp_grid(g, 3, 3)\n"
        "bk._private_table\n"
        "group.__name__, self._cache\n"
    )
    assert crossings("experiments", source) == {
        ("experiments", "net", "_coeff_shape"),
        ("experiments", "group", "_warp_grid"),
        ("experiments", "bank", "_private_table"),
    }


def test_modules_reach_no_sibling_private_name_outside_the_allow_list():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= crossings(path.stem, path.read_text(encoding="utf-8"))
    assert found - set(ALLOWED) == set(), "a module reads a sibling's private name"
    assert set(ALLOWED) - found == set(), "an allow-list entry no longer crosses; drop it"
    assert all(reason.strip() for reason in ALLOWED.values())
