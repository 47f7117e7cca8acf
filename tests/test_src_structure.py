"""One numbering of points in the whole package: Spec(R_m) is the down-set
of m in the numbering of its poset, and no module builds it as a poset of
its own.  One form of a local family: one packed int on the global poset,
read through its accessors.

So no file under ``src/`` defines, calls or imports ``pack``, ``unpack``,
``localization`` or ``localization_poset``, or names ``_below`` or
``_localizations``, and none reads an attribute ``filtrations`` or
``columns``: a family holds no member filtrations and no columns beside its
one int.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_glue"

NAMES = {"pack", "unpack", "localization", "localization_poset", "_below", "_localizations"}
READS = {"filtrations", "columns"}


def _names(node) -> list[str]:
    """The identifiers that ``node`` itself binds, reads or imports."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.alias):
        return [node.asname or node.name]
    return []


def crossings(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file name, line, name) of each identifier in ``NAMES`` and each
    attribute read of a name in ``READS``, in every file."""
    out = []
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            line = getattr(node, "lineno", None)
            out += [(name, line, found) for found in _names(node) if found in NAMES]
            if isinstance(node, ast.Attribute) and node.attr in READS:
                out.append((name, node.lineno, node.attr))
    return sorted(out)


def test_no_module_builds_a_localization_poset():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert {"poset.py", "gluing.py"} <= sources.keys()
    assert crossings(sources) == []


def test_each_crossing_is_found_in_synthetic_sources():
    sources = {
        "poset.py": "def pack(m, x):\n    return x\ny = p.localization(0)\nz = self._below\n",
        "gluing.py": (
            "members = family.filtrations\n"
            "z = localization_poset(p, 'm')\n"
            "for m, start, masks in family.columns:\n"
            "    pass\n"
        ),
        "cli.py": (
            "from .poset import localization_poset\n"
            "sub = localization_poset(poset, m)\n"
            "x = poset.pack(mask, 0)\n"
            "y = poset.unpack(mask, 0)\n"
            "z = poset.localization(0)\n"
            "for m, f in family.filtrations.items():\n"
            "    pass\n"
        ),
        # local names 'filtrations' and 'columns' and a docstring that names a
        # localization are fine
        "sweeps.py": (
            '"""One localization: it glues back."""\n'
            "filtrations = catalog.all_filtrations(poset, 0, 1)\n"
            "_localizations = {}\n"
            "columns = list(zip(*rows))\n"
        ),
    }
    assert crossings(sources) == [
        ("cli.py", 1, "localization_poset"),
        ("cli.py", 2, "localization_poset"),
        ("cli.py", 3, "pack"),
        ("cli.py", 4, "unpack"),
        ("cli.py", 5, "localization"),
        ("cli.py", 6, "filtrations"),
        ("gluing.py", 1, "filtrations"),
        ("gluing.py", 2, "localization_poset"),
        ("gluing.py", 3, "columns"),
        ("poset.py", 1, "pack"),
        ("poset.py", 3, "localization"),
        ("poset.py", 4, "_below"),
        ("sweeps.py", 3, "_localizations"),
    ]
