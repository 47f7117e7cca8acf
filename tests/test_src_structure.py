"""Only ``poset.py`` and ``gluing.py`` know how the members of a local family
are numbered on the localizations.

Every other module under ``src/`` reaches a family through its columns and
rows in the global numbering, and its members through the label-keyed codec
of :mod:`spectral_glue.gluing`.  So no other module calls ``pack``,
``unpack``, ``localization`` or ``localization_poset``, by name or as an
attribute, nor reads an attribute ``filtrations``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_glue"

OWNERS = {"poset.py", "gluing.py"}
CALLS = {"pack", "unpack", "localization", "localization_poset"}
READS = {"filtrations"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def crossings(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file name, line, name) of each call of a name in ``CALLS`` and each
    attribute read of a name in ``READS`` in a file outside ``OWNERS``."""
    out = []
    for name, text in sorted(sources.items()):
        if name in OWNERS:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and _name(node.func) in CALLS:
                out.append((name, node.lineno, _name(node.func)))
            elif isinstance(node, ast.Attribute) and node.attr in READS:
                out.append((name, node.lineno, node.attr))
    return sorted(out)


def test_only_poset_and_gluing_number_members_on_the_localizations():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert OWNERS <= sources.keys()
    assert crossings(sources) == []


def test_each_crossing_is_found_in_synthetic_sources():
    sources = {
        "poset.py": "def pack(m, x):\n    return x\ny = p.localization(0)\n",
        "gluing.py": "members = family.filtrations\nz = localization_poset(p, 'm')\n",
        "cli.py": (
            "from .poset import localization_poset\n"  # an import is not a call
            "sub = localization_poset(poset, m)\n"
            "x = poset.pack(mask, 0)\n"
            "y = poset.unpack(mask, 0)\n"
            "z = poset.localization(0)\n"
            "for m, f in family.filtrations.items():\n"
            "    pass\n"
        ),
        "sweeps.py": "unpack = 1\nfiltrations = catalog.all_filtrations(poset, 0, 1)\n",
    }
    assert crossings(sources) == [
        ("cli.py", 2, "localization_poset"),
        ("cli.py", 3, "pack"),
        ("cli.py", 4, "unpack"),
        ("cli.py", 5, "localization"),
        ("cli.py", 6, "filtrations"),
    ]
