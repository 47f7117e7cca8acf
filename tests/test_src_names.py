"""The package carries only what it runs: every top-level function, method and
property under ``src/`` is named somewhere under ``src/``, so none is reached
only from the tests or the benchmark."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spectral_glue"

# named only outside src/, with the reason each stays
ALLOWED = {
    "FiniteModule.homs_to": "perfbench/layers.py METHODS wraps it by name",
}


def defined_names(tree):
    """(qualified name, name) of the module's functions and its classes'
    methods and properties; dunder methods run through the protocols."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def test_every_function_under_src_is_named_under_src():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unnamed = [
        qualified
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for qualified, name in defined_names(tree)
        if name not in named
    ]
    assert sorted(unnamed) == sorted(ALLOWED)
