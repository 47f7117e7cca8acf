"""The package carries only what it runs: every top-level function, method and
property under ``src/`` is used somewhere under ``src/``, so none is reached
only from the tests or the benchmark.

A function counts as used when its name appears anywhere under ``src/``.  A
method counts only when it is reached as an attribute (``obj.name``), so a
local variable of the same name does not keep it.  A property counts only
when its attribute is read outside a call, so ``d.values()`` does not keep a
property called ``values``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_glue"

# used only outside src/: the file that uses each, and why it stays
ALLOWED = {
    "FiniteModule.homs_to": ("perfbench/layers.py", "METHODS wraps it by name"),
}

PROPERTIES = {"property", "cached_property"}


def _is_property(node: ast.FunctionDef) -> bool:
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) in PROPERTIES
        for d in node.decorator_list
    )


def defined_names(tree):
    """(qualified name, name, kind) of the module's functions and its
    classes' methods and properties; dunder methods run through the
    protocols."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, "function"
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    kind = "property" if _is_property(item) else "method"
                    yield f"{node.name}.{item.name}", item.name, kind


def uses(trees) -> dict[str, set[str]]:
    """kind -> the names that count as a use of a definition of that kind."""
    nodes = [node for tree in trees for node in ast.walk(tree)]
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    attributes = [node for node in nodes if isinstance(node, ast.Attribute)]
    reached = {node.attr for node in attributes}
    read = {
        node.attr
        for node in attributes
        if isinstance(node.ctx, ast.Load) and id(node) not in called
    }
    named = {node.id for node in nodes if isinstance(node, ast.Name)} | reached
    return {"function": named, "method": reached, "property": read}


def unused(sources: dict[str, str]) -> list[str]:
    """The qualified names defined in ``sources`` (file name -> text) that
    no source uses; what ``__init__.py`` defines is not checked."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = uses(trees.values())
    return sorted(
        qualified
        for name, tree in trees.items()
        if name != "__init__.py"
        for qualified, short, kind in defined_names(tree)
        if short not in used[kind]
    )


def check(sources: dict[str, str], allowed) -> None:
    """Exactly the allowed names are unused: an unused name that is not
    allowed fails, and so does an allowed name that has become used."""
    assert unused(sources) == sorted(allowed)


def test_every_function_under_src_is_named_under_src():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    check(sources, ALLOWED)


@pytest.mark.parametrize("qualified", sorted(ALLOWED))
def test_each_allowed_name_is_used_where_its_reason_says(qualified):
    path, _ = ALLOWED[qualified]
    assert not path.startswith("src/")
    assert qualified.rsplit(".", 1)[-1] in (ROOT / path).read_text(encoding="utf-8")


FILTRATION = """
class Filtration:
    @property
    def hi(self):
        return 1

    @property
    def values(self):
        return ()

    def levels(self):
        return ()

    def __repr__(self):
        return "Filtration()"


def window(f):
    return f
"""


def test_a_local_variable_does_not_keep_a_property():
    sources = {"a.py": FILTRATION, "b.py": "hi = window(x.levels())\nvalues = hi\n"}
    assert unused(sources) == ["Filtration.hi", "Filtration.values"]


def test_a_method_called_as_an_attribute_is_kept():
    sources = {"a.py": FILTRATION, "b.py": "read = window, x.levels(), x.values, x.hi\n"}
    assert unused(sources) == []
    # a bare name keeps a function but not a method
    sources["b.py"] = "levels = window, x.values, x.hi\n"
    assert unused(sources) == ["Filtration.levels"]


def test_a_property_that_is_only_called_is_unused():
    sources = {"a.py": FILTRATION, "b.py": "read = window, x.values(), x.levels(), x.hi\n"}
    assert unused(sources) == ["Filtration.values"]


def test_an_allowed_name_that_becomes_used_fails():
    sources = {"a.py": FILTRATION, "b.py": "read = window, x.levels(), x.hi\n"}
    check(sources, ["Filtration.values"])
    sources["b.py"] = "read = window, x.levels(), x.values, x.hi\n"
    with pytest.raises(AssertionError):
        check(sources, ["Filtration.values"])
