"""A fault inside the package is never read as malformed input: every
``except`` clause under ``src/`` names only the package's own error classes.

Three handlers name Python's own exceptions, each around one targeted call:
``cli._load_json`` around JSON decoding, ``cli.main`` around the verb (the
package's errors and ``OSError``), and ``SpectralPoset.point`` around one
label lookup.  A reader checks the shapes it reads with the ``errors``
helpers instead, so a ``TypeError`` or ``KeyError`` from below it
propagates.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spectral_glue"

# (file, function) -> the Python exceptions that its handlers may name
ALLOWED = {
    ("cli.py", "_load_json"): {"JSONDecodeError", "UnicodeDecodeError", "ValueError"},
    ("cli.py", "main"): {"OSError"},
    ("poset.py", "SpectralPoset.point"): {"KeyError", "TypeError"},
}


def own_errors(errors_source: str) -> set[str]:
    """The classes that ``errors.py`` defines."""
    return {node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The names of the classes that ``handler`` catches; a bare ``except``
    is ``BaseException``."""
    if handler.type is None:
        return ["BaseException"]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "?") for node in nodes]


def _handlers(node, function=""):
    """(qualified function name, handler) of each handler below ``node``;
    a handler at module level is in the function ""."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _handlers(child, f"{function}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.ExceptHandler):
            yield function, child
        yield from _handlers(child, function)


def foreign_handlers(sources: dict[str, str]) -> list[tuple[str, str, list[str]]]:
    """(file, function, names) of each handler that names an exception that
    is neither the package's own nor allowed for its function."""
    own = own_errors(sources["errors.py"])
    out = []
    for name, text in sorted(sources.items()):
        for function, handler in _handlers(ast.parse(text)):
            allowed = own | ALLOWED.get((name, function), set())
            caught = _caught(handler)
            if not set(caught) <= allowed:
                out.append((name, function, caught))
    return out


def _sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_handler_names_only_the_packages_own_errors():
    sources = _sources()
    assert {"cli.py", "poset.py", "errors.py"} <= sources.keys()
    assert foreign_handlers(sources) == []


def test_each_foreign_handler_is_found_in_synthetic_sources():
    sources = {
        "errors.py": "class SpectralGlueError(Exception):\n    pass\n",
        "rings.py": (
            "def module_presentation(ring, data):\n"
            "    try:\n"
            "        pass\n"
            "    except (KeyError, TypeError, IndexError) as exc:\n"
            "        raise\n"
        ),
        "torsion_cosilting.py": (
            "class Reader:\n"
            "    def read(self):\n"
            "        try:\n"
            "            pass\n"
            "        except SpectralGlueError:\n"
            "            pass\n"
            "        except:\n"
            "            pass\n"
        ),
        # allowed only in the function that it names
        "cli.py": (
            "def main():\n"
            "    try:\n"
            "        pass\n"
            "    except (SpectralGlueError, OSError):\n"
            "        pass\n"
            "def _ring():\n"
            "    try:\n"
            "        pass\n"
            "    except (errors.SpectralGlueError, OSError):\n"
            "        pass\n"
        ),
    }
    assert foreign_handlers(sources) == [
        ("cli.py", "_ring", ["SpectralGlueError", "OSError"]),
        ("rings.py", "module_presentation", ["KeyError", "TypeError", "IndexError"]),
        ("torsion_cosilting.py", "Reader.read", ["BaseException"]),
    ]
