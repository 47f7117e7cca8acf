"""The README's library example runs, and every line it marks ``# True`` is."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_example_holds_every_line_it_marks_true():
    (source,) = python_blocks()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if lines[node.end_lineno - 1].rstrip().endswith("# True"):
            assert isinstance(node, ast.Expr), code
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value is True, code
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    # a mark anywhere but at the end of a statement would go unchecked
    assert checked == source.count("# True") > 0
