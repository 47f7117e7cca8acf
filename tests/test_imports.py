"""What importing the package loads, in a fresh interpreter without ``site``
(``python -S -E``), which would otherwise load ``re`` and ``typing`` itself.

``import spectral_glue`` loads none of ``dataclasses``, ``inspect``,
``typing`` or ``re``: each value type is a plain class, ``typing`` gives no
name that ``collections.abc`` does not, and a degree key is read by string
tests.  Importing every module, ``cli`` included, loads none of the first
three; ``argparse`` and ``json`` bring in ``re``.
"""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "spectral_glue").glob("*.py") if path.stem != "__init__")

# prints the heavy modules loaded by the package, then by every module;
# nothing else is imported before both are read
PROBE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect", "typing", "re")
import spectral_glue
package = [name for name in heavy if name in sys.modules]
for name in sys.argv[2:]:
    importlib.import_module("spectral_glue." + name)
print(" ".join(package) + "|" + " ".join(name for name in heavy if name in sys.modules))
"""


def test_importing_the_package_loads_no_dataclasses_inspect_typing_or_re():
    assert {"cli", "rings", "values"} <= set(MODULES)
    run = subprocess.run(
        [sys.executable, "-S", "-E", "-c", PROBE, str(SRC), *MODULES],
        capture_output=True, text=True, check=True, timeout=60,
    )
    package, every_module = run.stdout.strip().split("|")
    assert package == ""
    assert every_module == "re"
