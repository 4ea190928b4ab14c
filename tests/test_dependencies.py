"""The package and its tests import nothing that pyproject.toml does not declare.

A module that is installed but undeclared (scipy, say) would make the suite
pass here and fail on a clean install of the declared dependencies.  The
package also never reaches ``numpy.random``: every draw comes from the
splitmix64 stream of ``grantprod.seeds``, whose outputs no numpy version
changes.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grantprod").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def declared_modules() -> set[str]:
    """The import names of the runtime and test dependencies in pyproject.toml."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def imported_modules(path: Path) -> set[str]:
    """The top-level name of every absolute import in the file, wherever it sits."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_import_is_stdlib_the_package_a_test_helper_or_declared():
    helpers = {path.stem for path in (ROOT / "tests").glob("_*.py")}
    allowed = set(sys.stdlib_module_names) | {"grantprod"} | helpers | declared_modules()
    imports = {path: imported_modules(path) for path in SOURCES}
    assert "numpy" in imports[ROOT / "src" / "grantprod" / "ml.py"]  # the scan finds imports
    undeclared = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, names in imports.items()
        for name in sorted(names - allowed)
    ]
    assert not undeclared


def numpy_random_uses(source: str) -> list[int]:
    """Line numbers of each import of numpy.random and each ``np.random`` / ``numpy.random``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            found = (isinstance(node, ast.Attribute) and node.attr == "random"
                     and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_package_never_reaches_numpy_random():
    forms = ["import numpy.random", "import numpy.random as npr", "from numpy import random",
             "from numpy.random import default_rng", "rng = np.random.default_rng(0)",
             "draw = numpy.random"]
    assert numpy_random_uses("\n".join(forms)) == list(range(1, len(forms) + 1))
    package = sorted((ROOT / "src" / "grantprod").glob("*.py"))
    uses = [f"{path.name}:{line}" for path in package
            for line in numpy_random_uses(path.read_text(encoding="utf-8"))]
    assert not uses
