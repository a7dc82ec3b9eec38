"""Correctness checks in the library must survive ``python -O``.

``-O`` strips ``assert`` statements, so the library raises explicit
errors instead; these tests keep it that way.  One more scan keeps the
library free of imports that nothing uses, as the project runs no linter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolcut

PACKAGE = Path(boolcut.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


@pytest.mark.parametrize("search", ["exact_min_width", "exact_min_per_level"])
def test_witness_reverification_raises_under_optimize(search):
    code = (
        f"from boolcut import InternalError, analysis, {search}\n"
        "analysis.is_cutset = lambda lat, nodes: analysis.CutsetReport(False, None)\n"
        "try:\n"
        f"    {search}(4, 1, 2)\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "raised\n"
