"""Correctness checks in the library must survive ``python -O``.

``-O`` strips ``assert`` statements, so the library raises explicit
errors instead; these tests keep it that way.
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
