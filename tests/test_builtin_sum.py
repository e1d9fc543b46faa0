"""No builtin ``sum()`` in the library: from CPython 3.12 on it compensates
float sums, so a length or total it computes can differ in the last bit
between interpreters.  Float sums fold with numpy or an explicit loop."""
from __future__ import annotations

import ast
import pathlib

import qrgraph

SRC = pathlib.Path(qrgraph.__file__).parent


def _builtin_sum_calls(source: str) -> list[int]:
    """Line of every call of the bare name ``sum``; ``np.sum`` and the
    ``.sum()`` method are attributes and pass."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_builtin_sum_calls_are_found():
    source = ("import numpy as np\nx = sum([1.0, 2.0])\ny = np.sum(x)\nz = x.sum()\n"
              "def f(v):\n    return float(sum(w for w in v))\n"
              "total = summary(x)\n")
    assert _builtin_sum_calls(source) == [2, 6]


def test_no_module_calls_builtin_sum():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _builtin_sum_calls(path.read_text())]
    assert found == []
