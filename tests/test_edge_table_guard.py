"""No numpy array built from ``.edges`` in the library outside
``Space.__post_init__``: a per-edge kernel reads the edge table that
``Space`` builds once (``_ends`` and ``_lens``), so no call pays to convert
the tuple of edges again."""
from __future__ import annotations

import ast
import pathlib

import qrgraph

SRC = pathlib.Path(qrgraph.__file__).parent
BUILDERS = {"array", "asarray", "fromiter"}


def _arrays_from_edges(source: str) -> list[int]:
    """Line of every ``np.array``, ``np.asarray`` or ``np.fromiter`` call
    whose arguments read an attribute ``edges``, except inside
    ``Space.__post_init__``."""
    found: list[int] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.func.attr in BUILDERS and scope[-2:] != ("Space", "__post_init__")
                and any(isinstance(sub, ast.Attribute) and sub.attr == "edges"
                        for arg in [*node.args, *(k.value for k in node.keywords)]
                        for sub in ast.walk(arg))):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_arrays_from_edges_are_found():
    source = (
        "import numpy as np\n"
        "class Space:\n"
        "    def __post_init__(self):\n"
        "        t = np.fromiter(iter(self.edges), float)\n"
        "    def lengths(self):\n"
        "        return np.array([ln for _i, _j, ln in self.edges])\n"
        "def ends(space):\n"
        "    return np.asarray(list(space.edges), dtype=float)[:, :2]\n"
        "def fine(space, edges):\n"
        "    return np.array(edges), np.zeros(len(space.edges)), space._lens\n"
        "def keyword(space):\n"
        "    return np.fromiter(iter=space.edges, dtype=float)\n"
    )
    assert _arrays_from_edges(source) == [6, 8, 12]


def test_no_module_builds_an_array_from_edges():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _arrays_from_edges(path.read_text())]
    assert found == []
