"""Every parameter of a public function is read: a parameter the body never
reads is accepted and silently ignored by every caller who sets it."""
from __future__ import annotations

import ast
import pathlib

import qrgraph


def _unread_parameters(source: str) -> list[tuple[str, int, str]]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        a = node.args
        params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if x is not None and x.arg not in ("self", "cls")]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((node.name, node.lineno, p) for p in params if p not in read)
    return out


def test_unread_parameter_is_found():
    assert _unread_parameters("def f(a, b=1, *c, d, **e):\n    return a + d\n"
                              "def _g(x):\n    pass\n") == [("f", 1, "b"), ("f", 1, "c"),
                                                          ("f", 1, "e")]


def test_every_public_function_reads_its_parameters():
    package = pathlib.Path(qrgraph.__file__).parent
    unread = [f"{path.name}:{line} {name}({param})"
              for path in sorted(package.glob("*.py"))
              for name, line, param in _unread_parameters(path.read_text())]
    assert unread == []
