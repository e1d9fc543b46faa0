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


def _overwritten_init_fields(source: str) -> list[tuple[str, int, str]]:
    """Init fields of each dataclass that its ``__post_init__`` assigns, by
    ``self.name = ...`` or ``object.__setattr__(self, "name", ...)``, without
    reading ``self.name``: whatever a caller passes for them is dropped."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].endswith("dataclass") for d in cls.decorator_list)):
            continue
        fields = [s.target.id for s in cls.body
                  if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                  and not (isinstance(s.value, ast.Call) and any(
                      k.arg == "init" and getattr(k.value, "value", True) is False
                      for k in s.value.keywords))]
        for post in (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"):
            nodes = list(ast.walk(post))
            attrs = [(n.attr, n.ctx) for n in nodes if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "self"]
            read = {a for a, ctx in attrs if isinstance(ctx, ast.Load)}
            assigned = {a for a, ctx in attrs if isinstance(ctx, ast.Store)} | {
                n.args[1].value for n in nodes
                if isinstance(n, ast.Call) and ast.unparse(n.func).endswith("__setattr__")
                and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)}
            out.extend((cls.name, post.lineno, f) for f in fields if f in assigned and f not in read)
    return out


def test_overwritten_init_field_is_found():
    source = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\n"
              "class A:\n"
              "    a: int\n"
              "    b: int = 0\n"
              "    c: int = field(init=False)\n"
              "    d: int = 0\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'a', self.a + 1)\n"
              "        object.__setattr__(self, 'b', 2)\n"
              "        object.__setattr__(self, 'c', 3)\n"
              "        self.d = 4\n")
    assert _overwritten_init_fields(source) == [("A", 8, "b"), ("A", 8, "d")]


def test_every_dataclass_reads_the_init_fields_it_assigns():
    package = pathlib.Path(qrgraph.__file__).parent
    dropped = [f"{path.name}:{line} {name}.{field}"
               for path in sorted(package.glob("*.py"))
               for name, line, field in _overwritten_init_fields(path.read_text())]
    assert dropped == []


def _uncalled_private_functions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """Module-level private functions that no code in ``sources`` names
    outside their own definition, by call or by reference: a helper that
    only the tests use is a reference implementation, kept in ``tests/``."""
    defined, named = [], set()
    for path, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((path, stmt.lineno, own))
            named |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                      if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return [(path, line, name) for path, line, name in defined if name not in named]


def test_uncalled_private_function_is_found():
    source = ("import m\n"
              "def _called():\n    return 1\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _passed():\n    pass\n"
              "def _through_module():\n    pass\n"
              "def public():\n    return _called() + run(_passed) + m._through_module()\n")
    assert _uncalled_private_functions({"m.py": source}) == [("m.py", 4, "_recursive")]


def test_every_private_function_has_a_caller_in_the_package():
    package = pathlib.Path(qrgraph.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    uncalled = [f"{path}:{line} {name}" for path, line, name in _uncalled_private_functions(sources)]
    assert uncalled == []
