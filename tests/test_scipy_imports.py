"""scipy loads only where it is used: the modulus solves, and all-pairs
shortest paths above ``spaces._NUMPY_APSP_MAX_N`` vertices.  Its import is
most of a CLI call's start-up, so no module of the package may import it at
module level, and the subcommands that need neither never load it."""
from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import qrgraph

SRC = pathlib.Path(qrgraph.__file__).parent


def _import_time_scipy(source: str) -> list[tuple[int, str]]:
    """(line, module) of every scipy import that runs when the module is
    imported: anywhere outside a function body."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                  and child.module.split(".")[0] == "scipy"):
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return found


def test_import_time_scipy_is_found():
    source = ("import numpy as np\nimport scipy\nfrom scipy.sparse import csr_matrix\n"
              "if True:\n    import scipy.optimize as so\n"
              "class A:\n    from scipy import linalg\n"
              "def f():\n    from scipy.sparse.csgraph import dijkstra\n"
              "from . import scipy_like\n")
    assert _import_time_scipy(source) == [(2, "scipy"), (3, "scipy.sparse"),
                                          (5, "scipy.optimize"), (7, "scipy")]


def test_no_module_imports_scipy_at_import_time():
    found = [f"{path.name}:{line} {module}"
             for path in sorted(SRC.glob("*.py"))
             for line, module in _import_time_scipy(path.read_text())]
    assert found == []


_PROBE = """
import contextlib, io, json, sys

def loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

import qrgraph.cli
seen = {"import qrgraph.cli": loaded()}
out = sys.argv[1]
gen = out + "/gen"
m = gen + "/map.json"
commands = {
    "gen": ["gen", "--kind", "winding", "--k", "2", "--levels", "4", "--sectors", "8"],
    "validate": ["validate", m],
    "pullback exact": ["pullback", "--map", m, "--metric", "exact"],
    "pullback lower": ["pullback", "--map", m, "--metric", "lower"],
    "measure": ["measure", "--map", m],
    "verify bld": ["verify", "--map", m, "--property", "bld"],
    "verify metric-qr": ["verify", "--map", m, "--property", "metric-qr"],
    "verify inverse-qr": ["verify", "--map", m, "--property", "inverse-qr"],
    "embed": ["embed", "--map", m],
    "modulus": ["modulus", "--space", gen + "/target.json", "--family", out + "/family.json"],
}
for k, (name, argv) in enumerate(commands.items()):
    dest = gen if name == "gen" else f"{out}/{k}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = qrgraph.cli.main([*argv, "--out", dest])
    seen[name] = (code, loaded())
print(json.dumps(seen))
"""


def test_cli_loads_scipy_only_for_modulus(tmp_path):
    family = {"connect": {"E": [f"r000s{j:03d}" for j in range(8)],
                          "F": [f"r003s{j:03d}" for j in range(8)]}}
    (tmp_path / "family.json").write_text(json.dumps(family))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import qrgraph.cli") is False
    # the commands run in order in one process: scipy stays out of it until
    # the modulus solve, which needs it; inverse-qr exits 2 by design (H* is
    # infinite on this map)
    assert seen.pop("modulus") == [0, True]
    assert seen.pop("verify inverse-qr") == [2, False]
    assert seen == {name: [0, False] for name in seen}
