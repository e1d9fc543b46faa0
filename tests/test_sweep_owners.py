"""Two owners for every threshold sweep: in the package, only
``covering._fibre_sweeps`` (one sweep per fibre) and
``pullback._target_pair_sweeps`` (one sweep per open target pair) call
``spaces._threshold_sweeps``; every other whole-map pass reads one of them,
so a faster sweep kernel has two call sites to serve."""
from __future__ import annotations

import ast
import pathlib

import qrgraph

OWNERS = {("covering", "_fibre_sweeps"), ("pullback", "_target_pair_sweeps")}


def _sweep_callers(module: str, source: str) -> set[tuple[str, str]]:
    """(module, top-level function) for each call to ``_threshold_sweeps``,
    by name or attribute; a call in a nested function or a method counts
    for the top-level definition around it."""
    out = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "_threshold_sweeps"
                    or getattr(node.func, "attr", None) == "_threshold_sweeps"):
                out.add((module, getattr(top, "name", "<module>")))
    return out


def _sweep_importers(source: str) -> set[str]:
    """The local names under which ``_threshold_sweeps`` is imported."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name == "_threshold_sweeps"}


def test_sweep_caller_scan_reads_nested_and_attribute_calls():
    source = ("def owner(vm):\n"
              "    def centres():\n"
              "        yield from _threshold_sweeps(vm.source, [])\n"
              "    return centres\n"
              "class C:\n"
              "    def m(self):\n"
              "        return spaces._threshold_sweeps(self.s, [])\n"
              "def other():\n"
              "    return _threshold_sweeps\n")
    assert _sweep_callers("m", source) == {("m", "owner"), ("m", "C")}
    assert _sweep_importers("from .spaces import Space, _threshold_sweeps as ts\n") == {"ts"}


def test_only_two_functions_call_the_threshold_sweep():
    package = pathlib.Path(qrgraph.__file__).parent
    callers = set()
    imported = {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        callers |= _sweep_callers(path.stem, source)
        if names := _sweep_importers(source):
            imported[path.stem] = names
    assert callers == OWNERS
    # no alias hides a third caller from the scan above
    assert imported == {"covering": {"_threshold_sweeps"}, "pullback": {"_threshold_sweeps"}}
