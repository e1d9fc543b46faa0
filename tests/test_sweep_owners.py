"""Two owners for every threshold sweep: in the package, only
``covering._fibre_sweeps`` (one sweep per fibre) and
``pullback._target_pair_sweeps`` (one sweep per open target pair) call
``spaces._threshold_sweeps``; every other whole-map pass reads one of them,
so a faster sweep kernel has two call sites to serve.  At run time, each
whole-map pass over the fibres opens one sweep for all of them."""
from __future__ import annotations

import ast
import pathlib

import pytest

import qrgraph
from qrgraph import covering, pullback, spaces
from qrgraph.dilatation import _local_profiles
from qrgraph.generators import gen_cycle_cover, gen_winding

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


KERNELS = ("_union_find_sweeps", "_boruvka_sweeps")


def _kernel_callers(module: str, source: str) -> set[tuple[str, str, str]]:
    """(module, top-level function, kernel) for each call to a sweep kernel
    of ``KERNELS``, by name or attribute, and each import of one; a call in a
    nested function counts for the top-level definition around it."""
    out = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            elif isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name in KERNELS), None)
            else:
                continue
            if name in KERNELS:
                out.add((module, getattr(top, "name", "<module>"), name))
    return out


def test_kernel_caller_scan_reads_nested_attribute_calls_and_imports():
    source = ("def pick(space, jobs):\n"
              "    def batches():\n"
              "        yield from _boruvka_sweeps(space, jobs)\n"
              "    return spaces._union_find_sweeps(space, jobs), batches\n"
              "from .spaces import _boruvka_sweeps as fast\n"
              "def other():\n"
              "    return _threshold_sweeps(None, [])\n")
    assert _kernel_callers("m", source) == {("m", "pick", "_boruvka_sweeps"),
                                            ("m", "pick", "_union_find_sweeps"),
                                            ("m", "<module>", "_boruvka_sweeps")}


def test_only_the_threshold_sweep_calls_its_kernels():
    # both kernels sit behind one selection, so the two owners above serve both
    package = pathlib.Path(qrgraph.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        callers |= _kernel_callers(path.stem, path.read_text())
    assert callers == {("spaces", "_threshold_sweeps", kernel) for kernel in KERNELS}


@pytest.mark.parametrize("make", [lambda: gen_winding(2, 4, 8), lambda: gen_cycle_cover(8, 3)],
                         ids=["winding", "cycle_cover"])
def test_each_whole_map_pass_opens_one_sweep(make, monkeypatch):
    # a per-fibre loop would open one sweep per target vertex
    vm = make()
    every = range(vm.source.n)
    opens = []
    real = spaces._threshold_sweeps

    def counting(space, jobs):
        opens.append(space)
        yield from real(space, jobs)

    for module in (spaces, covering, pullback):
        monkeypatch.setattr(module, "_threshold_sweeps", counting)
    passes = {"normal_radius_table": lambda: covering.normal_radius_table(vm),
              "branch_set": lambda: covering.branch_set(vm),
              "H profiles": lambda: _local_profiles(vm, every, None, inverse=False),
              "H* profiles": lambda: _local_profiles(vm, every, None, inverse=True)}
    counts = {}
    for name, run in passes.items():
        opens.clear()
        run()
        counts[name] = len(opens)
    assert counts == dict.fromkeys(passes, 1)


@pytest.mark.parametrize("make", [lambda: gen_winding(2, 4, 8), lambda: gen_cycle_cover(8, 3)],
                         ids=["winding", "cycle_cover"])
def test_greedy_cover_opens_one_sweep(make, monkeypatch):
    # one sweep per family element and per inflation would open 2 per chosen element
    vm = make()
    table = covering.normal_radius_table(vm)
    family = [(vm.source.ids[x], table.radius_at(x) / 6.0) for x in range(0, vm.source.n, 3)]
    opens = []
    real = spaces._threshold_sweeps

    def counting(space, jobs):
        opens.append(space)
        yield from real(space, jobs)

    monkeypatch.setattr(covering, "_threshold_sweeps", counting)
    chosen, _report = covering.greedy_cover(vm, family, table)
    assert chosen and len(opens) == 1
