"""The two threshold-sweep kernels: ``spaces._union_find_sweeps``, the Kruskal
sweep that stops once every pair is joined, and ``spaces._boruvka_sweeps``,
which finds the spanning forests of a batch of spanning jobs at once.  On the
same jobs they yield the same value bytes and the same forest edges in the
same opening order, and every whole-map result is the same whichever kernel
``_threshold_sweeps`` selects."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import random_connected_space
from test_fibre_bracket import MAPS

from qrgraph import spaces
from qrgraph._tol import TOL
from qrgraph.covering import (
    _fibre_sweeps,
    _u_levels,
    branch_set,
    max_multiplicity,
    normal_radius_table,
)
from qrgraph.dilatation import _local_profiles
from qrgraph.embedding import rk_radii
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.pullback import _target_pair_sweeps, pullback_metric_exact
from qrgraph.spaces import Space, ValidationError


def _same(space: Space, jobs) -> None:
    want = list(spaces._union_find_sweeps(space, jobs))
    got = list(spaces._boruvka_sweeps(space, jobs))
    assert len(got) == len(want) == len(jobs)
    for (vals, forest), (ref_vals, ref_forest), (_key, left, _right) in zip(got, want, jobs):
        assert vals.shape == ref_vals.shape == (len(left), space.n)
        assert vals.tobytes() == ref_vals.tobytes()
        assert forest.shape == ref_forest.shape == (space.n - 1, 2)
        assert forest.tolist() == ref_forest.tolist()


def _jobs(rng: np.random.Generator, n: int, keys) -> list:
    """One spanning job per key, each with 1 to 5 distinct random centres."""
    return [(key, sorted(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
                         .tolist()), range(n)) for key in keys]


@pytest.mark.parametrize("seed", range(6))
def test_kernels_agree_on_random_spaces(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        n = int(rng.integers(2, 81))
        space = random_connected_space(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        count = int(rng.integers(1, 7))
        _same(space, _jobs(rng, n, rng.uniform(0.0, 5.0, (count, n))))


@pytest.mark.parametrize("seed", range(6))
def test_kernels_agree_when_keys_tie(seed):
    # keys from three values: most edge weights tie, and the edge index breaks them
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        n = int(rng.integers(2, 81))
        space = random_connected_space(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
        keys = rng.choice([0.0, 0.5, 1.0], size=(int(rng.integers(1, 7)), n))
        _same(space, _jobs(rng, n, keys))


@pytest.mark.parametrize("name", ["diagonal_40_1", "diagonal_40_2", "asymmetric_40_1"])
def test_kernels_agree_on_explicit_target_rows(name):
    # the fibre keys of an explicit target whose diagonal moves within 0.9 TOL
    vm = MAPS[name]()
    dY, n = vm.target.dist, vm.source.n
    groups = [np.flatnonzero(vm.f == z).tolist() for z in range(vm.target.n)]
    _same(vm.source, [(dY[z, vm.f], fib, range(n)) for z, fib in enumerate(groups)])


def test_kernels_agree_on_one_vertex():
    space = Space.build([("a", 1.0)], [], "path")
    _same(space, [(np.array([0.25]), [0], range(1)), (np.array([-0.5 * TOL]), [0], range(1))])


def test_both_kernels_refuse_a_disconnected_source():
    # a Space made without Space.build is not validated
    space = Space(ids=("a", "b", "c"), mass=np.ones(3), edges=((0, 1, 1.0),), _dist=None)
    for kernel in (spaces._union_find_sweeps, spaces._boruvka_sweeps):
        with pytest.raises(ValidationError, match="disconnected"):
            list(kernel(space, [(np.zeros(3), [0], range(3))]))


@pytest.mark.parametrize("budget", [1, 37, 1 << 16])
def test_batches_cut_by_the_budget_leave_the_sweeps_bitwise(budget, monkeypatch):
    # with the selection constant at 0 every batch of spanning jobs is
    # Borůvka's, however the budget cuts the jobs
    rng = np.random.default_rng(budget)
    space = random_connected_space(rng, 40, extra_edges=30)
    jobs = _jobs(rng, 40, rng.choice([0.0, 1.0, 2.0], size=(9, 40)))
    want = list(spaces._union_find_sweeps(space, jobs))
    monkeypatch.setattr(spaces, "_SWEEP_BUDGET", budget)
    monkeypatch.setattr(spaces, "_NUMPY_SWEEP_MIN", 0)
    got = list(spaces._threshold_sweeps(space, iter(jobs)))
    assert [v.tobytes() for v, _f in got] == [v.tobytes() for v, _f in want]
    assert [f.tolist() for _v, f in got] == [f.tolist() for _v, f in want]


def test_pair_sweeps_never_select_the_numpy_kernel(monkeypatch):
    # a job whose right side is not range(n) needs the early stop
    def refuse(space, jobs):
        raise AssertionError("Borůvka ran on a pair sweep")

    monkeypatch.setattr(spaces, "_NUMPY_SWEEP_MIN", 0)
    monkeypatch.setattr(spaces, "_boruvka_sweeps", refuse)
    vm = gen_winding(3, 6, 8)
    fa, fb = np.flatnonzero(vm.f == 0), np.flatnonzero(vm.f == 5)
    key = np.maximum(vm.target.dist[vm.f, 0], vm.target.dist[vm.f, 5])
    assert len(list(spaces._threshold_sweeps(vm.source, [(key, fa, fb)]))) == 1
    every = np.arange(vm.source.n)
    assert len(list(spaces._threshold_sweeps(vm.source, [(key, fa, every)]))) == 1


def test_whole_map_fibre_sweeps_select_the_numpy_kernel(monkeypatch):
    calls = []
    real = spaces._boruvka_sweeps

    def counting(space, jobs):
        calls.append(len(jobs))
        yield from real(space, jobs)

    monkeypatch.setattr(spaces, "_boruvka_sweeps", counting)
    vm = gen_winding(3, 6, 8)
    list(_fibre_sweeps(vm, range(vm.source.n)))
    assert calls == [vm.target.n]
    calls.clear()
    list(_fibre_sweeps(gen_cycle_cover(8, 2), range(16)))  # 8 fibres of 16 edges: below the tie
    assert calls == []


def test_a_repeated_centre_gets_its_row_twice(monkeypatch):
    # each distinct centre is swept once, so both kernels see distinct centres
    vm = gen_winding(2, 3, 6)
    one = _u_levels(vm, [5])
    for kernel_min in (0, 10**9):
        monkeypatch.setattr(spaces, "_NUMPY_SWEEP_MIN", kernel_min)
        rows = _u_levels(vm, [5, 5, 7, 5])
        assert rows[[0, 1, 3]].tobytes() == np.repeat(one, 3, axis=0).tobytes()
        assert rows[2].tobytes() == _u_levels(vm, [7]).tobytes()


def _whole_map_results(vm) -> list:
    n = vm.source.n
    lower, _ = _target_pair_sweeps(vm, witness=False)
    lower_w, achieved = _target_pair_sweeps(vm, witness=True)
    table = normal_radius_table(vm)
    caps = (None, max(table.radius.values()))  # the default cap, and one given
    profiles = [repr(_local_profiles(vm, range(n), cap, inverse))
                for cap in caps for inverse in (False, True)]
    return [*profiles, lower.tobytes(), lower_w.tobytes(), achieved.tobytes(),
            pullback_metric_exact(vm).tobytes(),
            _u_levels(vm, range(n)).tobytes(),
            [forest.tolist() for _ks, _vals, forest in _fibre_sweeps(vm, range(n))],
            repr(list(table.radius.items())), repr(list(table.record.items())),
            sorted(branch_set(vm)),
            repr([rk_radii(vm, k) for k in range(1, max_multiplicity(vm) + 1)])]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_whole_map_results_do_not_depend_on_the_kernel(name, monkeypatch):
    vm = MAPS[name]()
    monkeypatch.setattr(spaces, "_NUMPY_SWEEP_MIN", 0)
    numpy_results = _whole_map_results(vm)
    monkeypatch.setattr(spaces, "_NUMPY_SWEEP_MIN", 10**9)
    assert numpy_results == _whole_map_results(vm)
