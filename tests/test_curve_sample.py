"""The seeded curve sample of the BLD, BDD and transfer checks: drawn once per
source space and int seed, integer budgets, and walks that skip the generator
call on a step with one way on, leaving the stream as a call at every step
leaves it."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bdd_worst_reference, bld_worst_reference, random_map
import qrgraph.pullback as pullback
from qrgraph.covering import VertexMap
from qrgraph.dilatation import bdd_verify, bld_verify
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.pullback import bld_bdd_transfer_check, enumerate_paths, factorize, verify_projection
from qrgraph.spaces import Space, space_from_json, space_to_json


def enumerate_paths_reference(space: Space, max_edges: int, rng: np.random.Generator | None = None,
                              n_random: int = 0) -> list[tuple[int, ...]]:
    """``enumerate_paths`` with one ``rng.integers`` call at every walk step,
    a step with a single candidate included."""
    out: list[tuple[int, ...]] = []
    for start in range(space.n):
        stack: list[tuple[int, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            if path[-1] > path[0]:
                out.append(path)
            if len(path) <= max_edges:
                for w, _e in space.adj[path[-1]]:
                    if w not in path:
                        stack.append(path + (w,))
    if rng is not None and n_random:
        for _ in range(n_random):
            v = int(rng.integers(space.n))
            path = [v]
            for _step in range(8):
                nbrs = [w for w, _e in space.adj[path[-1]] if w not in path]
                if not nbrs:
                    break
                path.append(int(nbrs[rng.integers(len(nbrs))]))
            if len(path) > 1:
                out.append(tuple(path))
    return out


@pytest.fixture
def draws(monkeypatch):
    """Counts the calls of ``enumerate_paths`` made through the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return enumerate_paths(*args, **kwargs)

    monkeypatch.setattr(pullback, "enumerate_paths", counted)
    return calls


def _cert(c):
    return c.passed, c.constant, c.witness, c.details


def _rebuilt(vm: VertexMap) -> VertexMap:
    """The same map over a second Space built from the source's record."""
    ids = dict(zip(vm.source.ids, (vm.target.ids[t] for t in vm.f)))
    return VertexMap.build(space_from_json(space_to_json(vm.source)), vm.target, ids)


class TestOneWayStep:
    def test_numpy_draws_nothing_for_a_range_of_one(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert rng.integers(1) == 0 and rng.bit_generator.state == before, (
            "this numpy draws from the stream for integers(1), so enumerate_paths must call "
            "rng.integers on one-way walk steps again")

    @pytest.mark.parametrize("make", [
        *(lambda s=s: random_map(np.random.default_rng(s), 12, 4) for s in (1, 2, 3, 7, 9001)),
        lambda: gen_winding(3, 6, 8),
        lambda: gen_cycle_cover(16, 2),
    ])
    def test_samples_and_generator_state_equal_a_call_at_every_step(self, make):
        space = make().source
        for seed in (0, 1, 7):
            for budget, n_random in ((4, 100), (3, 30), (1, 500)):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = enumerate_paths(space, budget, rng=rng, n_random=n_random)
                assert got == enumerate_paths_reference(space, budget, ref, n_random)
                assert all(type(v) is int for p in got for v in p)
                assert rng.bit_generator.state == ref.bit_generator.state


class TestSharedSample:
    def test_bld_then_bdd_draw_once(self, draws):
        vm = gen_winding(2, 4, 8)
        bld, bdd = bld_verify(vm, seed=3), bdd_verify(vm, seed=3)
        assert len(draws) == 1
        paths = enumerate_paths_reference(vm.source, 4, np.random.default_rng(3), 100)
        assert (bld.constant, bdd.constant) == (bld_worst_reference(vm, paths)[0],
                                                bdd_worst_reference(vm, paths)[0])
        assert bld.details["paths"] == bdd.details["paths"] == len(paths)
        bld_verify(vm, seed=np.int64(3))  # a numpy int seed is the same key
        assert len(draws) == 1

    def test_a_new_key_or_a_new_space_draws_again(self, draws):
        vm = random_map(np.random.default_rng(4), 10, 3)
        first = _cert(bld_verify(vm, seed=1))
        for kwargs in ({"seed": 2}, {"seed": 1, "curve_budget": 3}, {"seed": 1, "n_random": 99}):
            bld_verify(vm, **kwargs)
            bdd_verify(vm, **kwargs)
        assert len(draws) == 4
        again = _rebuilt(vm)
        assert _cert(bld_verify(again, seed=1)) == first
        assert len(draws) == 5

    def test_transfer_check_reads_its_own_key(self, draws):
        fact = factorize(gen_cycle_cover(5, 3))
        first = bld_bdd_transfer_check(fact, seed=2)
        assert bld_bdd_transfer_check(fact, seed=2).details == first.details
        bld_verify(fact.vm, seed=2)
        assert len(draws) == 2
        paths = enumerate_paths_reference(fact.vm.source, 4, np.random.default_rng(2), 50)
        assert first.details["paths"] == len(paths)

    @pytest.mark.parametrize("seed", [None, [1, 2], np.random.SeedSequence(5)])
    def test_seeds_that_are_not_ints_draw_on_every_call(self, draws, seed):
        vm = gen_cycle_cover(8, 2)
        bld_verify(vm, seed=seed)
        bdd_verify(vm, seed=seed)
        bld_verify(vm, seed=seed)
        assert len(draws) == 3

    def test_a_generator_is_consumed_as_two_fresh_draws(self, draws):
        vm = random_map(np.random.default_rng(11), 12, 4)
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        got = [bld_verify(vm, seed=rng), bld_verify(vm, seed=rng)]
        assert len(draws) == 2
        for cert in got:
            paths = enumerate_paths_reference(vm.source, 4, ref, 100)
            worst, path = bld_worst_reference(vm, paths)
            assert cert.constant == worst
            assert cert.witness == (None if path is None else [vm.source.ids[v] for v in path])
        assert rng.bit_generator.state == ref.bit_generator.state


class TestBudgets:
    @pytest.mark.parametrize("verify", [bld_verify, bdd_verify])
    @pytest.mark.parametrize("budget, n_random", [
        (math.inf, 100), (math.nan, 100), (2.5, 100), (4.0, 100), (4, 2.5), (4, math.inf),
        (4, math.nan), (4, 100.0),
    ])
    def test_budgets_that_are_not_ints_are_refused(self, verify, budget, n_random):
        vm = gen_cycle_cover(8, 2)
        verify(vm)  # a sample of (4, 100) is on the space
        with pytest.raises(ValueError, match="curve_budget must be >= 1 and n_random >= 0"):
            verify(vm, curve_budget=budget, n_random=n_random)

    def test_numpy_int_budgets_are_counts(self):
        vm = gen_cycle_cover(8, 2)
        assert _cert(bdd_verify(vm, curve_budget=np.int64(3), n_random=np.int32(7))) == \
            _cert(bdd_verify(_rebuilt(vm), curve_budget=3, n_random=7))

    def test_enumerate_paths_has_a_bound(self):
        space = gen_cycle_cover(8, 2).source  # a 16-cycle: every simple path is finitely many
        for budget in (math.inf, 0, -1, 2.5):
            with pytest.raises(ValueError, match="curve_budget must be >= 1"):
                enumerate_paths(space, budget)

    @pytest.mark.parametrize("path_budget", [0, -2, math.inf, 2.5])
    def test_verify_projection_refuses_an_empty_or_unbounded_sample(self, path_budget):
        fact = factorize(gen_cycle_cover(5, 3))
        assert verify_projection(fact, path_budget=1).details["paths_checked"] > 0
        with pytest.raises(ValueError, match="curve_budget must be >= 1"):
            verify_projection(fact, path_budget=path_budget)
