"""Batched constraint-generation rounds against one row per round.

``_family_oracle`` has ``more``: the extra zero-cost rows that the next
calls would return, one per call, under the guard of the module docstring.
``reference_family_oracle`` has no ``more``, so ``_solve_program`` adds one
row per round with it.  Every solve must be bitwise the same: density bytes,
value, gap, iterations and flags.
"""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from conftest import edge_index_reference, random_map, reference_family_oracle
from qrgraph.generators import gen_polar_grid
from qrgraph.modulus import CurveFamily, _family_oracle, _solve_program, edge_measures, modulus
from qrgraph.spaces import Space, ValidationError
from test_oracle import LENGTHS, _families, _tied_space

# the module, not the function ``qrgraph.modulus`` that shadows it
modulus_mod = importlib.import_module("qrgraph.modulus")


def _counted(oracle, admitted: list[int]):
    """``oracle`` with its ``more`` recording how many rows each call admits."""
    extra = oracle.more

    def more(*args):
        rows = extra(*args)
        admitted.append(len(rows))
        return rows

    oracle.more = more
    return oracle


def _same_solve(fam: CurveFamily, p: float, vm=None, admitted: list[int] | None = None):
    space = fam.space if vm is None else vm.target
    m = edge_measures(space)

    def outcome(oracle):
        """The solve with the density as bytes, or the error it raises."""
        try:
            rho, *rest = _solve_program(m, p, oracle, 1e-6, 100_000)
        except ValidationError as exc:
            return str(exc)
        return rho.tobytes(), *rest

    new = _counted(_family_oracle(fam, vm), [] if admitted is None else admitted)
    assert outcome(new) == outcome(reference_family_oracle(fam, vm))


def _tied_sweep(seed: int, solves: int, lengths=LENGTHS) -> list[int]:
    rng = np.random.default_rng(seed)
    admitted: list[int] = []
    for _ in range(solves):
        space = _tied_space(rng, int(rng.integers(6, 30)), lengths)
        for fam in _families(rng, space):
            for p in (2.0, 3.0):
                _same_solve(fam, p, admitted=admitted)
    return admitted


def _image_sweep(seed: int, solves: int) -> list[int]:
    rng = np.random.default_rng(seed)
    admitted: list[int] = []
    for _ in range(solves):
        vm = random_map(rng, int(rng.integers(8, 25)), int(rng.integers(3, 8)))
        for fam in _families(rng, vm.source):
            _same_solve(fam, 2.0, vm, admitted)
    return admitted


@pytest.mark.parametrize("seed", range(3))
def test_tied_families_solve_as_one_row_per_round(seed):
    admitted = _tied_sweep(500 + seed, 6)
    assert sum(admitted) > 0  # the sweep does batch


@pytest.mark.parametrize("seed", range(2))
def test_image_families_solve_as_one_row_per_round(seed):
    admitted = _image_sweep(600 + seed, 8)
    assert sum(admitted) > 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("lengths", [(1.0, 1e-17), (1e16, 1.0), (1e308, 1.0)])
def test_vanishing_lengths_solve_as_one_row_per_round(lengths):
    _tied_sweep(700, 4, lengths)


def _vanishes_at_zero(fam: CurveFamily) -> bool:
    """Whether a length vanishes in the oracle's call at rho = 0: an edge
    inside the carrier adds nothing to the least length from E of an end
    that E reaches, as every edge does once that length is inf."""
    space = fam.space
    e_set, _f_set, carrier = fam.connect
    inside = [(i, j, ln) for i, j, ln in space.edges if i in carrier and j in carrier]
    if not inside:
        return False
    i, j, ln = (np.array(col) for col in zip(*inside))
    u, w, step = np.r_[i, j], np.r_[j, i], np.r_[ln, ln]
    graph = scipy.sparse.csr_matrix((step, (u, w)), shape=(space.n, space.n))
    least = scipy.sparse.csgraph.dijkstra(graph, indices=sorted(e_set), min_only=True)
    graph.data[:] = 1.0
    reached = scipy.sparse.csgraph.dijkstra(graph, indices=sorted(e_set), min_only=True) < math.inf
    return bool(np.any(reached[u] & (least[u] + step == least[u])))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("lengths", [(1.0, 1e-17), (1e16, 1.0), (1e308, 1.0)])
def test_no_batch_after_a_call_where_a_length_vanishes(lengths):
    # the batch rule's proof needs lengths that add, so after a call where
    # one vanishes ``more`` admits nothing, whatever that call's tree holds;
    # the spaces and families are those of the one-row-per-round sweep above
    rng = np.random.default_rng(700)
    calls = 0
    for _ in range(4):
        space = _tied_space(rng, int(rng.integers(6, 30)), lengths)
        for fam in _families(rng, space):
            oracle = _family_oracle(fam)
            n_e = len(space.edges)
            _value, row = oracle(np.zeros(n_e))
            if row is None or not _vanishes_at_zero(fam):
                continue
            taken = np.zeros(n_e, dtype=bool)
            taken[row[0]] = True
            assert oracle.more(taken, 10, lambda r: np.ones(r[0].size)) == []
            calls += 1
    assert calls > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6))
def test_many_tied_and_image_families_solve_as_one_row_per_round(seed):
    _tied_sweep(800 + seed, 25)
    _image_sweep(900 + seed, 15)


@pytest.mark.parametrize("max_iter", [1, 2, 5, 16])
def test_iteration_cap_bounds_the_batch(max_iter):
    # the 16 radial curves would all join the first batch
    space = gen_polar_grid(17, 16, 1.0, math.e)
    fam = CurveFamily.connecting(space, [f"r000s{j:03d}" for j in range(16)],
                                 [f"r016s{j:03d}" for j in range(16)])
    m = edge_measures(space)
    got = _solve_program(m, 2.0, _family_oracle(fam), 1e-6, max_iter)
    want = _solve_program(m, 2.0, reference_family_oracle(fam), 1e-6, max_iter)
    assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
    assert got[3] == max_iter and ("iteration cap" in got[4]) == (max_iter < 16)


def _detour_space(detour: bool) -> Space:
    """E = {s}, F = {a, b, c}, every F vertex at length 2: s-x-a and s-x-b
    share the edge s-x, c is reached by s-z-c, and with ``detour`` b also by
    s-y-b.  The ids rank a < b < c and x < y."""
    edges = [("s", "x", 1.0), ("x", "a", 1.0), ("x", "b", 1.0), ("s", "z", 1.0), ("z", "c", 1.0)]
    if detour:
        edges += [("s", "y", 1.0), ("y", "b", 1.0)]
    return Space.build([(v, 1.0) for v in "abcsxz" + "y" * detour], edges, "path")


def _extras(fam: CurveFamily) -> list:
    """The rows ``more`` admits after the first call at rho = 0."""
    oracle = _family_oracle(fam)
    n_e = len(fam.space.edges)
    value, (idx, _coef) = oracle(np.zeros(n_e))
    assert value == 0.0
    taken = np.zeros(n_e, dtype=bool)
    taken[idx] = True
    return oracle.more(taken, 10, lambda row: np.ones(row[0].size))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_guard_refuses_an_equal_length_detour(p):
    # the first curve s-x-a loads s-x, so b's tree curve s-x-b is skipped; b
    # keeps length 2 through s-y-b and outranks c, so the next call returns
    # b, and c may not join the batch
    fam = CurveFamily.connecting(_detour_space(True), ["s"], ["a", "b", "c"])
    assert _extras(fam) == []
    _same_solve(fam, p)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_guard_admits_once_the_skipped_curve_is_cut(p):
    # without s-y-b, loading s-x raises b's length above 2, so c is next
    space = _detour_space(False)
    fam = CurveFamily.connecting(space, ["s"], ["a", "b", "c"])
    [(idx, _coef)] = _extras(fam)
    index = edge_index_reference(space)
    assert sorted(idx.tolist()) == sorted(index[space.i(u), space.i(v)] for u, v in ("sz", "zc"))
    _same_solve(fam, p)


def test_a_batch_that_fails_its_stopping_test_gives_way_to_its_first_row(monkeypatch):
    # at p = 1 + 1e-7 the power 1 / (p - 1) amplifies rounding, so a row at
    # its one-row optimum misses the stopping test at tol 1e-10: the batch
    # of both disjoint curves fails it, and the first row runs alone
    space = Space.build([(v, 1.0) for v in "absxy"],
                        [("s", "x", 1.0), ("x", "a", 1.0), ("s", "y", 1.0), ("y", "b", 1.0)], "path")
    fam = CurveFamily.connecting(space, ["s"], ["a", "b"])
    p = 1.0 + 1e-7
    m = (1.0 + np.random.default_rng(0).uniform(-1e-7, 1e-7, 4)) / p
    budgets = []
    restricted_dual = modulus_mod._restricted_dual

    def recorded(*args):
        out = restricted_dual(*args)
        budgets.append((args[-1], out is None))
        return out

    monkeypatch.setattr(modulus_mod, "_restricted_dual", recorded)
    rho, *rest = _solve_program(m, p, _family_oracle(fam), 1e-10, 100_000)
    assert budgets[:2] == [(0, True), (100_000, False)]
    ref_rho, *ref_rest = _solve_program(m, p, reference_family_oracle(fam), 1e-10, 100_000)
    assert rest == ref_rest and not rest[-1]
    assert rho.tobytes() == ref_rho.tobytes()


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_empty_explicit_family_has_modulus_zero(p):
    # an explicit family scans its rows and has no ``more``; with no curve
    # at all it reads as a connecting family that joins nothing
    space = _detour_space(True)
    assert not hasattr(_family_oracle(CurveFamily.explicit(space, [])), "more")
    res = modulus(CurveFamily.explicit(space, []), p=p)
    assert (res.value, res.gap, res.iterations, res.flags) == (0.0, 0.0, 0, ("empty family",))
    assert not res.density.values.any()


def test_mod2_at_64_sectors_takes_two_oracle_calls(monkeypatch):
    passes = []
    dijkstra = scipy.sparse.csgraph.dijkstra

    def counted(*args, **kwargs):
        passes.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", counted)
    space = gen_polar_grid(65, 64, 1.0, math.e)
    fam = CurveFamily.connecting(space, [f"r000s{j:03d}" for j in range(64)],
                                 [f"r064s{j:03d}" for j in range(64)])
    res = modulus(fam, p=2.0)
    assert len(passes) <= 4  # two passes per oracle call
    assert res.iterations == 64 and res.exact and not res.flags
