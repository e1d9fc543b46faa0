"""The connecting-family modulus oracle against the heap search it replaced.

``dijkstra_curve_reference`` is the pure-Python heap search keyed by
(rho-cost, geometric length, id rank).  The compiled two-pass oracle must
return the same float and the same constraint row on every call, so every
solve built on it is bitwise the solve of the reference.
"""
from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from conftest import random_map, reference_family_oracle
from qrgraph.generators import gen_grid, gen_polar_grid, gen_winding
from qrgraph.modulus import (
    CurveFamily,
    _family_oracle,
    _solve_program,
    edge_measures,
    ki_certificate,
    ko_certificate,
)
from qrgraph.spaces import Space, space_from_json, space_to_json

# the module, not the function ``qrgraph.modulus`` that shadows it
modulus_mod = importlib.import_module("qrgraph.modulus")

LENGTHS = (1.0, 2.0, 0.5, 1.0 / 3.0)


def _same_call(got, want) -> bool:
    (v1, r1), (v2, r2) = got, want
    if v1 != v2 or (r1 is None) != (r2 is None):
        return False
    return r1 is None or all(a.tobytes() == b.tobytes() for a, b in zip(r1, r2))


def _tied_space(rng: np.random.Generator, n: int, lengths=LENGTHS) -> Space:
    """A random connected graph whose lengths repeat, so that many curves
    tie in cost and in length, with ids in a shuffled order."""
    ids = [f"x{k:03d}" for k in rng.permutation(n)]
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((a, b))
    edges = [(ids[a], ids[b], lengths[int(rng.integers(0, len(lengths)))]) for a, b in sorted(pairs)]
    return Space.build([(v, 1.0) for v in ids], edges, "path")


def _sparse_rho(rng: np.random.Generator, size: int) -> np.ndarray:
    """Densities with many exact zeros and repeated values, or continuous."""
    if rng.random() < 0.25:
        return rng.random(size)
    return rng.choice([0.0, 0.0, 0.0, 1.0, 0.5, 2.0, 1.0 / 3.0], size=size)


def _families(rng: np.random.Generator, space: Space):
    """E and F, once in the whole space and once within a random carrier."""
    order = [int(v) for v in rng.permutation(space.n)]
    k_e, k_f = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    e_set, f_set = order[:k_e], order[k_e:k_e + k_f]
    carrier = order[:int(rng.integers(k_e + k_f, space.n + 1))]
    return [CurveFamily.connecting(space, e_set, f_set),
            CurveFamily.connecting(space, e_set, f_set, carrier)]


@pytest.mark.parametrize("seed", range(5))
def test_oracle_equals_reference_per_call(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        space = _tied_space(rng, int(rng.integers(6, 41)))
        for fam in _families(rng, space):
            new, ref = _family_oracle(fam), reference_family_oracle(fam)
            for _call in range(5):
                rho = _sparse_rho(rng, len(space.edges))
                assert _same_call(new(rho), ref(rho))


@pytest.mark.parametrize("short, long", [(1e-17, 1.0), (1.0, 1e16)])
def test_oracle_equals_reference_where_lengths_vanish(short, long):
    # s-c is long and c, a, b form a triangle of short edges that vanish
    # when added to it, so c, a and b share one label (d, ln); the walk back
    # from b must take the predecessor the heap search took (c), not swing
    # between a and b, whose ranks are smaller
    space = Space.build(
        [(v, 1.0) for v in "scab"],
        [("s", "c", long), ("c", "a", short), ("c", "b", short), ("a", "b", short)],
        "path",
    )
    fam = CurveFamily.connecting(space, ["s"], ["b"])
    new, ref = _family_oracle(fam), reference_family_oracle(fam)
    for rho in (np.zeros(4), np.ones(4), np.array([1.0, 0.0, 2.0, 0.0])):
        assert _same_call(new(rho), ref(rho))
    _value, (idx, _coef) = new(np.zeros(4))
    assert list(idx) == [space.edge_index[(0, 1)], space.edge_index[(1, 3)]]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_oracle_equals_reference_where_length_overflows():
    # ln overflows to inf at z, and z, c, x then share the label (0, inf);
    # their ranks alone would send the walk from x to c and back to x
    big = 1e308
    space = Space.build(
        [(v, 1.0) for v in "saczx"],
        [("s", "a", big), ("a", "z", big), ("z", "c", 1.0), ("c", "x", 1.0), ("x", "z", 1.0)],
        "path",
    )
    fam = CurveFamily.connecting(space, ["s"], ["x"])
    rho = np.zeros(5)
    assert _same_call(_family_oracle(fam)(rho), reference_family_oracle(fam)(rho))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("seed", range(3))
def test_oracle_equals_reference_with_vanishing_lengths(seed):
    # lengths 16 orders of magnitude apart, or so long that ln overflows:
    # many arcs add nothing to the length label, so whole groups of vertices
    # share a label and pop in the order of the heap search's own traversal
    rng = np.random.default_rng(200 + seed)
    for lengths in [(1.0, 1e-17), (1e16, 1.0), (1.0, 2.0, 1e-16, 3e-17), (1e308, 1.0)]:
        for _ in range(10):
            space = _tied_space(rng, int(rng.integers(6, 30)), lengths)
            for fam in _families(rng, space):
                new, ref = _family_oracle(fam), reference_family_oracle(fam)
                for _call in range(4):
                    rho = rng.choice([0.0, 0.0, 0.0, 1.0, 1e-17, 1e16], size=len(space.edges))
                    assert _same_call(new(rho), ref(rho))


def test_oracle_equals_reference_on_disconnected_carrier():
    # two paths a-b-c and d-e-f joined only through the hub h, which the
    # carrier leaves out: no curve joins E to F inside it
    space = Space.build(
        [(v, 1.0) for v in "abcdefh"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("d", "e", 1.0), ("e", "f", 1.0),
         ("c", "h", 1.0), ("h", "d", 1.0)],
        "path",
    )
    fam = CurveFamily.connecting(space, ["a"], ["f"], ["a", "b", "c", "d", "e", "f"])
    rho = np.zeros(len(space.edges))
    got = _family_oracle(fam)(rho)
    assert got == (math.inf, None)
    assert _same_call(got, reference_family_oracle(fam)(rho))
    res = modulus_mod.modulus(fam)
    assert res.value == 0.0 and res.flags == ("empty family",)


@pytest.mark.parametrize("seed", range(3))
def test_image_oracle_equals_reference_per_call(seed):
    # through a vertex map, collapsed edges cost nothing and the row lives
    # on target edges
    rng = np.random.default_rng(100 + seed)
    for _ in range(15):
        vm = random_map(rng, int(rng.integers(8, 25)), int(rng.integers(3, 8)))
        for fam in _families(rng, vm.source):
            new, ref = _family_oracle(fam, vm), reference_family_oracle(fam, vm)
            for _call in range(5):
                rho = _sparse_rho(rng, len(vm.target.edges))
                assert _same_call(new(rho), ref(rho))


def _permuted(space: Space, seed: int) -> Space:
    """The vertex records in the order ``perfbench/inputs.permuted`` gives
    them for ``np.random.default_rng(seed)``."""
    obj = space_to_json(space)
    verts = obj["vertices"]
    order = np.random.default_rng(seed).permutation(len(verts))
    return space_from_json({**obj, "vertices": [verts[k] for k in order]})


def _assert_same_solve(fam: CurveFamily, p: float):
    m = edge_measures(fam.space)
    got = _solve_program(m, p, _family_oracle(fam), 1e-6, 100_000)
    want = _solve_program(m, p, reference_family_oracle(fam), 1e-6, 100_000)
    (rho1, value1, gap1, iters1, flags1), (rho2, value2, gap2, iters2, flags2) = got, want
    assert (value1, gap1, iters1, flags1) == (value2, gap2, iters2, flags2)
    assert rho1.tobytes() == rho2.tobytes()
    return got


def _annulus_family(sectors: int, seed: int | None = None) -> CurveFamily:
    space = gen_polar_grid(sectors + 1, sectors, 1.0, math.e)
    if seed is not None:
        space = _permuted(space, seed)
    return CurveFamily.connecting(space, [f"r000s{j:03d}" for j in range(sectors)],
                                  [f"r{sectors:03d}s{j:03d}" for j in range(sectors)])


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_annulus_32_solve_equals_reference(seed, p):
    _rho, value, gap, _iters, flags = _assert_same_solve(_annulus_family(32, seed), p)
    assert not flags and gap <= 1e-5 and math.isfinite(value)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_grid_solve_equals_reference(p):
    g = gen_grid(12, 6)
    fam = CurveFamily.connecting(g, [f"g000_{j:03d}" for j in range(7)],
                                 [f"g012_{j:03d}" for j in range(7)])
    _assert_same_solve(fam, p)


def _w2_families(vm) -> list[CurveFamily]:
    """The annulus and angular families of gen_winding(2, 4, 8)."""
    src = vm.source

    def ids(rings, secs):
        return [f"r{i:03d}s{j:03d}" for i in rings for j in secs]

    secs = range(16)
    return [CurveFamily.connecting(src, ["center", *ids((0, 1), secs)], ids((2, 3), secs)),
            CurveFamily.connecting(src, ids((1, 2), (0,)), ids((1, 2), (8,)),
                                   [src.i(v) for v in ids((1, 2), secs)])]


@pytest.mark.parametrize("certificate", [ko_certificate, ki_certificate])
def test_certificates_equal_reference(certificate, monkeypatch):
    vm = gen_winding(2, levels=4, sectors=8)
    fams = _w2_families(vm)
    got = certificate(vm, fams)
    monkeypatch.setattr(modulus_mod, "_family_oracle", reference_family_oracle)
    want = certificate(vm, fams)
    assert (got.passed, got.constant, got.witness) == (want.passed, want.constant, want.witness)
    assert got.details == want.details


@pytest.mark.slow
def test_annulus_64_solve_equals_reference():
    _assert_same_solve(_annulus_family(64), 2.0)
