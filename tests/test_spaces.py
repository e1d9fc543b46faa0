from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edge_index_reference, random_connected_space
from qrgraph import spaces
from qrgraph.certificates import Certificate
from qrgraph.embedding import embed
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_polar_grid, gen_winding
from qrgraph.measures import jacobians, pullback_measure
from qrgraph.modulus import CurveFamily, modulus
from qrgraph.pullback import pullback_metric_bracket
from qrgraph.spaces import (
    Continuum,
    Curve,
    Space,
    ValidationError,
    ball,
    ball_closed,
    bounded_turning_constant,
    components,
    diameter,
    doubling_constant,
    path_metric,
)


def _path3():
    return Space.build([("a", 1), ("b", 1), ("c", 1)],
                       [("a", "b", 1.0), ("b", "c", 1.0)], "path")


def _cycle4(lens=(1.0, 1.0, 1.0, 1.0)):
    ids = ["a", "b", "c", "d"]
    edges = [(ids[i], ids[(i + 1) % 4], lens[i]) for i in range(4)]
    return Space.build([(v, 1.0) for v in ids], edges, "path")


def brute_force_shortest(space: Space, i: int, j: int) -> float:
    """All simple paths, minimum total length."""
    best = math.inf
    stack = [((i,), 0.0)]
    while stack:
        path, ln = stack.pop()
        if path[-1] == j:
            best = min(best, ln)
            continue
        for w, e in space.adj[path[-1]]:
            if w not in path:
                stack.append((path + (w,), ln + space.edge_length(e)))
    return best


class TestPathMetric:
    def test_path_graph_concatenation(self):
        sp = _path3()
        assert sp.d("a", "c") == 2.0

    def test_single_vertex(self):
        sp = Space.build([("v", 1.0)], [], "path")
        assert sp.d("v", "v") == 0.0

    def test_four_cycle_against_brute_force(self):
        sp = _cycle4()
        d = path_metric(sp)
        for i in range(4):
            for j in range(4):
                assert d[i, j] == pytest.approx(brute_force_shortest(sp, i, j) if i != j else 0.0)
        assert d[0, 2] == 2.0

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError, match="disconnected"):
            Space.build([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1.0)], "path")

    def test_infinite_edge_length_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Space.build([("a", 1), ("b", 1), ("c", 1)],
                        [("a", "b", math.inf), ("b", "c", 1.0)], "path")
        assert exc.value.findings == ("non-finite edge length on (a,b)",)

    def test_non_finite_masses_rejected(self):
        with pytest.raises(ValidationError) as exc:
            Space.build([("a", math.nan), ("b", 1), ("c", math.inf)],
                        [("a", "b", 1.0), ("b", "c", 1.0)], "path")
        assert exc.value.findings == ("non-finite vertex mass at a",
                                      "non-finite vertex mass at c")

    def test_total_mass_that_overflows_rejected(self):
        # each mass is finite, their sum is not; no RuntimeWarning on the way
        with pytest.raises(ValidationError) as exc:
            Space.build([("a", 1e308), ("b", 1e308)], [("a", "b", 1.0)], "path")
        assert exc.value.findings == ("total mass not finite",)

    def test_exactly_symmetric_on_winding_source(self):
        # both directions of a pair hold the same float, not two sums that
        # differ in the last bit
        d = gen_winding(3, levels=6, sectors=8).source.dist
        assert np.array_equal(d, d.T)

    def test_random_graphs_pass_invariants(self):
        # spec invariant: 1000 random graphs, path metric passes the checker
        rng = np.random.default_rng(7)
        for _ in range(1000):
            sp = random_connected_space(rng, int(rng.integers(2, 9)))
            assert sp.validate() == []


class TestBalls:
    def test_open_ball_r0_empty(self):
        sp = _path3()
        assert ball(sp, "b", 0.0) == frozenset()

    def test_ball_beyond_diameter_is_everything(self):
        sp = _path3()
        assert ball(sp, "a", 100.0) == frozenset(range(3))

    def test_unit_path_center_r15(self):
        sp = _path3()
        assert ball(sp, "b", 1.5) == sp.subset(["a", "b", "c"])

    def test_open_vs_closed(self):
        sp = _path3()
        assert ball(sp, "a", 1.0) == sp.subset(["a"])
        assert ball_closed(sp, "a", 1.0) == sp.subset(["a", "b"])

    def test_monotone_in_radius(self):
        sp = _cycle4((1.0, 2.0, 0.5, 1.5))
        radii = sorted({float(x) for x in sp.dist.flatten()} | {0.3, 5.0})
        for r1, r2 in zip(radii, radii[1:]):
            assert ball(sp, "a", r1) <= ball(sp, "a", r2)


class TestComponents:
    def test_connected_input_single_component(self):
        sp = _cycle4()
        comps = components(sp, range(4))
        assert len(comps) == 1 and comps[0].members == frozenset(range(4))

    def test_empty_input(self):
        assert components(_cycle4(), []) == []

    def test_path_with_middle_removed(self):
        sp = Space.build([(v, 1.0) for v in "abcd"],
                         [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)], "path")
        comps = components(sp, ["a", "d"])
        assert len(comps) == 2

    def test_partition_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sp = random_connected_space(rng, 8)
            subset = [v for v in range(8) if rng.random() < 0.5]
            comps = components(sp, subset)
            union = frozenset().union(*[c.members for c in comps]) if comps else frozenset()
            assert union == frozenset(subset)
            for a, b in itertools.combinations(comps, 2):
                assert a.members.isdisjoint(b.members)


class TestDiameter:
    def test_singleton(self):
        assert diameter(_path3(), ["a"]) == 0.0

    def test_whole_unit_4cycle(self):
        assert diameter(_cycle4(), range(4)) == 2.0

    def test_one_pair_edge_length_3(self):
        sp = Space.build([("a", 1), ("b", 1)], [("a", "b", 3.0)], "path")
        assert diameter(sp, ["a", "b"]) == 3.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            diameter(_path3(), [])

    def test_bounded_by_total_edge_length(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sp = random_connected_space(rng, 7)
            total = sum(ln for _i, _j, ln in sp.edges)
            assert diameter(sp, range(sp.n)) <= total + 1e-9


def brute_force_separated(space: Space, pts: list[int], sep: float) -> int:
    best = 0
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if all(space.dist[a, b] >= sep - 1e-9
                   for a, b in itertools.combinations(sub, 2)):
                best = max(best, r)
    return best


class TestDoubling:
    def test_single_vertex(self):
        sp = Space.build([("v", 2.0)], [], "path")
        assert doubling_constant(sp).value in (0, 1)

    def test_two_vertices_distance_one(self):
        sp = Space.build([("a", 1), ("b", 1)], [("a", "b", 1.0)], "path")
        res = doubling_constant(sp)
        assert res.value == 2 and res.exact

    def test_eight_cycle_exact_vs_bruteforce(self):
        sp = Space.build([(f"c{i}", 1.0) for i in range(8)],
                         [(f"c{i}", f"c{(i + 1) % 8}", 1.0) for i in range(8)], "path")
        res = doubling_constant(sp)
        # independent search over every center/radius
        best = 1
        radii = sorted({float(x) for x in sp.dist.flatten() if x > 0})
        sweep = [(a + b) / 2 for a, b in zip(radii, radii[1:])] + [radii[-1] + 1.0]
        for c in range(8):
            for r in sweep:
                pts = [v for v in range(8) if sp.dist[c, v] < r - 1e-9]
                best = max(best, brute_force_separated(sp, pts, r / 2.0))
        assert res.exact and res.value == best

    def test_greedy_lower_bounds_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sp = random_connected_space(rng, 9)
            exact = doubling_constant(sp, exact_cap=16)
            greedy = doubling_constant(sp, exact_cap=0)
            assert not greedy.exact and exact.exact
            assert greedy.value <= exact.value

    def test_greedy_agrees_on_unit_8_cycle(self):
        sp = Space.build([(f"c{i}", 1.0) for i in range(8)],
                         [(f"c{i}", f"c{(i + 1) % 8}", 1.0) for i in range(8)], "path")
        exact = doubling_constant(sp, exact_cap=16)
        greedy = doubling_constant(sp, exact_cap=0)
        assert greedy.value == exact.value


class TestBoundedTurning:
    def test_path_metric_space_is_one(self):
        assert bounded_turning_constant(_cycle4()) == (1.0, 1.0)

    def test_cycle_with_long_edge_path_metric(self):
        sp = _cycle4((10.0, 1.0, 1.0, 1.0))
        assert bounded_turning_constant(sp) == (1.0, 1.0)

    def test_explicit_dist_bracket_contains_exact(self):
        # square with explicit Euclidean-ish metric: the graph path between
        # opposite corners has diameter sqrt(2) * side over distance sqrt(2)
        ids = ["a", "b", "c", "d"]
        pos = {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}
        dist = np.array([[math.dist(pos[u], pos[v]) for v in ids] for u in ids])
        sp = Space.build([(v, 1.0) for v in ids],
                         [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
                         dist)
        lo, hi = bounded_turning_constant(sp)
        # exact constant via exhaustive simple-path enumeration
        exact = 1.0
        for i in range(4):
            for j in range(i + 1, 4):
                best = math.inf
                stack = [(i,)]
                while stack:
                    path = stack.pop()
                    if path[-1] == j:
                        pts = list(path)
                        best = min(best, max(dist[a, b] for a in pts for b in pts))
                        continue
                    for w, _e in sp.adj[path[-1]]:
                        if w not in path:
                            stack.append(path + (w,))
                exact = max(exact, best / dist[i, j])
        assert lo <= exact + 1e-9 <= hi + 1e-9


class TestCurveAndContinuum:
    def test_curve_length(self):
        sp = _cycle4((1.0, 2.0, 3.0, 4.0))
        c = Curve.from_ids(sp, ["a", "b", "c"])
        assert c.length == 3.0

    def test_curve_rejects_nonadjacent(self):
        with pytest.raises(ValidationError):
            Curve.from_ids(_path3(), ["a", "c"])

    def test_continuum_rejects_disconnected(self):
        sp = Space.build([(v, 1.0) for v in "abcd"],
                         [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)], "path")
        with pytest.raises(ValidationError):
            Continuum(sp, frozenset({0, 3}))


def test_space_is_immutable():
    sp = _cycle4()
    with pytest.raises(ValueError):
        sp.dist[0, 1] = 5.0
    with pytest.raises(ValueError):
        sp.mass[0] = 2.0
    with pytest.raises(Exception):
        sp.ids = ("x",)


def test_array_holding_values_compare_by_identity():
    # two equal-content values are distinct objects; == gives a bool, never
    # an ambiguous-truth-value error, and every one of them hashes
    def build():
        vm = gen_cycle_cover(4, 2)
        return [vm.source, Curve.from_ids(vm.source, vm.source.ids[:2]), vm,
                modulus(CurveFamily.connecting(vm.target, ["t0000"], ["t0002"])).density,
                pullback_metric_bracket(vm), pullback_measure(vm), jacobians(vm), embed(vm)]

    for a, b in zip(build(), build()):
        assert isinstance(a == b, bool) and a == a
        assert hash(a) == hash(a)


def test_dict_holding_values_hash_by_identity():
    # a certificate and an embedding plan carry dicts, so a field-wise hash
    # would raise; they compare and hash by identity like the array holders
    vm = gen_cycle_cover(4, 2)
    values = [Certificate("x", True, details={"a": 1}), embed(vm).plan]
    twins = [Certificate("x", True, details={"a": 1}), embed(gen_cycle_cover(4, 2)).plan]
    for a, b in zip(values, twins):
        assert hash(a) == hash(a)
        assert a == a and a != b
    assert len(set(values + twins)) == 4


@pytest.mark.parametrize("derived", [{"index": {"zzz": 5}}, {"adj": ()}, {"edge_index": {}}])
def test_derived_fields_are_not_constructor_parameters(derived):
    # index, adj and edge_index always come from ids and edges, so a value
    # passed for one of them would be dropped without a word
    with pytest.raises(TypeError):
        Space(ids=("a",), mass=np.ones(1), edges=(), _dist=None, **derived)


class TestLazyPathMetric:
    """A path metric is computed on the first read of ``dist`` and cached."""

    @pytest.fixture
    def apsp_calls(self, monkeypatch):
        calls = []
        real = spaces._apsp

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        monkeypatch.setattr(spaces, "_apsp", counting)
        return calls

    def test_annulus_modulus_never_fills(self, apsp_calls):
        ann = gen_polar_grid(17, 16, 1.0, math.e)
        inner, outer = ([f"r{level:03d}s{j:03d}" for j in range(16)] for level in (0, 16))
        modulus(CurveFamily.connecting(ann, inner, outer), p=2)
        assert apsp_calls == []

    def test_first_read_fills_once(self, apsp_calls):
        sp = _cycle4((1.0, 2.0, 1.0, 3.0))
        assert apsp_calls == []
        d = sp.dist
        assert apsp_calls == [4]
        assert sp.dist is d
        assert apsp_calls == [4]
        assert np.array_equal(d, path_metric(sp))
        assert d.flags.writeable is False

    def test_explicit_metric_never_fills(self, apsp_calls):
        dist = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
        sp = Space.build([("a", 1), ("b", 1), ("c", 1)],
                         [("a", "b", 1.0), ("b", "c", 1.0)], dist)
        assert np.array_equal(sp.dist, dist)
        assert not sp.is_path_metric
        assert apsp_calls == []

    def test_concurrent_first_reads_agree(self):
        sp = random_connected_space(np.random.default_rng(3), 60, extra_edges=40)
        start = threading.Barrier(4)
        seen = [None] * 4

        def read(k):
            start.wait(timeout=10)
            seen[k] = sp.dist

        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for d in seen:
            assert np.array_equal(d, path_metric(sp))
            assert d.flags.writeable is False


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=10_000))
def test_path_metric_is_metric(n, extra, seed):
    rng = np.random.default_rng(seed)
    sp = random_connected_space(rng, n, extra_edges=extra)
    d = sp.dist
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    for k in range(n):
        assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)


class TestBoundedTurningAgainstPullback:
    """bounded_turning_constant is the pullback bracket of the identity map."""

    def test_path_metric_spaces_return_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            sp = random_connected_space(rng, 9, extra_edges=3)
            assert bounded_turning_constant(sp) == (1.0, 1.0)
            explicit = Space.build([(v, float(m)) for v, m in zip(sp.ids, sp.mass)],
                                   [(sp.ids[i], sp.ids[j], ln) for i, j, ln in sp.edges],
                                   sp.dist.copy())
            assert not explicit.is_path_metric
            assert bounded_turning_constant(explicit) == (1.0, 1.0)

    def test_explicit_metric_equals_identity_bracket_ratio(self):
        from qrgraph.generators import identity_map
        from qrgraph.pullback import pullback_metric_bracket

        rng = np.random.default_rng(12)
        for n in (5, 8, 12):
            sp = random_connected_space(rng, n, extra_edges=3)
            # the graph of sp with the Euclidean metric of random planar points
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            eucl = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            sq = Space.build([(v, float(m)) for v, m in zip(sp.ids, sp.mass)],
                             [(sp.ids[i], sp.ids[j], ln) for i, j, ln in sp.edges], eucl)
            lo, hi = bounded_turning_constant(sq)
            lower = pullback_metric_bracket(identity_map(sq)).lower
            iu = np.triu_indices(n, 1)
            assert lo == float(np.max(lower[iu] / sq.dist[iu]))
            assert hi == 2.0 * lo
            assert lo > 1.0


def _edge_table_spaces():
    vm = gen_winding(2, 4, 8)
    return {"winding_source": vm.source, "winding_target": vm.target,
            "cycle_cover": gen_cycle_cover(8, 2).source,
            "polar_grid": gen_polar_grid(5, 8, 1.0, math.e),
            "no_edges": Space.build([("a", 1.0)], [], "path")}


EDGE_TABLE_SPACES = _edge_table_spaces()


@pytest.mark.parametrize("name", list(EDGE_TABLE_SPACES))
def test_edge_table_equals_edges_and_is_read_only(name):
    space = EDGE_TABLE_SPACES[name]
    ends, lens = space._ends, space._lens
    assert ends.shape == (len(space.edges), 2) and ends.dtype == np.intp
    assert lens.shape == (len(space.edges),) and lens.dtype == float
    assert [(i, j, ln) for (i, j), ln in zip(ends.tolist(), lens.tolist())] == list(space.edges)
    for table in (ends, lens):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


@pytest.mark.parametrize("derived", ["_ends", "_lens"])
def test_edge_table_is_not_a_constructor_parameter(derived):
    # like index, adj and edge_index, the table always comes from edges
    assert derived in {f.name for f in dataclasses.fields(Space) if not f.init}
    with pytest.raises(TypeError):
        Space(ids=("a",), mass=np.ones(1), edges=(), _dist=None, **{derived: np.zeros(0)})


@pytest.mark.parametrize("name", list(EDGE_TABLE_SPACES))
def test_edge_ids_agree_with_edge_index(name):
    space = EDGE_TABLE_SPACES[name]
    edge_index = edge_index_reference(space)
    pairs = list(edge_index)  # every adjacent pair, in both orders
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    assert spaces._edge_ids(space, a, b).tolist() == [edge_index[p] for p in pairs]
    others = [(i, j) for i in range(space.n) for j in range(space.n)
              if (i, j) not in edge_index]
    a, b = np.array(others, dtype=np.intp).reshape(-1, 2).T
    assert spaces._edge_ids(space, a, b).tolist() == [-1] * len(others)


@pytest.mark.parametrize("vertices, index", [((0, 7), 7), ((0, -1), -1), ((7,), 7)])
def test_curve_vertex_outside_the_space_is_named_before_any_edge_lookup(vertices, index):
    # (0, 7) has the key 0 * 5 + 7 of the edge (1, 2); -1 would wrap to c0004
    with pytest.raises(ValidationError, match=rf"^curve vertex index {index} not in range\(5\)$"):
        Curve(gen_cycle(5), vertices)


def test_curve_step_that_is_no_edge_is_named():
    with pytest.raises(ValidationError, match=r"not adjacent: \(c0002,c0002\)"):
        Curve(gen_cycle(5), (1, 2, 2))
    assert Curve(gen_cycle(5), (0, 4, 3)).edge_indices() == [1, 4]


@pytest.mark.parametrize("edges", [((1, 0, 1.0),), ((0, 0, 1.0),),
                                   ((0, 2, 1.0), (0, 1, 1.0)),
                                   ((0, 1, 1.0), (0, 1, 2.0)),
                                   ((0, 3, 1.0),), ((-1, 0, 1.0),)])
def test_direct_space_needs_ascending_edges_with_i_below_j(edges):
    # _edge_ids and the adjacency rows read the edges in ascending key order
    with pytest.raises(ValidationError, match="strictly ascending"):
        Space(ids=("a", "b", "c"), mass=np.ones(3), edges=edges, _dist=None)


@pytest.mark.parametrize("name", list(EDGE_TABLE_SPACES))
def test_adjacency_rows_list_neighbours_in_ascending_order(name):
    space = EDGE_TABLE_SPACES[name]
    rows: list[list[tuple[int, int]]] = [[] for _ in space.ids]
    for e, (i, j, _ln) in enumerate(space.edges):
        rows[i].append((j, e))
        rows[j].append((i, e))
    assert space.adj == tuple(tuple(sorted(r)) for r in rows)


# -- vertex coercion ------------------------------------------------------------


def _vertex_readers():
    from qrgraph.covering import local_index, normal_radius
    from qrgraph.dilatation import dilatation_profile, inverse_dilatation_profile
    from qrgraph.measures import essential_index_profile

    return [normal_radius, local_index, dilatation_profile, inverse_dilatation_profile,
            essential_index_profile]


@pytest.mark.parametrize("bad", [-1, -37, 37, 10**6])
def test_an_index_outside_the_source_is_an_unknown_vertex(bad):
    # a negative index must not wrap round to the end of the vertex list
    vm = gen_winding(2, 3, 6)  # 37 source vertices
    for read in _vertex_readers():
        with pytest.raises(KeyError, match=f"unknown vertex index: {bad}"):
            read(vm, bad)


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0)])
def test_a_float_is_not_a_vertex_index(bad):
    vm = gen_winding(2, 3, 6)
    for read in _vertex_readers():
        with pytest.raises(TypeError):
            read(vm, bad)


def test_ints_of_any_kind_and_ids_name_the_same_vertex():
    vm = gen_winding(2, 3, 6)
    src = vm.source
    assert {spaces._idx(src, v) for v in (5, np.int64(5), np.int32(5), src.ids[5])} == {5}
    for read in _vertex_readers():
        assert read(vm, np.int64(5)) == read(vm, 5) == read(vm, src.ids[5])
