from __future__ import annotations

import numpy as np
import pytest

from conftest import random_map, u_component_reference
from qrgraph.covering import (
    VertexMap,
    branch_set,
    decompose_fibers,
    greedy_cover,
    local_index,
    map_from_json,
    max_multiplicity,
    multiplicity,
    normal_radius,
    normal_radius_table,
    openness_certificate,
    u_component,
)
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.spaces import Space, ValidationError, ball


@pytest.fixture(scope="module")
def cover():
    return gen_cycle_cover(8, 2)


@pytest.fixture(scope="module")
def w2():
    return gen_winding(2, levels=4, sectors=8)


class TestValidation:
    def test_identity_valid(self):
        vm = identity_map(gen_cycle(5))
        assert vm.validate() == []

    def test_not_surjective_reported(self):
        sp = gen_cycle(4)
        with pytest.raises(ValidationError, match="not surjective"):
            VertexMap.build(sp, sp, {v: "c0000" for v in sp.ids})

    def test_edge_compatibility_reported(self):
        src = gen_cycle(4, prefix="s")
        tgt = gen_cycle(5, prefix="t")
        # map 4-cycle onto 4 of the 5 target vertices: some image pair skips
        assign = {"s0000": "t0000", "s0001": "t0001", "s0002": "t0002", "s0003": "t0004"}
        with pytest.raises(ValidationError) as err:
            VertexMap.build(src, tgt, assign)
        assert any("edge-compatibility" in f for f in err.value.findings) or \
            any("not surjective" in f for f in err.value.findings)

    def test_map_json_rejects_unknown_fields(self):
        sp = gen_cycle(3)
        with pytest.raises(ValidationError):
            map_from_json({"source": "s", "target": "t", "pairs": [], "bogus": 1}, sp, sp)


class TestMultiplicity:
    def test_identity_everywhere_one(self):
        vm = identity_map(gen_cycle(6))
        assert all(multiplicity(vm, y) == 1 for y in range(6))
        assert max_multiplicity(vm) == 1

    def test_double_cover_fiber_enumeration(self, cover):
        for y in range(cover.target.n):
            fib = {x for x in range(cover.source.n) if int(cover.f[x]) == y}
            assert multiplicity(cover, y) == len(fib) == 2
        assert max_multiplicity(cover) == 2

    def test_empty_set(self, cover):
        assert multiplicity(cover, 0, []) == 0

    def test_restriction_to_one_fiber(self, cover):
        fib = cover.fiber(0)
        assert multiplicity(cover, 0, fib) == len(fib)

    def test_winding_max_multiplicity(self, w2):
        assert max_multiplicity(w2) == 2


class TestUComponent:
    def test_identity_component_is_ball(self):
        vm = identity_map(gen_cycle(6))
        u = u_component(vm, 0, 2.5)
        assert u.members == ball(vm.target, "c0000", 2.5)

    def test_whole_space_at_large_radius(self, cover):
        u = u_component(cover, 0, 100.0)
        assert u.members == frozenset(range(cover.source.n))

    def test_w2_branch_small_radius_both_sheets(self, w2):
        ci = w2.source.i("center")
        r = w2.target.ball_radii(w2.source.i("center") * 0 + w2.f[ci])[0]
        u = u_component(w2, ci, r)
        # both preimages of each innermost target vertex are in the component
        inner = [v for v in u.members if v != ci]
        images = [int(w2.f[v]) for v in inner]
        assert any(images.count(y) == 2 for y in set(images))


class TestLocalIndexAndBranchSet:
    def test_identity_index_one(self):
        vm = identity_map(gen_cycle(6))
        assert all(local_index(vm, x) == 1 for x in range(6))
        assert branch_set(vm) == frozenset()

    def test_w2_center_two_others_one(self, w2):
        ci = w2.source.i("center")
        assert local_index(w2, ci) == 2
        assert local_index(w2, w2.source.i("r001s003")) == 1
        assert branch_set(w2) == frozenset({ci})

    def test_cyclic_double_cover_unbranched(self, cover):
        assert branch_set(cover) == frozenset()

    def test_index_bounded_by_max_multiplicity(self, cover, w2):
        for vm in (cover, w2):
            n_max = max_multiplicity(vm)
            for x in range(vm.source.n):
                assert 1 <= local_index(vm, x) <= n_max


class TestOpenness:
    def test_identity_true(self):
        vm = identity_map(gen_cycle(6))
        ok, _w = openness_certificate(vm, 0, 2.5)
        assert ok

    def test_w2_center_true(self, w2):
        ci = w2.source.i("center")
        r = w2.target.ball_radii(int(w2.f[ci]))[0]
        ok, _w = openness_certificate(w2, ci, r)
        assert ok

    def test_folded_map_false_with_witness(self):
        # the sheet through `a` never reaches the preimage of X, so the
        # component's image misses part of the ball
        src = Space.build([(v, 1.0) for v in "abcdeg"],
                          [("a", "b", 1), ("b", "c", 1), ("c", "d", 1),
                           ("d", "e", 1), ("e", "g", 1)], "path")
        tgt = Space.build([(v, 1.0) for v in "XYZW"],
                          [("X", "Y", 1), ("Y", "Z", 1), ("Z", "W", 1)], "path")
        vm = VertexMap.build(src, tgt, {"a": "Y", "b": "Z", "c": "W",
                                        "d": "Z", "e": "Y", "g": "X"})
        ok, witness = openness_certificate(vm, "a", 1.5)
        assert not ok and witness["missing"] == ["X"]


class TestNormalRadius:
    def test_identity_largest_connected_ball(self):
        vm = identity_map(gen_cycle(8))
        r, rec = normal_radius(vm, 0)
        assert not rec["degenerate"]
        assert r == max(vm.target.ball_radii(0))

    def test_double_cover_below_fiber_separation(self, cover):
        r, rec = normal_radius(cover, 0)
        sep = 8.0  # antipodal fiber distance in the 16-cycle
        assert r < sep / 2
        assert rec["M_z"] == pytest.approx(sep / 6.0)
        assert not rec["degenerate"]

    def test_single_vertex_target_degenerate(self):
        src = gen_cycle(3)
        tgt = Space.build([("y", 1.0)], [], "path")
        vm = VertexMap(source=src, target=tgt, f=np.zeros(3, dtype=int), check=False)
        _r, rec = normal_radius(vm, 0)
        assert rec["degenerate"]

    def test_table_records_all_properties(self, cover):
        table = normal_radius_table(cover)
        assert not table.degenerate
        for rec in table.record.values():
            for key in ("p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"):
                assert rec[key] is True

    def test_prop5_monotonicity_on_corpus(self, cover, w2):
        # N(z', f, X) >= N(z, f, X) for z' in the normal ball
        for vm in (cover, w2):
            table = normal_radius_table(vm)
            for z in range(vm.target.n):
                zid = vm.target.ids[z]
                r = table.radius[zid]
                for z2 in ball(vm.target, zid, r):
                    assert multiplicity(vm, z2) >= multiplicity(vm, z)


class TestDecomposeFibers:
    def test_identity_n1_whole_domain(self):
        vm = identity_map(gen_cycle(6))
        parts = decompose_fibers(vm, range(6), 1)
        assert parts == [frozenset(range(6))]

    def test_double_cover_two_sheets(self, cover):
        parts = decompose_fibers(cover, range(cover.source.n), 2)
        assert len(parts) == 2
        for p in parts:
            imgs = [int(cover.f[v]) for v in p]
            assert len(set(imgs)) == len(imgs) == cover.target.n

    def test_partial_fiber_lands_in_d1(self, cover):
        domain = set(range(cover.source.n)) - {0}  # drop one point of a 2-fiber
        y0 = int(cover.f[0])
        parts1 = decompose_fibers(cover, domain, 1)
        d1 = frozenset().union(*parts1)
        twin = next(v for v in cover.fiber(y0) if v != 0)
        assert twin in d1

    def test_n_out_of_range(self, cover):
        with pytest.raises(ValueError, match="out of range"):
            decompose_fibers(cover, range(cover.source.n), 3)


class TestGreedyCover:
    def _path_identity(self, n=20):
        sp = Space.build([(f"p{i:02d}", 1.0) for i in range(n)],
                         [(f"p{i:02d}", f"p{i + 1:02d}", 1.0) for i in range(n - 1)],
                         "path")
        return identity_map(sp)

    def test_disjoint_family_returned_whole(self):
        vm = self._path_identity()
        table = normal_radius_table(vm)
        fam = [("p02", 0.6), ("p10", 0.6), ("p17", 0.6)]
        chosen, report = greedy_cover(vm, fam, table)
        assert chosen == sorted(fam, key=lambda t: (-t[1], t[0]))
        assert report["disjoint"] and report["covers_union"]

    def test_nested_pair_keeps_larger(self):
        vm = self._path_identity()
        table = normal_radius_table(vm)
        chosen, report = greedy_cover(vm, [("p10", 0.7), ("p10", 2.2)], table)
        assert chosen == [("p10", 2.2)]
        assert report["disjoint"] and report["covers_union"]

    def test_overlapping_chain_classic_5r(self):
        vm = self._path_identity()
        table = normal_radius_table(vm)
        fam = [(f"p{i:02d}", 1.6) for i in range(2, 18)]
        chosen, report = greedy_cover(vm, fam, table)
        assert report["disjoint"] and report["covers_union"]
        assert len(chosen) < len(fam)

    def test_precondition_violations_reported(self):
        vm = gen_cycle_cover(8, 2)
        table = normal_radius_table(vm)
        r_big = max(table.radius.values())
        with pytest.raises(ValidationError, match="5r >= normal radius"):
            greedy_cover(vm, [("s0000", r_big)], table)

    def test_branched_map_cover(self):
        vm = gen_winding(2, levels=4, sectors=8)
        table = normal_radius_table(vm)
        fam = []
        for x in ("r001s000", "r001s004", "r002s008", "r003s012", "center"):
            r = table.radius_at(x) / 5.5
            fam.append((x, r))
        chosen, report = greedy_cover(vm, fam, table)
        assert report["disjoint"] and report["covers_union"]


def greedy_cover_reference(vm: VertexMap, family, table):
    """The 5r greedy cover with one reference component per element and one
    per chosen element's inflation: the loop ``greedy_cover`` ran before it
    read every row from one sweep."""
    items = sorted(family, key=lambda it: (-it[1], it[0]))
    units = [u_component_reference(vm, vm.source.i(x), r) for x, r in items]
    chosen, chosen_sets, inflated = [], [], set()
    for (x, r), u in zip(items, units):
        if u <= inflated:
            continue
        chosen.append((x, r))
        chosen_sets.append(u)
        inflated |= u_component_reference(vm, vm.source.i(x), 5.0 * r)
    disjoint = all(a.isdisjoint(b) for i, a in enumerate(chosen_sets) for b in chosen_sets[i + 1:])
    return chosen, {"disjoint": disjoint, "covers_union": set().union(*units) <= inflated,
                    "chosen": list(chosen)}


@pytest.mark.parametrize("make, step, scale", [
    (lambda: gen_winding(2, 4, 8), 3, 6.0),
    (lambda: gen_winding(2, 4, 8), 1, 5.5),
    (lambda: gen_cycle_cover(8, 3), 2, 6.0),
    *((lambda s=s: random_map(np.random.default_rng(s), 14, 4), 1, 5.5) for s in range(4)),
])
def test_greedy_cover_equals_the_per_element_reference(make, step, scale):
    vm = make()
    table = normal_radius_table(vm)
    family = [(vm.source.ids[x], table.radius_at(x) / scale) for x in range(0, vm.source.n, step)]
    assert greedy_cover(vm, family, table) == greedy_cover_reference(vm, family, table)


def test_greedy_cover_refuses_a_centre_outside_its_own_ball():
    vm = gen_winding(2, 4, 8)
    table = normal_radius_table(vm)
    with pytest.raises(ValueError, match="u_component: r001s004 lies outside"):
        greedy_cover(vm, [("r002s008", table.radius_at("r002s008") / 6.0), ("r001s004", 0.0)],
                     table)


class TestRandomMaps:
    def test_random_maps_validate(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            vm = random_map(rng, int(rng.integers(4, 10)), int(rng.integers(2, 5)))
            assert vm.validate() == []

    def test_local_index_chain_on_random_maps(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            vm = random_map(rng, 8, 3)
            for x in range(vm.source.n):
                assert 1 <= local_index(vm, x) <= max_multiplicity(vm)


def test_validate_lists_every_incompatible_edge_in_edge_order():
    # a-b and b-c map onto the non-adjacent x, z; c-d and d-e onto edges
    src = Space.build([(v, 1.0) for v in "abcde"],
                      [("d", "e", 1.0), ("b", "c", 1.0), ("a", "b", 1.0), ("c", "d", 1.0)], "path")
    tgt = Space.build([(v, 1.0) for v in "xyz"], [("x", "y", 1.0), ("y", "z", 1.0)], "path")
    want = ["edge-compatibility fails on (a,b): images (x,z) not adjacent",
            "edge-compatibility fails on (b,c): images (z,x) not adjacent"]
    f = np.array([tgt.i(y) for y in "xzxyz"])
    assert VertexMap(src, tgt, f, check=False).validate() == want
    with pytest.raises(ValidationError) as err:
        VertexMap.build(src, tgt, dict(zip("abcde", "xzxyz")))
    assert list(err.value.findings) == want


@pytest.mark.parametrize("f, index, at", [([0, 7, 1], 7, "s0001"), ([-1, 0, 1], -1, "s0000")])
def test_image_index_outside_the_target_is_named_before_any_edge_lookup(f, index, at):
    # -1 would wrap to t0004, whose edge to t0000 exists; 7 is past the end
    src, tgt = gen_cycle(3, prefix="s"), gen_cycle(5, prefix="t")
    with pytest.raises(ValidationError) as err:
        VertexMap(src, tgt, np.array(f))
    assert list(err.value.findings) == [
        f"image index {index} of {at} not in range(5)"]
    VertexMap(src, tgt, np.array(f), check=False)  # unchecked stays unchecked
