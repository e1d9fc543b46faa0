from __future__ import annotations

import math

import numpy as np
import pytest

from qrgraph.covering import VertexMap, max_multiplicity
from qrgraph.embedding import (
    assign_labels,
    build_net,
    build_plan,
    color_net,
    composition_bound_check,
    embed,
    fiber_scale_check,
    normalize_for_embedding,
    phi,
    rk_radii,
)
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.spaces import Space, ValidationError


@pytest.fixture(scope="module")
def cover16():
    return normalize_for_embedding(gen_cycle_cover(16, 2))


@pytest.fixture(scope="module")
def w2_norm():
    return normalize_for_embedding(gen_winding(2, levels=3, sectors=8), cap=128)


class TestRkRadii:
    def test_injective_map_all_zero(self):
        # R^k(y) > 0 iff N(y, f) > k; injective maps have R^1 = 0 everywhere
        # and an empty plan (no k in 1..N-1)
        vm = normalize_for_embedding(identity_map(gen_cycle(8)))
        rk, _grids = rk_radii(vm, 1)
        assert all(r == 0.0 for r in rk.values())
        assert max_multiplicity(vm) == 1

    def test_double_cover_fiber_separation_over_five(self, cover16):
        rk, _grids = rk_radii(cover16, 1)
        # preimages connect exactly when the closed ball reaches the target
        # diameter 8; fiber separation in the pullback metric is also 8
        assert all(r == pytest.approx(8.0 / 5.0) for r in rk.values())

    def test_w2_monotone_in_distance_from_branch_image(self, w2_norm):
        rk, _grids = rk_radii(w2_norm, 1)
        tgt = w2_norm.target
        ci = tgt.i("center")
        rows = sorted((float(tgt.dist[ci, tgt.i(y)]), r) for y, r in rk.items())
        dists = [d for d, _r in rows]
        vals = [r for _d, r in rows]
        # monotone trend: Spearman-style check on the sorted sweep
        assert all(vals[i] <= vals[j] + 1e-9 for i in range(len(vals))
                   for j in range(i + 1, len(vals)))

    def test_lipschitz_with_grid_slack(self, cover16):
        rk, grids = rk_radii(cover16, 1)
        tgt = cover16.target
        step = max(max(b - a for a, b in zip(g, g[1:])) for g in grids.values() if len(g) > 1)
        for y1 in tgt.ids:
            for y2 in tgt.ids:
                lhs = 5.0 * rk[y1] - 5.0 * rk[y2]
                assert lhs <= float(tgt.dist[tgt.i(y1), tgt.i(y2)]) + 5.0 * step + 1e-9


class TestNetAndColors:
    def test_single_vertex_net(self):
        src = gen_cycle(4, prefix="s")
        tgt = Space.build([("y", 1.0)], [], "path")
        vm = VertexMap(source=src, target=tgt, f=np.zeros(4, dtype=int), check=False)
        rk = {"y": 1.0}
        assert build_net(vm, 1, rk) == ["y"]

    def test_uniform_radii_cycle_net_covers(self, cover16):
        net = build_net(cover16, 1)
        assert net  # nonempty
        # coverage asserted inside build_net; separation spot check
        rk, _ = rk_radii(cover16, 1)
        tgt = cover16.target
        for a in net:
            for b in net:
                if a != b:
                    sep = max(rk[a], rk[b]) / 2.0
                    assert tgt.dist[tgt.i(a), tgt.i(b)] >= sep - 1e-9

    def test_classes_have_disjoint_inflated_balls(self, cover16):
        classes, used = color_net(cover16, 1)
        rk, _ = rk_radii(cover16, 1)
        tgt = cover16.target
        for cls in classes:
            for a in cls:
                for b in cls:
                    if a == b:
                        continue
                    ba = tgt.dist[tgt.i(a)] < 2.0 * rk[a] - 1e-9
                    bb = tgt.dist[tgt.i(b)] < 2.0 * rk[b] - 1e-9
                    assert not np.any(ba & bb)

    def test_empty_level_beyond_multiplicity(self, cover16):
        rk, _ = rk_radii(cover16, 2)
        assert all(r == 0.0 for r in rk.values())
        assert build_net(cover16, 2, rk) == []


class TestNetComparability:
    def test_intersecting_balls_have_comparable_radii(self, cover16, w2_norm):
        # intersecting B^k balls: radii within [2/3, 3/2]; inflated 2B
        # within [3/7, 7/3]
        for vm in (cover16, w2_norm):
            plan = build_plan(vm)
            tgt = vm.target
            for k in range(1, plan.n_mult):
                net = plan.nets[k]
                rk = plan.rk[k]
                for a in net:
                    for b in net:
                        if a == b:
                            continue
                        d = float(tgt.dist[tgt.i(a), tgt.i(b)])
                        if d < rk[a] + rk[b] - 1e-9:  # B balls intersect
                            assert 2.0 / 3.0 - 1e-9 <= rk[a] / rk[b] <= 1.5 + 1e-9
                        if d < 2.0 * (rk[a] + rk[b]) - 1e-9:  # 2B intersect
                            assert 3.0 / 7.0 - 1e-9 <= rk[a] / rk[b] <= 7.0 / 3.0 + 1e-9

    def test_coordinates_finite_nonnegative(self, cover16):
        plan = build_plan(cover16)
        for x in range(cover16.source.n):
            vec = phi(plan, x)
            assert np.all(np.isfinite(vec)) and np.all(vec >= 0.0)


class TestLabels:
    def test_singleton_fiber_label_one(self, w2_norm):
        labels, sets = assign_labels(w2_norm, "center", 0.05)
        assert labels == {"center": 1} and len(sets) == 1

    def test_two_fiber_distinct_components(self, cover16):
        rk, _ = rk_radii(cover16, 1)
        y = cover16.target.ids[0]
        labels, sets = assign_labels(cover16, y, rk[y])
        assert sorted(labels.values()) == [1, 2]
        assert sets[0].isdisjoint(sets[1])

    def test_shared_component_equal_labels(self, w2_norm):
        # near the branch, a large 2U contains both sheets: equal labels
        rk, _ = rk_radii(w2_norm, 1)
        tgt = w2_norm.target
        y = min((yid for yid in tgt.ids if yid != "center"),
                key=lambda yid: float(tgt.dist[tgt.i(yid), tgt.i("center")]))
        big_r = float(tgt.dist[tgt.i(y), tgt.i("center")]) * 4.0
        labels, sets = assign_labels(w2_norm, y, big_r)
        assert len(sets) == 1
        assert len(set(labels.values())) == 1


class TestPhiAndEmbed:
    def test_far_vertex_coordinate_zero(self, cover16):
        plan = build_plan(cover16)
        vec = phi(plan, 0)
        assert vec.shape == (plan.c_d,)
        assert np.all(vec >= 0.0)
        # a vertex outside every 2U of some class has a vanishing slot there
        found = False
        for j, cls in enumerate(plan.classes[1]):
            sets = [s for y in cls for s in plan.neighborhoods[1][y]]
            for x in range(cover16.source.n):
                if all(x not in s for s in sets):
                    assert phi(plan, x)[j] == 0.0
                    found = True
                    break
            if found:
                break
        assert found

    def test_deep_vertex_gets_label_times_radius(self, cover16):
        plan = build_plan(cover16)
        src = cover16.source
        # for each net point, the fiber vertices sit deep inside their own 2U
        y = plan.nets[1][0]
        j = next(j for j, cls in enumerate(plan.classes[1]) if y in cls)
        for x in sorted(cover16.fiber(y)):
            vec = phi(plan, x)
            lab = plan.labels[1][y][src.ids[x]]
            assert vec[j] == pytest.approx(lab * plan.rk[1][y])

    def test_embed_injective_with_finite_distortion(self, cover16):
        res = embed(gen_cycle_cover(16, 2))
        assert res.injective
        assert 0 < res.lower <= res.upper < math.inf
        assert res.phi_lipschitz <= 2.0 + 1e-9

    def test_injective_map_trivial_embedding(self):
        res = embed(identity_map(gen_cycle(8)))
        assert res.plan is None
        assert res.coords["c0000"].shape == (0,)
        assert res.lower == pytest.approx(1.0) and res.upper == pytest.approx(1.0)

    def test_w2_twelve_rule(self):
        res = embed(gen_winding(2, levels=3, sectors=8), cap=128)
        assert res.injective
        assert all(r["twelve_rule"] for r in res.fiber_report)

    def test_fiber_scale_certificates(self):
        for vm in (gen_cycle_cover(16, 2), gen_winding(2, levels=3, sectors=8)):
            res = embed(vm, cap=128)
            cert = fiber_scale_check(res.plan)
            assert cert.passed

    def test_fiber_with_two_scales_needs_two_levels(self):
        # a triple fiber with separations 1 and 2: the scale check must pick
        # distinct k for the near pair and the far pairs
        src = Space.build(
            [(v, 1.0) for v in ("x1", "y1", "x2", "y2", "z1", "y3", "x3")],
            [("x1", "y1", 1), ("y1", "x2", 1), ("x2", "y2", 1),
             ("y2", "z1", 1), ("z1", "y3", 1), ("y3", "x3", 1)],
            "path")
        tgt = Space.build([("X", 1.0), ("Y", 1.0), ("Z", 1.0)],
                          [("X", "Y", 1), ("Y", "Z", 1)], "path")
        vm = VertexMap.build(src, tgt, {
            "x1": "X", "x2": "X", "x3": "X",
            "y1": "Y", "y2": "Y", "y3": "Y", "z1": "Z"})
        vm_n = normalize_for_embedding(vm)
        plan = build_plan(vm_n)
        cert = fiber_scale_check(plan)
        assert cert.passed
        ks = {tuple(sorted(r["pair"])): r["k"] for r in cert.details["rows"]
              if set(r["pair"]) <= {"x1", "x2", "x3"}}
        assert len(set(ks.values())) == 2

    def test_composition_bound_below_measured(self):
        for vm in (gen_cycle_cover(16, 2), gen_winding(2, levels=3, sectors=8)):
            res = embed(vm, cap=128)
            cert = composition_bound_check(res)
            assert cert.passed
            assert cert.details["predicted_lower"] <= cert.details["measured_lower"] + 1e-9

    def test_non_bdd_map_rejected_upstream(self):
        # a map that collapses an edge is not discrete: embedding must refuse
        src = Space.build([(v, 1.0) for v in "abc"],
                          [("a", "b", 1), ("b", "c", 1)], "path")
        tgt = Space.build([("X", 1), ("Y", 1)], [("X", "Y", 1)], "path")
        vm = VertexMap.build(src, tgt, {"a": "X", "b": "X", "c": "Y"})
        with pytest.raises(ValidationError):
            embed(vm)


class TestRkRadiiRefusesNonCounts:
    """k counts components, so it is an integer >= 1: at k <= 0 no ball
    qualifies and every radius would fall back to the last grid value."""

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, math.inf, math.nan, None])
    def test_rk_radii_refuses(self, w2_coarse, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            rk_radii(w2_coarse, k)

    @pytest.mark.parametrize("k", [0, -1, 0.5])
    def test_net_and_colors_inherit_the_check(self, w2_coarse, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            build_net(w2_coarse, k)
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            color_net(w2_coarse, k)

    def test_integer_types_are_counts(self, w2_coarse):
        assert rk_radii(w2_coarse, np.int64(1)) == rk_radii(w2_coarse, 1)
