from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bracket_lower_reference, path_image_diameter_oracle, random_map
from qrgraph.covering import VertexMap, branch_set
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.pullback import (
    bld_bdd_transfer_check,
    factorize,
    length_metric,
    pullback_metric_bracket,
    pullback_metric_exact,
    verify_projection,
    zero_distance_pairs,
)
from qrgraph.spaces import Space, ValidationError


class TestBracket:
    def test_identity_on_path_metric_space_is_exact(self):
        vm = identity_map(gen_cycle(7))
        br = pullback_metric_bracket(vm)
        assert np.allclose(br.lower, vm.source.dist)

    def test_constant_map_degenerate_zero(self):
        src = gen_cycle(4)
        tgt = Space.build([("y", 1.0)], [], "path")
        vm = VertexMap(source=src, target=tgt, f=np.zeros(4, dtype=int), check=False)
        br = pullback_metric_bracket(vm)
        assert np.allclose(br.lower, 0.0)
        assert len(zero_distance_pairs(vm)) == 6

    def test_lower_dominates_target_distance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            vm = random_map(rng, 8, 4)
            br = pullback_metric_bracket(vm)
            for i in range(8):
                for j in range(8):
                    assert br.lower[i, j] >= vm.image_dist(i, j) - 1e-12

    def test_bracket_is_pseudometric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vm = random_map(rng, 9, 4)
            d = pullback_metric_bracket(vm).lower
            assert np.allclose(d, d.T)
            for k in range(d.shape[0]):
                assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)


class TestBracketAgainstReference:
    """The threshold sweep gives bitwise the values of one heap search per pair."""

    @pytest.mark.parametrize("make", [
        lambda: gen_winding(3, levels=6, sectors=8),
        lambda: gen_cycle_cover(16, 2),
    ], ids=["winding_3_6_8", "cycle_cover_16_2"])
    def test_generated_maps(self, make):
        vm = make()
        assert np.array_equal(pullback_metric_bracket(vm).lower, bracket_lower_reference(vm))

    @pytest.mark.parametrize("n_src", [30, 60, 90, 150])
    def test_random_maps(self, n_src):
        for seed in range(2):
            vm = random_map(np.random.default_rng(500 * n_src + seed), n_src, max(2, n_src // 4))
            assert np.array_equal(pullback_metric_bracket(vm).lower, bracket_lower_reference(vm))


class TestExact:
    def test_identity_geodesic_equals_path_metric(self):
        vm = identity_map(gen_cycle(7))
        ex = pullback_metric_exact(vm, cap=16)
        assert np.allclose(ex, vm.source.dist)

    def test_three_vertex_injective_into_triangle(self):
        src = Space.build([("a", 1), ("b", 1), ("c", 1)],
                          [("a", "b", 1), ("b", "c", 1)], "path")
        tgt = gen_cycle(3, prefix="t")
        vm = VertexMap.build(src, tgt, {"a": "t0000", "b": "t0001", "c": "t0002"})
        ex = pullback_metric_exact(vm, cap=16)
        # the only connecting path a-b-c images the whole triangle: diam 1
        assert ex[src.i("a"), src.i("c")] == pytest.approx(1.0)
        assert ex[src.i("a"), src.i("b")] == pytest.approx(1.0)

    def test_exact_matches_enumeration_oracle_small(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            vm = random_map(rng, int(rng.integers(4, 8)), 3)
            if zero_distance_pairs(vm):
                continue
            ex = pullback_metric_exact(vm, cap=16)
            n = vm.source.n
            for i in range(n):
                for j in range(i + 1, n):
                    oracle = path_image_diameter_oracle(vm, i, j)
                    assert ex[i, j] == pytest.approx(oracle, abs=1e-9)

    def test_cap_exceeded_directs_to_bracket(self):
        vm = identity_map(gen_cycle(20))
        with pytest.raises(ValueError, match="pullback_metric_bracket"):
            pullback_metric_exact(vm, cap=14)

    def test_sandwich_on_random_maps(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            vm = random_map(rng, 10, 4)
            br = pullback_metric_bracket(vm)
            ex = pullback_metric_exact(vm, cap=16)
            assert np.all(br.lower <= ex + 1e-9)
            assert np.all(ex <= br.upper + 1e-9)

    def test_exact_on_non_path_metric_targets(self):
        # sqrt of a metric is a metric; replacing the target distance with it
        # makes the target non-geodesic, which the exact solver must handle
        rng = np.random.default_rng(7)
        for _ in range(15):
            vm = random_map(rng, 7, 3)
            tgt = vm.target
            sq = Space.build(
                [(v, float(m)) for v, m in zip(tgt.ids, tgt.mass)],
                [(tgt.ids[i], tgt.ids[j], ln) for i, j, ln in tgt.edges],
                np.sqrt(tgt.dist),
            )
            vm2 = VertexMap(source=vm.source, target=sq, f=vm.f.copy(), check=False)
            ex = pullback_metric_exact(vm2, cap=16)
            br = pullback_metric_bracket(vm2)
            assert np.all(br.lower <= ex + 1e-9)
            assert np.all(ex <= br.upper + 1e-9)
            for i in range(vm2.source.n):
                for j in range(i + 1, vm2.source.n):
                    oracle = path_image_diameter_oracle(vm2, i, j)
                    assert ex[i, j] == pytest.approx(oracle, abs=1e-9)

    def test_zero_distance_iff_constant_subgraph(self):
        # the discreteness failure detector agrees with the exact metric
        rng = np.random.default_rng(6)
        found_degenerate = 0
        for _ in range(40):
            vm = random_map(rng, 8, int(rng.integers(2, 5)))
            zero = {frozenset((vm.source.i(a), vm.source.i(b)))
                    for a, b in zero_distance_pairs(vm)}
            found_degenerate += bool(zero)
            ex = pullback_metric_exact(vm, cap=16)
            for i in range(8):
                for j in range(i + 1, 8):
                    assert (ex[i, j] <= 1e-12) == (frozenset((i, j)) in zero)
        assert found_degenerate  # the sample exercises both branches


class TestFactorize:
    def test_identity_factorization(self):
        vm = identity_map(gen_cycle(6))
        fact = factorize(vm, metric="exact", cap=16)
        assert np.allclose(fact.pullback_space.dist, vm.source.dist)
        assert np.array_equal(fact.lift.f, np.arange(6))
        # pi ∘ g = f as assignments
        assert np.array_equal(fact.projection.f[fact.lift.f], vm.f)

    def test_w2_projection_has_same_branch_image(self):
        vm = gen_winding(2, levels=3, sectors=8)
        fact = factorize(vm, metric="exact", cap=128)
        assert branch_set(fact.projection) == branch_set(vm)

    def test_degenerate_map_rejected(self):
        src = Space.build([("a", 1), ("b", 1), ("c", 1)],
                          [("a", "b", 1), ("b", "c", 1)], "path")
        tgt = Space.build([("X", 1), ("Y", 1)], [("X", "Y", 1)], "path")
        vm = VertexMap.build(src, tgt, {"a": "X", "b": "X", "c": "Y"})
        with pytest.raises(ValidationError, match="not discrete"):
            factorize(vm, metric="exact", cap=16)

    def test_pullback_measure_is_image_mass(self):
        vm = gen_cycle_cover(6, 2)
        fact = factorize(vm, metric="exact", cap=32)
        for k in range(vm.source.n):
            assert fact.pullback_space.mass[k] == vm.target.mass[int(vm.f[k])]


class TestVerifyProjection:
    def test_corpus_exact_passes(self):
        for vm in (identity_map(gen_cycle(6)), gen_cycle_cover(6, 2),
                   gen_winding(2, levels=3, sectors=8)):
            fact = factorize(vm, metric="exact", cap=128)
            cert = verify_projection(fact)
            assert cert.passed, cert.witness
            assert cert.details["bdd_worst_deviation"] <= 1e-9

    def test_bracket_mode_flagged_approximate(self):
        vm = gen_cycle_cover(8, 2)
        fact = factorize(vm, metric="lower")
        cert = verify_projection(fact)
        assert "approximate" in cert.flags
        assert cert.passed


class TestLengthMetric:
    def test_path_metric_unchanged(self):
        sp = gen_cycle(6)
        lm = length_metric(sp.dist, sp)
        assert np.allclose(lm, sp.dist)

    def test_two_point_metric_unchanged(self):
        sp = Space.build([("a", 1), ("b", 1)], [("a", "b", 2.0)], "path")
        assert np.allclose(length_metric(sp.dist, sp), sp.dist)

    def test_pullback_chain_double_cover(self):
        # pi*d <= pi*l_d <= l_{pi*d} <= (2N-1) pi*l_d  with N = 2
        vm = gen_cycle_cover(8, 2)
        fact = factorize(vm, metric="exact", cap=32)
        pb = fact.pullback_space.dist        # pi*d = pi*l_d (target geodesic)
        l_pb = length_metric(pb, fact.pullback_space)
        assert np.all(pb <= l_pb + 1e-9)
        assert np.all(l_pb <= 3.0 * pb + 1e-9)

    def test_pullback_chain_explicit_metric_target(self):
        # a non-geodesic target separates the chain terms: the unit-square
        # corners with the Euclidean metric on a 4-cycle graph
        import math
        ids = ["a", "b", "c", "d"]
        pos = {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}
        dist = np.array([[math.dist(pos[u], pos[v]) for v in ids] for u in ids])
        tgt = Space.build([(v, 1.0) for v in ids],
                          [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
                          dist)
        src = gen_cycle(4, prefix="s")
        vm = VertexMap.build(src, tgt, {f"s{i:04d}": ids[i] for i in range(4)})
        fact = factorize(vm, metric="exact", cap=16)
        pb = fact.pullback_space.dist                       # pi* d
        l_tgt = length_metric(tgt.dist, tgt)                # l_d on the target
        tgt_l = Space.build([(v, 1.0) for v in ids],
                            [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", 1)],
                            l_tgt)
        vm_l = VertexMap.build(src, tgt_l, {f"s{i:04d}": ids[i] for i in range(4)})
        pb_l = factorize(vm_l, metric="exact", cap=16).pullback_space.dist   # pi* l_d
        l_pb = length_metric(pb, fact.pullback_space)       # l_{pi* d}
        n_mult = 1
        assert np.all(pb <= pb_l + 1e-9)
        assert np.all(pb_l <= l_pb + 1e-9)
        assert np.all(l_pb <= (2 * n_mult - 1) * pb_l + 1e-9)
        # the chain is strict somewhere: diagonal pairs have pullback sqrt(2)
        # but length-metric 2
        i, j = src.i("s0000"), src.i("s0002")
        assert pb[i, j] == pytest.approx(math.sqrt(2.0))
        assert l_pb[i, j] == pytest.approx(2.0)


class TestTransfer:
    def test_isometric_double_cover_ratio_one(self):
        fact = factorize(gen_cycle_cover(8, 2), metric="exact", cap=32)
        cert = bld_bdd_transfer_check(fact)
        assert cert.passed
        assert cert.details["f_bld"] == pytest.approx(1.0)
        assert cert.details["g_bld"] == pytest.approx(1.0)

    def test_infinite_bdd_on_both_sides_passes(self):
        # explicit d(a,b) = 0: the sampled path a-b has source diameter 0, so
        # f and its lift g both have infinite BDD distortion, and inf == inf
        dist = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        src = Space.build([(v, 1.0) for v in "abc"],
                          [("a", "b", 1.0), ("b", "c", 1.0)], dist)
        tgt = Space.build([(v, 1.0) for v in "ABC"],
                          [("A", "B", 1.0), ("B", "C", 1.0)], "path")
        vm = VertexMap.build(src, tgt, {"a": "A", "b": "B", "c": "C"})
        cert = bld_bdd_transfer_check(factorize(vm, metric="exact"))
        assert cert.details["f_bdd"] == cert.details["g_bdd"] == math.inf
        assert cert.passed

    def test_stretched_edge_reports_three(self):
        src = gen_cycle(4, prefix="s")
        tgt = Space.build([(f"t{i}", 1.0) for i in range(4)],
                          [("t0", "t1", 3.0), ("t1", "t2", 1.0),
                           ("t2", "t3", 1.0), ("t3", "t0", 1.0)], "path")
        vm = VertexMap.build(src, tgt, {f"s{i:04d}": f"t{i}" for i in range(4)})
        fact = factorize(vm, metric="exact", cap=16)
        cert = bld_bdd_transfer_check(fact)
        assert cert.details["f_bld"] == pytest.approx(3.0)
        assert cert.details["g_bld"] == pytest.approx(3.0)

    def test_bracket_mode_within_factor_two(self):
        fact = factorize(gen_cycle_cover(10, 2), metric="lower")
        cert = bld_bdd_transfer_check(fact)
        assert cert.passed and "approximate" in cert.flags


class TestSandwichAtLargerSizes:
    @pytest.mark.parametrize("n_src", [20, 30, 40, 60])
    def test_lower_exact_upper_on_seeded_random_maps(self, n_src):
        for seed in range(3):
            rng = np.random.default_rng(1000 * n_src + seed)
            vm = random_map(rng, n_src, max(2, n_src // 4))
            br = pullback_metric_bracket(vm)
            ex = pullback_metric_exact(vm, cap=n_src)
            assert np.all(br.lower <= ex + 1e-9)
            assert np.all(ex <= 2.0 * br.lower + 1e-9)
            assert np.array_equal(br.upper, 2.0 * br.lower)
            for mat in (br.lower, ex):
                assert np.array_equal(mat, mat.T)
                assert np.all(np.diag(mat) == 0.0)
