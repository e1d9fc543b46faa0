from __future__ import annotations

import math

import pytest

from qrgraph._tol import TOL
from qrgraph.covering import VertexMap
from qrgraph.dilatation import (
    bdd_verify,
    bld_verify,
    bqs_gauge,
    dilatation_profile,
    inverse_dilatation_profile,
    lipschitz_field,
    lq_verify,
)
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.measures import essential_index_profile
from qrgraph.pullback import factorize
from qrgraph.spaces import Space


def one_edge_stretch(t=3.0):
    src = gen_cycle(4, prefix="s")
    tgt = Space.build([(f"t{i}", 1.0) for i in range(4)],
                      [("t0", "t1", t), ("t1", "t2", 1.0),
                       ("t2", "t3", 1.0), ("t3", "t0", 1.0)], "path")
    return VertexMap.build(src, tgt, {f"s{i:04d}": f"t{i}" for i in range(4)})


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("profile", [
    lambda vm, cap: dilatation_profile(vm, 1, radius_cap=cap),
    lambda vm, cap: inverse_dilatation_profile(vm, 1, scale_cap=cap),
    lambda vm, cap: essential_index_profile(vm, 1, cap=cap),
], ids=["dilatation", "inverse_dilatation", "essential_index"])
def test_local_profile_refuses_cap_not_above_tol(profile, cap):
    with pytest.raises(ValueError, match="cap must exceed"):
        profile(gen_winding(2, levels=4, sectors=8), cap)


def _onto_a_point() -> VertexMap:
    # the path a-b onto one vertex: no target ball has a nontrivial radius,
    # so the normal radius is the degenerate TOL
    src = Space.build([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0)], "path")
    tgt = Space.build([("p", 1.0)], [], "path")
    return VertexMap.build(src, tgt, {"a": "p", "b": "p"})


@pytest.mark.parametrize("profile, cap", [
    (dilatation_profile, "radius_cap"),
    (inverse_dilatation_profile, "scale_cap"),
], ids=["dilatation", "inverse_dilatation"])
def test_reported_degenerate_cap_passes_back(profile, cap):
    vm = _onto_a_point()
    first = profile(vm, 0)
    assert first.cap == TOL and "degenerate cap" in first.flags
    again = profile(vm, 0, **{cap: first.cap})
    assert again.cap == first.cap
    assert again.rows == first.rows and again.h_sup == first.h_sup
    with pytest.raises(ValueError, match="cap must exceed"):
        profile(vm, 0, **{cap: TOL / 2})


def test_reported_degenerate_cap_passes_back_to_essential_index():
    vm = _onto_a_point()
    value, cap, rows = essential_index_profile(vm, 0)
    assert cap == TOL
    assert essential_index_profile(vm, 0, cap=cap) == (value, cap, rows)


class TestProfiles:
    def test_isometry_h_is_one_everywhere(self):
        vm = identity_map(gen_cycle(8))
        for x in range(8):
            prof = dilatation_profile(vm, x)
            assert prof.h_sup == pytest.approx(1.0)
            assert prof.h_inf == pytest.approx(1.0)

    def test_one_stretched_edge_h_at_scale_one(self):
        vm = one_edge_stretch(3.0)
        prof = dilatation_profile(vm, "s0000", restrict=range(4))
        row = next(r for r in prof.rows if r[0] == pytest.approx(1.0))
        assert row[3] == pytest.approx(3.0)  # H(x, 1) = 3

    def test_w2_branch_vertex_radially_symmetric(self):
        vm = gen_winding(2, levels=4, sectors=8)
        prof = dilatation_profile(vm, vm.source.i("center"))
        assert prof.h_sup == pytest.approx(1.0)

    def test_invariant_l_le_L(self, corpus_maps):
        for name, vm in corpus_maps.items():
            for x in range(0, vm.source.n, max(1, vm.source.n // 8)):
                prof = dilatation_profile(vm, x)
                for _r, big_l, small_l, h in prof.rows:
                    assert small_l <= big_l + 1e-9, name
                if prof.rows:
                    assert 1.0 - 1e-9 <= prof.h_inf <= prof.h_sup + 1e-9


class TestInverseProfiles:
    def test_identity_cycle_boundary_spread_one(self):
        vm = identity_map(gen_cycle(8))
        prof = inverse_dilatation_profile(vm, 0)
        assert prof.h_sup == pytest.approx(1.0)

    def test_nonlocal_scale_flagged(self):
        vm = gen_cycle_cover(8, 2)
        prof = inverse_dilatation_profile(vm, 0, scale_cap=100.0)
        assert "nonlocal" in prof.flags

    def test_double_cover_matches_lift_within_factor_two(self):
        vm = gen_cycle_cover(8, 2)
        fact = factorize(vm, metric="lower")
        lift = fact.lift
        for x in range(0, vm.source.n, 4):
            pf = inverse_dilatation_profile(vm, x)
            pg = inverse_dilatation_profile(lift, x, scale_cap=pf.cap)
            if math.isfinite(pf.h_sup) and math.isfinite(pg.h_sup):
                assert pg.h_sup <= 2.0 * pf.h_sup + 1e-9
                assert pf.h_sup <= 2.0 * pg.h_sup + 1e-9


class TestProfileTransfer:
    def test_h_profile_equals_lift_profile_exact_metric(self):
        # with the exact pullback metric and a geodesic (1-BT) target, the
        # dilatation rows of f and of its lift g agree on matched shells
        from qrgraph.covering import normal_radius, u_component

        vm = gen_cycle_cover(8, 2)
        fact = factorize(vm, metric="exact", cap=32)
        for x in range(vm.source.n):
            cap, _rec = normal_radius(vm, x)
            restrict = u_component(vm, x, cap).members
            pf = dilatation_profile(vm, x, restrict=restrict)
            pg = dilatation_profile(fact.lift, x, restrict=restrict)
            assert pf.rows == pg.rows


class TestLipschitzField:
    def test_isometry_ones(self):
        vm = identity_map(gen_cycle(6))
        assert all(v == (1.0, 1.0) for v in lipschitz_field(vm).values())

    def test_stretch_factor_on_incident_edge(self):
        vm = one_edge_stretch(3.0)
        big_l, _l = lipschitz_field(vm)["s0000"]
        assert big_l == pytest.approx(3.0)

    def test_collapsed_edge_forces_zero(self):
        src = Space.build([(v, 1.0) for v in "abc"],
                          [("a", "b", 1), ("b", "c", 1)], "path")
        tgt = Space.build([("X", 1), ("Y", 1)], [("X", "Y", 1)], "path")
        vm = VertexMap.build(src, tgt, {"a": "X", "b": "X", "c": "Y"})
        _L, small_l = lipschitz_field(vm)["a"]
        assert small_l == 0.0


class TestVerifiers:
    def test_isometric_cover_bld_one(self):
        cert = bld_verify(gen_cycle_cover(8, 2))
        assert cert.constant == pytest.approx(1.0) and cert.passed

    def test_single_stretched_edge_bld_three(self):
        cert = bld_verify(one_edge_stretch(3.0))
        assert cert.constant == pytest.approx(3.0)
        assert len(cert.witness) == 2  # the one-edge witness

    def test_thm_c_field_crosscheck(self, corpus_maps):
        # on geodesic sources, bld L-hat equals max(L_f, 1/l_f)
        for name, vm in corpus_maps.items():
            field = lipschitz_field(vm)
            bound = max(max(L, 1.0 / small) for L, small in field.values())
            cert = bld_verify(vm)
            assert cert.constant == pytest.approx(bound, abs=1e-9), name

    def test_bdd_identity_one(self):
        assert bdd_verify(identity_map(gen_cycle(8))).constant == pytest.approx(1.0)

    def test_bdd_cover_bounded_by_cNL(self):
        # 1-Lipschitz, 1-BLD, multiplicity 2, geodesic (c = 1) target
        cert = bdd_verify(gen_cycle_cover(8, 2))
        assert cert.constant <= 2.0 + 1e-9

    def test_bdd_collapsing_fails(self):
        src = Space.build([(v, 1.0) for v in "abc"],
                          [("a", "b", 1), ("b", "c", 1)], "path")
        tgt = Space.build([("X", 1), ("Y", 1)], [("X", "Y", 1)], "path")
        vm = VertexMap.build(src, tgt, {"a": "X", "b": "X", "c": "Y"})
        cert = bdd_verify(vm, bound=10.0)
        assert not cert.passed

    def test_lq_isometry_and_cover_one(self):
        assert lq_verify(identity_map(gen_cycle(8))).constant == pytest.approx(1.0)
        assert lq_verify(gen_cycle_cover(8, 2)).constant == pytest.approx(1.0)

    def test_lq_stretch_factor(self):
        cert = lq_verify(one_edge_stretch(3.0))
        assert cert.constant == pytest.approx(3.0)

    def test_lq_at_most_bld_on_corpus(self, corpus_maps):
        for name, vm in corpus_maps.items():
            c_lq = lq_verify(vm).constant
            c_bld = bld_verify(vm).constant
            assert c_lq <= c_bld + 1e-9, name


class TestBqs:
    def test_isometry_gauge_is_identity_on_support(self):
        gauge = bqs_gauge(identity_map(gen_cycle(8)), seed=2, budget=20)
        for t, v in gauge.pairs():
            assert v == pytest.approx(t)

    def test_quasisymmetric_bound_replay(self):
        # an L-bi-Lipschitz homeomorphism is eta-QS with eta(t) = L^2 t, and a
        # QS map is generalized psi-QS with psi(t) = 2 eta(2t)
        vm = one_edge_stretch(2.0)
        cert = bld_verify(vm)
        L = cert.constant
        gauge = bqs_gauge(vm, seed=3, budget=40)
        for t, v in gauge.pairs():
            assert v <= 2.0 * (L ** 2) * (2.0 * t) + 1e-9

    def test_gauge_transfers_to_lift_exactly(self):
        vm = gen_cycle_cover(6, 2)
        fact = factorize(vm, metric="exact", cap=32)
        g1 = bqs_gauge(vm, seed=4, budget=30)
        g2 = bqs_gauge(fact.lift, seed=4, budget=30)
        assert g1.pairs() == g2.pairs()

    def test_gauge_monotone(self):
        gauge = bqs_gauge(gen_winding(2, levels=3, sectors=8), seed=5, budget=30)
        vals = [v for _t, v in gauge.pairs()]
        assert vals == sorted(vals)


class TestZeroDistanceSamples:
    def test_bdd_zero_source_diameter_is_infinite_distortion(self):
        # an explicit metric may put two adjacent vertices at distance zero;
        # the sampled path a-b then has source diameter 0
        dist = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        src = Space.build([(v, 1.0) for v in "abc"],
                          [("a", "b", 1.0), ("b", "c", 1.0)], dist)
        tgt = Space.build([(v, 1.0) for v in "ABC"],
                          [("A", "B", 1.0), ("B", "C", 1.0)], "path")
        vm = VertexMap.build(src, tgt, {"a": "A", "b": "B", "c": "C"})
        cert = bdd_verify(vm)
        assert cert.constant == math.inf
        assert not cert.passed
        assert cert.witness == ["a", "b"]


def collapsing_path():
    """The path a-b-c onto the edge x-y with a, b -> x: the edge a-b collapses."""
    src = Space.build([(v, 1.0) for v in "abc"], [("a", "b", 1.0), ("b", "c", 1.0)], "path")
    tgt = Space.build([("x", 1.0), ("y", 1.0)], [("x", "y", 1.0)], "path")
    return VertexMap.build(src, tgt, {"a": "x", "b": "x", "c": "y"})


@pytest.mark.parametrize("verify", [bld_verify, bdd_verify])
def test_infinite_constant_fails_an_infinite_bound(verify):
    cert = verify(collapsing_path(), bound=math.inf)
    assert cert.constant == math.inf
    assert not cert.passed


def test_distortion_certificates_refuse_an_empty_curve_sample():
    # a-b-c onto x-y with a, b -> x collapses a-b: infinite distortion, which
    # a sample without curves would certify as 1
    src = Space.build([(v, 1.0) for v in "abc"], [("a", "b", 1.0), ("b", "c", 1.0)], "path")
    tgt = Space.build([(v, 1.0) for v in "xy"], [("x", "y", 1.0)], "path")
    vm = VertexMap.build(src, tgt, {"a": "x", "b": "x", "c": "y"})
    for verify in (bld_verify, bdd_verify):
        cert = verify(vm)
        assert cert.constant == math.inf and not cert.passed
        for budget, n_random in ((0, 0), (-3, 0), (1, -1), (0, 100)):
            with pytest.raises(ValueError, match="curve_budget must be >= 1 and n_random >= 0"):
                verify(vm, curve_budget=budget, n_random=n_random)
        assert verify(vm, curve_budget=1, n_random=0).constant == math.inf
