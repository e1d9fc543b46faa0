from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import qrgraph
from conftest import edge_index_reference, random_connected_space
from qrgraph import spaces
from qrgraph.covering import VertexMap
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_grid, gen_polar_grid, gen_winding, identity_map
from qrgraph.modulus import (
    CurveFamily,
    analytic_qr_constant,
    annulus_modulus,
    ki_certificate,
    ko_certificate,
    loewner_profile,
    minimal_upper_gradient,
    modulus,
    modulus_bruteforce,
    vaisala_certificate,
)
from qrgraph.modulus import _curve_row
from qrgraph.spaces import Curve, Space, ValidationError, space_from_json, space_to_json


def random_simple_path(rng, space, max_len=6):
    v = int(rng.integers(space.n))
    path = [v]
    for _ in range(int(rng.integers(1, max_len))):
        nbrs = [w for w, _e in space.adj[path[-1]] if w not in path]
        if not nbrs:
            break
        path.append(int(nbrs[rng.integers(len(nbrs))]))
    return path if len(path) > 1 else None


def random_explicit_family(rng, n=6, n_curves=3):
    space = random_connected_space(rng, n, extra_edges=int(rng.integers(1, 4)))
    curves = []
    while len(curves) < n_curves:
        p = random_simple_path(rng, space)
        if p is not None:
            curves.append(Curve(space, tuple(p)))
    return CurveFamily.explicit(space, curves)


class TestSolverBasics:
    def test_single_curve_k_unit_edges(self):
        sp = Space.build([(f"v{i}", 1.0) for i in range(3)],
                         [("v0", "v1", 1.0), ("v1", "v2", 1.0)], "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, ["v0", "v1", "v2"])])
        res = modulus(fam, p=2)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(res.density.values, 0.5)  # rho = 1/k on the curve

    def test_parallel_disjoint_curves_add(self):
        # n vertex-disjoint unit-length single-edge curves -> value n
        n = 4
        verts = [(f"a{i}", 1.0) for i in range(n)] + [(f"b{i}", 1.0) for i in range(n)]
        edges = [(f"a{i}", f"b{i}", 1.0) for i in range(n)]
        edges += [(f"b{i}", f"a{i + 1}", 100.0) for i in range(n - 1)]  # connectivity
        sp = Space.build(verts, edges, "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, [f"a{i}", f"b{i}"]) for i in range(n)])
        for p in (1.5, 2.0, 3.0):
            res = modulus(fam, p=p, tol=1e-8)
            assert res.value == pytest.approx(float(n), abs=1e-6)

    def test_empty_family_zero_with_flag(self):
        sp = Space.build([(v, 1.0) for v in "abcd"],
                         [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)], "path")
        fam = CurveFamily.connecting(sp, ["a"], ["d"], ["a", "b", "d"])
        res = modulus(fam)
        assert res.value == 0.0 and "empty family" in res.flags

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_empty_explicit_family_solver_and_oracle_agree(self, p):
        fam = CurveFamily.explicit(gen_grid(2, 2), [])
        assert modulus(fam, p=p).value == modulus_bruteforce(fam, p=p) == 0.0

    @pytest.mark.parametrize("p", [math.nan, math.inf, 1.0, 0.5])
    def test_exponent_outside_one_to_infinity_raises(self, p):
        sp = Space.build([(v, 1.0) for v in "ab"], [("a", "b", 1.0)], "path")
        with pytest.raises(ValueError, match="1 < p < inf"):
            modulus(CurveFamily.connecting(sp, ["a"], ["b"]), p=p)

    @pytest.mark.parametrize("p", [1e5, 1e308])
    def test_exponent_beyond_the_float_range_is_named(self, p):
        # rings 0 to 3 are joined by curves shorter than 1, whose one-row
        # start length ** (1 - p) overflows
        tgt = gen_winding(2, 4, 8).target
        fam = CurveFamily.connecting(tgt, [f"r000s{j:03d}" for j in range(8)],
                                     [f"r003s{j:03d}" for j in range(8)])
        with pytest.raises(ValidationError) as err:
            modulus(fam, p=p)
        assert str(err.value) == f"p = {p} overflows the one-row start of a curve"

    def test_density_admissible(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            fam = random_explicit_family(rng)
            res = modulus(fam, p=2)
            for c in fam.curves:
                assert res.density.line_integral(c) >= 1.0 - 1e-6


class TestOracleAgreement:
    def test_shared_edge_kkt_hand_solution(self):
        # two curves sharing edge (a,b): by symmetry rho_ab = x, rho_bc = rho_bd = y
        # KKT: minimize 2x^2/2*... -> x = 1/3*2, solved by hand: value 2/3
        sp = Space.build([(v, 1.0) for v in "abcd"],
                         [("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0)], "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, ["a", "b", "c"]),
                                        Curve.from_ids(sp, ["a", "b", "d"])])
        res = modulus(fam, p=2)
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert modulus_bruteforce(fam, p=2) == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_seeded_batch_matches_oracle(self, p):
        rng = np.random.default_rng(int(p * 100))
        for _ in range(40):
            fam = random_explicit_family(rng, n=int(rng.integers(4, 7)),
                                         n_curves=int(rng.integers(1, 4)))
            res = modulus(fam, p=p, tol=1e-8)
            oracle = modulus_bruteforce(fam, p=p)
            assert res.value == pytest.approx(oracle, abs=1e-6, rel=1e-6)

    def test_scaling_law(self):
        # doubling lengths (and the length-like masses with them) scales
        # Mod_p by 2^(1-p)
        rng = np.random.default_rng(77)
        for _ in range(10):
            fam = random_explicit_family(rng)
            sp = fam.space
            sp2 = Space.build(
                [(v, 2.0 * float(m)) for v, m in zip(sp.ids, sp.mass)],
                [(sp.ids[i], sp.ids[j], 2.0 * ln) for i, j, ln in sp.edges],
                "path")
            fam2 = CurveFamily.explicit(
                sp2, [Curve(sp2, c.vertices) for c in fam.curves])
            for p in (1.5, 2.0, 3.0):
                v1 = modulus(fam, p=p, tol=1e-9).value
                v2 = modulus(fam2, p=p, tol=1e-9).value
                assert v2 == pytest.approx(2.0 ** (1.0 - p) * v1, rel=1e-6)


class TestWeights:
    def test_edge_weight_profile(self):
        # explicit edge weights: value = sum(w_e rho_e^p len_e)
        sp = Space.build([(f"v{i}", 1.0) for i in range(3)],
                         [("v0", "v1", 1.0), ("v1", "v2", 1.0)], "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, ["v0", "v1", "v2"])])
        res = modulus(fam, p=2, edge_weight={("v0", "v1"): 2.0, ("v1", "v2"): 2.0})
        assert res.value == pytest.approx(1.0)  # doubled measure doubles 1/2
        assert res.weight_kind == "edge"

    def test_vertex_weight_profile(self):
        sp = Space.build([(f"v{i}", 1.0) for i in range(3)],
                         [("v0", "v1", 1.0), ("v1", "v2", 1.0)], "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, ["v0", "v1", "v2"])])
        res = modulus(fam, p=2, weight={"v0": 2.0, "v1": 2.0, "v2": 2.0})
        assert res.value == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_weight_is_validation_error(self, bad):
        sp = Space.build([(f"v{i}", 1.0) for i in range(3)],
                         [("v0", "v1", 1.0), ("v1", "v2", 1.0)], "path")
        fam = CurveFamily.explicit(sp, [Curve.from_ids(sp, ["v0", "v1", "v2"])])
        with pytest.raises(spaces.ValidationError, match="vertex weight .* at v1:"):
            modulus(fam, weight={"v0": 1.0, "v1": bad, "v2": 1.0})
        with pytest.raises(spaces.ValidationError, match="edge weight .* at v1-v2:"):
            modulus(fam, edge_weight={("v0", "v1"): 1.0, ("v1", "v2"): bad})

    def test_projection_satisfies_ko_with_constant_one(self):
        # the factorization projection obeys Mod(Gamma) <= weighted image
        # modulus (the K_O inequality at K = 1) on connecting samples
        for vm in (gen_cycle_cover(8, 2), gen_winding(2, levels=3, sectors=8)):
            from qrgraph.pullback import factorize

            fact = factorize(vm, metric="exact", cap=128)
            pb = fact.pullback_space
            ids = sorted(pb.ids)
            fam = CurveFamily.connecting(pb, [ids[0]], [ids[-1]])
            ko = ko_certificate(fact.projection, [fam])
            assert ko.constant <= 1.0 + 1e-6


def enumerate_connecting_paths(space, e_set, f_set, carrier):
    """All simple E -> F paths within the carrier (test oracle)."""
    out = []
    for start in sorted(e_set):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            if path[-1] in f_set:
                out.append(path)
                continue
            for w, _e in space.adj[path[-1]]:
                if w in carrier and w not in path:
                    stack.append(path + (w,))
    return out


class TestConnectingAgainstEnumeration:
    def test_connecting_solver_matches_explicit_enumeration(self):
        # the shortest-path constraint generator must agree with the solver
        # fed every simple connecting path explicitly
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 15:
            space = random_connected_space(rng, 6, extra_edges=int(rng.integers(1, 4)))
            e_set, f_set = frozenset({0}), frozenset({space.n - 1})
            carrier = frozenset(range(space.n))
            paths = enumerate_connecting_paths(space, e_set, f_set, carrier)
            if not paths or len(paths) > 40:
                continue
            fam_c = CurveFamily.connecting(space, e_set, f_set)
            fam_e = CurveFamily.explicit(space, [Curve(space, p) for p in paths])
            for p in (1.5, 2.0, 3.0):
                v_c = modulus(fam_c, p=p, tol=1e-8).value
                v_e = modulus(fam_e, p=p, tol=1e-8).value
                assert v_c == pytest.approx(v_e, abs=1e-6, rel=1e-6)
            checked += 1

    def test_solver_is_deterministic(self):
        rng = np.random.default_rng(62)
        space = random_connected_space(rng, 8, extra_edges=4)
        fam = CurveFamily.connecting(space, {0}, {space.n - 1})
        a = modulus(fam, p=2)
        b = modulus(fam, p=2)
        assert a.value == b.value
        assert np.array_equal(a.density.values, b.density.values)
        assert a.iterations == b.iterations


def _permuted(space: Space, seed: int) -> Space:
    """The same space with its vertex records in a seeded order."""
    obj = space_to_json(space)
    verts = obj["vertices"]
    order = np.random.default_rng(seed).permutation(len(verts))
    return space_from_json({**obj, "vertices": [verts[k] for k in order]})


class TestRecordOrder:
    """Mod_p does not depend on the order of the vertex records: the oracle
    breaks ties by geometric length, then by vertex id."""

    CASES = {
        # the 32-sector annulus {1 < |z| < e}, inner ring to outer ring
        "annulus_32": (lambda: gen_polar_grid(33, 32, 1.0, math.e),
                       [f"r000s{j:03d}" for j in range(32)],
                       [f"r032s{j:03d}" for j in range(32)]),
        # the 12 x 6 grid, left column to right column
        "grid_12_6": (lambda: gen_grid(12, 6),
                      [f"g000_{j:03d}" for j in range(7)],
                      [f"g012_{j:03d}" for j in range(7)]),
    }

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_modulus_invariant_under_record_permutation(self, name, p):
        make, e_ids, f_ids = self.CASES[name]
        space = make()
        base = modulus(CurveFamily.connecting(space, e_ids, f_ids), p=p)
        assert base.exact and not base.flags
        for seed in (1, 2, 3):
            res = modulus(CurveFamily.connecting(_permuted(space, seed), e_ids, f_ids), p=p)
            assert res.exact and not res.flags
            assert res.value == pytest.approx(base.value, abs=1e-9, rel=0)


class TestMonotonicity:
    def test_subfamily_monotone_and_subadditive(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            space = random_connected_space(rng, 7, extra_edges=3)
            curves = []
            while len(curves) < 4:
                p = random_simple_path(rng, space)
                if p is not None:
                    curves.append(Curve(space, tuple(p)))
            g1 = CurveFamily.explicit(space, curves[:2])
            g2 = CurveFamily.explicit(space, curves)
            m1 = modulus(g1, p=2).value
            m2 = modulus(g2, p=2).value
            assert m1 <= m2 + 1e-6
            parts = sum(modulus(CurveFamily.explicit(space, [c]), p=2).value for c in curves)
            assert m2 <= parts + 1e-6

    def test_carrier_monotone(self):
        g = gen_grid(4, 4)
        E = [f"g{0:03d}_{j:03d}" for j in range(5)]
        F = [f"g{4:03d}_{j:03d}" for j in range(5)]
        small = [v for v in g.ids if not v.endswith("_004")]
        m_small = modulus(CurveFamily.connecting(g, E, F, small), p=2).value
        m_full = modulus(CurveFamily.connecting(g, E, F), p=2).value
        assert m_small <= m_full + 1e-6


class TestAnnulus:
    def test_continuum_value_small_grid(self):
        # disk grid; shells at realized ring radii a < b: Mod_2 ~ 2 pi/log(b/a)
        disk = gen_polar_grid(24, 48, 0.0, 1.0)
        radii = sorted({float(disk.dist[disk.i("center"), disk.i(f"r{i:03d}s000")])
                        for i in range(24)})
        a, b = radii[4], radii[20]
        res = annulus_modulus(disk, "center", a, b, p=2)
        expected = 2.0 * math.pi / math.log(b / a)
        assert res.value == pytest.approx(expected, rel=0.05)

    def test_degenerate_r_equals_s(self):
        disk = gen_polar_grid(4, 8, 0.0, 1.0)
        res = annulus_modulus(disk, "center", 0.5, 0.5)
        assert res.value == 0.0 and "degenerate" in res.flags

    def test_degenerate_shell_checks_exponent_and_names_weight(self):
        grid = gen_grid(2, 2)
        for p in (math.nan, 0.5):
            with pytest.raises(ValueError, match="1 < p < inf"):
                annulus_modulus(grid, grid.ids[0], 1.0, 1.0, p=p)
        res = annulus_modulus(grid, grid.ids[0], 1.0, 1.0, weight=dict.fromkeys(grid.ids, 1.0))
        assert "degenerate" in res.flags and res.weight_kind == "vertex"

    def test_log_scaling_law(self):
        disk = gen_polar_grid(28, 32, 0.0, 1.0)
        radii = sorted({float(disk.dist[disk.i("center"), disk.i(f"r{i:03d}s000")])
                        for i in range(28)})
        a, mid, b = radii[2], radii[14], radii[26]
        v1 = annulus_modulus(disk, "center", a, mid, p=2).value
        v2 = annulus_modulus(disk, "center", a, b, p=2).value
        assert v1 * math.log(mid / a) == pytest.approx(v2 * math.log(b / a), rel=0.10)


@pytest.mark.slow
def test_annulus_refinement_series(monkeypatch):
    # Mod_2 of {1 < |z| < e} is 2 pi; the error of the connecting family of
    # the polar grid falls at every refinement, and no level fills the
    # all-pairs matrix (it would take about 35 GB at 256 sectors)
    fills = []
    monkeypatch.setattr(spaces, "_apsp", lambda n, edges: fills.append(n))
    errors = []
    for sectors in (64, 128, 256):
        ann = gen_polar_grid(sectors + 1, sectors, 1.0, math.e)
        fam = CurveFamily.connecting(ann, [f"r000s{j:03d}" for j in range(sectors)],
                                     [f"r{sectors:03d}s{j:03d}" for j in range(sectors)])
        res = modulus(fam, p=2)
        assert res.exact and not res.flags
        errors.append(abs(res.value - 2.0 * math.pi) / (2.0 * math.pi))
    assert fills == []
    assert errors[0] > errors[1] > errors[2]


class TestLoewner:
    def test_profile_monotone_trend(self):
        g = gen_grid(6, 6)
        base = [f"g{0:03d}_{j:03d}" for j in range(3)]
        rows = loewner_profile(
            g,
            [(base, [f"g{2:03d}_{j:03d}" for j in range(3)]),
             (base, [f"g{4:03d}_{j:03d}" for j in range(3)]),
             (base, [f"g{6:03d}_{j:03d}" for j in range(3)])],
            q=2.0)
        zetas = [r["zeta"] for r in rows]
        mods = [r["modulus"] for r in rows]
        assert zetas == sorted(zetas)
        assert mods == sorted(mods, reverse=True)

    def test_disconnected_carrier_flagged(self):
        sp = Space.build([(v, 1.0) for v in "abcd"],
                         [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)], "path")
        fam = CurveFamily.connecting(sp, ["a"], ["d"], ["a", "d"])
        res = modulus(fam)
        assert res.value == 0.0 and "empty family" in res.flags

    def test_square_value_near_one(self):
        g = gen_grid(10, 10)
        E = [f"g{0:03d}_{j:03d}" for j in range(11)]
        F = [f"g{10:03d}_{j:03d}" for j in range(11)]
        res = modulus(CurveFamily.connecting(g, E, F), p=2)
        assert res.value == pytest.approx(1.0, rel=0.10)


class TestLoewnerConverges:
    """The Loewner families of demo 04 overlap heavily, unlike the annulus
    curves: E is 4 vertices of column 0 and F 4 vertices of column i of
    gen_grid(10, 10).  Every solve ends exact and without flags."""

    VALUES = {
        (2.0, 3): 1.320019, (2.0, 5): 0.925082, (2.0, 8): 0.665406, (2.0, 10): 0.513114,
        (3.0, 3): 0.394609, (3.0, 5): 0.161173, (3.0, 8): 0.072035, (3.0, 10): 0.046155,
    }

    def check(self, p, column):
        g = gen_grid(10, 10)
        fam = CurveFamily.connecting(g, [f"g000_{j:03d}" for j in range(4)],
                                     [f"g{column:03d}_{j:03d}" for j in range(4)])
        res = modulus(fam, p=p)
        assert res.exact and not res.flags
        assert res.value == pytest.approx(self.VALUES[p, column], rel=1e-4)

    @pytest.mark.parametrize("p, column", [(2.0, 10), (3.0, 8)])
    def test_converges(self, p, column):
        self.check(p, column)

    @pytest.mark.slow
    @pytest.mark.parametrize("p, column", sorted(VALUES))
    def test_every_family_converges(self, p, column):
        self.check(p, column)


def test_edge_disjoint_family_leaves_the_optimiser_unimported():
    # the annulus curves are edge-disjoint, so every warm start already
    # passes the stopping test; the CLI does not pay for scipy.optimize
    code = textwrap.dedent("""
        import math, sys
        import qrgraph.cli
        from qrgraph import CurveFamily, modulus
        from qrgraph.generators import gen_polar_grid
        ann = gen_polar_grid(33, 32, 1.0, math.e)
        fam = CurveFamily.connecting(ann, [f"r000s{j:03d}" for j in range(32)],
                                     [f"r032s{j:03d}" for j in range(32)])
        res = modulus(fam, p=2)
        assert res.exact and not res.flags, res
        assert "scipy.optimize" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(qrgraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestUpperGradient:
    def test_constant_zero(self):
        sp = gen_cycle(5)
        g = minimal_upper_gradient(sp, np.zeros(5))
        assert np.allclose(g.values, 0.0)

    def test_distance_function_slope_at_most_one(self):
        sp = gen_cycle(8)
        u = sp.dist[0]
        g = minimal_upper_gradient(sp, u)
        assert np.all(g.values <= 1.0 + 1e-12)

    def test_single_edge_witness_on_random_graphs(self):
        # any density below the edge slope fails on that single-edge curve
        rng = np.random.default_rng(41)
        for _ in range(100):
            sp = random_connected_space(rng, int(rng.integers(3, 7)))
            u = rng.random(sp.n)
            g = minimal_upper_gradient(sp, u)
            e = int(rng.integers(len(sp.edges)))
            i, j, ln = sp.edges[e]
            bad = g.values.copy()
            if bad[e] == 0.0:
                continue
            bad[e] *= 0.9
            assert bad[e] * ln < abs(u[i] - u[j]) - 1e-15


class TestKoKi:
    def test_identity_exactly_one_on_all_corpus_spaces(self, corpus_maps):
        seen: set[tuple] = set()
        for name, vm in corpus_maps.items():
            sp = vm.source
            if sp.ids in seen:
                continue
            seen.add(sp.ids)
            ident = identity_map(sp)
            ids = sorted(sp.ids)
            fam = CurveFamily.connecting(sp, [ids[0]], [ids[-1]])
            ko = ko_certificate(ident, [fam])
            ki = ki_certificate(ident, [fam])
            assert ko.constant == 1.0, name
            assert ki.constant == 1.0, name

    def test_stretch_map_ko_approaches_t(self):
        t = 2.5
        n = 10
        src = gen_grid(n, n)
        tgt = gen_grid(n, n, sx=t, sy=1.0)
        vm = VertexMap.build(src, tgt, {v: v for v in src.ids})
        E = [f"g{0:03d}_{j:03d}" for j in range(n + 1)]
        F = [f"g{n:03d}_{j:03d}" for j in range(n + 1)]
        fam = CurveFamily.connecting(src, E, F)
        ko = ko_certificate(vm, [fam])
        assert ko.constant == pytest.approx(t, rel=0.10)
        # vertical family drives K_I to t
        Ev = [f"g{i:03d}_{0:03d}" for i in range(n + 1)]
        Fv = [f"g{i:03d}_{n:03d}" for i in range(n + 1)]
        ki = ki_certificate(vm, [CurveFamily.connecting(src, Ev, Fv)])
        assert ki.constant == pytest.approx(t, rel=0.10)

    def test_cover_image_family_ratio_at_most_one(self):
        vm = gen_cycle_cover(8, 2)
        fam = CurveFamily.connecting(vm.source, ["s0000"], ["s0004"])
        ki = ki_certificate(vm, [fam])
        assert ki.constant <= 1.0 + 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_collapsed_image_curve_found_after_the_first(self, p):
        # the shortest curve a-d has a non-constant image, so the oracle
        # meets the collapsed image of a2-d only once rho > 0: no density
        # is admissible for the image family
        src = Space.build([(v, 1.0) for v in ("a", "a2", "d")],
                          [("a", "d", 1.0), ("a2", "d", 2.0)], "path")
        tgt = Space.build([("x", 1.0), ("y", 1.0)], [("x", "y", 1.0)], "path")
        vm = VertexMap.build(src, tgt, {"a": "x", "a2": "y", "d": "y"})
        ki = ki_certificate(vm, [CurveFamily.connecting(src, ["a", "a2"], ["d"])], q=p)
        row = ki.details["rows"][0]
        assert row["image"] == math.inf and "constant curve member" in row["flags"]


class TestVaisala:
    def _cover_setup(self, n=8):
        vm = gen_cycle_cover(n, 2)
        src, tgt = vm.source, vm.target
        loop = [f"t{i % n:04d}" for i in range(n + 1)]
        gamma_prime = [Curve.from_ids(tgt, loop)]
        lift1 = [f"s{i % (2 * n):04d}" for i in range(n + 1)]
        lift2 = [f"s{(i + n) % (2 * n):04d}" for i in range(n + 1)]
        gamma = [Curve.from_ids(src, lift1), Curve.from_ids(src, lift2)]
        return vm, gamma, gamma_prime

    def test_m1_reduces_to_poletsky_ratio(self):
        vm, gamma, gamma_prime = self._cover_setup()
        cert = vaisala_certificate(vm, [gamma[0]], gamma_prime, [[0]], m=1)
        assert cert.passed

    def test_double_cover_exact_halving(self):
        vm, gamma, gamma_prime = self._cover_setup()
        cert = vaisala_certificate(vm, gamma, gamma_prime, [[0, 1]], m=2, k_bound=1.0)
        assert cert.passed
        assert cert.details["mod_gamma_prime"] == pytest.approx(
            cert.details["mod_gamma"] / 2.0, abs=1e-6)

    def test_identical_lifts_rejected(self):
        vm, gamma, gamma_prime = self._cover_setup()
        cert = vaisala_certificate(vm, gamma, gamma_prime, [[0, 0]], m=2)
        assert not cert.passed and "precondition" in cert.flags

    @pytest.mark.parametrize("lifts", [[], [[0, 1]], [[0, 1]] * 3, [[0, -1], [0, 1]],
                                       [[0, 1], [1, 2]]])
    def test_lift_lists_must_match_the_image_curves(self, lifts):
        # one list of lifts per image curve, each lift an index into gamma:
        # else a curve without lifts would pass, or a lift wrap around
        vm, gamma, gamma_prime = self._cover_setup(6)
        cert = vaisala_certificate(vm, gamma, gamma_prime * 2, lifts, m=2)
        assert not cert.passed and "precondition" in cert.flags


class TestAnalyticQr:
    def test_identity_unit_graph(self):
        vm = identity_map(gen_cycle(6))
        cert = analytic_qr_constant(vm, q=2.0)
        assert cert.constant == pytest.approx(1.0)

    def test_edge_stretch_t_to_the_q(self):
        t = 3.0
        src = gen_cycle(4, prefix="s")
        tgt = gen_cycle(4, prefix="t", edge_len=t)
        vm = VertexMap.build(src, tgt, {f"s{i:04d}": f"t{i:04d}" for i in range(4)})
        for q in (2.0, 3.0):
            cert = analytic_qr_constant(vm, q=q)
            assert cert.constant == pytest.approx(t ** q)


@pytest.mark.parametrize("settings", [
    {"tol": math.inf},
    {"max_iter": 0},
    {"tol": -1.0, "max_iter": 50},
], ids=["tol_inf", "max_iter_0", "tol_negative"])
def test_modulus_refuses_solver_settings_outside_the_cli_ranges(settings):
    # these once returned inf flagged "no admissible scaling", inf after one
    # iteration, and 60 iterations past a cap of 50
    fam = CurveFamily.connecting(gen_winding(2, 3, 6).target, ["r000s000"], ["r002s003"])
    with pytest.raises(ValueError, match="modulus requires"):
        modulus(fam, **settings)


def test_curve_row_adds_each_edge_in_path_order():
    # a path that runs an edge four times: its coefficient is the left fold
    # 0.0 + len + len + len + len, as a dict of running sums would give
    sp = Space.build([(v, 1.0) for v in "abc"], [("a", "b", 0.1), ("b", "c", 0.7)], "path")
    path = [0, 1, 2, 1, 0, 1, 0]
    index, coeffs = edge_index_reference(sp), {}
    for a, b in zip(path, path[1:]):
        e = index[(a, b)]
        coeffs[e] = coeffs.get(e, 0.0) + sp.edge_length(e)
    idx, coef = _curve_row(sp, path)
    assert idx.tolist() == sorted(coeffs) and coef.tolist() == [coeffs[e] for e in sorted(coeffs)]
    # an image path: collapsed steps add nothing; the first non-edge step is named
    assert [x.tolist() for x in _curve_row(sp, [0, 1, 2, 1], np.array([0, 0, 1]))] == [[0], [0.1 + 0.1]]
    with pytest.raises(KeyError) as err:
        _curve_row(sp, [0, 1, 2, 1], np.array([0, 0, 2]))
    assert err.value.args == ((0, 2),)
