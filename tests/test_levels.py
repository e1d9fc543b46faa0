"""The level rows of ``covering._u_levels`` against the ball -> preimage ->
graph-search chain, alone and inside every function that reads U(x, f, r)
or a preimage-component count."""
from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    boundary_rows_reference,
    branch_set_reference,
    decompose_fibers_reference,
    essential_rows_reference,
    inclusion_reference,
    normal_radius_reference,
    random_map,
    rk_component_count_reference,
    u_component_reference,
)
from qrgraph._tol import TOL, le
from qrgraph.covering import (
    VertexMap,
    branch_set,
    decompose_fibers,
    local_index,
    max_multiplicity,
    normal_radius,
    normal_radius_table,
    u_component,
)
from qrgraph.dilatation import inverse_dilatation_profile
from qrgraph.embedding import rk_radii
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.measures import essential_index, essential_index_profile
from qrgraph.pullback import factorize, verify_projection, zero_distance_pairs
from qrgraph.spaces import _with_metric


def _explicit_diagonal() -> VertexMap:
    """A double cover whose target carries an explicit metric with diagonal
    entries +-5e-10, inside the tolerance a metric may have there."""
    vm = gen_cycle_cover(12, 2)
    d = np.array(vm.target.dist)
    d[np.diag_indices(vm.target.n)] = [5e-10 if k % 2 else -5e-10 for k in range(vm.target.n)]
    return VertexMap(source=vm.source, target=_with_metric(vm.target, d), f=vm.f.copy())


def _maps() -> dict:
    maps = {
        "winding_2_4_8": gen_winding(2, 4, 8),
        "cycle_cover_16_2": gen_cycle_cover(16, 2),
        "cycle_cover_10_2": gen_cycle_cover(10, 2),
        "explicit_diagonal": _explicit_diagonal(),
    }
    for n, n_tgt, seed in ((12, 4, 0), (12, 4, 1), (12, 10, 1), (30, 10, 0), (30, 10, 1),
                           (30, 20, 0)):
        maps[f"random_{n}_{n_tgt}_s{seed}"] = random_map(np.random.default_rng(seed), n, n_tgt)
    return maps


MAPS = _maps()
SLOW_MAPS = {
    "winding_3_6_8": lambda: gen_winding(3, 6, 8),
    "random_90_30_s7": lambda: random_map(np.random.default_rng(7), 90, 30),
}


@functools.cache
def _slow_map(name: str) -> VertexMap:
    return SLOW_MAPS[name]()


def _nu(vm: VertexMap) -> np.ndarray:
    return np.random.default_rng(vm.target.n).uniform(0.0, 2.0, size=vm.target.n)


def _with_pullback(fact, mat: np.ndarray):
    """The factorization with another pullback matrix."""
    pb = _with_metric(fact.vm.source, mat, fact.pullback_space.mass)
    return replace(fact, pullback_space=pb,
                   projection=VertexMap(source=pb, target=fact.vm.target, f=fact.vm.f,
                                        check=False))


def _scaled(fact, c: float):
    """The factorization with its pullback matrix scaled by c: at c > 2 the
    inclusion U(z, pi, r) ⊆ B(z, 2r) of part (ii) fails."""
    return _with_pullback(fact, c * np.array(fact.pullback_space.dist))


def check_u_components(vm):
    for x in range(vm.source.n):
        for r in vm.target.ball_radii(int(vm.f[x])):
            assert u_component(vm, x, r).members == u_component_reference(vm, x, r), (x, r)


def check_branch_set(vm):
    want = branch_set_reference(vm)
    assert branch_set(vm) == want
    assert {x for x in range(vm.source.n) if local_index(vm, x) > 1} == want


def check_normal_radius_table(vm):
    table = normal_radius_table(vm)
    for z in range(vm.target.n):
        zid = vm.target.ids[z]
        r, rec = normal_radius_reference(vm, int(np.flatnonzero(vm.f == z)[0]))
        assert table.radius[zid] == r
        assert list(table.record[zid].items()) == list(rec.items())
        assert all(type(v) is bool for k, v in rec.items() if k != "M_z")
        assert (zid in table.degenerate) == rec["degenerate"]


def check_decompose_fibers(vm):
    for n in range(1, max_multiplicity(vm) + 1):
        assert decompose_fibers(vm, range(vm.source.n), n) == decompose_fibers_reference(vm, n)


def check_inverse_dilatation(vm):
    for x in range(vm.source.n):
        prof = inverse_dilatation_profile(vm, x)
        radii = [s for s in vm.target.ball_radii(int(vm.f[x])) if le(s, prof.cap)]
        rows = boundary_rows_reference(vm, x, radii)
        assert list(prof.rows) == [row for row in rows if row is not None]
        empty = [f"empty boundary at s={s}" for s, row in zip(radii, rows) if row is None]
        assert [f for f in prof.flags if f.startswith("empty")] == empty


def check_essential_index(vm):
    nu = _nu(vm)
    for x in range(vm.source.n):
        value, cap, rows = essential_index_profile(vm, x, nu)
        assert cap == normal_radius(vm, x)[0]
        radii = [r for r in vm.target.ball_radii(int(vm.f[x])) if le(r, cap)]
        want = essential_rows_reference(vm, x, nu, radii)
        assert rows == want
        assert value == max((v for _r, v in want), default=1.0)
        # r within TOL above the farthest target distance: that vertex stays
        # outside the open ball
        tie = float(vm.target.dist[int(vm.f[x])].max()) + TOL / 2
        for r, v in want[:2] + essential_rows_reference(vm, x, nu, [tie]):
            assert essential_index(vm, x, nu, r) == v


def check_rk_radii(vm):
    tgt = vm.target
    for k in range(1, max_multiplicity(vm) + 1):
        radii, grids = rk_radii(vm, k)
        for y in range(tgt.n):
            dvals = [0.0] + [float(v) for v in np.unique(tgt.dist[y]) if v > TOL]
            assert grids[tgt.ids[y]] == [d / 5.0 for d in dvals]
            hit = [d / 5.0 for d in dvals if rk_component_count_reference(vm, y, d) <= k]
            assert radii[tgt.ids[y]] == (hit[0] if hit else dvals[-1] / 5.0)


def check_verify_projection(vm):
    # the bracket's factor-2 slack needs a larger scale to fail
    for metric, c in (("exact", 3.0), ("lower", 5.0)):
        fact = factorize(vm, metric=metric)
        for f in (fact, _scaled(fact, c)):
            cert = verify_projection(f)
            ok, witness, checked = inclusion_reference(f)
            assert cert.details["inclusion_checks"] == checked
            if cert.witness is None or cert.witness[0] == "inclusion":
                assert cert.witness == witness
            assert ok or not cert.passed


CHECKS = [
    check_u_components,
    check_branch_set,
    check_normal_radius_table,
    check_decompose_fibers,
    check_inverse_dilatation,
    check_essential_index,
    check_rk_radii,
    check_verify_projection,
]


def _cases(names, get) -> list:
    """(map name, check) pairs; only a discrete map has a factorization."""
    return [pytest.param(name, check, id=f"{name}-{check.__name__[6:]}")
            for name in sorted(names) for check in CHECKS
            if check is not check_verify_projection or not zero_distance_pairs(get(name))]


@pytest.mark.parametrize("name, check", _cases(MAPS, MAPS.get))
def test_matches_reference(name, check):
    check(MAPS[name])


@pytest.mark.slow
@pytest.mark.parametrize("name, check", _cases(SLOW_MAPS, _slow_map))
def test_matches_reference_at_scale(name, check):
    check(_slow_map(name))


@pytest.mark.parametrize("metric", ["exact", "lower"])
def test_scaled_factorization_fails_inclusion(metric):
    # scaled by 3 the projection stays 1-Lipschitz, so the first witness
    # is the inclusion chain's
    fact = _scaled(factorize(MAPS["winding_2_4_8"], metric=metric), 3.0)
    cert = verify_projection(fact)
    ok, witness, _checked = inclusion_reference(fact)
    assert not ok and not cert.passed
    assert cert.witness == witness and witness[0] == "inclusion"


def test_sheet_blind_matrix_fails_left_inclusion():
    # d_Y(f a, f b) + 0.75 for a != b keeps pi 1-Lipschitz but puts the
    # other sheet's point over f(z) inside B(z, r) at the smallest radius
    # r = 1.25, where U(z, pi, r) is z and its two neighbours; the bracket's
    # B(z, r/2) first reaches that point at r = 2.25
    vm = gen_cycle_cover(16, 2)
    mat = vm.target.dist[np.ix_(vm.f, vm.f)] + 0.75 * (1.0 - np.eye(vm.source.n))
    for metric, r in (("exact", 1.25), ("lower", 2.25)):
        fact = _with_pullback(factorize(vm, metric=metric), mat)
        cert = verify_projection(fact)
        ok, witness, _checked = inclusion_reference(fact)
        assert not ok and cert.witness == witness == ("inclusion", vm.source.ids[0], r)


class TestOwnBall:
    @pytest.mark.parametrize("r", [0.0, -1.0, 1e-10, math.nan])
    def test_centre_outside_its_ball_raises_value_error(self, r):
        for vm in (MAPS["winding_2_4_8"], MAPS["explicit_diagonal"]):
            with pytest.raises(ValueError):
                u_component(vm, 0, r)

    def test_negative_diagonal_keeps_the_centre_at_tiny_radius(self):
        vm = MAPS["explicit_diagonal"]
        x = int(np.flatnonzero(vm.f == 0)[0])  # target diagonal -5e-10
        assert u_component(vm, x, 6e-10).members == frozenset([x])
        with pytest.raises(ValueError):
            u_component(vm, int(np.flatnonzero(vm.f == 1)[0]), 6e-10)
