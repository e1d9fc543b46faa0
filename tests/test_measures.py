from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_map
from qrgraph._tol import TOL
from qrgraph.covering import VertexMap, local_index, u_component
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.measures import (
    area_inequality_check,
    change_of_variables_check,
    condition_N_check,
    condition_N_inverse_check,
    essential_index,
    essential_index_profile,
    jacobians,
    pullback_measure,
)
from qrgraph.spaces import _with_metric


class TestPullbackMeasure:
    def test_identity_returns_nu(self):
        vm = identity_map(gen_cycle(6))
        pm = pullback_measure(vm)
        assert np.allclose(pm.values, vm.target.mass)

    def test_double_cover_uniform_total_doubles(self):
        vm = gen_cycle_cover(7, 2)
        pm = pullback_measure(vm)
        assert np.allclose(pm.values, 1.0)
        assert pm.total() == pytest.approx(2.0 * vm.target.total_mass())

    def test_zero_mass_target_pulls_back_zero(self):
        vm = gen_cycle_cover(5, 2)
        nu = {v: (0.0 if v == "t0000" else 1.0) for v in vm.target.ids}
        pm = pullback_measure(vm, nu)
        for x in vm.fiber("t0000"):
            assert pm.values[x] == 0.0

    def test_total_equals_multiplicity_integral(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vm = random_map(rng, 9, 4)
            pm = pullback_measure(vm)
            total = sum(
                len(vm.fiber(y)) * float(vm.target.mass[y]) for y in range(vm.target.n)
            )
            assert pm.total() == pytest.approx(total, rel=1e-12)

    def test_additive_over_disjoint_sets(self):
        vm = gen_cycle_cover(6, 2)
        pm = pullback_measure(vm)
        a, b = {0, 1, 2}, {5, 6}
        assert pm.of(a | b) == pytest.approx(pm.of(a) + pm.of(b))


class TestChangeOfVariables:
    def test_rho_one_counts_multiplicity(self):
        vm = gen_cycle_cover(6, 2)
        cert = change_of_variables_check(vm, np.ones(vm.source.n))
        assert cert.passed
        assert cert.details["lhs"] == pytest.approx(2.0 * vm.target.total_mass())

    def test_indicator_of_fiber(self):
        vm = gen_cycle_cover(6, 2)
        rho = np.zeros(vm.source.n)
        for x in vm.fiber("t0000"):
            rho[x] = 1.0
        cert = change_of_variables_check(vm, rho)
        assert cert.passed
        assert cert.details["lhs"] == pytest.approx(2.0 * vm.target.mass_of("t0000"))

    def test_500_random_trials(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            vm = random_map(rng, int(rng.integers(4, 10)), int(rng.integers(2, 5)))
            rho = rng.random(vm.source.n) * 3.0
            nu = rng.random(vm.target.n) + 0.1
            assert change_of_variables_check(vm, rho, nu).passed


def _heavy_winding() -> tuple[VertexMap, int]:
    """gen_winding(2, 4, 8) with mass 1e308 on a target vertex of two preimages."""
    vm = gen_winding(2, levels=4, sectors=8)
    y = int(np.flatnonzero(np.bincount(vm.f) == 2)[0])
    mass = vm.target.mass.copy()
    mass[y] = 1e308
    return VertexMap(source=vm.source, target=_with_metric(vm.target, "path", mass), f=vm.f.copy()), y


def test_sides_that_overflow_to_inf_are_equal():
    vm, _y = _heavy_winding()
    cert = change_of_variables_check(vm, np.ones(vm.source.n))
    assert cert.details == {"lhs": math.inf, "rhs": math.inf}
    assert cert.passed and cert.constant == 0.0
    area = area_inequality_check(vm, np.ones(vm.source.n))
    assert area.details["rhs"] == math.inf and area.details["equality"]
    assert pullback_measure(vm).total() == math.inf


def test_jacobian_that_overflows_reads_inf_unlisted():
    vm, y = _heavy_winding()
    mu = np.full(vm.source.n, 0.5)
    mu[0] = 0.0
    jf = jacobians(vm, mu=mu)
    over = np.flatnonzero(vm.f == y)
    assert np.all(jf.jac[over] == math.inf) and np.all(jf.jac_inv[over] == 0.5 / 1e308)
    assert jf.infinite == frozenset({vm.source.ids[0]})


def test_area_inequality_counts_a_jacobian_that_overflows_as_inf():
    vm, y = _heavy_winding()
    area = area_inequality_check(vm, np.ones(vm.source.n))
    assert area.details["lhs"] == math.inf and area.details["rhs"] == math.inf
    assert area.passed and area.details["equality"]
    rho = np.ones(vm.source.n)
    rho[vm.f == y] = 0.0  # a vanishing rho keeps the overflowing terms out
    area = area_inequality_check(vm, rho)
    assert math.isfinite(area.details["lhs"]) and math.isfinite(area.details["rhs"])
    assert area.passed and area.details["equality"]


def test_area_inequality_infinite_side_only_equals_itself():
    vm, y = _heavy_winding()
    mu = vm.source.mass.copy()
    mu[vm.f == y] = 0.0  # Condition N fails under the heavy target vertex
    area = area_inequality_check(vm, np.ones(vm.source.n), mu=mu)
    assert math.isfinite(area.details["lhs"]) and area.details["rhs"] == math.inf
    assert area.passed and not area.details["equality"] and not area.details["condition_N"]


def test_pullback_measure_of_a_set_that_overflows_is_inf():
    vm, y = _heavy_winding()
    heavy = [vm.source.ids[k] for k in np.flatnonzero(vm.f == y)]
    assert pullback_measure(vm).of(heavy) == math.inf


class TestJacobians:
    def test_identity_unit(self):
        vm = identity_map(gen_cycle(5))
        jf = jacobians(vm)
        assert np.allclose(jf.jac, 1.0) and np.allclose(jf.jac_inv, 1.0)

    def test_halved_mass_doubles_jacobian(self):
        vm = identity_map(gen_cycle(5))
        mu = np.ones(5)
        mu[2] = 0.5
        jf = jacobians(vm, mu=mu)
        assert jf.jac[2] == pytest.approx(2.0)

    def test_reciprocal_identity_where_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            vm = random_map(rng, 8, 3)
            jf = jacobians(vm)
            for k in range(vm.source.n):
                if np.isfinite(jf.jac[k]) and jf.jac[k] > 0:
                    assert jf.jac[k] * jf.jac_inv[k] == pytest.approx(1.0, abs=1e-12)

    def test_infinity_flag(self):
        vm = identity_map(gen_cycle(4))
        mu = np.ones(4)
        mu[1] = 0.0
        jf = jacobians(vm, mu=mu)
        assert math.isinf(jf.jac[1]) and "c0001" in jf.infinite

    def test_w2_jacobian_profile_monotone_radial(self):
        vm = gen_winding(2, levels=5, sectors=8)
        jf = jacobians(vm)
        per_ring = [jf.of(f"r{i:03d}s000") for i in range(5)]
        assert all(a < b for a, b in zip(per_ring, per_ring[1:]))


class TestAreaInequality:
    def test_equality_with_positive_masses(self):
        vm = gen_cycle_cover(6, 2)
        rng = np.random.default_rng(11)
        cert = area_inequality_check(vm, rng.random(vm.source.n))
        assert cert.passed and cert.details["equality"]

    def test_nu_zero_keeps_equality(self):
        vm = identity_map(gen_cycle(5))
        nu = np.ones(5)
        nu[0] = 0.0
        cert = area_inequality_check(vm, np.ones(5), nu=nu)
        assert cert.passed and cert.details["equality"]

    def test_condition_n_violation_gives_strict_inequality(self):
        vm = identity_map(gen_cycle(5))
        mu = np.ones(5)
        mu[0] = 0.0
        cert = area_inequality_check(vm, np.ones(5), mu=mu)
        assert cert.passed
        assert not cert.details["equality"]
        assert not cert.details["condition_N"]


class TestEssentialIndex:
    @pytest.mark.parametrize("r", [1e-10, TOL, 0.0, -1.0, math.nan])
    def test_radius_leaving_the_centre_outside_raises_like_u_component(self, r):
        vm = gen_winding(2, levels=4, sectors=8)
        with pytest.raises(ValueError, match="lies outside"):
            u_component(vm, 1, r)
        with pytest.raises(ValueError, match="lies outside"):
            essential_index(vm, 1, r=r)

    def test_negative_diagonal_keeps_the_centre_for_both(self):
        # an explicit target diagonal of -5e-10 at f(x) puts x in its own
        # ball at r = 6e-10, and +5e-10 does not
        vm = gen_cycle_cover(12, 2)
        d = np.array(vm.target.dist)
        d[np.diag_indices(vm.target.n)] = [5e-10 if k % 2 else -5e-10 for k in range(vm.target.n)]
        vm = VertexMap(source=vm.source, target=_with_metric(vm.target, d), f=vm.f.copy())
        inside, outside = (int(np.flatnonzero(vm.f == z)[0]) for z in (0, 1))
        assert u_component(vm, inside, 6e-10).members == frozenset([inside])
        assert essential_index(vm, inside, r=6e-10) == 1.0
        for check in (lambda: u_component(vm, outside, 6e-10),
                      lambda: essential_index(vm, outside, r=6e-10)):
            with pytest.raises(ValueError, match="lies outside"):
                check()

    def test_identity_is_one_at_all_radii(self):
        vm = identity_map(gen_cycle(8))
        for r in vm.target.ball_radii(0):
            assert essential_index(vm, 0, r=r) == pytest.approx(1.0)

    def test_w2_branch_vertex_between_one_and_two(self):
        vm = gen_winding(2, levels=4, sectors=8)
        ci = vm.source.i("center")
        r = vm.target.ball_radii(int(vm.f[ci]))[0]
        val = essential_index(vm, ci, r=r)
        assert 1.5 < val <= 2.0 + 1e-9

    def test_w2_off_branch_is_one(self):
        vm = gen_winding(2, levels=4, sectors=8)
        x = vm.source.i("r001s002")
        value, _cap, _rows = essential_index_profile(vm, x)
        assert value == pytest.approx(1.0)

    def test_chain_on_corpus(self, corpus_maps):
        for name, vm in corpus_maps.items():
            for x in range(vm.source.n):
                value, _cap, _rows = essential_index_profile(vm, x)
                assert 1.0 - 1e-9 <= value <= local_index(vm, x) + 1e-9, (name, x)


class TestConditions:
    def test_positive_masses_both_pass(self):
        vm = gen_cycle_cover(5, 2)
        assert condition_N_check(vm).passed
        assert condition_N_inverse_check(vm).passed

    def test_nu_null_target_with_positive_fiber_fails_n_inverse(self):
        vm = gen_cycle_cover(5, 2)
        nu = np.ones(vm.target.n)
        nu[0] = 0.0
        cert = condition_N_inverse_check(vm, nu=nu)
        assert not cert.passed and cert.witness in {vm.source.ids[x] for x in vm.fiber(0)}

    def test_mu_null_vertex_over_positive_target_fails_n(self):
        vm = identity_map(gen_cycle(5))
        mu = np.ones(5)
        mu[3] = 0.0
        cert = condition_N_check(vm, mu=mu)
        assert not cert.passed and cert.witness == "c0003"


def test_essential_index_profile_reads_its_row_from_the_normal_radius_sweep(monkeypatch):
    from qrgraph import covering

    vm = gen_winding(2, 4, 8)
    sweeps = []
    real = covering._threshold_sweeps

    def counting(space, jobs):
        for out in real(space, jobs):
            sweeps.append(1)
            yield out

    monkeypatch.setattr(covering, "_threshold_sweeps", counting)
    for x in range(vm.source.n):
        essential_index_profile(vm, x)
    assert len(sweeps) == vm.source.n == 65
    sweeps.clear()
    essential_index_profile(vm, 0, cap=0.5)
    assert len(sweeps) == 1


@pytest.mark.parametrize("vm", [gen_winding(2, 4, 8), gen_cycle_cover(8, 2)],
                         ids=["winding", "cycle_cover"])
def test_essential_index_profile_default_cap_is_the_normal_radius(vm):
    from qrgraph.covering import normal_radius

    for x in range(vm.source.n):
        cap = normal_radius(vm, x)[0]
        assert essential_index_profile(vm, x) == essential_index_profile(vm, x, cap=cap)
