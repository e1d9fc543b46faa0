from __future__ import annotations

import math

import numpy as np
import pytest

from qrgraph.covering import branch_set, local_index, max_multiplicity
from qrgraph.dilatation import bld_verify, dilatation_profile
from qrgraph.generators import (
    gen_cycle,
    gen_cycle_cover,
    gen_grid,
    gen_polar_grid,
    gen_pullback_space,
    gen_winding,
    identity_map,
)
from qrgraph.measures import jacobians
from qrgraph.pullback import factorize, verify_projection


class TestPolarGrid:
    def test_counts_levels2_sectors4(self):
        sp = gen_polar_grid(2, 4, 1.0, 2.0)
        assert sp.n == 8
        assert len(sp.edges) == 12

    def test_degenerate_radii_rejected(self):
        with pytest.raises(ValueError):
            gen_polar_grid(4, 8, 1.0, 1.0)

    def test_total_mass_is_annulus_area(self):
        for levels, sectors in ((4, 8), (8, 16)):
            sp = gen_polar_grid(levels, sectors, 1.0, math.e)
            area = math.pi * (math.e ** 2 - 1.0)
            assert sp.total_mass() == pytest.approx(area, rel=0.02)

    def test_disk_total_mass_is_disk_area(self):
        sp = gen_polar_grid(8, 16, 0.0, 2.0)
        assert sp.total_mass() == pytest.approx(math.pi * 4.0, rel=0.02)

    def test_passes_space_validator(self):
        assert gen_polar_grid(5, 8, 0.5, 2.0).validate() == []

    @pytest.mark.parametrize("r0, r1", [(math.nan, 2.0), (1.0, math.inf), (0.0, math.nan)])
    def test_non_finite_radii_rejected(self, r0, r1):
        # NaN fails r0 > 0 as well as r0 < 0, which made a disk of it
        with pytest.raises(ValueError, match=r"need 0 <= r0 < r1 < inf"):
            gen_polar_grid(4, 8, r0, r1)

    @pytest.mark.parametrize("r0, r1", [(1.0, 1e308), (0.0, 1e308), (0.0, 1e-320),
                                        (0.0, 1e-300), (1e-300, 1.0)])
    def test_radii_whose_cells_leave_the_float_range_rejected(self, r0, r1):
        # squared radii overflow, or cell areas underflow to zero
        with pytest.raises(ValueError, match="^radii (out of float range|give cell masses or edge lengths that are not finite)"):
            gen_polar_grid(4, 8, r0, r1)


class TestWinding:
    def test_k1_is_graph_isomorphism(self):
        vm = gen_winding(1, levels=3, sectors=8)
        assert max_multiplicity(vm) == 1
        assert branch_set(vm) == frozenset()

    def test_k2_branch_center_index_two(self):
        vm = gen_winding(2, levels=3, sectors=8)
        ci = vm.source.i("center")
        assert branch_set(vm) == frozenset({ci})
        assert local_index(vm, ci) == 2

    def test_multiplicity_k_away_from_center(self):
        for k in (2, 3):
            vm = gen_winding(k, levels=3, sectors=8)
            assert max_multiplicity(vm) == k
            for y in range(vm.target.n):
                if vm.target.ids[y] != "center":
                    assert len(vm.fiber(y)) == k

    def test_jacobian_radial_profile_monotone(self):
        vm = gen_winding(2, levels=5, sectors=8)
        jf = jacobians(vm)
        prof = [jf.of(f"r{i:03d}s001") for i in range(5)]
        assert all(a < b for a, b in zip(prof, prof[1:]))

    def test_validators_pass(self):
        vm = gen_winding(2, levels=4, sectors=8)
        assert vm.validate() == []
        assert vm.source.validate() == []
        assert vm.target.validate() == []


class TestCycleCover:
    def test_m1_is_identity(self):
        vm = gen_cycle_cover(6, 1)
        assert max_multiplicity(vm) == 1
        assert np.array_equal(vm.f, np.arange(6))

    def test_m2_unbranched_bld_one(self):
        vm = gen_cycle_cover(6, 2)
        assert branch_set(vm) == frozenset()
        assert all(len(vm.fiber(y)) == 2 for y in range(6))
        assert bld_verify(vm).constant == pytest.approx(1.0)

    def test_validators_pass(self):
        assert gen_cycle_cover(7, 3).validate() == []


class TestPullbackSpaceGenerator:
    def test_identity_isometric_copy(self):
        sp = gen_cycle(6)
        pb = gen_pullback_space(identity_map(sp))
        assert np.allclose(pb.dist, sp.dist)

    def test_w2_projection_is_1bdd(self):
        vm = gen_winding(2, levels=3, sectors=8)
        fact = factorize(vm, metric="exact", cap=128)
        cert = verify_projection(fact)
        assert cert.passed

    def test_cycle_cover_pullback_locally_isometric(self):
        vm = gen_cycle_cover(6, 2)
        pb = gen_pullback_space(vm)
        lift = identity_map(pb)
        # dilatation profile of the identity on the pullback space: the lift
        # of a local isometry stays a local isometry at small scales
        fact = factorize(vm, metric="exact", cap=32)
        for x in range(pb.n):
            prof = dilatation_profile(fact.lift, x)
            assert prof.h_sup == pytest.approx(1.0)


class TestGrid:
    def test_mass_is_total_area(self):
        g = gen_grid(4, 6, sx=0.5, sy=2.0)
        assert g.total_mass() == pytest.approx(4 * 6 * 0.5 * 2.0)

    def test_validators_pass(self):
        assert gen_grid(3, 3).validate() == []
