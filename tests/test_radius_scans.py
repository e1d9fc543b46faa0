"""lq_verify, the H shell rows and BqsGauge against the per-radius loops they
replaced: one sorted scan per centre must give every radius bitwise as
``conftest.lq_reference`` and ``conftest.shell_rows_reference`` do."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from conftest import (
    boundary_rows_reference,
    lq_reference,
    random_map,
    shell_rows_reference,
    u_component_reference,
)
from qrgraph._tol import TOL, le
from qrgraph.covering import VertexMap
from qrgraph.dilatation import (
    BqsGauge,
    _local_profiles,
    bqs_gauge,
    dilatation_profile,
    lq_verify,
)
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.spaces import Space

GENERATED = {
    "winding-2-4-8": functools.cache(lambda: gen_winding(2, 4, 8)),
    "winding-3-6-8": functools.cache(lambda: gen_winding(3, 6, 8)),
    "winding-2-8-16": functools.cache(lambda: gen_winding(2, 8, 16)),
    "cycle-cover-16-2": functools.cache(lambda: gen_cycle_cover(16, 2)),
}
RANDOM_SEEDS = range(100)
NEAR_TIE_SEEDS = range(20)


@functools.cache  # each map serves both tests
def _random_map(seed: int) -> VertexMap:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 61))
    return random_map(rng, n, int(rng.integers(3, n // 2)))


@functools.cache
def _near_tie_map(seed: int) -> VertexMap:
    """A random map with every edge length a half-integer moved by less than
    TOL, so that many distances lie within TOL of another one without being
    equal to it: the tolerance edge of every shell, image and boundary."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(12, 31))
    vm = random_map(rng, n, int(rng.integers(3, n // 2)))

    def jittered(space: Space) -> Space:
        lens = np.ceil(space._lens * 2.0) / 2.0 + rng.choice([-0.4, 0.0, 0.3, 0.45], space._lens.size) * TOL
        return Space.build(zip(space.ids, space.mass.tolist()),
                           [(space.ids[i], space.ids[j], float(ln))
                            for (i, j, _ln), ln in zip(space.edges, lens)], "path")

    return VertexMap(source=jittered(vm.source), target=jittered(vm.target), f=vm.f.copy())


def _maps():
    return ([pytest.param(make, id=name) for name, make in GENERATED.items()]
            + [pytest.param(lambda seed=seed: _random_map(seed), id=f"random-{seed}")
               for seed in RANDOM_SEEDS]
            + [pytest.param(lambda seed=seed: _near_tie_map(seed), id=f"near-tie-{seed}")
               for seed in NEAR_TIE_SEEDS])


def _check_rows(vm: VertexMap, x: int, prof, others) -> None:
    others = np.array(sorted(set(others) - {x}), dtype=int)
    rows = shell_rows_reference(vm, x, others) if others.size else []
    assert list(prof.rows) == rows
    assert ("empty shell" in prof.flags) == (not rows)
    hs = [h for *_rest, h in rows]
    assert (prof.h_sup, prof.h_inf) == ((max(hs), min(hs)) if hs else (math.inf, math.inf))


@pytest.mark.parametrize("make", _maps())
def test_lq_constant_and_witness_equal_the_per_radius_loop(make):
    vm = make()
    cert = lq_verify(vm)
    assert (cert.constant, cert.witness) == lq_reference(vm)


@pytest.mark.parametrize("make", _maps())
def test_shell_rows_equal_the_per_radius_loop(make):
    vm = make()
    rng = np.random.default_rng(vm.source.n)
    for x in range(0, vm.source.n, max(1, vm.source.n // 3)):
        for cap in (None, 0.5):
            prof = dilatation_profile(vm, x, radius_cap=cap)
            _check_rows(vm, x, prof, u_component_reference(vm, x, prof.cap))
        restrict = rng.choice(vm.source.n, size=vm.source.n // 2, replace=False).tolist()
        _check_rows(vm, x, dilatation_profile(vm, x, restrict=restrict), restrict)


@pytest.mark.parametrize("seed", NEAR_TIE_SEEDS)
def test_boundary_rows_equal_the_reference_on_near_ties(seed):
    vm = _near_tie_map(seed)
    # the whole-map path of ``verify --property inverse-qr``: one sweep per fibre
    for x, prof in enumerate(_local_profiles(vm, range(vm.source.n), None, inverse=True)):
        radii = [s for s in vm.target.ball_radii(int(vm.f[x])) if le(s, prof.cap)]
        assert list(prof.rows) == [row for row in boundary_rows_reference(vm, x, radii) if row]


@pytest.mark.slow
def test_lq_on_the_769_vertex_winding_equals_the_per_radius_loop():
    vm = gen_winding(2, 16, 24)
    cert = lq_verify(vm)
    assert (cert.constant, cert.witness) == lq_reference(vm)


def _gauge_reference(gauge: BqsGauge, t: float) -> float:
    """The last value whose support point is at most t + TOL, scanning up."""
    out = 0.0
    for s, v in zip(gauge.support, gauge.values):
        if s <= t + TOL:
            out = v
        else:
            break
    return out


@pytest.mark.parametrize("gauge", [
    BqsGauge(support=(0.5, 1.0, 2.0), values=(1.0, 1.5, 3.0), seed=0),
    BqsGauge(support=(0.25 + TOL, 1.0), values=(1.0, 2.0), seed=0),  # 0.25 reads 1.0
    bqs_gauge(gen_winding(2, 4, 8), seed=1, budget=20),
    BqsGauge(support=(), values=(), seed=0),
], ids=["hand-made", "tie-at-tol", "winding-2-4-8", "empty"])
def test_gauge_reads_the_last_support_point_within_tol(gauge):
    for s, v in zip(gauge.support, gauge.values):
        for t in (s - TOL / 2, s, s + TOL / 2):
            assert gauge(t) == _gauge_reference(gauge, t) == v
    for t in (0.25, -1.0, math.inf, -math.inf, math.nan):
        assert gauge(t) == _gauge_reference(gauge, t)
    assert gauge(gauge.support[0] - 1.0 if gauge.support else 0.0) == gauge(math.nan) == 0.0
