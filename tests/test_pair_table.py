"""The embedding's coordinate array and source-pair table against per-vertex
and per-pair Python references: phi rows, every distortion field of
``embed``, ``composition_bound_check`` with its witness, and ``color_net``."""
from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest

from conftest import (
    color_net_reference,
    composition_bound_reference,
    embed_pairs_reference,
    phi_reference,
    random_map,
)
from qrgraph import embedding
from qrgraph.certificates import Certificate
from qrgraph.embedding import (
    build_net,
    color_net,
    composition_bound_check,
    embed,
    normalize_for_embedding,
    phi,
    rk_radii,
)
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map

MAPS = {
    "winding_2_4_8": lambda: gen_winding(2, 4, 8),
    "winding_2_3_8": lambda: gen_winding(2, 3, 8),
    "winding_3_3_6": lambda: gen_winding(3, 3, 6),
    "cycle_cover_16_2": lambda: gen_cycle_cover(16, 2),
    "cycle_cover_10_3": lambda: gen_cycle_cover(10, 3),
    "identity_cycle_8": lambda: identity_map(gen_cycle(8)),
}
# random maps collapse edges, so their normalized maps have zero-distance
# pairs and fail the 1-BDD precondition; the scan is checked past the gate
RANDOM = {f"random_30_10_{seed}": seed for seed in range(6)}
SLOW_MAPS = {"winding_3_6_8": lambda: gen_winding(3, 6, 8)}


def _passing_gate(*_args, **_kwargs) -> Certificate:
    return Certificate("bdd", True, constant=1.0)


@functools.cache
def _embedded(name: str):
    if name in RANDOM:
        vm = random_map(np.random.default_rng(RANDOM[name]), 30, 10)
        with mock.patch.object(embedding, "bdd_verify", _passing_gate):
            return embed(vm)
    return embed({**MAPS, **SLOW_MAPS}[name]())


def _normalized(name: str):
    res = _embedded(name)
    if res.plan is not None:
        return res.plan.vm
    return normalize_for_embedding({**MAPS, **SLOW_MAPS}[name]())


def check_embed(name: str) -> None:
    res = _embedded(name)
    vm = _normalized(name)
    src = vm.source
    if res.plan is None:
        phis = [np.zeros(0)] * src.n
    else:
        phis = [phi_reference(res.plan, x) for x in range(src.n)]
        for x in range(src.n):
            assert phi(res.plan, x).tobytes() == phis[x].tobytes(), x
    for x, v in enumerate(src.ids):
        assert res.coords[v].shape == phis[x].shape
        assert res.coords[v].tobytes() == phis[x].tobytes(), v
    want = embed_pairs_reference(vm, phis)
    got = {key: getattr(res, key) for key in want}
    assert got == want
    for key in ("lower", "upper", "phi_lipschitz", "fiber_lower"):
        assert type(got[key]) is float
    assert all(type(r["twelve_rule"]) is bool for r in res.fiber_report)


def check_composition(name: str) -> None:
    res = _embedded(name)
    if res.plan is None:
        assert composition_bound_check(res).passed
        return
    for eps, lip in ((None, None), (10.0, 0.01)):
        cert = composition_bound_check(res, eps=eps, lip=lip)
        ok, bound, witness = composition_bound_reference(res, eps=eps, lip=lip)
        assert (cert.passed, cert.constant, cert.witness) == (ok, bound, witness)
        assert type(cert.passed) is bool


def check_colors(name: str) -> None:
    res = _embedded(name)
    vm = _normalized(name)
    for k in range(1, max(2, res.plan.n_mult if res.plan else 1) + 1):
        rk, _grids = rk_radii(vm, k)
        net = build_net(vm, k, rk)
        assert color_net(vm, k) == color_net_reference(vm, k, net, rk)
        # sparser nets keep some balls apart; a reversed net lists the
        # points against the greedy order
        for sub in (net[::2], net[::3], net[::-1]):
            assert color_net(vm, k, sub, rk) == color_net_reference(vm, k, sub, rk)


CHECKS = {"embed": check_embed, "composition": check_composition, "colors": check_colors}


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", sorted(MAPS) + sorted(RANDOM))
def test_matches_reference(name, check):
    CHECKS[check](name)


@pytest.mark.slow
@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("name", sorted(SLOW_MAPS))
def test_matches_reference_at_scale(name, check):
    CHECKS[check](name)


def test_failing_composition_bound_names_last_failing_pair():
    # eps = 10 with lip = 0.01 predicts a lower distortion of about 0.9,
    # far above what the winding map reaches
    res = _embedded("winding_2_4_8")
    cert = composition_bound_check(res, eps=10.0, lip=0.01)
    ok, _bound, witness = composition_bound_reference(res, eps=10.0, lip=0.01)
    assert not cert.passed and not ok
    assert cert.witness == witness is not None


def test_random_maps_have_zero_distance_pairs_and_several_levels():
    # the cases above exercise the d <= TOL filter and more than one level
    for name in RANDOM:
        vm = _normalized(name)
        off = vm.source.dist[np.triu_indices(vm.source.n, 1)]
        assert np.any(off <= 1e-9), name
        assert _embedded(name).plan.n_mult > 2, name
