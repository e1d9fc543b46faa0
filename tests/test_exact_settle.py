"""The exact pullback solver's settle step against the per-pair reference
loop: ``pullback_metric_exact``, and through it ``factorize`` and
``normalize_for_embedding``, must be bitwise equal to ``exact_reference``."""
from __future__ import annotations

import functools

import numpy as np
import pytest

from conftest import exact_reference, random_map
from qrgraph._tol import TOL
from qrgraph.covering import VertexMap
from qrgraph.embedding import normalize_for_embedding
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.pullback import (
    _target_pair_sweeps,
    factorize,
    pullback_metric_exact,
    zero_distance_pairs,
)
from qrgraph.spaces import Space


def _snowflake_cycle(n: int) -> VertexMap:
    """Identity on the n-cycle under the square root of its path metric: a
    non-geodesic target, so many pairs stay open after the sweep."""
    cyc = gen_cycle(n)
    sq = Space.build([(v, float(m)) for v, m in zip(cyc.ids, cyc.mass)],
                     [(cyc.ids[i], cyc.ids[j], ln) for i, j, ln in cyc.edges],
                     np.sqrt(cyc.dist))
    return identity_map(sq)


def _random(n: int, n_tgt: int, seed: int) -> VertexMap:
    return random_map(np.random.default_rng(seed), n, n_tgt)


MAPS = {
    "winding_2_4_8": lambda: gen_winding(2, 4, 8),
    "cycle_cover_16_2": lambda: gen_cycle_cover(16, 2),
    "snowflake_cycle_12": lambda: _snowflake_cycle(12),
    **{f"random_{n}_{seed}": functools.partial(_random, n, n_tgt, seed)
       for n, n_tgt in ((12, 3), (30, 7), (60, 10)) for seed in (7, 9001)},
}
SLOW_MAPS = {
    "winding_3_6_8": lambda: gen_winding(3, 6, 8),
    **{f"random_{n}_{seed}": functools.partial(_random, n, n_tgt, seed)
       for n, n_tgt in ((90, 22), (150, 30)) for seed in (7, 9001)},
}


def check(make) -> None:
    vm = make()
    ref = exact_reference(vm)
    assert pullback_metric_exact(vm).tobytes() == ref.tobytes()
    # path-metric targets are already bounded-turning, so the normalized
    # source metric is the exact pullback matrix of vm itself
    if vm.target.is_path_metric:
        assert normalize_for_embedding(vm).source.dist.tobytes() == ref.tobytes()
    if not zero_distance_pairs(vm):
        assert factorize(vm).pullback_space.dist.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(MAPS))
def test_matches_reference(name):
    check(MAPS[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_MAPS))
def test_matches_reference_at_scale(name):
    check(SLOW_MAPS[name])


def test_maps_exercise_every_kind_of_pair():
    # zero pairs, pairs settled at their witness, and open pairs all occur
    kinds = np.zeros(3, dtype=int)
    for make in MAPS.values():
        lower, achieved = _target_pair_sweeps(make(), witness=True)
        upper = np.triu(np.ones_like(lower, dtype=bool), 1)
        zero = upper & (lower <= TOL)
        open_ = upper & ~zero & (achieved > lower + TOL)
        kinds += [zero.sum(), (upper & ~zero & ~open_).sum(), open_.sum()]
    assert np.all(kinds > 0), kinds
