"""The pullback battery computes each search and each curve sample once.

The exact solver answers the probe of an open pair (i, j) at a cap by bit j
of one search from i, run once per (i, f(j), cap): the search starts from
K0 = B(f i, cap) ∩ B(f j, cap), so a key without f(j) would read a reached
set grown from another pair's K0.  The curve kernels read each sample's
size groups, made once, and every sample of a source space starts with the
same simple paths, enumerated once; ``verify_projection`` reads them too,
since the pullback space has the source's graph."""
from __future__ import annotations

import functools

import numpy as np
import pytest

import conftest
from conftest import exact_reference, random_map
from test_fibre_bracket import _explicit_target, _near_tie, _near_tie_fixed
from qrgraph import pullback, spaces
from qrgraph.dilatation import bdd_verify, bld_verify
from qrgraph.generators import gen_winding
from qrgraph.pullback import bld_bdd_transfer_check, factorize, pullback_metric_exact, verify_projection

# asymmetric and diagonal explicit targets, and near ties: maps on which a
# memo keyed by (source, cap) alone reads the wrong reached set
MEMO_MAPS = {
    **{f"{kind}_{n}_{seed}": functools.partial(_explicit_target, n, seed, kind == "diagonal")
       for kind in ("asymmetric", "diagonal") for n, seed in ((40, 1), (40, 2), (60, 1))},
    **{f"near_tie_{seed}": functools.partial(_near_tie, seed) for seed in range(6)},
    "near_tie_fixed": _near_tie_fixed,
}


@pytest.mark.parametrize("name", sorted(MEMO_MAPS))
def test_exact_equals_the_per_pair_reference_where_the_memo_key_matters(name):
    vm = MEMO_MAPS[name]()
    assert pullback_metric_exact(vm).tobytes() == exact_reference(vm).tobytes()


@pytest.mark.parametrize("seed", [7, 9001])
def test_one_search_per_source_target_vertex_and_cap(seed, monkeypatch):
    vm = random_map(np.random.default_rng(seed), 60, 10)
    probes, searches = [], []
    per_pair, search = conftest._reachable_within, pullback._reached_within

    def probing(vm, i, j, cap, nbhd):
        probes.append((i, int(vm.f[j]), cap))
        return per_pair(vm, i, j, cap, nbhd)

    def searching(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(conftest, "_reachable_within", probing)
    monkeypatch.setattr(pullback, "_reached_within", searching)
    # the reference binary-searches the same caps, one per-pair search a probe
    assert pullback_metric_exact(vm).tobytes() == exact_reference(vm).tobytes()
    assert len(searches) == len(set(probes)) < len(probes)


def test_the_battery_groups_each_sample_once_and_enumerates_its_paths_once(monkeypatch):
    vm = gen_winding(2, 4, 8)
    grouped = []
    real = spaces._size_groups

    def grouping(sets):
        grouped.append(sets)
        return real(sets)

    monkeypatch.setattr(spaces, "_size_groups", grouping)
    fact = factorize(vm)
    certs = (verify_projection(fact), bld_bdd_transfer_check(fact, seed=1),
             bld_verify(vm, seed=1), bdd_verify(vm, seed=1))
    assert all(c.passed for c in certs[:2])
    samples = vm.source._samples
    # the simple paths of verify_projection, the transfer sample and the BLD/BDD sample
    assert len(samples) == 3
    assert sorted(map(id, grouped)) == sorted(map(id, samples.values()))
    assert not fact.pullback_space._samples
    simple = pullback._simple_paths(vm.source, 4)
    assert len(samples) == 3 and certs[0].details["paths_checked"] == len(simple)
    for sample in samples.values():
        assert all(a is b for a, b in zip(sample, simple))
