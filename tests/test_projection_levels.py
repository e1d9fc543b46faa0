"""The projection pi of a factorization f = pi ∘ g has f's source graph, map
and target, so its level rows are f's, bitwise: one set of fibre sweeps can
serve both the bracket and ``verify_projection``."""
from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from qrgraph.covering import VertexMap, _u_levels
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.pullback import factorize, zero_distance_pairs
from qrgraph.spaces import space_from_json


def _corpus_maps(seed: int, count: int) -> list[VertexMap]:
    """The first ``count`` maps of the benchmark's seeded ``corpus`` stream."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        rec = inputs.corpus_map_records(rng)
        maps.append(VertexMap.build(space_from_json(rec["source"]), space_from_json(rec["target"]),
                                    rec["assignment"]))
    return maps


def _discrete_maps() -> dict[str, VertexMap]:
    maps = {"winding_2_4_8": gen_winding(2, 4, 8), "winding_3_6_8": gen_winding(3, 6, 8),
            "cover_16_2": gen_cycle_cover(16, 2)}
    maps.update((f"corpus_{k}", vm) for k, vm in enumerate(_corpus_maps(1, 300))
                if not zero_distance_pairs(vm))
    return maps


MAPS = _discrete_maps()


def test_corpus_holds_discrete_maps():
    assert len(MAPS) - 3 == 23


@pytest.mark.parametrize("metric", ["exact", "lower"])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_projection_level_rows_are_the_maps(name, metric):
    fact = factorize(MAPS[name], metric=metric)
    every = range(fact.vm.source.n)
    got, want = _u_levels(fact.projection, every), _u_levels(fact.vm, every)
    assert got.tobytes() == want.tobytes()
