"""Metamorphic relations: results that must not move, or must move by a known
factor, when the input is rescaled or its records are reordered.

- The bounded-turning constant is a ratio of distances, so scaling the
  explicit metric and every edge length by a power of two leaves it bitwise
  unchanged, and so does any order of the vertex records.
- Scaling every edge length by c scales each admissible density by 1/c and
  leaves the edge measures alone, so Mod_p scales by c^(-p).
"""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from conftest import random_connected_space
from qrgraph.generators import gen_grid, gen_polar_grid
from qrgraph.modulus import CurveFamily, modulus
from qrgraph.spaces import Space, bounded_turning_constant, path_metric


def _rebuilt(space: Space, dist: np.ndarray | str, c: float = 1.0, order=None) -> Space:
    """The graph of ``space`` with ``dist`` (or "path"), every length times c,
    and its vertex records in ``order``."""
    order = np.arange(space.n) if order is None else np.asarray(order)
    verts = [(space.ids[k], float(space.mass[k])) for k in order]
    edges = [(space.ids[i], space.ids[j], c * ln) for i, j, ln in space.edges]
    if isinstance(dist, str):
        return Space.build(verts, edges, dist)
    return Space.build(verts, edges, c * dist[np.ix_(order, order)])


def _explicit_spaces(seed: int, count: int):
    """(graph, explicit metric) pairs of three kinds: random planar points,
    clustered points (a pseudometric with zero distances), and the path
    metric of a denser graph with half-integer lengths (many ties)."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(4, 13))
        sp = random_connected_space(rng, n, extra_edges=int(rng.integers(0, 4)))
        kind = t % 3
        if kind == 0:
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
        elif kind == 1:
            centres = rng.uniform(0.0, 1.0, size=(max(2, n // 3), 2))
            pts = centres[rng.integers(0, len(centres), size=n)]
        if kind < 2:
            yield sp, np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            continue
        dense = random_connected_space(rng, n, extra_edges=n)
        halves = Space.build([(v, 1.0) for v in dense.ids],
                             [(dense.ids[i], dense.ids[j], float(rng.integers(1, 5)) / 2.0)
                              for i, j, _ln in dense.edges], "path")
        yield sp, path_metric(halves)


def _hex(pair: tuple[float, float]) -> tuple[str, str]:
    return tuple(float(x).hex() for x in pair)


class TestBoundedTurningRelations:
    CASES = list(_explicit_spaces(2028, 60))

    def test_invariant_under_power_of_two_scaling(self):
        moved = []
        for k, (sp, dist) in enumerate(self.CASES):
            base = _hex(bounded_turning_constant(_rebuilt(sp, dist)))
            moved += [(k, c) for c in (2.0, 0.5, 0.25)
                      if _hex(bounded_turning_constant(_rebuilt(sp, dist, c=c))) != base]
        assert moved == []

    def test_invariant_under_vertex_record_order(self):
        rng = np.random.default_rng(2029)
        moved = []
        for k, (sp, dist) in enumerate(self.CASES):
            base = _hex(bounded_turning_constant(_rebuilt(sp, dist)))
            order = rng.permutation(sp.n)
            if _hex(bounded_turning_constant(_rebuilt(sp, dist, order=order))) != base:
                moved.append(k)
        assert moved == []

    def test_cases_exercise_the_bracket(self):
        # most cases are not path metrics, so the relation reads the bracket
        values = [bounded_turning_constant(_rebuilt(sp, dist))[0] for sp, dist in self.CASES]
        assert sum(v > 1.0 for v in values) >= len(values) // 2


def _ring(level: int, sectors: int) -> list[str]:
    return [f"r{level:03d}s{j:03d}" for j in range(sectors)]


def _column(i: int, rows) -> list[str]:
    return [f"g{i:03d}_{j:03d}" for j in rows]


# connecting families whose extremal curves are edge-disjoint: the radial
# paths of the annulus {1 < |z| < e} and the rows of the 6 x 6 grid; and a
# Loewner family, 4 vertices of the left column of the 10 x 10 grid against
# 4 of the right one, whose extremal density is not a sum of disjoint paths
FAMILIES = {
    "annulus_16": (lambda: gen_polar_grid(17, 16, 1.0, math.e), _ring(0, 16), _ring(16, 16)),
    "grid_6_6": (lambda: gen_grid(6, 6), _column(0, range(7)), _column(6, range(7))),
    "loewner_10": (lambda: gen_grid(10, 10), _column(0, range(4)), _column(10, range(4))),
}


@functools.cache
def _modulus(name: str, p: float, c: float = 1.0):
    """Mod_p of the family ``name`` with every edge length times c."""
    make, e_ids, f_ids = FAMILIES[name]
    return modulus(CurveFamily.connecting(_rebuilt(make(), "path", c=c), e_ids, f_ids), p=p)


class TestModulusScaling:
    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name", ["annulus_16", "grid_6_6"])
    def test_edge_disjoint_family_scales_by_c_to_the_minus_p(self, name, p, c):
        base, scaled = _modulus(name, p), _modulus(name, p, c)
        assert base.exact and scaled.exact
        assert scaled.value == pytest.approx(c ** -p * base.value, rel=1e-12, abs=0)

    @pytest.mark.slow
    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_loewner_family_scales_within_its_gaps(self, p, c):
        # each solve is only as good as its duality gap
        base, scaled = _modulus("loewner_10", p), _modulus("loewner_10", p, c)
        assert abs(scaled.value - c ** -p * base.value) <= scaled.gap + c ** -p * base.gap
