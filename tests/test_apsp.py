"""The all-pairs shortest-path fill: numpy Bellman-Ford up to the cutoff,
scipy's Dijkstra above it, and both bitwise equal to ``apsp_reference``."""
from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import apsp_reference

from qrgraph import spaces
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.spaces import ValidationError, _apsp, _geodesic, path_metric

CUTOFF = spaces._NUMPY_APSP_MAX_N


def _random_edges(rng: np.random.Generator, n: int, lengths=None, connected: bool = True):
    """Edges (i, j, length), i < j and sorted as ``Space.edges`` keeps them:
    a random tree plus up to n chords, or with ``connected`` False one tree
    on each half of the vertices and chords inside each half.  Lengths come
    from the given set, else uniform on [0.01, 3)."""
    half = n // 2 if not connected else n
    pairs = {(int(rng.integers(0, i)), i) for i in range(1, half)}
    pairs |= {(int(rng.integers(half, i)), i) for i in range(half + 1, n)}
    for _ in range(int(rng.integers(0, n + 1))):
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if a != b and (connected or (a < half) == (b < half)):
            pairs.add((a, b))
    if lengths is None:
        return [(a, b, float(rng.uniform(0.01, 3.0))) for a, b in sorted(pairs)]
    return [(a, b, float(lengths[int(rng.integers(0, len(lengths)))])) for a, b in sorted(pairs)]


def _same(n: int, edges) -> None:
    got, want = _apsp(n, edges), apsp_reference(n, edges)
    assert got.shape == want.shape == (n, n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [CUTOFF - 1, CUTOFF, CUTOFF + 1])
def test_equals_reference_around_the_cutoff(n):
    rng = np.random.default_rng(n)
    for lengths in (None, (1.0, 2.0, 0.5, 1.0 / 3.0)):
        for _ in range(3):
            _same(n, _random_edges(rng, n, lengths))


def test_numpy_kernel_equals_reference_above_the_cutoff(monkeypatch):
    # the cutoff picks the faster kernel, not the only correct one
    monkeypatch.setattr(spaces, "_NUMPY_APSP_MAX_N", 10**9)
    rng = np.random.default_rng(7)
    for n in (CUTOFF + 1, 160):
        _same(n, _random_edges(rng, n, (1.0, 2.0, 0.5, 1.0 / 3.0)))


@pytest.mark.parametrize("seed", range(4))
def test_equals_reference_on_random_sizes(seed):
    rng = np.random.default_rng(40 + seed)
    for _ in range(12):
        n = int(rng.integers(2, CUTOFF + 1))
        _same(n, _random_edges(rng, n))


@pytest.mark.parametrize("lengths", [(1.0, 1e-17), (1e16, 1.0), (1e308, 1.0)],
                         ids=["tiny", "huge", "overflow"])
def test_equals_reference_where_lengths_vanish_or_overflow(lengths):
    # a sum that drops a length, or overflows to inf, must be the same float
    # in both kernels; the overflow must not warn (RuntimeWarning is an error
    # in this suite)
    rng = np.random.default_rng(11)
    for n in (3, 12, 40, CUTOFF):
        for _ in range(4):
            _same(n, _random_edges(rng, n, lengths))


def test_equals_reference_on_disconnected_graphs():
    rng = np.random.default_rng(5)
    for n in (2, 9, 64, CUTOFF):
        edges = _random_edges(rng, n, connected=False)
        d = _apsp(n, edges)
        assert np.isinf(d).any()
        _same(n, edges)
        with pytest.raises(ValidationError) as err:
            _geodesic(n, edges)
        assert err.value.findings == ("disconnected",)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_no_edges(n):
    d = _apsp(n, [])
    want = np.full((n, n), math.inf)
    np.fill_diagonal(want, 0.0)
    assert d.tobytes() == want.tobytes()
    _same(n, [])


def test_generated_spaces_equal_reference():
    # both sides of the cutoff: the winding maps' sources have 65, 145 and
    # 129 vertices, their targets 33, 49 and 65
    for vm in (gen_winding(2, 4, 8), gen_winding(3, 6, 8), gen_winding(2, 8, 16),
               gen_cycle_cover(16, 2)):
        for sp in (vm.source, vm.target):
            want = apsp_reference(sp.n, list(sp.edges))
            assert path_metric(sp).tobytes() == want.tobytes()
            assert sp.dist.tobytes() == want.tobytes()
