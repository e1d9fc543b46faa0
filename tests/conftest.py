from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from qrgraph._tol import TOL
from qrgraph.covering import VertexMap
from qrgraph.dilatation import _connected_sample
from qrgraph.generators import (
    gen_cycle,
    gen_cycle_cover,
    gen_grid,
    gen_polar_grid,
    gen_winding,
    identity_map,
)
from qrgraph.pullback import enumerate_paths
from qrgraph.spaces import Space


def random_connected_space(rng: np.random.Generator, n: int, extra_edges: int = 2,
                           unit_lengths: bool = False) -> Space:
    """Random tree plus a few chords; random positive lengths and masses."""
    verts = [(f"v{i:02d}", float(rng.uniform(0.2, 2.0))) for i in range(n)]
    edges: list[tuple[str, str, float]] = []
    seen = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        ln = 1.0 if unit_lengths else float(rng.uniform(0.3, 2.0))
        edges.append((f"v{i:02d}", f"v{j:02d}", ln))
        seen.add((j, i))
    for _ in range(extra_edges):
        i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
        if i != j and (i, j) not in seen:
            seen.add((i, j))
            ln = 1.0 if unit_lengths else float(rng.uniform(0.3, 2.0))
            edges.append((f"v{i:02d}", f"v{j:02d}", ln))
    return Space.build(verts, edges, "path")


def random_map(rng: np.random.Generator, n_src: int, n_tgt: int) -> VertexMap:
    """Random surjective edge-compatible map: a random source graph quotiented
    onto n_tgt labels; the target is the induced image graph."""
    src = random_connected_space(rng, n_src, extra_edges=int(rng.integers(1, 4)))
    labels = np.concatenate([
        np.arange(n_tgt),
        rng.integers(0, n_tgt, size=n_src - n_tgt),
    ])
    rng.shuffle(labels)
    t_edges: dict[tuple[int, int], float] = {}
    for i, j, _ln in src.edges:
        a, b = int(labels[i]), int(labels[j])
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in t_edges:
            t_edges[key] = float(rng.uniform(0.3, 2.0))
    t_verts = [(f"y{t:02d}", float(rng.uniform(0.2, 2.0))) for t in range(n_tgt)]
    tgt = Space.build(t_verts, [(f"y{a:02d}", f"y{b:02d}", ln) for (a, b), ln in sorted(t_edges.items())], "path")
    assignment = {src.ids[i]: f"y{int(labels[i]):02d}" for i in range(n_src)}
    return VertexMap.build(src, tgt, assignment)


def minimax_path_reference(space: Space, key: np.ndarray, i: int, j: int) -> float:
    """min over graph paths i -> j of the largest key on the path, by a
    Dijkstra-style search with max-relaxation: the per-pair heap search the
    library used before its threshold sweep, kept as a reference."""
    best = np.full(space.n, np.inf)
    best[i] = key[i]
    heap: list[tuple[float, int]] = [(float(key[i]), i)]
    while heap:
        val, v = heapq.heappop(heap)
        if val > best[v]:
            continue
        if v == j:
            return float(val)
        for w, _e in space.adj[v]:
            cand = max(val, float(key[w]))
            if cand < best[w]:
                best[w] = cand
                heapq.heappush(heap, (cand, w))
    raise AssertionError("disconnected")


def bracket_lower_reference(vm: VertexMap) -> np.ndarray:
    """The bracket's lower matrix by one reference search per source pair."""
    n = vm.source.n
    dY = vm.target.dist
    lower = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            key = np.maximum(dY[vm.f, int(vm.f[i])], dY[vm.f, int(vm.f[j])])
            lower[i, j] = lower[j, i] = minimax_path_reference(vm.source, key, i, j)
    return lower


def diameter_reference(space: Space, members) -> float:
    """Diameter of one index collection from its ``np.ix_`` submatrix: the
    per-set read the library made before its batched diameter kernel."""
    idx = [int(v) for v in members]
    return float(space.dist[np.ix_(idx, idx)].max())


def bdd_worst_reference(vm: VertexMap, paths) -> tuple[float, tuple[int, ...] | None]:
    """Worst BDD distortion over the paths and the path attaining it, with
    two reference diameters per path (source set and image set)."""
    worst, witness = 1.0, None
    for path in paths:
        a = diameter_reference(vm.source, frozenset(path))
        b = diameter_reference(vm.target, frozenset(int(vm.f[v]) for v in path))
        if a <= TOL or b <= TOL:
            return math.inf, path
        r = max(b / a, a / b)
        if r > worst:
            worst, witness = r, path
    return worst, witness


def projection_bdd_reference(fact, path_budget: int = 4):
    """Part (iii) of ``verify_projection`` path by path: whether the 1-BDD
    identity holds on every enumerated path, the first failing path as a
    witness, and the worst deviation (exact metric only, else 0)."""
    pi, pb = fact.projection, fact.pullback_space
    exact = fact.metric_choice == "exact"
    ok, witness, worst = True, None, 0.0
    for path in enumerate_paths(pb, path_budget):
        da = diameter_reference(pb, frozenset(path))
        di = diameter_reference(pi.target, frozenset(int(pi.f[v]) for v in path))
        if exact:
            bad = abs(da - di) > TOL
            worst = max(worst, abs(da - di))
        else:
            bad = not (da <= di * 2.0 + TOL and di <= da + TOL)
        if bad:
            ok = False
            if witness is None:
                witness = ("bdd" if exact else "bdd_bracket", [pb.ids[v] for v in path])
    return ok, witness, worst


def bqs_pairs_reference(vm: VertexMap, seed: int = 0, budget: int = 60,
                        max_pairs: int = 4000) -> list[tuple[float, float]]:
    """The BQS gauge's (support, value) steps with four reference diameters
    per intersecting continuum pair."""
    src = vm.source
    sample = _connected_sample(src, seed, budget)
    pts = []
    for a in range(len(sample)):
        for b in range(len(sample)):
            e_set, f_set = sample[a], sample[b]
            if a == b or not e_set & f_set:
                continue
            de, df = diameter_reference(src, e_set), diameter_reference(src, f_set)
            if de <= TOL or df <= TOL:
                continue
            img_e = diameter_reference(vm.target, {int(vm.f[v]) for v in e_set})
            img_f = diameter_reference(vm.target, {int(vm.f[v]) for v in f_set})
            if img_f <= TOL:
                continue
            pts.append((de / df, img_e / img_f))
            if len(pts) >= max_pairs:
                break
        if len(pts) >= max_pairs:
            break
    steps: list[list[float]] = []
    running = 0.0
    for t, ratio in sorted(pts):
        running = max(running, ratio)
        if steps and abs(t - steps[-1][0]) <= TOL:
            steps[-1][1] = running
        else:
            steps.append([t, running])
    return [(t, v) for t, v in steps]


def path_image_diameter_oracle(vm: VertexMap, i: int, j: int) -> float:
    """Exhaustive enumeration of simple paths: min over paths of the image
    diameter.  Independent oracle for the exact pullback metric."""
    best = math.inf
    src = vm.source
    dY = vm.target.dist

    def diam(img: set[int]) -> float:
        pts = sorted(img)
        return max(dY[a, b] for a in pts for b in pts)

    stack = [((i,), {int(vm.f[i])})]
    while stack:
        path, img = stack.pop()
        if path[-1] == j:
            best = min(best, diam(img))
            continue
        for w, _e in src.adj[path[-1]]:
            if w not in path:
                stack.append((path + (w,), img | {int(vm.f[w])}))
    return best


@pytest.fixture(scope="session")
def corpus_maps():
    """The shared map corpus: identities, covers, windings, a stretch."""
    spaces = {
        "cycle8": gen_cycle(8),
        "grid3": gen_grid(3, 3),
        "polar": gen_polar_grid(4, 8, 1.0, math.e),
    }
    stretch_src = Space.build(
        [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)],
        "path",
    )
    stretch_tgt = Space.build(
        [("A", 1.0), ("B", 1.0), ("C", 1.0), ("D", 1.0)],
        [("A", "B", 3.0), ("B", "C", 1.0), ("C", "D", 1.0), ("D", "A", 1.0)],
        "path",
    )
    stretch = VertexMap.build(stretch_src, stretch_tgt,
                              {"a": "A", "b": "B", "c": "C", "d": "D"})
    maps = {
        "id_cycle8": identity_map(spaces["cycle8"]),
        "id_grid3": identity_map(spaces["grid3"]),
        "id_polar": identity_map(spaces["polar"]),
        "cover_8_2": gen_cycle_cover(8, 2),
        "cover_5_3": gen_cycle_cover(5, 3),
        "cover_16_2": gen_cycle_cover(16, 2),
        "w2": gen_winding(2, levels=4, sectors=8),
        "w3": gen_winding(3, levels=3, sectors=8),
        "stretch": stretch,
    }
    return maps


@pytest.fixture(scope="session")
def w2_coarse():
    return gen_winding(2, levels=4, sectors=8)
