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
from qrgraph.pullback import (
    _reachable_within,
    _target_pair_sweeps,
    enumerate_paths,
)
from qrgraph.spaces import (
    Space,
    ValidationError,
    _components_idx,
    _diameters,
    _is_number,
    _threshold_sweeps,
)


def edge_index_reference(space: Space) -> dict[tuple[int, int], int]:
    """Every adjacent pair of ``space``, in both orders, to the index of the
    edge joining it, read off ``space.edges`` by a ``for`` loop."""
    index: dict[tuple[int, int], int] = {}
    for e, (i, j, _ln) in enumerate(space.edges):
        index[(i, j)] = index[(j, i)] = e
    return index


class _SearchConnected(Space):
    """A Space whose ``validate`` decides connectivity by the search from
    vertex 0 that ``Space._connected`` ran before it read the edge table."""

    def _connected(self) -> bool:
        return self.n > 0 and len(_components_idx(self, frozenset(range(self.n)))) == 1


def _build_reference(vertices, edges, dist) -> Space:
    """``Space.build`` by one check per edge: the loop the library ran
    before it checked the edges as arrays."""
    vlist = list(vertices)
    ids = tuple(v for v, _ in vlist)
    index = {v: k for k, v in enumerate(ids)}
    findings: list[str] = []
    if len(set(ids)) != len(ids):
        findings.append("duplicate vertex ids")
    mass = np.array([float(m) for _, m in vlist], dtype=float)
    finite = np.isfinite(mass)
    findings.extend(f"non-finite vertex mass at {ids[k]}" for k in np.nonzero(~finite)[0])
    if np.any(mass[finite] < 0):
        findings.append("negative vertex mass")
    elist: list[tuple[int, int, float]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for u, v, ln in edges:
        if u not in index or v not in index:
            findings.append(f"edge endpoint unknown: ({u},{v})")
            continue
        i, j = index[u], index[v]
        if i == j:
            findings.append(f"self-loop at {u}")
            continue
        key = (min(i, j), max(i, j))
        if key in seen_pairs:
            findings.append(f"duplicate edge ({u},{v})")
            continue
        seen_pairs.add(key)
        ln = float(ln)
        if not math.isfinite(ln):
            findings.append(f"non-finite edge length on ({u},{v})")
            continue
        if not ln > 0:
            findings.append(f"nonpositive edge length on ({u},{v})")
            continue
        elist.append((key[0], key[1], ln))
    if findings:
        raise ValidationError(findings)
    elist.sort()
    is_path = isinstance(dist, str) and dist == "path"
    sp = _SearchConnected(ids=ids, mass=mass, edges=tuple(elist),
                          _dist=None if is_path else np.array(dist, dtype=float))
    findings = sp.validate()
    if findings:
        raise ValidationError(findings)
    return sp


def space_from_json_reference(obj: dict) -> Space:
    """``space_from_json`` by one check per record and per edge: the reader
    the library used before it checked whole columns, kept as the reference
    for its Space and its findings."""
    fields = {"vertices", "edges", "dist"}
    if not isinstance(obj, dict):
        raise ValidationError(["space JSON must be an object"])
    unknown = set(obj) - fields
    if unknown:
        raise ValidationError([f"unknown fields: {sorted(unknown)}"])
    missing = fields - set(obj)
    if missing:
        raise ValidationError([f"missing fields: {sorted(missing)}"])
    findings: list[str] = []

    def records(key: str, what: str, fields: tuple[str, ...]) -> list[tuple]:
        if not isinstance(obj[key], list):
            findings.append(f"{key} must be a list of {what} records")
            return []
        out = []
        for rec in obj[key]:
            if not (isinstance(rec, dict) and set(rec) == set(fields)):
                findings.append(f"{what} record fields must be exactly {','.join(fields)}: {rec}")
            elif not all(isinstance(rec[k], str) for k in fields[:-1]):
                findings.append(f"{what} {','.join(fields[:-1])} must be strings: {rec}")
            elif not _is_number(rec[fields[-1]]):
                findings.append(f"{what} {fields[-1]} must be a number: {rec}")
            else:
                out.append(tuple(rec[k] for k in fields))
        return out

    verts = records("vertices", "vertex", ("id", "mass"))
    edges = records("edges", "edge", ("u", "v", "len"))
    dist = obj["dist"]
    if isinstance(dist, str):
        if dist != "path":
            findings.append(f'dist must be "path" or a matrix, got {dist!r}')
    elif not (isinstance(dist, list)
              and all(isinstance(row, list) and len(row) == len(dist)
                      and all(_is_number(x) for x in row) for row in dist)):
        findings.append('dist must be "path" or a square matrix of numbers')
    if findings:
        raise ValidationError(findings)
    if isinstance(dist, str):
        return _build_reference(verts, edges, "path")
    return _build_reference(verts, edges, np.array(dist, dtype=float))


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


def apsp_reference(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs shortest paths by scipy's compiled Dijkstra, then the least
    of the two directions of each pair: the kernel ``spaces._apsp`` used at
    every size before its numpy Bellman-Ford, kept as a reference."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    g = csr_matrix(([e[2] for e in edges] * 2, (rows, cols)), shape=(n, n))
    d = shortest_path(g, method="D", directed=False)
    return np.minimum(d, d.T)


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


def dijkstra_curve_reference(space: Space, cost: np.ndarray, e_set: frozenset[int],
                             f_set: frozenset[int], carrier: frozenset[int],
                             length: list[float], rank: list[int]):
    """Cheapest E -> F path within the carrier; returns (cost, vertex tuple)
    or None if disconnected.  The search is keyed by (cost, geometric length
    by ``length`` per edge, ``rank`` of the vertex id): the pure-Python heap
    search the modulus oracle used before its two compiled Dijkstra passes,
    kept as a reference."""
    cost = cost.tolist()
    best: dict[int, tuple[float, float]] = {}
    pred: dict[int, int] = {}
    heap: list[tuple[float, float, int, int]] = []
    for v in e_set & carrier:
        best[v] = (0.0, 0.0)
        heap.append((0.0, 0.0, rank[v], v))
    heapq.heapify(heap)
    unseen = (math.inf, math.inf)
    while heap:
        val, ln, _r, v = heapq.heappop(heap)
        if (val, ln) != best[v]:  # stale: v was reached by a smaller key since
            continue
        if v in f_set:
            path = [v]
            while path[-1] in pred:
                path.append(pred[path[-1]])
            return val, tuple(reversed(path))
        for w, e in space.adj[v]:
            if w not in carrier:
                continue
            c, l = val + cost[e], ln + length[e]
            bc, bl = best.get(w, unseen)
            if c < bc or c == bc and l < bl:
                best[w] = (c, l)
                pred[w] = v
                heapq.heappush(heap, (c, l, rank[w], w))
    return None


def reference_family_oracle(family, vm: VertexMap | None = None):
    """The connecting-family modulus oracle with ``dijkstra_curve_reference``
    as its search: pulled-back costs, ranks and the returned row exactly as
    the library built them around the heap search."""
    from qrgraph.modulus import _curve_row

    src = family.space
    tgt, f = (src, np.arange(src.n)) if vm is None else (vm.target, vm.f)
    pull_e = np.full(len(src.edges), -1, dtype=int)
    pull_len = np.zeros(len(src.edges))
    tgt_index = edge_index_reference(tgt)
    for e, (i, j, _ln) in enumerate(src.edges):
        fi, fj = int(f[i]), int(f[j])
        if fi != fj:
            te = tgt_index[(fi, fj)]
            pull_e[e] = te
            pull_len[e] = tgt.edge_length(te)
    e_set, f_set, carrier = family.connect
    length = [ln for _i, _j, ln in src.edges]
    rank = np.argsort(np.argsort(np.array(src.ids))).tolist()

    def search(rho: np.ndarray):
        cost = np.where(pull_e >= 0, rho[np.maximum(pull_e, 0)] * pull_len, 0.0)
        hit = dijkstra_curve_reference(src, cost, e_set, f_set, carrier, length, rank)
        if hit is None:
            return math.inf, None
        val, path = hit
        return val, _curve_row(tgt, path, f)

    return search


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


def _forest_path_diameters(vm: VertexMap, forest: list[tuple[int, int]],
                           left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Image diameter of the forest path from each vertex of ``left`` to each
    vertex of ``right``; the forest joins them all in one tree."""
    f = vm.f.tolist()
    nbrs: dict[int, list[int]] = {}
    for u, v in forest:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    root = int(left[0])
    parent, depth = {root: root}, {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in nbrs.get(v, ()):
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                stack.append(w)
    imgs = []
    for x in left.tolist():
        for y in right.tolist():
            u, v, img = x, y, {f[x], f[y]}
            while u != v:  # climb to the common ancestor
                if depth[u] >= depth[v]:
                    u = parent[u]
                    img.add(f[u])
                else:
                    v = parent[v]
                    img.add(f[v])
            imgs.append(img)
    return _diameters(vm.target, imgs).reshape(len(left), len(right))


def pair_sweep_reference(vm: VertexMap, witness: bool):
    """The bracket's lower matrix, by one threshold sweep per unordered pair
    (a, b) of occupied target vertices, a == b included.  With ``witness``,
    also the image diameter of each pair's path in the sweep's forest (a
    minimax path, so an upper bound on the exact value); else None.  The
    all-pairs loop the library used before it swept once per fibre."""
    n, f, dY = vm.source.n, vm.f, vm.target.dist
    occupied = np.unique(f).tolist()
    pairs = [(a, b) for k, a in enumerate(occupied) for b in occupied[k:]]
    fiber = {a: np.nonzero(f == a)[0] for a in occupied}
    jobs = ((np.maximum(dY[f, a], dY[f, b]), fiber[a], fiber[b]) for a, b in pairs)
    lower = np.zeros((n, n))
    achieved = np.zeros((n, n)) if witness else None
    for (a, b), (vals, forest) in zip(pairs, _threshold_sweeps(vm.source, jobs)):
        fa, fb = fiber[a], fiber[b]
        mats = [(lower, vals)]
        if witness:
            mats.append((achieved, _forest_path_diameters(vm, forest, fa, fb)))
        for mat, v in mats:
            mat[fa[:, None], fb] = v
            mat[fb[:, None], fa] = v.T
    return lower, achieved


def exact_reference(vm: VertexMap) -> np.ndarray:
    """The exact pullback matrix by one binary search per source pair: the
    per-pair loop the library used before it settled decided pairs in one
    array step, kept as a reference."""
    lower, achieved = _target_pair_sweeps(vm, witness=True)
    dY = vm.target.dist
    dvals = np.unique(dY)
    cache: dict[float, list[frozenset[int]]] = {}

    def nbhd_at(cap: float) -> list[frozenset[int]]:
        if cap not in cache:
            cache[cap] = [frozenset(int(t) for t in np.nonzero(row)[0]) for row in dY <= cap + TOL]
        return cache[cap]

    def reachable(i: int, j: int, cap: float) -> bool:
        if dY[int(vm.f[i]), int(vm.f[j])] > cap + TOL:
            return False
        return _reachable_within(vm, i, j, cap, nbhd_at(cap))

    def pair(i: int, j: int, lo: float, ach: float) -> float:
        if lo <= TOL:
            return 0.0
        if ach <= lo + TOL:
            return ach
        cands = [float(d) for d in dvals if lo - TOL <= d <= ach + TOL]
        lo_k, hi_k = 0, len(cands) - 1
        while lo_k < hi_k:
            mid = (lo_k + hi_k) // 2
            if reachable(i, j, cands[mid]):
                hi_k = mid
            else:
                lo_k = mid + 1
        return cands[lo_k]

    n = vm.source.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pair(i, j, float(lower[i, j]), float(achieved[i, j]))
    return out


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


def path_length_reference(space: Space, path, f=None) -> float:
    """Length of one vertex path, folded from the left by a ``for`` loop: edge
    lengths of ``space`` or, given a vertex map ``f`` into it, distances
    between consecutive images.  Not builtin ``sum()``, which compensates
    float sums from CPython 3.12 on."""
    total = 0.0
    index = edge_index_reference(space)
    for u, v in zip(path, path[1:]):
        total += (space.edge_length(index[(u, v)]) if f is None
                  else float(space.dist[f[u], f[v]]))
    return total


def bld_worst_reference(vm: VertexMap, paths) -> tuple[float, tuple[int, ...] | None]:
    """Worst BLD distortion over the paths and the path attaining it, with two
    reference lengths per path (source edges and image distances)."""
    worst, witness = 1.0, None
    for path in paths:
        a = path_length_reference(vm.source, path)
        b = path_length_reference(vm.target, path, vm.f)
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


def u_component_reference(vm: VertexMap, x: int, r: float) -> frozenset[int]:
    """U(x, f, r) by the chain the library used before its level rows: the
    open target ball, its preimage under f, and a graph search from x inside
    that preimage."""
    ball = np.flatnonzero(vm.target.dist[int(vm.f[x])] < r - TOL)
    pre = frozenset(np.flatnonzero(np.isin(vm.f, ball)).tolist())
    if x not in pre:
        raise ValueError("x outside its own ball")
    comp, stack = {x}, [x]
    while stack:
        for w, _e in vm.source.adj[stack.pop()]:
            if w in pre and w not in comp:
                comp.add(w)
                stack.append(w)
    return frozenset(comp)


def _image_count_max(vm: VertexMap, members) -> int:
    return int(np.bincount(vm.f[sorted(members)], minlength=vm.target.n).max())


def branch_set_reference(vm: VertexMap) -> frozenset[int]:
    """{x : i(x, f) > 1}, with one reference component per candidate radius."""
    out = set()
    for x in range(vm.source.n):
        radii = vm.target.ball_radii(int(vm.f[x]))
        index = (min(_image_count_max(vm, u_component_reference(vm, x, r)) for r in radii)
                 if radii else int(np.bincount(vm.f).max()))
        if index > 1:
            out.add(x)
    return frozenset(out)


def normal_radius_reference(vm: VertexMap, x: int) -> tuple[float, dict]:
    """The normal radius and its property record, by reference components
    at every candidate radius, checked set by set."""
    tgt = vm.target
    z = int(vm.f[x])
    fib = sorted(int(v) for v in np.flatnonzero(vm.f == z))
    sep = (min(float(vm.source.dist[a, b]) for a in fib for b in fib if a < b)
           if len(fib) > 1 else math.inf)
    radii = tgt.ball_radii(z)
    if not radii:
        return TOL, {"degenerate": True, "M_z": sep / 6.0}
    mult = np.bincount(vm.f, minlength=tgt.n)
    history: list[list[frozenset[int]]] = []
    rec: dict = {}
    for r in radii:
        ball = frozenset(np.flatnonzero(tgt.dist[z] < r - TOL).tolist())
        pre = frozenset(np.flatnonzero(np.isin(vm.f, sorted(ball))).tolist())
        sets = [u_component_reference(vm, xf, r) for xf in fib]
        images = [[int(vm.f[v]) for v in s] for s in sets]
        cur = {
            "p2": frozenset().union(*sets) == pre
            and all(a.isdisjoint(c) for i, a in enumerate(sets) for c in sets[i + 1:]),
            "p3": all(mult[y] == sum(im.count(y) for im in images) for y in ball),
            "p4": all(frozenset(im) == ball for im in images),
            "p8": all(u1 <= u2 or u1.isdisjoint(u2)
                      for earlier in history + [sets] for u1 in earlier for u2 in sets),
        }
        if not all(cur.values()):
            if not history:
                rec = cur
            break
        history.append(sets)
        rec = cur
        last_ball, last_images = ball, images
    if not history:
        return radii[0], {**rec, "degenerate": True, "M_z": sep / 6.0}
    p6 = all(len(im) == len(set(im)) for im in last_images)
    rec.update({"p1": True, "p5": all(mult[y] >= mult[z] for y in last_ball),
                "p6": p6, "p7": p6, "degenerate": False, "M_z": sep / 6.0})
    return radii[len(history) - 1], rec


def decompose_fibers_reference(vm: VertexMap, n: int) -> list[frozenset[int]]:
    """``decompose_fibers`` over the whole source: the injectivity
    neighbourhood of each anchor of D_n is the reference component at the
    largest candidate radius keeping f injective on its part in D_n; the
    sheets are then filled greedily in anchor order."""
    counts = np.bincount(vm.f, minlength=vm.target.n)
    d_n = [v for v in range(vm.source.n) if counts[vm.f[v]] == n]
    covers = []
    for x in d_n:
        best = frozenset([x])
        for r in vm.target.ball_radii(int(vm.f[x])):
            u = u_component_reference(vm, x, r) & frozenset(d_n)
            images = [int(vm.f[v]) for v in u]
            if len(images) != len(set(images)):
                break
            best = u
        covers.append(best)
    parts: list[set[int]] = [set() for _ in range(n)]
    for k in range(n):
        taken: set[int] = set()
        earlier = set().union(*parts[:k])
        for cov in covers:
            for v in sorted(cov):
                if v not in earlier and v not in parts[k] and int(vm.f[v]) not in taken:
                    parts[k].add(v)
                    taken.add(int(vm.f[v]))
    return [frozenset(p) for p in parts]


def boundary_rows_reference(vm: VertexMap, x: int, radii) -> list:
    """(s, L*, l*, H*) per radius from the boundary of the reference
    component, or None where that boundary is empty."""
    rows = []
    for s in radii:
        u = u_component_reference(vm, x, s)
        bd = [v for v in u if any(w not in u for w, _e in vm.source.adj[v])]
        if not bd:
            rows.append(None)
            continue
        dists = [float(vm.source.dist[x, v]) for v in bd]
        big, small = max(dists), min(dists)
        rows.append((float(s), big, small, big / small if small > 0 else math.inf))
    return rows


def shell_rows_reference(vm: VertexMap, x: int, others) -> list:
    """(r, L, l, H) per distinct distance r from x to the vertices ``others``,
    with L over the shell {d <= r} and l over {d >= r}: the per-radius loop
    ``dilatation._shell_profile`` ran before its sorted scan."""
    drow = vm.source.dist[x, others]
    irow = vm.target.dist[int(vm.f[x]), vm.f[others]]
    rows = []
    for r in (float(v) for v in np.unique(drow)):
        big_l = float(irow[drow <= r + TOL].max())
        small_l = float(irow[drow >= r - TOL].min())
        rows.append((r, big_l, small_l, big_l / small_l if small_l > 0 else math.inf))
    return rows


def lq_reference(vm: VertexMap) -> tuple[float, tuple[str, float] | None]:
    """The Lipschitz-quotient constant and its witness (x, r) by one image
    mask per centre and radius: the loop ``dilatation.lq_verify`` ran before
    its sorted scan."""
    src, tgt = vm.source, vm.target
    worst, witness = 1.0, None
    for x in range(src.n):
        drow, trow = src.dist[x], tgt.dist[int(vm.f[x])]
        for r in (float(v) for v in np.unique(drow) if v > TOL):
            img = np.zeros(tgt.n, dtype=bool)
            img[vm.f[drow <= r + TOL]] = True
            need_up = float(trow[img].max()) / r
            if img.all():
                need_lo = 1.0
            else:
                rho_star = float(trow[~img].min())
                need_lo = r / rho_star if rho_star > 0 else math.inf
            cand = max(need_up, need_lo)
            if cand > worst:
                worst, witness = cand, (src.ids[x], r)
    return worst, witness


def essential_rows_reference(vm: VertexMap, x: int, nu: np.ndarray, radii) -> list:
    """(r, f*nu(U) / nu(B)) per radius, from reference components."""
    rows = []
    for r in radii:
        u = sorted(u_component_reference(vm, x, r))
        ball = np.flatnonzero(vm.target.dist[int(vm.f[x])] < r - TOL)
        denom, num = float(nu[ball].sum()), float(nu[vm.f[u]].sum())
        rows.append((r, (math.inf if num > 0 else 0.0) if denom <= 0 else num / denom))
    return rows


def rk_component_count_reference(vm: VertexMap, y: int, d: float) -> int:
    """Components of f^-1(closed B(y, d)), one graph search per component."""
    left = set(np.flatnonzero(vm.target.dist[y, vm.f] <= d + TOL).tolist())
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for w, _e in vm.source.adj[stack.pop()]:
                if w in left:
                    left.discard(w)
                    stack.append(w)
    return count


def inclusion_reference(fact) -> tuple[bool, tuple | None, int]:
    """Part (ii) of ``verify_projection`` radius by radius with reference
    components and ball sets: whether B(z, r) ⊆ U(z, pi, r) ⊆ B(z, 2r)
    holds throughout (factor 1/2 on the left for a bracket metric), the first
    failing (z, r), and the number of checks."""
    pi, pb = fact.projection, fact.pullback_space
    lo = 1.0 if fact.metric_choice == "exact" else 0.5
    ok, witness, checked = True, None, 0
    for z in range(pb.n):
        for r in sorted(set(pb.ball_radii(z)) | set(pi.target.ball_radii(int(pi.f[z])))):
            u = u_component_reference(pi, z, r)
            b_in = frozenset(np.flatnonzero(pb.dist[z] < lo * r - TOL).tolist())
            b_out = frozenset(np.flatnonzero(pb.dist[z] < 2.0 * r - TOL).tolist())
            checked += 1
            if not (b_in <= u <= b_out):
                ok = False
                witness = witness or ("inclusion", pb.ids[z], r)
    return ok, witness, checked


def color_net_reference(vm: VertexMap, k: int, net, rk) -> tuple[list[list[str]], int]:
    """Greedy coloring of the inflated balls {2B^k_y}, rebuilding both ball
    masks for every pair of net points."""
    tgt = vm.target
    idx = [tgt.i(y) for y in net]
    order = sorted(range(len(idx)), key=lambda a: (-rk[net[a]], net[a]))
    color: dict[int, int] = {}
    used = 0
    for a in order:
        taken = set()
        for b in order:
            if b == a or b not in color:
                continue
            ya, yb = idx[a], idx[b]
            ra, rb = 2.0 * rk[net[a]], 2.0 * rk[net[b]]
            if np.any((tgt.dist[ya] < ra - TOL) & (tgt.dist[yb] < rb - TOL)):
                taken.add(color[b])
        c = 0
        while c in taken:
            c += 1
        color[a] = c
        used = max(used, c + 1)
    classes: list[list[str]] = [[] for _ in range(used)]
    for a in range(len(idx)):
        classes[color[a]].append(net[a])
    return [sorted(c) for c in classes], used


def phi_reference(plan, x: int) -> np.ndarray:
    """phi(plan, x) one vertex at a time: the fiber and the complement of
    every inflated neighborhood are rebuilt for each x inside it."""
    vm = plan.vm
    src = vm.source
    out = np.zeros(plan.c_d * max(0, plan.n_mult - 1))
    for k in range(1, plan.n_mult):
        for j, cls in enumerate(plan.classes[k]):
            total = 0.0
            for y in cls:
                r_k = plan.rk[k][y]
                for v_set in plan.neighborhoods[k][y]:
                    if x not in v_set:
                        continue
                    label = plan.labels[k][y][src.ids[min(v_set & vm.fiber(y))]]
                    comp = [v for v in range(src.n) if v not in v_set]
                    d_out = min((float(src.dist[x, v]) for v in comp), default=math.inf)
                    total += label * min(d_out, r_k)
            out[(k - 1) * plan.c_d + j] = total
    return out


def embed_pairs_reference(vm: VertexMap, phis) -> dict:
    """The distortion scan of ``embed`` over source pairs in Python:
    injectivity, lower/upper distortion, phi-Lipschitz constant and the
    fiber report, from the normalized map and one phi row per vertex."""
    src = vm.source
    lower, upper = math.inf, 0.0
    injective = True
    phi_lip = 0.0
    fiber_lower = math.inf
    fiber_report: list[dict] = []
    for a in range(src.n):
        for b in range(a + 1, src.n):
            dn = float(src.dist[a, b])
            dy = vm.image_dist(a, b)
            dphi = float(np.max(np.abs(phis[a] - phis[b]))) if phis[a].size else 0.0
            dpsi = max(dy, dphi)
            if dn <= TOL:
                continue
            if dpsi <= TOL:
                injective = False
            lower = min(lower, dpsi / dn)
            upper = max(upper, dpsi / dn)
            phi_lip = max(phi_lip, dphi / dn)
            if dy <= TOL:
                fiber_lower = min(fiber_lower, dphi / dn)
                fiber_report.append({
                    "pair": [src.ids[a], src.ids[b]],
                    "distance": dn,
                    "phi_gap": dphi,
                    "twelve_rule": dn <= 12.0 * dphi + TOL,
                })
    return {
        "injective": injective,
        "lower": lower if math.isfinite(lower) else 1.0,
        "upper": upper,
        "fiber_report": fiber_report,
        "phi_lipschitz": phi_lip,
        "fiber_lower": fiber_lower if math.isfinite(fiber_lower) else 1.0,
    }


def composition_bound_reference(result, eps=None, lip=None) -> tuple[bool, float, tuple | None]:
    """(passed, bound, witness) of ``composition_bound_check`` over source
    pairs in Python; the witness is the last failing pair."""
    lip_c = result.phi_lipschitz if lip is None else lip
    eps_c = result.fiber_lower if eps is None else eps
    delta = eps_c / (1.0 + lip_c + eps_c)
    bound = min(eps_c * (1.0 - delta) - lip_c * delta, delta)
    vm = result.plan.vm
    src = vm.source
    ok = bound <= result.lower + TOL
    worst = None
    for a in range(src.n):
        for b in range(a + 1, src.n):
            dn = float(src.dist[a, b])
            if dn <= TOL:
                continue
            dphi = float(np.max(np.abs(result.coords[src.ids[a]] - result.coords[src.ids[b]])))
            dy = vm.image_dist(a, b)
            if max(dphi, dy) < bound * dn - TOL:
                ok = False
                worst = (src.ids[a], src.ids[b])
    return ok, bound, worst


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
