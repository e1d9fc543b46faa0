"""Pullback metric, certified bracket, and the canonical factorization.

The pullback distance between two source vertices is the smallest image
diameter of a connected subgraph containing both.  The bracket computes a
minimax-threshold lower bound d with the guarantee d <= exact <= 2d; the
exact solver resolves the value by an ascending threshold-decision search
inside that window.

The lower bound of a pair (i, j) is the minimax, over source paths, of
max(d_Y(f(v), f(i)), d_Y(f(v), f(j))).  That key depends on the pair only
through its target pair (f(i), f(j)), so one Kruskal threshold sweep per
unordered pair of occupied target vertices (a, b) settles every pair of
fiber(a) x fiber(b).  The sweep's spanning forest also gives each pair a
minimax path, whose image diameter is the exact solver's upper witness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, _u_levels
from .spaces import (
    Space,
    ValidationError,
    _components_idx,
    _diameters,
    _geodesic,
    _path_length,
    _threshold_sweeps,
    _with_metric,
)

__all__ = [
    "PullbackBracket",
    "Factorization",
    "pullback_metric_bracket",
    "pullback_metric_exact",
    "zero_distance_pairs",
    "factorize",
    "verify_projection",
    "length_metric",
    "bld_bdd_transfer_check",
    "enumerate_paths",
    "ResourceCapExceeded",
]

EXACT_CAP_DEFAULT = 256


class ResourceCapExceeded(ValueError):
    """Raised when an instance exceeds a solver's size cap."""


@dataclass(frozen=True)
class PullbackBracket:
    lower: np.ndarray
    upper: np.ndarray
    exact: bool

    def __post_init__(self):
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)


def _target_pair_sweeps(vm: VertexMap, witness: bool):
    """The bracket's lower matrix, by one threshold sweep per unordered pair
    (a, b) of occupied target vertices, a == b included.  With ``witness``,
    also the image diameter of each pair's path in the sweep's forest (a
    minimax path, so an upper bound on the exact value); else None."""
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


def pullback_metric_bracket(vm: VertexMap) -> PullbackBracket:
    """Certified bracket: lower <= f*d_Y <= 2 * lower entrywise."""
    lower, _ = _target_pair_sweeps(vm, witness=False)
    return PullbackBracket(lower=lower, upper=2.0 * lower, exact=False)


def _reachable_within(vm: VertexMap, i: int, j: int, cap: float,
                      nbhd: list[frozenset[int]]) -> bool:
    """Is there a source path i -> j whose image has diameter <= cap?

    DFS over states (vertex, K) where K is the set of target vertices still
    compatible with every image point collected so far (an intersection of
    cap-balls).  A state is dominated if the vertex was already reached with
    a superset constraint set.
    """
    dY = vm.target.dist
    fi, fj = int(vm.f[i]), int(vm.f[j])
    if dY[fi, fj] > cap + TOL:
        return False
    k0 = nbhd[fi] & nbhd[fj]
    seen: dict[int, list[frozenset[int]]] = {i: [k0]}
    stack: list[tuple[int, frozenset[int]]] = [(i, k0)]
    src = vm.source
    while stack:
        v, kset = stack.pop()
        if v == j:
            return True
        for w, _e in src.adj[v]:
            fw = int(vm.f[w])
            if fw not in kset:
                continue
            k2 = kset & nbhd[fw]
            kept = []
            dominated = False
            for old in seen.get(w, []):
                if k2 <= old:
                    dominated = True
                    break
                if not old <= k2:
                    kept.append(old)
            if dominated:
                continue
            kept.append(k2)
            seen[w] = kept
            stack.append((w, k2))
    return False


def _exact_pair(vm: VertexMap, i: int, j: int, lo: float, achieved: float,
                dvals: np.ndarray, nbhd_at) -> float:
    """Exact pullback distance for one pair via binary search on candidate
    diameters in [lower, achieved], deciding reachability at each.
    ``achieved`` is the image diameter of a path from i to j, and
    ``nbhd_at(cap)`` the target's closed cap-balls."""
    if lo <= TOL:
        return 0.0
    if achieved <= lo + TOL:
        return achieved
    cands = [float(d) for d in dvals if lo - TOL <= d <= achieved + TOL]
    if not cands:  # the bracket guarantees the achieved value is a candidate
        return achieved
    lo_k, hi_k = 0, len(cands) - 1  # cands[hi_k] is reachable via the witness path
    while lo_k < hi_k:
        mid = (lo_k + hi_k) // 2
        if _reachable_within(vm, i, j, cands[mid], nbhd_at(cands[mid])):
            hi_k = mid
        else:
            lo_k = mid + 1
    return cands[lo_k]


def pullback_metric_exact(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> np.ndarray:
    """Exact pullback matrix: min over connected subgraphs containing each
    pair of the image diameter (attained on simple paths).

    Resolved per pair by binary search on candidate diameters from the
    bracket's lower value up to the image diameter of the pair's minimax path
    in the bracket sweep, with reachability decided by a dominance-pruned
    search.
    """
    n = vm.source.n
    if n > cap:
        raise ResourceCapExceeded(
            f"instance too large for the exact pullback solver ({n} > cap {cap}); "
            "use pullback_metric_bracket"
        )
    lower, achieved = _target_pair_sweeps(vm, witness=True)
    dvals = np.unique(vm.target.dist)
    cache: dict[float, list[frozenset[int]]] = {}

    def nbhd_at(cap: float) -> list[frozenset[int]]:
        if cap not in cache:
            ok = vm.target.dist <= cap + TOL
            cache[cap] = [frozenset(int(t) for t in np.nonzero(row)[0]) for row in ok]
        return cache[cap]

    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = _exact_pair(vm, i, j, float(lower[i, j]), float(achieved[i, j]), dvals, nbhd_at)
            out[i, j] = out[j, i] = v
    return out


def zero_distance_pairs(vm: VertexMap) -> list[tuple[str, str]]:
    """Pairs at pullback distance zero: distinct vertices joined inside an
    f-constant connected subgraph (the discreteness failure detector)."""
    src = vm.source
    pairs: list[tuple[str, str]] = []
    for y in range(vm.target.n):
        fib = vm.fiber(y)
        touched = frozenset(v for i, j, _l in src.edges if i in fib and j in fib for v in (i, j))
        for comp in _components_idx(src, touched):
            comp_sorted = sorted(comp)
            pairs.extend(
                (src.ids[a], src.ids[b])
                for k, a in enumerate(comp_sorted)
                for b in comp_sorted[k + 1:]
            )
    return pairs


@dataclass(frozen=True)
class Factorization:
    """f = pi ∘ g with g the identity onto the pullback space."""

    vm: VertexMap
    pullback_space: Space
    lift: VertexMap       # g : source -> pullback_space
    projection: VertexMap  # pi : pullback_space -> target
    metric_choice: str    # "exact" | "lower"
    bracket: PullbackBracket


def factorize(vm: VertexMap, metric: str = "exact", cap: int = EXACT_CAP_DEFAULT) -> Factorization:
    """Build the pullback space (source graph, pullback matrix, masses
    pulled back from the target) and the maps g, pi with pi ∘ g = f."""
    if metric not in ("exact", "lower"):
        raise ValueError('metric must be "exact" or "lower"')
    zp = zero_distance_pairs(vm)
    if zp:
        raise ValidationError(
            [f"f not discrete at graph level: zero pullback distance on {zp[:3]}"]
        )
    if metric == "exact":
        mat = pullback_metric_exact(vm, cap=cap)
        bracket = PullbackBracket(lower=mat, upper=mat.copy(), exact=True)
    else:
        bracket = pullback_metric_bracket(vm)
        mat = bracket.lower
    src = vm.source
    pb_space = _with_metric(src, mat, vm.target.mass[vm.f])
    lift = VertexMap(source=src, target=pb_space, f=np.arange(src.n), check=False)
    proj = VertexMap(source=pb_space, target=vm.target, f=vm.f.copy(), check=False)
    return Factorization(
        vm=vm, pullback_space=pb_space, lift=lift, projection=proj,
        metric_choice=metric, bracket=bracket,
    )


def enumerate_paths(space: Space, max_edges: int, rng: np.random.Generator | None = None,
                    n_random: int = 0, max_random_edges: int = 8) -> list[tuple[int, ...]]:
    """All simple paths with 1..max_edges edges, plus optional seeded random
    simple walks; deterministic order."""
    out: list[tuple[int, ...]] = []
    for start in range(space.n):
        stack: list[tuple[int, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            if path[-1] > path[0]:
                out.append(path)
            if len(path) <= max_edges:
                for w, _e in space.adj[path[-1]]:
                    if w not in path:
                        stack.append(path + (w,))
    if rng is not None and n_random:
        for _ in range(n_random):
            v = int(rng.integers(space.n))
            path = [v]
            for _step in range(max_random_edges):
                nbrs = [w for w, _e in space.adj[path[-1]] if w not in path]
                if not nbrs:
                    break
                path.append(int(nbrs[rng.integers(len(nbrs))]))
            if len(path) > 1:
                out.append(tuple(path))
    return out


def _worst_distortion(vm: VertexMap, paths: list[tuple[int, ...]], kind: str):
    """Worst two-sided distortion max(b/a, a/b), at least 1, over the paths,
    of the source size a against the image size b under ``vm``, and the path
    attaining it.  Sizes are lengths for kind "bld" and diameters for "bdd".
    A zero on either side is infinite distortion, with that path as witness."""
    src, tgt = vm.source, vm.target
    if kind == "bld":  # lazy: most collapsing maps stop at an early path
        sizes = ((_path_length(src, p), _path_length(tgt, p, vm.f)) for p in paths)
    else:
        sizes = zip(_diameters(src, paths).tolist(), _diameters(tgt, paths, vm.f).tolist())
    worst, witness = 1.0, None
    for path, (a, b) in zip(paths, sizes):
        if a <= TOL or b <= TOL:
            return math.inf, path
        r = max(b / a, a / b)
        if r > worst:
            worst, witness = r, path
    return worst, witness


def verify_projection(fact: Factorization, path_budget: int = 4) -> Certificate:
    """Fine properties of pi: 1-Lipschitz, the inclusion chain
    B(z,r) ⊆ U(z,pi,r) ⊆ B(z,2r), and the 1-BDD diameter identity on
    enumerated paths.  Bracket metrics get the factor-2 slack and an
    "approximate" flag."""
    pi = fact.projection
    pb = fact.pullback_space
    exact = fact.metric_choice == "exact"
    details: dict = {"metric": fact.metric_choice}
    flags = [] if exact else ["approximate"]
    witness = None
    ok = True

    # (i) 1-Lipschitz against the chosen matrix
    dY = pi.target.dist[np.ix_(pi.f, pi.f)]
    lip_bad = np.argwhere(dY > pb.dist + TOL)
    if lip_bad.size:
        ok = False
        i, j = (int(k) for k in lip_bad[0])
        witness = ("lipschitz", pb.ids[i], pb.ids[j])
    details["lipschitz_pairs_checked"] = pb.n * (pb.n - 1) // 2

    # (ii) inclusion chain for all z and candidate r
    lo_factor = 1.0 if exact else 0.5
    checked = 0
    for z, level in enumerate(_u_levels(pi, range(pb.n))):
        radii = np.array(sorted(set(pb.ball_radii(z)) | set(pi.target.ball_radii(int(pi.f[z])))))
        r = radii[:, None]
        u = level < r - TOL
        b_in = pb.dist[z] < lo_factor * r - TOL
        b_out = pb.dist[z] < 2.0 * r - TOL
        bad = (b_in & ~u | u & ~b_out).any(axis=1)
        checked += len(radii)
        if bad.any():
            ok = False
            if witness is None:
                witness = ("inclusion", pb.ids[z], float(radii[bad.argmax()]))
    details["inclusion_checks"] = checked

    # (iii) diameter identity on enumerated paths
    paths = enumerate_paths(pb, path_budget)
    da, di = _diameters(pb, paths), _diameters(pi.target, paths, pi.f)
    dev = np.abs(da - di)
    bad = dev > TOL if exact else ~((da <= di * 2.0 + TOL) & (di <= da + TOL))
    if bad.any():
        ok = False
        if witness is None:
            witness = ("bdd" if exact else "bdd_bracket",
                       [pb.ids[v] for v in paths[int(np.argmax(bad))]])
    details["paths_checked"] = len(paths)
    details["bdd_worst_deviation"] = float(dev.max(initial=0.0)) if exact else 0.0
    return Certificate(name="projection_fine_properties", passed=ok, constant=1.0,
                       witness=witness, details=details, flags=tuple(flags))


def length_metric(dist: np.ndarray, space: Space) -> np.ndarray:
    """Shortest-path metric where a path's length is the sum of consecutive
    matrix distances along graph edges."""
    return _geodesic(space.n, [(i, j, float(dist[i, j])) for i, j, _ln in space.edges])


def bld_bdd_transfer_check(fact: Factorization, path_budget: int = 4, seed: int = 0,
                           n_random: int = 50) -> Certificate:
    """Worst BLD and BDD ratios of f equal those of the lift g over the
    enumerated curve sample (exactly under the exact metric, within factor 2
    under the bracket)."""
    paths = enumerate_paths(fact.vm.source, path_budget, rng=np.random.default_rng(seed),
                            n_random=n_random)
    exact = fact.metric_choice == "exact"
    f_bld, f_bdd, g_bld, g_bdd = (_worst_distortion(m, paths, kind)[0]
                                  for m in (fact.vm, fact.lift) for kind in ("bld", "bdd"))
    if exact:
        # f == g first: two infinite distortions are equal, but inf - inf is nan
        ok = all(f == g or abs(f - g) <= 1e-9 * max(1.0, f)
                 for f, g in ((f_bld, g_bld), (f_bdd, g_bdd)))
    else:
        ok = (g_bld <= 2.0 * f_bld + TOL and f_bld <= 2.0 * g_bld + TOL
              and g_bdd <= 2.0 * f_bdd + TOL and f_bdd <= 2.0 * g_bdd + TOL)
    return Certificate(
        name="bld_bdd_transfer",
        passed=ok,
        constant=max(f_bld, f_bdd),
        witness=None,
        details={"f_bld": f_bld, "g_bld": g_bld, "f_bdd": f_bdd, "g_bdd": g_bdd,
                 "paths": len(paths)},
        flags=() if exact else ("approximate",),
    )
