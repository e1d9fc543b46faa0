"""Pullback metric, certified bracket, and the canonical factorization.

The pullback distance f*d_Y(x, y) between two source vertices is the
smallest image diameter of a connected subgraph containing both.  The
bracket computes a minimax-threshold lower bound with the guarantee
lower <= exact <= 2 lower; the exact solver resolves the value by an
ascending threshold-decision search inside that window.

The lower bound of a pair (x, y) over (a, b) = (f(x), f(y)) is the minimax,
over source paths from x to y, of k_ab(v) = max(d_Y(f v, a), d_Y(f v, b)).
It depends on the pair only through its target pair, and the bracket finds
it in three steps.

1. Screen, one threshold sweep per fibre.  The Kruskal sweep of the key
   d_Y(f ., a) from the fibre over a gives the level row of each x in it:
   level_x(y), the minimax of d_Y(f v, a) over paths from x to y, whose
   sublevel sets are the normal neighbourhoods U(x, f, r).  Let
   L'(x, y) = max(level_x(y), level_y(x)).  Then L' <= lower <= f*d_Y <= 2 L':
   - k_ab >= d_Y(f ., a) along every path, so lower >= level_x(y), and
     likewise lower >= level_y(x).  Max and min round nothing, so
     L' <= lower holds bitwise.
   - A connected set holding x and y with image diameter δ holds a path
     from x to y whose image lies within δ of a and of b, so lower <= δ.
   - The minimax path for level_x(y) has its image in the closed ball of
     radius level_x(y) about a, so f*d_Y(x, y) <= 2 level_x(y) by the
     triangle inequality; the same holds from y.
2. Certificate, from the same forests.  The sweep's spanning forest joins x
   to every y by a minimax path for d_Y(f ., a).  Walking it from x,
   R[v] = max(R[parent v], d_Y(f v, .)) holds the largest d_Y(f u, .) over
   the path's vertices u, so C(x, y) = max(level_x(y), R[y, b]) is the k_ab
   cost of a real path and lower <= C(x, y).  As level_x(y) <= L'(x, y),
   C(x, y) = L'(x, y) exactly when R[y, b] <= L'(x, y); where that holds
   from x or from y, lower(x, y) = L'(x, y) bitwise.  The same walk
   fills D[v] = max(D[parent v], R[v, f v]), the path's image diameter: an
   upper bound on f*d_Y and the exact solver's witness, taken as
   min(D(x, y), D(y, x)) on certified entries where lower is the one target
   distance within TOL of itself.  A witness within TOL of lower settles
   the exact value at itself, so where two distances lie that close, two
   witnesses could settle at different values: there the pair sweep's
   witness alone decides, as it always did.
3. Pair sweeps, only where needed.  Each target pair (a, b) that still holds
   an uncertified entry, or for the exact solver an entry without a
   settling witness, gets one threshold sweep of k_ab over
   fiber(a) x fiber(b).  Its values replace the screen there.  Its forest
   gives a second witness by the walk that fills D, on the rows
   max(d_Y(f v, .), d_Y(., f v)): read both ways, like a diameter, so that
   it is each forest path's image diameter bitwise even on an asymmetric
   explicit target.  The smaller witness is kept.

TOL convention: lower and L' are exact minimax values, so the screen and the
certificate compare them bitwise.  The factor 2 rests on the triangle
inequality, which a computed path metric and a validated explicit metric
satisfy within TOL: f*d_Y <= 2 L' + TOL.  An explicit metric may also be
asymmetric within TOL; the fibre sweeps read d_Y(a, f v) and the pair
sweeps d_Y(f v, a), so on such a target every pair is swept.

The exact solver settles every pair the bracket already decides in one array
step: lower <= TOL means distance zero, and a witness within TOL of lower
means distance witness.  Only the remaining open pairs are searched: each
binary-searches its candidate caps, and a probe of (i, j) at cap c reads
bit j of one search from i over bitset states.  That search starts from
K0 = B(f i, c) ∩ B(f j, c), as the per-pair search did, and does not stop at
j, so it runs once per (i, f(j), c) and every pair with that key shares it;
on an explicit target asymmetric within TOL, a key without f(j) would read
another pair's K0.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
import numpy as np

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, _fibre_sweeps, _u_levels
from .spaces import (
    Space,
    ValidationError,
    _Sample,
    _components_idx,
    _diameters,
    _geodesic,
    _path_lengths,
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


@dataclass(frozen=True, eq=False)
class PullbackBracket:
    lower: np.ndarray
    upper: np.ndarray
    exact: bool

    def __post_init__(self):
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)


# the forest walks of one batch of centres hold at most this many path
# maxima (entries of R), or those of a single centre if it needs more
_WALK_BUDGET = 1 << 16


def _target_pair_sweeps(vm: VertexMap, witness: bool, level_rows: list | None = None):
    """The bracket's lower matrix, from the fibre certificate and one
    threshold sweep per unordered pair (a, b) of occupied target vertices
    that it leaves open (see the module docstring).  With ``witness``, also
    an upper bound on the exact value of each pair: the least image diameter
    of the forest paths that count for it, inf where none does; else None.
    The fibre certificate appends its (n, n) level rows, ``_u_levels`` of
    every source vertex, to ``level_rows`` if given; an asymmetric target
    gets no certificate and appends nothing."""
    n, f, dY = vm.source.n, vm.f, vm.target.dist
    if vm.target.is_path_metric or np.array_equal(dY, dY.T):  # a path metric is symmetric
        lower, open_, achieved, level = _fibre_certificate(vm, witness)
        if level_rows is not None:
            level_rows.append(level)
    else:
        # an explicit d_Y may be asymmetric within TOL; the fibre sweeps key
        # d_Y(a, f v) and the pair sweeps d_Y(f v, a), so every pair is swept
        lower, open_ = np.zeros((n, n)), np.ones((n, n), dtype=bool)
        achieved = np.full((n, n), np.inf) if witness else None
    a, b = f[np.array(np.nonzero(open_))]  # open_ is symmetric: keep the order a <= b
    pairs = sorted(set(zip(a[a <= b].tolist(), b[a <= b].tolist())))
    fiber = {a: np.nonzero(f == a)[0] for a in {a for pair in pairs for a in pair}}
    jobs = ((np.maximum(dY[f, a], dY[f, b]), fiber[a], fiber[b]) for a, b in pairs)

    def centres():
        for (a, b), (vals, forest) in zip(pairs, _threshold_sweeps(vm.source, jobs)):
            fa, fb = fiber[a], fiber[b]
            lower[fa[:, None], fb] = vals
            lower[fb[:, None], fa] = vals.T
            if witness:
                nbrs = _adjacency(forest, n)
                yield from ((x, nbrs, fb) for x in fa.tolist())

    rows = np.maximum(dY, dY.T)[f]  # read both ways, as a diameter does
    for batch, _far, diam in _walks(rows, f, centres(), witness):
        for (x, _nbrs, fb), d in zip(batch, diam):
            achieved[x, fb] = achieved[fb, x] = np.minimum(achieved[x, fb], d[fb])
    return lower, achieved


def _adjacency(forest: np.ndarray, n: int) -> list[list[int]]:
    """Adjacency lists of the (k, 2) edges of ``forest`` on range(n)."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(*forest.T.tolist()):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _fibre_certificate(vm: VertexMap, witness: bool):
    """From one threshold sweep per fibre on a symmetric d_Y: the screen L'
    with a zero diagonal, the mask of the entries it leaves open (uncertified
    or, with ``witness``, not settled by their witness), the witnesses
    min(D(x, y), D(y, x)) where they count, inf elsewhere, or None, and the
    level rows of every source vertex, read-only.  Each
    centre x's row of R[y, f y], the largest d_Y(f v, f y) over the forest
    path from x to y, certifies."""
    n, f = vm.source.n, vm.f
    level, far = np.empty((n, n)), np.empty((n, n))
    diam = np.empty((n, n)) if witness else None

    def centres():
        for xs, vals, forest in _fibre_sweeps(vm, range(n)):
            level[xs] = vals
            nbrs = _adjacency(forest, n)
            yield from ((x, nbrs) for x in xs)

    rows = vm.target.dist[f]  # d_Y(f v, .) for every source vertex v
    for batch, far_b, diam_b in _walks(rows, f, centres(), witness):
        xs = [x for x, _nbrs in batch]
        far[xs] = far_b
        if witness:
            diam[xs] = diam_b
    screen = np.maximum(level, level.T)
    open_ = np.minimum(far, far.T) > screen
    achieved = None
    if witness:
        # D counts where lower is certified and is the one target distance
        # within TOL of itself (see the module docstring)
        dvals = np.unique(vm.target.dist)
        alone = (np.searchsorted(dvals, screen + TOL, side="right")
                 - np.searchsorted(dvals, screen - TOL, side="left")) == 1
        achieved = np.where(alone & ~open_, np.minimum(diam, diam.T), np.inf)
        open_ |= (screen > TOL) & (achieved > screen + TOL)
    np.fill_diagonal(screen, 0.0)
    level.setflags(write=False)
    return screen, open_, achieved, level


def _walks(rows: np.ndarray, f: np.ndarray, centres, witness: bool):
    """``_walk`` over the (centre, adjacency lists, ...) tuples of
    ``centres``, cut into batches that hold at most ``_WALK_BUDGET`` path
    maxima, or one centre if it needs more: yields each batch with its rows
    of R[y, f y] and of D (or None)."""
    centres = iter(centres)
    per_batch = max(1, _WALK_BUDGET // rows.size)
    while batch := list(itertools.islice(centres, per_batch)):
        yield batch, *_walk(rows, f, batch, witness)


def _walk(rows: np.ndarray, f: np.ndarray, batch: list[tuple], witness: bool):
    """The walks from the centres x of the (x, adjacency lists, ...) tuples
    of ``batch``, each along its forest: R[v] = max(R[parent v], rows[v]) and
    D[v] = max(D[parent v], R[v, f v]), one numpy step per depth for all
    centres at once.  Returns the rows of R[y, f y] and of D, or None, each
    filled where the walk reaches."""
    n, m = len(f), len(batch)
    # breadth first from every centre at once: entry p is vertex node[p] of
    # the walk from centre own[p], and up[p] the entry of its parent; a
    # forest has no cycle, so every neighbour but the parent is new
    node = [centre[0] for centre in batch]
    own, up = list(range(m)), list(range(m))
    cuts = [0, m]
    while cuts[-1] > cuts[-2]:
        for p in range(cuts[-2], cuts[-1]):
            v, back, k = node[p], node[up[p]], own[p]
            for w in batch[k][1][v]:
                if w != back:
                    node.append(w)
                    own.append(k)
                    up.append(p)
        cuts.append(len(node))
    v, up_a = np.array(node), np.array(up)
    at = np.array(own) * n + v
    R = rows[v]
    for lo, hi in zip(cuts[1:], cuts[2:]):
        np.maximum(R[lo:hi], R[up_a[lo:hi]], out=R[lo:hi])
    img = R[np.arange(len(node)), f[v]]
    far = np.empty(m * n)
    far[at] = img
    if not witness:
        return far.reshape(m, n), None
    for lo, hi in zip(cuts[1:], cuts[2:]):
        np.maximum(img[lo:hi], img[up_a[lo:hi]], out=img[lo:hi])
    diam = np.empty(m * n)
    diam[at] = img
    return far.reshape(m, n), diam.reshape(m, n)


def pullback_metric_bracket(vm: VertexMap) -> PullbackBracket:
    """Certified bracket: lower <= f*d_Y <= 2 * lower entrywise."""
    lower, _ = _target_pair_sweeps(vm, witness=False)
    return PullbackBracket(lower=lower, upper=2.0 * lower, exact=False)


def _reached_within(graph: tuple[list, list], balls: list[int], i: int, k0: int) -> int:
    """The source vertices that a path from i reaches with its image inside
    K0 and inside the cap-ball of each of its image points, as a bitset.

    DFS over states (vertex, K) where K is the bitset of target vertices
    still compatible with every image point collected so far (``k0`` and
    the cap-ball ``balls[w]`` of each vertex w passed).  ``graph`` holds
    each source vertex's neighbours and the bit of its image.  A state is
    dominated if the vertex was already reached with a superset constraint
    set.  Dominance drops only states that reach no further, so the reached
    set does not depend on the search order, and bit j of it answers "is
    there a path i -> j whose image has diameter <= cap?" for every j over
    which K0 is the same.
    """
    adj, fbit = graph
    seen: dict[int, list[int]] = {i: [k0]}
    stack: list[tuple[int, int]] = [(i, k0)]
    while stack:
        v, kset = stack.pop()
        for w in adj[v]:
            if not kset & fbit[w]:
                continue
            k2 = kset & balls[w]
            kept = []
            for old in seen.get(w, ()):
                if k2 | old == old:
                    break
                if old | k2 != k2:
                    kept.append(old)
            else:
                kept.append(k2)
                seen[w] = kept
                stack.append((w, k2))
    reached = 0
    for w in seen:
        reached |= 1 << w
    return reached


def pullback_metric_exact(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> np.ndarray:
    """Exact pullback matrix: min over connected subgraphs containing each
    pair of the image diameter (attained on simple paths).

    Pairs the bracket sweep decides are settled in one array step (see the
    module docstring).  Each open pair binary-searches the target distances
    in [lower, achieved].  The probe of pair (i, j) at a cap reads bit j of
    one search from i, run once per (i, f(j), cap) over a table of cap-balls
    as bitsets.
    """
    return _exact(vm, cap)


def _exact(vm: VertexMap, cap: int, level_rows: list | None = None) -> np.ndarray:
    """``pullback_metric_exact``; the fibre certificate's level rows go to
    ``level_rows`` as in ``_target_pair_sweeps``."""
    n = vm.source.n
    if n > cap:
        raise ResourceCapExceeded(
            f"instance too large for the exact pullback solver ({n} > cap {cap}); "
            "use pullback_metric_bracket"
        )
    lower, achieved = _target_pair_sweeps(vm, witness=True, level_rows=level_rows)
    out = np.where(lower <= TOL, 0.0, achieved)
    rows, cols = np.nonzero(np.triu((lower > TOL) & (achieved > lower + TOL), 1))
    dY = vm.target.dist
    dvals = np.unique(dY)
    # an open pair's candidate caps are dvals[first..last]; its witness path reaches within the last
    first = np.searchsorted(dvals, lower[rows, cols] - TOL, side="left")
    last = np.searchsorted(dvals, achieved[rows, cols] + TOL, side="right") - 1
    f = vm.f.tolist()
    graph = ([[w for w, _e in nbrs] for nbrs in vm.source.adj], [1 << y for y in f])
    balls: dict[int, list[int]] = {}    # cap index -> the cap-ball of each source vertex's image
    reached: dict[tuple[int, int, int], int] = {}  # (i, f(j), cap index) -> the search's bitset
    for i, j, lo_k, hi_k in zip(rows.tolist(), cols.tolist(), first.tolist(), last.tolist()):
        while lo_k < hi_k:
            mid = (lo_k + hi_k) // 2
            key = (i, f[j], mid)
            if key not in reached:
                if mid not in balls:
                    bits = np.packbits(dY <= dvals[mid] + TOL, axis=1, bitorder="little")
                    by_target = [int.from_bytes(row.tobytes(), "little") for row in bits]
                    balls[mid] = [by_target[y] for y in f]
                ball = balls[mid]
                reached[key] = _reached_within(graph, ball, i, ball[i] & ball[j])
            if reached[key] >> j & 1:
                hi_k = mid
            else:
                lo_k = mid + 1
        out[i, j] = out[j, i] = dvals[lo_k]
    return out


def zero_distance_pairs(vm: VertexMap) -> list[tuple[str, str]]:
    """Pairs at pullback distance zero: distinct vertices joined inside an
    f-constant connected subgraph (the discreteness failure detector)."""
    src = vm.source
    fi, fj = vm.f[src._ends].T
    collapsed, images = src._ends[fi == fj], fi[fi == fj]  # the edges f collapses, their images
    pairs: list[tuple[str, str]] = []
    for y in np.unique(images).tolist():
        for comp in _components_idx(src, frozenset(collapsed[images == y].ravel().tolist())):
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
    # the level rows of every source vertex under f, which pi shares (f's
    # source graph, map and target), as the bracket swept them; None if it did not
    _level: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


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
    level_rows: list[np.ndarray] = []
    if metric == "exact":
        mat = _exact(vm, cap, level_rows)
        bracket = PullbackBracket(lower=mat, upper=mat.copy(), exact=True)
    else:
        mat, _ = _target_pair_sweeps(vm, witness=False, level_rows=level_rows)
        bracket = PullbackBracket(lower=mat, upper=2.0 * mat, exact=False)
    src = vm.source
    pb_space = _with_metric(src, mat, vm.target.mass[vm.f])
    lift = VertexMap(source=src, target=pb_space, f=np.arange(src.n), check=False)
    proj = VertexMap(source=pb_space, target=vm.target, f=vm.f.copy(), check=False)
    fact = Factorization(
        vm=vm, pullback_space=pb_space, lift=lift, projection=proj,
        metric_choice=metric, bracket=bracket,
    )
    object.__setattr__(fact, "_level", level_rows[0] if level_rows else None)
    return fact


def _budgets(*budgets) -> tuple[int, int]:
    """The (max_edges, n_random) budgets of a curve sample as ints, >= 1 and >= 0."""
    try:
        max_edges, n_random = map(operator.index, budgets)
    except TypeError:  # inf, nan, 2.5: not a count
        max_edges = n_random = -1
    if max_edges < 1 or n_random < 0:  # an empty sample would certify any map
        raise ValueError("curve_budget must be >= 1 and n_random >= 0, got %s and %s" % budgets)
    return max_edges, n_random


def enumerate_paths(space: Space, max_edges: int, rng: np.random.Generator | None = None,
                    n_random: int = 0) -> list[tuple[int, ...]]:
    """All simple paths with 1..max_edges edges, plus optional seeded random
    simple walks of up to 8 edges; deterministic order.  The BLD, BDD and
    transfer checks draw it once per source space and int seed, and share it;
    its simple paths are enumerated once per space and budget."""
    max_edges, n_random = _budgets(max_edges, n_random)
    out = list(_simple_paths(space, max_edges))
    if rng is not None and n_random:
        for _ in range(n_random):
            v = int(rng.integers(space.n))
            path = [v]
            for _step in range(8):
                nbrs = [w for w, _e in space.adj[path[-1]] if w not in path]
                if not nbrs:
                    break
                # integers(1) is 0 and consumes no bits, so skipping it leaves the stream as it was
                path.append(nbrs[rng.integers(len(nbrs))] if len(nbrs) > 1 else nbrs[0])
            if len(path) > 1:
                out.append(tuple(path))
    return out


def _simple_paths(space: Space, max_edges: int) -> _Sample:
    """The simple paths of ``enumerate_paths``, enumerated once per space and
    budget and kept as its sample of no walks: every seeded sample of the
    budget starts with them, and a space with the same graph, such as the
    pullback space, can read them too."""
    max_edges = _budgets(max_edges, 0)[0]
    key = (max_edges, 0, None)
    if key not in space._samples:
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
        space._samples[key] = _Sample(out)
    return space._samples[key]


def _curve_sample(space: Space, budget: int, seed, n_random: int) -> _Sample:
    """``enumerate_paths`` seeded by ``seed``, drawn once per space for an int
    seed, with its size groups kept for the kernels that size it."""
    shared = isinstance(seed, (int, np.integer))  # a Generator has state; None is fresh entropy
    samples, key = (space._samples, (*_budgets(budget, n_random), seed)) if shared else ({}, None)
    if key not in samples:
        samples[key] = _Sample(enumerate_paths(space, budget, np.random.default_rng(seed), n_random))
    return samples[key]


def _worst_distortion(a: np.ndarray, b: np.ndarray, paths: list[tuple[int, ...]]):
    """Worst two-sided distortion max(b/a, a/b), at least 1, over the paths, of the source
    sizes a against the image sizes b, and the first path attaining it.  A zero on either
    side is infinite distortion, with the first such path as witness; two sizes that
    overflow to inf count as 1."""
    zero = (a <= TOL) | (b <= TOL)
    if zero.any():
        return math.inf, paths[int(zero.argmax())]
    with np.errstate(over="ignore", invalid="ignore"):  # sizes near 1e308; inf / inf is NaN
        r = np.append(1.0, np.fmax(np.maximum(b / a, a / b), 1.0))  # r[0]: no witness
    k = int(r.argmax())
    return float(r[k]), (paths[k - 1] if k else None)


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
    levels = _u_levels(pi, range(pb.n)) if fact._level is None else fact._level
    for z, level in enumerate(levels):
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

    # (iii) diameter identity on enumerated paths: pb has the source's graph, so its paths
    paths = _simple_paths(fact.vm.source, path_budget)
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


def bld_bdd_transfer_check(fact: Factorization, seed: int = 0) -> Certificate:
    """Worst BLD and BDD ratios of f equal those of the lift g over the curve
    sample, every simple path of at most 4 edges plus 50 seeded random ones
    (exactly under the exact metric, within factor 2 under the bracket)."""
    paths = _curve_sample(fact.vm.source, 4, seed, 50)
    exact = fact.metric_choice == "exact"
    # f and g share their source: its lengths and diameters are computed once
    sizes = [(size, size(fact.vm.source, paths)) for size in (_path_lengths, _diameters)]
    f_bld, f_bdd, g_bld, g_bdd = (_worst_distortion(a, size(m.target, paths, m.f), paths)[0]
                                  for m in (fact.vm, fact.lift) for size, a in sizes)
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
