"""Finite metric measure spaces as weighted graphs.

A Space is a connected graph with positive edge lengths, nonnegative vertex
masses, and a distance matrix that is either the all-pairs shortest-path
metric of the graph ("path metric") or an explicitly supplied metric over the
same vertex set.  An explicit metric may be a pseudometric: d(a, b) = 0 is
accepted for a != b.  All objects are immutable after construction; every
operation is a pure function.

A path metric is computed on the first read of ``Space.dist`` and cached, so
code that needs only edges and masses (the connecting-family modulus) never
pays for the n x n matrix.  The cached matrix is read-only like an explicit
one.  The adjacency lists ``adj`` are likewise built on their first read, so
code that reads only the edge table never builds its 2m (neighbour, edge)
tuples.  Concurrent first reads are safe: each fill is idempotent, so a
thread that computes it again gets an equal value.

The fill has two kernels.  Up to 128 vertices an all-sources Bellman-Ford in
numpy relaxes every arc of every source at once, round after round, until a
round changes nothing; above that, scipy's compiled Dijkstra
(``scipy.sparse.csgraph``) runs, and only then is scipy imported.  Their
matrices are equal bit for bit: the lengths are nonnegative and fl(a + w) is
monotone in a, so both compute, for each pair, the least over paths of the
sequential float sum of the path's lengths.

Every per-edge kernel reads the edge table that ``Space`` builds once: the
endpoints ``_ends`` (m, 2) and lengths ``_lens`` (m,), read-only, in the order
of the tuple ``edges``, which stays for scalar reads.  ``Space`` checks that
the edges are (i, j) with i < j in strictly ascending keys i * n + j, the order
``Space.build`` sorts them in.  ``_edge_ids``, the one lookup from vertex pairs
to edges, relies on it to search many pairs at once, and ``adj`` to list each
vertex's neighbours in ascending order without a sort.

``space_from_json`` and ``Space.build`` check whole columns: one type test per
column, one array pass per check.  Only when a check fails is that list walked
once, record by record, to word the first defect of each bad record.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._tol import TOL, ge

__all__ = [
    "Space",
    "Continuum",
    "Curve",
    "DoublingResult",
    "path_metric",
    "ball",
    "ball_closed",
    "components",
    "diameter",
    "doubling_constant",
    "bounded_turning_constant",
    "space_to_json",
    "space_from_json",
    "load_space",
]


class ValidationError(ValueError):
    """Raised when a Space/map fails its invariants; carries all findings."""

    def __init__(self, findings: Sequence[str]):
        super().__init__("; ".join(findings))
        self.findings = tuple(findings)


class _OnFirstRead:
    """A derived attribute of ``Space``: ``fill(space)``, computed on the
    first read and stored as a plain instance attribute of the fill's name
    that later reads find first.  Not ``functools.cached_property``: it
    writes through ``instance.__dict__``, which on CPython 3.11 makes every
    later attribute read on the instance about three times slower (measured
    with timeit)."""

    def __init__(self, fill):
        self.fill = fill

    def __get__(self, space: "Space | None", owner=None):
        if space is None:
            return self
        value = self.fill(space)
        object.__setattr__(space, self.fill.__name__, value)
        return value


@dataclass(frozen=True, eq=False)
class Space:
    """Finite metric measure space: graph + vertex masses + distance matrix."""

    ids: tuple[str, ...]
    mass: np.ndarray                      # (n,) nonnegative
    edges: tuple[tuple[int, int, float], ...]  # (i, j, length), i < j
    _dist: np.ndarray | None              # (n, n) explicit metric; None = path metric
    index: Mapping[str, int] = field(init=False, repr=False)
    _ends: np.ndarray = field(init=False, repr=False)  # (m, 2) endpoints of edges, read-only
    _lens: np.ndarray = field(init=False, repr=False)  # (m,) lengths of edges, read-only

    def __post_init__(self):
        object.__setattr__(self, "index", dict(zip(self.ids, range(self.n))))
        table = np.fromiter(chain.from_iterable(self.edges), float, 3 * len(self.edges))
        table.setflags(write=False)  # and so its view _lens
        ends = table.reshape(-1, 3)[:, :2].astype(np.intp)
        ends.setflags(write=False)
        i, j = ends.T
        key = i * self.n + j
        if not (((0 <= i) & (i < j) & (j < self.n)).all() and (key[1:] > key[:-1]).all()):
            raise ValidationError(["edges must be (i, j, len), 0 <= i < j < n, strictly ascending"])
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_lens", table[2::3])
        self.mass.setflags(write=False)
        if self._dist is not None:
            self._dist.setflags(write=False)

    @_OnFirstRead
    def dist(self) -> np.ndarray:
        """(n, n) metric, read-only: the explicit matrix or the path metric."""
        d = self._dist
        if d is None:
            d = _apsp(self.n, list(self.edges))
            d.setflags(write=False)
        return d

    @_OnFirstRead
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, its (neighbour, edge) pairs, neighbours ascending."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for e, (i, j, _ln) in enumerate(self.edges):
            adj[i].append((j, e))
            adj[j].append((i, e))
        return tuple(map(tuple, adj))

    @property
    def is_path_metric(self) -> bool:
        return self._dist is None

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        vertices: Iterable[tuple[str, float]],
        edges: Iterable[tuple[str, str, float]],
        dist: np.ndarray | str = "path",
    ) -> "Space":
        """Build and validate a Space.  ``dist`` is "path" or an explicit matrix."""
        ids, mass = [*zip(*vertices, strict=True)] or [(), ()]
        return cls._of_columns(ids, mass, *([*zip(*edges, strict=True)] or [()] * 3), dist)

    @classmethod
    def _of_columns(cls, ids, mass, us, vs, lens, dist: np.ndarray | str) -> "Space":
        """``build`` on the columns of its records: one array pass per check; only
        when an edge check fails are the edges walked, to word each one's defect."""
        n, m = len(ids), len(us)
        index = dict(zip(ids, range(n)))
        findings: list[str] = []
        if len(index) != n:
            findings.append("duplicate vertex ids")
        mass = np.array(mass, dtype=float)
        if not (mass.min(initial=0.0) >= 0 and mass.max(initial=0.0) < math.inf):
            finite = np.isfinite(mass)
            findings.extend(f"non-finite vertex mass at {ids[k]}" for k in np.flatnonzero(~finite))
            if (mass[finite] < 0).any():
                findings.append("negative vertex mass")
        lens = np.array(lens, dtype=float)
        a, b = np.fromiter(map(index.get, chain(us, vs), repeat(-1)), np.intp, 2 * m).reshape(2, m)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * n + hi                 # below 0 where an end is unknown (-1)
        order = key.argsort()             # the keys of valid edges are distinct
        key = key[order]
        if not ((lo < hi).all() and (not m or key[0] >= 0) and (key[1:] > key[:-1]).all()
                and lens.min(initial=math.inf) > 0 and lens.max(initial=0.0) < math.inf):
            seen_pairs: set[tuple[int, int]] = set()
            for u, v, ln in zip(us, vs, lens.tolist()):
                pair = tuple(sorted((index.get(u, -1), index.get(v, -1))))
                if pair[0] < 0:
                    findings.append(f"edge endpoint unknown: ({u},{v})")
                elif pair[0] == pair[1]:
                    findings.append(f"self-loop at {u}")
                elif pair in seen_pairs:
                    findings.append(f"duplicate edge ({u},{v})")
                else:                     # a pair given before is a duplicate, whatever its length
                    seen_pairs.add(pair)
                    if not math.isfinite(ln):
                        findings.append(f"non-finite edge length on ({u},{v})")
                    elif not ln > 0:
                        findings.append(f"nonpositive edge length on ({u},{v})")
        if findings:
            raise ValidationError(findings)
        is_path = isinstance(dist, str) and dist == "path"
        # tuple() of a list: of an iterator it resizes, churning the per-size tuple free lists
        sp = cls(ids=tuple(ids), mass=mass,
                 edges=tuple([*zip(lo[order].tolist(), hi[order].tolist(), lens[order].tolist())]),
                 _dist=None if is_path else np.array(dist, dtype=float))
        findings = sp.validate()
        if findings:
            raise ValidationError(findings)
        return sp

    def validate(self) -> list[str]:
        """Full invariant scan; returns itemized findings (empty = OK).

        A path metric is a metric by construction, so only an explicit
        ``dist`` is scanned."""
        findings: list[str] = []
        d = self._dist
        if d is not None:
            n = len(self.ids)
            if d.shape != (n, n):
                return [f"dist shape {d.shape} != ({n},{n})"]
            if np.any(~np.isfinite(d)):
                findings.append("dist has non-finite entries")
                return findings
            if np.abs(d - d.T).max(initial=0.0) > TOL:
                findings.append("dist not symmetric")
            if np.abs(np.diag(d)).max(initial=0.0) > TOL:
                findings.append("dist diagonal not zero")
            if d.min(initial=0.0) < -TOL:
                findings.append("dist has negative entries")
            for k in range(n):
                if np.any(d > d[:, [k]] + d[[k], :] + TOL):
                    findings.append(f"triangle inequality fails through {self.ids[k]}")
                    break
        if not self._connected():
            findings.append("disconnected")
        total = self.total_mass()
        if not 0 < total < math.inf:
            findings.append("total mass not positive" if total <= 0 else "total mass not finite")
        return findings

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    def i(self, vid: str) -> int:
        if vid not in self.index:
            raise KeyError(f"unknown vertex id: {vid}")
        return self.index[vid]

    def d(self, u: str, v: str) -> float:
        return float(self.dist[self.i(u), self.i(v)])

    def edge_length(self, e: int) -> float:
        return self.edges[e][2]

    def mass_of(self, vid: str) -> float:
        return float(self.mass[self.i(vid)])

    def total_mass(self) -> float:
        with np.errstate(over="ignore"):  # masses near 1e308 sum to inf
            return float(self.mass.sum())

    def ball_radii(self, center: int) -> list[float]:
        """Sweep radii realizing every nontrivial closed ball around ``center``.

        Radius k sits strictly between the k-th and (k+1)-th distinct positive
        distances from the center, so the open ball at that radius equals the
        closed ball at the k-th distance.  The trivial ball {center} has no
        continuum analog and is not represented.
        """
        dvals = np.unique(self.dist[center])
        dvals = dvals[dvals > TOL]
        radii = [float((dvals[k] + dvals[k + 1]) / 2.0) for k in range(len(dvals) - 1)]
        if len(dvals):
            radii.append(float(dvals[-1] + 1.0))
        return radii

    def _connected(self) -> bool:
        """One component?  Each vertex holds a label, a vertex of its component: a round
        hooks the larger label of each edge whose ends differ under the smaller, then
        jumps every label to its own label until none moves."""
        label = np.arange(self.n)
        lo, hi = self._ends.T             # i < j: under the first labels every edge differs
        while len(lo):
            np.minimum.at(label, hi, lo)
            while (label != (jump := label[label])).any():
                label = jump
            if not label.any():           # every vertex in vertex 0's component
                return True
            lo, hi = np.sort(label[self._ends], axis=1).T
            lo, hi = lo[lo < hi], hi[lo < hi]
        return self.n > 0 and not label.any()

    def subset(self, members: Iterable[str]) -> frozenset[int]:
        return frozenset(self.i(v) for v in members)

    def names(self, members: Iterable[int]) -> list[str]:
        return sorted(self.ids[i] for i in members)


@dataclass(frozen=True)
class Continuum:
    """Vertex set inducing a connected subgraph."""

    space: Space
    members: frozenset[int]

    def __post_init__(self):
        if self.members and len(_components_idx(self.space, self.members)) != 1:
            raise ValidationError(["continuum not connected"])

    def diameter(self) -> float:
        return diameter(self.space, self.members)

    def ids(self) -> list[str]:
        return self.space.names(self.members)


@dataclass(frozen=True)
class Curve:
    """Edge-path: a vertex sequence with every consecutive pair adjacent."""

    space: Space
    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValidationError(["empty curve"])
        v, n = np.array(self.vertices), self.space.n
        out = v[(v < 0) | (v >= n)]
        if out.size:
            raise ValidationError([f"curve vertex index {out[0]} not in range({n})"])
        bad = np.flatnonzero(_edge_ids(self.space, v[:-1], v[1:]) < 0)
        if bad.size:
            a, b = (self.space.ids[x] for x in v[bad[0]:bad[0] + 2])
            raise ValidationError([f"consecutive vertices not adjacent: ({a},{b})"])

    @classmethod
    def from_ids(cls, space: Space, ids: Sequence[str]) -> "Curve":
        return cls(space, tuple(space.i(v) for v in ids))

    @property
    def length(self) -> float:
        return float(_path_lengths(self.space, [self.vertices])[0])

    def edge_indices(self) -> list[int]:
        v = np.array(self.vertices)
        return _edge_ids(self.space, v[:-1], v[1:]).tolist()


# -- operations --------------------------------------------------------------


# Up to this many vertices the numpy kernel runs, so a short process need not
# import scipy; its rounds cost n * arcs each, so larger spaces go to Dijkstra.
_NUMPY_APSP_MAX_N = 128


def _apsp(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    e = np.array(edges, dtype=float).reshape(-1, 3)
    tail, head = np.concatenate([e[:, :2], e[:, 1::-1]]).astype(np.intp).T  # both arcs
    w = np.concatenate([e[:, 2], e[:, 2]])
    if n <= _NUMPY_APSP_MAX_N:
        d = _bellman_ford(n, tail, head, w)
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        d = shortest_path(csr_matrix((w, (tail, head)), shape=(n, n)), method="D", directed=False)
    # The two directions of a pair can sum their edges in a different order
    # and differ in the last bit; keep one value per pair.
    return np.minimum(d, d.T)


def _bellman_ford(n: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray) -> np.ndarray:
    """All-sources shortest paths, one source per row: a round relaxes every
    arc tail -> head of length w for every source at once, setting column head
    to the least of itself and of column tail plus w, until nothing changes."""
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    if not w.size:
        return d
    order = np.argsort(head)                   # the arcs into one vertex side by side
    tail, head, w = tail[order], head[order], w[order]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    heads = head[starts]
    with np.errstate(over="ignore"):          # lengths near 1e308 sum to inf
        while True:
            new = np.minimum(d[:, heads], np.minimum.reduceat(d[:, tail] + w, starts, axis=1))
            if np.array_equal(new, d[:, heads]):
                break
            d[:, heads] = new
    return d


def _geodesic(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs shortest paths of a graph that must be connected."""
    d = _apsp(n, edges)
    if np.any(np.isinf(d)):
        raise ValidationError(["disconnected"])
    return d


def _equals_path_metric(space: Space) -> bool:
    """Does the distance matrix equal the graph's shortest-path metric?"""
    return np.abs(_apsp(space.n, list(space.edges)) - space.dist).max(initial=0.0) <= TOL


def path_metric(space: Space) -> np.ndarray:
    """Exact all-pairs shortest-path distances of the edge graph."""
    return _geodesic(space.n, list(space.edges))


def _with_metric(space: Space, dist: np.ndarray, mass: np.ndarray | None = None) -> Space:
    """The graph of ``space`` with another distance matrix and, if given,
    other vertex masses."""
    mass = space.mass if mass is None else mass
    return Space.build(zip(space.ids, (float(m) for m in mass)),
                       [(space.ids[i], space.ids[j], ln) for i, j, ln in space.edges], dist)


def ball(space: Space, center: str, r: float) -> frozenset[int]:
    """Open ball {v : d(center, v) < r}."""
    c = space.i(center)
    return frozenset(int(k) for k in np.nonzero(space.dist[c] < r - TOL)[0])


def ball_closed(space: Space, center: str, r: float) -> frozenset[int]:
    """Closed ball {v : d(center, v) <= r}."""
    c = space.i(center)
    return frozenset(int(k) for k in np.nonzero(space.dist[c] <= r + TOL)[0])


def _idx(space: Space, v: int | str) -> int:
    """Vertex index of an id or an index."""
    return space.i(v) if isinstance(v, str) else int(v)


def _vertex_array(space: Space, values: Mapping[str, float] | np.ndarray | None) -> np.ndarray:
    """Per-vertex float array from an id mapping or an array; None gives the masses."""
    if values is None:
        return np.asarray(space.mass, dtype=float)
    if isinstance(values, np.ndarray):
        return values.astype(float)
    return np.array([float(values[v]) for v in space.ids], dtype=float)


def _components_idx(space: Space, members: frozenset[int]) -> list[frozenset[int]]:
    """Components of the induced subgraph, ordered by smallest member: one
    search from each member, in ascending order, that no earlier component
    holds."""
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for x in sorted(members):
        if x in seen:
            continue
        comp, stack = {x}, [x]
        while stack:
            for w, _e in space.adj[stack.pop()]:
                if w in members and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def components(space: Space, members: Iterable[int] | Iterable[str]) -> list[Continuum]:
    """Connected components of the induced subgraph, as Continuum values."""
    idx = frozenset(_idx(space, v) for v in members)
    return [Continuum(space, c) for c in _components_idx(space, idx)]


def diameter(space: Space, members: Iterable[int] | Iterable[str]) -> float:
    idx = [_idx(space, v) for v in members]
    if not idx:
        raise ValueError("diameter of empty set")
    return float(_diameters(space, [idx])[0])


def _size_groups(sets: Sequence[Iterable[int]]) -> list[tuple[list[int], np.ndarray]]:
    """The collections of ``sets`` grouped by size, in order of first appearance:
    each group's positions in ``sets`` and its (count, size) index array."""
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(sets):
        groups.setdefault(len(s), []).append(k)
    return [(ks, np.fromiter(chain.from_iterable(sets[k] for k in ks), np.intp)
             .reshape(len(ks), size)) for size, ks in groups.items()]


def _diameters(space: Space, sets: Sequence[Iterable[int]],
               f: np.ndarray | None = None) -> np.ndarray:
    """Diameter of each non-empty index collection in ``sets`` or, given a
    vertex map ``f`` into ``space``, of its image; one gather per group of
    equal-size collections.  The diagonal is read too: an explicit metric
    may have |d(v, v)| <= TOL."""
    out = np.empty(len(sets))
    for ks, idx in _size_groups(sets):
        idx = idx if f is None else f[idx]
        out[ks] = space.dist[idx[:, :, None], idx[:, None, :]].max(axis=(1, 2))
    return out


def _path_lengths(space: Space, paths: Sequence[Sequence[int]],
                  f: np.ndarray | None = None) -> np.ndarray:
    """Length of each vertex path in ``paths``: the sum, from the left, of its
    edge lengths in ``space`` or, given a vertex map ``f`` into ``space``, of
    the distances between consecutive images; inf once the sum overflows."""
    out = np.empty(len(paths))
    with np.errstate(over="ignore"):
        for ks, idx in _size_groups(paths):
            a, b = idx[:, :-1], idx[:, 1:]
            steps = space._lens[_edge_ids(space, a, b)] if f is None else space.dist[f[a], f[b]]
            out[ks] = reduce(np.add, steps.T, np.zeros(len(ks)))
    return out


def _edge_ids(space: Space, a, b) -> np.ndarray:
    """The edge joining a[k] and b[k] in range(n), in either order, else -1: one
    search in the ascending keys i * n + j, closed by a sentinel n * n above every pair's."""
    n, ends = space.n, space._ends
    keys = np.append(ends[:, 0] * n + ends[:, 1], n * n)
    want = np.minimum(a, b) * n + np.maximum(a, b)
    k = np.searchsorted(keys, want)
    return np.where(keys[k] == want, k, -1)


@dataclass(frozen=True)
class DoublingResult:
    value: int
    exact: bool


def _max_separated_exact(d: np.ndarray, pts: list[int], sep: float) -> int:
    """Max size of a pairwise >= sep subset, by branch and bound."""
    pts = sorted(pts)
    best = 0

    def grow(chosen: list[int], cand: list[int]):
        nonlocal best
        if len(chosen) + len(cand) <= best:
            return
        if not cand:
            best = max(best, len(chosen))
            return
        v = cand[0]
        rest = cand[1:]
        # include v
        grow(chosen + [v], [w for w in rest if ge(d[v, w], sep)])
        # exclude v
        grow(chosen, rest)

    grow([], pts)
    return best


def _max_separated_greedy(d: np.ndarray, pts: list[int], sep: float) -> int:
    chosen: list[int] = []
    for v in sorted(pts):
        if all(ge(d[v, w], sep) for w in chosen):
            chosen.append(v)
    return len(chosen)


def doubling_constant(space: Space, exact_cap: int = 16) -> DoublingResult:
    """Max over centers x and candidate radii r of the size of a maximum
    r/2-separated subset of the open ball B(x, r).

    Exact (branch and bound) when the space has at most ``exact_cap``
    vertices, greedy lower bound otherwise (flagged).
    """
    exact = space.n <= exact_cap
    search = _max_separated_exact if exact else _max_separated_greedy
    best = 1 if space.n else 0
    radii = [float(v) for v in np.unique(space.dist[np.triu_indices(space.n, 1)]) if v > TOL]
    # radii realize all distinct open balls: just above each distance value
    sweep = sorted({(a + b) / 2.0 for a, b in zip(radii, radii[1:])} | {r + 1.0 for r in radii[-1:]})
    for c in range(space.n):
        for r in sweep:
            pts = [int(k) for k in np.nonzero(space.dist[c] < r - TOL)[0]]
            if len(pts) <= best:
                continue
            best = max(best, search(space.dist, pts, r / 2.0))
    return DoublingResult(value=best, exact=exact)


def bounded_turning_constant(space: Space) -> tuple[float, float]:
    """Bracket (lower, upper) for the bounded-turning constant.

    c = max over pairs of (min over connecting continua of diameter) / dist.
    Uses the threshold sweep of the pullback bracket for the identity map
    (the connecting-continuum infimum is threshold-connectivity in disguise),
    one sweep per pair, so lower <= c <= upper = 2 * lower.  Path-metric
    spaces return (1.0, 1.0).
    """
    if not space._connected():
        raise ValidationError(["disconnected"])
    if space.is_path_metric or _equals_path_metric(space):
        return (1.0, 1.0)
    d = space.dist
    pairs = [(i, j) for i in range(space.n) for j in range(i + 1, space.n) if d[i, j] > TOL]
    jobs = ((np.maximum(d[:, i], d[:, j]), [i], [j]) for i, j in pairs)
    worst = 1.0
    for (i, j), (vals, _forest) in zip(pairs, _threshold_sweeps(space, jobs)):
        worst = max(worst, float(vals[0, 0]) / d[i, j])
    return (worst, 2.0 * worst)


def _threshold_sweeps(space: Space, jobs: Iterable[tuple[np.ndarray, Sequence[int], Sequence[int]]]):
    """For each (key, left, right) in ``jobs``, the minimax of ``key`` over
    graph paths from every vertex of ``left`` to every vertex of ``right``.

    That minimax is the smallest threshold D at which the two vertices lie in
    one component of {v : key[v] <= D}.  One Kruskal sweep finds it for all
    pairs at once: edges open in ascending order of max(key[u], key[v]), ties
    by edge index, and union-find joins their ends.  The weight of the edge
    that first puts a left and a right vertex in one component is their
    value.  The sweep stops once every pair is joined.

    Yields per job the (len(left), len(right)) matrix of values, zero where
    left and right name the same vertex, and the forest edges (u, v) opened
    so far.  The forest path between two joined vertices is a minimax path:
    no forest edge outweighs the edge that joined them.
    """
    eu, ev = space._ends.T
    eu_l, ev_l = eu.tolist(), ev.tolist()
    for key, left, right in jobs:
        w = np.maximum(key[eu], key[ev])
        vals = [[0.0] * len(right) for _ in left]
        # per component root: positions of its members in left and in right
        at_left = {int(x): [p] for p, x in enumerate(left)}
        at_right = {int(y): [q] for q, y in enumerate(right)}
        todo = len(left) * len(right) - len(at_left.keys() & at_right.keys())
        parent = list(range(space.n))
        size = [1] * space.n
        forest: list[tuple[int, int]] = []
        wl = w.tolist()
        for e in np.argsort(w, kind="stable").tolist():
            if not todo:
                break
            u, v = eu_l[e], ev_l[e]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                continue
            forest.append((eu_l[e], ev_l[e]))
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            lu, ru = at_left.pop(u, []), at_right.pop(u, [])
            lv, rv = at_left.pop(v, []), at_right.pop(v, [])
            for ls, rs in ((lu, rv), (lv, ru)):
                for p in ls:
                    for q in rs:
                        vals[p][q] = wl[e]
                todo -= len(ls) * len(rs)
            if lu or lv:
                at_left[u] = lu + lv
            if ru or rv:
                at_right[u] = ru + rv
        if todo:
            raise ValidationError(["disconnected"])
        yield np.array(vals), forest


# -- JSON schema --------------------------------------------------------------

_SPACE_FIELDS = {"vertices", "edges", "dist"}


def space_to_json(space: Space) -> dict:
    return {
        "vertices": [{"id": v, "mass": float(m)} for v, m in zip(space.ids, space.mass)],
        "edges": [{"u": space.ids[i], "v": space.ids[j], "len": ln} for i, j, ln in space.edges],
        "dist": "path" if space.is_path_metric else [[float(x) for x in row] for row in space.dist],
    }


def _is_number(x) -> bool:
    """A JSON number a float can hold: an int beyond the largest float is not."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def _all_of(col: Sequence, kind: type) -> bool:
    """Is every entry an instance of ``kind``?  One test per distinct type."""
    return all(map(issubclass, set(map(type, col)), repeat(kind)))


def _all_numbers(col: Sequence) -> bool:
    """``_is_number`` of every entry; per entry only if some entry is not a float."""
    return _all_of(col, float) or all(map(_is_number, col))


def _read_json(path: str):
    """The JSON document in the file at ``path``; text that is not JSON is a
    ValidationError."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError([f"{path}: not valid JSON ({exc})"]) from None


def space_from_json(obj: dict) -> Space:
    """The Space of a JSON object; every schema defect is an itemized finding
    of one ValidationError: vertex ids and edge endpoints are strings,
    masses and lengths numbers, and ``dist`` is "path" or a square matrix of
    numbers."""
    if not isinstance(obj, dict):
        raise ValidationError(["space JSON must be an object"])
    unknown = set(obj) - _SPACE_FIELDS
    if unknown:
        raise ValidationError([f"unknown fields: {sorted(unknown)}"])
    missing = _SPACE_FIELDS - set(obj)
    if missing:
        raise ValidationError([f"missing fields: {sorted(missing)}"])
    findings: list[str] = []

    def records(key: str, what: str, fields: tuple[str, ...]) -> list:
        """The columns of the records of ``obj[key]``: string fields, then one
        number.  One type test per column; only when a test fails are the
        records walked, to name the first defect of each bad one."""
        if not isinstance(obj[key], list):
            findings.append(f"{key} must be a list of {what} records")
            return []
        if _all_of(obj[key], dict) and set(map(len, obj[key])) <= {len(fields)}:
            try:
                cols = [list(map(itemgetter(f), obj[key])) for f in fields]
            except KeyError:              # a record without one of the fields
                cols = None
            if cols and _all_of(chain(*cols[:-1]), str) and _all_numbers(cols[-1]):
                return cols
        for rec in obj[key]:
            if not (isinstance(rec, dict) and set(rec) == set(fields)):
                findings.append(f"{what} record fields must be exactly {','.join(fields)}: {rec}")
            elif not all(isinstance(rec[k], str) for k in fields[:-1]):
                findings.append(f"{what} {','.join(fields[:-1])} must be strings: {rec}")
            elif not _is_number(rec[fields[-1]]):
                findings.append(f"{what} {fields[-1]} must be a number: {rec}")
        return []

    verts = records("vertices", "vertex", ("id", "mass"))
    edges = records("edges", "edge", ("u", "v", "len"))
    dist = obj["dist"]
    if isinstance(dist, str):
        if dist != "path":
            findings.append(f'dist must be "path" or a matrix, got {dist!r}')
    elif not (isinstance(dist, list) and _all_of(dist, list)
              and set(map(len, dist)) <= {len(dist)} and all(map(_all_numbers, dist))):
        findings.append('dist must be "path" or a square matrix of numbers')
    if findings:
        raise ValidationError(findings)
    return Space._of_columns(*verts, *edges, dist)


def load_space(path: str) -> Space:
    return space_from_json(_read_json(path))
