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
one.  Concurrent first reads are safe: the fill is idempotent, so a thread
that computes it again gets an equal array.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

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


class _PathMetricOnFirstRead:
    """``Space.dist``: the explicit matrix, or the path metric computed on the
    first read and stored as a plain instance attribute that later reads find
    first.  Not ``functools.cached_property``: it writes through
    ``instance.__dict__``, which on CPython 3.11 makes every later attribute
    read on the instance about three times slower (measured with timeit)."""

    def __get__(self, space: "Space | None", owner=None):
        if space is None:
            return self
        d = space._dist
        if d is None:
            d = _apsp(space.n, list(space.edges))
            d.setflags(write=False)
        object.__setattr__(space, "dist", d)
        return d


@dataclass(frozen=True)
class Space:
    """Finite metric measure space: graph + vertex masses + distance matrix."""

    ids: tuple[str, ...]
    mass: np.ndarray                      # (n,) nonnegative
    edges: tuple[tuple[int, int, float], ...]  # (i, j, length), i < j
    _dist: np.ndarray | None              # (n, n) explicit metric; None = path metric
    index: Mapping[str, int] = field(repr=False, compare=False, default=None)
    adj: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False, default=None)
    edge_index: Mapping[tuple[int, int], int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "index", {v: k for k, v in enumerate(self.ids)})
        adj: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        eidx: dict[tuple[int, int], int] = {}
        for e, (i, j, _ln) in enumerate(self.edges):
            adj[i].append((j, e))
            adj[j].append((i, e))
            eidx[(i, j)] = e
            eidx[(j, i)] = e
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "edge_index", eidx)
        self.mass.setflags(write=False)
        if self._dist is not None:
            self._dist.setflags(write=False)

    dist = _PathMetricOnFirstRead()       # (n, n) metric, read-only

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
        sp = cls(ids=ids, mass=mass, edges=tuple(elist),
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
        if self.mass.sum() <= 0:
            findings.append("total mass not positive")
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

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        """(neighbor index, edge index) pairs, sorted by neighbor index."""
        return self.adj[i]

    def mass_of(self, vid: str) -> float:
        return float(self.mass[self.i(vid)])

    def total_mass(self) -> float:
        return float(self.mass.sum())

    def distance_values(self) -> np.ndarray:
        """Sorted distinct positive entries of the distance matrix."""
        vals = np.unique(self.dist[np.triu_indices(self.n, 1)]) if self.n > 1 else np.array([])
        return vals[vals > TOL]

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
        if self.n == 0:
            return False
        comp = _components_idx(self, frozenset(range(self.n)))
        return len(comp) == 1

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
        for a, b in zip(self.vertices, self.vertices[1:]):
            if (a, b) not in self.space.edge_index:
                raise ValidationError(
                    [f"consecutive vertices not adjacent: ({self.space.ids[a]},{self.space.ids[b]})"]
                )

    @classmethod
    def from_ids(cls, space: Space, ids: Sequence[str]) -> "Curve":
        return cls(space, tuple(space.i(v) for v in ids))

    @property
    def length(self) -> float:
        return _path_length(self.space, self.vertices)

    def edge_indices(self) -> list[int]:
        sp = self.space
        return [sp.edge_index[(a, b)] for a, b in zip(self.vertices, self.vertices[1:])]

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


# -- operations --------------------------------------------------------------


def _apsp(n: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0))
    if not edges:
        out = np.full((n, n), np.inf)
        np.fill_diagonal(out, 0.0)
        return out
    rows = [e[0] for e in edges] + [e[1] for e in edges]
    cols = [e[1] for e in edges] + [e[0] for e in edges]
    vals = [e[2] for e in edges] * 2
    g = csr_matrix((vals, (rows, cols)), shape=(n, n))
    d = shortest_path(g, method="D", directed=False)
    # The two directions of a pair can sum their edges in a different order
    # and differ in the last bit; keep one value per pair.
    return np.minimum(d, d.T)


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


def _path_length(space: Space, path: Sequence[int], f: np.ndarray | None = None) -> float:
    """Length of a vertex path: the sum of the edge lengths of ``space`` or,
    given a vertex map ``f`` into ``space``, of the distances between
    consecutive images."""
    steps = zip(path, path[1:])
    if f is None:
        return float(sum(space.edge_length(space.edge_index[st]) for st in steps))
    return float(sum(space.dist[f[a], f[b]] for a, b in steps))


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


def _component_of(space: Space, members: frozenset[int], x: int) -> frozenset[int]:
    """The x-component of the subgraph induced on ``members``."""
    if x not in members:
        raise AssertionError("vertex not in the set it should anchor")
    comp = {x}
    stack = [x]
    while stack:
        v = stack.pop()
        for w, _e in space.adj[v]:
            if w in members and w not in comp:
                comp.add(w)
                stack.append(w)
    return frozenset(comp)


def _components_idx(space: Space, members: frozenset[int]) -> list[frozenset[int]]:
    """Components of the induced subgraph, ordered by smallest member."""
    remaining = set(members)
    out: list[frozenset[int]] = []
    while remaining:
        comp = _component_of(space, members, min(remaining))
        remaining -= comp
        out.append(comp)
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


def _diameters(space: Space, sets: Sequence[Iterable[int]],
               f: np.ndarray | None = None) -> np.ndarray:
    """Diameter of each non-empty index collection in ``sets`` or, given a
    vertex map ``f`` into ``space``, of its image; one gather per group of
    equal-size collections.  The diagonal is read too: an explicit metric
    may have |d(v, v)| <= TOL."""
    sets = [tuple(s) for s in sets]
    out = np.empty(len(sets))
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(sets):
        groups.setdefault(len(s), []).append(k)
    for ks in groups.values():
        idx = np.array([sets[k] for k in ks], dtype=np.intp)
        if f is not None:
            idx = f[idx]
        out[ks] = space.dist[idx[:, :, None], idx[:, None, :]].max(axis=(1, 2))
    return out


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
    radii = [float(v) for v in space.distance_values()]
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
    ends = np.array([(i, j) for i, j, _ln in space.edges], dtype=np.intp).reshape(-1, 2)
    eu, ev = ends[:, 0], ends[:, 1]
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

    def records(key: str, what: str, fields: tuple[str, ...]) -> list[tuple]:
        """The records of ``obj[key]``: string fields, then one number."""
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
        return Space.build(verts, edges, "path")
    return Space.build(verts, edges, np.array(dist, dtype=float))


def load_space(path: str) -> Space:
    return space_from_json(_read_json(path))
