"""Discrete p-modulus of curve families, with weights, and the modulus-based
quasiregularity certificates.

Densities live on edges; the line integral of a curve is sum(rho_e * len_e)
over traversed edges.  A vertex weight profile w (default: the masses)
induces edge measures m_e = (w_u + w_v) / 2, so cell-area masses on grids
play the role of the ambient measure; explicit edge weights give
m_e = w_e * len_e.

The solver is a constraint-generation loop: find the curve of minimal
rho-length; if it is admissible stop, else add its half-space and re-solve
the restricted program.  An explicit family is scanned.  For a connecting
family the curve is canonical, least in (rho-cost, geometric length, rank of
the vertex id), so the result does not depend on the order of the vertex
records.  Two compiled Dijkstra passes (scipy.sparse.csgraph) find it: one
for the rho-cost d, one for the geometric length ln on the arcs where d is
tight with zero tolerance; each vertex's predecessor, least in (d, ln, key)
among the in-neighbours on which both labels are tight, breaks the remaining
ties.  The pop key is the rank, but where a length vanishes in a float sum,
an arc can join two vertices of one label, and inside such a label the key
is the order in which a heap search keyed by (d, ln, rank) pops it; the
tree is then that search's tree, and ``more`` adds no batch after the call.

One inner solver serves every p: it maximizes the restricted Lagrangian dual
sum(lam) - (p-1) sum(m rho(lam)^p) over lam >= 0, where rho(lam) is the exact
primal recovery and the gradient is 1 - A rho(lam).  Each new row keeps the
previous lam and starts at its one-row optimum if none of its edges carries
load yet, else at 0.  A projected-gradient test at that warm start decides
whether L-BFGS-B (scipy.optimize) runs at all; edge-disjoint rows, as on the
annulus, always pass it.  The loop stops when the oracle reads >= 1 - tol; a
curve found twice gives the flag ``stalled``, and ``max_iter`` the flag
``iteration cap``.  ``iterations`` counts one unit per stopping test plus
the L-BFGS-B iterations.  The optimiser's tolerances are not the
certificate: results report a rigorous duality gap, since the returned
density is admissible (scaled), its energy is an upper bound, and the dual
value a lower bound on the true modulus.

One row per round is the basic algorithm of Albin, Brunner, Perez,
Poggi-Corradini and Wiens (Conform. Geom. Dyn. 2015).  A round whose curve
costs 0 and lies on edges without load also takes, from the same oracle
call, the rows that the next calls would return one by one, as far as that
is proved (``more`` of the connecting-family oracle):

- Batch rule.  Walk the F vertices t with d = 0 after the returned one, in
  (ln, rank) order, each with its curve in the predecessor forest.  Admit
  t's row if it is nonempty, shares no edge with a row of the program or an
  admitted row, and the guard holds.  Stop at the first t the guard
  refuses, at a row with an edge of measure 0 or whose one-row start
  overflows, at ``max_iter - iterations`` rows, and wherever a length
  vanishes in a float sum.  Every row starts at its one-row optimum and the
  batch runs one stopping test; if it passes, the round counts one unit per
  row, else the extra rows go and the first row runs alone.
- Guard.  Every F vertex t' passed before t, kept or skipped, has
  (lb(t'), rank t') > (ln(t), rank t).  Along t''s tree path lb = 0 on E and
  lb(v) = min(alt(v), lb(pred v) + len), the second term dropped where the
  image edge of the tree arc is loaded, that is, has a positive cost at the
  one-row density of its admitted row; alt(v) is the least ln(u) + len over
  v's zero-cost in-arcs other than its tree arc.
- Proof that one row per round adds the same rows, bitwise.  (1) fl(a + c)
  is monotone in a and in c, so the labels, least left folds over paths,
  never fall as costs rise; loading rows only raises costs, so the
  zero-cost arcs only shrink, d never falls, and ln never falls where d
  stays 0.  By induction along the tree path, lb(v) <= ln(v) at every
  later call where d(v) = 0: another zero-cost in-arc gives at least
  alt(v), and the tree arc, unless loaded, at least lb(pred v) + len.
  (2) An admitted path shares no edge with a loaded row, so its arcs keep
  cost 0 and its vertices their labels; each in-neighbour tight at a later
  call was tight before with a key no smaller, so every vertex on it keeps
  its predecessor.  (3) Hence the call after the rows before t finds t at
  key (0, ln(t), rank t), every F vertex after t at a key no smaller than
  its old one, every F vertex with d > 0 still there, and, by the guard,
  every F vertex before t above t; where a length vanishes at that call,
  t and the vertices of its path enter their labels from a smaller one and
  pop before every vertex of their label with a higher rank, the only
  others there.  (4) The rows share no edge with each other or the
  program, so each row's slack reads its own lam only: every prefix of a
  batch that passes the test passes it, with the same s, rho and lam.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, branch_set
from .measures import jacobians
from .spaces import Curve, Space, ValidationError, _edge_ids, _idx, _vertex_array, diameter

__all__ = [
    "CurveFamily",
    "Density",
    "ModulusResult",
    "modulus",
    "modulus_bruteforce",
    "annulus_modulus",
    "loewner_profile",
    "minimal_upper_gradient",
    "ko_certificate",
    "ki_certificate",
    "vaisala_certificate",
    "analytic_qr_constant",
]

# The one home of the solver defaults: ``modulus``, the CLI's --tol and
# --max-iter, and every derived solve (annulus, Loewner, certificates) read them.
TOL_DEFAULT = 1e-6
MAX_ITER_DEFAULT = 100_000


@dataclass(frozen=True)
class CurveFamily:
    """Explicit list of curves, or the family of all curves joining E to F
    within a carrier set (represented implicitly through the shortest-path
    most-violated-curve oracle)."""

    space: Space
    curves: tuple[Curve, ...] | None = None
    connect: tuple[frozenset[int], frozenset[int], frozenset[int]] | None = None

    @classmethod
    def explicit(cls, space: Space, curves: Sequence[Curve]) -> "CurveFamily":
        return cls(space=space, curves=tuple(curves))

    @classmethod
    def connecting(cls, space: Space, e_set, f_set, within=None) -> "CurveFamily":
        e_idx = frozenset(_idx(space, v) for v in e_set)
        f_idx = frozenset(_idx(space, v) for v in f_set)
        if not e_idx or not f_idx:
            raise ValidationError(["connecting family needs nonempty E and F"])
        if e_idx & f_idx:
            raise ValidationError(["E and F must be disjoint"])
        if within is None:
            w_idx = frozenset(range(space.n))
        else:
            w_idx = frozenset(_idx(space, v) for v in within)
        return cls(space=space, connect=(e_idx, f_idx, w_idx | e_idx | f_idx))


@dataclass(frozen=True, eq=False)
class Density:
    """Nonnegative edge density; line integrals are sum(rho_e * len_e)."""

    space: Space
    values: np.ndarray  # (n_edges,)

    def __post_init__(self):
        self.values.setflags(write=False)

    def line_integral(self, curve: Curve) -> float:
        edges = curve.edge_indices()
        return float((self.space._lens[edges] * self.values[edges]).sum())


@dataclass(frozen=True)
class ModulusResult:
    value: float
    density: Density
    p: float
    weight_kind: str
    iterations: int
    gap: float
    exact: bool
    flags: tuple[str, ...] = ()


# -- weights ------------------------------------------------------------------


def edge_measures(space: Space, weight=None, edge_weight=None) -> np.ndarray:
    """Edge measures m_e for the energy sum(m_e rho_e^p).

    A vertex weight profile w (default: masses) gives m_e = (w_u + w_v)/2;
    an explicit edge weight profile gives m_e = w_e * len_e, matching the
    reported value sum(w_e rho_e^p len_e).  A weight that is not finite and
    nonnegative is a ValidationError naming its vertex or edge.
    """
    u, v = space._ends.T
    if edge_weight is not None:
        if isinstance(edge_weight, np.ndarray):
            w_e = edge_weight.astype(float)
        else:
            ids = np.array(space.ids, dtype=object)
            w_e = np.array([float(edge_weight[pair]) for pair in zip(ids[u], ids[v])])
        _check_weights(w_e, lambda e: f"{space.ids[u[e]]}-{space.ids[v[e]]}", "edge")
        return w_e * space._lens
    w = _vertex_array(space, weight)
    _check_weights(w, space.ids.__getitem__, "vertex")
    return (w[u] + w[v]) / 2.0


def _check_weights(w: np.ndarray, name: Callable[[int], str], kind: str) -> None:
    """One finding per weight that is not finite and nonnegative, at the
    vertex or edge ``name(k)``."""
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= 0.0)))
    if bad.size:
        raise ValidationError([f"{kind} weight not finite and nonnegative at {name(k)}: {w[k]}"
                               for k in bad.tolist()])


# -- constraint rows and oracles ----------------------------------------------

Row = tuple[np.ndarray, np.ndarray]  # (edge indices, coefficients)


def _curve_row(space: Space, verts: Sequence[int], f: np.ndarray | None = None) -> Row:
    """Constraint row of a vertex path over the edges of ``space``; given a
    vertex map ``f`` into ``space``, of the image path f ∘ gamma, with
    collapsed steps contributing nothing."""
    v = np.array(verts, dtype=np.intp) if f is None else f[list(verts)]
    moved = v[:-1] != v[1:]
    a, b = v[:-1][moved], v[1:][moved]
    e = _edge_ids(space, a, b)
    if (e < 0).any():
        k = np.argmax(e < 0)
        raise KeyError((int(a[k]), int(b[k])))
    # bincount adds each edge's lengths in path order, as a left fold from 0.0
    idx, at = np.unique(e, return_inverse=True)
    return idx, np.bincount(at, weights=space._lens[e])


def _tree_arcs(d: np.ndarray, ln: np.ndarray, rank: np.ndarray, arc_u: np.ndarray,
               arc_w: np.ndarray, tight: np.ndarray, arc_len: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, bool]:
    """The tree of a heap search from E keyed by (d, ln, rank), read off its
    final labels d and ln: each vertex's arc from its predecessor, -1 where
    there is none; each vertex's pop key; and whether a length vanishes in a
    float sum, ln + len == ln at a vertex with a finite label, as every
    length does once ln has overflowed to inf.

    The search pops labels in increasing order and sets the predecessor of a
    vertex w once, to the first vertex popped among the in-neighbours u on
    which both labels are tight (d on the arcs ``tight``).  Inside a label it
    pops by rank, unless a tight arc joins two vertices of that label, which
    takes a vanishing length: then the label pops as a search by rank that
    starts at those with ln = 0 or a tight in-neighbour of a smaller label
    and enters the others along such arcs.  The pop key is a vertex's place
    in that order, else its rank, so one lexsort of the tight arcs by
    (d, ln, key) of their tails gives every predecessor, and each
    predecessor pops before its vertex."""
    lu = ln[arc_u]
    step = lu + arc_len
    vanished = bool(np.any((step == lu) & (np.minimum(d[arc_u], lu) < math.inf)))
    k = np.flatnonzero(tight & (step == ln[arc_w]))
    u, w = arc_u[k], arc_w[k]
    key = rank
    if vanished:
        key = rank.copy()
        join = (d[u] == d[w]) & (ln[u] == ln[w]) & (np.minimum(d[u], ln[u]) < math.inf)
        entry = ln == 0.0
        entry[w[~join]] = True
        hops: dict[int, list[int]] = {}
        for x, z in zip(u[join].tolist(), w[join].tolist()):
            hops.setdefault(x, []).append(z)
        turn = itertools.count()  # increasing inside each label, which is all a key compares
        for label_d, label_ln in set(zip(d[u[join]].tolist(), ln[u[join]].tolist())):
            seen = set(np.flatnonzero((d == label_d) & (ln == label_ln) & entry).tolist())
            front = [(rank[x], x) for x in seen]
            heapq.heapify(front)
            while front:
                x = heapq.heappop(front)[1]
                key[x] = next(turn)
                for z in hops.get(x, ()):
                    if z not in seen:
                        seen.add(z)
                        heapq.heappush(front, (rank[z], z))
    k = k[np.lexsort((key[u], ln[u], d[u], w))]
    w = arc_w[k]
    head = np.ones(k.size, dtype=bool)
    head[1:] = w[1:] != w[:-1]
    tree = np.full(d.size, -1)
    tree[w[head]] = k[head]
    return tree, key, vanished


def _family_oracle(family: CurveFamily, vm: VertexMap | None = None
                   ) -> Callable[[np.ndarray], tuple[float, Row | None]]:
    """Returns oracle(rho) -> (min line integral, row achieving it).

    Given a vertex map, the oracle is for the image family f(Gamma): the
    variables live on target edges and the most-violated curve is found on
    the source graph with pulled-back edge costs.

    The connecting-family oracle returns the canonical cheapest E -> F curve
    within the carrier: least rho-cost d, then least geometric length ln,
    then least rank of the vertex id at each step, so the curve never depends
    on the order of the vertex records.  Two compiled Dijkstra passes from E
    find it.  Pass 1 gives d; pass 2 gives ln on the tight arcs, those with
    d[u] + c == d[w].  The tolerance on "tight" is zero: d[w] is the least
    float d[u] + c over the in-arcs of w, the very comparison the Dijkstra
    labels make, so equality marks exactly the arcs of cheapest curves; any
    slack would admit arcs of costlier curves and change the curve chosen.
    The end vertex is the F vertex least in (d, ln, key), and each vertex
    steps back to its predecessor, the in-neighbour least in (d, ln, key)
    among those on which both labels are tight; one lexsort of those arcs
    gives every vertex its predecessor (``_tree_arcs``).  The pop key is the
    rank, except inside a label that an arc of vanishing length joins, where
    it is the order in which the heap search pops that label.  The value
    returned is d at the end vertex, the curve's own sequential rho-length.

    The connecting-family oracle also has ``oracle.more(taken, limit,
    density)``: the zero-cost rows that the calls after the last one would
    return, one call per row, while the rows before each carry their load
    (the batch rule of the module docstring); it is empty after a call where
    a length vanished.
    """
    src = family.space
    tgt, f = (src, np.arange(src.n)) if vm is None else (vm.target, vm.f)
    if family.curves is not None:
        rows = [_curve_row(tgt, c.vertices, f) for c in family.curves]

        def scan(rho: np.ndarray):
            vals = [float(rho[idx] @ coef) if idx.size else 0.0 for idx, coef in rows]
            if not vals:
                return math.inf, None
            k = int(np.argmin(vals))
            return vals[k], rows[k]

        return scan
    fi, fj = f[src._ends].T
    pull_e = _edge_ids(tgt, fi, fj)  # each source edge's image edge, -1 where it collapses
    lost = np.flatnonzero((pull_e < 0) & (fi != fj))
    if lost.size:
        raise KeyError((int(fi[lost[0]]), int(fj[lost[0]])))
    pull_len = np.zeros(len(pull_e))
    pull_len[pull_e >= 0] = tgt._lens[pull_e[pull_e >= 0]]
    e_set, f_set, carrier = family.connect
    rank = np.argsort(np.argsort(np.array(src.ids)))
    sources = sorted(e_set & carrier)
    targets = np.array(sorted(f_set & carrier), dtype=int)
    # both arcs of every edge inside the carrier, sorted by (u, w) as the CSR rows
    ends, length = src._ends, src._lens
    inside = np.zeros(src.n, dtype=bool)
    inside[np.fromiter(carrier, dtype=int)] = True
    keep = np.flatnonzero(inside[ends[:, 0]] & inside[ends[:, 1]])
    arc_u = np.concatenate([ends[keep, 0], ends[keep, 1]])
    arc_w = np.concatenate([ends[keep, 1], ends[keep, 0]])
    arc_e = np.concatenate([keep, keep])
    order = np.lexsort((arc_w, arc_u))
    arc_u, arc_w, arc_e = arc_u[order], arc_w[order], arc_e[order]
    arc_len = length[arc_e]
    arc_img = pull_e[arc_e]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(arc_u, minlength=src.n))])
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    # explicit zeros stay arcs: the CSR is built from its parts and its data
    # only ever refilled, never pruned
    g = csr_matrix((np.zeros(arc_u.size), arc_w, indptr), shape=(src.n, src.n))
    # (arc costs, d, ln, tree arcs, predecessors, curve, row) of the last
    # call; None after a call where a length vanished or no curve was found
    last = None

    def search(rho: np.ndarray):
        nonlocal last
        last = None
        arc_cost = np.where(pull_e >= 0, rho[np.maximum(pull_e, 0)] * pull_len, 0.0)[arc_e]
        g.data[:] = arc_cost
        d = dijkstra(g, indices=sources, min_only=True)
        tight = d[arc_u] + arc_cost == d[arc_w]
        g.data[:] = np.where(tight, arc_len, math.inf)
        ln = dijkstra(g, indices=sources, min_only=True)
        if np.all((d[targets] == math.inf) & (ln[targets] == math.inf)):
            return math.inf, None
        tree, key, vanished = _tree_arcs(d, ln, rank, arc_u, arc_w, tight, arc_len)
        up = arc_u[tree]
        path = [int(targets[np.lexsort((key[targets], ln[targets], d[targets]))[0]])]
        while ln[path[-1]] != 0.0:  # a positive length keeps ln > 0 off E
            path.append(int(up[path[-1]]))
        row = _curve_row(tgt, path[::-1], f)
        if not vanished:
            last = (arc_cost, d, ln, tree, up, path, row)
        return float(d[path[0]]), row

    def more(taken: np.ndarray, limit: int, density: Callable[[Row], np.ndarray | None]
             ) -> list[Row]:
        """At most ``limit`` rows after the one the last call returned, each
        the row the next call would return once the rows before it carry
        their load; empty if that call's curve costs > 0 or a length
        vanished in it.  ``taken`` marks the target edges of the rows the
        program holds, the returned one included; ``density(row)`` is a
        row's one-row density on its edges, None where it cannot start.
        """
        nonlocal last
        if last is None or limit <= 0:
            return []
        (arc_cost, d, ln, tree, up, path, row), last = last, None  # one batch per call
        if d[path[0]] != 0.0:
            return []
        # the loaded image edges; the last slot is a collapsed arc's, never loaded
        loaded = np.zeros(len(tgt.edges) + 1, dtype=bool)
        used = taken.copy()

        def load(row: Row) -> bool:
            rho = density(row)
            if rho is not None:
                used[row[0]] = True
                with np.errstate(over="ignore"):
                    loaded[row[0]] = rho * tgt._lens[row[0]] > 0.0
            return rho is not None

        if not load(row):
            return []
        # the least ln[u] + len over w's zero-cost in-arcs but its tree arc
        on_tree = np.zeros(arc_u.size, dtype=bool)
        on_tree[tree[tree >= 0]] = True
        k = np.flatnonzero((arc_cost == 0.0) & (d == 0.0)[arc_u] & ~on_tree)
        alt = np.full(src.n, math.inf)
        with np.errstate(over="ignore"):
            np.minimum.at(alt, arc_w[k], ln[arc_u[k]] + arc_len[k])

        def key(v: int) -> tuple[float, int]:
            return float(ln[v]), int(rank[v])

        def lower(v: int) -> float:
            """lb(v): at most v's length label once the loaded edges carry load."""
            suffix = []
            while ln[v] != 0.0 and not loaded[arc_img[tree[v]]]:
                suffix.append(v)
                v = up[v]
            lb = 0.0 if ln[v] == 0.0 else float(alt[v])
            for w in reversed(suffix):
                lb = min(float(alt[w]), lb + float(arc_len[tree[w]]))
            return lb

        passed = [(*key(path[0]), path[0])]  # (at most (lb, rank), vertex)

        def guard(bound: tuple[float, int]) -> bool:
            """Every passed vertex has (lb, rank) > bound."""
            while passed[0][:2] <= bound:
                v = passed[0][2]
                fresh = (lower(v), int(rank[v]))
                if fresh <= bound:
                    return False
                heapq.heapreplace(passed, (*fresh, v))
            return True

        cand = targets[d[targets] == 0.0]
        rows: list[Row] = []
        for t in cand[np.lexsort((rank[cand], ln[cand]))][1:].tolist():
            if len(rows) == limit or not guard(key(t)):
                break
            heapq.heappush(passed, (*key(t), t))
            curve = [t]
            while ln[curve[-1]] != 0.0:
                curve.append(int(up[curve[-1]]))
            extra = _curve_row(tgt, curve[::-1], f)
            if extra[0].size and not used[extra[0]].any():
                if not load(extra):
                    break
                rows.append(extra)
        return rows

    search.more = more
    return search


# -- inner solvers -------------------------------------------------------------


def _rho_of(m: np.ndarray, p: float, s: np.ndarray) -> np.ndarray:
    # edges never touched by a constraint keep rho = 0, even at measure 0
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(s > 0.0, s / (p * m), 0.0)
    return base ** (1.0 / (p - 1.0))


def _restricted_dual(m, p, rows, cols, coef, lam, inner_tol, budget):
    """Maximises the restricted dual sum(lam) - (p-1) sum(m rho(lam)^p) over
    lam >= 0 in place, for the rows of A given as (row, edge, coefficient)
    triplets in row order; its gradient is 1 - A rho(lam).  Both products
    add their terms in that order, as a CSR product does.  Returns
    (s = A^T lam, rho(lam), units used).

    One unit is the projected-gradient test at the given lam: every row
    with lam > 0 tight within ``inner_tol``, every other row satisfied
    within it.  Only if the test fails does L-BFGS-B run, for at most
    ``budget`` iterations, each counted as one more unit; with a budget of
    0 a failed test returns None."""
    def at(x):
        return np.bincount(cols, weights=x[rows] * coef, minlength=m.size)

    def a(rho):
        return np.bincount(rows, weights=coef * rho[cols], minlength=lam.size)

    s = at(lam)
    rho = _rho_of(m, p, s)
    slack = 1.0 - a(rho)
    if np.where(lam > 0.0, np.abs(slack), slack).max() <= inner_tol:
        return s, rho, 1
    if not budget:
        return None
    from scipy.optimize import minimize

    def neg_dual(x):
        rho = _rho_of(m, p, at(x))
        return (p - 1.0) * float((m * rho ** p).sum()) - float(x.sum()), a(rho) - 1.0

    res = minimize(neg_dual, lam, jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * lam.size,
                   options={"maxiter": budget, "gtol": inner_tol, "ftol": 0.0})
    lam[:] = res.x
    s = at(lam)
    return s, _rho_of(m, p, s), 1 + int(res.nit)


# -- the solver ----------------------------------------------------------------


def _solve_program(
    m: np.ndarray,
    p: float,
    oracle,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, float, int, tuple[str, ...]]:
    """Constraint generation; returns (rho_hat, value, gap, iterations, flags).

    rho_hat is admissible for the family within floating error; value is its
    energy; gap = value - dual lower bound >= value - Mod >= 0.
    """
    _check_exponent(p)
    _check_solver(tol, max_iter)
    n_e = m.shape[0]
    rho0 = np.zeros(n_e)
    val, row = oracle(rho0)
    if row is None:
        return rho0, 0.0, 0.0, 0, ("empty family",)
    rows = cols = np.zeros(0, dtype=int)
    coef, lam = np.zeros(0), np.zeros(0)
    s = np.zeros(n_e)
    sigs: set[bytes] = set()
    iterations = 0
    flags: list[str] = []
    inner_tol = max(min(tol, 1e-6) * 1e-2, 1e-10)
    more = getattr(oracle, "more", None)

    def start(idx: np.ndarray, c: np.ndarray) -> float:
        """The one-row optimum of lam, for a row on edges without load."""
        with np.errstate(over="raise"):  # rho or the power leaves the float range
            return float((c * _rho_of(m[idx], p, c)).sum()) ** (1.0 - p)

    def density(row: Row) -> np.ndarray | None:
        """An extra row's density on its edges at its one-row optimum; None
        if an edge has measure 0 or the start overflows."""
        idx, c = row
        if np.any(m[idx] <= 0):
            return None
        try:
            with np.errstate(over="raise"):
                return _rho_of(m[idx], p, start(idx, c) * c)
        except (FloatingPointError, OverflowError, ZeroDivisionError):
            return None

    while True:
        idx, c = row
        if idx.size == 0:
            return rho0, math.inf, math.inf, iterations, tuple(flags + ["constant curve member"])
        if np.any(m[idx] <= 0):
            raise ValidationError(
                ["zero-measure edge on a family curve; modulus undefined"]
            )
        sig = idx.tobytes() + c.tobytes()
        if sig in sigs:
            flags.append("stalled")
            break
        # a row on unloaded edges starts at its one-row optimum
        unloaded = not s[idx].any()
        try:
            batch = [(row, start(idx, c) if unloaded else 0.0)]
        except (FloatingPointError, OverflowError, ZeroDivisionError):
            raise ValidationError([f"p = {p} overflows the one-row start of a curve"]) from None
        if more is not None and val == 0.0 and unloaded:
            taken = np.zeros(n_e, dtype=bool)
            taken[cols] = taken[idx] = True
            batch += [(r, start(*r)) for r in more(taken, max_iter - iterations - 1, density)]
        budget = max(1000, max_iter - iterations)
        while True:  # a batch that fails its one stopping test gives way to its first row
            b_rows = np.concatenate([rows, *(np.full(r[0].size, lam.size + k)
                                             for k, (r, _l0) in enumerate(batch))])
            b_cols = np.concatenate([cols, *(r[0] for r, _l0 in batch)])
            b_coef = np.concatenate([coef, *(r[1] for r, _l0 in batch)])
            b_lam = np.append(lam, [l0 for _r, l0 in batch])
            got = _restricted_dual(m, p, b_rows, b_cols, b_coef, b_lam, inner_tol,
                                   budget if len(batch) == 1 else 0)
            if got is not None:
                break
            del batch[1:]
        rows, cols, coef, lam = b_rows, b_cols, b_coef, b_lam
        s, rho, used = got
        iterations += used + len(batch) - 1  # a passing test counts one unit per row
        sigs.update(r[0].tobytes() + r[1].tobytes() for r, _l0 in batch)
        val, row = oracle(rho)
        if val >= 1.0 - tol:
            break
        if iterations >= max_iter:
            flags.append("iteration cap")
            break
    if val <= 0:
        return rho, math.inf, math.inf, iterations, tuple(flags + ["no admissible scaling"])
    rho_hat = rho / val
    value = float((m * rho_hat ** p).sum())
    dual = float(np.sum(lam)) - (p - 1.0) * float((m * rho ** p).sum())
    gap = max(0.0, value - dual)
    return rho_hat, value, gap, iterations, tuple(flags)


def _check_exponent(p: float) -> None:
    if not 1.0 < p < math.inf:
        raise ValueError(f"modulus requires 1 < p < inf, got p = {p}")


def _check_solver(tol: float, max_iter: int) -> None:
    """The CLI's ranges: 0 < tol < 1 (NaN is none) and an integer max_iter >= 1."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"modulus requires 0 < tol < 1, got tol = {tol}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValueError(f"modulus requires an integer max_iter >= 1, got max_iter = {max_iter!r}")


def _weight_kind(weight, edge_weight=None) -> str:
    if edge_weight is not None:
        return "edge"
    return "masses" if weight is None else "vertex"


def modulus(
    family: CurveFamily,
    p: float = 2.0,
    weight=None,
    tol: float = TOL_DEFAULT,
    max_iter: int = MAX_ITER_DEFAULT,
    edge_weight=None,
) -> ModulusResult:
    """Mod_p of the family: inf of sum(m_e rho_e^p) over admissible densities."""
    space = family.space
    m = edge_measures(space, weight, edge_weight)
    oracle = _family_oracle(family)
    rho_hat, value, gap, iters, flags = _solve_program(m, p, oracle, tol, max_iter)
    return ModulusResult(
        value=value,
        density=Density(space=space, values=rho_hat),
        p=p,
        weight_kind=_weight_kind(weight, edge_weight),
        iterations=iters,
        gap=gap,
        exact=bool(gap <= 10 * tol and not flags),
        flags=flags,
    )


# -- independent oracle ---------------------------------------------------------


def modulus_bruteforce(family: CurveFamily, p: float = 2.0, weight=None) -> float:
    """Oracle solver for explicit families: scipy SLSQP on the convex program,
    cross-checked against exact active-set KKT enumeration for p = 2 on small
    instances.  Limits: <= 20 edges on the support, <= 50 curves."""
    from scipy.optimize import minimize

    if family.curves is None:
        raise ValueError("bruteforce oracle requires an explicit family")
    space = family.space
    if len(family.curves) > 50:
        raise ValueError("bruteforce oracle limited to 50 curves")
    rows = [_curve_row(space, c.vertices) for c in family.curves]
    if not rows:
        return 0.0                    # rho = 0 is admissible for no curve
    if any(idx.size == 0 for idx, _c in rows):
        return math.inf
    support = sorted({int(e) for idx, _c in rows for e in idx})
    if len(support) > 20:
        raise ValueError("bruteforce oracle limited to 20 edges")
    pos = {e: k for k, e in enumerate(support)}
    m_full = edge_measures(space, weight)
    m = m_full[support]
    if np.any(m <= 0):
        raise ValidationError(["zero-measure edge on a family curve"])
    a_mat = np.zeros((len(rows), len(support)))
    for r, (idx, coef) in enumerate(rows):
        for e, c in zip(idx, coef):
            a_mat[r, pos[int(e)]] += c

    def obj(x):
        return float((m * np.maximum(x, 0.0) ** p).sum())

    def grad(x):
        return p * m * np.maximum(x, 0.0) ** (p - 1.0)

    x0 = np.full(len(support), 1.0 / a_mat.sum(axis=1).min())
    cons = [{"type": "ineq", "fun": lambda x, r=r: float(a_mat[r] @ x - 1.0),
             "jac": lambda x, r=r: a_mat[r]} for r in range(len(rows))]
    res = minimize(obj, x0, jac=grad, bounds=[(0.0, None)] * len(support),
                   constraints=cons, method="SLSQP",
                   options={"maxiter": 2000, "ftol": 1e-14})
    best = float(res.fun)
    feas = float((a_mat @ res.x).min())
    if feas < 1.0 - 1e-9:
        best = obj(res.x / feas)
    if p == 2.0 and len(rows) <= 12:
        exact = _active_set_qp(m, a_mat)
        if exact is not None:
            if abs(exact - best) > 1e-6 * max(1.0, exact):
                if exact <= best + 1e-9:
                    best = exact
                else:
                    raise AssertionError(
                        f"oracle self-check failed: SLSQP {best} vs KKT {exact}"
                    )
            else:
                best = exact
    return best


def _active_set_qp(m: np.ndarray, a_mat: np.ndarray) -> float | None:
    """Exact p=2 solution by enumerating active constraint subsets and
    verifying the KKT conditions."""
    n_rows = a_mat.shape[0]
    best = None
    for size in range(1, n_rows + 1):
        for subset in itertools.combinations(range(n_rows), size):
            a_s = a_mat[list(subset)]
            g = a_s @ (a_s / (2.0 * m)).T
            try:
                lam = np.linalg.solve(g, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-12):
                continue
            rho = (a_s.T @ lam) / (2.0 * m)
            if np.any(a_mat @ rho < 1.0 - 1e-9):
                continue
            val = float((m * rho ** 2).sum())
            if best is None or val < best:
                best = val
        if best is not None:
            return best
    return best


# -- derived operations ---------------------------------------------------------


def annulus_modulus(space: Space, center: str, r: float, s: float, p: float = 2.0,
                    weight=None) -> ModulusResult:
    """Modulus of the family connecting the shells {d <= r} and {d >= s}
    inside the closed ball of radius s (two-sided shell convention).  Shells
    that are empty or overlap give the value 0, flagged "degenerate"."""
    _check_exponent(p)
    c = space.i(center)
    d_row = space.dist[c]
    e_set = frozenset(int(k) for k in np.nonzero(d_row <= r + TOL)[0])
    carrier = frozenset(int(k) for k in np.nonzero(d_row <= s + TOL)[0])
    f_set = frozenset(int(k) for k in carrier if d_row[k] >= s - TOL)
    zero = Density(space=space, values=np.zeros(len(space.edges)))
    if not e_set or not f_set or (e_set & f_set):
        return ModulusResult(value=0.0, density=zero, p=p, weight_kind=_weight_kind(weight),
                             iterations=0, gap=0.0, exact=True, flags=("degenerate",))
    family = CurveFamily.connecting(space, e_set, f_set, carrier)
    return modulus(family, p=p, weight=weight)


def loewner_profile(space: Space, pairs: Sequence[tuple[Iterable, Iterable]],
                    q: float = 2.0, weight=None) -> list[dict]:
    """(zeta, Mod_Q) rows for pairs of continua: zeta = dist(E,F)/min diam."""
    out = []
    for e_set, f_set in pairs:
        e_idx = sorted(_idx(space, v) for v in e_set)
        f_idx = sorted(_idx(space, v) for v in f_set)
        de = diameter(space, e_idx)
        df = diameter(space, f_idx)
        gap = float(space.dist[np.ix_(e_idx, f_idx)].min())
        zeta = gap / min(de, df) if min(de, df) > 0 else math.inf
        res = modulus(CurveFamily.connecting(space, e_idx, f_idx), p=q, weight=weight)
        out.append({"zeta": zeta, "modulus": res.value, "flags": list(res.flags)})
    return out


def minimal_upper_gradient(space: Space, u: Mapping[str, float] | np.ndarray) -> Density:
    """g_e = |u(a) - u(b)| / len_e: the pointwise-minimal edge density with
    |u(end) - u(start)| <= int_gamma g ds for every curve."""
    uv = _vertex_array(space, u)
    u, v = space._ends.T
    return Density(space=space, values=np.abs(uv[u] - uv[v]) / space._lens)


# -- quasiregularity certificates ------------------------------------------------


def ko_certificate(vm: VertexMap, families: Sequence[CurveFamily], q: float = 2.0,
                   nu=None) -> Certificate:
    """K_O-inequality constant: max over sampled families of
    Mod_Q(Gamma) / Mod_Q(f(Gamma); N(y,f,Omega0) nu)."""
    nu_arr = _vertex_array(vm.target, nu)

    def weight(fam: CurveFamily) -> np.ndarray:
        carrier = fam.connect[2] if fam.connect is not None else frozenset(
            v for c in fam.curves for v in c.vertices)
        return np.bincount(vm.f[list(carrier)], minlength=vm.target.n) * nu_arr

    return _ratio_certificate("ko_inequality", vm, families, q, weight,
                              "image_weighted", image_over_source=False)


def ki_certificate(vm: VertexMap, families: Sequence[CurveFamily], q: float = 2.0) -> Certificate:
    """Poletsky constant: max over sampled families of Mod_Q(f(Gamma)) / Mod_Q(Gamma)."""
    return _ratio_certificate("ki_inequality", vm, families, q, lambda fam: None,
                              "image", image_over_source=True)


def _ratio_certificate(name: str, vm: VertexMap, families: Sequence[CurveFamily], q: float,
                       weight: Callable, image_key: str,
                       image_over_source: bool) -> Certificate:
    """Worst modulus ratio between each family and its image family, whose
    modulus is taken under ``weight(family)``."""
    rows = []
    worst = 0.0
    witness = None
    for k, fam in enumerate(families):
        src_mod = modulus(fam, p=q)
        m = edge_measures(vm.target, weight(fam))
        _rho, img_val, img_gap, _iters, img_flags = _solve_program(
            m, q, _family_oracle(fam, vm), TOL_DEFAULT, MAX_ITER_DEFAULT)
        ratio = (_safe_ratio(img_val, src_mod.value) if image_over_source
                 else _safe_ratio(src_mod.value, img_val))
        rows.append({"family": k, "source": src_mod.value, image_key: img_val,
                     "ratio": ratio, "gaps": [src_mod.gap, img_gap],
                     "flags": list(src_mod.flags) + list(img_flags)})
        if ratio > worst:
            worst = ratio
            witness = k
    return Certificate(name, passed=math.isfinite(worst), constant=worst,
                       witness=witness, details={"rows": rows, "q": q})


def _safe_ratio(a: float, b: float) -> float:
    if b <= 0:
        return math.inf if a > 0 else 0.0
    return a / b


def vaisala_certificate(vm: VertexMap, gamma: Sequence[Curve], gamma_prime: Sequence[Curve],
                        lifts: Sequence[Sequence[int]], m: int, q: float = 2.0,
                        k_bound: float | None = None) -> Certificate:
    """Väisälä inequality check: with m disjoint lifts per image curve,
    Mod_Q(Gamma') <= (K/m) Mod_Q(Gamma).

    ``lifts[j]`` lists indices into gamma of the m lifts of gamma_prime[j].
    The disjointness clause is verified combinatorially: distinct lifts must
    traverse pairwise distinct source edges at every shared image-edge step.
    """
    src, tgt = vm.source, vm.target

    def precondition(reason: str) -> Certificate:
        return Certificate("vaisala", False, flags=("precondition",), details={"reason": reason})

    for j, lift_ids in enumerate(lifts):
        if len(lift_ids) != m:
            return precondition(f"curve {j} has {len(lift_ids)} lifts, expected {m}")
        gp = gamma_prime[j].vertices
        offsets = []  # (lift, offset in gp, its source edges)
        for li in lift_ids:
            img = tuple(int(vm.f[v]) for v in gamma[li].vertices)
            if any(a == b for a, b in zip(img, img[1:])):
                return precondition(f"lift {li} collapses an edge")
            off = _subseq_offset(gp, img)
            if off is None:
                return precondition(f"lift {li} image is not a subcurve of curve {j}")
            offsets.append((li, off, gamma[li].edge_indices()))
        for (la, oa, ea), (lb, ob, eb) in itertools.combinations(offsets, 2):
            for t in range(len(gp) - 1):
                sa, sb = t - oa, t - ob
                if 0 <= sa < len(ea) and 0 <= sb < len(eb) and ea[sa] == eb[sb]:
                    return precondition(f"lifts {la},{lb} share an edge at step {t}")
    mod_lift = modulus(CurveFamily.explicit(src, gamma), p=q)
    mod_img = modulus(CurveFamily.explicit(tgt, gamma_prime), p=q)
    ratio = _safe_ratio(m * mod_img.value, mod_lift.value)
    passed = True if k_bound is None else ratio <= k_bound + TOL_DEFAULT
    return Certificate("vaisala", passed, constant=ratio,
                       details={"mod_gamma": mod_lift.value, "mod_gamma_prime": mod_img.value,
                                "m": m, "q": q, "k_bound": k_bound})


def _subseq_offset(haystack: tuple[int, ...], needle: tuple[int, ...]) -> int | None:
    n, h = len(needle), len(haystack)
    for off in range(h - n + 1):
        if haystack[off:off + n] == needle:
            return off
    return None


def analytic_qr_constant(vm: VertexMap, mu=None, nu=None, q: float = 2.0) -> Certificate:
    """Analytic quasiregularity constant: the discrete gradient is the max
    incident stretch d_Y(f(x), f(y))/len(x,y); K-hat = max over mu-positive
    vertices of grad^Q / J_f.  Vertices with J = 0 < grad give infinity.
    The details also give the max away from the branch set."""
    src = vm.source
    mu_arr = _vertex_array(src, mu)
    jf = jacobians(vm, mu_arr, nu)
    x, y = np.concatenate([src._ends, src._ends[:, ::-1]]).T  # each edge from each end
    grad = np.zeros(src.n)
    np.maximum.at(grad, x, vm.target.dist[vm.f[x], vm.f[y]] / np.tile(src._lens, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        khat = np.where(jf.jac > 0, grad ** q / jf.jac,
                        np.where(grad > 0, np.inf, 0.0))
    excl = branch_set(vm)
    k_all = max_over(khat, None, frozenset())
    k_pos = max_over(khat, mu_arr, frozenset())
    k_away = max_over(khat, mu_arr, excl)
    witness = src.ids[int(np.argmax(np.where(mu_arr > 0, khat, -1.0)))]
    return Certificate(
        "analytic_qr", passed=math.isfinite(k_pos), constant=k_pos, witness=witness,
        details={"max_over_all": k_all, "max_over_positive_mass": k_pos,
                 "max_away_from_excluded": k_away,
                 "excluded": sorted(src.ids[v] for v in excl), "q": q})


def max_over(vals: np.ndarray, mask_pos: np.ndarray | None, excl: frozenset[int]) -> float:
    keep = np.ones(len(vals), dtype=bool)
    if mask_pos is not None:
        keep &= mask_pos > 0
    if excl:
        keep[sorted(excl)] = False
    return float(vals[keep].max(initial=0.0))
