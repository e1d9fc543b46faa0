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
for the rho-cost d, one for the geometric length on the arcs where d is
tight with zero tolerance; a walk back over the curve's own vertices breaks
the remaining ties.  p = 2 uses cyclic closed-form half-space projections with
correction variables (Hildreth's method, equivalently Dykstra); p != 2 runs
cyclic exact coordinate maximization of the concave Lagrangian dual, with
exact primal recovery.  Results report a rigorous duality gap: the returned
density is admissible (scaled), its energy is an upper bound, the dual value
a lower bound on the true modulus.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, branch_set
from .measures import jacobians
from .spaces import Curve, Space, ValidationError, _idx, _vertex_array, diameter

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


@dataclass(frozen=True)
class Density:
    """Nonnegative edge density; line integrals are sum(rho_e * len_e)."""

    space: Space
    values: np.ndarray  # (n_edges,)

    def __post_init__(self):
        self.values.setflags(write=False)

    def line_integral(self, curve: Curve) -> float:
        lens = np.array([self.space.edge_length(e) for e in curve.edge_indices()])
        vals = np.array([self.values[e] for e in curve.edge_indices()])
        return float((lens * vals).sum()) if lens.size else 0.0


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
    reported value sum(w_e rho_e^p len_e).
    """
    if edge_weight is not None:
        if isinstance(edge_weight, np.ndarray):
            w_e = edge_weight.astype(float)
        else:
            w_e = np.array([
                float(edge_weight[(space.ids[i], space.ids[j])]) for i, j, _ln in space.edges
            ])
        return w_e * np.array([ln for _i, _j, ln in space.edges])
    w = _vertex_array(space, weight)
    return np.array([(w[i] + w[j]) / 2.0 for i, j, _ln in space.edges])


# -- constraint rows and oracles ----------------------------------------------

Row = tuple[np.ndarray, np.ndarray]  # (edge indices, coefficients)


def _curve_row(space: Space, verts: Sequence[int], f: np.ndarray | None = None) -> Row:
    """Constraint row of a vertex path over the edges of ``space``; given a
    vertex map ``f`` into ``space``, of the image path f ∘ gamma, with
    collapsed steps contributing nothing."""
    if f is not None:
        verts = [int(f[v]) for v in verts]
    coeffs: dict[int, float] = {}
    for a, b in zip(verts, verts[1:]):
        if a != b:
            e = space.edge_index[(a, b)]
            coeffs[e] = coeffs.get(e, 0.0) + space.edge_length(e)
    idx = np.array(sorted(coeffs), dtype=int)
    return idx, np.array([coeffs[e] for e in idx])


def _walk_back(targets: np.ndarray, d: np.ndarray, ln: np.ndarray, rank: np.ndarray,
               arc_u: np.ndarray, arc_w: np.ndarray, indptr: np.ndarray,
               arc_cost: np.ndarray, arc_len: np.ndarray) -> list[int] | None:
    """The curve, from its end back to E, that a heap search from E keyed by
    (d, ln, rank) returns, read off its final labels d and ln; None if no
    target is reached.  The search reaches every vertex with a finite
    label, also one whose cost overflows to d = inf.  Row w of the arcs
    (sorted by u, with ``indptr``) holds w's out-arcs, whose reverses, of
    equal cost and length, are its in-arcs.

    The search returns the first target it pops, and it sets the predecessor
    of a vertex w once, to the first vertex popped among the in-neighbours u
    on which both labels are tight, d[u] + c == d[w] and ln[u] + len == ln[w].
    Labels pop in increasing order, so an in-neighbour of a smaller label wins
    over one of w's own label, and the vertices of one label pop in rank
    order, unless a length vanishes in a float sum, ln + len == ln, as every
    length does once ln has overflowed to inf.  Then a tight arc can join two
    vertices of one label, and they pop as a search by rank that starts at
    those with ln = 0 or a predecessor of smaller label and enters the others
    along such arcs.  Each predecessor pops before its vertex, so the walk
    ends.
    """
    def into(w: int) -> np.ndarray:
        nb = slice(indptr[w], indptr[w + 1])
        u = arc_w[nb]
        return u[(d[u] + arc_cost[nb] == d[w]) & (ln[u] + arc_len[nb] == ln[w])]

    def entry(v: int) -> bool:
        """v is a source, or has a tight in-neighbour of a smaller label."""
        u = into(v)
        return ln[v] == 0.0 or bool(((d[u] != d[v]) | (ln[u] != ln[v])).any())

    turns: dict[tuple[float, float], dict[int, int]] = {}

    def turn(v: int) -> int:
        """v's place in the pop order of the vertices of its label."""
        label = (d[v], ln[v])
        if label not in turns:
            order = turns[label] = {}
            members = np.flatnonzero((d == label[0]) & (ln == label[1]))
            front = sorted((-rank[m], m) for m in members if entry(m))
            seen = {m for _r, m in front}
            while front:
                x = front.pop()[1]
                order[x] = len(order)
                nb = slice(indptr[x], indptr[x + 1])
                y = arc_w[nb]
                hop = ((d[y] == label[0]) & (ln[y] == label[1])
                       & (label[0] + arc_cost[nb] == label[0]) & (label[1] + arc_len[nb] == label[1]))
                for z in y[hop]:
                    if z not in seen:
                        seen.add(z)
                        bisect.insort(front, (-rank[z], z))
        return turns[label][v]

    lu = ln[arc_u]
    flat = bool(np.any((lu + arc_len == lu) & (np.minimum(d[arc_u], lu) < math.inf)))

    def first(vs: np.ndarray) -> int:
        vs = vs[np.lexsort((rank[vs], ln[vs], d[vs]))]
        if not flat:
            return int(vs[0])
        return int(min(vs[(d[vs] == d[vs[0]]) & (ln[vs] == ln[vs[0]])], key=turn))

    if np.all((d[targets] == math.inf) & (ln[targets] == math.inf)):
        return None
    path = [first(targets)]
    while ln[path[-1]] != 0.0:  # a positive length keeps ln > 0 off E
        path.append(first(into(path[-1])))
    return path


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
    The end vertex is the F vertex least in (d, ln, rank), and the walk back
    steps to the in-neighbour least in (d, ln, rank) among those on which
    both labels are tight; where a length vanishes in a float sum, the walk
    takes the vertex the heap search would have popped first (``_walk_back``).
    The value returned is d at the end vertex, the curve's own sequential
    rho-length.
    """
    src = family.space
    tgt, f = (src, np.arange(src.n)) if vm is None else (vm.target, vm.f)
    if family.curves is not None:
        rows = [_curve_row(tgt, c.vertices, f) for c in family.curves]

        def scan(rho: np.ndarray):
            vals = [float(rho[idx] @ coef) if idx.size else 0.0 for idx, coef in rows]
            k = int(np.argmin(vals))
            return vals[k], rows[k]

        return scan
    pull_e = np.full(len(src.edges), -1, dtype=int)
    pull_len = np.zeros(len(src.edges))
    for e, (i, j, _ln) in enumerate(src.edges):
        fi, fj = int(f[i]), int(f[j])
        if fi != fj:
            te = tgt.edge_index[(fi, fj)]
            pull_e[e] = te
            pull_len[e] = tgt.edge_length(te)
    e_set, f_set, carrier = family.connect
    rank = np.argsort(np.argsort(np.array(src.ids)))
    sources = sorted(e_set & carrier)
    targets = np.array(sorted(f_set & carrier), dtype=int)
    # both arcs of every edge inside the carrier, sorted by (u, w): row w of
    # the CSR lists the in-arcs of w as well, since the arcs come in pairs
    edges = np.array(src.edges, dtype=float).reshape(-1, 3)
    ends, length = edges[:, :2].astype(int), edges[:, 2]
    inside = np.zeros(src.n, dtype=bool)
    inside[np.fromiter(carrier, dtype=int)] = True
    keep = np.flatnonzero(inside[ends[:, 0]] & inside[ends[:, 1]])
    arc_u = np.concatenate([ends[keep, 0], ends[keep, 1]])
    arc_w = np.concatenate([ends[keep, 1], ends[keep, 0]])
    arc_e = np.concatenate([keep, keep])
    order = np.lexsort((arc_w, arc_u))
    arc_u, arc_w, arc_e = arc_u[order], arc_w[order], arc_e[order]
    arc_len = length[arc_e]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(arc_u, minlength=src.n))])
    # explicit zeros stay arcs: the CSR is built from its parts and its data
    # only ever refilled, never pruned
    g = csr_matrix((np.zeros(arc_u.size), arc_w, indptr), shape=(src.n, src.n))

    def search(rho: np.ndarray):
        cost = np.where(pull_e >= 0, rho[np.maximum(pull_e, 0)] * pull_len, 0.0)
        arc_cost = cost[arc_e]
        g.data[:] = arc_cost
        d = dijkstra(g, indices=sources, min_only=True)
        tight = d[arc_u] + arc_cost == d[arc_w]
        g.data[:] = np.where(tight, arc_len, math.inf)
        ln = dijkstra(g, indices=sources, min_only=True)

        path = _walk_back(targets, d, ln, rank, arc_u, arc_w, indptr, arc_cost, arc_len)
        if path is None:
            return math.inf, None
        return float(d[path[0]]), _curve_row(tgt, path[::-1], f)

    return search


# -- inner solvers -------------------------------------------------------------


def _dual_value(m: np.ndarray, p: float, s: np.ndarray, lam_total: float) -> float:
    rho = _rho_of(m, p, s)
    return lam_total - (p - 1.0) * float((m * rho ** p).sum())


def _rho_of(m: np.ndarray, p: float, s: np.ndarray) -> np.ndarray:
    # edges never touched by a constraint keep rho = 0, even at measure 0
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(s > 0.0, s / (p * m), 0.0)
    return base ** (1.0 / (p - 1.0))


def _hildreth(m, rows, lam, s, inner_tol, budget):
    """Cyclic closed-form half-space projections with corrections (p = 2)."""
    q = [float((coef * coef / (2.0 * m[idx])).sum()) for idx, coef in rows]
    used = 0
    for _sweep in range(max(1, budget // max(1, len(rows)))):
        worst = 0.0
        for r, (idx, coef) in enumerate(rows):
            rho_r = s[idx] / (2.0 * m[idx])
            viol = 1.0 - float(rho_r @ coef)
            delta = viol / q[r]
            if delta < -lam[r]:
                delta = -lam[r]
            if delta != 0.0:
                lam[r] += delta
                s[idx] += delta * coef
            resid = abs(viol) if lam[r] > 1e-300 else max(0.0, viol)
            worst = max(worst, resid)
            used += 1
        if worst <= inner_tol:
            break
    return used


def _dual_ascent(m, p, rows, lam, s, inner_tol, budget):
    """Cyclic exact coordinate maximization of the Lagrangian dual (p != 2):
    each coordinate's 1-d concave problem is solved by bracketed Newton."""
    used = 0
    q = 1.0 / (p - 1.0)
    prev_worst = math.inf
    stall = 0
    for _sweep in range(max(1, budget // max(1, len(rows)))):
        worst = 0.0
        for r, (idx, coef) in enumerate(rows):
            mr = p * m[idx]
            s_other = s[idx] - lam[r] * coef

            def slack(t):
                rho = (np.maximum(s_other + t * coef, 0.0) / mr) ** q
                return 1.0 - float(rho @ coef)

            def dslack(t):
                base = np.maximum(s_other + t * coef, 0.0) / mr
                return -float((coef * coef / mr * q * base ** (q - 1.0)).sum())

            g0 = slack(lam[r])
            resid = abs(g0) if lam[r] > 1e-300 else max(0.0, g0)
            worst = max(worst, resid)
            used += 1
            if resid <= 0.25 * inner_tol:
                continue
            if g0 > 0.0:
                lo = lam[r]
                hi = max(2.0 * lam[r], 1e-9)
                while slack(hi) > 0.0 and hi < 1e18:
                    lo = hi
                    hi *= 4.0
            else:
                if slack(0.0) <= 0.0:
                    s[idx] = s_other
                    lam[r] = 0.0
                    continue
                lo, hi = 0.0, lam[r]
            t = 0.5 * (lo + hi)
            for _newton in range(40):
                g = slack(t)
                if g > 0.0:
                    lo = t
                else:
                    hi = t
                if abs(g) <= 1e-15 or hi - lo <= 1e-15 * max(1.0, hi):
                    break
                d = dslack(t)
                t_n = t - g / d if d < 0 else 0.5 * (lo + hi)
                t = t_n if lo < t_n < hi else 0.5 * (lo + hi)
            s[idx] = s_other + t * coef
            lam[r] = t
        if worst <= inner_tol:
            break
        if worst >= prev_worst * 0.999:
            stall += 1
            if stall >= 40:
                break
        else:
            stall = 0
        prev_worst = worst
    return used


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
    if p <= 1:
        raise ValueError("modulus requires p > 1")
    n_e = m.shape[0]
    rho0 = np.zeros(n_e)
    first_val, first_row = oracle(rho0)
    if first_row is None:
        return rho0, 0.0, 0.0, 0, ("empty family",)
    if first_row[0].size == 0:
        return rho0, math.inf, math.inf, 0, ("constant curve member",)
    rows: list[Row] = []
    lam = np.zeros(0)
    s = np.zeros(n_e)
    sigs: set[bytes] = set()
    iterations = 0
    flags: list[str] = []
    inner_tol = max(min(tol, 1e-6) * 1e-2, 1e-10)
    val, row = first_val, first_row
    while True:
        if row is not None:
            for e in row[0]:
                if m[int(e)] <= 0:
                    raise ValidationError(
                        ["zero-measure edge on a family curve; modulus undefined"]
                    )
            sig = row[0].tobytes() + row[1].tobytes()
            if sig in sigs:
                flags.append("stalled")
                break
            sigs.add(sig)
            rows.append(row)
            lam = np.append(lam, 0.0)
        budget = max(1000, max_iter - iterations)
        if p == 2.0:
            iterations += _hildreth(m, rows, lam, s, inner_tol, budget)
        else:
            iterations += _dual_ascent(m, p, rows, lam, s, inner_tol, budget)
        val, row = oracle(_rho_of(m, p, s))
        if val >= 1.0 - tol:
            break
        if iterations >= max_iter:
            flags.append("iteration cap")
            break
    rho = _rho_of(m, p, s)
    if val <= 0:
        return rho, math.inf, math.inf, iterations, tuple(flags + ["no admissible scaling"])
    rho_hat = rho / val
    value = float((m * rho_hat ** p).sum())
    dual = _dual_value(m, p, s, float(np.sum(lam)))
    gap = max(0.0, value - dual)
    return rho_hat, value, gap, iterations, tuple(flags)


def modulus(
    family: CurveFamily,
    p: float = 2.0,
    weight=None,
    tol: float = 1e-6,
    max_iter: int = 100_000,
    edge_weight=None,
) -> ModulusResult:
    """Mod_p of the family: inf of sum(m_e rho_e^p) over admissible densities."""
    space = family.space
    m = edge_measures(space, weight, edge_weight)
    oracle = _family_oracle(family)
    rho_hat, value, gap, iters, flags = _solve_program(m, p, oracle, tol, max_iter)
    kind = "masses" if weight is None and edge_weight is None else (
        "vertex" if edge_weight is None else "edge")
    return ModulusResult(
        value=value,
        density=Density(space=space, values=rho_hat),
        p=p,
        weight_kind=kind,
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
                    weight=None, tol: float = 1e-6) -> ModulusResult:
    """Modulus of the family connecting the shells {d <= r} and {d >= s}
    inside the closed ball of radius s (two-sided shell convention)."""
    c = space.i(center)
    d_row = space.dist[c]
    e_set = frozenset(int(k) for k in np.nonzero(d_row <= r + TOL)[0])
    carrier = frozenset(int(k) for k in np.nonzero(d_row <= s + TOL)[0])
    f_set = frozenset(int(k) for k in carrier if d_row[k] >= s - TOL)
    zero = Density(space=space, values=np.zeros(len(space.edges)))
    if not e_set or not f_set or (e_set & f_set):
        return ModulusResult(value=0.0, density=zero, p=p, weight_kind="masses",
                             iterations=0, gap=0.0, exact=True, flags=("degenerate",))
    family = CurveFamily.connecting(space, e_set, f_set, carrier)
    return modulus(family, p=p, weight=weight, tol=tol)


def loewner_profile(space: Space, pairs: Sequence[tuple[Iterable, Iterable]],
                    q: float = 2.0, weight=None, tol: float = 1e-6) -> list[dict]:
    """(zeta, Mod_Q) rows for pairs of continua: zeta = dist(E,F)/min diam."""
    out = []
    for e_set, f_set in pairs:
        e_idx = sorted(_idx(space, v) for v in e_set)
        f_idx = sorted(_idx(space, v) for v in f_set)
        de = diameter(space, e_idx)
        df = diameter(space, f_idx)
        gap = float(space.dist[np.ix_(e_idx, f_idx)].min())
        zeta = gap / min(de, df) if min(de, df) > 0 else math.inf
        res = modulus(CurveFamily.connecting(space, e_idx, f_idx), p=q,
                      weight=weight, tol=tol)
        out.append({"zeta": zeta, "modulus": res.value, "flags": list(res.flags)})
    return out


def minimal_upper_gradient(space: Space, u: Mapping[str, float] | np.ndarray) -> Density:
    """g_e = |u(a) - u(b)| / len_e: the pointwise-minimal edge density with
    |u(end) - u(start)| <= int_gamma g ds for every curve."""
    uv = _vertex_array(space, u)
    vals = np.array([abs(uv[i] - uv[j]) / ln for i, j, ln in space.edges])
    return Density(space=space, values=vals)


# -- quasiregularity certificates ------------------------------------------------


def ko_certificate(vm: VertexMap, families: Sequence[CurveFamily], q: float = 2.0,
                   nu=None, tol: float = 1e-6) -> Certificate:
    """K_O-inequality constant: max over sampled families of
    Mod_Q(Gamma) / Mod_Q(f(Gamma); N(y,f,Omega0) nu)."""
    nu_arr = _vertex_array(vm.target, nu)

    def weight(fam: CurveFamily) -> np.ndarray:
        carrier = fam.connect[2] if fam.connect is not None else frozenset(
            v for c in fam.curves for v in c.vertices)
        counts = np.zeros(vm.target.n)
        for v in carrier:
            counts[int(vm.f[v])] += 1.0
        return counts * nu_arr

    return _ratio_certificate("ko_inequality", vm, families, q, tol, weight,
                              "image_weighted", image_over_source=False)


def ki_certificate(vm: VertexMap, families: Sequence[CurveFamily], q: float = 2.0,
                   nu=None, tol: float = 1e-6) -> Certificate:
    """Poletsky constant: max over sampled families of Mod_Q(f(Gamma)) / Mod_Q(Gamma)."""
    return _ratio_certificate("ki_inequality", vm, families, q, tol, lambda fam: None,
                              "image", image_over_source=True)


def _ratio_certificate(name: str, vm: VertexMap, families: Sequence[CurveFamily], q: float,
                       tol: float, weight: Callable, image_key: str,
                       image_over_source: bool) -> Certificate:
    """Worst modulus ratio between each family and its image family, whose
    modulus is taken under ``weight(family)``."""
    rows = []
    worst = 0.0
    witness = None
    for k, fam in enumerate(families):
        src_mod = modulus(fam, p=q, tol=tol)
        img_val, img_gap, img_flags = _image_modulus(vm, fam, q, weight(fam), tol)
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


def _image_modulus(vm: VertexMap, family: CurveFamily, q: float, weight, tol: float):
    m = edge_measures(vm.target, weight)
    oracle = _family_oracle(family, vm)
    _rho, value, gap, _iters, flags = _solve_program(m, q, oracle, tol, 100_000)
    return value, gap, flags


def _safe_ratio(a: float, b: float) -> float:
    if b <= 0:
        return math.inf if a > 0 else 0.0
    return a / b


def vaisala_certificate(vm: VertexMap, gamma: Sequence[Curve], gamma_prime: Sequence[Curve],
                        lifts: Sequence[Sequence[int]], m: int, q: float = 2.0,
                        k_bound: float | None = None, tol: float = 1e-6) -> Certificate:
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
        offsets = []
        for li in lift_ids:
            lv = gamma[li].vertices
            img = tuple(int(vm.f[v]) for v in lv)
            if any(a == b for a, b in zip(img, img[1:])):
                return precondition(f"lift {li} collapses an edge")
            off = _subseq_offset(gp, img)
            if off is None:
                return precondition(f"lift {li} image is not a subcurve of curve {j}")
            offsets.append((li, off))
        for (la, oa), (lb, ob) in itertools.combinations(offsets, 2):
            va, vb = gamma[la].vertices, gamma[lb].vertices
            for t in range(len(gp) - 1):
                sa, sb = t - oa, t - ob
                if 0 <= sa < len(va) - 1 and 0 <= sb < len(vb) - 1:
                    ea = src.edge_index[(va[sa], va[sa + 1])]
                    eb = src.edge_index[(vb[sb], vb[sb + 1])]
                    if ea == eb:
                        return precondition(f"lifts {la},{lb} share an edge at step {t}")
    mod_lift = modulus(CurveFamily.explicit(src, gamma), p=q, tol=tol)
    mod_img = modulus(CurveFamily.explicit(tgt, gamma_prime), p=q, tol=tol)
    ratio = _safe_ratio(m * mod_img.value, mod_lift.value)
    passed = True if k_bound is None else ratio <= k_bound + tol
    return Certificate("vaisala", passed, constant=ratio,
                       details={"mod_gamma": mod_lift.value, "mod_gamma_prime": mod_img.value,
                                "m": m, "q": q, "k_bound": k_bound})


def _subseq_offset(haystack: tuple[int, ...], needle: tuple[int, ...]) -> int | None:
    n, h = len(needle), len(haystack)
    for off in range(h - n + 1):
        if haystack[off:off + n] == needle:
            return off
    return None


def analytic_qr_constant(vm: VertexMap, mu=None, nu=None, q: float = 2.0,
                         exclude: Iterable[int] | None = None) -> Certificate:
    """Analytic quasiregularity constant: the discrete gradient is the max
    incident stretch d_Y(f(x), f(y))/len(x,y); K-hat = max over mu-positive
    vertices of grad^Q / J_f.  Vertices with J = 0 < grad give infinity."""
    src = vm.source
    mu_arr = _vertex_array(src, mu)
    jf = jacobians(vm, mu_arr, nu)
    grad = np.zeros(src.n)
    for v in range(src.n):
        best = 0.0
        for w, e in src.adj[v]:
            best = max(best, vm.image_dist(v, w) / src.edge_length(e))
        grad[v] = best
    with np.errstate(divide="ignore", invalid="ignore"):
        khat = np.where(jf.jac > 0, grad ** q / jf.jac,
                        np.where(grad > 0, np.inf, 0.0))
    excl = frozenset(int(v) for v in exclude) if exclude is not None else branch_set(vm)
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
