"""Bi-Lipschitz embedding of the source of a finite-multiplicity 1-BDD map
into target x R^(c_d (N-1)).

Pipeline: normalize through the pullback (source gets the exact pullback
metric, target its bounded-turning metric, making the map 1-BDD between
1-bounded-turning spaces); per multiplicity level k choose radii R^k from
the component-count transitions of preimages of balls; pick a separated net,
color it so inflated balls are disjoint within a class, label fiber sheets,
and sum tent functions of the inflated normal neighborhoods into
coordinates.  Every quantitative step of the construction is re-checked on
the instance and reported.

phi is computed for all vertices at once, one (n, c_d (N-1)) array, and
every pairwise check (injectivity, distortion, the fiber report and the
composition bound) reads one table of the source pairs at positive
distance: indices, d, d_Y of the images and the phi gap.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, _fibre_sweeps, _u_levels, max_multiplicity
from .dilatation import bdd_verify
from .generators import identity_map
from .pullback import EXACT_CAP_DEFAULT, pullback_metric_exact
from .spaces import Space, ValidationError, _idx, _with_metric

__all__ = [
    "EmbeddingPlan",
    "EmbeddingResult",
    "normalize_for_embedding",
    "rk_radii",
    "build_net",
    "color_net",
    "assign_labels",
    "build_plan",
    "phi",
    "embed",
    "fiber_scale_check",
    "composition_bound_check",
]


def _bt_space(space: Space, cap: int) -> Space:
    """The bounded-turning normalization: distances become the smallest
    diameter of a connecting continuum (identity pullback); path-metric
    spaces are already 1-bounded-turning."""
    if space.is_path_metric:
        return space
    return _with_metric(space, pullback_metric_exact(identity_map(space), cap=cap))


def normalize_for_embedding(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> VertexMap:
    """Recast f over the 1-BT target metric and the exact pullback source
    metric, making it 1-BDD; masses are untouched."""
    target_bt = _bt_space(vm.target, cap)
    vm_bt = VertexMap(source=vm.source, target=target_bt, f=vm.f.copy(), check=False)
    source_n = _with_metric(vm.source, pullback_metric_exact(vm_bt, cap=cap))
    return VertexMap(source=source_n, target=target_bt, f=vm.f.copy(), check=False)


def rk_radii(vm: VertexMap, k: int) -> tuple[dict[str, float], dict[str, list[float]]]:
    """R^k(y): the smallest transition value R (on the d/5 grid of realized
    target distances from y) at which the preimage of the 5R-ball has at
    most k components.  Returns (radii, per-vertex transition grids).
    Raises ValueError unless k is an integer >= 1.

    The preimage of the closed ball of radius d is {v : key[v] <= d + TOL}
    with key = d_Y(y, f(.)); its components number its size minus the edges
    of weight <= d + TOL in the spanning forest of y's fibre sweep (a sweep
    that spans the source opens the same edges whatever its centres)."""
    try:
        counts = operator.index(k) >= 1
    except TypeError:  # inf, nan, 2.5: not a count
        counts = False
    if not counts:  # k <= 0 would return the last grid value everywhere
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    images, firsts = np.unique(vm.f, return_index=True)
    forests = {y: forest for y, (_ks, _vals, forest)
               in zip(images.tolist(), _fibre_sweeps(vm, firsts.tolist()))}
    return _rk_radii(vm, k, forests)


def _rk_radii(vm: VertexMap, k: int, forests: Mapping[int, np.ndarray]):
    """``rk_radii`` from the spanning forest of each occupied target vertex's
    fibre sweep, in ``forests`` by that vertex."""
    tgt = vm.target
    radii: dict[str, float] = {}
    grids: dict[str, list[float]] = {}
    for y in np.unique(vm.f).tolist():
        key = tgt.dist[y][vm.f]
        dvals = [0.0] + [float(v) for v in np.unique(tgt.dist[y]) if v > TOL]
        grid = [d / 5.0 for d in dvals]
        grids[tgt.ids[y]] = grid
        ends = forests[y]
        closed = np.array(dvals)[:, None] + TOL
        weight = np.maximum(key[ends[:, 0]], key[ends[:, 1]])
        count = (key <= closed).sum(axis=1) - (weight <= closed).sum(axis=1)
        hit = np.flatnonzero(count <= k)
        radii[tgt.ids[y]] = grid[hit[0]] if hit.size else grid[-1]
    return radii, grids


def build_net(vm: VertexMap, k: int, rk: Mapping[str, float] | None = None) -> list[str]:
    """Greedy maximal subset of Y^k with d(y, y') >= R^k(y)/2, insertion by
    decreasing R^k then vertex id; covers Y^k with the balls B(y, R^k(y))."""
    tgt = vm.target
    if rk is None:
        rk, _g = rk_radii(vm, k)
    yk = [y for y in range(tgt.n) if rk[tgt.ids[y]] > TOL]
    order = sorted(yk, key=lambda y: (-rk[tgt.ids[y]], tgt.ids[y]))
    net: list[int] = []
    for y in order:
        ok = True
        for y2 in net:
            sep = max(rk[tgt.ids[y]], rk[tgt.ids[y2]]) / 2.0
            if tgt.dist[y, y2] < sep - TOL:
                ok = False
                break
        if ok:
            net.append(y)
    # coverage invariant
    for y in yk:
        if not any(tgt.dist[y, y2] < rk[tgt.ids[y2]] - TOL or y == y2 for y2 in net):
            raise AssertionError(f"net fails to cover {tgt.ids[y]}")
    return [tgt.ids[y] for y in net]


def color_net(vm: VertexMap, k: int, net: Sequence[str] | None = None,
              rk: Mapping[str, float] | None = None) -> tuple[list[list[str]], int]:
    """Greedy coloring of the intersection graph of the inflated balls
    {2B^k_y}: within a class the inflated balls are pairwise disjoint.
    Returns (classes, number of colors used)."""
    tgt = vm.target
    if rk is None:
        rk, _g = rk_radii(vm, k)
    if net is None:
        net = build_net(vm, k, rk)
    # inflated open balls intersect iff some vertex is in both
    radii = np.array([2.0 * rk[y] for y in net])
    balls = tgt.dist[[tgt.i(y) for y in net]] < radii[:, None] - TOL
    meets = np.dot(balls, balls.T)
    order = sorted(range(len(net)), key=lambda a: (-rk[net[a]], net[a]))
    color: dict[int, int] = {}
    for a in order:
        taken = {c for b, c in color.items() if meets[a, b]}
        color[a] = next(c for c in range(len(net) + 1) if c not in taken)
    used = max(color.values(), default=-1) + 1
    classes: list[list[str]] = [[] for _ in range(used)]
    for a in range(len(net)):
        classes[color[a]].append(net[a])
    return [sorted(c) for c in classes], used


def assign_labels(vm: VertexMap, y_net: str, r_k: float) -> tuple[dict[str, int], list[frozenset[int]]]:
    """Labels 1..N on the fiber over a net point: equal labels iff the
    inflated neighborhoods 2U coincide; component order by smallest member
    vertex id.  Returns (labels, distinct 2U sets in label order)."""
    fib = sorted(vm.fiber(y_net))
    return _labels(vm, fib, _u_levels(vm, fib), r_k)


def _labels(vm: VertexMap, fib: list[int], levels: np.ndarray,
            r_k: float) -> tuple[dict[str, int], list[frozenset[int]]]:
    """``assign_labels`` on the sorted fibre ``fib`` from its level rows."""
    sets: list[frozenset[int]] = []
    labels: dict[str, int] = {}
    for x, level in zip(fib, levels):
        u2 = frozenset(np.flatnonzero(level < 2.0 * r_k - TOL).tolist())
        try:
            lab = next(i for i, s in enumerate(sets) if s == u2) + 1
        except StopIteration:
            sets.append(u2)
            lab = len(sets)
        labels[vm.source.ids[x]] = lab
    return labels, sets


@dataclass(frozen=True, eq=False)
class EmbeddingPlan:
    vm: VertexMap                 # normalized map
    n_mult: int
    c_d: int
    rk: dict[int, dict[str, float]]
    grids: dict[int, dict[str, list[float]]]
    nets: dict[int, list[str]]
    classes: dict[int, list[list[str]]]
    labels: dict[int, dict[str, dict[str, int]]]       # k -> net point -> vertex -> label
    neighborhoods: dict[int, dict[str, list[frozenset[int]]]]  # k -> net point -> 2U sets


def build_plan(vm_norm: VertexMap) -> EmbeddingPlan:
    n_mult = max_multiplicity(vm_norm)
    rk: dict[int, dict[str, float]] = {}
    grids: dict[int, dict[str, list[float]]] = {}
    nets: dict[int, list[str]] = {}
    classes: dict[int, list[list[str]]] = {}
    labels: dict[int, dict[str, dict[str, int]]] = {}
    nbhd: dict[int, dict[str, list[frozenset[int]]]] = {}
    c_d = 0
    # one sweep per fibre serves every level k: its forest the radii, its rows the labels
    n = vm_norm.source.n
    level, forests = np.empty((n, n)), {}
    for ks, vals, forest in _fibre_sweeps(vm_norm, range(n)):
        level[ks] = vals
        forests[int(vm_norm.f[ks[0]])] = forest
    for k in range(1, n_mult):
        rk[k], grids[k] = _rk_radii(vm_norm, k, forests)
        nets[k] = build_net(vm_norm, k, rk[k])
        classes[k], used = color_net(vm_norm, k, nets[k], rk[k])
        c_d = max(c_d, used)
        labels[k] = {}
        nbhd[k] = {}
        for y in nets[k]:
            fib = sorted(vm_norm.fiber(y))
            labels[k][y], nbhd[k][y] = _labels(vm_norm, fib, level[fib], rk[k][y])
    return EmbeddingPlan(vm=vm_norm, n_mult=n_mult, c_d=c_d, rk=rk, grids=grids,
                         nets=nets, classes=classes, labels=labels, neighborhoods=nbhd)


def _coordinates(plan: EmbeddingPlan) -> np.ndarray:
    """phi for every source vertex: row x is phi(plan, x).  Each inflated
    neighborhood V adds label(V) * min(d*(x, complement of V), R^k) to the
    rows x inside V, in (net point, V) order; outside V, d(x, complement)
    is 0."""
    vm = plan.vm
    src = vm.source
    out = np.zeros((src.n, plan.c_d * max(0, plan.n_mult - 1)))
    for k in range(1, plan.n_mult):
        for j, cls in enumerate(plan.classes[k]):
            slot = (k - 1) * plan.c_d + j
            for y in cls:
                fib = vm.fiber(y)
                for v_set in plan.neighborhoods[k][y]:
                    label = plan.labels[k][y][src.ids[min(v_set & fib)]]
                    inside = np.zeros(src.n, dtype=bool)
                    inside[list(v_set)] = True
                    d_out = src.dist[np.ix_(inside, ~inside)].min(axis=1, initial=math.inf)
                    out[inside, slot] += label * np.minimum(d_out, plan.rk[k][y])
    return out


def phi(plan: EmbeddingPlan, x: int | str) -> np.ndarray:
    """Coordinate vector of length c_d * (N - 1); slot (k, j) sums, over the
    class-j net points and the distinct inflated neighborhoods V over their
    fibers, label(V) * min(d*(x, complement of V), R^k)."""
    return _coordinates(plan)[_idx(plan.vm.source, x)]


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    plan: EmbeddingPlan | None
    coords: dict[str, np.ndarray]
    image: dict[str, str]
    injective: bool
    lower: float
    upper: float
    fiber_report: list[dict]
    phi_lipschitz: float
    fiber_lower: float


def _pairs(vm: VertexMap, coords: np.ndarray) -> tuple[np.ndarray, ...]:
    """The source pairs a < b with d(a, b) > TOL in row-major order, as
    arrays (a, b, d, d_Y(f a, f b), max coordinate difference of phi)."""
    src = vm.source
    a, b = np.triu_indices(src.n, 1)
    dn = src.dist[a, b]
    keep = dn > TOL
    a, b, dn = a[keep], b[keep], dn[keep]
    dy = vm.target.dist[vm.f[a], vm.f[b]]
    dphi = np.abs(coords[a] - coords[b]).max(axis=1, initial=0.0)
    return a, b, dn, dy, dphi


def embed(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> EmbeddingResult:
    """Full pipeline; distortion of psi = f x phi is measured over all pairs
    under max(d_target, max coordinate difference) against the normalized
    source metric."""
    vm_n = normalize_for_embedding(vm, cap=cap)
    bdd = bdd_verify(vm_n, bound=1.0, curve_budget=3, n_random=30)
    if not bdd.passed:
        raise ValidationError(
            [f"normalized map is not 1-BDD (constant {bdd.constant}); embedding precondition fails"]
        )
    src = vm_n.source
    plan = build_plan(vm_n) if max_multiplicity(vm_n) > 1 else None
    phis = _coordinates(plan) if plan is not None else np.zeros((src.n, 0))
    a, b, dn, dy, dphi = _pairs(vm_n, phis)
    dpsi = np.maximum(dy, dphi)
    ratio = dpsi / dn
    lower = float(ratio.min(initial=math.inf))
    fiber = dy <= TOL
    fiber_lower = float((dphi[fiber] / dn[fiber]).min(initial=math.inf))
    fiber_report = [
        {"pair": [src.ids[i], src.ids[j]], "distance": d, "phi_gap": g,
         "twelve_rule": d <= 12.0 * g + TOL}
        for i, j, d, g in zip(a[fiber].tolist(), b[fiber].tolist(),
                              dn[fiber].tolist(), dphi[fiber].tolist())
    ]
    return EmbeddingResult(
        plan=plan,
        coords={src.ids[x]: phis[x] for x in range(src.n)},
        image={v: vm_n.apply(v) for v in src.ids},
        injective=not np.any(dpsi <= TOL),
        lower=lower if math.isfinite(lower) else 1.0,
        upper=float(ratio.max(initial=0.0)),
        fiber_report=fiber_report,
        phi_lipschitz=float((dphi / dn).max(initial=0.0)),
        fiber_lower=fiber_lower if math.isfinite(fiber_lower) else 1.0,
    )


def fiber_scale_check(plan: EmbeddingPlan) -> Certificate:
    """For every fiber pair x1 != x2 over y, exhibit k with
    d(x1,x2)/2 <= 5 R^k(y) <= d(x1,x2); the right inequality may exceed by
    grid rounding, reported as slack and compared to one transition step."""
    vm = plan.vm
    src, tgt = vm.source, vm.target
    worst_slack = 0.0
    rows = []
    ok = True
    for y in range(tgt.n):
        fib = sorted(vm.fiber(y))
        yid = tgt.ids[y]
        grid = plan.grids.get(1, {}).get(yid, [])
        step = max(
            (b - a for a, b in zip(grid, grid[1:])), default=0.0
        )
        for i, x1 in enumerate(fib):
            for x2 in fib[i + 1:]:
                d = float(src.dist[x1, x2])
                best_k = None
                best_slack = math.inf
                for k in range(1, plan.n_mult):
                    five_r = 5.0 * plan.rk[k][yid]
                    slack = max(0.0, five_r - d) + max(0.0, d / 2.0 - five_r)
                    if slack < best_slack:
                        best_slack = slack
                        best_k = k
                rows.append({"pair": [src.ids[x1], src.ids[x2]], "k": best_k,
                             "slack": best_slack, "grid_step": step})
                worst_slack = max(worst_slack, best_slack)
                if best_slack > step + TOL:
                    ok = False
    return Certificate("fiber_scale", ok, constant=worst_slack,
                       details={"rows": rows})


def composition_bound_check(result: EmbeddingResult, eps: float | None = None,
                            lip: float | None = None) -> Certificate:
    """The bi-Lipschitz composition bound: with phi L-Lipschitz and fiber
    lower bound eps, delta* = eps/(1 + L + eps) satisfies
    min{eps(1-delta)-L delta, delta} d(x1,x2) <= max{|phi diff|, d(f x1, f x2)}
    and must not exceed the measured lower distortion."""
    if result.plan is None:
        return Certificate("composition_bound", True, constant=result.lower,
                           flags=("trivial: injective map",))
    lip_c = result.phi_lipschitz if lip is None else lip
    eps_c = result.fiber_lower if eps is None else eps
    delta = eps_c / (1.0 + lip_c + eps_c)
    bound = min(eps_c * (1.0 - delta) - lip_c * delta, delta)
    vm = result.plan.vm
    coords = np.array([result.coords[v] for v in vm.source.ids])
    a, b, dn, dy, dphi = _pairs(vm, coords)
    fails = np.flatnonzero(np.maximum(dphi, dy) < bound * dn - TOL)
    ok = bound <= result.lower + TOL and fails.size == 0
    worst = None
    if fails.size:
        worst = (vm.source.ids[a[fails[-1]]], vm.source.ids[b[fails[-1]]])
    return Certificate("composition_bound", ok, constant=bound, witness=worst,
                       details={"predicted_lower": bound, "measured_lower": result.lower,
                                "phi_lipschitz": lip_c, "fiber_eps": eps_c,
                                "delta": delta})
