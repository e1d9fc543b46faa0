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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._tol import TOL
from .certificates import Certificate
from .covering import VertexMap, max_multiplicity, u_component
from .pullback import EXACT_CAP_DEFAULT, pullback_metric_exact
from .spaces import Space, ValidationError, _components_idx, _idx, _with_metric

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
    ident = VertexMap(source=space, target=space, f=np.arange(space.n), check=False)
    return _with_metric(space, pullback_metric_exact(ident, cap=cap))


def normalize_for_embedding(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> VertexMap:
    """Recast f over the 1-BT target metric and the exact pullback source
    metric, making it 1-BDD; masses are untouched."""
    target_bt = _bt_space(vm.target, cap)
    vm_bt = VertexMap(source=vm.source, target=target_bt, f=vm.f.copy(), check=False)
    source_n = _with_metric(vm.source, pullback_metric_exact(vm_bt, cap=cap))
    return VertexMap(source=source_n, target=target_bt, f=vm.f.copy(), check=False)


def _component_count(vm: VertexMap, y: int, radius_closed: float) -> int:
    members = frozenset(
        int(v) for v in np.nonzero(vm.target.dist[y, vm.f] <= radius_closed + TOL)[0]
    )
    if not members:
        return 0
    return len(_components_idx(vm.source, members))


def rk_radii(vm: VertexMap, k: int) -> tuple[dict[str, float], dict[str, list[float]]]:
    """R^k(y): the smallest transition value R (on the d/5 grid of realized
    target distances from y) at which the preimage of the 5R-ball has at
    most k components.  Returns (radii, per-vertex transition grids)."""
    tgt = vm.target
    radii: dict[str, float] = {}
    grids: dict[str, list[float]] = {}
    for y in range(tgt.n):
        dvals = [0.0] + [float(v) for v in np.unique(tgt.dist[y]) if v > TOL]
        grid = [d / 5.0 for d in dvals]
        grids[tgt.ids[y]] = grid
        chosen = grid[-1]
        for d, r in zip(dvals, grid):
            if _component_count(vm, y, d) <= k:
                chosen = r
                break
        radii[tgt.ids[y]] = chosen
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
    idx = [tgt.i(y) for y in net]
    order = sorted(range(len(idx)), key=lambda a: (-rk[net[a]], net[a]))
    color: dict[int, int] = {}
    used = 0
    for a in order:
        taken = set()
        for b in order:
            if b == a or b not in color:
                continue
            # inflated open balls intersect iff some vertex is in both
            ya, yb = idx[a], idx[b]
            ra, rb = 2.0 * rk[net[a]], 2.0 * rk[net[b]]
            inter = np.any((tgt.dist[ya] < ra - TOL) & (tgt.dist[yb] < rb - TOL))
            if inter:
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


def assign_labels(vm: VertexMap, y_net: str, r_k: float) -> tuple[dict[str, int], list[frozenset[int]]]:
    """Labels 1..N on the fiber over a net point: equal labels iff the
    inflated neighborhoods 2U coincide; component order by smallest member
    vertex id.  Returns (labels, distinct 2U sets in label order)."""
    fib = sorted(vm.fiber(y_net))
    sets: list[frozenset[int]] = []
    labels: dict[str, int] = {}
    for x in fib:
        u2 = u_component(vm, x, 2.0 * r_k).members
        try:
            lab = next(i for i, s in enumerate(sets) if s == u2) + 1
        except StopIteration:
            sets.append(u2)
            lab = len(sets)
        labels[vm.source.ids[x]] = lab
    return labels, sets


@dataclass(frozen=True)
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
    for k in range(1, n_mult):
        rk[k], grids[k] = rk_radii(vm_norm, k)
        nets[k] = build_net(vm_norm, k, rk[k])
        classes[k], used = color_net(vm_norm, k, nets[k], rk[k])
        c_d = max(c_d, used)
        labels[k] = {}
        nbhd[k] = {}
        for y in nets[k]:
            labels[k][y], nbhd[k][y] = assign_labels(vm_norm, y, rk[k][y])
    return EmbeddingPlan(vm=vm_norm, n_mult=n_mult, c_d=c_d, rk=rk, grids=grids,
                         nets=nets, classes=classes, labels=labels, neighborhoods=nbhd)


def phi(plan: EmbeddingPlan, x: int | str) -> np.ndarray:
    """Coordinate vector of length c_d * (N - 1); slot (k, j) sums, over the
    class-j net points and the distinct inflated neighborhoods V over their
    fibers, label(V) * min(d*(x, complement of V), R^k)."""
    vm = plan.vm
    src = vm.source
    xi = _idx(src, x)
    out = np.zeros(plan.c_d * max(0, plan.n_mult - 1))
    for k in range(1, plan.n_mult):
        for j, cls in enumerate(plan.classes[k]):
            slot = (k - 1) * plan.c_d + j
            total = 0.0
            for y in cls:
                r_k = plan.rk[k][y]
                lab_of = plan.labels[k][y]
                for v_set in plan.neighborhoods[k][y]:
                    if xi not in v_set:
                        continue  # d(x, complement) = 0
                    label = lab_of[src.ids[min(v_set & vm.fiber(y))]]
                    comp = [v for v in range(src.n) if v not in v_set]
                    d_out = min((float(src.dist[xi, v]) for v in comp), default=math.inf)
                    total += label * min(d_out, r_k)
            out[slot] = total
    return out


@dataclass(frozen=True)
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


def embed(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> EmbeddingResult:
    """Full pipeline; distortion of psi = f x phi is measured over all pairs
    under max(d_target, max coordinate difference) against the normalized
    source metric."""
    vm_n = normalize_for_embedding(vm, cap=cap)
    from .dilatation import bdd_verify

    bdd = bdd_verify(vm_n, bound=1.0, curve_budget=3, n_random=30)
    if not bdd.passed:
        raise ValidationError(
            [f"normalized map is not 1-BDD (constant {bdd.constant}); embedding precondition fails"]
        )
    n_mult = max_multiplicity(vm_n)
    src, tgt = vm_n.source, vm_n.target
    if n_mult == 1:
        coords = {v: np.zeros(0) for v in src.ids}
        plan = None
        phis = {src.i(v): np.zeros(0) for v in src.ids}
    else:
        plan = build_plan(vm_n)
        phis = {x: phi(plan, x) for x in range(src.n)}
        coords = {src.ids[x]: phis[x] for x in range(src.n)}
    lower, upper = math.inf, 0.0
    injective = True
    phi_lip = 0.0
    fiber_lower = math.inf
    fiber_report: list[dict] = []
    for a in range(src.n):
        for b in range(a + 1, src.n):
            dn = float(src.dist[a, b])
            dy = vm_n.image_dist(a, b)
            dphi = float(np.max(np.abs(phis[a] - phis[b]))) if phis[a].size else 0.0
            dpsi = max(dy, dphi)
            if dn <= TOL:
                continue
            if dpsi <= TOL:
                injective = False
            lower = min(lower, dpsi / dn)
            upper = max(upper, dpsi / dn)
            phi_lip = max(phi_lip, dphi / dn)
            if dy <= TOL:  # fiber pair
                fiber_lower = min(fiber_lower, dphi / dn)
                fiber_report.append({
                    "pair": [src.ids[a], src.ids[b]],
                    "distance": dn,
                    "phi_gap": dphi,
                    "twelve_rule": dn <= 12.0 * dphi + TOL,
                })
    return EmbeddingResult(
        plan=plan,
        coords=coords,
        image={v: vm_n.apply(v) for v in src.ids},
        injective=injective,
        lower=lower if math.isfinite(lower) else 1.0,
        upper=upper,
        fiber_report=fiber_report,
        phi_lipschitz=phi_lip,
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
    return Certificate("composition_bound", ok, constant=bound, witness=worst,
                       details={"predicted_lower": bound, "measured_lower": result.lower,
                                "phi_lipschitz": lip_c, "fiber_eps": eps_c,
                                "delta": delta})
