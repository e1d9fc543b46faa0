"""Metric and inverse-metric dilatations, Lipschitz fields, and the
BLD/BDD/LQ/BQS verifiers.

The exact sphere {d(x,y) = r} has no stable discrete meaning, so every
profile uses the two-sided shell convention: L looks at {d <= r}, l at
{d >= r}.  This over-estimates H and makes all certificates conservative.
limsup/liminf as r -> 0 become max/min over candidate radii up to a cap
(default: the normal radius at f(x)).  That radius and the level rows belong
to the fibre over f(x), so a whole-map run reads each fibre once.

Every radius comes off one sorted scan per centre: the shells grow with r, so
over the row sorted by d a prefix max gives L and a suffix min gives l at every
radius.  LQ reads the image f(B(x, r)) through each target vertex's nearest
preimage, and v bounds U(x, f, s) iff level(v) < s - TOL <= a neighbour's level.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._tol import TOL, le
from .certificates import Certificate
from .covering import VertexMap, _check_cap, _fibre_radii, _u_levels
from .pullback import _curve_sample, _worst_distortion
from .spaces import Space, _diameters, _idx, _path_lengths, ball_closed

__all__ = [
    "DilatationProfile",
    "dilatation_profile",
    "inverse_dilatation_profile",
    "lipschitz_field",
    "bld_verify",
    "bdd_verify",
    "lq_verify",
    "bqs_gauge",
    "BqsGauge",
]

BQS_MAX_PAIRS = 4000


@dataclass(frozen=True)
class DilatationProfile:
    """Per-radius rows (r, L, l, H) and the min/max aggregates."""

    vertex: str
    rows: tuple[tuple[float, float, float, float], ...]
    h_sup: float   # max of H over radii <= cap
    h_inf: float   # min of H over radii <= cap
    cap: float
    flags: tuple[str, ...] = ()


def _profile(vertex: str, cap: float, flags: list[str], *cols: np.ndarray) -> DilatationProfile:
    """Rows (r, L, l, L / l) from the columns r, L, l; H is infinite where l = 0."""
    rows = tuple((r, a, b, a / b if b > 0 else math.inf)
                 for r, a, b in zip(*(c.tolist() for c in cols)))
    hs = [h for _r, _L, _l, h in rows]
    return DilatationProfile(vertex=vertex, rows=rows, h_sup=max(hs) if hs else math.inf,
                             h_inf=min(hs) if hs else math.inf, cap=float(cap),
                             flags=tuple(flags))


def dilatation_profile(vm: VertexMap, x: int | str, radius_cap: float | None = None,
                       restrict: Iterable[int] | None = None) -> DilatationProfile:
    """H_f(x, r) = L_f(x, r) / l_f(x, r) over candidate radii, with L over the
    shell {d(x,y) <= r} and l over {d(x,y) >= r}.

    Both shells are taken inside the normal neighborhood U(x, f, cap): the
    discrete surrogate of the r -> 0 limit is local, and an unbounded far
    shell would see opposite-sheet fiber points (image distance ~ 0) on any
    covering map.  ``restrict`` overrides the neighborhood explicitly.  A
    given cap must be at least TOL (ValueError otherwise); one that still leaves
    x outside its own ball, as an explicit target diagonal can, gives no
    rows (H = inf), flagged "empty neighbourhood".
    """
    _check_cap("dilatation_profile", radius_cap)
    xi = _idx(vm.source, x)
    if restrict is None:
        return _local_profiles(vm, [xi], radius_cap, inverse=False)[0]
    others = np.array(sorted(set(int(v) for v in restrict) - {xi}), dtype=int)
    return _shell_profile(vm, xi, others, math.inf if radius_cap is None else radius_cap, [])


def inverse_dilatation_profile(vm: VertexMap, x: int | str,
                               scale_cap: float | None = None) -> DilatationProfile:
    """H*_f(x, s) from the boundary of U(x, f, s): L*, l* are the max/min
    source distances from x to vertices of U having a neighbor outside it.
    A given cap must be at least TOL (ValueError otherwise)."""
    _check_cap("inverse_dilatation_profile", scale_cap)
    return _local_profiles(vm, [_idx(vm.source, x)], scale_cap, inverse=True)[0]


def _local_profiles(vm: VertexMap, xs: Iterable[int], cap: float | None,
                    inverse: bool) -> list[DilatationProfile]:
    """The H (or H*) profile of each centre of xs from one normal radius and
    one level sweep per fibre.  The default cap is the normal radius at f(x),
    flagged "degenerate cap" when no radius passes; H* flags a given cap
    above it "nonlocal".  H with a given cap reads only the level rows."""
    src = vm.source
    xs = [int(x) for x in xs]
    radius, level = {}, {}
    if cap is None or inverse:
        for nr, rec, fib, fib_level in _fibre_radii(vm, vm.f[xs].tolist()):
            radius[int(vm.f[fib[0]])] = nr, rec
            level.update(zip(fib, fib_level))
    else:
        level.update(zip(xs, _u_levels(vm, xs)))
    tail, head = np.concatenate([src._ends, src._ends[:, ::-1]]).T  # each edge from each end
    out = []
    for x in xs:
        nr, rec = radius.get(int(vm.f[x]), (cap, {}))  # no radius: never "nonlocal"
        if cap is None:
            x_cap, flags = nr, ["degenerate cap"] if rec["degenerate"] else []
        else:
            x_cap, flags = cap, ["nonlocal"] if cap > nr + TOL else []
        row = level[x]
        if inverse:
            near_top = np.full(src.n, -math.inf)  # the highest level among v's neighbours
            np.maximum.at(near_top, tail, row[head])
            radii = np.array([s for s in vm.target.ball_radii(int(vm.f[x])) if le(s, x_cap)])
            lo = radii[:, None] - TOL
            bd = (row < lo) & (near_top >= lo)  # (s, v): v on the boundary of U(x, f, s)
            big = np.where(bd, src.dist[x], -math.inf).max(axis=1)
            small = np.where(bd, src.dist[x], math.inf).min(axis=1)
            some = bd.any(axis=1)
            flags += [f"empty boundary at s={s}" for s in radii[~some].tolist()]
            out.append(_profile(src.ids[x], x_cap, flags, radii[some], big[some], small[some]))
        elif row[x] < x_cap - TOL:
            inside = np.flatnonzero(row < x_cap - TOL)
            out.append(_shell_profile(vm, x, inside[inside != x], x_cap, flags))
        else:  # x outside its own ball
            out.append(_profile(src.ids[x], x_cap, flags + ["empty neighbourhood"]))
    return out


def _sorted_scan(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys sorted, pre[k] the max of vals over the k smallest keys (-inf at
    k = 0) and suf[k] the min over all but them (inf at k = len)."""
    order = np.argsort(keys, kind="stable")
    v = vals[order]
    pre = np.concatenate([[-math.inf], np.maximum.accumulate(v)])
    suf = np.concatenate([np.minimum.accumulate(v[::-1])[::-1], [math.inf]])
    return keys[order], pre, suf


def _shell_profile(vm: VertexMap, xi: int, others: np.ndarray, cap: float,
                   flags: list[str]) -> DilatationProfile:
    """H over the shells of xi among the sorted vertices ``others``."""
    src = vm.source
    if others.size == 0:
        return _profile(src.ids[xi], cap, flags + ["empty shell"])
    d, pre, suf = _sorted_scan(src.dist[xi, others], vm.target.dist[int(vm.f[xi]), vm.f[others]])
    radii = np.unique(d)
    big = pre[np.searchsorted(d, radii + TOL, "right")]  # over {d <= r + TOL}
    small = suf[np.searchsorted(d, radii - TOL)]  # over {d >= r - TOL}
    return _profile(src.ids[xi], cap, flags, radii, big, small)


def lipschitz_field(vm: VertexMap) -> dict[str, tuple[float, float]]:
    """Per vertex: (L_f, l_f) = max/min over neighbors of the distance ratio
    d(f(x), f(y)) / d(x, y); a collapsed edge forces l_f = 0."""
    src = vm.source
    x, y = np.concatenate([src._ends, src._ends[:, ::-1]]).T  # each edge from each end
    dx = src.dist[x, y]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dx > 0, vm.target.dist[vm.f[x], vm.f[y]] / dx, math.inf)
    big, small = np.full(src.n, -math.inf), np.full(src.n, math.inf)
    np.maximum.at(big, x, ratio)
    np.minimum.at(small, x, ratio)
    return {v: (b, s) if b > -math.inf else (0.0, 0.0)
            for v, b, s in zip(src.ids, big.tolist(), small.tolist())}


def _passed(worst: float, bound: float | None) -> bool:
    """The verdict of every verifier: a finite constant, and with a bound, at
    most the bound plus TOL."""
    return math.isfinite(worst) and (bound is None or worst <= bound + TOL)


def _distortion_certificate(kind: str, vm: VertexMap, bound: float | None, curve_budget: int,
                            seed: int, n_random: int) -> Certificate:
    paths = _curve_sample(vm.source, curve_budget, seed, n_random)
    size = _path_lengths if kind == "bld" else _diameters
    worst, path = _worst_distortion(size(vm.source, paths), size(vm.target, paths, vm.f), paths)
    witness = None if path is None else [vm.source.ids[v] for v in path]
    return Certificate(kind, _passed(worst, bound), constant=worst, witness=witness,
                       details={"paths": len(paths), "bound": bound, "seed": seed})


def bld_verify(vm: VertexMap, bound: float | None = None, curve_budget: int = 4,
               seed: int = 0, n_random: int = 100) -> Certificate:
    """Bounded length distortion over all simple paths up to the edge budget
    plus a seeded random sample: L^-1 l(a) <= l(f∘a) <= L l(a).  The sample of
    an int seed is drawn once per source space and shared with BDD."""
    return _distortion_certificate("bld", vm, bound, curve_budget, seed, n_random)


def bdd_verify(vm: VertexMap, bound: float | None = None, curve_budget: int = 4,
               seed: int = 0, n_random: int = 100) -> Certificate:
    """Bounded diameter distortion over the curve sample BLD draws, shared per
    source space and int seed; a zero source or image diameter is infinite distortion."""
    return _distortion_certificate("bdd", vm, bound, curve_budget, seed, n_random)


def lq_verify(vm: VertexMap, bound: float | None = None) -> Certificate:
    """Lipschitz-quotient check at every vertex and realized radius, with
    closed balls: B(f(x), r/L) ⊆ f(B(x, r)) ⊆ B(f(x), L r); returns the
    tight L-hat."""
    src, tgt = vm.source, vm.target
    worst = 1.0
    witness = None
    for x in range(src.n):
        near = np.full(tgt.n, math.inf)  # each target vertex's nearest preimage
        np.minimum.at(near, vm.f, src.dist[x])
        keys, pre, suf = _sorted_scan(near, tgt.dist[int(vm.f[x])])
        radii = np.unique(src.dist[x])
        radii = radii[radii > TOL]
        k = np.searchsorted(keys, radii + TOL, "right")  # f(B(x, r)): the k nearest
        # the open rho-ball fits inside the image iff rho <= rho_star = suf[k],
        # the distance to the nearest vertex outside it (inf: a full image asks nothing)
        with np.errstate(divide="ignore"):
            cand = np.maximum(pre[k] / radii, radii / suf[k])
        if cand.size and cand.max() > worst:
            j = int(cand.argmax())
            worst, witness = float(cand[j]), (src.ids[x], float(radii[j]))
    return Certificate("lq", _passed(worst, bound), constant=worst, witness=witness,
                       details={"bound": bound})


@dataclass(frozen=True)
class BqsGauge:
    """Minimal monotone step gauge consistent with the sampled ratios:
    eta(t) = running max of diameter ratios with argument <= t."""

    support: tuple[float, ...]
    values: tuple[float, ...]
    seed: int

    def __call__(self, t: float) -> float:
        k = 0 if math.isnan(t) else bisect.bisect_right(self.support, t + TOL)
        return self.values[k - 1] if k else 0.0

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.support, self.values))


def _connected_sample(space: Space, seed: int, budget: int) -> list[frozenset[int]]:
    """Continuum sample: single edges, closed balls, plus seeded random
    connected subsets."""
    out = [frozenset(e) for e in space._ends.tolist()]
    for x in range(space.n):
        for r in space.ball_radii(x)[:3]:
            out.append(frozenset(ball_closed(space, space.ids[x], r)))
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        v = int(rng.integers(space.n))
        comp = {v}
        size = int(rng.integers(2, max(3, space.n // 3)))
        frontier = [v]
        while frontier and len(comp) < size:
            u = frontier.pop(int(rng.integers(len(frontier))))
            for w, _e in space.adj[u]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        if len(comp) >= 2:
            out.append(frozenset(comp))
    uniq = sorted(set(out), key=lambda s: (len(s), sorted(s)))
    return uniq


def bqs_gauge(vm: VertexMap, seed: int = 0, budget: int = 60) -> BqsGauge:
    """Sampled branched-quasisymmetry gauge over intersecting continuum pairs:
    collect (t, ratio) = (diam E / diam F, diam f(E) / diam f(F)) for at most
    BQS_MAX_PAIRS pairs and return the running-max step function."""
    src = vm.source
    sample = _connected_sample(src, seed, budget)
    diam = _diameters(src, sample).tolist()
    img = _diameters(vm.target, sample, vm.f).tolist()
    pts: list[tuple[float, float]] = []
    count = 0
    for a in range(len(sample)):
        for b in range(len(sample)):
            if a == b or not sample[a] & sample[b]:
                continue
            if diam[a] <= TOL or diam[b] <= TOL or img[b] <= TOL:
                continue
            pts.append((diam[a] / diam[b], img[a] / img[b]))
            count += 1
            if count >= BQS_MAX_PAIRS:
                break
        if count >= BQS_MAX_PAIRS:
            break
    pts.sort()
    support: list[float] = []
    values: list[float] = []
    running = 0.0
    for t, ratio in pts:
        running = max(running, ratio)
        if support and abs(t - support[-1]) <= TOL:
            values[-1] = running
        else:
            support.append(t)
            values.append(running)
    return BqsGauge(support=tuple(support), values=tuple(values), seed=seed)
