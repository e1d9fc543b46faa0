"""Metric and inverse-metric dilatations, Lipschitz fields, and the
BLD/BDD/LQ/BQS verifiers.

The exact sphere {d(x,y) = r} has no stable discrete meaning, so every
profile uses the two-sided shell convention: L looks at {d <= r}, l at
{d >= r}.  This over-estimates H and makes all certificates conservative.
limsup/liminf as r -> 0 become max/min over candidate radii up to a cap
(default: the normal radius at the vertex).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._tol import TOL, le
from .certificates import Certificate
from .covering import VertexMap, _boundary, _u_levels, normal_radius
from .pullback import _worst_distortion, enumerate_paths
from .spaces import Space, _diameters, _idx, ball_closed

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


@dataclass(frozen=True)
class DilatationProfile:
    """Per-radius rows (r, L, l, H) and the min/max aggregates."""

    vertex: str
    rows: tuple[tuple[float, float, float, float], ...]
    h_sup: float   # max of H over radii <= cap
    h_inf: float   # min of H over radii <= cap
    cap: float
    flags: tuple[str, ...] = ()


def _profile(vertex: str, rows: list, cap: float, flags: list[str]) -> DilatationProfile:
    hs = [h for _r, _L, _l, h in rows]
    return DilatationProfile(vertex=vertex, rows=tuple(rows), h_sup=max(hs) if hs else math.inf,
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
    cap that leaves x outside its own ball gives no rows (H = inf), flagged
    "empty neighbourhood".
    """
    src = vm.source
    xi = _idx(src, x)
    flags: list[str] = []
    if restrict is None:
        if radius_cap is None:
            radius_cap, rec = normal_radius(vm, xi)
            if rec.get("degenerate"):
                flags.append("degenerate cap")
        level = _u_levels(vm, [xi])[0]
        if not level[xi] < radius_cap - TOL:  # x outside its own ball
            return _profile(src.ids[xi], [], radius_cap, flags + ["empty neighbourhood"])
        restrict = np.flatnonzero(level < radius_cap - TOL).tolist()
    else:
        restrict = frozenset(int(v) for v in restrict)
        if radius_cap is None:
            radius_cap = math.inf
    others = np.array(sorted(set(restrict) - {xi}), dtype=int)
    if others.size == 0:
        return _profile(src.ids[xi], [], radius_cap, flags + ["empty shell"])
    drow = src.dist[xi, others]
    irow = vm.target.dist[int(vm.f[xi]), vm.f[others]]
    rows = []
    for r in (float(v) for v in np.unique(drow)):
        near = drow <= r + TOL
        far = drow >= r - TOL
        if not near.any() or not far.any():
            continue
        big_l = float(irow[near].max())
        small_l = float(irow[far].min())
        h = big_l / small_l if small_l > 0 else math.inf
        rows.append((r, big_l, small_l, float(h)))
    return _profile(src.ids[xi], rows, radius_cap, flags)


def inverse_dilatation_profile(vm: VertexMap, x: int | str,
                               scale_cap: float | None = None) -> DilatationProfile:
    """H*_f(x, s) from the boundary of U(x, f, s): L*, l* are the max/min
    source distances from x to vertices of U having a neighbor outside it."""
    src = vm.source
    xi = _idx(src, x)
    flags: list[str] = []
    nr, rec = normal_radius(vm, xi)
    if scale_cap is None:
        scale_cap = nr
        if rec.get("degenerate"):
            flags.append("degenerate cap")
    elif scale_cap > nr + TOL:
        flags.append("nonlocal")
    radii = [s for s in vm.target.ball_radii(int(vm.f[xi])) if le(s, scale_cap)]
    level = _u_levels(vm, [xi])[0]
    rows = []
    for s in radii:
        boundary = _boundary(src, frozenset(np.flatnonzero(level < s - TOL).tolist()))
        if not boundary:
            flags.append(f"empty boundary at s={s}")
            continue
        dists = [float(src.dist[xi, v]) for v in boundary]
        big_l, small_l = max(dists), min(dists)
        h = big_l / small_l if small_l > 0 else math.inf
        rows.append((float(s), big_l, small_l, h))
    return _profile(src.ids[xi], rows, scale_cap, flags)


def lipschitz_field(vm: VertexMap) -> dict[str, tuple[float, float]]:
    """Per vertex: (L_f, l_f) = max/min over neighbors of the distance ratio
    d(f(x), f(y)) / d(x, y); a collapsed edge forces l_f = 0."""
    src = vm.source
    out: dict[str, tuple[float, float]] = {}
    for x in range(src.n):
        ratios = []
        for y, _e in src.adj[x]:
            dx = float(src.dist[x, y])
            dy = vm.image_dist(x, y)
            ratios.append(dy / dx if dx > 0 else math.inf)
        out[src.ids[x]] = (max(ratios), min(ratios)) if ratios else (0.0, 0.0)
    return out


def _passed(worst: float, bound: float | None) -> bool:
    return worst <= bound + TOL if bound is not None else math.isfinite(worst)


def _distortion_certificate(kind: str, vm: VertexMap, bound: float | None, curve_budget: int,
                            seed: int, n_random: int) -> Certificate:
    src = vm.source
    paths = enumerate_paths(src, curve_budget, rng=np.random.default_rng(seed), n_random=n_random)
    worst, path = _worst_distortion(vm, paths, kind)
    witness = None if path is None else [src.ids[v] for v in path]
    return Certificate(kind, _passed(worst, bound), constant=worst, witness=witness,
                       details={"paths": len(paths), "bound": bound, "seed": seed})


def bld_verify(vm: VertexMap, bound: float | None = None, curve_budget: int = 4,
               seed: int = 0, n_random: int = 100) -> Certificate:
    """Bounded length distortion over all simple paths up to the edge budget
    plus a seeded random sample: L^-1 l(a) <= l(f∘a) <= L l(a)."""
    return _distortion_certificate("bld", vm, bound, curve_budget, seed, n_random)


def bdd_verify(vm: VertexMap, bound: float | None = None, curve_budget: int = 4,
               seed: int = 0, n_random: int = 100) -> Certificate:
    """Bounded diameter distortion over the same curve sample; a path whose
    source or image diameter is zero has infinite distortion."""
    return _distortion_certificate("bdd", vm, bound, curve_budget, seed, n_random)


def lq_verify(vm: VertexMap, bound: float | None = None) -> Certificate:
    """Lipschitz-quotient check at every vertex and realized radius, with
    closed balls: B(f(x), r/L) ⊆ f(B(x, r)) ⊆ B(f(x), L r); returns the
    tight L-hat."""
    src, tgt = vm.source, vm.target
    worst = 1.0
    witness = None
    for x in range(src.n):
        fx = int(vm.f[x])
        drow = src.dist[x]
        trow = tgt.dist[fx]
        for r in (float(v) for v in np.unique(drow) if v > TOL):
            img_mask = np.zeros(tgt.n, dtype=bool)
            img_mask[vm.f[drow <= r + TOL]] = True
            need_up = float(trow[img_mask].max()) / r
            if img_mask.all():
                need_lo = 1.0
            else:
                # the open rho-ball fits inside the image iff rho <= rho_star,
                # the distance to the nearest vertex outside the image
                rho_star = float(trow[~img_mask].min())
                need_lo = r / rho_star if rho_star > 0 else math.inf
            cand = max(need_up, need_lo)
            if cand > worst:
                worst = cand
                witness = (src.ids[x], r)
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
        out = 0.0
        for s, v in zip(self.support, self.values):
            if s <= t + TOL:
                out = v
            else:
                break
        return out

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.support, self.values))


def _connected_sample(space: Space, seed: int, budget: int) -> list[frozenset[int]]:
    """Continuum sample: single edges, closed balls, plus seeded random
    connected subsets."""
    out: list[frozenset[int]] = []
    for i, j, _ln in space.edges:
        out.append(frozenset({i, j}))
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


def bqs_gauge(vm: VertexMap, seed: int = 0, budget: int = 60,
              max_pairs: int = 4000) -> BqsGauge:
    """Sampled branched-quasisymmetry gauge over intersecting continuum pairs:
    collect (t, ratio) = (diam E / diam F, diam f(E) / diam f(F)) and return
    the running-max step function."""
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
            if count >= max_pairs:
                break
        if count >= max_pairs:
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
