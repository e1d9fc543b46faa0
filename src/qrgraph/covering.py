"""Branched coverings as surjective vertex maps.

A VertexMap simulates a discrete, open branched covering: it is total,
surjective, and edge-compatible (source edges map to target edges or
collapse).  Openness is not assumed but certified per vertex and radius via
the image-of-normal-neighborhood check.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._tol import TOL
from .spaces import (
    Continuum,
    Space,
    ValidationError,
    _component_of,
    _idx,
    ball,
    load_space,
)

__all__ = [
    "VertexMap",
    "NormalRadiusTable",
    "multiplicity",
    "max_multiplicity",
    "u_component",
    "local_index",
    "branch_set",
    "openness_certificate",
    "normal_radius",
    "normal_radius_table",
    "decompose_fibers",
    "greedy_cover",
    "map_to_json",
    "map_from_json",
    "load_map",
]


@dataclass(frozen=True)
class VertexMap:
    """Surjective, edge-compatible vertex map between two Spaces."""

    source: Space
    target: Space
    f: np.ndarray  # (n_source,) target indices
    check: bool = True

    def __post_init__(self):
        self.f.setflags(write=False)
        if self.check:
            findings = self.validate()
            if findings:
                raise ValidationError(findings)

    @classmethod
    def build(cls, source: Space, target: Space, assignment: Mapping[str, str]) -> "VertexMap":
        findings = []
        arr = np.zeros(source.n, dtype=int)
        for k, vid in enumerate(source.ids):
            if vid not in assignment:
                findings.append(f"not total: {vid} unassigned")
            else:
                img = assignment[vid]
                if img not in target.index:
                    findings.append(f"image vertex unknown: {vid} -> {img}")
                else:
                    arr[k] = target.index[img]
        extra = set(assignment) - set(source.ids)
        if extra:
            findings.append(f"assignment has unknown source ids: {sorted(extra)}")
        if findings:
            raise ValidationError(findings)
        return cls(source=source, target=target, f=arr)

    def validate(self) -> list[str]:
        """Totality is structural; checks surjectivity and edge-compatibility."""
        findings = []
        hit = set(int(y) for y in self.f)
        missing = [self.target.ids[y] for y in range(self.target.n) if y not in hit]
        if missing:
            findings.append(f"not surjective; missing targets: {missing}")
        for i, j, _ln in self.source.edges:
            fi, fj = int(self.f[i]), int(self.f[j])
            if fi != fj and (fi, fj) not in self.target.edge_index:
                findings.append(
                    f"edge-compatibility fails on ({self.source.ids[i]},{self.source.ids[j]}):"
                    f" images ({self.target.ids[fi]},{self.target.ids[fj]}) not adjacent"
                )
        return findings

    def apply(self, vid: str) -> str:
        return self.target.ids[int(self.f[self.source.i(vid)])]

    def fiber(self, y: int | str) -> frozenset[int]:
        yi = _idx(self.target, y)
        return frozenset(int(k) for k in np.nonzero(self.f == yi)[0])

    def image_dist(self, i: int, j: int) -> float:
        return float(self.target.dist[int(self.f[i]), int(self.f[j])])


def multiplicity(vm: VertexMap, y: int | str, members: Iterable[int] | None = None) -> int:
    """N(y, f, A) = |f^-1(y) ∩ A|."""
    fib = vm.fiber(y)
    if members is None:
        return len(fib)
    return len(fib & set(int(v) for v in members))


def max_multiplicity(vm: VertexMap, members: Iterable[int] | None = None) -> int:
    """N(f, A) = max over target vertices of multiplicity."""
    if members is None:
        counts = np.bincount(vm.f, minlength=vm.target.n)
    else:
        sel = np.fromiter((int(v) for v in members), dtype=int)
        if sel.size == 0:
            return 0
        counts = np.bincount(vm.f[sel], minlength=vm.target.n)
    return int(counts.max(initial=0))


def _preimage(vm: VertexMap, targets: frozenset[int]) -> frozenset[int]:
    if not targets:
        return frozenset()
    mask = np.isin(vm.f, sorted(targets))
    return frozenset(int(k) for k in np.nonzero(mask)[0])


def u_component(vm: VertexMap, x: int | str, r: float) -> Continuum:
    """U(x, f, r): the x-component of f^-1(B(f(x), r))."""
    xi = _idx(vm.source, x)
    if r <= 0:
        raise ValueError("u_component requires r > 0")
    b = ball(vm.target, vm.target.ids[int(vm.f[xi])], r)
    pre = _preimage(vm, b)
    comp = _component_of(vm.source, pre, xi)
    return Continuum(vm.source, comp)


def local_index(vm: VertexMap, x: int | str) -> int:
    """i(x, f): min over candidate radii of the multiplicity of U(x, f, r)."""
    xi = _idx(vm.source, x)
    radii = vm.target.ball_radii(int(vm.f[xi]))
    if not radii:  # single-vertex target
        return max_multiplicity(vm)
    best = None
    for r in radii:
        n = max_multiplicity(vm, u_component(vm, xi, r).members)
        best = n if best is None else min(best, n)
        if best == 1:
            break
    return best


def branch_set(vm: VertexMap) -> frozenset[int]:
    """{x : i(x, f) > 1}."""
    return frozenset(x for x in range(vm.source.n) if local_index(vm, x) > 1)


def openness_certificate(vm: VertexMap, x: int | str, r: float) -> tuple[bool, dict]:
    """True iff f(U(x, f, r)) equals B(f(x), r) as sets; witness on failure."""
    xi = _idx(vm.source, x)
    b = ball(vm.target, vm.target.ids[int(vm.f[xi])], r)
    img = frozenset(int(vm.f[v]) for v in u_component(vm, xi, r).members)
    if img == b:
        return True, {}
    return False, {
        "missing": vm.target.names(b - img),
        "extra": vm.target.names(img - b),
    }


@dataclass(frozen=True)
class NormalRadiusTable:
    """Per target vertex: normal radius R(z), property record, M_z."""

    vm: VertexMap
    radius: Mapping[str, float]
    record: Mapping[str, dict]
    degenerate: frozenset[str]

    def radius_at(self, x: int | str) -> float:
        xi = _idx(self.vm.source, x)
        return self.radius[self.vm.target.ids[int(self.vm.f[xi])]]


def _fiber_separation(vm: VertexMap, z: int) -> float:
    fib = sorted(vm.fiber(z))
    if len(fib) < 2:
        return float("inf")
    sub = vm.source.dist[np.ix_(fib, fib)]
    return float(sub[np.triu_indices(len(fib), 1)].min())


def normal_radius(vm: VertexMap, x: int | str) -> tuple[float, dict]:
    """Largest candidate radius R at f(x) such that every candidate r <= R
    satisfies the normal-neighborhood properties (2) disjoint fiber
    decomposition, (3) multiplicity additivity, (4) surjectivity onto the
    ball, and (8) nesting-or-disjointness, for the fiber of f(x).

    Returns (R, record).  If no radius passes, returns the smallest positive
    candidate radius flagged "degenerate".
    """
    src, tgt = vm.source, vm.target
    xi = _idx(src, x)
    z = int(vm.f[xi])
    m_z = _fiber_separation(vm, z) / 6.0
    radii = tgt.ball_radii(z)
    if not radii:
        return TOL, {"degenerate": True, "M_z": m_z}
    fib = sorted(vm.fiber(z))
    comps_hist: list[dict[int, frozenset[int]]] = []
    last_rec: dict = {}
    n_pass = 0
    for r in radii:
        b = ball(tgt, tgt.ids[z], r)
        pre = _preimage(vm, b)
        comps = {xf: _component_of(src, pre, xf) for xf in fib}
        sets = [comps[xf] for xf in fib]
        p2 = frozenset().union(*sets) == pre and all(
            a.isdisjoint(c) for i, a in enumerate(sets) for c in sets[i + 1:]
        )
        p3 = all(
            multiplicity(vm, y) == sum(multiplicity(vm, y, s) for s in sets) for y in b
        )
        p4 = all(frozenset(int(vm.f[v]) for v in s) == b for s in sets)
        p8 = True
        for earlier in comps_hist + [comps]:
            for u1 in earlier.values():
                for u2 in sets:
                    if not (u1 <= u2 or u1.isdisjoint(u2)):
                        p8 = False
        rec = {"p2": p2, "p3": p3, "p4": p4, "p8": p8}
        if all(rec.values()):
            comps_hist.append(comps)
            last_rec = rec
            n_pass += 1
        else:
            if n_pass == 0:
                last_rec = rec
            break
    if n_pass == 0:
        rec = dict(last_rec)
        rec["degenerate"] = True
        rec["M_z"] = m_z
        return radii[0], rec
    r_star = radii[n_pass - 1]
    rec = dict(last_rec)
    rec.update(_extra_props_at(vm, z, r_star, comps_hist[-1]))
    rec["degenerate"] = False
    rec["M_z"] = m_z
    return r_star, rec


def _extra_props_at(vm: VertexMap, z: int, r: float, comps: dict[int, frozenset[int]]) -> dict:
    """Reported-only properties (1),(5),(6)/(7) at the selected radius."""
    b = ball(vm.target, vm.target.ids[z], r)
    nz = multiplicity(vm, z)
    p5 = all(multiplicity(vm, y) >= nz for y in b)
    p6 = True
    mult_of = np.bincount(vm.f, minlength=vm.target.n)
    for u in comps.values():
        by_count: dict[int, list[int]] = {}
        for v in sorted(u):
            by_count.setdefault(int(mult_of[vm.f[v]]), []).append(int(vm.f[v]))
        for imgs in by_count.values():
            if len(imgs) != len(set(imgs)):
                p6 = False
    return {"p1": True, "p5": p5, "p6": p6, "p7": p6}


def normal_radius_table(vm: VertexMap) -> NormalRadiusTable:
    radius: dict[str, float] = {}
    record: dict[str, dict] = {}
    degen: set[str] = set()
    for z in range(vm.target.n):
        x = min(vm.fiber(z))
        r, rec = normal_radius(vm, x)
        zid = vm.target.ids[z]
        radius[zid] = r
        record[zid] = rec
        if rec.get("degenerate"):
            degen.add(zid)
    return NormalRadiusTable(vm=vm, radius=radius, record=record, degenerate=frozenset(degen))


def _boundary(space: Space, members: frozenset[int]) -> frozenset[int]:
    """Vertices of the set with a neighbor outside it."""
    return frozenset(v for v in members if any(w not in members for w, _e in space.adj[v]))


def decompose_fibers(vm: VertexMap, domain: Iterable[int] | Iterable[str], n: int) -> list[frozenset[int]]:
    """Split D_n = {x in D : N(f(x), f, D) = n} into n disjoint parts, each
    mapping bijectively onto f(D_n).

    Greedy construction over a cover by injectivity neighborhoods, in
    deterministic (vertex id) order.
    """
    src = vm.source
    d_set = frozenset(_idx(src, v) for v in domain)
    f_d = frozenset(int(vm.f[v]) for v in d_set)
    bd_img = frozenset(int(vm.f[v]) for v in _boundary(src, d_set))
    if f_d != frozenset(range(vm.target.n)) and not bd_img <= _boundary(vm.target, f_d):
        raise ValidationError(["domain not relatively normal: f(boundary) escapes boundary of image"])
    n_max = max_multiplicity(vm, d_set)
    if not 1 <= n <= n_max:
        raise ValueError(f"n out of range: 1 <= {n} <= {n_max} required")
    counts = np.zeros(vm.target.n, dtype=int)
    for v in d_set:
        counts[int(vm.f[v])] += 1
    d_n = sorted(v for v in d_set if counts[int(vm.f[v])] == n)
    d_n_set = frozenset(d_n)
    # injectivity neighborhoods: the largest sweep radius keeping f injective
    # on D_n ∩ U, per anchor vertex, in id order
    covers: list[frozenset[int]] = []
    for x in d_n:
        best = frozenset([x])
        for r in vm.target.ball_radii(int(vm.f[x])):
            u = u_component(vm, x, r).members & d_n_set
            imgs = [int(vm.f[v]) for v in sorted(u)]
            if len(imgs) == len(set(imgs)):
                best = u
            else:
                break
        covers.append(best)
    parts: list[set[int]] = [set() for _ in range(n)]
    for k in range(n):
        taken_images: set[int] = set()
        earlier = set().union(*parts[:k]) if k else set()
        for cov in covers:
            for v in sorted(cov):
                if v in earlier or v in parts[k]:
                    continue
                img = int(vm.f[v])
                if img in taken_images:
                    continue
                parts[k].add(v)
                taken_images.add(img)
    out = [frozenset(p) for p in parts]
    img_dn = frozenset(int(vm.f[v]) for v in d_n)
    union = frozenset().union(*out) if out else frozenset()
    if union != d_n_set:
        raise AssertionError("fiber decomposition does not cover D_n")
    for p in out:
        imgs = [int(vm.f[v]) for v in sorted(p)]
        if len(imgs) != len(set(imgs)):
            raise AssertionError("f not injective on a part")
        if frozenset(imgs) != img_dn:
            raise AssertionError("part does not map onto f(D_n)")
    return out


def greedy_cover(
    vm: VertexMap,
    family: Sequence[tuple[str, float]],
    table: NormalRadiusTable | None = None,
) -> tuple[list[tuple[str, float]], dict]:
    """5r covering lemma: a pairwise disjoint subfamily of {U(x_i, f, r_i)}
    whose 5-inflations cover the union of the input family.

    Greedy by decreasing radius.  Requires 5 r_i < R(f(x_i)); violations are
    reported per element.
    """
    if table is None:
        table = normal_radius_table(vm)
    bad = [(x, r) for x, r in family if not 5.0 * r < table.radius_at(x) + TOL]
    if bad:
        raise ValidationError([f"5r >= normal radius for ({x}, {r})" for x, r in bad])
    items = sorted(family, key=lambda it: (-it[1], it[0]))
    chosen: list[tuple[str, float]] = []
    chosen_sets: list[frozenset[int]] = []
    inflated_union: set[int] = set()
    for x, r in items:
        u = u_component(vm, x, r).members
        if u <= inflated_union:
            continue
        chosen.append((x, r))
        chosen_sets.append(u)
        inflated_union |= u_component(vm, x, 5.0 * r).members
    union_in: set[int] = set()
    for x, r in family:
        union_in |= u_component(vm, x, r).members
    disjoint = all(
        a.isdisjoint(b) for i, a in enumerate(chosen_sets) for b in chosen_sets[i + 1:]
    )
    report = {
        "disjoint": disjoint,
        "covers_union": union_in <= inflated_union,
        "chosen": list(chosen),
    }
    return chosen, report


# -- JSON schema ---------------------------------------------------------------

_MAP_FIELDS = {"source", "target", "pairs"}


def map_to_json(vm: VertexMap, source_path: str, target_path: str) -> dict:
    return {
        "source": source_path,
        "target": target_path,
        "pairs": [[vm.source.ids[i], vm.target.ids[int(vm.f[i])]] for i in range(vm.source.n)],
    }


def map_from_json(obj: dict, source: Space, target: Space) -> VertexMap:
    if set(obj) != _MAP_FIELDS:
        raise ValidationError([f"map JSON fields must be exactly {sorted(_MAP_FIELDS)}"])
    assignment = {}
    for rec in obj["pairs"]:
        if not (isinstance(rec, list) and len(rec) == 2):
            raise ValidationError([f"pair records must be [x, y]: {rec}"])
        assignment[rec[0]] = rec[1]
    return VertexMap.build(source, target, assignment)


def load_map(path: str) -> VertexMap:
    with open(path) as fh:
        obj = json.load(fh)
    if set(obj) != _MAP_FIELDS:
        raise ValidationError([f"map JSON fields must be exactly {sorted(_MAP_FIELDS)}"])
    base = os.path.dirname(os.path.abspath(path))
    source = load_space(os.path.join(base, obj["source"]))
    target = load_space(os.path.join(base, obj["target"]))
    return map_from_json(obj, source, target)
