"""Branched coverings as surjective vertex maps.

A VertexMap simulates a discrete, open branched covering: it is total,
surjective, and edge-compatible (source edges map to target edges or
collapse).  Openness is not assumed but certified per vertex and radius via
the image-of-normal-neighborhood check.

Every normal neighbourhood U(x, f, r), the x-component of f^-1(B(f(x), r)),
is read off one level row.  The level of a source vertex v is the minimax,
over source paths from x to v, of d_Y(f(x), f(.)), both ends included; then
v lies in U(x, f, r) iff its level is < r - TOL, the same strict comparison
with the same tolerance as the open ball B(f(x), r).  One threshold sweep per
image f(x) gives the rows of every x over it, so a loop over radii compares
one row against each radius and never searches the graph again.  A
whole-map pass (the radius table, the H and H* profiles, the branch set)
takes the rows of every fibre from one batched ``_fibre_sweeps`` pass.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._tol import TOL
from .spaces import (
    Continuum,
    Space,
    ValidationError,
    _edge_ids,
    _idx,
    _read_json,
    _threshold_sweeps,
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


@dataclass(frozen=True, eq=False)
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
        """Totality is structural; checks image range, surjectivity and edge-compatibility."""
        src, tgt = self.source.ids, self.target.ids
        out = np.flatnonzero((self.f < 0) | (self.f >= len(tgt))).tolist()
        if out:
            return [f"image index {self.f[k]} of {src[k]} not in range({len(tgt)})" for k in out]
        missing = [tgt[y] for y in np.flatnonzero(~np.isin(np.arange(len(tgt)), self.f))]
        findings = [f"not surjective; missing targets: {missing}"] if missing else []
        ends = self.source._ends
        fi, fj = self.f[ends].T
        bad = np.flatnonzero((fi != fj) & (_edge_ids(self.target, fi, fj) < 0)).tolist()
        findings.extend(f"edge-compatibility fails on ({src[ends[e, 0]]},{src[ends[e, 1]]}):"
                        f" images ({tgt[fi[e]]},{tgt[fj[e]]}) not adjacent" for e in bad)
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


def max_multiplicity(vm: VertexMap) -> int:
    """N(f) = max over target vertices y of N(y, f, X)."""
    return int(np.bincount(vm.f, minlength=vm.target.n).max(initial=0))


def _fibre_sweeps(vm: VertexMap, xs: Sequence[int]):
    """One threshold sweep per image z of the centres ``xs``, in order of
    first appearance: yields the positions ks in ``xs`` of the centres over
    z, their level rows and the sweep's spanning forest, a (k, 2) edge array.
    A centre given twice is swept once and its row repeated.  The forest path
    from a centre to any vertex is a minimax path, so its level is the row's
    entry there."""
    groups: dict[int, dict[int, list[int]]] = {}  # image -> centre -> its positions
    for k, x in enumerate(xs):
        groups.setdefault(int(vm.f[x]), {}).setdefault(int(x), []).append(k)
    dY = vm.target.dist
    jobs = ((dY[z, vm.f], list(at), range(vm.source.n)) for z, at in groups.items())
    for (z, at), (vals, forest) in zip(groups.items(), _threshold_sweeps(vm.source, jobs)):
        vals[np.arange(len(at)), list(at)] = dY[z, z]
        ks = [k for pos in at.values() for k in pos]
        if len(ks) > len(at):
            vals = np.repeat(vals, [len(pos) for pos in at.values()], axis=0)
        yield ks, vals, forest


def _u_levels(vm: VertexMap, xs: Sequence[int]) -> np.ndarray:
    """Row k: the level of every source vertex for the centre xs[k], so that
    v lies in U(xs[k], f, r) iff row[v] < r - TOL.  The rows of the centres
    over one image come from one threshold sweep."""
    xs = [int(x) for x in xs]
    level = np.empty((len(xs), vm.source.n))
    for ks, vals, _forest in _fibre_sweeps(vm, xs):
        level[ks] = vals
    return level


def _image_counts(vm: VertexMap, inside: np.ndarray) -> np.ndarray:
    """N(y, f, U) for every vertex mask U along the last axis of ``inside``
    and every target vertex y."""
    masks = inside.reshape(-1, inside.shape[-1])
    rows, cols = np.nonzero(masks)
    counts = np.bincount(rows * vm.target.n + vm.f[cols], minlength=len(masks) * vm.target.n)
    return counts.reshape(*inside.shape[:-1], vm.target.n)


def u_component(vm: VertexMap, x: int | str, r: float) -> Continuum:
    """U(x, f, r): the x-component of f^-1(B(f(x), r)).  Raises ValueError
    when x lies outside its own ball, as it does for every r <= 0 or NaN."""
    xi = _idx(vm.source, x)
    _check_inside("u_component", vm, xi, r)
    row = _u_levels(vm, [xi])[0]
    return Continuum(vm.source, frozenset(np.flatnonzero(row < r - TOL).tolist()))


def _check_inside(name: str, vm: VertexMap, xi: int, r: float) -> None:
    """x lies in U(x, f, r) iff its level, the target diagonal at f(x), is
    below r - TOL; on a zero diagonal every r <= TOL, and NaN, leave it out."""
    z = int(vm.f[xi])
    if not vm.target.dist[z, z] < r - TOL:
        raise ValueError(f"{name}: {vm.source.ids[xi]} lies outside B(f(x), {r})")


def _check_cap(name: str, cap: float | None) -> None:
    """A given radius cap must be at least TOL, the least radius that
    ``normal_radius`` reports, or inf: a smaller one, or NaN, leaves every
    vertex outside its own ball."""
    if cap is not None and not cap >= TOL:
        raise ValueError(f"{name}: the cap must exceed or equal {TOL}, got {cap}")


def _local_indices(vm: VertexMap, xs: Sequence[int]) -> np.ndarray:
    """i(x, f) for each x of xs: the least multiplicity of U(x, f, r) over
    the candidate radii at f(x).  U grows with r, so the least is at the
    smallest radius."""
    xs = list(xs)
    out = np.empty(len(xs), dtype=int)
    for ks, level, _forest in _fibre_sweeps(vm, xs):
        radii = vm.target.ball_radii(int(vm.f[xs[ks[0]]]))
        if not radii:  # single-vertex target
            out[ks] = max_multiplicity(vm)
            continue
        out[ks] = _image_counts(vm, level < radii[0] - TOL).max(axis=1)
    return out


def local_index(vm: VertexMap, x: int | str) -> int:
    """i(x, f): min over candidate radii of the multiplicity of U(x, f, r)."""
    return int(_local_indices(vm, [_idx(vm.source, x)])[0])


def branch_set(vm: VertexMap) -> frozenset[int]:
    """{x : i(x, f) > 1}."""
    return frozenset(np.flatnonzero(_local_indices(vm, range(vm.source.n)) > 1).tolist())


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


def normal_radius(vm: VertexMap, x: int | str) -> tuple[float, dict]:
    """Largest candidate radius R at f(x) such that every candidate r <= R
    satisfies the normal-neighborhood properties (2) disjoint fiber
    decomposition, (3) multiplicity additivity, (4) surjectivity onto the
    ball, and (8) nesting-or-disjointness, for the fiber of f(x).

    Returns (R, record).  If no radius passes, returns the smallest positive
    candidate radius flagged "degenerate".

    Property (8) holds at every radius, bitwise, so it is recorded, not
    tested.  Every centre over z = f(x) levels one key, k = d_Y(z, f .), so the
    component of x at a cut c is {v : m(x, v) < c}, with m(x, v) the minimax
    of k over paths from x to v.  Joining paths gives m(x, y) <= max(m(x, w),
    m(w, y)), by max and comparisons alone.  So if the components of x at c
    and of x' at c' >= c share a vertex w, every v of the first has
    m(x', v) <= max(m(x', w), m(w, x), m(x, v)) < c': a component at a
    smaller cut lies wholly inside or wholly outside each one at a larger cut.
    """
    return next(_fibre_radii(vm, [int(vm.f[_idx(vm.source, x)])]))[:2]


def _fibre_radii(vm: VertexMap, zs: Iterable[int]):
    """``normal_radius`` at each fibre over ``zs`` from one ``_fibre_sweeps``
    pass, by least member: yields radius, record, sorted fibre, level rows."""
    tgt = vm.target
    members = np.flatnonzero(np.isin(vm.f, list(zs)))  # ascending, so each fibre comes sorted
    mult = np.bincount(vm.f, minlength=tgt.n)
    for ks, level, _forest in _fibre_sweeps(vm, members):
        fib = members[ks].tolist()
        z = int(vm.f[fib[0]])
        seps = vm.source.dist[np.ix_(fib, fib)][np.triu_indices(len(fib), 1)]
        m_z = float(seps.min(initial=np.inf)) / 6.0  # a sixth of the fibre's separation
        radii = tgt.ball_radii(z)
        if not radii:
            yield TOL, {"degenerate": True, "M_z": m_z}, fib, level
            continue
        cut = np.array(radii)[:, None] - TOL
        comps = level[None] < cut[:, :, None]  # (radius, fiber, vertex)
        balls = tgt.dist[z] < cut
        counts = _image_counts(vm, comps)
        p2 = (comps.sum(axis=1) == balls[:, vm.f]).all(axis=1)
        p3 = ((counts.sum(axis=1) == mult) | ~balls).all(axis=1)
        p4 = ((counts > 0) == balls[:, None]).all(axis=(1, 2))
        passed = p2 & p3 & p4  # p8 always holds (see ``normal_radius``)
        n_pass = int(passed.argmin()) if not passed.all() else len(radii)
        i = max(n_pass - 1, 0)
        rec = {"p2": bool(p2[i]), "p3": bool(p3[i]), "p4": bool(p4[i]), "p8": True}
        if n_pass:
            # reported-only properties (1), (5), (6)/(7) at the selected radius;
            # (6) asks f to be injective on each multiplicity class of each
            # component, and two points with one image share their class
            p6 = bool((counts[i] <= 1).all())
            rec.update({"p1": True, "p5": bool((mult[balls[i]] >= mult[z]).all()), "p6": p6, "p7": p6})
        rec["degenerate"] = not n_pass
        rec["M_z"] = m_z
        yield radii[i], rec, fib, level


def normal_radius_table(vm: VertexMap) -> NormalRadiusTable:
    by_z = {int(vm.f[fib[0]]): (r, rec) for r, rec, fib, _level in _fibre_radii(vm, range(vm.target.n))}
    found = {zid: by_z[z] for z, zid in enumerate(vm.target.ids)}  # records compare in id order
    return NormalRadiusTable(vm=vm, radius={zid: r for zid, (r, _rec) in found.items()},
                             record={zid: rec for zid, (_r, rec) in found.items()},
                             degenerate=frozenset(zid for zid, (_r, rec) in found.items()
                                                  if rec["degenerate"]))


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
    counts = np.bincount(vm.f[sorted(d_set)], minlength=vm.target.n)  # N(y, f, D)
    n_max = int(counts.max(initial=0))
    if not 1 <= n <= n_max:
        raise ValueError(f"n out of range: 1 <= {n} <= {n_max} required")
    d_n = sorted(v for v in d_set if counts[int(vm.f[v])] == n)
    d_n_set = frozenset(d_n)
    # injectivity neighborhoods: the largest sweep radius keeping f injective
    # on D_n ∩ U, per anchor vertex, in id order
    in_d_n = np.isin(np.arange(src.n), d_n)
    covers: list[frozenset[int]] = []
    for x, row in zip(d_n, _u_levels(vm, d_n)):
        radii = np.array(vm.target.ball_radii(int(vm.f[x])))
        u = (row < radii[:, None] - TOL) & in_d_n
        # the sets grow with r, so f is injective on a prefix of the radii
        n_inj = int((_image_counts(vm, u) <= 1).all(axis=1).sum())
        covers.append(frozenset(np.flatnonzero(u[n_inj - 1]).tolist()) if n_inj else frozenset([x]))
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
    units = [u_component(vm, x, r).members for x, r in items]
    chosen: list[tuple[str, float]] = []
    chosen_sets: list[frozenset[int]] = []
    inflated_union: set[int] = set()
    for (x, r), u in zip(items, units):
        if u <= inflated_union:
            continue
        chosen.append((x, r))
        chosen_sets.append(u)
        inflated_union |= u_component(vm, x, 5.0 * r).members
    disjoint = all(
        a.isdisjoint(b) for i, a in enumerate(chosen_sets) for b in chosen_sets[i + 1:]
    )
    report = {
        "disjoint": disjoint,
        "covers_union": set().union(*units) <= inflated_union,
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


def _check_map_json(obj) -> None:
    """Raise the findings of a map JSON object: exactly the map fields, file
    names for source and target, and a list of [x, y] pairs of string ids
    with no source id in more than one pair."""
    if not (isinstance(obj, dict) and set(obj) == _MAP_FIELDS):
        raise ValidationError([f"map JSON must be an object with the fields {sorted(_MAP_FIELDS)}"])
    findings = []
    if not all(isinstance(obj[k], str) for k in ("source", "target")):
        findings.append("map source and target must be file names")
    if not isinstance(obj["pairs"], list):
        findings.append("pairs must be a list of [x, y] records")
    else:
        sources: Counter = Counter()
        for rec in obj["pairs"]:
            if isinstance(rec, list) and len(rec) == 2 and all(isinstance(v, str) for v in rec):
                sources[rec[0]] += 1
            else:
                findings.append(f"pair records must be [x, y] with string ids: {rec}")
        findings.extend(f"duplicate source id in pairs: {x}" for x, k in sources.items() if k > 1)
    if findings:
        raise ValidationError(findings)


def map_from_json(obj: dict, source: Space, target: Space) -> VertexMap:
    _check_map_json(obj)
    return VertexMap.build(source, target, dict(obj["pairs"]))


def load_map(path: str) -> VertexMap:
    obj = _read_json(path)
    _check_map_json(obj)
    base = os.path.dirname(os.path.abspath(path))
    source = load_space(os.path.join(base, obj["source"]))
    target = load_space(os.path.join(base, obj["target"]))
    return map_from_json(obj, source, target)
