"""Canonical example spaces and maps used throughout the tests and demos.

Polar grids discretize planar disks and annuli with geometrically spaced
rings (conformally square-ish cells), vertex masses equal to incident cell
areas, and exact path metrics.  The winding generator is the discrete power
map z -> z^k on such grids: a branched covering with a single branch vertex
at the center, conformal away from it.
"""
from __future__ import annotations

import math

import numpy as np

from .covering import VertexMap
from .pullback import EXACT_CAP_DEFAULT, factorize
from .spaces import Space

__all__ = [
    "gen_cycle",
    "gen_grid",
    "gen_polar_grid",
    "gen_winding",
    "gen_cycle_cover",
    "gen_pullback_space",
]


def gen_cycle(n: int, edge_len: float = 1.0, mass: float = 1.0, prefix: str = "c") -> Space:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    verts = [(f"{prefix}{i:04d}", mass) for i in range(n)]
    edges = [(f"{prefix}{i:04d}", f"{prefix}{(i + 1) % n:04d}", edge_len) for i in range(n)]
    return Space.build(verts, edges, "path")


def gen_grid(w: int, h: int, sx: float = 1.0, sy: float = 1.0) -> Space:
    """(w+1) x (h+1) rectangular grid with cell sizes (sx, sy); vertex masses
    are the incident cell areas (quarter cells at corners etc.)."""
    if w < 1 or h < 1:
        raise ValueError("grid needs w, h >= 1")

    def vid(i: int, j: int) -> str:
        return f"g{i:03d}_{j:03d}"

    verts = []
    for i in range(w + 1):
        for j in range(h + 1):
            frac_x = 1.0 if 0 < i < w else 0.5
            frac_y = 1.0 if 0 < j < h else 0.5
            verts.append((vid(i, j), sx * sy * frac_x * frac_y))
    edges = []
    for i in range(w + 1):
        for j in range(h + 1):
            if i < w:
                edges.append((vid(i, j), vid(i + 1, j), sx))
            if j < h:
                edges.append((vid(i, j), vid(i, j + 1), sy))
    return Space.build(verts, edges, "path")


def _ring_vid(i: int, j: int) -> str:
    return f"r{i:03d}s{j:03d}"


def gen_polar_grid(levels: int, sectors: int, r0: float, r1: float) -> Space:
    """Polar grid with ``levels`` rings of ``sectors`` vertices.

    r0 > 0: annulus [r0, r1] with geometrically spaced rings.
    r0 == 0: disk of radius r1 with a center vertex; rings are geometric with
    ratio exp(2*pi/sectors) so cells stay conformally proportioned.
    Masses are incident cell areas; the distance matrix is the path metric.
    """
    if not 0 <= r0 < r1 < math.inf:  # NaN fails too
        raise ValueError("need 0 <= r0 < r1 < inf")
    if sectors < 3:
        raise ValueError("need sectors >= 3")
    if levels < 2:
        raise ValueError("need levels >= 2")
    try:
        if r0 > 0:
            ratio = (r1 / r0) ** (1.0 / (levels - 1))
            radii = [r0 * ratio ** i for i in range(levels)]
            center = False
        else:
            ratio = math.exp(2.0 * math.pi / sectors)
            radii = [r1 / ratio ** (levels - 1 - i) for i in range(levels)]
            center = True
        return _polar_space(radii, sectors, center)
    except (OverflowError, ZeroDivisionError):  # a float power or quotient out of range
        raise ValueError("radii out of float range") from None


def _polar_space(radii: list[float], sectors: int, center: bool) -> Space:
    levels = len(radii)
    dth = 2.0 * math.pi / sectors
    # radial cell boundaries at geometric means (consistent with the
    # geometric ring spacing, so power maps send cell bounds to cell bounds);
    # the first/last cells clamp at the region boundary and tessellate it
    # exactly
    mid = [math.sqrt(radii[i] * radii[i + 1]) for i in range(levels - 1)]
    inner = radii[0] ** 2 / mid[0] if center else radii[0]  # both callers give >= 2 levels
    bounds = [inner] + mid + [radii[-1]]
    verts = [("center", math.pi * inner * inner)] if center else []
    for i in range(levels):
        area = 0.5 * dth * (bounds[i + 1] ** 2 - bounds[i] ** 2)
        verts += [(_ring_vid(i, j), area) for j in range(sectors)]
    edges = [("center", _ring_vid(0, j), radii[0]) for j in range(sectors) if center]
    for i in range(levels):
        for j in range(sectors):
            edges.append((_ring_vid(i, j), _ring_vid(i, (j + 1) % sectors), radii[i] * dth))
            if i + 1 < levels:
                edges.append((_ring_vid(i, j), _ring_vid(i + 1, j), radii[i + 1] - radii[i]))
    if not all(0.0 < rec[-1] < math.inf for rec in verts + edges):  # each mass and length
        raise ValueError("radii give cell masses or edge lengths that are not finite and positive")
    return Space.build(verts, edges, "path")


def gen_winding(k: int, levels: int, sectors: int) -> VertexMap:
    """Discrete power map z -> z^k on geometric polar disk grids.

    Source: disk grid of radius 1 with k*sectors angular resolution and rings
    rho_i; target: disk grid with ``sectors`` and rings rho_i^k; the map sends
    ring i, sector j to ring i, sector j mod sectors, and center to center.
    Branch set = {center} with local index k (for k >= 2).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if sectors < 3 or levels < 2:
        raise ValueError("need sectors >= 3 and levels >= 2")
    h = 2.0 * math.pi / (k * sectors)
    src_radii = [math.exp(-h * (levels - 1 - i)) for i in range(levels)]
    tgt_radii = [r ** k for r in src_radii]
    source = _polar_space(src_radii, k * sectors, center=True)
    target = _polar_space(tgt_radii, sectors, center=True)
    assignment = {"center": "center"}
    for i in range(levels):
        for j in range(k * sectors):
            assignment[_ring_vid(i, j)] = _ring_vid(i, j % sectors)
    return VertexMap.build(source, target, assignment)


def gen_cycle_cover(n: int, m: int) -> VertexMap:
    """m-fold unbranched cover of the unit-edge n-cycle by the mn-cycle;
    a local isometry with multiplicity m everywhere."""
    if n < 3 or m < 1:
        raise ValueError("need n >= 3 and m >= 1")
    source = gen_cycle(m * n, prefix="s")
    target = gen_cycle(n, prefix="t")
    assignment = {f"s{t:04d}": f"t{t % n:04d}" for t in range(m * n)}
    return VertexMap.build(source, target, assignment)


def gen_pullback_space(vm: VertexMap, cap: int = EXACT_CAP_DEFAULT) -> Space:
    """The pullback Space of the exact factorization, as a first-class Space."""
    return factorize(vm, metric="exact", cap=cap).pullback_space


def identity_map(space: Space) -> VertexMap:
    return VertexMap(source=space, target=space, f=np.arange(space.n), check=False)
