"""Seeded input records for the benchmark, as the JSON the library reads.

Nothing here builds a ``Space``: the records are plain dicts, so the APSP
and validation that ``space_from_json`` performs stay inside the timed job
that calls it.  The polar and winding records reproduce the library's own
generators value for value; ``--smoke`` checks that against
``qrgraph.generators``.
"""
from __future__ import annotations

import math

import numpy as np


def ring_id(level: int, sector: int) -> str:
    return f"r{level:03d}s{sector:03d}"


def _space(verts: list[tuple[str, float]], edges: list[tuple[str, str, float]]) -> dict:
    return {
        "vertices": [{"id": v, "mass": float(m)} for v, m in verts],
        "edges": [{"u": u, "v": v, "len": float(ln)} for u, v, ln in edges],
        "dist": "path",
    }


def polar_records(radii: list[float], sectors: int, center: bool) -> dict:
    """Same vertices, masses and edge lengths as ``generators._polar_space``."""
    levels = len(radii)
    dth = 2.0 * math.pi / sectors
    mid = [math.sqrt(radii[i] * radii[i + 1]) for i in range(levels - 1)]
    if center:
        inner = radii[0] ** 2 / mid[0] if levels > 1 else radii[0] / 2.0
    else:
        inner = radii[0]
    bounds = [inner] + mid + [radii[-1]]
    verts: list[tuple[str, float]] = []
    if center:
        verts.append(("center", math.pi * inner * inner))
    for i in range(levels):
        area = 0.5 * dth * (bounds[i + 1] ** 2 - bounds[i] ** 2)
        verts.extend((ring_id(i, j), area) for j in range(sectors))
    edges: list[tuple[str, str, float]] = []
    if center:
        edges.extend(("center", ring_id(0, j), radii[0]) for j in range(sectors))
    for i in range(levels):
        for j in range(sectors):
            edges.append((ring_id(i, j), ring_id(i, (j + 1) % sectors), radii[i] * dth))
            if i + 1 < levels:
                edges.append((ring_id(i, j), ring_id(i + 1, j), radii[i + 1] - radii[i]))
    return _space(verts, edges)


def annulus_records(sectors: int, r0: float = 1.0, r1: float = math.e) -> dict:
    """The annulus {r0 < |z| < r1} as ``gen_polar_grid(sectors + 1, sectors, r0, r1)``."""
    levels = sectors + 1
    ratio = (r1 / r0) ** (1.0 / (levels - 1))
    return polar_records([r0 * ratio ** i for i in range(levels)], sectors, center=False)


def permuted(space: dict, rng: np.random.Generator) -> dict:
    """The same space with its vertex records in a seeded order."""
    verts = space["vertices"]
    return {**space, "vertices": [verts[k] for k in rng.permutation(len(verts))]}


def winding_records(k: int, levels: int, sectors: int) -> dict:
    """The map z -> z^k as ``gen_winding(k, levels, sectors)``."""
    h = 2.0 * math.pi / (k * sectors)
    src_radii = [math.exp(-h * (levels - 1 - i)) for i in range(levels)]
    assignment = {"center": "center"}
    for i in range(levels):
        for j in range(k * sectors):
            assignment[ring_id(i, j)] = ring_id(i, j % sectors)
    return {
        "source": polar_records(src_radii, k * sectors, center=True),
        "target": polar_records([r ** k for r in src_radii], sectors, center=True),
        "assignment": assignment,
    }


def _cycle(n: int, prefix: str) -> dict:
    return _space([(f"{prefix}{i:04d}", 1.0) for i in range(n)],
                  [(f"{prefix}{i:04d}", f"{prefix}{(i + 1) % n:04d}", 1.0) for i in range(n)])


def cycle_cover_records(n: int, m: int) -> dict:
    """The m-fold cover of the n-cycle as ``gen_cycle_cover(n, m)``."""
    return {
        "source": _cycle(m * n, "s"),
        "target": _cycle(n, "t"),
        "assignment": {f"s{t:04d}": f"t{t % n:04d}" for t in range(m * n)},
    }


def random_map_records(rng: np.random.Generator, n_src: int, n_tgt: int) -> dict:
    """A random surjective edge-compatible map: a random tree plus one to
    three chords, quotiented onto n_tgt labels; the target is the image graph.
    Lengths and masses are uniform in [0.3, 2] and [0.2, 2]."""
    src_edges: dict[tuple[int, int], float] = {}
    for i in range(1, n_src):
        src_edges[(int(rng.integers(0, i)), i)] = float(rng.uniform(0.3, 2.0))
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(int(x) for x in rng.integers(0, n_src, size=2))
        if i != j and (i, j) not in src_edges:
            src_edges[(i, j)] = float(rng.uniform(0.3, 2.0))
    labels = np.concatenate([np.arange(n_tgt), rng.integers(0, n_tgt, size=n_src - n_tgt)])
    rng.shuffle(labels)
    tgt_edges: dict[tuple[int, int], float] = {}
    for i, j in sorted(src_edges):
        a, b = sorted((int(labels[i]), int(labels[j])))
        if a != b and (a, b) not in tgt_edges:
            tgt_edges[(a, b)] = float(rng.uniform(0.3, 2.0))
    src_masses = rng.uniform(0.2, 2.0, size=n_src)
    tgt_masses = rng.uniform(0.2, 2.0, size=n_tgt)
    return {
        "source": _space([(f"v{i:02d}", src_masses[i]) for i in range(n_src)],
                         [(f"v{i:02d}", f"v{j:02d}", ln) for (i, j), ln in sorted(src_edges.items())]),
        "target": _space([(f"y{t:02d}", tgt_masses[t]) for t in range(n_tgt)],
                         [(f"y{a:02d}", f"y{b:02d}", ln) for (a, b), ln in sorted(tgt_edges.items())]),
        "assignment": {f"v{i:02d}": f"y{int(labels[i]):02d}" for i in range(n_src)},
    }


def corpus_map_records(rng: np.random.Generator) -> dict:
    """One map of the corpus stream, sized as in acceptance criterion 2
    (n_src in 4..12, n_tgt in 2..n_src // 2), with the density and target
    weights the measure checks integrate."""
    n_src = int(rng.integers(4, 13))
    n_tgt = int(rng.integers(2, max(3, n_src // 2 + 1)))
    rec = random_map_records(rng, n_src, n_tgt)
    rec["rho"] = (rng.random(n_src) * 2.0).tolist()
    rec["nu"] = (rng.random(n_tgt) + 0.05).tolist()
    return rec
