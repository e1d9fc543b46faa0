"""The pullback bracket from one threshold sweep per fibre.

``_target_pair_sweeps`` certifies most of lower from the fibre forests and
sweeps only the target pairs they leave open.  Its lower matrix must equal,
bitwise, the one threshold sweep per target pair that ``pair_sweep_reference``
keeps, every pair that reference's witness settles must stay settled at
the same value, and the exact matrix must stay the one that witness gives.
The per-fibre screen L'(x, y) = max(level_x(y), level_y(x)) brackets the
pullback metric within a factor 2: L' <= lower <= exact <= 2 L'.  The
sweep of a fibre nests its normal neighbourhoods: at any two radii, each
component of the fibre lies inside or outside each one at the larger radius.
"""
from __future__ import annotations

import functools

import numpy as np
import pytest

import conftest
from conftest import pair_sweep_reference, random_map, u_component_reference
from qrgraph import cli, pullback
from qrgraph._tol import TOL
from qrgraph.covering import VertexMap, _u_levels
from qrgraph.generators import gen_cycle, gen_cycle_cover, gen_winding, identity_map
from qrgraph.pullback import _target_pair_sweeps, pullback_metric_bracket, pullback_metric_exact
from qrgraph.spaces import Space, _with_metric


def _screen(vm: VertexMap) -> np.ndarray:
    """L' off the diagonal, zero on it."""
    level = _u_levels(vm, range(vm.source.n))
    screen = np.maximum(level, level.T)
    np.fill_diagonal(screen, 0.0)
    return screen


def _snowflake_cycle(n: int) -> VertexMap:
    """Identity on the n-cycle under the square root of its path metric."""
    cyc = gen_cycle(n)
    sq = Space.build([(v, float(m)) for v, m in zip(cyc.ids, cyc.mass)],
                     [(cyc.ids[i], cyc.ids[j], ln) for i, j, ln in cyc.edges],
                     np.sqrt(cyc.dist))
    return identity_map(sq)


def _random(n: int, seed: int) -> VertexMap:
    return random_map(np.random.default_rng(seed), n, max(2, n // 4))


def _explicit_target(n: int, seed: int, diagonal: bool) -> VertexMap:
    """A random map whose target metric, made explicit, moves within TOL:
    on the diagonal, to either sign, or above it, which makes it asymmetric,
    so that no entry is certified and every target pair is swept."""
    vm = _random(n, seed)
    rng = np.random.default_rng(seed)
    d = vm.target.dist.copy()
    if diagonal:
        d[np.diag_indices(len(d))] = rng.uniform(-0.9 * TOL, 0.9 * TOL, len(d))
    else:
        d += np.triu(rng.uniform(0.0, 0.9 * TOL, d.shape) * (rng.random(d.shape) < 0.3), 1)
        assert not np.array_equal(d, d.T)
    target = _with_metric(vm.target, d, vm.target.mass)
    assert not target.validate()
    return VertexMap(source=vm.source, target=target, f=vm.f.copy())


def _near_tie(seed: int) -> VertexMap:
    """A random map with every edge length a half-integer moved by less than
    TOL, so that many distances lie within TOL of another one: two witnesses
    within TOL of lower may then differ."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(15, 41))
    vm = random_map(rng, n, int(rng.integers(4, n // 2)))

    def jittered(space: Space) -> Space:
        lens = np.ceil(space._lens * 2.0) / 2.0 + rng.uniform(-0.4, 0.4, space._lens.size) * TOL
        return Space.build(zip(space.ids, space.mass.tolist()),
                           [(space.ids[i], space.ids[j], float(ln))
                            for (i, j, _ln), ln in zip(space.edges, lens)], "path")

    return VertexMap(source=jittered(vm.source), target=jittered(vm.target), f=vm.f.copy())


def _near_tie_fixed() -> VertexMap:
    """A 15-vertex map onto 5 near-tie targets on which lower is certified
    only on some entries of a target pair, and a fibre witness within TOL of
    lower, taken on an uncertified entry, would settle below the pair
    sweep's witness (found by a seeded search over near-tie maps)."""
    src_edges = [(0, 1), (0, 2), (0, 3), (1, 8), (2, 4), (2, 6), (3, 5), (4, 10), (6, 7), (6, 10),
                 (6, 11), (7, 14), (8, 9), (9, 13), (10, 11), (10, 12), (12, 13)]
    tgt_edges = [(0, 1, 1.500000000264476), (0, 2, 2.000000000393249), (0, 4, 1.5000000002869764),
                 (1, 2, 2.499999999731802), (1, 4, 2.500000000397953), (2, 3, 1.0000000003385356),
                 (2, 4, 1.000000000007467), (3, 4, 0.9999999998313213)]
    f = [4, 4, 1, 2, 0, 3, 1, 4, 3, 2, 2, 0, 0, 4, 2]
    src = Space.build([(f"x{i:02d}", 1.0) for i in range(15)],
                      [(f"x{i:02d}", f"x{j:02d}", 1.0) for i, j in src_edges], "path")
    tgt = Space.build([(f"y{t}", 1.0) for t in range(5)],
                      [(f"y{i}", f"y{j}", ln) for i, j, ln in tgt_edges], "path")
    return VertexMap.build(src, tgt, {f"x{i:02d}": f"y{t}" for i, t in enumerate(f)})


MAPS = {
    "winding_2_4_8": lambda: gen_winding(2, 4, 8),
    "winding_3_6_8": lambda: gen_winding(3, 6, 8),
    "cycle_cover_16_2": lambda: gen_cycle_cover(16, 2),
    "snowflake_cycle_12": lambda: _snowflake_cycle(12),
    **{f"random_{n}_{seed}": functools.partial(_random, n, seed)
       for n in (12, 30, 60, 90) for seed in (7, 9001)},
    **{f"{kind}_40_{seed}": functools.partial(_explicit_target, 40, seed, kind == "diagonal")
       for kind in ("asymmetric", "diagonal") for seed in (1, 2)},
    **{f"near_tie_{seed}": functools.partial(_near_tie, seed) for seed in range(6)},
    "near_tie_fixed": _near_tie_fixed,
}


def check_against_pair_sweeps(vm: VertexMap) -> None:
    ref_lower, ref_ach = pair_sweep_reference(vm, witness=True)
    lower, _ = _target_pair_sweeps(vm, witness=False)
    assert lower.tobytes() == ref_lower.tobytes()
    lower_w, achieved = _target_pair_sweeps(vm, witness=True)
    assert lower_w.tobytes() == ref_lower.tobytes()
    upper = np.triu(np.ones_like(lower, dtype=bool), 1)
    settled = upper & (lower > TOL) & (achieved <= lower + TOL)
    ref_settled = upper & (lower > TOL) & (ref_ach <= lower + TOL)
    assert not (ref_settled & ~settled).any()
    assert np.array_equal(achieved[ref_settled], ref_ach[ref_settled])
    # every witness is the image diameter of a real path
    assert np.all(achieved[upper] >= lower[upper])


@pytest.mark.parametrize("name", sorted(MAPS))
def test_lower_and_settled_pairs_match_the_pair_sweeps(name):
    check_against_pair_sweeps(MAPS[name]())


@pytest.mark.parametrize("name", ["asymmetric_40_1", "asymmetric_40_2"])
def test_pair_sweep_witness_reads_an_asymmetric_target_both_ways(name):
    # on an asymmetric explicit target every target pair is swept, so each
    # witness is a forest path's image diameter, which reads d_Y both ways
    vm = MAPS[name]()
    _lower, ref_ach = pair_sweep_reference(vm, witness=True)
    _lower, achieved = _target_pair_sweeps(vm, witness=True)
    assert achieved.tobytes() == ref_ach.tobytes()


@pytest.mark.parametrize("name", sorted(name for name in MAPS
                                         if not name.startswith(("random_90", "winding_3"))))
def test_exact_matches_the_reference_loop_over_the_pair_sweeps(name, monkeypatch):
    # the per-pair reference loop fed by the all-pairs sweeps: the fibre
    # witness must leave every exact value as the pair sweeps' witness made it
    vm = MAPS[name]()
    exact = pullback_metric_exact(vm)
    monkeypatch.setattr(conftest, "_target_pair_sweeps", pair_sweep_reference)
    assert exact.tobytes() == conftest.exact_reference(vm).tobytes()


@pytest.mark.slow
def test_lower_matches_the_pair_sweeps_on_winding_2_8_16():
    vm = gen_winding(2, 8, 16)
    assert pullback_metric_bracket(vm).lower.tobytes() == pair_sweep_reference(vm, False)[0].tobytes()


def test_pair_sweeps_run_only_on_open_target_pairs(monkeypatch):
    # gen_winding(3, 6, 8) has 1,225 target pairs; the fibre forests leave 7 open
    calls = []
    real = pullback._threshold_sweeps

    def counting(space, jobs):
        for out in real(space, jobs):
            calls.append(1)
            yield out

    monkeypatch.setattr(pullback, "_threshold_sweeps", counting)
    vm = gen_winding(3, 6, 8)
    _target_pair_sweeps(vm, witness=False)
    assert len(calls) == 7
    calls.clear()
    _target_pair_sweeps(gen_cycle_cover(16, 2), witness=True)
    assert calls == []


def check_sandwich(vm: VertexMap) -> None:
    screen = _screen(vm)
    lower = pullback_metric_bracket(vm).lower
    exact = pullback_metric_exact(vm, cap=vm.source.n)
    assert np.all(screen <= lower)
    assert np.all(lower <= exact + TOL)
    assert np.all(exact <= 2.0 * screen + TOL)


@pytest.mark.parametrize("n_src", [30, 60, 90])
def test_screen_brackets_lower_and_exact(n_src):
    for seed in range(2):
        check_sandwich(random_map(np.random.default_rng(700 * n_src + seed), n_src, max(2, n_src // 4)))


@pytest.mark.slow
def test_screen_brackets_lower_and_exact_at_150():
    for seed in range(2):
        check_sandwich(random_map(np.random.default_rng(700 * 150 + seed), 150, 37))


@pytest.mark.slow
def test_cli_lower_metric_on_winding_2_16_24(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--kind", "winding", "--k", "2", "--levels", "16", "--sectors", "24",
                     "--out", str(gen)]) == 0
    out = tmp_path / "pb"
    assert cli.main(["pullback", "--map", str(gen / "map.json"), "--metric", "lower",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "pullback_matrix.csv").read_text().splitlines()
    ids = rows[0].split(",")[1:]
    lower = np.array([[float(x) for x in row.split(",")[1:]] for row in rows[1:]])
    vm = gen_winding(2, 16, 24)
    assert ids == list(vm.source.ids) and lower.shape == (769, 769)
    screen = _screen(vm)
    assert np.all(screen <= lower)
    assert np.all(lower <= 2.0 * screen + TOL)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_walk_batches_leave_the_pair_sweeps_bitwise(name, monkeypatch):
    # a small budget cuts the centres of one fibre, or of one target pair,
    # across batches of the forest walks
    vm = MAPS[name]()
    want = [_target_pair_sweeps(vm, witness) for witness in (True, False)]
    for budget in (1, 37, 5000):
        monkeypatch.setattr(pullback, "_WALK_BUDGET", budget)
        got = [_target_pair_sweeps(vm, witness) for witness in (True, False)]
        for (lower, achieved), (ref_lower, ref_achieved) in zip(got, want):
            assert lower.tobytes() == ref_lower.tobytes()
            assert (achieved is None and ref_achieved is None
                    or achieved.tobytes() == ref_achieved.tobytes())


NESTING_MAPS = {
    **{f"random_{n}_{seed}": functools.partial(_random, n, seed)
       for n in (12, 30) for seed in (3, 7, 9001)},
    **{f"{kind}_{n}_{seed}": functools.partial(_explicit_target, n, seed, kind == "diagonal")
       for kind in ("asymmetric", "diagonal") for n in (12, 30) for seed in (2, 5)},
}


@pytest.mark.parametrize("name", sorted(NESTING_MAPS))
def test_fibre_components_nest_or_are_disjoint_at_every_candidate_radius(name):
    # property (8) at every candidate radius, not only at the normal radius
    # that the record reports; a centre outside its own ball has no component
    vm = NESTING_MAPS[name]()
    for z in range(vm.target.n):
        fibre = np.flatnonzero(vm.f == z).tolist()
        by_radius = [[u_component_reference(vm, x, r) for x in fibre
                      if vm.target.dist[z, z] < r - TOL] for r in vm.target.ball_radii(z)]
        for j, smaller in enumerate(by_radius):
            for larger in by_radius[j:]:
                assert all(u <= w or u.isdisjoint(w) for u in smaller for w in larger)
