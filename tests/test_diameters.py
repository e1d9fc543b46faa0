"""The batched diameter and path-length kernels against per-set and per-path
references, alone and inside every certificate that measures diameters or
lengths."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    bdd_worst_reference,
    bld_worst_reference,
    bqs_pairs_reference,
    diameter_reference,
    path_length_reference,
    projection_bdd_reference,
    random_connected_space,
    random_map,
)
import qrgraph
from qrgraph.covering import VertexMap, map_to_json
from qrgraph.dilatation import bdd_verify, bld_verify, bqs_gauge
from qrgraph.generators import gen_cycle_cover, gen_winding
from qrgraph.pullback import (
    EXACT_CAP_DEFAULT,
    bld_bdd_transfer_check,
    enumerate_paths,
    factorize,
    verify_projection,
)
from qrgraph.spaces import (Curve, Space, _diameters, _path_lengths, _with_metric, diameter,
                            space_to_json)


def _collections(rng: np.random.Generator, n: int, count: int = 200) -> list[list[int]]:
    """Random index collections of size 1..9, repeats allowed, singletons
    included."""
    sizes = np.concatenate([np.ones(20, dtype=int), rng.integers(1, 10, size=count - 20)])
    return [rng.integers(0, n, size=int(k)).tolist() for k in sizes]


class TestKernel:
    def test_path_metric_matches_reference(self):
        rng = np.random.default_rng(11)
        space = random_connected_space(rng, 25)
        sets = _collections(rng, space.n)
        got = _diameters(space, sets)
        assert np.array_equal(got, [diameter_reference(space, s) for s in sets])
        assert [diameter(space, s) for s in sets] == got.tolist()
        assert diameter(space, [space.ids[v] for v in sets[-1]]) == got[-1]

    def test_explicit_metric_reads_the_diagonal(self):
        rng = np.random.default_rng(12)
        base = random_connected_space(rng, 15)
        d = np.array(base.dist)
        d[np.diag_indices(base.n)] = rng.choice([-5e-10, 5e-10], size=base.n)
        space = _with_metric(base, d)
        sets = _collections(rng, space.n)
        got = _diameters(space, sets)
        assert np.array_equal(got, [diameter_reference(space, s) for s in sets])
        singles = [s for s in sets if len(set(s)) == 1]
        assert singles and all(abs(diameter(space, s)) == 5e-10 for s in singles)

    def test_images_under_a_vertex_map(self):
        rng = np.random.default_rng(13)
        vm = random_map(rng, 30, 8)
        sets = _collections(rng, vm.source.n)
        got = _diameters(vm.target, sets, vm.f)
        want = [diameter_reference(vm.target, {int(vm.f[v]) for v in s}) for s in sets]
        assert np.array_equal(got, want)

    def test_frozensets_and_empty_sample(self):
        space = random_connected_space(np.random.default_rng(14), 10)
        sets = [frozenset({0, 3, 7}), frozenset({2}), (1, 4)]
        assert _diameters(space, sets).tolist() == [diameter_reference(space, s) for s in sets]
        assert _diameters(space, []).shape == (0,)
        with pytest.raises(ValueError):
            diameter(space, [])


class TestPathLengths:
    def test_source_and_image_lengths_match_a_left_fold(self):
        rng = np.random.default_rng(15)
        vm = random_map(rng, 30, 8)
        paths = enumerate_paths(vm.source, 4, rng=rng, n_random=100)
        paths += [(0,), (5,)]  # one-vertex paths have length 0
        for space, f in ((vm.source, None), (vm.target, vm.f)):
            want = [path_length_reference(space, p, f) for p in paths]
            assert np.array_equal(_path_lengths(space, paths, f), want)
        assert _path_lengths(vm.source, []).shape == (0,)


def _overflow_map() -> VertexMap:
    """A path on 4 vertices whose edges have length 1e308, mapped isometrically
    onto a copy of itself: every path of two or more edges has length inf on
    both sides."""
    def path(p):
        return Space.build([(f"{p}{k}", 1.0) for k in range(4)],
                           [(f"{p}{k}", f"{p}{k + 1}", 1e308) for k in range(3)], "path")
    return VertexMap.build(path("s"), path("t"), {f"s{k}": f"t{k}" for k in range(4)})


class TestLengthOverflow:
    def test_bld_verify_counts_two_infinite_lengths_as_ratio_one(self):
        cert = bld_verify(_overflow_map())
        assert (cert.constant, cert.witness) == (1.0, None)

    def test_curve_length(self):
        src = _overflow_map().source
        assert Curve(src, (0, 1, 2, 3)).length == np.inf
        assert Curve(src, (0, 1)).length == 1e308
        assert Curve(src, (2,)).length == 0.0

    def test_cli_verify_bld_prints_no_warning(self, tmp_path):
        vm = _overflow_map()
        for name, obj in (("source.json", space_to_json(vm.source)),
                          ("target.json", space_to_json(vm.target)),
                          ("map.json", map_to_json(vm, "source.json", "target.json"))):
            (tmp_path / name).write_text(json.dumps(obj))
        src_dir = os.path.dirname(os.path.dirname(qrgraph.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir,
                                                            os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "qrgraph.cli", "verify", "--map",
                               str(tmp_path / "map.json"), "--property", "bld",
                               "--out", str(tmp_path / "v")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        cert = json.loads((tmp_path / "v" / "report.json").read_text())["certificates"][0]
        assert (cert["constant"], cert["witness"]) == (1.0, None)


def _maps():
    maps = {"winding_2_4_8": gen_winding(2, 4, 8), "cycle_cover_16_2": gen_cycle_cover(16, 2)}
    # n_tgt chosen so that each map is discrete and can be factorized
    for n, n_tgt, seed in ((12, 10, 1), (12, 10, 3), (30, 20, 0), (30, 20, 1)):
        maps[f"random_{n}_s{seed}"] = random_map(np.random.default_rng(seed), n, n_tgt)
    # a path folded back and forth over one edge: scaled by 3, its lower
    # factorization passes parts (i) and (ii) and fails the 1-BDD bracket
    src = Space.build([(f"s{k}", 1.0) for k in range(4)],
                      [("s2", "s0", 1.0), ("s0", "s1", 0.5), ("s1", "s3", 1.5)], "path")
    tgt = Space.build([("t0", 1.0), ("t1", 1.0)], [("t0", "t1", 1.0)], "path")
    maps["zigzag_4"] = VertexMap.build(src, tgt, {"s0": "t0", "s1": "t1", "s2": "t1", "s3": "t0"})
    return maps


MAPS = _maps()


def _collapsing(vm: VertexMap) -> VertexMap:
    """A random map of the same source size that collapses edges, so zero
    image diameters occur."""
    n = vm.source.n
    return random_map(np.random.default_rng(n), n, max(1, n // 3))


def _scaled(fact, c: float):
    """The factorization with its pullback matrix scaled by c, so the 1-BDD
    identity fails and part (iii) of verify_projection has witnesses."""
    pb = _with_metric(fact.vm.source, c * np.array(fact.pullback_space.dist),
                      fact.pullback_space.mass)
    return replace(fact, pullback_space=pb,
                   lift=VertexMap(source=fact.vm.source, target=pb, f=fact.lift.f, check=False),
                   projection=VertexMap(source=pb, target=fact.vm.target, f=fact.vm.f,
                                        check=False))


def _check_against_reference(verify, reference, vm: VertexMap) -> None:
    """Equal constant and witness on the map and its collapsing variant, at
    seeds 0 and 1."""
    for m in (vm, _collapsing(vm)):
        for seed in (0, 1):
            paths = enumerate_paths(m.source, 4, rng=np.random.default_rng(seed), n_random=100)
            worst, path = reference(m, paths)
            cert = verify(m, seed=seed)
            assert cert.constant == worst
            assert cert.witness == (None if path is None else [m.source.ids[v] for v in path])


@pytest.mark.parametrize("name", sorted(MAPS))
class TestCertificatesMatchReference:
    def test_bdd_verify(self, name):
        _check_against_reference(bdd_verify, bdd_worst_reference, MAPS[name])

    def test_bld_verify(self, name):
        _check_against_reference(bld_verify, bld_worst_reference, MAPS[name])

    def test_verify_projection_and_transfer(self, name):
        vm = MAPS[name]
        paths = enumerate_paths(vm.source, 4, rng=np.random.default_rng(0), n_random=50)
        f_bdd = bdd_worst_reference(vm, paths)[0]
        f_bld = bld_worst_reference(vm, paths)[0]
        # the bracket's factor-2 slack needs a larger scale to fail
        for metric, c in (("exact", 1.5), ("lower", 3.0)):
            fact = factorize(vm, metric=metric, cap=EXACT_CAP_DEFAULT)
            for f in (fact, _scaled(fact, c)):
                cert = verify_projection(f)
                ok, witness, worst = projection_bdd_reference(f)
                assert cert.details["bdd_worst_deviation"] == worst
                if cert.witness is None or cert.witness[0] in ("bdd", "bdd_bracket"):
                    assert cert.witness == witness
                if not ok:
                    assert not cert.passed
                transfer = bld_bdd_transfer_check(f)
                assert transfer.details["f_bdd"] == f_bdd
                assert transfer.details["f_bld"] == f_bld
                assert transfer.details["g_bdd"] == bdd_worst_reference(f.lift, paths)[0]

    def test_bqs_gauge(self, name):
        for vm in (MAPS[name], _collapsing(MAPS[name])):
            for seed in (0, 1):
                assert bqs_gauge(vm, seed=seed).pairs() == bqs_pairs_reference(vm, seed=seed)


def test_factorize_winding_at_the_default_cap():
    vm = gen_winding(2, 4, 8)
    assert vm.source.n > 14
    fact = factorize(vm)
    assert fact.bracket.exact and fact.pullback_space.n == vm.source.n
