"""The whole-map ``verify --property metric-qr|inverse-qr`` report against
the per-vertex profiles, and against itself when the vertex records of
source and target come in another order."""
from __future__ import annotations

import json

import numpy as np
import pytest

from qrgraph import cli
from qrgraph.certificates import _jsonable
from qrgraph.covering import load_map
from qrgraph.dilatation import dilatation_profile, inverse_dilatation_profile

MAPS = {
    "winding": ["--kind", "winding", "--k", "2", "--levels", "4", "--sectors", "8"],
    "cycle_cover": ["--kind", "cycle_cover", "--n", "8", "--m", "2"],
}
CASES = pytest.mark.parametrize("name, prop, cap", [
    (name, prop, cap) for name in MAPS for prop in ("metric-qr", "inverse-qr")
    for cap in (None, "0.5", "inf")])


@pytest.fixture(scope="module")
def maps(tmp_path_factory):
    out = {}
    for name, gen in MAPS.items():
        d = tmp_path_factory.mktemp(name)
        assert cli.main(["gen", *gen, "--out", str(d), "--seed", "1"]) == 0
        out[name] = d / "map.json"
    return out


def report_rows(path, prop, cap, out):
    argv = ["verify", "--map", str(path), "--property", prop, "--out", str(out), "--seed", "1"]
    cli.main(argv + ([] if cap is None else ["--radius-cap", cap]))
    return json.loads((out / "report.json").read_text())["certificates"][0]["details"]["profiles"]


@CASES
def test_report_rows_equal_the_vertex_profiles(maps, tmp_path, name, prop, cap):
    vm = load_map(str(maps[name]))
    profile = inverse_dilatation_profile if prop == "inverse-qr" else dilatation_profile
    want = {}
    for x in range(vm.source.n):
        prof = profile(vm, x, None if cap is None else float(cap))
        want[prof.vertex] = json.loads(json.dumps(_jsonable(
            {"H": prof.h_sup, "h": prof.h_inf, "cap": prof.cap, "flags": list(prof.flags)})))
    assert report_rows(maps[name], prop, cap, tmp_path) == want


def _permuted_copy(path, out, seed: int):
    """The map at ``path`` written to ``out`` with the vertex records of
    source and target, and the map's pairs, in a seeded order."""
    rng = np.random.default_rng(seed)
    out.mkdir()
    for name, key in (("source.json", "vertices"), ("target.json", "vertices"), ("map.json", "pairs")):
        obj = json.loads((path.parent / name).read_text())
        obj[key] = [obj[key][k] for k in rng.permutation(len(obj[key]))]
        (out / name).write_text(json.dumps(obj))
    return out / "map.json"


@CASES
def test_report_rows_ignore_the_record_order(maps, tmp_path, name, prop, cap):
    base = report_rows(maps[name], prop, cap, tmp_path / "base")
    for seed in (1, 2):
        moved = _permuted_copy(maps[name], tmp_path / f"perm{seed}", seed)
        assert report_rows(moved, prop, cap, tmp_path / f"out{seed}") == base
