from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qrgraph.cli import main
from qrgraph.spaces import load_space


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def cover_dir(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--kind", "cycle_cover", "--n", 8, "--m", 2, "--out", out]) == 0
    return out


def _strip_time(path):
    with open(path) as fh:
        obj = json.load(fh)
    obj.pop("wall_time_s")
    return json.dumps(obj, sort_keys=True)


class TestValidate:
    def test_valid_corpus_file_exit_zero(self, cover_dir, tmp_path):
        assert run(["validate", cover_dir / "map.json", "--out", tmp_path / "v"]) == 0

    def test_asymmetric_dist_exit_two(self, tmp_path):
        bad = {
            "vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}],
            "edges": [{"u": "a", "v": "b", "len": 1.0}],
            "dist": [[0.0, 1.0], [2.0, 0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["validate", path, "--out", tmp_path / "v"]) == 2

    def test_non_surjective_map_exit_two(self, cover_dir, tmp_path):
        with open(cover_dir / "map.json") as fh:
            obj = json.load(fh)
        obj["pairs"] = [[x, "t0000"] for x, _y in obj["pairs"]]
        bad = tmp_path / "badmap.json"
        bad.write_text(json.dumps(obj))
        assert run(["validate", bad, "--out", tmp_path / "v"]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [], "edges": [], "dist": "path", "x": 1}))
        assert run(["validate", path, "--out", tmp_path / "v"]) == 2


_PAIR = {"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}],
         "edges": [{"u": "a", "v": "b", "len": 1.0}], "dist": "path"}
MALFORMED = {
    "not_json": '{"vertices": [',
    "mass_string": json.dumps({**_PAIR, "vertices": [{"id": "a", "mass": "x"},
                                                     {"id": "b", "mass": 1.0}]}),
    "length_string": json.dumps({**_PAIR, "edges": [{"u": "a", "v": "b", "len": "q"}]}),
    "ragged_dist": json.dumps({**_PAIR, "dist": [[0.0, 1.0], [1.0]]}),
    "vertices_not_list": json.dumps({**_PAIR, "vertices": 3}),
    "integer_ids": json.dumps({"vertices": [{"id": 1, "mass": 1.0}, {"id": 2, "mass": 1.0}],
                               "edges": [{"u": 1, "v": 2, "len": 1.0}], "dist": "path"}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_space_file_is_validation_error(tmp_path, capsys, name):
    path = tmp_path / "space.json"
    path.write_text(MALFORMED[name])
    assert run(["validate", path, "--out", tmp_path / "v"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("invalid: ")


_HUGE = int("1" + "0" * 400)  # a JSON integer no float can hold
TOO_LARGE = {
    "mass": {**_PAIR, "vertices": [{"id": "a", "mass": _HUGE}, {"id": "b", "mass": 1.0}]},
    "len": {**_PAIR, "edges": [{"u": "a", "v": "b", "len": _HUGE}]},
    "dist": {**_PAIR, "dist": [[0, _HUGE], [_HUGE, 0]]},
    "weight": {"a": _HUGE, "b": 1.0},
}


@pytest.mark.parametrize("name", sorted(TOO_LARGE))
def test_integer_too_large_for_a_float_is_validation_error(tmp_path, capsys, name):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(TOO_LARGE[name]))
    if name == "weight":
        space, fam = tmp_path / "space.json", tmp_path / "fam.json"
        space.write_text(json.dumps(_PAIR))
        fam.write_text(json.dumps({"connect": {"E": ["a"], "F": ["b"]}}))
        argv = ["modulus", "--space", space, "--family", fam, "--weight", path]
    else:
        argv = ["validate", path]
    assert run([*argv, "--out", tmp_path / "o"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def _write_map(tmp_path, space: dict, pairs: list) -> str:
    (tmp_path / "space.json").write_text(json.dumps(space))
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"source": "space.json", "target": "space.json",
                                "pairs": pairs}))
    return path


def test_map_assigning_a_source_vertex_twice_is_validation_error(tmp_path, capsys):
    path = _write_map(tmp_path, _PAIR, [["a", "a"], ["a", "b"], ["b", "a"]])
    assert run(["validate", path, "--out", tmp_path / "v"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and "duplicate source id in pairs: a" in err


@pytest.mark.parametrize("prop", ["metric-qr", "inverse-qr"])
def test_single_vertex_map_has_infinite_dilatation(tmp_path, capsys, prop):
    point = {"vertices": [{"id": "a", "mass": 1.0}], "edges": [], "dist": "path"}
    path = _write_map(tmp_path, point, [["a", "a"]])
    assert run(["verify", "--map", path, "--property", prop, "--out", tmp_path / "v"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    cert = json.loads((tmp_path / "v" / "report.json").read_text())["certificates"][0]
    assert cert["constant"] == math.inf
    assert "degenerate cap" in cert["details"]["profiles"]["a"]["flags"]


class TestSubcommands:
    def test_pullback_emits_matrix_and_report(self, cover_dir, tmp_path):
        out = tmp_path / "pb"
        assert run(["pullback", "--map", cover_dir / "map.json", "--out", out]) == 0
        assert (out / "pullback_matrix.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["exact"] is True

    def test_exact_cap_exit_three(self, cover_dir, tmp_path):
        code = run(["pullback", "--map", cover_dir / "map.json",
                    "--exact-cap", 4, "--out", tmp_path / "pb"])
        assert code == 3

    def test_modulus_connecting_family(self, cover_dir, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"connect": {"E": ["t0000"], "F": ["t0004"]}}))
        out = tmp_path / "mod"
        assert run(["modulus", "--space", cover_dir / "target.json",
                    "--family", fam, "--p", 2, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["value"] == pytest.approx(0.5)
        assert (out / "density.csv").exists()

    def test_modulus_family_unknown_ids_exit_two(self, cover_dir, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"curves": [["t0000", "t0001"], ["t0001", "t0002"]]}))
        assert run(["modulus", "--space", cover_dir / "target.json",
                    "--family", fam, "--out", tmp_path / "ok"]) == 0
        for spec, bad in (
            ({"connect": {"E": ["r0_0", "t0000"], "F": ["t0004"], "within": ["zz"]}},
             ["r0_0", "zz"]),
            ({"connect": {"E": ["t0000"]}}, ["E and F"]),
            ({"curves": [["t0000", "t0001"], ["t0001", "q9"]]}, ["q9"]),
        ):
            fam.write_text(json.dumps(spec))
            assert run(["modulus", "--space", cover_dir / "target.json",
                        "--family", fam, "--out", tmp_path / "mod"]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert all(b in err for b in bad), err

    def test_verify_properties(self, cover_dir, tmp_path):
        for prop in ("bld", "bdd", "lq", "metric-qr", "inverse-qr", "bqs"):
            code = run(["verify", "--map", cover_dir / "map.json",
                        "--property", prop, "--out", tmp_path / prop])
            assert code == 0, prop

    def test_embed_outputs(self, cover_dir, tmp_path):
        out = tmp_path / "em"
        assert run(["embed", "--map", cover_dir / "map.json", "--out", out]) == 0
        assert (out / "coordinates.csv").exists()
        assert (out / "plan.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["injective"] is True

    def test_measure_outputs(self, cover_dir, tmp_path):
        out = tmp_path / "ms"
        assert run(["measure", "--map", cover_dir / "map.json", "--out", out]) == 0
        assert (out / "jacobians.csv").exists()

    def test_gen_polar_grid(self, tmp_path):
        out = tmp_path / "pg"
        assert run(["gen", "--kind", "polar_grid", "--levels", 3, "--sectors", 6,
                    "--r0", 1.0, "--r1", math.e, "--out", out]) == 0
        assert (out / "space.json").exists()

    def test_gen_pullback_space(self, cover_dir, tmp_path):
        out = tmp_path / "pbs"
        assert run(["gen", "--kind", "pullback_space", "--map", cover_dir / "map.json",
                    "--out", out]) == 0
        assert run(["validate", out / "space.json", "--out", out / "v"]) == 0

    def test_modulus_weight_file(self, cover_dir, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"connect": {"E": ["t0000"], "F": ["t0004"]}}))
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({f"t{i:04d}": 2.0 for i in range(8)}))
        out = tmp_path / "modw"
        assert run(["modulus", "--space", cover_dir / "target.json", "--family", fam,
                    "--weight", wfile, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["value"] == pytest.approx(1.0)  # doubled weights

    @pytest.mark.parametrize("weights", [[1.0], {"t0000": "x"}, {"t0000": 2.0}])
    def test_malformed_weight_file_is_validation_error(self, cover_dir, tmp_path, capsys,
                                                       weights):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"connect": {"E": ["t0000"], "F": ["t0004"]}}))
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(weights))
        assert run(["modulus", "--space", cover_dir / "target.json", "--family", fam,
                    "--weight", wfile, "--out", tmp_path / "modw"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_usage_error_64(self, capsys):
        assert run(["bogus-command"]) == 64

    @pytest.mark.parametrize("cap", ["0", "-1", "1e-10", "nan"])
    @pytest.mark.parametrize("prop", ["metric-qr", "inverse-qr"])
    def test_radius_cap_without_centre_is_usage_error(self, cover_dir, tmp_path, capsys,
                                                      cap, prop):
        code = run(["verify", "--map", cover_dir / "map.json", "--property", prop,
                    "--radius-cap", cap, "--out", tmp_path / "v"])
        assert code == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err and "radius cap" in err

    def test_radius_cap_inf_accepted(self, cover_dir, tmp_path):
        # an unbounded neighbourhood sees the other sheet, so H is infinite
        code = run(["verify", "--map", cover_dir / "map.json", "--property", "metric-qr",
                    "--radius-cap", "inf", "--out", tmp_path / "v"])
        assert code == 2
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["certificates"][0]["constant"] == math.inf

    def test_radius_cap_below_target_diagonal_is_empty_neighbourhood(self, cover_dir,
                                                                      tmp_path, capsys):
        # the target's explicit diagonal 1e-9 is a valid metric, and a cap of
        # 1.5e-9 leaves every x outside its own ball: no rows, H infinite
        target = cover_dir / "target.json"
        obj = json.loads(target.read_text())
        dist = np.array(load_space(str(target)).dist)
        dist[np.diag_indices_from(dist)] = 1e-9
        obj["dist"] = dist.tolist()
        target.write_text(json.dumps(obj))
        assert run(["validate", cover_dir / "map.json", "--out", tmp_path / "val"]) == 0
        code = run(["verify", "--map", cover_dir / "map.json", "--property", "metric-qr",
                    "--radius-cap", "1.5e-9", "--out", tmp_path / "v"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["certificates"][0]["constant"] == math.inf

    def test_metric_qr_rows_carry_flags(self, cover_dir, tmp_path):
        # the same explicit diagonal as above: every row says why H is infinite
        target = cover_dir / "target.json"
        obj = json.loads(target.read_text())
        dist = np.array(load_space(str(target)).dist)
        dist[np.diag_indices_from(dist)] = 1e-9
        obj["dist"] = dist.tolist()
        target.write_text(json.dumps(obj))
        assert run(["verify", "--map", cover_dir / "map.json", "--property", "metric-qr",
                    "--radius-cap", "1.5e-9", "--out", tmp_path / "v"]) == 2
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        rows = report["certificates"][0]["details"]["profiles"]
        assert len(rows) == 16
        assert all("empty neighbourhood" in row["flags"] for row in rows.values())

    @pytest.mark.parametrize("argv", [["measure", "--tol", "1e-3"],
                                      ["verify", "--property", "bld", "--exact-cap", "4"],
                                      ["pullback", "--radius-cap", "1.0"]])
    def test_option_the_subcommand_does_not_read_is_usage_error(self, cover_dir, tmp_path,
                                                                argv):
        assert run([*argv, "--map", cover_dir / "map.json", "--out", tmp_path / "o"]) == 64


class TestDeterminism:
    def test_reports_byte_identical_modulo_walltime(self, cover_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["embed", "--map", cover_dir / "map.json",
                        "--seed", 7, "--out", out]) == 0
        assert _strip_time(a / "report.json") == _strip_time(b / "report.json")
        assert (a / "coordinates.csv").read_text() == (b / "coordinates.csv").read_text()
        assert (a / "plan.json").read_text() == (b / "plan.json").read_text()

    def test_every_subcommand_writes_identical_files_modulo_walltime(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"connect": {"E": ["t0000"], "F": ["t0004"]}}))
        for top in (tmp_path / "a", tmp_path / "b"):
            gen = top / "gen"
            assert run(["gen", "--kind", "cycle_cover", "--n", 8, "--m", 2, "--out", gen]) == 0
            mp = gen / "map.json"
            runs = [["validate", mp], ["pullback", "--map", mp], ["measure", "--map", mp],
                    ["modulus", "--space", gen / "target.json", "--family", fam],
                    ["embed", "--map", mp],
                    *(["verify", "--map", mp, "--property", prop] for prop in
                      ("bld", "bdd", "lq", "metric-qr", "inverse-qr", "bqs"))]
            for k, argv in enumerate(runs):
                assert run([*argv, "--seed", 7, "--out", top / f"r{k}"]) == 0, argv
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
        assert len(files) == 20
        for rel in files:
            a, b = ((tmp_path / top / rel).read_text() for top in ("a", "b"))
            if rel.suffix == ".json":
                assert a.endswith("\n") and b.endswith("\n"), rel
            strip = [line for line in a.splitlines() if '"wall_time_s"' not in line]
            assert strip == [line for line in b.splitlines() if '"wall_time_s"' not in line], rel
