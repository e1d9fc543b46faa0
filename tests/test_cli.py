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


def test_total_mass_that_overflows_is_validation_error_in_one_line(tmp_path, capsys):
    heavy = dict(_PAIR, vertices=[{"id": "a", "mass": 1e308}, {"id": "b", "mass": 1e308}])
    path = tmp_path / "space.json"
    path.write_text(json.dumps(heavy))
    assert run(["validate", path, "--out", tmp_path / "v"]) == 2
    assert capsys.readouterr().err == "invalid: total mass not finite\n"


def test_measure_with_a_target_mass_near_the_float_max_passes(winding_dir, tmp_path):
    # r000s000 has two preimages, so both sides of the change of variables
    # overflow to inf; that is equality, and no RuntimeWarning is raised
    target = json.loads((winding_dir / "target.json").read_text())
    for v in target["vertices"]:
        if v["id"] == "r000s000":
            v["mass"] = 1e308
    (tmp_path / "target.json").write_text(json.dumps(target))
    obj = json.loads((winding_dir / "map.json").read_text())
    obj["source"], obj["target"] = str(winding_dir / obj["source"]), "target.json"
    (tmp_path / "map.json").write_text(json.dumps(obj))
    assert run(["measure", "--map", tmp_path / "map.json", "--out", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["results"]["total_pullback_mass"] == "inf"


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


@pytest.mark.parametrize("prop", ["bld", "bdd"])
def test_infinite_constant_fails_an_infinite_bound(tmp_path, prop):
    # a-b-c onto a-b with a, b -> a collapses the edge a-b: infinite distortion
    path3 = {**_PAIR, "vertices": [{"id": v, "mass": 1.0} for v in "abc"],
             "edges": [{"u": "a", "v": "b", "len": 1.0}, {"u": "b", "v": "c", "len": 1.0}]}
    (tmp_path / "source.json").write_text(json.dumps(path3))
    (tmp_path / "target.json").write_text(json.dumps(_PAIR))
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"source": "source.json", "target": "target.json",
                                "pairs": [["a", "a"], ["b", "a"], ["c", "b"]]}))
    assert run(["verify", "--map", path, "--property", prop, "--constant", "inf",
                "--out", tmp_path / "v"]) == 2
    cert = json.loads((tmp_path / "v" / "report.json").read_text())["certificates"][0]
    assert cert["constant"] == math.inf and cert["passed"] is False


@pytest.mark.parametrize("p", ["nan", "inf", "1", "0.5"])
def test_modulus_exponent_outside_one_to_infinity_is_usage_error(tmp_path, capsys, p):
    space, fam = tmp_path / "space.json", tmp_path / "fam.json"
    space.write_text(json.dumps(_PAIR))
    fam.write_text(json.dumps({"connect": {"E": ["a"], "F": ["b"]}}))
    assert run(["modulus", "--space", space, "--family", fam, "--p", p,
                "--out", tmp_path / "o"]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err and "1 < p < inf" in err


@pytest.mark.parametrize("weight", ["Infinity", "NaN", "-1.0"])
def test_non_finite_or_negative_weight_is_validation_error(tmp_path, capsys, weight):
    space, fam, wfile = tmp_path / "space.json", tmp_path / "fam.json", tmp_path / "w.json"
    space.write_text(json.dumps(_PAIR))
    fam.write_text(json.dumps({"connect": {"E": ["a"], "F": ["b"]}}))
    wfile.write_text('{"a": %s, "b": 1.0}' % weight)
    assert run(["modulus", "--space", space, "--family", fam, "--weight", wfile,
                "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "vertex weight not finite and nonnegative at a" in err


USAGE_OR_INPUT_ERRORS = [
    (["validate", "<tmp>"], 2),  # a directory
    (["gen", "--kind", "grid", "--w", 0], 64),
    (["gen", "--kind", "cycle", "--n", 2], 64),
    (["gen", "--kind", "cycle_cover", "--n", 2], 64),
    (["gen", "--kind", "winding", "--k", 0], 64),
    (["gen", "--kind", "winding", "--sectors", 2], 64),
    (["gen", "--kind", "polar_grid", "--r0", 2, "--r1", 1], 64),
    (["gen", "--kind", "pullback_space"], 64),  # no --map
    # a seed below zero, which numpy's generator refuses, in every subcommand
    (["validate", "<tmp>", "--seed", -1], 64),
    (["gen", "--kind", "cycle", "--seed", -1], 64),
    (["pullback", "--map", "<tmp>", "--seed", -1], 64),
    (["measure", "--map", "<tmp>", "--seed", -1], 64),
    (["modulus", "--space", "<tmp>", "--family", "<tmp>", "--seed", -1], 64),
    (["embed", "--map", "<tmp>", "--seed", -1], 64),
    *((["verify", "--map", "<tmp>", "--property", prop, "--seed", s], 64)
      for prop in ("bld", "bdd", "lq", "metric-qr", "inverse-qr", "bqs") for s in (-1, 1.5)),
    # modulus tolerances outside 0 < tol < 1 and work caps below 1
    *((["modulus", "--space", "<tmp>", "--family", "<tmp>", flag, v], 64)
      for flag, v in [*(("--tol", v) for v in ("inf", "nan", -1, 0, 1, "x")),
                      *(("--max-iter", v) for v in (0, -5, 1.5, "inf"))]),
]


@pytest.mark.parametrize("argv, code", USAGE_OR_INPUT_ERRORS,
                         ids=[" ".join(map(str, a)) for a, _c in USAGE_OR_INPUT_ERRORS])
def test_bad_input_ends_in_an_exit_code_not_a_traceback(tmp_path, capsys, argv, code):
    argv = [tmp_path if a == "<tmp>" else a for a in argv]
    assert run([*argv, "--out", tmp_path / "o"]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, text", [("--tol", "inf", "0 < tol < 1"),
                                               ("--tol", "nan", "0 < tol < 1"),
                                               ("--max-iter", 0, "integer >= 1"),
                                               ("--seed", -1, "integer >= 0")])
def test_out_of_range_modulus_option_names_its_range(tmp_path, capsys, flag, value, text):
    gen = tmp_path / "gen"
    assert run(["gen", "--kind", "winding", "--k", 2, "--levels", 3, "--sectors", 6,
                "--out", gen]) == 0
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"connect": {"E": ["r000s000"], "F": ["r002s003"]}}))
    capsys.readouterr()
    assert run(["modulus", "--space", gen / "target.json", "--family", fam, flag, value,
                "--out", tmp_path / "o"]) == 64
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and text in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("spec", [{"curves": []}, []])
    def test_modulus_empty_family_is_zero(self, cover_dir, tmp_path, capsys, spec):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(spec))
        out = tmp_path / "mod"
        assert run(["modulus", "--space", cover_dir / "target.json",
                    "--family", fam, "--out", out]) == 0
        assert "Traceback" not in capsys.readouterr().err
        results = json.loads((out / "report.json").read_text())["results"]
        assert (results["value"], results["flags"], results["exact"]) == (0.0, ["empty family"], False)

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


@pytest.mark.parametrize("argv, text", [
    (["verify", "--property", "bld", "--constant", "nan"], "constant must be a number"),
    (["verify", "--property", "bdd", "--constant", "NaN"], "constant must be a number"),
    (["verify", "--property", "lq", "--constant", "x"], "--constant"),
    (["pullback", "--exact-cap", -5], "integer >= 1"),
    (["pullback", "--exact-cap", 0], "integer >= 1"),
    (["embed", "--exact-cap", 1.5], "integer >= 1"),
    (["gen", "--kind", "pullback_space", "--exact-cap", "inf"], "integer >= 1"),
])
def test_constant_and_exact_cap_out_of_range_are_usage_errors(cover_dir, tmp_path, capsys,
                                                              argv, text):
    assert run([*argv, "--map", cover_dir / "map.json", "--out", tmp_path / "o"]) == 64
    err = capsys.readouterr().err
    assert text in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def winding_dir(tmp_path_factory):
    """The files of ``gen --kind winding --k 2 --levels 4 --sectors 8`` and a
    family joining the target's innermost ring to its outermost."""
    out = tmp_path_factory.mktemp("winding")
    assert run(["gen", "--kind", "winding", "--k", 2, "--levels", 4, "--sectors", 8,
                "--out", out]) == 0
    (out / "family.json").write_text(json.dumps(
        {"connect": {"E": [f"r000s{j:03d}" for j in range(8)],
                     "F": [f"r003s{j:03d}" for j in range(8)]}}))
    return out


FLOAT_OPTIONS = {
    "gen --r0": ["gen", "--kind", "polar_grid", "--r0"],
    "gen --r1": ["gen", "--kind", "polar_grid", "--r1"],
    "gen --r0 0 --r1": ["gen", "--kind", "polar_grid", "--r0", 0, "--r1"],
    "modulus --p": ["modulus", "--space", "<dir>/target.json", "--family", "<dir>/family.json",
                    "--p"],
    "modulus --tol": ["modulus", "--space", "<dir>/target.json", "--family", "<dir>/family.json",
                      "--tol"],
    "verify --constant": ["verify", "--map", "<dir>/map.json", "--property", "bld", "--constant"],
    "verify --radius-cap": ["verify", "--map", "<dir>/map.json", "--property", "metric-qr",
                            "--radius-cap"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "1e-320", "-0.0"])
@pytest.mark.parametrize("option", list(FLOAT_OPTIONS))
def test_float_option_at_the_edge_of_the_float_range_ends_in_an_exit_code(
        winding_dir, tmp_path, capsys, option, value):
    *argv, flag = [str(a).replace("<dir>", str(winding_dir)) for a in FLOAT_OPTIONS[option]]
    # --flag=value: argparse reads a separate "-inf" as an option
    assert run([*argv, f"{flag}={value}", "--out", tmp_path / "o"]) in (0, 2, 3, 64)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["gen", "--kind", "polar_grid", "--r0=nan", "--r1", 2], 64),  # was a disk, exit 0
    (["gen", "--kind", "polar_grid", "--r1=inf"], 64),  # was a page of findings, exit 2
    (["gen", "--kind", "polar_grid", "--r0", 0, "--r1=1e-320"], 64),
    (["modulus", "--space", "<dir>/target.json", "--family", "<dir>/family.json", "--p=1e5"], 2),
    (["modulus", "--space", "<dir>/target.json", "--family", "<dir>/family.json", "--p=1.001"], 2),
], ids=["r0-nan", "r1-inf", "disk-r1-1e-320", "p-1e5", "p-1.001"])
def test_float_option_out_of_range_is_refused_in_one_line(winding_dir, tmp_path, capsys, argv, code):
    argv = [str(a).replace("<dir>", str(winding_dir)) for a in argv]
    assert run([*argv, "--out", tmp_path / "o"]) == code
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "o").exists()
