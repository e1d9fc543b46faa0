"""Seeded fuzz of the CLI's JSON inputs.

Each case mutates one input file of ``gen_cycle_cover(4, 2)`` at one place
and runs every subcommand that reads it through ``cli.main``.  A mutation
sets one value (the whole document included) to null, a bool, ±1e308, NaN,
±inf, 2^70, 1e-320, -0.0, a string, a list or an object, or deletes one key
or list item.  Every run must end in a documented exit code, 0, 2, 3 or 64,
with no exception escaping, RuntimeWarnings included.
"""
from __future__ import annotations

import json
import math
import random

import pytest

from qrgraph import cli

MAP_FILES = {"map.json", "source.json", "target.json"}
MODULUS = ["modulus", "--space", "target.json", "--weight", "weight.json", "--family"]
COMMANDS = [
    (["validate", "source.json"], {"source.json"}),
    (["validate", "target.json"], {"target.json"}),
    (["validate", "map.json"], MAP_FILES),
    (["pullback", "--map", "map.json"], MAP_FILES),
    (["verify", "--map", "map.json", "--property", "bld"], MAP_FILES),
    (["verify", "--map", "map.json", "--property", "metric-qr"], MAP_FILES),
    (["measure", "--map", "map.json"], MAP_FILES),
    (["embed", "--map", "map.json"], MAP_FILES),
    (MODULUS + ["connect.json"], {"target.json", "weight.json", "connect.json"}),
    (MODULUS + ["curves.json"], {"target.json", "weight.json", "curves.json"}),
]
VALUES = [None, True, False, 1e308, -1e308, math.nan, math.inf, -math.inf, 2 ** 70, 1e-320,
          -0.0, "x", [], {}]
DELETE = object()
MUTATIONS = 100  # per file: about 5 s for all six files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    gen = tmp_path_factory.mktemp("gen")
    assert cli.main(["gen", "--kind", "cycle_cover", "--n", "4", "--m", "2", "--out", str(gen)]) == 0
    docs = {name: json.loads((gen / name).read_text()) for name in sorted(MAP_FILES)}
    docs["connect.json"] = {"connect": {"E": ["t0000"], "F": ["t0002"],
                                        "within": ["t0000", "t0001", "t0002"]}}
    docs["curves.json"] = {"curves": [["t0000", "t0001", "t0002"], ["t0000", "t0003", "t0002"]]}
    docs["weight.json"] = {f"t{i:04d}": 1.5 for i in range(4)}
    return docs


def _places(doc, path=()):
    """The path to every value in ``doc``, the document itself first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _places(value, path + (key,))


def _mutated(doc, rng: random.Random):
    """A copy of ``doc`` with one value set or deleted, and what was done."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_places(doc)))
    value = rng.choice(VALUES + [DELETE] * bool(path))
    what = f"{list(path)} {'deleted' if value is DELETE else f'= {value!r}'}"
    if not path:
        return value, what
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc, what


@pytest.mark.parametrize("name", ["source.json", "target.json", "map.json", "connect.json",
                                  "curves.json", "weight.json"])
def test_mutated_json_input_ends_in_an_exit_code(inputs, tmp_path, capsys, name):
    rng = random.Random(f"cli-fuzz {name}")
    failures = []
    for _ in range(MUTATIONS):
        doc, what = _mutated(inputs[name], rng)
        for other, obj in inputs.items():
            (tmp_path / other).write_text(json.dumps(doc if other == name else obj))
        for argv, reads in COMMANDS:
            if name not in reads:
                continue
            args = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
            try:
                code = cli.main([*args, "--out", str(tmp_path / "out")])
            except Exception as exc:  # every escape is a finding
                failures.append(f"{argv[0]}: {name} {what}: {type(exc).__name__}: {exc}")
                continue
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 64) or "Traceback" in err:
                failures.append(f"{argv[0]}: {name} {what}: exit {code}")
    assert not failures, "\n".join(failures)
