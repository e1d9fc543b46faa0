"""The findings of ``space_from_json``, pinned text for text, and its Space
and findings against the record-by-record reader kept in ``conftest``.

Each bad input names the whole ``ValidationError.findings`` tuple: schema
defects of the records first (vertices, then edges, then ``dist``), and only
when there are none, the defects ``Space.build`` finds, in record order.
"""
from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import space_from_json_reference
from qrgraph.generators import gen_polar_grid, gen_winding
from qrgraph.spaces import Space, ValidationError, _components_idx, space_from_json, space_to_json

_HUGE = int("1" + "0" * 400)  # a JSON integer no float can hold


def _doc(vertices=None, edges=None, dist="path") -> dict:
    """A path a-b-c of unit masses and lengths, with the given parts swapped in."""
    return {
        "vertices": [{"id": v, "mass": 1.0} for v in "abc"] if vertices is None else vertices,
        "edges": ([{"u": "a", "v": "b", "len": 1.0}, {"u": "b", "v": "c", "len": 1.0}]
                  if edges is None else edges),
        "dist": dist,
    }


def _v(vid, mass=1.0):
    return {"id": vid, "mass": mass}


def _e(u, v, ln=1.0):
    return {"u": u, "v": v, "len": ln}


_ABC = [_v("a"), _v("b"), _v("c")]

CASES = {
    # -- the document ---------------------------------------------------------
    "not_an_object": ([1, 2], ("space JSON must be an object",)),
    "unknown_field": ({**_doc(), "x": 1, "w": 2}, ("unknown fields: ['w', 'x']",)),
    "missing_field": ({"vertices": _ABC}, ("missing fields: ['dist', 'edges']",)),
    "vertices_not_list": (_doc(vertices={"a": 1.0}), ("vertices must be a list of vertex records",)),
    "edges_not_list": (_doc(edges="a-b"), ("edges must be a list of edge records",)),
    # -- one bad record -------------------------------------------------------
    "vertex_not_dict": (_doc(vertices=[_v("a"), 3, _v("b"), _v("c")]),
                        ("vertex record fields must be exactly id,mass: 3",)),
    "vertex_missing_field": (_doc(vertices=[_v("a"), {"id": "b"}, _v("c")]),
                             ("vertex record fields must be exactly id,mass: {'id': 'b'}",)),
    "vertex_extra_field": (_doc(vertices=[_v("a"), {"id": "b", "mass": 1.0, "x": 0}, _v("c")]),
                           ("vertex record fields must be exactly id,mass: "
                            "{'id': 'b', 'mass': 1.0, 'x': 0}",)),
    "edge_not_dict": (_doc(edges=[_e("a", "b"), ["b", "c", 1.0]]),
                      ("edge record fields must be exactly u,v,len: ['b', 'c', 1.0]",)),
    "edge_missing_field": (_doc(edges=[_e("a", "b"), {"u": "b", "v": "c"}]),
                           ("edge record fields must be exactly u,v,len: {'u': 'b', 'v': 'c'}",)),
    "edge_extra_field": (_doc(edges=[{"u": "a", "v": "b", "len": 1.0, "w": 2}, _e("b", "c")]),
                         ("edge record fields must be exactly u,v,len: "
                          "{'u': 'a', 'v': 'b', 'len': 1.0, 'w': 2}",)),
    "vertex_id_not_string": (_doc(vertices=[_v("a"), _v(2), _v("c")]),
                             ("vertex id must be strings: {'id': 2, 'mass': 1.0}",)),
    "vertex_id_none": (_doc(vertices=[_v(None), _v("b"), _v("c")]),
                       ("vertex id must be strings: {'id': None, 'mass': 1.0}",)),
    "edge_end_not_string": (_doc(edges=[_e("a", "b"), _e("b", 3)]),
                            ("edge u,v must be strings: {'u': 'b', 'v': 3, 'len': 1.0}",)),
    "vertex_mass_bool": (_doc(vertices=[_v("a", True), _v("b"), _v("c")]),
                         ("vertex mass must be a number: {'id': 'a', 'mass': True}",)),
    "vertex_mass_string": (_doc(vertices=[_v("a"), _v("b", "1"), _v("c")]),
                           ("vertex mass must be a number: {'id': 'b', 'mass': '1'}",)),
    "edge_length_bool": (_doc(edges=[_e("a", "b", False), _e("b", "c")]),
                         ("edge len must be a number: {'u': 'a', 'v': 'b', 'len': False}",)),
    "edge_length_null": (_doc(edges=[_e("a", "b"), _e("b", "c", None)]),
                         ("edge len must be a number: {'u': 'b', 'v': 'c', 'len': None}",)),
    "vertex_mass_too_large": (_doc(vertices=[_v("a"), _v("b", -_HUGE), _v("c")]),
                              (f"vertex mass must be a number: {_v('b', -_HUGE)}",)),
    "edge_length_too_large": (_doc(edges=[_e("a", "b", _HUGE), _e("b", "c")]),
                              (f"edge len must be a number: {_e('a', 'b', _HUGE)}",)),
    # -- dist -----------------------------------------------------------------
    "dist_other_string": (_doc(dist="geodesic"),
                          ("dist must be \"path\" or a matrix, got 'geodesic'",)),
    "dist_ragged": (_doc(dist=[[0.0, 1.0, 2.0], [1.0, 0.0], [2.0, 1.0, 0.0]]),
                    ('dist must be "path" or a square matrix of numbers',)),
    "dist_not_square": (_doc(dist=[[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]]),
                        ('dist must be "path" or a square matrix of numbers',)),
    "dist_row_not_list": (_doc(dist=[[0.0, 1.0, 2.0], 1.0, [2.0, 1.0, 0.0]]),
                          ('dist must be "path" or a square matrix of numbers',)),
    "dist_non_numeric": (_doc(dist=[[0.0, 1.0, 2.0], [1.0, 0.0, "1"], [2.0, 1.0, 0.0]]),
                         ('dist must be "path" or a square matrix of numbers',)),
    "dist_bool": (_doc(dist=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, False]]),
                  ('dist must be "path" or a square matrix of numbers',)),
    "dist_too_large": (_doc(dist=[[0, 1, 2], [1, 0, _HUGE], [2, 1, 0]]),
                       ('dist must be "path" or a square matrix of numbers',)),
    "dist_number": (_doc(dist=3.0), ('dist must be "path" or a square matrix of numbers',)),
    "dist_wrong_size": (_doc(dist=[[0.0, 1.0], [1.0, 0.0]]), ("dist shape (2, 2) != (3,3)",)),
    "dist_empty": (_doc(dist=[]), ("dist shape (0,) != (3,3)",)),
    # -- Space.build: vertices ------------------------------------------------
    "duplicate_ids": (_doc(vertices=[_v("a"), _v("b"), _v("c"), _v("b")]),
                      ("duplicate vertex ids",)),
    "negative_masses": (_doc(vertices=[_v("a", -1.0), _v("b", 2), _v("c", -0.5)]),
                        ("negative vertex mass",)),
    "mass_zero_total": (_doc(vertices=[_v("a", 0), _v("b", 0.0), _v("c", -0.0)]),
                        ("total mass not positive",)),
    "mass_total_overflows": (_doc(vertices=[_v("a", 1e308), _v("b", 1e308), _v("c")]),
                             ("total mass not finite",)),
    "disconnected": (_doc(edges=[_e("a", "b")]), ("disconnected",)),
    "empty": (_doc(vertices=[], edges=[]), ("disconnected", "total mass not positive")),
    # -- Space.build: edges ---------------------------------------------------
    "unknown_endpoint": (_doc(edges=[_e("a", "b"), _e("b", "z"), _e("y", "c")]),
                         ("edge endpoint unknown: (b,z)", "edge endpoint unknown: (y,c)")),
    "self_loop": (_doc(edges=[_e("a", "b"), _e("b", "b"), _e("b", "c")]), ("self-loop at b",)),
    "duplicate_edge": (_doc(edges=[_e("a", "b"), _e("b", "c"), _e("a", "b", 2.0)]),
                       ("duplicate edge (a,b)",)),
    "duplicate_edge_reversed": (_doc(edges=[_e("a", "b"), _e("b", "c"), _e("c", "b")]),
                                ("duplicate edge (c,b)",)),
    "duplicate_edge_bad_length": (_doc(edges=[_e("a", "b"), _e("b", "c"), _e("b", "a", -1.0)]),
                                  ("duplicate edge (b,a)",)),
    "duplicate_of_bad_length": (_doc(edges=[_e("a", "b", 0), _e("b", "c"), _e("b", "a")]),
                                ("nonpositive edge length on (a,b)", "duplicate edge (b,a)")),
    "nonpositive_lengths": (_doc(edges=[_e("a", "b", 0.0), _e("b", "c", -2)]),
                            ("nonpositive edge length on (a,b)",
                             "nonpositive edge length on (b,c)")),
}

# JSON literals that json.loads accepts although no JSON number spells them
LITERALS = {
    "mass_nan": ('{"vertices": [{"id": "a", "mass": NaN}, {"id": "b", "mass": 1.0}], '
                 '"edges": [{"u": "a", "v": "b", "len": 1.0}], "dist": "path"}',
                 ("non-finite vertex mass at a",)),
    "masses_infinite": ('{"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": Infinity},'
                        ' {"id": "c", "mass": -Infinity}], "edges": [{"u": "a", "v": "b", '
                        '"len": 1.0}, {"u": "c", "v": "b", "len": 1.0}], "dist": "path"}',
                        ("non-finite vertex mass at b", "non-finite vertex mass at c")),
    "length_nan": ('{"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}], '
                   '"edges": [{"u": "a", "v": "b", "len": NaN}], "dist": "path"}',
                   ("non-finite edge length on (a,b)",)),
    "lengths_infinite": ('{"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}, '
                         '{"id": "c", "mass": 1.0}], "edges": [{"u": "a", "v": "b", '
                         '"len": Infinity}, {"u": "b", "v": "c", "len": -Infinity}], '
                         '"dist": "path"}',
                         ("non-finite edge length on (a,b)", "non-finite edge length on (b,c)")),
    "dist_nan": ('{"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": 1.0}], '
                 '"edges": [{"u": "a", "v": "b", "len": 1.0}], '
                 '"dist": [[0.0, NaN], [NaN, 0.0]]}',
                 ("dist has non-finite entries",)),
}


def _findings(obj) -> tuple[str, ...]:
    with pytest.raises(ValidationError) as exc:
        space_from_json(obj)
    assert str(exc.value) == "; ".join(exc.value.findings)
    return exc.value.findings


@pytest.mark.parametrize("name", list(CASES))
def test_each_bad_record_alone(name):
    obj, want = CASES[name]
    assert _findings(obj) == want


@pytest.mark.parametrize("name", list(LITERALS))
def test_non_finite_json_literals(name):
    text, want = LITERALS[name]
    assert _findings(json.loads(text)) == want


def test_schema_defects_mixed_in_one_file_come_in_record_order():
    obj = _doc(
        vertices=[_v("a"), 7, _v(1, 2.0), _v("b", True), {"id": "c"}, _v("c", _HUGE), _v("d")],
        edges=[{"u": "a", "v": "b"}, _e("a", "b"), _e("b", None), _e("b", "c", "1"), None],
        dist=[[0.0], [1.0, 0.0]],
    )
    assert _findings(obj) == (
        "vertex record fields must be exactly id,mass: 7",
        "vertex id must be strings: {'id': 1, 'mass': 2.0}",
        "vertex mass must be a number: {'id': 'b', 'mass': True}",
        "vertex record fields must be exactly id,mass: {'id': 'c'}",
        f"vertex mass must be a number: {_v('c', _HUGE)}",
        "edge record fields must be exactly u,v,len: {'u': 'a', 'v': 'b'}",
        "edge u,v must be strings: {'u': 'b', 'v': None, 'len': 1.0}",
        "edge len must be a number: {'u': 'b', 'v': 'c', 'len': '1'}",
        "edge record fields must be exactly u,v,len: None",
        'dist must be "path" or a square matrix of numbers',
    )


def test_schema_defects_hide_build_defects():
    # a duplicate id and a self-loop wait until every record is well formed
    obj = _doc(vertices=[_v("a"), _v("a"), _v("b", "x")], edges=[_e("a", "a")])
    assert _findings(obj) == ("vertex mass must be a number: {'id': 'b', 'mass': 'x'}",)


def test_build_defects_mixed_in_one_file_come_in_record_order():
    obj = json.loads(
        '{"vertices": [{"id": "a", "mass": 1.0}, {"id": "b", "mass": NaN}, '
        '{"id": "a", "mass": -1}, {"id": "c", "mass": Infinity}, {"id": "d", "mass": 2}], '
        '"edges": [{"u": "a", "v": "b", "len": 0}, {"u": "b", "v": "q", "len": 1.0}, '
        '{"u": "c", "v": "c", "len": 1.0}, {"u": "b", "v": "a", "len": NaN}, '
        '{"u": "c", "v": "d", "len": Infinity}, {"u": "d", "v": "c", "len": 1.0}, '
        '{"u": "b", "v": "c", "len": -3}, {"u": "p", "v": "q", "len": 1.0}], "dist": "path"}')
    assert _findings(obj) == (
        "duplicate vertex ids",
        "non-finite vertex mass at b",
        "non-finite vertex mass at c",
        "negative vertex mass",
        "nonpositive edge length on (a,b)",
        "edge endpoint unknown: (b,q)",
        "self-loop at c",
        "duplicate edge (b,a)",
        "non-finite edge length on (c,d)",
        "duplicate edge (d,c)",
        "nonpositive edge length on (b,c)",
        "edge endpoint unknown: (p,q)",
    )


def test_build_defects_do_not_reach_validate():
    # the edges fail, so the disconnected graph and zero mass go unreported
    obj = _doc(vertices=[_v("a", 0), _v("b", 0), _v("c", 0)], edges=[_e("a", "a")])
    assert _findings(obj) == ("self-loop at a",)


def test_validate_reports_disconnected_before_total_mass():
    obj = _doc(vertices=[_v("a", 0), _v("b", 0), _v("c", 0)], edges=[_e("b", "c")])
    assert _findings(obj) == ("disconnected", "total mass not positive")


# -- against the reference reader ----------------------------------------------

# ints past 2**53, where floats start to round, and the two zeros
_AWKWARD = [2 ** 53 + 1, 2 ** 63, 2 ** 64 + 1, -0.0, 0, 10 ** 300]
_MASS = st.one_of(st.floats(0.0, 1e300), st.integers(0, 2 ** 70), st.sampled_from(_AWKWARD))
_LENGTH = st.one_of(st.floats(5e-324, 1e300), st.integers(1, 2 ** 70),
                    st.sampled_from([x for x in _AWKWARD if x]))


@st.composite
def valid_records(draw) -> dict:
    """A connected space as JSON records: a random tree plus chords, its
    vertices and edges shuffled, some edges given end first, and masses and
    lengths mixing floats and ints."""
    n = draw(st.integers(1, 9))
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    if n > 1:
        pairs |= {(i, j) for i, j in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)) if i < j}
    masses = draw(st.lists(_MASS, min_size=n, max_size=n))
    if not sum(masses) > 0:
        masses[draw(st.integers(0, n - 1))] = 1.0
    ids = [f"v{k}" for k in draw(st.permutations(range(n)))]
    edges = []
    for i, j in draw(st.permutations(sorted(pairs))):
        u, v = (ids[i], ids[j]) if draw(st.booleans()) else (ids[j], ids[i])
        edges.append({"u": u, "v": v, "len": draw(_LENGTH)})
    order = draw(st.permutations(range(n)))
    return {"vertices": [{"id": ids[k], "mass": masses[k]} for k in order],
            "edges": edges, "dist": "path"}


def _same_space(a: Space, b: Space) -> None:
    assert a.ids == b.ids and a.index == b.index
    assert a.mass.tobytes() == b.mass.tobytes()
    assert a.edges == b.edges and a.adj == b.adj
    assert a._ends.tobytes() == b._ends.tobytes() and a._lens.tobytes() == b._lens.tobytes()
    assert (a._dist is None) == (b._dist is None)
    if a._dist is not None:
        assert a._dist.tobytes() == b._dist.tobytes()


def _outcome(reader, obj):
    """The Space ``reader`` reads from ``obj``, or the findings it raises."""
    try:
        return reader(obj)
    except ValidationError as exc:
        return exc.findings


def _same_outcome(obj) -> None:
    got, want = _outcome(space_from_json, obj), _outcome(space_from_json_reference, obj)
    if isinstance(want, tuple):
        assert got == want
    else:
        _same_space(got, want)


@settings(max_examples=120, deadline=None)
@given(valid_records(), st.booleans())
def test_valid_records_give_the_reference_space(obj, explicit):
    _same_space(space_from_json(obj), space_from_json_reference(obj))
    if explicit:   # the path metric spelled out, which may fail the triangle test by an ulp
        _same_outcome({**obj, "dist": space_from_json_reference(obj).dist.tolist()})


_BAD_VALUES = [True, False, None, "1", [1.0], 10 ** 400, -10 ** 400, math.nan, math.inf,
               -math.inf, -1.0, -2, 0, 0.0, -0.0]


@st.composite
def one_defect(draw, obj: dict) -> dict:
    """``obj`` with one defect: a record that is not a dict or has a field
    too few or too many, a value of the wrong type or out of range, an
    unknown end, a self-loop, a duplicate edge or id, a part that is not a
    list, a bad ``dist``, or a dropped edge."""
    obj = copy.deepcopy(obj)
    # an earlier defect may have taken a part or a record out of shape
    verts, edges = ([r for r in obj[p] if isinstance(r, dict)] if isinstance(obj[p], list) else []
                    for p in ("vertices", "edges"))
    edges = [e for e in edges if {"u", "v"} <= set(e)]
    parts = [p for p, recs in (("vertices", verts), ("edges", edges)) if recs]
    if not parts:
        return obj
    part = draw(st.sampled_from(parts))
    recs = obj[part]
    k = draw(st.integers(0, len(recs) - 1))
    if not (isinstance(recs[k], dict) and recs[k]):
        return obj
    key = draw(st.sampled_from(sorted(recs[k])))
    kind = draw(st.sampled_from(["value", "drop", "extra", "record", "unknown", "loop",
                                 "duplicate", "same_id", "not_list", "dist", "cut"]))
    if kind == "value":
        recs[k][key] = draw(st.sampled_from(_BAD_VALUES + [1, "v0", "w"]))
    elif kind == "drop":
        del recs[k][key]
    elif kind == "extra":
        recs[k]["x"] = 1.0
    elif kind == "record":
        recs[k] = draw(st.sampled_from([3, None, "v0", [], dict(recs[k], x=0)]))
    elif kind == "unknown" and edges:
        edges[k % len(edges)][draw(st.sampled_from(["u", "v"]))] = "w"
    elif kind == "loop" and edges:
        edges[k % len(edges)]["v"] = edges[k % len(edges)]["u"]
    elif kind == "duplicate" and edges:
        dup = dict(edges[k % len(edges)])
        if draw(st.booleans()):
            dup["u"], dup["v"] = dup["v"], dup["u"]
        dup["len"] = draw(st.sampled_from([1.0, 2, 0.0, -1.0, math.nan, math.inf]))
        obj["edges"].insert(draw(st.integers(0, len(obj["edges"]))), dup)
    elif kind == "same_id" and len(verts) > 1:
        verts[k % len(verts)]["id"] = verts[(k + 1) % len(verts)].get("id")
    elif kind == "not_list":
        obj[part] = draw(st.sampled_from([{}, "x", 1, None]))
    elif kind == "dist":
        n = len(verts)
        obj["dist"] = draw(st.sampled_from([
            "geodesic", 1.0, [[0.0] * n] * (n + 1), [[0.0] * (n + 1)] * n,
            [[0.0] * n for _ in range(n - 1)] + [[0.0] * (n - 1) + [True]],
            [[0.0] * n for _ in range(n - 1)] + [[0.0] * (n - 1) + [math.nan]]]))
    elif edges:
        obj["edges"].remove(edges[k % len(edges)])
    return obj


def _defects_give_the_reference_outcome(data) -> None:
    obj = data.draw(valid_records())
    for _ in range(data.draw(st.integers(1, 3))):
        obj = data.draw(one_defect(obj))
    _same_outcome(obj)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_one_defect_gives_the_reference_findings(data):
    _defects_give_the_reference_outcome(data)


@pytest.mark.parametrize("build", [lambda: gen_polar_grid(33, 32, 1.0, math.e),
                                   lambda: gen_winding(2, 4, 8).source,
                                   lambda: gen_winding(2, 4, 8).target])
def test_generated_spaces_give_the_reference_space(build):
    obj = space_to_json(build())
    _same_space(space_from_json(obj), space_from_json_reference(obj))


@pytest.mark.slow
@pytest.mark.parametrize("sectors", [48, 64])
def test_annulus_gives_the_reference_space(sectors):
    obj = space_to_json(gen_polar_grid(sectors + 1, sectors, 1.0, math.e))
    rng = np.random.default_rng(sectors)
    obj["vertices"] = [obj["vertices"][k] for k in rng.permutation(len(obj["vertices"]))]
    obj["edges"] = [obj["edges"][k] for k in rng.permutation(len(obj["edges"]))]
    _same_space(space_from_json(obj), space_from_json_reference(obj))


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_many_defects_give_the_reference_findings(data):
    _defects_give_the_reference_outcome(data)


# -- connectivity from the edge table --------------------------------------------


def _bare_space(n: int, pairs) -> Space:
    """A Space on n vertices with the given edges, built without validation,
    so it may be disconnected."""
    edges = tuple((i, j, 1.0) for i, j in sorted({(min(p), max(p)) for p in pairs}))
    return Space(ids=tuple(f"v{k}" for k in range(n)), mass=np.ones(n), edges=edges, _dist=None)


def _search_connected(space: Space) -> bool:
    return len(_components_idx(space, frozenset(range(space.n)))) == 1


@pytest.mark.parametrize("seed", range(40))
def test_connected_agrees_with_the_component_search(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    label = rng.permutation(n)              # vertex names in a random order
    part = np.sort(rng.choice(np.arange(1, n), size=min(k, n) - 1, replace=False)) if n > 1 else []
    pairs = []
    for comp in np.split(np.arange(n), part):
        pairs += [(comp[int(rng.integers(0, t))], comp[t]) for t in range(1, len(comp))]
        pairs += [tuple(rng.choice(comp, 2)) for _ in range(int(rng.integers(0, 4)))]
    space = _bare_space(n, [(int(label[a]), int(label[b])) for a, b in pairs if a != b])
    assert space._connected() == _search_connected(space) == (len(part) == 0)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_connected_on_a_path_of_128_vertices(order):
    names = {"ascending": np.arange(128), "descending": np.arange(128)[::-1],
             "shuffled": np.random.default_rng(0).permutation(128)}[order].tolist()
    path = _bare_space(128, zip(names, names[1:]))
    assert path._connected() and _search_connected(path)
    cut = _bare_space(128, [p for p in zip(names, names[1:]) if p != (names[63], names[64])])
    assert not cut._connected() and not _search_connected(cut)


def test_connected_on_one_vertex_and_on_none():
    assert _bare_space(1, [])._connected()
    assert not _bare_space(2, [])._connected()
    assert not _bare_space(0, [])._connected()


@pytest.mark.slow
def test_connected_on_the_256_sector_annulus():
    annulus = gen_polar_grid(257, 256, 1.0, math.e)
    assert annulus._connected() and _search_connected(annulus)
    inner = annulus.n - 256                 # drop the spokes into the outer ring
    cut = Space(ids=annulus.ids, mass=annulus.mass, _dist=None, edges=tuple(
        e for e in annulus.edges if not (e[0] < inner <= e[1])))
    assert not cut._connected() and not _search_connected(cut)
