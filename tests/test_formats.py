"""The one-pass canonical writer and the memoised name reader of
`polytower.formats`, against `json.dumps` over `util.plain_reference` and
against reading every name afresh."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polytower import complexes, formats, readers
from polytower.cli import main
from polytower.complexes import Complex
from polytower.generators import cylinder_map, cylinder_tower, simplex, subdivision_tower
from polytower.towers import verify_tower
from polytower.verdicts import Verdict

from util import dumps_reference, kernel_complexes, vertex_to_obj

ATOMS = ["a", "b", "1", "['a']", "é", "☃", 'q"\\', "new\nline"]

# each name is one object, so a drawn name recurs at several depths; the
# pool holds one name as a tuple and as a list, and tuples equal to (1,)
NAMES = [
    ("a",),
    ("a", "b"),
    ["a", "b"],
    (("a",), ("a", "b")),
    [("a",), ["a", "b"]],
    (("a",), ["a", "b"]),
    ("é", ("☃",)),
    ("1",),
    (1,),
    (True,),
    (Fraction(1),),
    (1.0,),
    (),
    [],
]

# atoms for the readers: some begin with a bracket, some only look nested
READ_ATOMS = ["a", "b", "", "[", '["a"]', "[]", "a]", ' ["a"]', "é", 'q"\\']

# 1 and "1" stringify alike, and so do ("a",) and "['a']"
KEYS = ATOMS + [0, 1, None, 1.5, Fraction(1, 2), ("a",), ("a", "b")]

HASHABLE_NAMES = ["a", "b", ("a",), ("a", "b"), (("a",), ("a", "b")), ("1",)]

leaves = st.one_of(
    st.sampled_from(ATOMS),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.floats(),
    st.fractions(max_denominator=4),
    st.sampled_from(NAMES),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
        st.builds(
            Verdict,
            st.sampled_from(["holds", "fails", "inconclusive"]),
            st.one_of(st.none(), children, st.sampled_from(NAMES)),
            st.one_of(st.none(), st.sampled_from(ATOMS)),
        ),
        st.frozensets(st.sampled_from(HASHABLE_NAMES), max_size=4),
        st.sets(st.sampled_from(HASHABLE_NAMES), max_size=4),
    )


class TestWriter:
    @given(st.recursive(leaves, containers, max_leaves=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, document):
        assert formats.dumps_canonical(document) == dumps_reference(document)

    def test_human_rendering_of_a_scalar(self):
        assert formats.render_human("x") == "x"

    def test_one_name_at_several_depths(self):
        for name in NAMES + [("a", ("b", ("c", ("d",))))]:
            document = [name, [name, {"k": [name, (name,)]}], {name if isinstance(name, str) else "n": name}]
            assert formats.dumps_canonical(document) == dumps_reference(document), name

    def test_tuples_with_other_leaves_never_share_text(self):
        document = [(1,), (True,), (Fraction(1),), ("1",), (1.0,), {"x": (True,), "y": (1,)}]
        text = formats.dumps_canonical(document)
        assert text == dumps_reference(document)
        assert text.count("true") == 2 and '"1"' in text and "1.0" in text

    def test_temporaries_never_share_text(self):
        # verdicts and sets become lists made and freed while rendering, so
        # their ids are reused by the next ones
        document = [Verdict.fails(witness=("v%d" % i, ("w%d" % i,))) for i in range(40)]
        document += [frozenset({("s%d" % i,), ("t%d" % i,)}) for i in range(40)]
        document += [{"entry": Verdict.holds(witness=["x%d" % i])} for i in range(40)]
        assert formats.dumps_canonical(document) == dumps_reference(document)

    def test_documents_match_json_dumps(self):
        tower = subdivision_tower(simplex(2), 3)
        documents = [
            formats.tower_to_obj(tower),
            formats.tower_to_obj(cylinder_tower()),
            formats.map_to_obj(cylinder_map()),
            formats.complex_to_obj(tower.levels[-1]),
            verify_tower(tower, 2).to_obj(),
            verify_tower(cylinder_tower(), 2).to_obj(),
        ]
        for document in documents:
            assert formats.dumps_canonical(document) == dumps_reference(document)


def _deep_name(depth: int):
    return json.loads("[" * depth + '"x"' + "]" * depth)


class TestReader:
    def test_repeated_malformed_name_reports_its_first_occurrence(self):
        document = {"vertices": [], "maximal": [["c", ["b", "b"]], [["b", "b"], "d"]]}
        with pytest.raises(formats.InputFormatError) as first:
            readers.parse_complex(document)
        assert first.value.context == "complex.maximal[0]"
        assert str(first.value) == "duplicate part in vertex name ['b', 'b'] (at complex.maximal[0])"
        document["maximal"].insert(0, [["a", "b"], "c"])
        with pytest.raises(formats.InputFormatError) as again:
            readers.parse_complex(document)
        assert again.value.context == "complex.maximal[1]"

    def test_a_name_met_again_is_the_first_one(self):
        names: dict = {}
        first = readers.parse_vertex([["b", "a"], "c"], names=names)
        assert first == ("c", ("a", "b"))
        assert readers.parse_vertex([["b", "a"], "c"], names=names) is first
        assert readers.parse_vertex_key('[["b","a"],"c"]', names=names) is first
        assert readers.parse_vertex_key('[["b", "a"], "c"]', names=names) == first
        assert readers.parse_vertex(["c", ["a", "b"]], names=names) == first
        for bad in (["c", "c"], [], [["a"], ["a"]], [1], ["a", None]):
            for _ in range(2):
                with pytest.raises(formats.InputFormatError):
                    readers.parse_vertex(bad, names=names)

    def test_atom_beginning_with_a_bracket_is_refused(self, tmp_path, capsys):
        # its key would read back as the nested name ("a",)
        path = tmp_path / "bracket.json"
        path.write_text(json.dumps({"maximal": [['["a"]', "b"]]}), encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: vertex name '[\"a\"]' begins with '[', as only the key of a nested name "
            "does (at complex.maximal[0])\n"
        )
        with pytest.raises(ValueError, match="begins with"):
            Complex.from_maximal([['["a"]', "b"]])

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(st.sampled_from(READ_ATOMS), lambda parts: st.lists(parts, max_size=3), max_leaves=8))
    def test_vertex_key_reads_back_every_accepted_name(self, raw):
        # both readers accept the same names, and the key of one reads back
        # as the name
        try:
            name = readers.parse_vertex(raw)
        except formats.InputFormatError:
            with pytest.raises(ValueError):
                Complex.from_maximal([[raw]])
            return
        assert Complex.from_maximal([[raw]]).vertices == (name,)
        key = formats.vertex_to_key(name)
        assert readers.parse_vertex_key(key) == name
        assert readers.parse_vertex_key(key, names={}) == name

    def test_compact_text_is_json_dumps(self):
        # the text of the vertex keys and of the reader's memo keys
        names = [v for _, k in kernel_complexes() for v in k.vertices] + ATOMS + [tuple(ATOMS), (("é",), "☃")]
        for name in names:
            for obj in (name, vertex_to_obj(name)):
                assert complexes._compact(obj) == json.dumps(obj, separators=(",", ":")), obj

    def test_depth_bound_holds_after_a_memoised_name(self):
        names: dict = {}
        deepest = readers.parse_vertex(_deep_name(readers.MAX_NAME_DEPTH), names=names)
        assert readers.parse_vertex(_deep_name(readers.MAX_NAME_DEPTH), names=names) is deepest
        text = json.dumps(_deep_name(readers.MAX_NAME_DEPTH), separators=(",", ":"))
        assert readers.parse_vertex_key(text, names=names) is deepest
        with pytest.raises(formats.InputFormatError, match="nested more than"):
            readers.parse_vertex(_deep_name(readers.MAX_NAME_DEPTH + 1), names=names)
        with pytest.raises(formats.InputFormatError, match="nested more than"):
            readers.parse_vertex_key("[%s]" % text, names=names)
        # too deep for the JSON encoder that makes the memo's key
        too_deep = "x"
        for _ in range(5000):
            too_deep = [too_deep]
        with pytest.raises(formats.InputFormatError, match="nested more than"):
            readers.parse_vertex(too_deep, names=names)

    @pytest.mark.parametrize(
        "argv, parse, to_obj",
        [
            (["simplex", "--dim", "3"], readers.parse_complex, formats.complex_to_obj),
            (["circle"], readers.parse_complex, formats.complex_to_obj),
            (["sphere", "--dim", "2"], readers.parse_complex, formats.complex_to_obj),
            (["rp2"], readers.parse_complex, formats.complex_to_obj),
            (["cylinder"], readers.parse_map, formats.map_to_obj),
            (["cylinder-tower"], readers.parse_tower, formats.tower_to_obj),
            (["subdivision-tower", "--levels", "3"], readers.parse_tower, formats.tower_to_obj),
            (["subdivision-tower", "--base", "tetrahedron", "--levels", "2"], readers.parse_tower, formats.tower_to_obj),
            (["subdivision-tower", "--base", "rp2", "--levels", "2", "--scale-base", "3"], readers.parse_tower, formats.tower_to_obj),
            (["random-tower", "--seed", "5", "--levels", "3"], readers.parse_tower, formats.tower_to_obj),
        ],
    )
    def test_every_gen_kind_round_trips(self, capsys, argv, parse, to_obj):
        assert main(["gen"] + argv) == 0
        generated = capsys.readouterr().out
        assert formats.dumps_canonical(to_obj(parse(json.loads(generated)))) == generated


def _loop_spec(maximal, depth):
    """The CI lift specification: x0, x1, x2 to q, f, o, x0 anchored on the
    thread q, ["q"], [["q"]], ... of the given depth."""
    point = lambda key: {"coords": {key: "1"}, "scale": "1"}  # noqa: E731
    thread, key = [], "q"
    for _ in range(depth):
        thread.append(point(key))
        key = json.dumps([json.loads(key) if key.startswith("[") else key], separators=(",", ":"))
    return {
        "domain": {"vertices": [], "maximal": maximal},
        "f1": {"vertex_points": {"x0": point("q"), "x1": point("f"), "x2": point("o")}},
        "anchor": [["x0"]] if depth else [],
        "threads": {"x0": thread} if depth else {},
    }


_LOOP = [["x0", "x1"], ["x1", "x2"], ["x0", "x2"]]
_TRIANGLE = [["x0", "x1", "x2"]]
_QFO = {"vertices": [], "maximal": [["q", "f", "o"]]}

# (input name, how `gen` makes it or its document, whether its cover is
# made open) of every input of the CI smoke steps but the 16,000-edge circle
# and the 5- and 6-level triangle towers, whose verify-tower runs are the
# 4-level ones at a larger size
_SMOKE_INPUTS = [
    ("tower4", ["subdivision-tower", "--base", "triangle", "--levels", "4"], False),
    ("tower4O", ["subdivision-tower", "--base", "triangle", "--levels", "4"], True),
    ("tetra3", ["subdivision-tower", "--base", "tetrahedron", "--levels", "3"], False),
    ("tetra2", ["subdivision-tower", "--base", "tetrahedron", "--levels", "2"], False),
    ("rp2tower", ["subdivision-tower", "--base", "rp2", "--levels", "4"], False),
    ("qfo3", ["subdivision-tower", "--base", "<qfo>", "--levels", "3"], False),
    ("qfo3O", ["subdivision-tower", "--base", "<qfo>", "--levels", "3"], True),
    ("qfo2", ["subdivision-tower", "--base", "<qfo>", "--levels", "2"], False),
    ("random103", ["random-tower", "--seed", "103", "--levels", "3"], False),
    ("random35O", ["random-tower", "--seed", "35", "--levels", "2"], True),
    ("cylinder", ["cylinder-tower"], False),
    ("cylinderO", ["cylinder-tower"], True),
    ("cylmap", ["cylinder"], False),
    ("rp2", ["rp2"], False),
    ("circle", ["circle"], False),
    ("s3", ["sphere", "--dim", "3"], False),
    ("two_pieces", {"vertices": [], "maximal": [["a", "b", "c"], ["x", "y"], ["y", "z"], ["x", "z"]]}, False),
    ("vertex_u", {"maximal": [["u"]]}, False),
    ("loop3", _loop_spec(_LOOP, 3), False),
    ("triangle3", _loop_spec(_TRIANGLE, 3), False),
    ("triangle2", _loop_spec(_TRIANGLE, 2), False),
    ("fill", dict(_loop_spec(_TRIANGLE, 0), f1={"vertex_points": {x: {"coords": {v: "1"}, "scale": "1"} for x, v in (("x0", "v1"), ("x1", "v2"), ("x2", "v3"))}}), False),
]

# every command of the CI smoke steps, on the inputs above by name
_SMOKE_COMMANDS = [
    ["verify-tower", "tower4", "--n", "2"],
    ["verify-tower", "tower4O", "--n", "2"],
    ["verify-tower", "tetra3", "--n", "3"],
    ["verify-tower", "tetra2", "--n", "3", "--budget-nerve", "3"],
    ["verify-tower", "rp2tower", "--n", "2"],
    ["verify-tower", "rp2tower", "--n", "3"],
    ["verify-tower", "random103", "--n", "2"],
    ["verify-tower", "cylinder", "--n", "2"],
    ["verify-tower", "cylinderO", "--n", "1"],
    ["verify-tower", "cylinderO", "--n", "2"],
    ["restrict", "cylinder", "--level", "1", "--complex", "vertex_u"],
    ["validate", "rp2"],
    ["check-map", "cylmap", "--n", "1"],
    ["check-map", "cylmap", "--n", "2"],
    ["nerve", "rp2_closed"],
    ["nerve", "rp2_open"],
    ["mesh", "rp2_closed"],
    ["mesh", "rp2_open"],
    ["subdivide", "rp2"],
    ["stars", "rp2", "--vertex", "p0"],
    ["stars", "rp2_sd", "--vertex", '["p0","p1"]'],
    ["stars", "rp2_sd", "--vertex", '["p1","p0"]'],
    ["pi1", "rp2"],
    ["homology", "rp2"],
    ["pi1", "circle"],
    ["homology", "circle"],
    ["pi1", "two_pieces"],
    ["pi1", "s3", "--budget-pi1", "5"],
    ["lift", "qfo3O", "--spec", "loop3", "--n", "2"],
    ["lift", "random35O", "--spec", "fill", "--n", "2"],
    ["lift", "qfo3", "--spec", "triangle3", "--n", "2"],
    ["lift", "qfo3", "--spec", "loop3", "--n", "2"],
    ["lift", "qfo2", "--spec", "triangle2", "--n", "2"],
]


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory):
    """{name: path} of the CI smoke inputs, made in-process by `gen`."""
    root = tmp_path_factory.mktemp("smoke")
    paths = {}

    def put(name, document):
        paths[name] = str(root / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    put("<qfo>", _QFO)
    for name, made, opened in _SMOKE_INPUTS:
        if isinstance(made, dict):
            put(name, made)
            continue
        path = str(root / (name + ".json"))
        assert main(["gen"] + [paths["<qfo>"] if a == "<qfo>" else a for a in made] + ["-o", path]) == 0
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        put(name, dict(document, cover="O") if opened else document)
    with open(paths["rp2"], encoding="utf-8") as handle:
        rp2 = json.load(handle)
    for kind in ("closed", "open"):
        put("rp2_" + kind, {"ambient": rp2, "kind": kind, "elements": {v: {"star_of": v} for v in rp2["vertices"]}})
    paths["rp2_sd"] = str(root / "rp2_sd.json")
    assert main(["subdivide", paths["rp2"], "-o", paths["rp2_sd"]]) == 0
    return paths


class TestPrintedNamesReadBack:
    """What the commands print names vertices in the one text form: every
    object key that begins with '[' reads back as the name it spells."""

    @pytest.mark.parametrize("argv", _SMOKE_COMMANDS, ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
    def test_every_key_reads_back(self, smoke_inputs, tmp_path, argv):
        from names_read_back import unreadable_keys

        out = str(tmp_path / "out.json")
        assert main([smoke_inputs.get(a, a) for a in argv] + ["-o", out]) in (0, 1, 2)
        with open(out, encoding="utf-8") as handle:
            assert unreadable_keys(json.load(handle)) == []

    def test_every_generated_key_reads_back(self, smoke_inputs):
        from names_read_back import unreadable_keys

        for path in smoke_inputs.values():
            with open(path, encoding="utf-8") as handle:
                assert unreadable_keys(json.load(handle)) == [], path

    def test_walker_refuses_repr_and_unread_keys(self):
        from names_read_back import unreadable_keys

        document = {"a": [{"[['x0', 'x1']]": 1, "('x0',)": 2, '["x0","x0"]': 3, '["b","a"]': 4, '["a","b"]': 5}]}
        assert sorted(unreadable_keys(document)) == sorted(["[['x0', 'x1']]", "('x0',)", '["x0","x0"]', '["b","a"]'])

    def test_connectedness_witness_is_two_names(self, smoke_inputs, tmp_path):
        out = str(tmp_path / "pi1.json")
        sd = str(tmp_path / "two_pieces_sd.json")
        assert main(["subdivide", smoke_inputs["two_pieces"], "-o", sd]) == 0
        assert main(["pi1", sd, "-o", out]) == 1
        with open(sd, encoding="utf-8") as handle:
            subdivided = readers.parse_complex(json.load(handle))
        with open(out, encoding="utf-8") as handle:
            witness = json.load(handle)["connected"]["witness"]
        assert len(witness) == 2
        names = [readers.parse_vertex(w) for w in witness]
        assert all(subdivided.has_vertex(v) for v in names) and names[0] != names[1]
