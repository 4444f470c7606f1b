"""The one-pass canonical writer and the memoised name reader of
`polytower.formats`, against `json.dumps` over `util.plain_reference` and
against reading every name afresh."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polytower import formats, readers
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

    def test_one_list_per_name_in_a_document(self):
        obj = formats.tower_to_obj(subdivision_tower(simplex(2), 3))
        assert obj == json.loads(formats.dumps_canonical(obj))
        for level, bond in zip(obj["levels"][1:], obj["bonds"]):
            shared = {json.dumps(v): v for v in level["vertices"]}
            for s in level["maximal"]:
                assert all(v is shared[json.dumps(v)] for v in s)
            assert all(w is shared[json.dumps(w)] for w in bond["vertex_images"].values())
        inner = {json.dumps(v): v for v in obj["levels"][1]["vertices"]}
        for v in obj["levels"][2]["vertices"]:
            assert all(part is inner[json.dumps(part)] for part in v)


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
                assert formats._compact(obj) == json.dumps(obj, separators=(",", ":")), obj

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
