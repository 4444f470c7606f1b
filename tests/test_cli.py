import hashlib
import json
import os
import subprocess
import sys

import pytest

from polytower import cli, formats
from polytower.cli import main
from polytower.complexes import UnknownVertexError, barycentric_subdivision
from polytower.generators import (
    cylinder_map,
    cylinder_tower,
    projective_plane,
    simplex,
    sphere,
    subdivision_tower,
)
from polytower.stars import barycentric_vertex_star, cover_B
from polytower.verdicts import DEFAULT_BUDGETS

from util import cover_to_obj


# golden-digest placeholder: switches the generated tower to open star covers
OPEN_COVER = "<open-cover>"

EDGE = [["x0", "x1"]]
LOOP = [["x0", "x1"], ["x1", "x2"], ["x0", "x2"]]
TRIANGLE = [["x0", "x1", "x2"]]


def lift_spec(maximal, depth: int, names="abc") -> dict:
    """Lift the map sending x_i to the vertex names[i] of the first level,
    anchoring x0 on the thread a, (a,), ((a,),), ... of its image."""
    used = sorted({x for s in maximal for x in s})
    points = {x: {"coords": {names[int(x[1:])]: "1"}, "scale": "1"} for x in used}
    thread, vertex = [], names[0]
    for _ in range(depth):
        key = vertex if isinstance(vertex, str) else json.dumps(vertex)
        thread.append({"coords": {key: "1"}, "scale": "1"})
        vertex = [vertex]
    return {
        "domain": {"vertices": [], "maximal": maximal},
        "f1": {"vertex_points": points},
        "anchor": [["x0"]],
        "threads": {"x0": thread},
    }


# an edge from a to b in the first level, anchored at a through a thread
LIFT_SPEC = lift_spec(EDGE, 2)

# the triangle abc sent onto the vertex u of the edge uv: every simplex of
# the subdivided edge but u has an empty preimage
CONSTANT_MAP = {
    "source": {"vertices": ["a", "b", "c"], "maximal": [["a", "b", "c"]]},
    "target": {"vertices": ["u", "v"], "maximal": [["u", "v"]]},
    "subdivide_target": True,
    "vertex_images": {"a": ["u"], "b": ["u"], "c": ["u"]},
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(formats.dumps_canonical(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    return write(tmp_path, "triangle.json", formats.complex_to_obj(simplex(2)))


class TestRoundTrips:
    def test_complex_round_trip(self):
        for complex_ in (simplex(2), sphere(2), projective_plane()):
            obj = formats.complex_to_obj(complex_)
            again = formats.parse_complex(json.loads(json.dumps(obj)))
            assert again == complex_

    def test_nested_names_round_trip(self):
        from polytower.complexes import barycentric_subdivision

        b2 = barycentric_subdivision(barycentric_subdivision(simplex(1)))
        again = formats.parse_complex(formats.complex_to_obj(b2))
        assert again == b2

    def test_map_round_trip(self):
        p = cylinder_map()
        obj = formats.map_to_obj(p)
        again = formats.parse_map(json.loads(json.dumps(obj)))
        assert again.assignment == p.assignment
        assert again.source == p.source
        assert again.base_target == p.base_target

    def test_tower_round_trip(self):
        t = subdivision_tower(simplex(2), 3)
        obj = formats.tower_to_obj(t)
        again = formats.parse_tower(json.loads(json.dumps(obj)))
        assert again.levels == t.levels
        assert again.scales == t.scales
        assert [b.assignment for b in again.bonds] == [b.assignment for b in t.bonds]

    def test_each_distinct_name_joined_once(self, monkeypatch):
        from polytower.complexes import join_parts

        t = subdivision_tower(simplex(2), 3)
        obj = json.loads(json.dumps(formats.tower_to_obj(t)))
        joined = []

        def counting_join(parts, name):
            joined.append(parts)
            return join_parts(parts, name)

        monkeypatch.setattr(formats, "join_parts", counting_join)
        again = formats.parse_tower(obj)
        assert again.levels == t.levels

        def nested(name):
            if isinstance(name, tuple):
                yield name
                for part in name:
                    yield from nested(part)

        names = {n for level in t.levels for v in level.vertices for n in nested(v)}
        names |= {n for bond in t.bonds for _, w in bond.assignment for n in nested(w)}
        # generated files list every name in canonical order, so one join
        # per distinct name
        assert len(joined) == len(names)

    def test_name_checks_kept(self):
        for bad, error in ((["a", "a"], "duplicate"), ([], "empty"), ([["a"], ["a"]], "duplicate")):
            with pytest.raises(formats.InputFormatError, match=error):
                formats.parse_complex({"vertices": [], "maximal": [[bad, "b"]]})
            with pytest.raises(formats.InputFormatError, match=error):
                formats.parse_complex({"vertices": [], "maximal": [[["c", "d"], ["d", "c"]], [bad]]})
        with pytest.raises(formats.InputFormatError, match="duplicate vertex"):
            formats.parse_complex({"vertices": [], "maximal": [[["c", "d"], ["d", "c"]]]})
        assert formats.parse_vertex(["b", ["c", "a"]]) == ("b", ("a", "c"))

    def test_fraction_forms(self):
        from fractions import Fraction

        assert formats.fraction_to_str(Fraction(1, 2)) == "1/2"
        assert formats.fraction_to_str(Fraction(3)) == "3"
        assert formats.parse_fraction("7/4") == Fraction(7, 4)
        assert formats.parse_fraction("5") == Fraction(5)
        with pytest.raises(formats.InputFormatError):
            formats.parse_fraction("1/0")
        for boolean in (True, False):
            with pytest.raises(formats.InputFormatError, match="rationals are 'p/q' strings"):
                formats.parse_fraction(boolean)

    def test_cover_round_trip_stars(self):
        k = simplex(2)
        obj = {
            "ambient": formats.complex_to_obj(k),
            "kind": "closed",
            "elements": {v: {"star_of": v} for v in "abc"},
        }
        cover = formats.parse_cover(obj)
        assert cover.indices == ("a", "b", "c")
        again = formats.parse_cover(json.loads(formats.dumps_canonical(cover_to_obj(cover))))
        assert again.indices == cover.indices
        assert cover.ambient == barycentric_subdivision(k) and cover.base == k
        for v in "abc":
            assert cover.element(v) == barycentric_vertex_star(k, v)
        obj["elements"]["d"] = {"star_of": "z"}
        with pytest.raises(UnknownVertexError):
            formats.parse_cover(obj)


class TestCommands:
    def test_validate(self, triangle_file, capsys):
        code, out = run_cli(["validate", triangle_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["f_vector"] == [3, 3, 1]
        assert report["dimension"] == 2

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("", encoding="utf-8")
        code, _ = run_cli(["validate", str(path)], capsys)
        assert code == 3

    def test_validate_duplicate_vertex(self, tmp_path, capsys):
        path = write(tmp_path, "dup.json", {"maximal": [["a", "a"]]})
        code, _ = run_cli(["validate", path], capsys)
        assert code == 3

    def test_subdivide(self, triangle_file, capsys):
        code, out = run_cli(["subdivide", triangle_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["vertices"]) == 7
        parsed = formats.parse_complex(report)
        assert parsed.f_vector() == (7, 12, 6)

    def test_homology_sphere(self, tmp_path, capsys):
        path = write(tmp_path, "sphere.json", formats.complex_to_obj(sphere(2)))
        code, out = run_cli(["homology", path], capsys)
        assert code == 0
        groups = json.loads(out)["groups"]
        assert [g["betti"] for g in groups] == [1, 0, 1]
        assert all(g["torsion"] == [] for g in groups)

    def test_homology_rp2(self, tmp_path, capsys):
        path = write(tmp_path, "rp2.json", formats.complex_to_obj(projective_plane()))
        code, out = run_cli(["homology", path], capsys)
        groups = json.loads(out)["groups"]
        assert groups[1]["torsion"] == [2]

    def test_pi1(self, tmp_path, capsys):
        path = write(tmp_path, "circle.json", formats.complex_to_obj(sphere(1)))
        code, out = run_cli(["pi1", path], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["trivial"]["status"] == "fails"

    def test_stars(self, triangle_file, capsys):
        code, out = run_cli(["stars", triangle_file, "--vertex", "a"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["open_star"]["avoided"] == [["b"], ["c"], ["b", "c"]]

    def test_stars_reads_nested_names_canonically(self, tmp_path, capsys):
        # a file and a --vertex naming subdivision vertices with their parts
        # out of order give the bytes of the canonical names
        beta = formats.complex_to_obj(barycentric_subdivision(simplex(2)))
        path = write(tmp_path, "beta.json", beta)
        shuffled = json.loads(json.dumps(beta).replace('["a", "b"]', '["b", "a"]'))
        assert shuffled != beta
        shuffled_path = write(tmp_path, "shuffled.json", shuffled)
        code, expected = run_cli(["stars", path, "--vertex", '["a","b"]'], capsys)
        assert code == 0
        for file in (path, shuffled_path):
            for vertex in ('["a","b"]', '["b","a"]'):
                assert run_cli(["stars", file, "--vertex", vertex], capsys) == (0, expected)

    def test_nerve(self, tmp_path, capsys):
        cover_obj = {
            "ambient": formats.complex_to_obj(simplex(2)),
            "kind": "open",
            "elements": {v: {"star_of": v} for v in "abc"},
        }
        path = write(tmp_path, "cover.json", cover_obj)
        code, out = run_cli(["nerve", path], capsys)
        assert code == 0
        nerve_obj = json.loads(out)["nerve"]
        assert [sorted(s) for s in nerve_obj["maximal"]] == [["a", "b", "c"]]

    def test_mesh(self, tmp_path, capsys):
        cover_obj = {
            "ambient": formats.complex_to_obj(simplex(1, ["u", "v"])),
            "kind": "closed",
            "elements": {v: {"star_of": v} for v in "uv"},
        }
        path = write(tmp_path, "cover.json", cover_obj)
        code, out = run_cli(["mesh", path], capsys)
        assert code == 0
        assert json.loads(out)["mesh"] == "1"

    def test_check_map_cylinder(self, tmp_path, capsys):
        path = write(tmp_path, "cyl.json", formats.map_to_obj(cylinder_map()))
        code, out = run_cli(["check-map", path, "--n", "2"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["surjective"]["status"] == "holds"
        assert report["regularity"]["aggregate"]["status"] == "fails"
        deltas = [e["delta"] for e in report["regularity"]["entries"]]
        assert [["u", "v"]] in deltas  # the midpoint fiber is recorded

    def test_check_map_identity_subdivision(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 2)
        path = write(tmp_path, "id.json", formats.map_to_obj(t.bonds[0]))
        code, out = run_cli(["check-map", path, "--n", "3"], capsys)
        assert code == 0

    def test_check_map_unknown_vertex(self, tmp_path, capsys):
        obj = formats.map_to_obj(cylinder_map())
        obj["vertex_images"]["zz"] = ["u"]
        path = write(tmp_path, "bad.json", obj)
        code, _ = run_cli(["check-map", path, "--n", "1"], capsys)
        assert code == 3

    def test_verify_tower_positive(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 3)
        path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        code, out = run_cli(["verify-tower", path, "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["conclusion"]["status"] == "holds"

    def test_verify_tower_negative(self, tmp_path, capsys):
        path = write(tmp_path, "tower.json", formats.tower_to_obj(cylinder_tower()))
        code, out = run_cli(["verify-tower", path, "--n", "2"], capsys)
        assert code == 1

    def test_verify_tower_budget_exhaustion(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 2)
        path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        code, out = run_cli(["verify-tower", path, "--n", "2", "--budget-pi1", "1"], capsys)
        assert code == 2

    def test_verify_tower_nerve_budget_exhaustion(self, tmp_path, capsys):
        # three nerve simplices are fewer than any pulled-back star cover
        # of the tetrahedron tower has
        _, generated = run_cli(["gen", "subdivision-tower", "--base", "tetrahedron", "--levels", "2"], capsys)
        assert sha256(generated) == "f98acea24d61b706112ecea5f3d85f7f4adb26b32aa7c7ae9f9e73de328a63a3"
        path = tmp_path / "tower.json"
        path.write_text(generated, encoding="utf-8")
        code, out = run_cli(["verify-tower", str(path), "--n", "3", "--budget-nerve", "3"], capsys)
        assert code == 2
        assert json.loads(out)["conclusion"] == {"status": "inconclusive", "reason": "nerve budget exhausted"}
        assert sha256(out) == "a6be5d49db3d28e73f18805a0427821d97bb0bc9673d9d4a865d240130dd4235"

    def test_budgets_env(self, tmp_path, capsys, monkeypatch):
        t = subdivision_tower(simplex(2), 2)
        path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        monkeypatch.setenv("POLYTOWER_BUDGETS", "pi1=1")
        code, _ = run_cli(["verify-tower", path, "--n", "2"], capsys)
        assert code == 2
        # flags take precedence over the environment
        code, _ = run_cli(["verify-tower", path, "--n", "2", "--budget-pi1", "100000"], capsys)
        assert code == 0

    def test_restrict(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 3)
        tower_path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        sub_path = write(tmp_path, "edge.json", [["a", "b"]])
        code, out = run_cli(
            ["restrict", tower_path, "--level", "1", "--complex", sub_path], capsys
        )
        assert code == 0
        restricted = formats.parse_tower(json.loads(out))
        assert restricted.levels[0].f_vector() == (2, 1)
        assert restricted.levels[1].f_vector() == (3, 2)

    def test_gen_sphere(self, capsys):
        code, out = run_cli(["gen", "sphere", "--dim", "2"], capsys)
        assert code == 0
        parsed = formats.parse_complex(json.loads(out))
        assert len(parsed.simplices) == 14

    def test_gen_cylinder(self, capsys):
        code, out = run_cli(["gen", "cylinder"], capsys)
        assert code == 0
        parsed = formats.parse_map(json.loads(out))
        assert len(parsed.source.vertices) == 9

    def test_gen_subdivision_tower(self, capsys):
        code, out = run_cli(["gen", "subdivision-tower", "--base", "triangle", "--levels", "3"], capsys)
        assert code == 0
        tower = formats.parse_tower(json.loads(out))
        assert tower.depth() == 3

    def test_gen_random_tower_reproducible(self, capsys):
        _, first = run_cli(["gen", "random-tower", "--seed", "5", "--levels", "2"], capsys)
        _, second = run_cli(["gen", "random-tower", "--seed", "5", "--levels", "2"], capsys)
        assert first == second

    def test_lift_command(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 2)
        tower_path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        spec_path = write(tmp_path, "spec.json", LIFT_SPEC)
        code, out = run_cli(["lift", tower_path, "--spec", spec_path, "--n", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["anchored_exactly"] is True
        assert len(report["stages"]) == 1

    def test_lift_spec_takes_f1_only(self, tmp_path, capsys):
        # a bare vertex-point object under "map" is not a PL map
        t = subdivision_tower(simplex(2), 2)
        tower_path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        spec = dict(LIFT_SPEC)
        spec["map"] = spec.pop("f1")["vertex_points"]
        spec_path = write(tmp_path, "spec.json", spec)
        code = main(["lift", tower_path, "--spec", spec_path, "--n", "2"])
        assert code == 3
        assert "a PL map is an object (at lift.f1)" in capsys.readouterr().err

    def test_lift_inconclusive_after_one_subdivision(self, tmp_path, capsys):
        # the triangle sent onto the first level's triangle qfo: some image
        # hull lies in no element of a cover, even after the domain is
        # subdivided once
        base = write(tmp_path, "base.json", {"vertices": [], "maximal": [["q", "f", "o"]]})
        _, generated = run_cli(["gen", "subdivision-tower", "--base", base, "--levels", "3"], capsys)
        assert sha256(generated) == "30f13b1b5330327dfe9d8c6ac21f49b5e5e40627c445de9fb644dfa3491cf6b7"
        tower = tmp_path / "tower.json"
        tower.write_text(generated, encoding="utf-8")
        spec = write(tmp_path, "spec.json", lift_spec(TRIANGLE, 3, "qfo"))
        code, out = run_cli(["lift", str(tower), "--spec", spec, "--n", "2"], capsys)
        assert code == 2
        assert json.loads(out)["status"] == {
            "status": "inconclusive",
            "reason": "no cover element contains some image hull after one subdivision",
        }
        assert sha256(out) == "3079dcf396a469ef1b6593b918e4f2a7e52cf6cc5ba4592ff4826b0769486d6c"

    @pytest.mark.parametrize("names", ["abc", "qfo"])
    def test_loop_lift_with_open_star_covers(self, tmp_path, capsys, names):
        # open regions take the span rule too: with x0 on the last-named
        # vertex, a straight edge between two points of one open star spans
        # no simplex, so the edge must be routed through the star
        base = write(tmp_path, "base.json", {"vertices": [], "maximal": [list(names)]})
        _, generated = run_cli(["gen", "subdivision-tower", "--base", base, "--levels", "3"], capsys)
        tower = write(tmp_path, "tower.json", dict(json.loads(generated), cover="O"))
        spec = write(tmp_path, "spec.json", lift_spec(LOOP, 3, names))
        code, out = run_cli(["lift", tower, "--spec", spec, "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["status"]["status"] == "holds"

    def test_human_format_is_projection(self, triangle_file, capsys):
        code, human = run_cli(["validate", triangle_file, "--format", "human"], capsys)
        assert code == 0
        assert "f_vector" in human
        assert "{" not in human


# command -> a run of it on small inputs written to a directory; the runs
# exit 0, 1 and 2
EMISSION_RUNS = {
    "validate": lambda d: ["validate", write(d, "rp2.json", formats.complex_to_obj(projective_plane()))],
    "subdivide": lambda d: ["subdivide", write(d, "edge.json", formats.complex_to_obj(simplex(1)))],
    "stars": lambda d: [
        "stars",
        write(d, "beta.json", formats.complex_to_obj(barycentric_subdivision(simplex(2)))),
        "--vertex",
        '["a","b"]',
    ],
    "nerve": lambda d: ["nerve", write(d, "cover.json", cover_to_obj(cover_B(simplex(2))))],
    "homology": lambda d: ["homology", write(d, "rp2.json", formats.complex_to_obj(projective_plane()))],
    "pi1": lambda d: ["pi1", write(d, "s3.json", formats.complex_to_obj(sphere(3))), "--budget-pi1", "5"],
    "check-map": lambda d: ["check-map", write(d, "cyl.json", formats.map_to_obj(cylinder_map())), "--n", "2"],
    "verify-tower": lambda d: ["verify-tower", write(d, "tower.json", formats.tower_to_obj(cylinder_tower())), "--n", "2"],
    "restrict": lambda d: [
        "restrict",
        write(d, "tower.json", formats.tower_to_obj(subdivision_tower(simplex(2), 2))),
        "--level",
        "1",
        "--complex",
        write(d, "edge.json", [["a", "b"]]),
    ],
    "mesh": lambda d: ["mesh", write(d, "cover.json", cover_to_obj(cover_B(simplex(2)))), "--scale", "1/3"],
    "lift": lambda d: [
        "lift",
        write(d, "tower.json", formats.tower_to_obj(subdivision_tower(simplex(2), 2))),
        "--spec",
        write(d, "spec.json", LIFT_SPEC),
        "--n",
        "2",
    ],
    "gen": lambda d: ["gen", "cylinder-tower"],
}


class TestEmission:
    def test_every_command_has_a_run(self):
        assert sorted(EMISSION_RUNS) == sorted(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(EMISSION_RUNS))
    def test_human_and_output_file_render_the_json_report(self, tmp_path, capsys, command):
        argv = EMISSION_RUNS[command](tmp_path)
        code, json_out = run_cli(argv, capsys)
        assert json.loads(json_out)
        human = formats.render_human(json.loads(json_out)) + "\n"
        assert run_cli(argv + ["--format", "human"], capsys) == (code, human)
        output = tmp_path / "report.out"
        assert run_cli(argv + ["-o", str(output)], capsys) == (code, "")
        assert output.read_text(encoding="utf-8") == json_out


# a command that reads every budget, and that reads them before its input
EVERY_BUDGET = ["lift", "no-tower.json", "--spec", "no-spec.json", "--n", "2"]


class TestBudgetTable:
    @pytest.mark.parametrize("name", sorted(cli._BUDGETS))
    def test_environment_sets_and_flag_overrides(self, monkeypatch, name):
        field = cli._BUDGETS[name]
        monkeypatch.setenv("POLYTOWER_BUDGETS", "%s=7" % name)
        from_env = cli._budgets_from(cli.build_parser().parse_args(EVERY_BUDGET))
        assert from_env == DEFAULT_BUDGETS.with_overrides(**{field: 7})
        flagged = cli.build_parser().parse_args(EVERY_BUDGET + ["--budget-" + name, "9"])
        assert cli._budgets_from(flagged) == DEFAULT_BUDGETS.with_overrides(**{field: 9})

    @pytest.mark.parametrize("name", sorted(cli._BUDGETS))
    def test_unreadable_value_is_malformed_input(self, monkeypatch, capsys, name):
        monkeypatch.setenv("POLYTOWER_BUDGETS", name + "=abc")
        assert main(EVERY_BUDGET) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: invalid literal for int() with base 10: 'abc'\n"


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, capsys):
        t = subdivision_tower(simplex(2), 2)
        path = write(tmp_path, "tower.json", formats.tower_to_obj(t))
        outputs = []
        for _ in range(2):
            code, out = run_cli(["verify-tower", path, "--n", "2"], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "gen, command, expected_code, digest",
        [
            (
                ["gen", "subdivision-tower", "--base", "triangle", "--levels", "3"],
                ["verify-tower", "--n", "2"],
                0,
                "a659cf68092c85b0b3b9ecd6cdba4f2f2b6eae731b54c6ec5b184af28c4fc113",
            ),
            (
                ["gen", "cylinder-tower"],
                ["verify-tower", "--n", "2"],
                1,
                "c391a6145c3bcab554db4ccd3096cefb8338fa523c00e6d13fabd554b46c1801",
            ),
            (
                ["gen", "rp2"],
                ["homology", "--degree", "1"],
                0,
                "06241d6696404625b1a9ecd8e4ac75e228753fbb3fcf64ea3fde6f1bd7b97d13",
            ),
            (
                # the open-star cover path: open intersections and meshes of closures
                ["gen", "subdivision-tower", "--base", "triangle", "--levels", "3", OPEN_COVER],
                ["verify-tower", "--n", "2"],
                0,
                "4df3365cafbcf6a7a45274d5a97bf465313a698eb61198c957d0323614e4aead",
            ),
            (
                ["gen", "cylinder"],
                ["check-map", "--n", "2"],
                1,
                "7437b3d342e3e4c42b282e24913b053a1bbcf171f0b38983bc2be56f59c65d0b",
            ),
            (
                ["gen", "subdivision-tower", "--base", "triangle", "--levels", "2"],
                ["lift", "--n", "2", "--spec", LIFT_SPEC],
                0,
                "5cae152fead202fc0d59624a0769e9eeccac5ae949653511d1df83c446e7d8b3",
            ),
            (
                # a loop: straight edges and edge paths inside closed regions
                ["gen", "subdivision-tower", "--base", "triangle", "--levels", "3"],
                ["lift", "--n", "2", "--spec", lift_spec(LOOP, 3)],
                0,
                "96491357fd24605fcf09ffa342abc62f8df7503474a7e47cf9942cf140879ef5",
            ),
            (
                # a two-cell filled inside closed regions
                ["gen", "subdivision-tower", "--base", "triangle", "--levels", "2"],
                ["lift", "--n", "2", "--spec", lift_spec(TRIANGLE, 2)],
                0,
                "20cc80664fde6ee82a4b09b30aa44ae6c527cf0acc5197674b277302baa0778a",
            ),
            (
                # nonsurjective regularity entries, each with its empty-preimage witness
                CONSTANT_MAP,
                ["check-map", "--n", "1"],
                1,
                "d6230cf9f8b6d8fdae7664c2466eb53e76caf42d1c7a6aa97a3b973e698f66c0",
            ),
            (
                # inconclusive regularity entries: a closed tetrahedron piece
                # needs seven collapses, more than the budget of one
                ["gen", "subdivision-tower", "--base", "tetrahedron", "--levels", "2"],
                ["verify-tower", "--n", "2", "--budget-pi1", "1"],
                2,
                "f0ad39dfa503d2407b920e98080b374ea01946db832a26da100f380279830884",
            ),
        ],
    )
    def test_golden_digest(self, tmp_path, capsys, gen, command, expected_code, digest):
        # certificates are canonical JSON, so a changed digest is a changed
        # certificate, whatever engine computed it
        if isinstance(gen, dict):
            generated = formats.dumps_canonical(gen)
        else:
            _, generated = run_cli([a for a in gen if a != OPEN_COVER], capsys)
        if OPEN_COVER in gen:
            generated = formats.dumps_canonical(dict(json.loads(generated), cover="O"))
        path = tmp_path / "input.json"
        path.write_text(generated, encoding="utf-8")
        args = [write(tmp_path, "spec.json", a) if isinstance(a, dict) else a for a in command[1:]]
        code, out = run_cli([command[0], str(path)] + args, capsys)
        assert code == expected_code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_entry_point_runs(self, triangle_file):
        proc = run_fresh([sys.executable, "-m", "polytower.cli", "validate", triangle_file])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dimension"] == 2


def run_fresh(argv) -> subprocess.CompletedProcess:
    """Run argv in a new interpreter that imports the package from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(argv, capture_output=True, text=True, env=env)


# modules a command-line process must not pay for at start-up: record
# classes need no code generation, and every command imports the lift,
# generator and traceback code only when it runs it
NOT_AT_START = ("dataclasses", "inspect", "traceback", "polytower.carriers", "polytower.plmaps", "polytower.generators")

COLD_START_SCRIPT = """
import json, sys
import polytower.cli
loaded = sorted(set(sys.argv[1:]) & set(sys.modules))
import polytower
missing = [name for name in polytower.__all__ if getattr(polytower, name, None) is None]
unlisted = sorted(set(polytower.__all__) - set(dir(polytower)))
print(json.dumps({"loaded": loaded, "missing": missing, "unlisted": unlisted, "count": len(polytower.__all__)}))
"""


# runs one command in its own process, then prints the package modules loaded
COMMAND_SCRIPT = """
import json, sys
from polytower.cli import main
code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.startswith("polytower."))
print(json.dumps({"code": code, "loaded": loaded}))
"""

# command -> the package modules its process must not load: `gen` compiles
# only the generator path, and neither certificate command the other's code
NOT_LOADED_BY = {
    "gen": ("connectivity", "snf", "stars", "towers", "carriers", "plmaps"),
    "verify-tower": ("carriers", "plmaps", "generators"),
    "lift": ("generators",),
}


class TestColdStart:
    @pytest.mark.parametrize("command", sorted(NOT_LOADED_BY))
    def test_command_loads_only_its_modules(self, tmp_path, command):
        tower = write(tmp_path, "tower.json", formats.tower_to_obj(subdivision_tower(simplex(2), 2)))
        argv = {
            "gen": ["gen", "random-tower", "--seed", "103", "--levels", "2"],
            "verify-tower": ["verify-tower", tower, "--n", "2"],
            "lift": ["lift", tower, "--spec", write(tmp_path, "spec.json", LIFT_SPEC), "--n", "2"],
        }[command]
        out = str(tmp_path / "out.json")
        proc = run_fresh([sys.executable, "-c", COMMAND_SCRIPT, *argv, "-o", out])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["code"] == 0 and os.path.getsize(out) > 0
        assert "polytower.cli" in report["loaded"]
        assert sorted(set(report["loaded"]) & {"polytower." + m for m in NOT_LOADED_BY[command]}) == []

    def test_cli_import_loads_only_what_commands_share(self):
        proc = run_fresh([sys.executable, "-c", COLD_START_SCRIPT, *NOT_AT_START])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loaded"] == []
        assert report["missing"] == [] and report["unlisted"] == []
        assert report["count"] == 52

    def test_package_names_resolve_on_first_access(self):
        import polytower
        from polytower.verdicts import Verdict

        assert polytower.Verdict is Verdict
        assert "Verdict" in dir(polytower) and "verify_tower" in dir(polytower)
        with pytest.raises(AttributeError):
            polytower.no_such_name
