import hashlib
import json
import os
import subprocess
import sys

import pytest

from polytower import cli, formats, readers
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

import test_golden
from test_golden import EDGE, LOOP
from util import cover_to_obj, lift_spec


# an edge from a to b in the first level, anchored at a through a thread
LIFT_SPEC = lift_spec(EDGE, 2)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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
            again = readers.parse_complex(json.loads(json.dumps(obj)))
            assert again == complex_

    def test_nested_names_round_trip(self):
        from polytower.complexes import barycentric_subdivision

        b2 = barycentric_subdivision(barycentric_subdivision(simplex(1)))
        # the writer holds names as the complex does; the document is its JSON
        again = readers.parse_complex(json.loads(formats.dumps_canonical(formats.complex_to_obj(b2))))
        assert again == b2

    def test_map_round_trip(self):
        p = cylinder_map()
        obj = formats.map_to_obj(p)
        again = readers.parse_map(json.loads(json.dumps(obj)))
        assert again.assignment == p.assignment
        assert again.source == p.source
        assert again.base_target == p.base_target

    def test_tower_round_trip(self):
        t = subdivision_tower(simplex(2), 3)
        obj = formats.tower_to_obj(t)
        again = readers.parse_tower(json.loads(json.dumps(obj)))
        assert again.levels == t.levels
        assert again.scales == t.scales
        assert [b.assignment for b in again.bonds] == [b.assignment for b in t.bonds]

    def test_each_distinct_name_joined_once(self, monkeypatch):
        from polytower import complexes
        from polytower.complexes import join_parts

        t = subdivision_tower(simplex(2), 3)
        obj = json.loads(json.dumps(formats.tower_to_obj(t)))
        joined = []

        def counting_join(parts, name):
            joined.append(parts)
            return join_parts(parts, name)

        # the reader's canonicaliser, `complexes.canon_vertex`, joins the parts
        monkeypatch.setattr(complexes, "join_parts", counting_join)
        again = readers.parse_tower(obj)
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
                readers.parse_complex({"vertices": [], "maximal": [[bad, "b"]]})
            with pytest.raises(formats.InputFormatError, match=error):
                readers.parse_complex({"vertices": [], "maximal": [[["c", "d"], ["d", "c"]], [bad]]})
        with pytest.raises(formats.InputFormatError, match="duplicate vertex"):
            readers.parse_complex({"vertices": [], "maximal": [[["c", "d"], ["d", "c"]]]})
        assert readers.parse_vertex(["b", ["c", "a"]]) == ("b", ("a", "c"))

    def test_fraction_forms(self):
        from fractions import Fraction

        assert formats.fraction_to_str(Fraction(1, 2)) == "1/2"
        assert formats.fraction_to_str(Fraction(3)) == "3"
        assert readers.parse_fraction("7/4") == Fraction(7, 4)
        assert readers.parse_fraction("5") == Fraction(5)
        with pytest.raises(formats.InputFormatError):
            readers.parse_fraction("1/0")
        for boolean in (True, False):
            with pytest.raises(formats.InputFormatError, match="rationals are 'p/q' strings"):
                readers.parse_fraction(boolean)

    def test_cover_round_trip_stars(self):
        k = simplex(2)
        obj = {
            "ambient": json.loads(formats.dumps_canonical(formats.complex_to_obj(k))),
            "kind": "closed",
            "elements": {v: {"star_of": v} for v in "abc"},
        }
        cover = readers.parse_cover(obj)
        assert cover.indices == ("a", "b", "c")
        again = readers.parse_cover(json.loads(formats.dumps_canonical(cover_to_obj(cover))))
        assert again.indices == cover.indices
        assert cover.ambient == barycentric_subdivision(k) and cover.base == k
        for v in "abc":
            assert cover.element(v) == barycentric_vertex_star(k, v)
        obj["elements"]["d"] = {"star_of": "z"}
        with pytest.raises(UnknownVertexError):
            readers.parse_cover(obj)


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
        parsed = readers.parse_complex(report)
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

    def test_verify_tower_nerve_budget_exhaustion(self, golden_runs, capsys):
        # three nerve simplices are fewer than any pulled-back star cover
        # of the tetrahedron tower has
        code, out = run_cli(["verify-tower", golden_runs.path("tetra2"), "--n", "3", "--budget-nerve", "3"], capsys)
        assert code == 2
        assert json.loads(out)["conclusion"] == {"status": "inconclusive", "reason": "nerve budget exhausted"}

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
        restricted = readers.parse_tower(json.loads(out))
        assert restricted.levels[0].f_vector() == (2, 1)
        assert restricted.levels[1].f_vector() == (3, 2)

    def test_gen_sphere(self, capsys):
        code, out = run_cli(["gen", "sphere", "--dim", "2"], capsys)
        assert code == 0
        parsed = readers.parse_complex(json.loads(out))
        assert len(parsed.simplices) == 14

    def test_gen_cylinder(self, capsys):
        code, out = run_cli(["gen", "cylinder"], capsys)
        assert code == 0
        parsed = readers.parse_map(json.loads(out))
        assert len(parsed.source.vertices) == 9

    def test_gen_subdivision_tower(self, capsys):
        code, out = run_cli(["gen", "subdivision-tower", "--base", "triangle", "--levels", "3"], capsys)
        assert code == 0
        tower = readers.parse_tower(json.loads(out))
        assert tower.depth() == 3

    def test_gen_tower_on_a_sphere_base(self, capsys):
        code, out = run_cli(["gen", "subdivision-tower", "--base", "sphere:1", "--levels", "2"], capsys)
        assert code == 0
        tower = readers.parse_tower(json.loads(out))
        assert tower.levels[0] == sphere(1)

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

    def test_lift_inconclusive_after_one_subdivision(self, golden_runs, capsys):
        # the triangle sent onto the first level's triangle qfo: some image
        # hull lies in no element of a cover, even after the domain is
        # subdivided once
        tower, spec = golden_runs.path("qfo3"), golden_runs.path("triangle3")
        code, out = run_cli(["lift", tower, "--spec", spec, "--n", "2"], capsys)
        assert code == 2
        assert json.loads(out)["status"] == {
            "status": "inconclusive",
            "reason": "no cover element contains some image hull after one subdivision",
        }

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


# lines of the golden table that a fresh process runs too: small inputs of
# every certificate command, giving each exit code 0, 1 and 2
PROCESS_LINES = [
    "verify-tower @tower3 --n 2",
    "verify-tower @cylinder --n 2",
    "homology @rp2 --degree 1",
    "verify-tower @tower3O --n 2",
    "check-map @cylmap --n 2",
    "lift @tower2 --spec @edge2_abc --n 2",
    "lift @tower3 --spec @loop3_abc --n 2",
    "lift @tower2 --spec @triangle2_abc --n 2",
    "check-map @constant_map --n 1",
    "verify-tower @tetra2 --n 2 --budget-pi1 1",
]


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
        [(test_golden.inputs(line), test_golden.split(line)[1]) + test_golden.PINS[line] for line in PROCESS_LINES],
    )
    def test_golden_digest(self, golden_runs, gen, command, expected_code, digest):
        # a process's stdout carries the bytes the golden table pins for
        # `cli.main` run in-process, on the inputs `gen` names
        paths = {"@" + name: golden_runs.path(name) for name in gen}
        proc = run_fresh([sys.executable, "-m", "polytower.cli"] + [paths.get(w, w) for w in command], text=False)
        assert proc.returncode == expected_code
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_entry_point_runs(self, triangle_file):
        proc = run_fresh([sys.executable, "-m", "polytower.cli", "validate", triangle_file])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dimension"] == 2


def run_fresh(argv, text=True) -> subprocess.CompletedProcess:
    """Run argv in a new interpreter that imports the package from `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(argv, capture_output=True, text=text, env=env)


# modules a command-line process must not pay for at start-up: record
# classes need no code generation, and every command imports its handler
# and the lift, π1, reader, point, generator and traceback code only when it
# runs it
NOT_AT_START = (
    "dataclasses",
    "inspect",
    "traceback",
    "polytower.carriers",
    "polytower.plmaps",
    "polytower.generators",
    "polytower.lifts",
    "polytower.pi1",
    "polytower.points",
    "polytower.readers",
    "polytower.induced",
    "polytower.cli_gen",
    "polytower.cli_towers",
    "polytower.cli_lift",
    "polytower.cli_complexes",
)

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
# only the generator path, neither certificate command the other's code,
# and no command another command's handler; `verify-tower` runs on a tower
# whose pieces all collapse, so it never needs π1
NOT_LOADED_BY = {
    "gen": (
        "connectivity", "snf", "stars", "towers", "carriers", "plmaps", "readers", "induced", "points", "lifts",
        "pi1", "cli_towers", "cli_lift", "cli_complexes",
    ),
    "verify-tower": ("carriers", "plmaps", "generators", "lifts", "pi1", "points", "cli_gen", "cli_lift", "cli_complexes"),
    "lift": ("generators", "induced", "cli_gen", "cli_towers", "cli_complexes"),
}


def loaded_by(tmp_path, argv, expected_code=0) -> list:
    """The package modules a fresh process loads to run one command."""
    out = str(tmp_path / "out.json")
    proc = run_fresh([sys.executable, "-c", COMMAND_SCRIPT, *argv, "-o", out])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == expected_code and os.path.getsize(out) > 0
    assert "polytower.cli" in report["loaded"]
    return report["loaded"]


class TestColdStart:
    @pytest.mark.parametrize("command", sorted(NOT_LOADED_BY))
    def test_command_loads_only_its_modules(self, tmp_path, command):
        tower = write(tmp_path, "tower.json", formats.tower_to_obj(subdivision_tower(simplex(2), 2)))
        argv = {
            "gen": ["gen", "random-tower", "--seed", "103", "--levels", "2"],
            "verify-tower": ["verify-tower", tower, "--n", "2"],
            "lift": ["lift", tower, "--spec", write(tmp_path, "spec.json", LIFT_SPEC), "--n", "2"],
        }[command]
        loaded = loaded_by(tmp_path, argv)
        assert sorted(set(loaded) & {"polytower." + m for m in NOT_LOADED_BY[command]}) == []

    def test_pi1_loads_for_a_piece_that_does_not_collapse(self, tmp_path):
        # the cylinder's fibers are circles, which no collapse reduces
        tower = write(tmp_path, "cylinder.json", formats.tower_to_obj(cylinder_tower()))
        loaded = loaded_by(tmp_path, ["verify-tower", tower, "--n", "2"], expected_code=1)
        assert "polytower.pi1" in loaded and "polytower.lifts" not in loaded

    def test_cli_import_loads_only_what_commands_share(self):
        proc = run_fresh([sys.executable, "-c", COLD_START_SCRIPT, *NOT_AT_START])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["loaded"] == []
        assert report["missing"] == [] and report["unlisted"] == []
        assert report["count"] == 52

    def test_cli_import_loads_no_typing(self):
        # annotations are never evaluated, so no module imports `typing`
        # for them; -S keeps `site` from loading it through a .pth hook
        script = "import sys, polytower.cli; print('typing' in sys.modules)"
        proc = run_fresh([sys.executable, "-S", "-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_package_names_resolve_on_first_access(self):
        import polytower
        from polytower.verdicts import Verdict

        assert polytower.Verdict is Verdict
        assert "Verdict" in dir(polytower) and "verify_tower" in dir(polytower)
        with pytest.raises(AttributeError):
            polytower.no_such_name
