"""The error rows of the operation contracts: wrong inputs raise the named
exceptions instead of producing verdicts."""
import json
import sys
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polytower.complexes import (
    ComplexMismatchError,
    UnknownVertexError,
    barycentric_subdivision,
    induced_subcomplex,
    subcomplex_from,
    whole_subcomplex,
)
from polytower.points import barycenter_point, make_point
from polytower.maps import VertexMap, identity_qsmap, preimage_subcomplex
from polytower.plmaps import PartialPLMap
from polytower.stars import barycentric_vertex_star, open_vertex_star
from polytower.towers import MalformedTowerError, restrict_tower
from polytower.generators import simplex, subdivision_tower

from util import ScaleMismatchError, compose, distance, lift_spec, simplex_complex, vertex_point, vertex_to_obj


# the subdivided edge: its vertices are ("a",), ("b",) and ("a", "b")
EDGE = simplex_complex(["a", "b"])
BETA = barycentric_subdivision(EDGE)
IDENTITY = {v: v for v in BETA.vertices}


class PairMapping(Mapping):
    """A mapping that can hold an unhashable key, such as a list name."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        for k, value in self.pairs:
            if k == key:
                return value
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def _with_key(table: dict, name, value) -> PairMapping:
    return PairMapping(list(table.items()) + [(name, value)])


def _plmap(images) -> PartialPLMap:
    return PartialPLMap.build(BETA, whole_subcomplex(BETA), images, EDGE)


A = vertex_point(EDGE, "a")
ALL_TO_A = {v: A for v in BETA.vertices}

# each library entry point that takes a vertex name, called with `name`,
# and the error it raises for a name that is no vertex
NAME_ENTRY_POINTS = {
    "induced_subcomplex": (lambda name: induced_subcomplex(BETA, [name]), UnknownVertexError),
    "make_point": (lambda name: make_point(BETA, PairMapping([(name, 1)])), UnknownVertexError),
    "barycenter_point": (lambda name: barycenter_point(BETA, (name,)), UnknownVertexError),
    "subcomplex_from": (lambda name: subcomplex_from(BETA, [[name]]), UnknownVertexError),
    "VertexMap.build source": (lambda name: VertexMap.build(BETA, BETA, _with_key(IDENTITY, name, ("a",))), ValueError),
    "VertexMap.build target": (lambda name: VertexMap.build(BETA, BETA, {**IDENTITY, ("a",): name}), ValueError),
    "VertexMap.__call__": (lambda name: VertexMap.build(BETA, BETA, IDENTITY)(name), ValueError),
    "preimage_subcomplex": (lambda name: preimage_subcomplex(identity_qsmap(EDGE), (name,)), ValueError),
    "open_vertex_star": (lambda name: open_vertex_star(BETA, name), UnknownVertexError),
    "barycentric_vertex_star": (lambda name: barycentric_vertex_star(BETA, name), UnknownVertexError),
    "PartialPLMap.build": (lambda name: _plmap(_with_key(ALL_TO_A, name, A)), UnknownVertexError),
    "PartialPLMap.image_of": (lambda name: _plmap(ALL_TO_A).image_of(name), ValueError),
}

# a list, an unsorted tuple and an unknown string: none is a vertex of BETA
NON_VERTICES = {"list": ["a", "b"], "unsorted tuple": ("b", "a"), "unknown string": "z"}


class TestNamesAreTakenAsHeld:
    """A name is made canonical only where it is read; every other entry
    point takes it as the complex holds it and rejects anything else as an
    unknown vertex, never with a TypeError."""

    @pytest.mark.parametrize("entry", sorted(NAME_ENTRY_POINTS))
    def test_vertex_is_accepted(self, entry):
        call, _ = NAME_ENTRY_POINTS[entry]
        call(("a", "b"))

    @pytest.mark.parametrize("kind", sorted(NON_VERTICES))
    @pytest.mark.parametrize("entry", sorted(NAME_ENTRY_POINTS))
    def test_non_vertex_is_unknown(self, entry, kind):
        call, error = NAME_ENTRY_POINTS[entry]
        with pytest.raises(error):
            call(NON_VERTICES[kind])


class TestMetricErrors:
    def test_complex_mismatch(self):
        a = simplex_complex(["a", "b"])
        b = simplex_complex(["a", "c"])
        with pytest.raises(ComplexMismatchError):
            distance(vertex_point(a, "a"), vertex_point(b, "a"))

    def test_scale_mismatch(self):
        k = simplex_complex(["a", "b"])
        with pytest.raises(ScaleMismatchError):
            distance(vertex_point(k, "a", 1), vertex_point(k, "b", 2))


class TestCompositionErrors:
    def test_type_mismatch(self):
        a = simplex_complex(["a", "b"])
        b = simplex_complex(["u", "v"])
        c = simplex_complex(["x", "y"])
        f = VertexMap.build(a, b, {"a": "u", "b": "v"})
        g = VertexMap.build(c, c, {"x": "x", "y": "y"})
        with pytest.raises(ValueError):
            compose(g, f)


class TestRestrictErrors:
    def test_wrong_level_subcomplex(self):
        t = subdivision_tower(simplex(2), 2)
        wrong = subcomplex_from(t.levels[1], [[("a",), ("a", "b")]])
        with pytest.raises(MalformedTowerError):
            restrict_tower(t, 1, wrong)

    def test_level_out_of_range(self):
        t = subdivision_tower(simplex(2), 2)
        edge = subcomplex_from(t.levels[0], [["a", "b"]])
        with pytest.raises(MalformedTowerError):
            restrict_tower(t, 5, edge)

    def test_empty_restriction_rejected(self):
        t = subdivision_tower(simplex(2), 2)
        empty = subcomplex_from(t.levels[0], [])
        with pytest.raises(MalformedTowerError):
            restrict_tower(t, 1, empty)


class TestCliInputErrors:
    def test_bad_budget_env(self, tmp_path, capsys, monkeypatch):
        from polytower import formats
        from polytower.cli import main

        path = tmp_path / "c.json"
        path.write_text(formats.dumps_canonical(formats.complex_to_obj(simplex(2))))
        monkeypatch.setenv("POLYTOWER_BUDGETS", "nonsense")
        assert main(["pi1", str(path)]) == 3
        monkeypatch.setenv("POLYTOWER_BUDGETS", "frobnicate=3")
        assert main(["pi1", str(path)]) == 3
        monkeypatch.setenv("POLYTOWER_BUDGETS", "pi1=0")
        assert main(["pi1", str(path)]) == 3

    def test_stars_of_an_unknown_vertex(self, tmp_path, capsys):
        from polytower import formats
        from polytower.cli import main

        path = tmp_path / "c.json"
        path.write_text(formats.dumps_canonical(formats.complex_to_obj(simplex(2))))
        assert main(["stars", str(path), "--vertex", "z"]) == 3

    def test_missing_files(self, capsys):
        from polytower.cli import main

        assert main(["validate", "/nonexistent/x.json"]) == 3
        assert main(["lift", "/nonexistent/t.json", "--spec", "/nonexistent/s.json", "--n", "1"]) == 3


class TestUnknownVertexMessages:
    """A vertex that is not in the complex at hand is named once, in its one
    text form (a nested name as its compact JSON), whichever input holds it."""

    @pytest.mark.parametrize("vertex", ["zz", '["a","z"]'])
    def test_stars_vertex(self, tmp_path, capsys, vertex):
        from polytower.cli import main

        path = _write_json(tmp_path, "c.json", {"vertices": [], "maximal": [["a", "b", "c"]]})
        assert main(["stars", path, "--vertex", vertex]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: unknown vertex %s\n" % vertex

    def test_lift_anchor(self, tmp_path, capsys):
        from polytower import formats
        from polytower.cli import main

        tower = tmp_path / "tower.json"
        tower.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))
        spec = dict(lift_spec([["x0", "x1"]], 2), anchor=[[["x0", "x9"]]])
        argv = ["lift", str(tower), "--spec", _write_json(tmp_path, "spec.json", spec), "--n", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'input error: unknown vertex ["x0","x9"]\n'

    @pytest.mark.parametrize("kind", ["closed", "open"])
    def test_cover_star_of(self, tmp_path, capsys, kind):
        from polytower.cli import main

        elements = {"a": {"star_of": "a"}, "b": {"star_of": ["a", "z"]}}
        cover = {"ambient": {"vertices": [], "maximal": [["a", "b"]]}, "kind": kind, "elements": elements}
        assert main(["nerve", _write_json(tmp_path, "cover.json", cover)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'input error: unknown vertex ["a","z"]\n'


# a command line whose only unusable path is the directory `d` (and the
# tower `t`, written there when a command reads one first)
DIRECTORY_PATHS = {
    "validate": lambda d, t: ["validate", d],
    "lift --spec": lambda d, t: ["lift", t, "--spec", d, "--n", "2"],
    "restrict --complex": lambda d, t: ["restrict", t, "--level", "1", "--complex", d],
    "gen --base": lambda d, t: ["gen", "subdivision-tower", "--base", d],
}


class TestUnusablePaths:
    """A path that cannot be read or written is malformed input (3), never
    the internal-error code (4), and the run prints nothing."""

    @pytest.mark.parametrize("command", sorted(DIRECTORY_PATHS))
    def test_directory_read_exits_3(self, tmp_path, capsys, command):
        from polytower.cli import main

        tower = _write_json(tmp_path, "tower.json", _tower_obj(2))
        assert main(DIRECTORY_PATHS[command](str(tmp_path), tower)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot read %s: " % tmp_path)

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, target):
        from polytower.cli import main

        output = str(tmp_path) if target == "directory" else str(tmp_path / "no" / "x.json")
        assert main(["gen", "rp2", "-o", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot write %s: " % output)

    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_output_is_refused_before_the_work(self, tmp_path, capsys, monkeypatch, target):
        from polytower import towers
        from polytower.cli import main

        def never(*args):
            raise AssertionError("the certificate was computed")

        monkeypatch.setattr(towers, "verify_tower", never)
        tower = _write_json(tmp_path, "tower.json", _tower_obj(5))
        output = str(tmp_path) if target == "directory" else str(tmp_path / "no" / "x.json")
        assert main(["verify-tower", tower, "--n", "2", "-o", output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot write %s: " % output)

    def test_output_may_overwrite_the_input(self, tmp_path, capsys):
        # the file is read before it is overwritten, and a shorter report
        # leaves nothing of what it held
        from polytower.cli import main

        path = _write_json(tmp_path, "c.json", {"vertices": [], "maximal": [["a", "b", "c"]]})
        assert main(["subdivide", path]) == 0
        subdivided = capsys.readouterr().out
        assert main(["subdivide", path, "-o", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == subdivided
        assert main(["validate", path]) == 0
        validated = capsys.readouterr().out
        assert len(validated) < len(subdivided)
        assert main(["validate", path, "-o", path]) == 0
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == validated

    def test_output_to_a_device(self, tmp_path, capsys):
        # a path that is no regular file takes the report as before: the
        # early open neither truncates nor refuses it
        import os

        from polytower.cli import main

        tower = _write_json(tmp_path, "tower.json", _tower_obj(2))
        assert main(["verify-tower", tower, "--n", "2", "-o", os.devnull]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")

    def test_failed_command_leaves_no_new_output(self, tmp_path, capsys):
        # a path the run created is removed when the command fails; a file
        # that was there keeps what it held
        from polytower.cli import main

        fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
        kept.write_text("held\n", encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        assert main(["validate", missing, "-o", str(fresh)]) == 3
        assert main(["validate", missing, "-o", str(kept)]) == 3
        assert not fresh.exists()
        assert kept.read_text(encoding="utf-8") == "held\n"
        assert capsys.readouterr().out == ""


class TestLiftThreadErrors:
    """A thread with a point count other than the tower's depth, and an
    anchored vertex without a thread, are malformed input."""

    @staticmethod
    def run_lift(tmp_path, threads) -> int:
        from polytower import formats
        from polytower.cli import main

        tower = tmp_path / "tower.json"
        tower.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))
        spec = {
            "domain": {"vertices": [], "maximal": [["x0", "x1"]]},
            "f1": {
                "vertex_points": {
                    "x0": {"coords": {"a": "1"}, "scale": "1"},
                    "x1": {"coords": {"b": "1"}, "scale": "1"},
                }
            },
            "anchor": [["x0"]],
        }
        if threads is not None:
            spec["threads"] = threads
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return main(["lift", str(tower), "--spec", str(path), "--n", "2"])

    @pytest.mark.parametrize("points", [1, 3])
    def test_thread_length_exits_3(self, tmp_path, capsys, points):
        # a, (a,), (a,): the third point has no level to live on
        thread = [{"coords": {key: "1"}, "scale": "1"} for key in ("a", '["a"]', '["a"]')][:points]
        assert self.run_lift(tmp_path, {"x0": thread}) == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [None, "x1"], ids=["no threads", "thread of another vertex"])
    def test_anchored_vertex_without_thread_exits_3(self, tmp_path, capsys, threads):
        if threads is not None:
            threads = {threads: [{"coords": {key: "1"}, "scale": "1"} for key in ("b", '["b"]')]}
        assert self.run_lift(tmp_path, threads) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "no thread for anchored vertex x0" in err and "lift.threads" in err


class TestRestrictLevelErrors:
    """A restrict level outside 1..depth is malformed input, reported as
    such before any level is read."""

    @pytest.mark.parametrize("level", [0, 3])
    def test_level_out_of_range_exits_3(self, tmp_path, capsys, level):
        from polytower import formats
        from polytower.cli import main

        tower = tmp_path / "tower.json"
        tower.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps([["a", "b"]]))
        assert main(["restrict", str(tower), "--level", str(level), "--complex", str(edge)]) == 3
        assert "level out of range" in capsys.readouterr().err

    def test_simplex_off_the_level_exits_3(self, tmp_path, capsys):
        from polytower import formats
        from polytower.cli import main

        tower = tmp_path / "tower.json"
        tower.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))
        edge = tmp_path / "edge.json"
        edge.write_text(json.dumps([["a", "z"]]))
        assert main(["restrict", str(tower), "--level", "1", "--complex", str(edge)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "(at restrict.complex)" in captured.err

    def test_emptied_level_exits_3(self, tmp_path, capsys):
        # the one vertex x of level 2 maps to u, so nothing lies over v
        from polytower.cli import main

        tower = {
            "levels": [{"vertices": [], "maximal": [["u", "v"]]}, {"vertices": [], "maximal": [["x"]]}],
            "bonds": [{"vertex_images": {"x": ["u"]}}],
            "scales": ["1/2", "1/4"],
        }
        argv = ["restrict", _write_json(tmp_path, "tower.json", tower), "--level", "1"]
        assert main(argv + ["--complex", _write_json(tmp_path, "v.json", {"maximal": [["v"]]})]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: restriction emptied level 2\n"


COMMANDS = ["validate", "subdivide", "stars", "nerve", "homology", "pi1", "check-map", "verify-tower", "restrict", "mesh", "lift", "gen"]

# help, usage errors before and after a command name, and errors the
# top-level parser reports after the command's own parser has run
PARSER_ARGVS = (
    [["--help"], ["-h", "gen"], [], ["bogus"], ["verify"], ["--format", "json"]]
    + [[c, "--help"] for c in COMMANDS]
    + [[c] for c in COMMANDS]
    + [
        ["verify-tower", "tower.json"],
        ["lift", "tower.json", "--spec", "spec.json"],
        ["validate", "complex.json", "--bogus"],
        ["gen", "nosuchkind"],
        ["homology", "complex.json", "--degree", "two"],
        ["gen", "simplex", "--format", "xml"],
        ["restrict", "tower.json", "--level", "1"],
    ]
)


def _exit_and_output(run, capsys):
    with pytest.raises(SystemExit) as exc:
        run()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestUsageErrors:
    """A command line argparse rejects is malformed input (3), never the
    code of an inconclusive check (2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "complex.json", "--n", "1"],  # unrecognized argument
            ["frobnicate", "complex.json"],  # unknown subcommand
            ["verify-tower", "tower.json"],  # missing required --n
        ],
    )
    def test_usage_error_exits_3(self, capsys, argv):
        from polytower.cli import EXIT_INPUT, main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["verify-tower", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        from polytower.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=[" ".join(a) or "(none)" for a in PARSER_ARGVS])
    def test_same_text_as_the_full_parser(self, capsys, argv):
        """`main` builds only the named command's subparser; help and usage
        errors read as they do from the parser of all twelve."""
        from polytower import cli

        expected = _exit_and_output(lambda: cli.build_parser().parse_args(argv), capsys)
        assert _exit_and_output(lambda: cli.main(argv), capsys) == expected
        assert expected[0] == (0 if "--help" in argv or "-h" in argv else 3)

    def test_builds_only_the_named_command(self, capsys, monkeypatch):
        import argparse

        from polytower.cli import main

        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        for argv, names in ((["verify-tower", "--help"], 1), (["gen", "--help"], 1), (["--help"], 12), (["bogus"], 12)):
            built.clear()
            _exit_and_output(lambda: main(argv), capsys)
            assert len(built) == names, argv



# command -> the budgets it reads, each set by its --budget-<name> flag
BUDGETS_READ = {"nerve": ["nerve"], "pi1": ["pi1"], "check-map": ["pi1"], "verify-tower": ["pi1", "nerve"], "lift": ["pi1", "filler", "nerve"]}


class TestBudgetFlags:
    """A command accepts the flag of each budget it reads and of no other,
    so a budget that would be ignored is a usage error."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_name_the_budgets_read(self, capsys, command):
        from polytower.cli import main

        _, out, _ = _exit_and_output(lambda: main([command, "--help"]), capsys)
        flags = sorted({word.strip("[],") for word in out.split() if word.startswith("--budget-")})
        assert flags == sorted("--budget-" + name for name in BUDGETS_READ.get(command, []))

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "complex.json", "--budget-pi1", "5"],
            ["homology", "complex.json", "--budget-nerve", "5"],
            ["gen", "simplex", "--budget-filler", "5"],
            ["nerve", "cover.json", "--budget-pi1", "5"],
            ["pi1", "complex.json", "--budget-nerve", "5"],
            ["check-map", "map.json", "--n", "1", "--budget-filler", "5"],
            ["verify-tower", "tower.json", "--n", "2", "--budget-filler", "1"],
        ],
    )
    def test_unread_budget_is_a_usage_error(self, capsys, argv):
        from polytower.cli import EXIT_INPUT, main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        assert "unrecognized arguments: %s" % argv[-2] in capsys.readouterr().err


def _deep_name(depth: int) -> str:
    # built as text: json.dumps itself cannot nest this deep
    return "[" * depth + '"x"' + "]" * depth


class TestDeeplyNestedNames:
    """A name nested past what the parser (or the JSON reader) accepts is
    malformed input, never a verdict."""

    @pytest.mark.parametrize("depth", [900, 2000])
    def test_validate(self, tmp_path, capsys, depth):
        from polytower.cli import main

        path = tmp_path / "deep.json"
        path.write_text('{"vertices": [], "maximal": [[%s, "y"]]}' % _deep_name(depth))
        assert main(["validate", str(path)]) == 3
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [900, 2000])
    def test_verify_tower(self, tmp_path, capsys, depth):
        from polytower.cli import main

        path = tmp_path / "deep-tower.json"
        level = '{"vertices": [], "maximal": [[%s, "y"]]}' % _deep_name(depth)
        path.write_text('{"levels": [%s], "bonds": []}' % level)
        assert main(["verify-tower", str(path), "--n", "1"]) == 3
        assert "input error" in capsys.readouterr().err

    def test_deepest_accepted_name(self):
        from polytower import formats, readers

        name = readers.parse_vertex(json.loads(_deep_name(readers.MAX_NAME_DEPTH)))
        assert vertex_to_obj(name) == json.loads(_deep_name(readers.MAX_NAME_DEPTH))
        with pytest.raises(formats.InputFormatError):
            readers.parse_vertex(json.loads(_deep_name(readers.MAX_NAME_DEPTH + 1)))
        with pytest.raises(formats.InputFormatError):
            readers.parse_vertex_key(_deep_name(2000))


class TestGenArgumentErrors:
    """A generator argument out of range is malformed input: exit 3 and
    nothing on standard output, never a generated document or exit 4."""

    @pytest.mark.parametrize("dim", ["-1", "-2", "-5"])
    def test_negative_simplex_dimension(self, capsys, dim):
        from polytower.cli import main

        assert main(["gen", "simplex", "--dim", dim]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "simplex dimension must be non-negative" in captured.err
        with pytest.raises(ValueError):
            simplex(int(dim))

    @pytest.mark.parametrize("kind", ["subdivision-tower", "random-tower"])
    @pytest.mark.parametrize("ratio", ["0", "-2"])
    def test_non_positive_scale_base(self, capsys, kind, ratio):
        from polytower.cli import main

        assert main(["gen", kind, "--scale-base", ratio]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: the scale base must be positive" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sphere", "--dim", "-1"], "sphere dimension must be non-negative"),
            (["subdivision-tower", "--levels", "0"], "need at least one level"),
        ],
        ids=["sphere-dimension", "tower-levels"],
    )
    def test_generator_refusal(self, capsys, argv, message):
        from polytower.cli import main

        assert main(["gen"] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: %s\n" % message


class TestInternalErrors:
    def test_uncaught_exception_is_no_verdict(self, tmp_path, capsys, monkeypatch):
        from polytower import cli, formats, towers

        path = tmp_path / "tower.json"
        path.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))

        def broken(*args, **kwargs):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(towers, "verify_tower", broken)
        code = cli.main(["verify-tower", str(path), "--n", "1"])
        assert code == cli.EXIT_INTERNAL
        assert code not in (0, 1, 2, 3)
        assert "internal error: RuntimeError" in capsys.readouterr().err

    def test_key_error_is_a_fault(self, capsys, monkeypatch):
        # no malformed input raises KeyError, so one is the program's fault
        from polytower import cli, cli_gen

        def broken(args):
            raise KeyError("simulated")

        monkeypatch.setattr(cli_gen, "cmd_gen", broken)
        assert cli.main(["gen", "rp2"]) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: KeyError: 'simulated'\n")

    def test_chain_map_fault_is_no_verdict(self, tmp_path, capsys, monkeypatch):
        # a chain map with one sign flipped sends the fundamental cycle of
        # the 3-sphere level to a chain that is no cycle; the check in
        # `induced_homology_map` stops the run as an internal error, never
        # as a refutation.  Its closed 3-simplices need more than one
        # rewrite, so regularity is not certified and the evidence is
        # computed
        from polytower import cli, formats, induced
        from polytower.generators import sphere

        original = induced.chain_map_columns

        def flipped(vm, k):
            columns = original(vm, k)
            j = next(j for j, column in enumerate(columns) if column)
            columns[j] = {i: -sign for i, sign in columns[j].items()}
            return columns

        monkeypatch.setattr(induced, "chain_map_columns", flipped)
        path = tmp_path / "s3.json"
        path.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(sphere(3), 2))))
        assert cli.main(["verify-tower", str(path), "--n", "4", "--budget-pi1", "1"]) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: AssertionError: image of a cycle is not a cycle" in captured.err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="address-space limits are Linux's")
    def test_out_of_memory_is_no_verdict(self, tmp_path):
        # the subdivision of the 11-simplex has 12! top simplices; under a
        # 400 MB address-space limit the child runs out of memory
        import os
        import resource
        import subprocess

        from polytower import formats

        path = tmp_path / "simplex11.json"
        path.write_text(formats.dumps_canonical(formats.complex_to_obj(simplex(11))))
        limit = 400 * 2**20
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-m", "polytower.cli", "subdivide", str(path)],
            capture_output=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=300,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, b"", b"internal error: out of memory\n")


def _write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _tower_obj(levels: int) -> dict:
    from polytower import formats

    return formats.tower_to_obj(subdivision_tower(simplex(2), levels))


# an edge x0 x1 onto a b of the first level, anchored at x0 through the
# thread a, (a,) of its image
LIFT_SPEC = lift_spec([["x0", "x1"]], 2)


class TestDegreeErrors:
    """A degree below 1 is malformed input, rejected before any work, even
    where no piece would be judged."""

    @pytest.mark.parametrize(
        "command, levels, n",
        [("verify-tower", 1, "0"), ("verify-tower", 1, "-3"), ("lift", 1, "0"), ("lift", 2, "0")],
    )
    def test_cli_exits_3(self, tmp_path, capsys, command, levels, n):
        from polytower.cli import main

        tower = _write_json(tmp_path, "tower.json", _tower_obj(levels))
        spec = _with(LIFT_SPEC, threads={"x0": LIFT_SPEC["threads"]["x0"][:levels]})
        extra = ["--spec", _write_json(tmp_path, "spec.json", spec)] if command == "lift" else []
        assert main([command, tower, "--n", n] + extra) == 3
        assert "input error: n must be at least 1" in capsys.readouterr().err

    def test_library_calls_raise_first(self):
        from polytower.generators import cylinder_map
        from polytower.lifts import tower_lift
        from polytower.towers import Tower, regularity_report, verify_tower

        one_level = Tower.build([simplex(2)], [])
        for call in (
            lambda: verify_tower(one_level, 0),
            lambda: regularity_report(cylinder_map(), 0),
            lambda: tower_lift(one_level, None, None, None, 0),
        ):
            with pytest.raises(ValueError, match="n must be at least 1"):
                call()


def _with(obj: dict, **changes) -> dict:
    return dict(obj, **changes)


def _with_point(**points) -> dict:
    return _with(LIFT_SPEC, f1={"vertex_points": dict(LIFT_SPEC["f1"]["vertex_points"], **points)})


def _cover(element) -> dict:
    return {"ambient": {"vertices": [], "maximal": [["a", "b"]]}, "kind": "closed", "elements": {"e": element}}


class TestMalformedContainers:
    """A field holding the wrong kind of container, or a JSON boolean where
    a rational belongs, is malformed input (3), never an internal error (4)
    or a verdict."""

    @pytest.mark.parametrize(
        "command, document, extra",
        [
            ("validate", {"vertices": 5, "maximal": [["a"]]}, {}),
            ("verify-tower", _with(_tower_obj(2), bonds=5), {}),
            ("verify-tower", _with(_tower_obj(2), scales=5), {}),
            ("restrict", _tower_obj(2), {"--complex": 42}),
            ("lift", _tower_obj(2), {"--spec": _with(LIFT_SPEC, threads=[1])}),
            ("lift", _tower_obj(2), {"--spec": _with(LIFT_SPEC, anchor=7)}),
            (
                "lift",
                _tower_obj(2),
                {"--spec": _with(LIFT_SPEC, threads={"x0": [{"coords": [1], "scale": "1"}]})},
            ),
            (
                "lift",
                _tower_obj(2),
                {"--spec": _with(LIFT_SPEC, f1=dict(LIFT_SPEC["f1"], defined_on=5))},
            ),
            ("nerve", _cover([5]), {}),
            ("mesh", _cover([5]), {}),
            ("verify-tower", _with(_tower_obj(2), scales=[True, "1/2"]), {}),
            ("lift", _tower_obj(2), {"--spec": _with_point(x0={"coords": {"a": "1"}, "scale": True})}),
            ("lift", _tower_obj(2), {"--spec": _with_point(x0={"coords": {"a": True}, "scale": "1"})}),
        ],
        ids=[
            "complex-vertices",
            "tower-bonds",
            "tower-scales",
            "restrict-complex",
            "lift-threads",
            "lift-anchor",
            "point-coords",
            "plmap-defined-on",
            "nerve-element",
            "mesh-element",
            "tower-scale-boolean",
            "point-scale-boolean",
            "point-coordinate-boolean",
        ],
    )
    def test_exits_3(self, tmp_path, capsys, command, document, extra):
        from polytower.cli import main

        argv = [command, _write_json(tmp_path, "input.json", document)]
        for flag, payload in extra.items():
            argv += [flag, _write_json(tmp_path, flag.strip("-") + ".json", payload)]
        if command in ("verify-tower", "lift"):
            argv += ["--n", "2"]
        if command == "restrict":
            argv += ["--level", "1"]
        assert main(argv) == 3
        assert "input error" in capsys.readouterr().err


def _map_document(command: str) -> dict:
    """The `gen cylinder` map for `check-map`; a 2-level triangle tower with
    its one bond for `verify-tower`."""
    from polytower import formats
    from polytower.generators import cylinder_map

    return formats.map_to_obj(cylinder_map()) if command == "check-map" else _tower_obj(2)


_ABSENT = object()


def _set_subdivide_target(command: str, document: dict, value) -> dict:
    """The document with `subdivide_target` of its map (for `verify-tower`,
    of its one bond) set to the value, or removed when the value is
    `_ABSENT`."""
    document = json.loads(json.dumps(document))
    target = document["bonds"][0] if command == "verify-tower" else document
    if value is _ABSENT:
        del target["subdivide_target"]
    else:
        target["subdivide_target"] = value
    return document


class TestSubdivideTarget:
    """Every map file is quasi-simplicial: `subdivide_target` may be absent
    or JSON true, and any other value is malformed input (3) with nothing
    on standard output, whether the map is a `check-map` input or a bond of
    a `verify-tower` file."""

    @pytest.mark.parametrize("command", ["check-map", "verify-tower"])
    @pytest.mark.parametrize(
        "value",
        ["false", "no", 1, False, 0, None, []],
        ids=["string-false", "string-no", "one", "false", "zero", "null", "empty-list"],
    )
    def test_anything_but_true_exits_3(self, tmp_path, capsys, command, value):
        from polytower.cli import main

        document = _set_subdivide_target(command, _map_document(command), value)
        assert main([command, _write_json(tmp_path, "input.json", document), "--n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'subdivide_target' must be true" in captured.err

    @pytest.mark.parametrize("command", ["check-map", "verify-tower"])
    def test_true_and_absent_parse(self, tmp_path, capsys, command):
        from polytower.cli import main

        document = _map_document(command)
        outputs = []
        for value in (True, _ABSENT):
            changed = _set_subdivide_target(command, document, value)
            assert main([command, _write_json(tmp_path, "input.json", changed), "--n", "1"]) == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]


def _without(obj: dict, key) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def _cylinder_map_obj() -> dict:
    from polytower import formats
    from polytower.generators import cylinder_map

    return formats.map_to_obj(cylinder_map())


def _with_bond(tower: dict, **changes) -> dict:
    return _with(tower, bonds=[_with(tower["bonds"][0], **changes)])


def _circle_tower_obj() -> dict:
    from polytower import formats
    from polytower.generators import circle

    return formats.tower_to_obj(subdivision_tower(circle(), 1))


TRIANGLE = {"vertices": [], "maximal": [["a", "b", "c"]]}
EDGE_UV = {"vertices": [], "maximal": [["u", "v"]]}


class TestReaderErrors:
    """Each reader's own refusals: malformed input exits 3 with the reader's
    message on standard error and nothing on standard output."""

    @pytest.mark.parametrize(
        "command, document, options, message",
        [
            ("validate", [1], {}, "a complex is an object"),
            ("validate", {"vertices": []}, {}, "missing 'maximal' list"),
            ("validate", {"maximal": ["a"]}, {}, "simplices are arrays"),
            ("stars", TRIANGLE, {"--vertex": "[p0"}, "bad vertex key '[p0'"),
            ("check-map", [], {}, "a map is an object"),
            ("check-map", _without(_cylinder_map_obj(), "source"), {}, "missing 'source'"),
            ("check-map", _without(_cylinder_map_obj(), "target"), {}, "missing 'target'"),
            ("check-map", _without(_cylinder_map_obj(), "vertex_images"), {}, "missing 'vertex_images' object"),
            ("verify-tower", _with_bond(_tower_obj(2), source=TRIANGLE), {}, "embedded source disagrees"),
            ("verify-tower", _with_bond(_tower_obj(2), target=EDGE_UV), {}, "embedded target disagrees"),
            ("nerve", [], {}, "a cover is an object"),
            ("nerve", _with(_cover([["a"]]), kind="half-open"), {}, "kind must be 'open' or 'closed'"),
            ("nerve", _without(_cover([["a"]]), "elements"), {}, "missing 'elements' object"),
            (
                "mesh",
                _with(_cover([["a"]]), elements={"e": [["a"]], "f": {"star_of": "b"}}),
                {},
                "closed covers cannot mix star elements",
            ),
            ("nerve", _cover(5), {}, "elements are simplex lists or {'star_of': v}"),
            ("verify-tower", [], {}, "a tower is an object"),
            ("verify-tower", {"bonds": []}, {}, "missing 'levels' list"),
            ("verify-tower", _with(_tower_obj(2), bonds=[]), {}, "a tower with M levels needs M-1 bonds"),
            ("verify-tower", _with(_tower_obj(2), cover="X"), {}, "cover kind must be B or O"),
            (
                "verify-tower",
                _with_bond(_tower_obj(2), vertex_images=_without(_tower_obj(2)["bonds"][0]["vertex_images"], '["a"]')),
                {},
                'no image for vertex ["a"]',
            ),
            ("verify-tower", _with(_tower_obj(2), scales=["1/2"]), {}, "one scale per level (at tower)"),
            ("verify-tower", _with(_tower_obj(2), scales=["0", "1/4"]), {}, "scales must be positive (at tower)"),
            ("mesh", _cover([["a"]]), {"--scale": "0"}, "scale must be positive"),
            ("lift", _tower_obj(2), {"--spec": []}, "a lift specification is an object"),
            (
                "lift",
                _tower_obj(2),
                {"--spec": _with(LIFT_SPEC, threads={"x0": [{"coords": {"a": "1/2"}, "scale": "1"}]})},
                "barycentric coordinates must sum to 1",
            ),
            ("lift", _tower_obj(2), {"--spec": _with(LIFT_SPEC, f1={})}, "missing 'vertex_points'"),
            (
                "lift",
                _circle_tower_obj(),
                {
                    "--spec": {
                        "domain": {"vertices": [], "maximal": [["x0", "x1", "x2"]]},
                        "f1": {
                            "vertex_points": {
                                x: {"coords": {s: "1"}, "scale": "1"} for x, s in (("x0", "s0"), ("x1", "s1"), ("x2", "s2"))
                            }
                        },
                    }
                },
                "span no target simplex",
            ),
        ],
        ids=[
            "complex-not-object",
            "complex-no-maximal",
            "complex-simplex-not-array",
            "stars-bad-vertex-key",
            "map-not-object",
            "map-no-source",
            "map-no-target",
            "map-no-vertex-images",
            "bond-source-disagrees",
            "bond-target-disagrees",
            "cover-not-object",
            "cover-bad-kind",
            "cover-no-elements",
            "cover-mixes-star-and-list",
            "cover-element-neither",
            "tower-not-object",
            "tower-no-levels",
            "tower-bond-count",
            "tower-cover-kind",
            "bond-vertex-without-image",
            "tower-scale-count",
            "tower-scale-zero",
            "mesh-scale-zero",
            "lift-spec-not-object",
            "thread-point-sum",
            "f1-no-vertex-points",
            "f1-spans-no-simplex",
        ],
    )
    def test_exits_3(self, tmp_path, capsys, command, document, options, message):
        from polytower.cli import main

        argv = [command, _write_json(tmp_path, "input.json", document)]
        for flag, payload in options.items():
            argv += [flag, payload if isinstance(payload, str) else _write_json(tmp_path, "option.json", payload)]
        if command in ("check-map", "verify-tower", "lift"):
            argv += ["--n", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and message in captured.err


class TestEquivalentInputs:
    """Spellings the readers accept as the same input give the same exit
    code and the same bytes."""

    def test_integer_scales_read_as_their_strings(self, tmp_path, capsys):
        from polytower.cli import main

        runs = []
        for scales in (["2", "1"], [2, 1]):
            code = main(["verify-tower", _write_json(tmp_path, "tower.json", _with(_tower_obj(2), scales=scales)), "--n", "1"])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["command"] == "verify-tower"

    def test_open_cover_of_simplex_lists(self, tmp_path, capsys):
        # an open element given as simplices is the open star of their vertices
        from polytower.cli import main

        ambient = {"vertices": [], "maximal": [["a", "b"], ["b", "c"]]}
        runs = []
        for elements in ({"e": [["a", "b"]], "f": [["b", "c"]]}, {"e": [["a"], ["b"]], "f": [["c", "b"]]}):
            cover = {"ambient": ambient, "kind": "open", "elements": elements}
            code = main(["nerve", _write_json(tmp_path, "cover.json", cover)])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert json.loads(runs[0][1]) == {
            "command": "nerve",
            "nerve": {"maximal": [["e", "f"]], "vertices": ["e", "f"]},
            "status": {"status": "holds"},
            "subsets_checked": 3,
        }

    def test_empty_budget_entries_are_skipped(self, tmp_path, capsys, monkeypatch):
        from polytower import formats
        from polytower.cli import main
        from polytower.generators import sphere

        # five rewrite steps leave the 3-sphere's presentation unfinished
        path = _write_json(tmp_path, "s3.json", formats.complex_to_obj(sphere(3)))
        runs = []
        for env in (",pi1=5,", "pi1=5"):
            monkeypatch.setenv("POLYTOWER_BUDGETS", env)
            code = main(["pi1", path])
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][0] == 2
        assert json.loads(runs[0][1])["trivial"]["reason"] == "rewrite budget exhausted"


# the atoms a mutation puts in place of a value: empty, unbalanced,
# unreadable and repeating ones
MUTATION_ATOMS = [None, "", "[", "1/0", [], {}, ["a", "a"]]

# `--vertex` strings: names that are vertices, atoms beginning with '[' and
# others that are not JSON, names in no complex, unsorted and repeated parts,
# and names at and one past the depth bound
VERTEX_STRINGS = [
    "a",
    '["a"]',
    '["a","b"]',
    '["b","a"]',
    '["a","a"]',
    '[["a"],["a"]]',
    "[",
    "[a",
    '["a"',
    '["[a"]',
    "[]",
    "[1]",
    "[null]",
    "{}",
    "",
    '"a"',
    _deep_name(100),
    _deep_name(101),
]


def _fuzz_cases() -> list:
    """(command, the valid document to mutate, the option that reads it or
    None for the input file, the other options) of every command the fuzz
    test runs; an option payload is written to a file, except a string."""
    from polytower import formats
    from polytower.generators import circle

    tower = _tower_obj(2)
    edge = {"maximal": [["a", "b"]]}
    ambient = {"vertices": [], "maximal": [["a", "b"], ["b", "c"]]}
    closed = {"ambient": ambient, "kind": "closed", "elements": {v: {"star_of": v} for v in "abc"}}
    opened = {"ambient": ambient, "kind": "open", "elements": {"e": [["a", "b"]], "f": [["c"]]}}
    n2 = {"--n": "2"}
    # names nested one level, so that sorted and unsorted parts both occur
    nested = json.loads(formats.dumps_canonical(formats.complex_to_obj(barycentric_subdivision(simplex(1)))))
    two_pieces = {"vertices": [], "maximal": [["a", "b", "c"], ["x", "y"], ["y", "z"], ["x", "z"]]}
    return [
        ("validate", formats.complex_to_obj(circle()), None, {}),
        ("subdivide", two_pieces, None, {}),
        ("stars", nested, None, {"--vertex": VERTEX_STRINGS}),
        ("homology", two_pieces, None, {"--degree": ["-1", "-7", "0", "2", "9", None]}),
        ("pi1", two_pieces, None, {}),
        ("check-map", _cylinder_map_obj(), None, n2),
        ("verify-tower", tower, None, n2),
        ("restrict", tower, None, {"--level": "1", "--complex": edge}),
        ("restrict", edge, "--complex", {"--level": "1"}),
        ("nerve", closed, None, {}),
        ("nerve", opened, None, {}),
        ("mesh", closed, None, {"--scale": "1/2"}),
        ("mesh", opened, None, {}),
        ("lift", tower, None, dict(n2, **{"--spec": LIFT_SPEC})),
        ("lift", LIFT_SPEC, "--spec", n2),
    ]


FUZZ_CASES = _fuzz_cases()


def _value_paths(document, prefix=()):
    """The path of every value inside the document, its root excluded."""
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _mutate(document, path, action) -> None:
    """Delete the value at the path, or put the action's atom there."""
    for key in path[:-1]:
        document = document[key]
    if action == "delete":
        del document[path[-1]]
    else:
        document[path[-1]] = json.loads(json.dumps(action))


class TestExitCodeFuzz:
    """Mutated documents never break the exit-code contract: every command
    exits 0 to 3, never reports an internal error, and exit 3 always comes
    with an input error."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_codes_hold(self, tmp_path, capsys, data):
        from polytower.cli import main

        for command, document, option, others in FUZZ_CASES:
            document = json.loads(json.dumps(document))
            for _ in range(data.draw(st.integers(1, 3))):
                paths = list(_value_paths(document))
                if not paths:
                    break
                _mutate(document, data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(["delete"] + MUTATION_ATOMS)))
            options = dict(others)
            if option is None:
                argv = [command, _write_json(tmp_path, "input.json", document)]
            else:
                argv = [command, _write_json(tmp_path, "input.json", _tower_obj(2))]
                options[option] = document
            for flag, payload in options.items():
                if isinstance(payload, list):  # the strings to draw one from
                    payload = data.draw(st.sampled_from(payload))
                if payload is not None:
                    argv += [flag, payload if isinstance(payload, str) else _write_json(tmp_path, flag.strip("-") + ".json", payload)]
            _assert_contract(main, argv, capsys)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_gen_arguments_hold(self, tmp_path, capsys, data):
        from polytower.cli import main

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        kind = data.draw(st.sampled_from(GEN_KINDS))
        argv = ["gen", kind]
        # small values only: a simplex or sphere of high dimension has
        # exponentially many faces
        for flag, values in (
            ("--dim", ["-2", "-1", "0", "1", "3"]),
            ("--levels", ["-1", "0", "1", "2"]),
            ("--seed", ["-1", "0", "7"]),
            ("--scale-base", ["0", "-1", "1/0", "x", "2", "1/2"]),
            ("--base", ["triangle", "point", "sphere:x", "sphere:-1", "sphere:1", "nosuch", "no-such-file.json", str(bad_json)]),
        ):
            value = data.draw(st.sampled_from([None] + values))
            if value is not None:
                argv += [flag, value]
        if kind in ("subdivision-tower", "random-tower") and "--levels" not in argv:
            argv += ["--levels", "2"]
        _assert_contract(main, argv + ["-o", str(tmp_path / "out.json")], capsys)


# every kind `gen` makes
GEN_KINDS = ["simplex", "circle", "sphere", "rp2", "cylinder", "cylinder-tower", "subdivision-tower", "random-tower"]


def _assert_contract(main, argv, capsys) -> None:
    """The command exits 0 to 3, reports no internal error, and exits 3
    only with an input error."""
    code = main(argv)
    captured = capsys.readouterr()
    assert 0 <= code <= 3, (argv, captured.err)
    assert "internal error" not in captured.err
    if code == 3:
        assert captured.err.startswith("input error: "), captured.err
