"""The error rows of the operation contracts: wrong inputs raise the named
exceptions instead of producing verdicts."""
import json

import pytest

from polytower.complexes import (
    ComplexMismatchError,
    subcomplex_from,
)
from polytower.maps import VertexMap
from polytower.towers import MalformedTowerError, restrict_tower
from polytower.generators import simplex, subdivision_tower

from util import ScaleMismatchError, compose, distance, simplex_complex, vertex_point


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


class TestLiftThreadErrors:
    """A thread with a point count other than the tower's depth is
    malformed input."""

    @pytest.mark.parametrize("points", [1, 3])
    def test_thread_length_exits_3(self, tmp_path, capsys, points):
        from polytower import formats
        from polytower.cli import main

        tower = tmp_path / "tower.json"
        tower.write_text(formats.dumps_canonical(formats.tower_to_obj(subdivision_tower(simplex(2), 2))))
        # a, (a,), (a,): the third point has no level to live on
        thread = [{"coords": {key: "1"}, "scale": "1"} for key in ("a", '["a"]', '["a"]')][:points]
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "domain": {"vertices": [], "maximal": [["x0", "x1"]]},
                    "f1": {
                        "vertex_points": {
                            "x0": {"coords": {"a": "1"}, "scale": "1"},
                            "x1": {"coords": {"b": "1"}, "scale": "1"},
                        }
                    },
                    "anchor": [["x0"]],
                    "threads": {"x0": thread},
                }
            )
        )
        assert main(["lift", str(tower), "--spec", str(spec), "--n", "2"]) == 3
        assert "input error" in capsys.readouterr().err


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
        from polytower import formats

        name = formats.parse_vertex(json.loads(_deep_name(formats.MAX_NAME_DEPTH)))
        assert formats.vertex_to_obj(name) == json.loads(_deep_name(formats.MAX_NAME_DEPTH))
        with pytest.raises(formats.InputFormatError):
            formats.parse_vertex(json.loads(_deep_name(formats.MAX_NAME_DEPTH + 1)))
        with pytest.raises(formats.InputFormatError):
            formats.parse_vertex_key(_deep_name(2000))


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


def _write_json(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _tower_obj(levels: int) -> dict:
    from polytower import formats

    return formats.tower_to_obj(subdivision_tower(simplex(2), levels))


# an edge x0 x1 onto a b of the first level, anchored at x0 through the
# thread a, (a,) of its image
LIFT_SPEC = {
    "domain": {"vertices": [], "maximal": [["x0", "x1"]]},
    "f1": {
        "vertex_points": {
            "x0": {"coords": {"a": "1"}, "scale": "1"},
            "x1": {"coords": {"b": "1"}, "scale": "1"},
        }
    },
    "anchor": [["x0"]],
    "threads": {"x0": [{"coords": {"a": "1"}, "scale": "1"}, {"coords": {'["a"]': "1"}, "scale": "1"}]},
}


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
        from polytower.towers import Tower, regularity_report, tower_lift, verify_tower

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
