"""Command-line front end.

Exit codes: 0 the check holds (or the command produced its output), 1 a
check was refuted, 2 a check was inconclusive, 3 malformed input or a
command-line usage error, 4 an internal error (a fault of the program, never
a verdict); running out of memory is an internal error too.  Budgets come
from flags, the POLYTOWER_BUDGETS environment variable
("pi1=N,filler=N,nerve=N"), or the defaults, in that order of precedence.
A command accepts the flags of the budgets it reads, and no others.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formats
from .complexes import barycentric_subdivision, subcomplex_from, vertex_label
from .verdicts import DEFAULT_BUDGETS, HOLDS, Budgets, Verdict, conjoin

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}

# budget name -> its Budgets field: a POLYTOWER_BUDGETS entry name=N and the
# flag --budget-name of the commands that read it
_BUDGETS = {"pi1": "pi1_steps", "filler": "filler_steps", "nerve": "nerve_subsets"}

# written when memory runs out, where formatting a message could fail too
_OUT_OF_MEMORY = b"internal error: out of memory\n"


def _budgets_from(args) -> Budgets:
    overrides = {}
    for part in os.environ.get("POLYTOWER_BUDGETS", "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise formats.InputFormatError("POLYTOWER_BUDGETS entries look like name=N")
        name, value = part.split("=", 1)
        key = _BUDGETS.get(name.strip())
        if key is None:
            raise formats.InputFormatError("unknown budget %r in POLYTOWER_BUDGETS" % name)
        overrides[key] = int(value)
    flags = {key: getattr(args, "budget_" + name, None) for name, key in _BUDGETS.items()}
    return DEFAULT_BUDGETS.with_overrides(**overrides).with_overrides(**flags)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise formats.InputFormatError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise formats.InputFormatError("not JSON: %s (%s)" % (path, exc))
    except RecursionError:
        raise formats.InputFormatError("not JSON: %s (nested too deep to read)" % path) from None


def _emit(report, args) -> None:
    text = formats.dumps_canonical(report)
    if args.format == "human":
        text = formats.render_human(json.loads(text)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each imports the layers it runs, so a process compiles only
# those, and returns its report and status, which `main` emits and exits on


def cmd_validate(args) -> tuple:
    complex_ = formats.parse_complex(_load(args.input))
    report = {
        "command": "validate",
        "dimension": complex_.dimension,
        "f_vector": complex_.f_vector(),
        "simplices": len(complex_.simplices),
        "vertices": len(complex_.vertices),
        "euler_characteristic": complex_.euler_characteristic(),
    }
    return report, HOLDS


def cmd_subdivide(args) -> tuple:
    complex_ = formats.parse_complex(_load(args.input))
    return formats.complex_to_obj(barycentric_subdivision(complex_)), HOLDS


def cmd_stars(args) -> tuple:
    from .stars import barycentric_vertex_star, open_vertex_star

    complex_ = formats.parse_complex(_load(args.input))
    vertex = formats.parse_vertex_key(args.vertex)
    ost = open_vertex_star(complex_, vertex)
    bst = barycentric_vertex_star(complex_, vertex)
    report = {
        "command": "stars",
        "vertex": vertex,
        "open_star": {"core": [[vertex]], "avoided": ost.avoided.sorted_simplices()},
        "barycentric_star": {"simplices": bst.sorted_simplices(), "is_cone_with_apex": (vertex,)},
    }
    return report, HOLDS


def cmd_nerve(args) -> tuple:
    from .stars import nerve

    cover = formats.parse_cover(_load(args.input))
    result = nerve(cover, _budgets_from(args))
    report = {
        "command": "nerve",
        "status": result.status,
        "subsets_checked": result.subsets_checked,
        "nerve": formats.complex_to_obj(result.complex) if result.complex else None,
    }
    return report, result.status.status


def cmd_homology(args) -> tuple:
    from .connectivity import homology_run

    complex_ = formats.parse_complex(_load(args.input))
    degrees = range(0, complex_.dimension + 1) if args.degree is None else range(args.degree, args.degree + 1)
    groups = [summary.to_obj() for summary in homology_run(complex_, degrees, reduced=args.reduced)]
    return {"command": "homology", "reduced": args.reduced, "groups": groups}, HOLDS


def cmd_pi1(args) -> tuple:
    from .connectivity import is_connected, pi1_verdict

    complex_ = formats.parse_complex(_load(args.input))
    budgets = _budgets_from(args)
    connected = is_connected(complex_)
    verdict = pi1_verdict(complex_, budgets=budgets) if not connected.is_fails else connected
    return {"command": "pi1", "connected": connected, "trivial": verdict}, verdict.status


def cmd_check_map(args) -> tuple:
    from .maps import is_surjective, lipschitz_constant
    from .towers import regularity_report

    budgets = _budgets_from(args)
    parsed = formats.parse_map(_load(args.input))
    surjective = is_surjective(parsed)
    constant = lipschitz_constant(parsed, Fraction(1), Fraction(1))
    regularity = regularity_report(parsed, args.n, budgets)
    overall = conjoin([surjective, regularity["aggregate"]])
    report = {
        "command": "check-map",
        "n": args.n,
        "quasi_simplicial": Verdict.holds(),
        "surjective": surjective,
        "lipschitz_constant_at_unit_scales": constant,
        "regularity": regularity,
        "status": overall,
    }
    return report, overall.status


def cmd_verify_tower(args) -> tuple:
    from .towers import verify_tower

    budgets = _budgets_from(args)
    certificate = verify_tower(formats.parse_tower(_load(args.input)), args.n, budgets)
    return {"command": "verify-tower", **certificate.to_obj()}, certificate.conclusion.status


def cmd_restrict(args) -> tuple:
    from .towers import restrict_tower

    tower = formats.parse_tower(_load(args.input))
    raw = _load(args.complex)
    if not 1 <= args.level <= tower.depth():
        raise formats.InputFormatError("level out of range", "restrict.level")
    level = tower.levels[args.level - 1]
    raw = raw.get("maximal", []) if isinstance(raw, dict) else raw
    simplices = formats.parse_simplices(raw, "restrict.complex")
    try:
        sub = subcomplex_from(level, simplices)
    except ValueError as exc:
        raise formats.InputFormatError(str(exc), "restrict.complex")
    return formats.tower_to_obj(restrict_tower(tower, args.level, sub)), HOLDS


def cmd_mesh(args) -> tuple:
    from .stars import mesh

    cover = formats.parse_cover(_load(args.input))
    scale = formats.parse_fraction(args.scale) if args.scale else Fraction(1)
    result = mesh(cover, scale)
    report = {
        "command": "mesh",
        "mesh": result.value,
        "computed_on_closure": result.computed_on_closure,
        "scale": scale,
    }
    return report, HOLDS


def cmd_lift(args) -> tuple:
    from .towers import ThreadApprox, tower_lift

    budgets = _budgets_from(args)
    tower = formats.parse_tower(_load(args.input))
    spec = _load(args.spec)
    if not isinstance(spec, dict):
        raise formats.InputFormatError("a lift specification is an object", "lift")
    domain = formats.parse_complex(spec.get("domain"), "lift.domain")
    f1 = formats.parse_plmap(spec.get("f1"), domain=domain, target=tower.levels[0], context="lift.f1")
    defined = subcomplex_from(domain, formats.parse_simplices(spec.get("anchor", []), "lift.anchor"))
    raw_threads = spec.get("threads", {})
    if not isinstance(raw_threads, dict) or not all(isinstance(rows, list) for rows in raw_threads.values()):
        raise formats.InputFormatError("threads map vertex keys to lists of points", "lift.threads")
    threads = {}
    for key, rows in raw_threads.items():
        v = formats.parse_vertex_key(key, "lift.threads")
        if len(rows) > len(tower.levels):
            raise formats.InputFormatError(
                "a thread lists more points than the tower has levels", "lift.threads[%s]" % key
            )
        threads[v] = [
            formats.parse_point(row, tower.levels[i], "lift.threads[%s][%d]" % (key, i))
            for i, row in enumerate(rows)
        ]
    for v in defined.vertices:
        if v not in threads:
            raise formats.InputFormatError("no thread for anchored vertex %s" % vertex_label(v), "lift.threads")
    g0 = ThreadApprox(tower, threads)
    result = tower_lift(tower, f1, defined, g0, args.n, budgets)
    report = {
        "command": "lift",
        "status": result.status,
        "anchored_exactly": result.anchored_exactly,
        "stages": [
            {"stage": s["stage"], "closeness": s["closeness"], "lift": formats.plmap_to_obj(s["lift"])}
            for s in result.stages
        ],
        "cauchy": result.cauchy,
    }
    return report, result.status.status


def cmd_gen(args) -> tuple:
    from . import generators

    kind = args.kind
    if kind == "sphere":
        payload = formats.complex_to_obj(generators.sphere(args.dim if args.dim is not None else 2))
    elif kind == "circle":
        payload = formats.complex_to_obj(generators.circle())
    elif kind == "rp2":
        payload = formats.complex_to_obj(generators.projective_plane())
    elif kind == "simplex":
        payload = formats.complex_to_obj(generators.simplex(args.dim if args.dim is not None else 2))
    elif kind == "cylinder":
        payload = formats.map_to_obj(generators.cylinder_map())
    elif kind == "cylinder-tower":
        payload = formats.tower_to_obj(generators.cylinder_tower())
    elif kind == "subdivision-tower":
        base = _base_complex(args)
        payload = formats.tower_to_obj(
            generators.subdivision_tower(base, args.levels, _tower_scales(args))
        )
    else:  # random-tower: the parser admits no other kind
        payload = formats.tower_to_obj(
            generators.random_tower(args.seed, args.levels, _tower_scales(args))
        )
    return payload, HOLDS


def _base_complex(args):
    from . import generators

    base = args.base or "triangle"
    named = {
        "point": lambda: generators.simplex(0),
        "edge": lambda: generators.simplex(1),
        "triangle": lambda: generators.simplex(2),
        "tetrahedron": lambda: generators.simplex(3),
        "circle": generators.circle,
        "rp2": generators.projective_plane,
    }
    if base in named:
        return named[base]()
    if base.startswith("sphere:"):
        return generators.sphere(int(base.split(":", 1)[1]))
    return formats.parse_complex(_load(base), "gen.base")


def _tower_scales(args):
    if args.scale_base is None:
        return None
    ratio = formats.parse_fraction(args.scale_base, "scale-base")
    if ratio <= 0:
        raise formats.InputFormatError("the scale base must be positive", "scale-base")
    return [Fraction(1) / ratio ** (i + 1) for i in range(args.levels)]


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: it exits 3, not argparse's 2, which
    is the code of an inconclusive check.  Subcommand parsers share the
    class, and `--help` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _arg(*flags, **kwargs):
    return flags, kwargs


_INPUT = _arg("input")

# name -> (help, handler, whether --n is required, the budgets it reads, the
# command's own arguments); a budget b is set with --budget-b
_COMMANDS = {
    "validate": ("validate a complex file and report its shape", cmd_validate, False, (), [_INPUT]),
    "subdivide": ("barycentric subdivision of a complex file", cmd_subdivide, False, (), [_INPUT]),
    "stars": (
        "open and barycentric star of a vertex",
        cmd_stars,
        False,
        (),
        [_INPUT, _arg("--vertex", required=True)],
    ),
    "nerve": ("nerve of a cover file", cmd_nerve, False, ("nerve",), [_INPUT]),
    "homology": (
        "integral homology of a complex file",
        cmd_homology,
        False,
        (),
        [_INPUT, _arg("--degree", type=int), _arg("--reduced", action="store_true")],
    ),
    "pi1": ("fundamental group triviality verdict", cmd_pi1, False, ("pi1",), [_INPUT]),
    "check-map": ("quasi-simpliciality, surjectivity, regularity", cmd_check_map, True, ("pi1",), [_INPUT]),
    "verify-tower": ("full certificate for a tower file", cmd_verify_tower, True, ("pi1", "nerve"), [_INPUT]),
    "restrict": (
        "restrict a tower to a subcomplex of one level",
        cmd_restrict,
        False,
        (),
        [
            _INPUT,
            _arg("--level", type=int, required=True),
            _arg("--complex", required=True, help="file with the subcomplex's maximal simplices"),
        ],
    ),
    "mesh": ("mesh of a cover file", cmd_mesh, False, (), [_INPUT, _arg("--scale")]),
    "lift": (
        "stagewise lift of a PL map through a tower",
        cmd_lift,
        True,
        ("pi1", "filler", "nerve"),
        [_arg("input", help="tower file"), _arg("--spec", required=True, help="lift specification file")],
    ),
    "gen": (
        "deterministic example inputs",
        cmd_gen,
        False,
        (),
        [
            _arg(
                "kind",
                choices=(
                    "simplex",
                    "circle",
                    "sphere",
                    "rp2",
                    "cylinder",
                    "cylinder-tower",
                    "subdivision-tower",
                    "random-tower",
                ),
            ),
            _arg("--dim", type=int),
            _arg("--base"),
            _arg("--levels", type=int, default=3),
            _arg("--seed", type=int, default=0),
            _arg("--scale-base"),
        ],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    """The parser with the subparsers of the named commands only; its usage
    line lists every command whichever are built."""
    parser = _Parser(
        prog="polytower",
        description="exact checks and certificates for towers of finite polyhedra",
    )
    every = None if len(names) == len(_COMMANDS) else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        help_, handler, needs_n, budgets, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--output", "-o", default=None)
        for budget in budgets:
            p.add_argument("--budget-" + budget, type=int, default=None)
        if needs_n:
            p.add_argument("--n", type=int, required=True)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a process runs one command, so only its subparser is built
    parser = _parser(argv[:1]) if argv and argv[0] in _COMMANDS else build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.handler(args)
        _emit(report, args)
        return _STATUS_EXIT[status]
    except MemoryError:
        # the report below allocates; when that fails too the interpreter
        # exits 1, the refutation code
        os.write(2, _OUT_OF_MEMORY)
        os._exit(EXIT_INTERNAL)
    except (ValueError, KeyError) as exc:  # formats.InputFormatError is a ValueError
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:
        import traceback

        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
