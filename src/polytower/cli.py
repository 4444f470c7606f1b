"""Command-line front end.

Exit codes: 0 the check holds (or the command produced its output), 1 a
check was refuted, 2 a check was inconclusive, 3 malformed input or a
command-line usage error, 4 an internal error (a fault of the program, never
a verdict).  Budgets come from flags, the POLYTOWER_BUDGETS environment
variable ("pi1=N,filler=N,nerve=N"), or the defaults, in that order of
precedence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formats
from .complexes import barycentric_subdivision, subcomplex_from
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_STATUS_EXIT = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}


def _budgets_from(args) -> Budgets:
    budgets = DEFAULT_BUDGETS
    env = os.environ.get("POLYTOWER_BUDGETS")
    if env:
        overrides = {}
        for part in env.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise formats.InputFormatError("POLYTOWER_BUDGETS entries look like name=N")
            name, value = part.split("=", 1)
            key = {"pi1": "pi1_steps", "filler": "filler_steps", "nerve": "nerve_subsets"}.get(
                name.strip()
            )
            if key is None:
                raise formats.InputFormatError("unknown budget %r in POLYTOWER_BUDGETS" % name)
            overrides[key] = int(value)
        budgets = budgets.with_overrides(**overrides)
    return budgets.with_overrides(
        pi1_steps=getattr(args, "budget_pi1", None),
        filler_steps=getattr(args, "budget_filler", None),
        nerve_subsets=getattr(args, "budget_nerve", None),
    )


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
    if getattr(args, "format", "json") == "human":
        text = formats.render_human(json.loads(text)) + "\n"
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _exit_for(status: str) -> int:
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# commands: each imports the layers it runs, so a process compiles only those


def cmd_validate(args) -> int:
    complex_ = formats.parse_complex(_load(args.input))
    report = {
        "command": "validate",
        "dimension": complex_.dimension,
        "f_vector": list(complex_.f_vector()),
        "simplices": len(complex_.simplices),
        "vertices": len(complex_.vertices),
        "euler_characteristic": complex_.euler_characteristic(),
    }
    _emit(report, args)
    return EXIT_HOLDS


def cmd_subdivide(args) -> int:
    complex_ = formats.parse_complex(_load(args.input))
    result = barycentric_subdivision(complex_)
    _emit(formats.complex_to_obj(result), args)
    return EXIT_HOLDS


def cmd_stars(args) -> int:
    from .stars import barycentric_vertex_star, open_vertex_star

    complex_ = formats.parse_complex(_load(args.input))
    vertex = formats.parse_vertex_key(args.vertex)
    ost = open_vertex_star(complex_, vertex)
    bst = barycentric_vertex_star(complex_, vertex)
    report = {
        "command": "stars",
        "vertex": formats.vertex_to_obj(vertex),
        "open_star": {
            "core": formats.subcomplex_to_obj(ost.core),
            "avoided": formats.subcomplex_to_obj(ost.avoided),
        },
        "barycentric_star": {
            "simplices": formats.subcomplex_to_obj(bst),
            "is_cone_with_apex": formats.vertex_to_obj((vertex,)),
        },
    }
    _emit(report, args)
    return EXIT_HOLDS


def cmd_nerve(args) -> int:
    from .stars import nerve

    cover = formats.parse_cover(_load(args.input))
    budgets = _budgets_from(args)
    result = nerve(cover, budgets)
    report = {
        "command": "nerve",
        "status": formats.verdict_to_obj(result.status),
        "subsets_checked": result.subsets_checked,
        "nerve": formats.complex_to_obj(result.complex) if result.complex else None,
    }
    _emit(report, args)
    return _exit_for(result.status.status)


def cmd_homology(args) -> int:
    from .connectivity import homology

    complex_ = formats.parse_complex(_load(args.input))
    top = complex_.dimension if args.degree is None else args.degree
    degrees = range(0, top + 1) if args.degree is None else [args.degree]
    entries = []
    for k in degrees:
        summary = homology(complex_, k, reduced=args.reduced)
        entries.append(summary.to_obj())
    report = {"command": "homology", "reduced": args.reduced, "groups": entries}
    _emit(report, args)
    return EXIT_HOLDS


def cmd_pi1(args) -> int:
    from .connectivity import is_connected, pi1_verdict

    complex_ = formats.parse_complex(_load(args.input))
    budgets = _budgets_from(args)
    connected = is_connected(complex_)
    verdict = pi1_verdict(complex_, budgets=budgets) if not connected.is_fails else connected
    report = {
        "command": "pi1",
        "connected": formats.verdict_to_obj(connected),
        "trivial": formats.verdict_to_obj(verdict),
    }
    _emit(report, args)
    return _exit_for(verdict.status)


def cmd_check_map(args) -> int:
    from .maps import QSMap, is_surjective, lipschitz_constant
    from .towers import regularity_report

    budgets = _budgets_from(args)
    parsed = formats.parse_map(_load(args.input))
    if not isinstance(parsed, QSMap):
        raise formats.InputFormatError("check-map expects a quasi-simplicial map (subdivide_target true)")
    surjective = is_surjective(parsed)
    constant = lipschitz_constant(parsed, Fraction(1), Fraction(1))
    regularity = regularity_report(parsed, args.n, budgets)
    overall = conjoin([surjective, regularity["aggregate"]])
    report = {
        "command": "check-map",
        "n": args.n,
        "quasi_simplicial": formats.verdict_to_obj(Verdict.holds()),
        "surjective": formats.verdict_to_obj(surjective),
        "lipschitz_constant_at_unit_scales": formats.fraction_to_str(constant),
        "regularity": regularity,
        "status": formats.verdict_to_obj(overall),
    }
    _emit(report, args)
    return _exit_for(overall.status)


def cmd_verify_tower(args) -> int:
    from .towers import verify_tower

    budgets = _budgets_from(args)
    tower = formats.parse_tower(_load(args.input))
    certificate = verify_tower(tower, args.n, budgets)
    report = {"command": "verify-tower"}
    report.update(certificate.to_obj())
    _emit(report, args)
    return _exit_for(certificate.conclusion.status)


def cmd_restrict(args) -> int:
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
    restricted = restrict_tower(tower, args.level, sub)
    _emit(formats.tower_to_obj(restricted), args)
    return EXIT_HOLDS


def cmd_mesh(args) -> int:
    from .stars import mesh

    cover = formats.parse_cover(_load(args.input))
    scale = formats.parse_fraction(args.scale) if args.scale else Fraction(1)
    result = mesh(cover, scale)
    report = {
        "command": "mesh",
        "mesh": formats.fraction_to_str(result.value),
        "computed_on_closure": result.computed_on_closure,
        "scale": formats.fraction_to_str(scale),
    }
    _emit(report, args)
    return EXIT_HOLDS


def cmd_lift(args) -> int:
    from .towers import ThreadApprox, tower_lift

    budgets = _budgets_from(args)
    tower = formats.parse_tower(_load(args.input))
    spec = _load(args.spec)
    if not isinstance(spec, dict):
        raise formats.InputFormatError("a lift specification is an object", "lift")
    domain = formats.parse_complex(spec.get("domain"), "lift.domain")
    f1 = formats.parse_plmap(
        {"vertex_points": spec.get("map", {}), "defined_on": [[formats.vertex_to_obj(v) for v in s] for s in domain.maximal]}
        if "map" in spec
        else spec.get("f1"),
        domain=domain,
        target=tower.levels[0],
        context="lift.f1",
    )
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
    g0 = ThreadApprox(tower, threads)
    result = tower_lift(tower, f1, defined, g0, args.n, budgets)
    report = {
        "command": "lift",
        "status": formats.verdict_to_obj(result.status),
        "anchored_exactly": result.anchored_exactly,
        "stages": [
            {
                "stage": s["stage"],
                "closeness": formats.verdict_to_obj(s["closeness"]),
                "lift": formats.plmap_to_obj(s["lift"], include_complexes=False),
            }
            for s in result.stages
        ],
        "cauchy": result.cauchy,
    }
    _emit(report, args)
    return _exit_for(result.status.status)


def cmd_gen(args) -> int:
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
    elif kind == "random-tower":
        payload = formats.tower_to_obj(
            generators.random_tower(args.seed, args.levels, _tower_scales(args))
        )
    else:
        raise formats.InputFormatError("unknown generator kind %r" % kind)
    _emit(payload, args)
    return EXIT_HOLDS


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

# name -> (help, handler, whether --n is required, the command's own arguments)
_COMMANDS = {
    "validate": ("validate a complex file and report its shape", cmd_validate, False, [_INPUT]),
    "subdivide": ("barycentric subdivision of a complex file", cmd_subdivide, False, [_INPUT]),
    "stars": ("open and barycentric star of a vertex", cmd_stars, False, [_INPUT, _arg("--vertex", required=True)]),
    "nerve": ("nerve of a cover file", cmd_nerve, False, [_INPUT]),
    "homology": (
        "integral homology of a complex file",
        cmd_homology,
        False,
        [_INPUT, _arg("--degree", type=int), _arg("--reduced", action="store_true")],
    ),
    "pi1": ("fundamental group triviality verdict", cmd_pi1, False, [_INPUT]),
    "check-map": ("quasi-simpliciality, surjectivity, regularity", cmd_check_map, True, [_INPUT]),
    "verify-tower": ("full certificate for a tower file", cmd_verify_tower, True, [_INPUT]),
    "restrict": (
        "restrict a tower to a subcomplex of one level",
        cmd_restrict,
        False,
        [
            _INPUT,
            _arg("--level", type=int, required=True),
            _arg("--complex", required=True, help="file with the subcomplex's maximal simplices"),
        ],
    ),
    "mesh": ("mesh of a cover file", cmd_mesh, False, [_INPUT, _arg("--scale")]),
    "lift": (
        "stagewise lift of a PL map through a tower",
        cmd_lift,
        True,
        [_arg("input", help="tower file"), _arg("--spec", required=True, help="lift specification file")],
    ),
    "gen": (
        "deterministic example inputs",
        cmd_gen,
        False,
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
        help_, handler, needs_n, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--budget-pi1", type=int, default=None)
        p.add_argument("--budget-filler", type=int, default=None)
        p.add_argument("--budget-nerve", type=int, default=None)
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
        return args.handler(args)
    except formats.InputFormatError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except (ValueError, KeyError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except Exception as exc:
        import traceback

        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
