"""Command-line front end.

Exit codes: 0 the check holds (or the command produced its output), 1 a
check was refuted, 2 a check was inconclusive, 3 malformed input.  Budgets
come from flags, the POLYTOWER_BUDGETS environment variable
("pi1=N,filler=N,nerve=N"), or the defaults, in that order of precedence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import formats, generators
from .complexes import barycentric_subdivision, subcomplex_from
from .connectivity import homology, is_connected, pi1_verdict
from .maps import QSMap, is_surjective, lipschitz_constant
from .stars import barycentric_vertex_star, mesh, nerve, open_vertex_star
from .towers import (
    ThreadApprox,
    regularity_report,
    restrict_tower,
    tower_lift,
    verify_tower,
)
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

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
# commands


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
    budgets = _budgets_from(args)
    parsed = formats.parse_map(_load(args.input))
    if not isinstance(parsed, QSMap):
        raise formats.InputFormatError("check-map expects a quasi-simplicial map (subdivide_target true)")
    surjective = is_surjective(parsed)
    constant = lipschitz_constant(parsed, Fraction(1), Fraction(1))
    report_data = regularity_report(parsed, args.n, budgets)
    overall = conjoin([surjective, report_data.aggregate])
    report = {
        "command": "check-map",
        "n": args.n,
        "quasi_simplicial": formats.verdict_to_obj(Verdict.holds()),
        "surjective": formats.verdict_to_obj(surjective),
        "lipschitz_constant_at_unit_scales": formats.fraction_to_str(constant),
        "regularity": report_data.to_obj(),
        "status": formats.verdict_to_obj(overall),
    }
    _emit(report, args)
    return _exit_for(overall.status)


def cmd_verify_tower(args) -> int:
    budgets = _budgets_from(args)
    tower = formats.parse_tower(_load(args.input))
    certificate = verify_tower(tower, args.n, budgets)
    report = {"command": "verify-tower"}
    report.update(certificate.to_obj())
    _emit(report, args)
    return _exit_for(certificate.conclusion.status)


def cmd_restrict(args) -> int:
    tower = formats.parse_tower(_load(args.input))
    raw = _load(args.complex)
    level = tower.levels[args.level - 1]
    try:
        sub = subcomplex_from(level, [
            [formats.parse_vertex(v) for v in s] for s in raw
        ] if isinstance(raw, list) else [
            [formats.parse_vertex(v) for v in s] for s in raw.get("maximal", [])
        ])
    except ValueError as exc:
        raise formats.InputFormatError(str(exc), "restrict.complex")
    restricted = restrict_tower(tower, args.level, sub)
    _emit(formats.tower_to_obj(restricted), args)
    return EXIT_HOLDS


def cmd_mesh(args) -> int:
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
    anchor_raw = spec.get("anchor", [])
    defined = subcomplex_from(domain, [[formats.parse_vertex(v) for v in s] for s in anchor_raw])
    threads = {}
    for key, rows in spec.get("threads", {}).items():
        v = formats.parse_vertex_key(key, "lift.threads")
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
    return [Fraction(1) / ratio ** (i + 1) for i in range(args.levels)]


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytower",
        description="exact checks and certificates for towers of finite polyhedra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        p.add_argument("--format", choices=("json", "human"), default="json")
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--budget-pi1", type=int, default=None)
        p.add_argument("--budget-filler", type=int, default=None)
        p.add_argument("--budget-nerve", type=int, default=None)
        if needs_n:
            p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("validate", help="validate a complex file and report its shape")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("subdivide", help="barycentric subdivision of a complex file")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler=cmd_subdivide)

    p = sub.add_parser("stars", help="open and barycentric star of a vertex")
    p.add_argument("input")
    p.add_argument("--vertex", required=True)
    common(p)
    p.set_defaults(handler=cmd_stars)

    p = sub.add_parser("nerve", help="nerve of a cover file")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler=cmd_nerve)

    p = sub.add_parser("homology", help="integral homology of a complex file")
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--reduced", action="store_true")
    common(p)
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("pi1", help="fundamental group triviality verdict")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler=cmd_pi1)

    p = sub.add_parser("check-map", help="quasi-simpliciality, surjectivity, regularity")
    p.add_argument("input")
    common(p, needs_n=True)
    p.set_defaults(handler=cmd_check_map)

    p = sub.add_parser("verify-tower", help="full certificate for a tower file")
    p.add_argument("input")
    common(p, needs_n=True)
    p.set_defaults(handler=cmd_verify_tower)

    p = sub.add_parser("restrict", help="restrict a tower to a subcomplex of one level")
    p.add_argument("input")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--complex", required=True, help="file with the subcomplex's maximal simplices")
    common(p)
    p.set_defaults(handler=cmd_restrict)

    p = sub.add_parser("mesh", help="mesh of a cover file")
    p.add_argument("input")
    p.add_argument("--scale", default=None)
    common(p)
    p.set_defaults(handler=cmd_mesh)

    p = sub.add_parser("lift", help="stagewise lift of a PL map through a tower")
    p.add_argument("input", help="tower file")
    p.add_argument("--spec", required=True, help="lift specification file")
    common(p, needs_n=True)
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("gen", help="deterministic example inputs")
    p.add_argument(
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
    )
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--base", default=None)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale-base", default=None)
    common(p)
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except formats.InputFormatError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT
    except (ValueError, KeyError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
