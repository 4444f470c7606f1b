"""Handlers of the commands that read one complex or cover: `validate`,
`subdivide`, `stars`, `nerve`, `homology`, `pi1` and `mesh`.

Each imports the layers it runs, so a process compiles only those, and
returns its report and status, which `cli.main` emits and exits on.
"""
from __future__ import annotations

from fractions import Fraction

from . import formats, readers
from .complexes import barycentric_subdivision
from .verdicts import HOLDS


def cmd_validate(args) -> tuple:
    complex_ = readers.parse_complex(readers.load_json(args.input))
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
    complex_ = readers.parse_complex(readers.load_json(args.input))
    return formats.complex_to_obj(barycentric_subdivision(complex_)), HOLDS


def cmd_stars(args) -> tuple:
    from .stars import barycentric_vertex_star, open_vertex_star

    complex_ = readers.parse_complex(readers.load_json(args.input))
    vertex = readers.parse_vertex_key(args.vertex)
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

    cover = readers.parse_cover(readers.load_json(args.input))
    result = nerve(cover, args.budgets)
    report = {
        "command": "nerve",
        "status": result.status,
        "subsets_checked": result.subsets_checked,
        "nerve": formats.complex_to_obj(result.complex) if result.complex else None,
    }
    return report, result.status.status


def cmd_homology(args) -> tuple:
    from .connectivity import homology_run

    complex_ = readers.parse_complex(readers.load_json(args.input))
    degrees = range(0, complex_.dimension + 1) if args.degree is None else range(args.degree, args.degree + 1)
    groups = [summary.to_obj() for summary in homology_run(complex_, degrees, reduced=args.reduced)]
    return {"command": "homology", "reduced": args.reduced, "groups": groups}, HOLDS


def cmd_pi1(args) -> tuple:
    from .connectivity import is_connected
    from .pi1 import pi1_verdict

    complex_ = readers.parse_complex(readers.load_json(args.input))
    connected = is_connected(complex_)
    verdict = pi1_verdict(complex_, budgets=args.budgets) if not connected.is_fails else connected
    return {"command": "pi1", "connected": connected, "trivial": verdict}, verdict.status


def cmd_mesh(args) -> tuple:
    from .stars import mesh

    cover = readers.parse_cover(readers.load_json(args.input))
    scale = readers.parse_fraction(args.scale) if args.scale else Fraction(1)
    result = mesh(cover, scale)
    report = {
        "command": "mesh",
        "mesh": result.value,
        "computed_on_closure": result.computed_on_closure,
        "scale": scale,
    }
    return report, HOLDS
