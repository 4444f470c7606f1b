"""Handlers of the commands that check a tower or one of its bonds:
`verify-tower`, `check-map` and `restrict`.

Each returns its report and status, which `cli.main` emits and exits on.
"""
from __future__ import annotations

from fractions import Fraction

from . import formats, readers, towers
from .complexes import subcomplex_from
from .maps import is_surjective, lipschitz_constant
from .verdicts import HOLDS, Verdict, conjoin


def cmd_verify_tower(args) -> tuple:
    certificate = towers.verify_tower(readers.parse_tower(readers.load_json(args.input)), args.n, args.budgets)
    return {"command": "verify-tower", **certificate.to_obj()}, certificate.conclusion.status


def cmd_check_map(args) -> tuple:
    parsed = readers.parse_map(readers.load_json(args.input))
    surjective = is_surjective(parsed)
    constant = lipschitz_constant(parsed, Fraction(1), Fraction(1))
    regularity = towers.regularity_report(parsed, args.n, args.budgets)
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


def cmd_restrict(args) -> tuple:
    tower = readers.parse_tower(readers.load_json(args.input))
    raw = readers.load_json(args.complex)
    if not 1 <= args.level <= tower.depth():
        raise formats.InputFormatError("level out of range", "restrict.level")
    level = tower.levels[args.level - 1]
    raw = raw.get("maximal", []) if isinstance(raw, dict) else raw
    simplices = readers.parse_simplices(raw, "restrict.complex")
    try:
        sub = subcomplex_from(level, simplices)
    except ValueError as exc:
        raise formats.InputFormatError(str(exc), "restrict.complex")
    return formats.tower_to_obj(towers.restrict_tower(tower, args.level, sub)), HOLDS
