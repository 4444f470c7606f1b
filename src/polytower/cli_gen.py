"""Handler of the `gen` command: deterministic example inputs.  It reads
no document unless a tower's base is a file, so a `gen` process loads
neither the readers nor any certificate layer.
"""
from __future__ import annotations

from fractions import Fraction

from . import formats, generators
from .verdicts import HOLDS


def cmd_gen(args) -> tuple:
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
    from . import readers

    return readers.parse_complex(readers.load_json(base), "gen.base")


def _tower_scales(args):
    if args.scale_base is None:
        return None
    from .readers import parse_fraction

    ratio = parse_fraction(args.scale_base, "scale-base")
    if ratio <= 0:
        raise formats.InputFormatError("the scale base must be positive", "scale-base")
    return [Fraction(1) / ratio ** (i + 1) for i in range(args.levels)]
