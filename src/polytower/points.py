"""Points of finite complexes and the evaluation of quasi-simplicial maps
at them.

Points carry barycentric coordinates as `fractions.Fraction` values together
with a positive rational scale.  The metric is the ambient l1 metric of the
embedding that places each vertex at scale * e_v; nothing in this module is
ever computed in floating point.  Only the lift path and the point readers
use points, so the commands that never meet one do not load this module.
"""
from __future__ import annotations

from fractions import Fraction

from .complexes import Complex, ComplexMismatchError, UnknownVertexError, vertex_key, vertex_to_key
from .records import Record

ONE = Fraction(1)


class Point(Record, frozen=True):
    """A point of a complex: finitely supported rational barycentric
    coordinates summing to one, with the support spanning a simplex."""

    complex: Complex
    coords: tuple  # sorted tuple of (vertex, Fraction>0) pairs
    scale: Fraction

    @property
    def support(self) -> tuple:
        return tuple(v for v, _ in self.coords)

    def as_dict(self) -> dict:
        return dict(self.coords)

    def __repr__(self):
        parts = ", ".join("%s: %s" % (vertex_to_key(v), c) for v, c in self.coords)
        return "Point({%s} @ %s)" % (parts, self.scale)


def make_point(complex_: Complex, coords: dict, scale=ONE) -> Point:
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    cleaned = []
    total = Fraction(0)
    for v, c in coords.items():
        c = Fraction(c)
        if c < 0:
            raise ValueError("negative barycentric coordinate")
        if c == 0:
            continue
        if not complex_.has_vertex(v):
            raise UnknownVertexError(v)
        cleaned.append((v, c))
        total += c
    if total != 1:
        raise ValueError("barycentric coordinates must sum to 1, got %s" % total)
    cleaned.sort(key=lambda p: vertex_key(p[0]))
    support = tuple(v for v, _ in cleaned)
    if support not in complex_.simplices:
        raise ValueError("support does not span a simplex: %s" % vertex_to_key(support))
    return Point(complex_, tuple(cleaned), scale)


def barycenter_point(complex_: Complex, simplex, scale=ONE) -> Point:
    """Uniform coordinates on the vertices of a simplex of the complex."""
    if not complex_.has_simplex(simplex):
        raise UnknownVertexError(simplex, "not a simplex of the complex: %s")
    w = Fraction(1, len(simplex))
    return make_point(complex_, {v: w for v in simplex}, scale)


def convex_combination(points, weights) -> Point:
    """Affine combination of points of one complex; the combined support must
    span a simplex (it does whenever all points lie in one closed simplex)."""
    pts = list(points)
    ws = [Fraction(w) for w in weights]
    if len(pts) != len(ws) or not pts:
        raise ValueError("need matching, non-empty points and weights")
    if sum(ws) != 1 or any(w < 0 for w in ws):
        raise ValueError("weights must be non-negative and sum to 1")
    base = pts[0]
    acc: dict = {}
    for p, w in zip(pts, ws):
        if w == 0:
            continue
        if not (p.complex is base.complex or p.complex == base.complex) or p.scale != base.scale:
            raise ComplexMismatchError("combination across complexes or scales")
        for v, c in p.coords:
            acc[v] = acc.get(v, Fraction(0)) + w * c
    return make_point(base.complex, acc, base.scale)


def flatten_point(point: Point, parent: Complex) -> Point:
    """Express a point of a barycentric subdivision in parent coordinates:
    each subdivision vertex spreads its mass uniformly over the parent
    simplex it names."""
    acc: dict = {}
    for name, c in point.coords:
        if not isinstance(name, tuple):
            raise UnknownVertexError(name, "not a subdivision vertex: %s")
        share = c / len(name)
        for v in name:
            acc[v] = acc.get(v, Fraction(0)) + share
    return make_point(parent, acc, point.scale)


def lift_to_subdivision(point: Point, subdivided: Complex) -> Point:
    """Express a point of a complex in the coordinates of its barycentric
    subdivision.  The support chain is the descending level-set filtration of
    the coordinate values."""
    pairs = sorted(point.coords, key=lambda p: (-p[1], vertex_key(p[0])))
    levels = []
    for v, c in pairs:
        if levels and levels[-1][0] == c:
            levels[-1][1].append(v)
        else:
            levels.append([c, [v]])
    acc: dict = {}
    cumulative: list = []
    for idx, (value, group) in enumerate(levels):
        cumulative.extend(group)
        name = tuple(sorted(cumulative, key=vertex_key))
        next_value = levels[idx + 1][0] if idx + 1 < len(levels) else Fraction(0)
        weight = len(cumulative) * (value - next_value)
        if weight:
            acc[name] = weight
    return make_point(subdivided, acc, point.scale)


# ---------------------------------------------------------------------------
# evaluation of quasi-simplicial maps


def apply_subdivision(p, x: Point) -> Point:
    """Push a point forward into subdivision coordinates of the target."""
    acc: dict = {}
    mapping = p.lookup
    for v, c in x.coords:
        w = mapping[v]
        acc[w] = acc.get(w, Fraction(0)) + c
    return make_point(p.target, acc, x.scale)


def apply(p, x: Point, scale=None) -> Point:
    """Evaluate the affine extension of a quasi-simplicial map p, expressed
    in base target coordinates."""
    pushed = apply_subdivision(p, x)
    flat = flatten_point(pushed, p.base_target)
    if scale is not None and Fraction(scale) != flat.scale:
        flat = make_point(p.base_target, flat.as_dict(), Fraction(scale))
    return flat
