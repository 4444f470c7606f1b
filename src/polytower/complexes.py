"""Finite abstract simplicial complexes with exact rational geometry.

Vertex names are either atoms (strings) or tuples of names.  Tuple names are
produced by barycentric subdivision, where the vertex standing for a simplex
of the parent complex is named by the sorted tuple of that simplex's own
vertex names; iterating the subdivision nests the tuples one level deeper.
Atoms order before tuples and tuples compare componentwise, which gives a
total order on every name that can ever appear in one complex.

Points carry barycentric coordinates as `fractions.Fraction` values together
with a positive rational scale.  The metric is the ambient l1 metric of the
embedding that places each vertex at scale * e_v; nothing in this module is
ever computed in floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Mapping


class DuplicateVertexError(ValueError):
    """A simplex listed the same vertex twice."""


class EmptySimplexError(ValueError):
    """A simplex with no vertices was supplied."""


class UnknownVertexError(ValueError):
    """A vertex name does not belong to the complex at hand."""


class ScaleMismatchError(ValueError):
    """Two points with different scales were combined."""


class ComplexMismatchError(ValueError):
    """Two points living on different complexes were combined."""


# ---------------------------------------------------------------------------
# vertex names


def canon_vertex(name):
    """Normalise a raw vertex name: atoms stay, sequences become sorted tuples."""
    if isinstance(name, str):
        return name
    if isinstance(name, (list, tuple)):
        parts = tuple(canon_vertex(p) for p in name)
        if not parts:
            raise EmptySimplexError("empty tuple is not a vertex name")
        out = tuple(sorted(parts, key=vertex_key))
        for a, b in zip(out, out[1:]):
            if a == b:
                raise DuplicateVertexError("duplicate part in vertex name %r" % (name,))
        return out
    raise TypeError("vertex names are strings or nested tuples, got %r" % (name,))


def vertex_key(name):
    """Total order key: atoms first (by string), then tuples componentwise."""
    if isinstance(name, str):
        return (0, name)
    return (1, tuple(vertex_key(p) for p in name))


def vertex_label(name) -> str:
    """Compact ASCII rendering of a possibly nested name."""
    if isinstance(name, str):
        return name
    return "(" + " ".join(vertex_label(p) for p in name) + ")"


def canon_simplex(vertices) -> tuple:
    """Sorted tuple of canonical names; rejects empty and duplicated input."""
    names = [canon_vertex(v) for v in vertices]
    if not names:
        raise EmptySimplexError("a simplex needs at least one vertex")
    names.sort(key=vertex_key)
    for a, b in zip(names, names[1:]):
        if a == b:
            raise DuplicateVertexError("duplicate vertex %s in simplex" % vertex_label(a))
    return tuple(names)


def simplex_sort_key(simplex):
    return (len(simplex), tuple(vertex_key(v) for v in simplex))


def faces(simplex):
    """Every non-empty subset of a simplex, the simplex itself included."""
    for k in range(1, len(simplex) + 1):
        for f in combinations(simplex, k):
            yield f


# ---------------------------------------------------------------------------
# complexes


class Complex:
    """A finite abstract simplicial complex, closed under taking faces.

    Instances are immutable and hashable; two complexes are equal when they
    have the same vertices and the same simplex set.
    """

    __slots__ = ("vertices", "simplices", "maximal", "_vertex_set", "_hash", "_by_dim")

    def __init__(self, simplices: frozenset, vertices: tuple, maximal: tuple):
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "maximal", maximal)
        object.__setattr__(self, "_vertex_set", frozenset(vertices))
        object.__setattr__(self, "_hash", hash((vertices, simplices)))
        by_dim = {}
        for s in simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        for group in by_dim.values():
            group.sort(key=simplex_sort_key)
        object.__setattr__(self, "_by_dim", by_dim)

    def __setattr__(self, *_):
        raise AttributeError("Complex is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Complex):
            return NotImplemented
        return self.vertices == other.vertices and self.simplices == other.simplices

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Complex(f_vector=%r)" % (self.f_vector(),)

    @staticmethod
    def from_maximal(maximal: Iterable, extra_vertices: Iterable = ()) -> "Complex":
        """Validate raw simplex input and compute its downward closure."""
        closure = set()
        for raw in maximal:
            simplex = canon_simplex(raw)
            closure.update(faces(simplex))
        for v in extra_vertices:
            closure.add((canon_vertex(v),))
        return Complex._from_closed(closure)

    @staticmethod
    def _from_closed(closure: set) -> "Complex":
        vertices = tuple(sorted({v for s in closure for v in s}, key=vertex_key))
        grouped = sorted(closure, key=simplex_sort_key, reverse=True)
        maximal = []
        seen = set()
        for s in grouped:
            sset = set(s)
            if any(sset < set(m) for m in maximal):
                continue
            if s not in seen:
                maximal.append(s)
                seen.add(s)
        maximal.sort(key=simplex_sort_key)
        return Complex(frozenset(closure), vertices, tuple(maximal))

    @property
    def dimension(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def f_vector(self) -> tuple:
        counts = []
        for k in range(self.dimension + 1):
            counts.append(len(self._by_dim.get(k, ())))
        return tuple(counts)

    def simplices_of_dim(self, k: int) -> list:
        return list(self._by_dim.get(k, ()))

    def sorted_simplices(self) -> list:
        out = []
        for k in range(self.dimension + 1):
            out.extend(self._by_dim.get(k, ()))
        return out

    def has_vertex(self, name) -> bool:
        return name in self._vertex_set

    def vertex_set(self) -> frozenset:
        return self._vertex_set

    def edges(self) -> list:
        return self.simplices_of_dim(1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def span(self, names) -> tuple | None:
        """The simplex spanned by the given vertices, or None."""
        s = tuple(sorted({canon_vertex(v) for v in names}, key=vertex_key))
        return s if s in self.simplices else None

    def closed_star(self, vertex) -> frozenset:
        """Simplices of every closed simplex containing the vertex."""
        v = canon_vertex(vertex)
        if v not in self._vertex_set:
            raise UnknownVertexError(vertex_label(v))
        out = set()
        for s in self.simplices:
            joined = tuple(sorted(set(s) | {v}, key=vertex_key))
            if joined in self.simplices:
                out.add(s)
        return frozenset(out)


def validate(raw_simplices: Iterable, extra_vertices: Iterable = ()) -> Complex:
    """Build a complex from a raw list of simplices (face closure applied)."""
    return Complex.from_maximal(raw_simplices, extra_vertices)


@lru_cache(maxsize=None)
def barycentric_subdivision(complex_: Complex) -> Complex:
    """The complex whose vertices are the simplices of the input and whose
    simplices are the strictly nested chains of the face poset.

    Maximal chains are emitted as vertex-orderings of maximal simplices, one
    flag per permutation; the geometric realisation is unchanged.
    """
    flags = []
    for top in complex_.maximal:
        for order in permutations(top):
            chain = []
            prefix = []
            for v in order:
                prefix.append(v)
                chain.append(tuple(sorted(prefix, key=vertex_key)))
            flags.append(tuple(sorted(chain, key=vertex_key)))
    return Complex.from_maximal(flags)


def chain_min(name_tuple) -> tuple:
    return min(name_tuple, key=len)


def chain_max(name_tuple) -> tuple:
    return max(name_tuple, key=len)


# ---------------------------------------------------------------------------
# subcomplexes


@dataclass(frozen=True)
class Subcomplex:
    """A face-closed set of simplices of a parent complex."""

    parent: Complex
    simplices: frozenset

    def __post_init__(self):
        for s in self.simplices:
            if s not in self.parent.simplices:
                raise UnknownVertexError(
                    "simplex %s is not in the parent complex" % (tuple(map(vertex_label, s)),)
                )
            for f in faces(s):
                if f not in self.simplices:
                    raise ValueError("subcomplex is not face-closed at %r" % (s,))

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for s in self.simplices for v in s}, key=vertex_key))

    def vertex_set(self) -> frozenset:
        return frozenset(v for s in self.simplices for v in s)

    def is_empty(self) -> bool:
        return not self.simplices

    def as_complex(self) -> Complex:
        return Complex._from_closed(set(self.simplices))

    def contains_point(self, point: "Point") -> bool:
        return point.support in self.simplices

    def intersection(self, other: "Subcomplex") -> "Subcomplex":
        if self.parent != other.parent:
            raise ComplexMismatchError("subcomplexes of different parents")
        return Subcomplex(self.parent, self.simplices & other.simplices)

    def sorted_simplices(self) -> list:
        return sorted(self.simplices, key=simplex_sort_key)


def subcomplex_from(parent: Complex, simplices: Iterable) -> Subcomplex:
    closed = set()
    for raw in simplices:
        s = canon_simplex(raw)
        closed.update(faces(s))
    return Subcomplex(parent, frozenset(closed))


def whole_subcomplex(parent: Complex) -> Subcomplex:
    return Subcomplex(parent, parent.simplices)


def induced_subcomplex(complex_: Complex, vertex_subset: Iterable) -> Subcomplex:
    """All simplices of the complex with every vertex in the given set."""
    w = set()
    for v in vertex_subset:
        cv = canon_vertex(v)
        if not complex_.has_vertex(cv):
            raise UnknownVertexError(vertex_label(cv))
        w.add(cv)
    kept = frozenset(s for s in complex_.simplices if set(s) <= w)
    return Subcomplex(complex_, kept)


def is_full_subcomplex(sub: Subcomplex, ambient: Complex | None = None) -> bool:
    """Whether every ambient simplex spanned by the subcomplex's vertices is
    already in the subcomplex."""
    parent = ambient if ambient is not None else sub.parent
    if ambient is not None and ambient != sub.parent:
        raise ComplexMismatchError("subcomplex does not live in the given complex")
    vs = sub.vertex_set()
    for s in parent.simplices:
        if set(s) <= vs and s not in sub.simplices:
            return False
    return True


def beta_subcomplex(sub: Subcomplex, subdivided_parent: Complex | None = None) -> Subcomplex:
    """The barycentric subdivision of a subcomplex, inside the subdivision of
    its parent: the induced subcomplex on the names of the sub's simplices."""
    beta_parent = subdivided_parent or barycentric_subdivision(sub.parent)
    names = {s for s in sub.simplices}
    kept = frozenset(c for c in beta_parent.simplices if all(e in names for e in c))
    return Subcomplex(beta_parent, kept)


# ---------------------------------------------------------------------------
# points and the scaled l1 metric


ONE = Fraction(1)


@dataclass(frozen=True)
class Point:
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
        parts = ", ".join("%s: %s" % (vertex_label(v), c) for v, c in self.coords)
        return "Point({%s} @ %s)" % (parts, self.scale)


def make_point(complex_: Complex, coords: Mapping, scale=ONE, validate_support: bool = True) -> Point:
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
        cv = canon_vertex(v)
        if not complex_.has_vertex(cv):
            raise UnknownVertexError(vertex_label(cv))
        cleaned.append((cv, c))
        total += c
    if total != 1:
        raise ValueError("barycentric coordinates must sum to 1, got %s" % total)
    cleaned.sort(key=lambda p: vertex_key(p[0]))
    support = tuple(v for v, _ in cleaned)
    if validate_support and support not in complex_.simplices:
        raise ValueError("support does not span a simplex: %r" % (support,))
    return Point(complex_, tuple(cleaned), scale)


def vertex_point(complex_: Complex, vertex, scale=ONE) -> Point:
    return make_point(complex_, {vertex: ONE}, scale)


def barycenter_point(complex_: Complex, simplex, scale=ONE) -> Point:
    """Uniform coordinates on the vertices of a simplex of the complex."""
    s = canon_simplex(simplex)
    if s not in complex_.simplices:
        raise UnknownVertexError("not a simplex of the complex: %r" % (s,))
    w = Fraction(1, len(s))
    return make_point(complex_, {v: w for v in s}, scale)


def distance(x: Point, y: Point) -> Fraction:
    """Scaled l1 distance of barycentric coordinate vectors."""
    if not (x.complex is y.complex or x.complex == y.complex):
        raise ComplexMismatchError("points on different complexes")
    if x.scale != y.scale:
        raise ScaleMismatchError("points at different scales: %s vs %s" % (x.scale, y.scale))
    xd, yd = x.as_dict(), y.as_dict()
    total = Fraction(0)
    for v in set(xd) | set(yd):
        total += abs(xd.get(v, Fraction(0)) - yd.get(v, Fraction(0)))
    return x.scale * total


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
            raise UnknownVertexError("not a subdivision vertex: %r" % (name,))
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
