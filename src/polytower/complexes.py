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

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Mapping

from .records import Record


class DuplicateVertexError(ValueError):
    """A simplex listed the same vertex twice."""


class EmptySimplexError(ValueError):
    """A simplex with no vertices was supplied."""


class UnknownVertexError(ValueError):
    """A vertex name does not belong to the complex at hand."""


class ComplexMismatchError(ValueError):
    """Two points living on different complexes were combined."""


# ---------------------------------------------------------------------------
# vertex names


def canon_vertex(name):
    """Normalise a raw vertex name: atoms stay, sequences become sorted tuples."""
    if isinstance(name, str):
        return check_atom(name)
    if isinstance(name, (list, tuple)):
        return join_parts(tuple(canon_vertex(p) for p in name), name)
    raise TypeError("vertex names are strings or nested tuples, got %r" % (name,))


def check_atom(name: str) -> str:
    """An atom as it stands.  One that begins with '[' is refused: an object
    key spells a nested name as its compact JSON, so the key of such an atom
    would read back as a nested name."""
    if name.startswith("["):
        raise ValueError("vertex name %r begins with '[', as only the key of a nested name does" % name)
    return name


def join_parts(parts: tuple, name) -> tuple:
    """The vertex name made of already canonical parts: sorted, rejecting no
    parts and repeated parts (`name` is the raw name the errors quote)."""
    if not parts:
        raise EmptySimplexError("empty tuple is not a vertex name")
    out = tuple(sorted(parts, key=vertex_key))
    for a, b in zip(out, out[1:]):
        if a == b:
            raise DuplicateVertexError("duplicate part in vertex name %r" % (name,))
    return out


@lru_cache(maxsize=1 << 16)
def vertex_key(name):
    """Total order key: atoms first (by string), then tuples componentwise.

    Memoised with a fixed bound: names are hashable and the name sorts of
    the package (a complex's vertices among them) key on them, while a
    complex holds far fewer distinct names than sort comparisons; an
    evicted key is only recomputed.  Other orders of a complex compare the
    ranks of their vertices in that vertex order."""
    if isinstance(name, str):
        return (0, name)
    return (1, tuple(vertex_key(p) for p in name))


def vertex_label(name) -> str:
    """Compact ASCII rendering of a possibly nested name."""
    if isinstance(name, str):
        return name
    return "(" + " ".join(vertex_label(p) for p in name) + ")"


def sorted_simplex(names) -> tuple:
    """The simplex of canonical names, as a sorted tuple; rejects empty and
    duplicated input."""
    names = sorted(names, key=vertex_key)
    if not names:
        raise EmptySimplexError("a simplex needs at least one vertex")
    for a, b in zip(names, names[1:]):
        if a == b:
            raise DuplicateVertexError("duplicate vertex %s in simplex" % vertex_label(a))
    return tuple(names)


def simplex_sort_key(simplex):
    return (len(simplex), tuple(map(vertex_key, simplex)))


def faces(simplex):
    """Every non-empty subset of a simplex, the simplex itself included."""
    for k in range(1, len(simplex) + 1):
        for f in combinations(simplex, k):
            yield f


def face_closure(simplices) -> set:
    """The simplices together with all their faces."""
    closure = set()
    for simplex in simplices:
        closure.update(faces(simplex))
    return closure


# ---------------------------------------------------------------------------
# complexes


class Complex:
    """A finite abstract simplicial complex, closed under taking faces.

    Instances are immutable and hashable; two complexes are equal when they
    have the same vertices and the same simplex set.
    """

    __slots__ = ("vertices", "simplices", "maximal", "_vertex_set", "_hash", "_by_dim", "_maximal_at", "_subdivision")

    def __init__(self, simplices: frozenset, vertices: tuple, tops):
        """`vertices` in `vertex_key` order and `tops` the maximal simplices.
        Simplices are sorted by the ranks of their vertices in that order,
        which compare as `simplex_sort_key` does, a prefix first."""
        rank = {v: i for i, v in enumerate(vertices)}.__getitem__

        def ranks(s):
            return tuple(map(rank, s))

        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "maximal", tuple(sorted(tops, key=lambda s: (len(s), ranks(s)))))
        object.__setattr__(self, "_vertex_set", frozenset(vertices))
        object.__setattr__(self, "_hash", hash((vertices, simplices)))
        by_dim = {}
        for s in simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        for group in by_dim.values():
            group.sort(key=ranks)
        object.__setattr__(self, "_by_dim", by_dim)
        object.__setattr__(self, "_maximal_at", None)
        object.__setattr__(self, "_subdivision", None)

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
        """Validate raw simplex input and compute its downward closure: the
        one place besides the readers of `formats` where a name is made
        canonical."""
        simplices = (sorted_simplex([canon_vertex(v) for v in s]) for s in maximal)
        return Complex.closure_of(simplices, map(canon_vertex, extra_vertices))

    @staticmethod
    def closure_of(simplices: Iterable, vertices: Iterable = ()) -> "Complex":
        """The complex of canonical simplices, their faces and canonical
        vertices, with no re-validation of the names."""
        closure = face_closure(simplices)
        closure.update((v,) for v in vertices)
        return Complex._from_closed(closure)

    @staticmethod
    def _from_closed(closure: set) -> "Complex":
        """The closure is face-closed, so a simplex is maximal exactly when it
        is no facet of another simplex of it."""
        vertices = tuple(sorted([s[0] for s in closure if len(s) == 1], key=vertex_key))
        facets = {s[:k] + s[k + 1 :] for s in closure if len(s) > 1 for k in range(len(s))}
        return Complex(frozenset(closure), vertices, closure - facets)

    @property
    def dimension(self) -> int:
        """Read from the last maximal simplex: they are sorted by size first."""
        return len(self.maximal[-1]) - 1 if self.maximal else -1

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
        """Whether the name is a vertex in the form the complex holds it; a
        list, or a tuple holding one, never is."""
        try:
            return name in self._vertex_set
        except TypeError:  # unhashable
            return False

    def has_simplex(self, simplex) -> bool:
        """`has_vertex` for a simplex: a sorted tuple of vertices."""
        try:
            return simplex in self.simplices
        except TypeError:  # unhashable
            return False

    def maximal_at(self, vertex) -> list:
        """The maximal simplices containing a vertex, from an index over all
        vertices built on the first call and kept with the complex."""
        index = self._maximal_at
        if index is None:
            index = {v: [] for v in self.vertices}
            for m in self.maximal:
                for v in m:
                    index[v].append(m)
            object.__setattr__(self, "_maximal_at", index)
        return index[vertex]

    def vertex_set(self) -> frozenset:
        return self._vertex_set

    def edges(self) -> list:
        return self.simplices_of_dim(1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))


def barycentric_subdivision(complex_: Complex) -> Complex:
    """The complex whose vertices are the simplices of the input and whose
    simplices are the strictly nested chains of the face poset, built on the
    first call and kept with the complex.

    Maximal chains are emitted as vertex-orderings of maximal simplices, one
    flag per permutation; the geometric realisation is unchanged.
    """
    if complex_._subdivision is None:
        flags = []
        for top in complex_.maximal:
            # a simplex is sorted, so positions in it are ranks, and chains
            # of position tuples sort as `vertex_key` sorts the named chains
            for chain in _position_flags(len(top)):
                flags.append(tuple(tuple(top[i] for i in face) for face in chain))
        # built from canonical names, so the flags are canonical simplices
        object.__setattr__(complex_, "_subdivision", Complex.closure_of(flags))
    return complex_._subdivision


@lru_cache(maxsize=16)
def _position_flags(k: int) -> tuple:
    """The flags of the standard k-vertex simplex 0..k-1, one per vertex
    order, each as its sorted tuple of sorted position tuples."""
    flags = []
    for order in permutations(range(k)):
        flags.append(tuple(sorted(tuple(sorted(order[:j])) for j in range(1, k + 1))))
    return tuple(flags)


def chain_min(name_tuple) -> tuple:
    return min(name_tuple, key=len)


# ---------------------------------------------------------------------------
# subcomplexes


class Subcomplex(Record, frozen=True):
    """A face-closed set of simplices of a parent complex."""

    parent: Complex
    simplices: frozenset

    @staticmethod
    def _trusted(parent: Complex, simplices: frozenset) -> "Subcomplex":
        """A subcomplex built without the checks of `__post_init__`, for
        simplices known to be face-closed and to lie in the parent."""
        sub = object.__new__(Subcomplex)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "simplices", simplices)
        return sub

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

    def sorted_simplices(self) -> list:
        return sorted(self.simplices, key=simplex_sort_key)


def subcomplex_from(parent: Complex, simplices: Iterable) -> Subcomplex:
    """The subcomplex generated by simplices of vertices of the parent, in
    any vertex order."""
    tops = []
    for s in simplices:
        for v in s:
            if not parent.has_vertex(v):
                raise UnknownVertexError(vertex_label(v))
        tops.append(sorted_simplex(s))
    return Subcomplex(parent, frozenset(face_closure(tops)))


def whole_subcomplex(parent: Complex) -> Subcomplex:
    return Subcomplex(parent, parent.simplices)


def _induced_tops(complex_: Complex, w) -> set:
    """The intersections m ∩ w with the maximal simplices m meeting a set w
    of vertices of the complex; the simplices of the complex inside w are
    exactly their faces."""
    tops = set()
    for v in w:
        for m in complex_.maximal_at(v):
            tops.add(tuple(u for u in m if u in w))
    return tops


def _induced(complex_: Complex, w) -> Subcomplex:
    # faces of simplices of the complex: face-closed and inside it
    return Subcomplex._trusted(complex_, frozenset(face_closure(_induced_tops(complex_, w))))


def induced_subcomplex(complex_: Complex, vertex_subset: Iterable) -> Subcomplex:
    """All simplices of the complex with every vertex in the given set."""
    w = set()
    for v in vertex_subset:
        if not complex_.has_vertex(v):
            raise UnknownVertexError(vertex_label(v))
        w.add(v)
    return _induced(complex_, w)


def beta_subcomplex(sub: Subcomplex) -> Subcomplex:
    """The barycentric subdivision of a subcomplex, inside the subdivision of
    its parent: the induced subcomplex on the names of the sub's simplices."""
    beta_parent = barycentric_subdivision(sub.parent)
    return _induced(beta_parent, {s for s in sub.simplices if beta_parent.has_vertex(s)})


# ---------------------------------------------------------------------------
# points and the scaled l1 metric


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
        parts = ", ".join("%s: %s" % (vertex_label(v), c) for v, c in self.coords)
        return "Point({%s} @ %s)" % (parts, self.scale)


def make_point(complex_: Complex, coords: Mapping, scale=ONE) -> Point:
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
            raise UnknownVertexError(vertex_label(v))
        cleaned.append((v, c))
        total += c
    if total != 1:
        raise ValueError("barycentric coordinates must sum to 1, got %s" % total)
    cleaned.sort(key=lambda p: vertex_key(p[0]))
    support = tuple(v for v, _ in cleaned)
    if support not in complex_.simplices:
        raise ValueError("support does not span a simplex: %r" % (support,))
    return Point(complex_, tuple(cleaned), scale)


def barycenter_point(complex_: Complex, simplex, scale=ONE) -> Point:
    """Uniform coordinates on the vertices of a simplex of the complex."""
    if not complex_.has_simplex(simplex):
        raise UnknownVertexError("not a simplex of the complex: %r" % (simplex,))
    w = Fraction(1, len(simplex))
    return make_point(complex_, {v: w for v in simplex}, scale)


def barycentre_distance(a: int, b: int, c: int) -> Fraction:
    """Exact l1 distance at scale 1 between the barycentres of two vertex
    sets of sizes a and b sharing c vertices: the c shared coordinates differ
    by |1/a - 1/b| and the others contribute their whole mass, which sums to
    2 - 2c/max(a, b)."""
    return 2 - Fraction(2 * c, max(a, b))


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
