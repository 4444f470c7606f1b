"""Open stars, barycentric stars, indexed covers, pull-backs, nerves, and
the meshes and cone bounds of vertex-star covers.

Conventions used throughout:

* the open star of a core, a set C of vertices of K, is the complement of
  the simplices missing C; a point belongs exactly when its support touches
  C;
* a simplex of the subdivision (a chain of simplices of K) meets a
  subcomplex L exactly when its minimal element has a vertex in L, so the
  barycentric star is the set of chains whose minimal element touches L;
* covers carry an explicit index set which every pull-back preserves.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .complexes import (
    Complex,
    ComplexMismatchError,
    Point,
    Subcomplex,
    UnknownVertexError,
    barycentre_distance,
    barycentric_subdivision,
    chain_min,
    face_closure,
    faces,
    induced_subcomplex,
    lift_to_subdivision,
    simplex_sort_key,
    vertex_key,
    vertex_label,
)
from .maps import QSMap, preimage_of_subdivided_subcomplex
from .records import Record
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict


class IndexMismatchError(ValueError):
    """An index outside a cover's index set, or covers compared without a
    shared one."""


# ---------------------------------------------------------------------------
# stars


class OpenStarSet(Record, frozen=True):
    """The open star of a core, a set of ambient vertices: membership is
    support meeting the core; the avoided subcomplex is everything induced
    on the remaining vertices."""

    ambient: Complex
    core: frozenset

    def __post_init__(self):
        if not self.core <= self.ambient.vertex_set():
            raise ValueError("core vertices must be vertices of the ambient complex")

    @property
    def avoided(self) -> Subcomplex:
        return induced_subcomplex(self.ambient, [v for v in self.ambient.vertices if v not in self.core])


def open_intersection(ambient: Complex, cores) -> list:
    """The simplices of the ambient meeting every core (vertex sets), in
    `simplex_sort_key` order: each is a face of a maximal simplex through a
    vertex of the smallest core, so only those faces are tested."""
    smallest = min(cores, key=len)
    tops = {m for v in smallest for m in ambient.maximal_at(v)}
    joint = [s for s in face_closure(tops) if all(not core.isdisjoint(s) for core in cores)]
    return sorted(joint, key=simplex_sort_key)


def open_vertex_star(ambient: Complex, vertex) -> OpenStarSet:
    if not ambient.has_vertex(vertex):
        raise UnknownVertexError(vertex_label(vertex))
    return OpenStarSet(ambient, frozenset([vertex]))


def barycentric_vertex_star(base: Complex, vertex) -> Subcomplex:
    if not base.has_vertex(vertex):
        raise UnknownVertexError(vertex_label(vertex))
    return barycentric_vertex_stars(base)[vertex]


def barycentric_vertex_stars(base: Complex) -> dict:
    """The barycentric star of every vertex of the base, in one pass over the
    subdivision: each chain joins the star of every vertex of its minimal
    element.  A face of a chain is a sub-chain, whose minimal element
    contains the chain's, so every star is face-closed as built."""
    beta = barycentric_subdivision(base)
    chains = {v: [] for v in base.vertices}
    for c in beta.simplices:
        for v in chain_min(c):
            chains[v].append(c)
    return {v: Subcomplex._trusted(beta, frozenset(kept)) for v, kept in chains.items()}


# ---------------------------------------------------------------------------
# indexed covers


class IndexedCover(Record, frozen=True):
    """A family of star sets or subcomplexes of one ambient complex, indexed
    explicitly; pull-backs preserve the index set."""

    ambient: Complex
    kind: str  # "open" | "closed"
    elements: tuple  # sorted (index, element) pairs
    base: Complex | None = None  # metric base when the ambient is its subdivision
    star_of: tuple = ()

    @staticmethod
    def build(ambient, kind, elements: dict, base=None, star_of=None) -> "IndexedCover":
        pairs = tuple(sorted(elements.items(), key=lambda kv: vertex_key(kv[0])))
        stars = tuple(sorted((star_of or {}).items(), key=lambda kv: vertex_key(kv[0])))
        return IndexedCover(ambient, kind, pairs, base, stars)

    @property
    def indices(self) -> tuple:
        return tuple(i for i, _ in self.elements)

    @cached_property
    def _by_index(self) -> dict:
        """The elements as a dict, built once per cover for the lookups."""
        return dict(self.elements)

    def element(self, index):
        try:
            return self._by_index[index]
        except (KeyError, TypeError):
            raise IndexMismatchError("unknown cover index %r" % (index,)) from None

    def intersection_subcomplex(self, index_subset) -> Subcomplex:
        elems = [self.element(i) for i in index_subset]
        if not all(isinstance(e, Subcomplex) for e in elems):
            raise ValueError("only closed covers have subcomplex intersections")
        if any(e.parent != self.ambient for e in elems):
            raise ComplexMismatchError("cover element does not live in the ambient complex")
        common = set(elems[0].simplices)
        for e in elems[1:]:
            common &= e.simplices
        # an intersection of subcomplexes of the ambient is one
        return Subcomplex._trusted(self.ambient, frozenset(common))


def cover_O(base: Complex) -> IndexedCover:
    """The open cover by vertex stars, indexed by the vertices."""
    elements = {v: open_vertex_star(base, v) for v in base.vertices}
    return IndexedCover.build(base, "open", elements, base=base, star_of={v: v for v in base.vertices})


def cover_B(base: Complex) -> IndexedCover:
    """The closed cover by barycentric vertex stars, indexed by the vertices;
    elements are subcomplexes of the subdivision, metrically flattened into
    the base."""
    beta = barycentric_subdivision(base)
    elements = barycentric_vertex_stars(base)
    return IndexedCover.build(beta, "closed", elements, base=base, star_of={v: v for v in base.vertices})


# ---------------------------------------------------------------------------
# hull containment in elements


def element_contains_hull(element, points):
    """Containment of the convex hull of finitely many points of the
    element's complex, read off their supports (`aligned_images` brings a
    map's images there).

    An open star holds the hull when every support meets its core: every
    hull point's support contains some corner's support, so this is exact.
    A subcomplex holds it when the supports together span one of its
    simplices, and refutes it when some corner's support is missing; it
    leaves it undecided (None) otherwise.
    """
    if isinstance(element, OpenStarSet):
        return all(not element.core.isdisjoint(s) for s in _supports(points, element.ambient))
    if isinstance(element, Subcomplex):
        supports = _supports(points, element.parent)
        span = tuple(sorted(set().union(*supports), key=vertex_key))
        if span in element.simplices:
            return True
        if any(s not in element.simplices for s in supports):
            return False
        return None
    raise TypeError("unknown element type %r" % (type(element),))


def _supports(points, complex_: Complex) -> list:
    """The supports of hull points, which must live on the given complex."""
    if any(p.complex != complex_ for p in points):
        raise ValueError("hull points must live on the element's complex")
    return [p.support for p in points]


def hull_witnesses(maps, simplices, cover: IndexedCover):
    """For each of the given simplices, the first cover index whose element
    certifiably contains its image hull under every one of the maps, or None
    when some simplex has no such element."""
    images = [aligned_images(f, cover) for f in maps]
    witnesses = {}
    for s in simplices:
        hulls = [[table[v] for v in s] for table in images]
        found = None
        for i, e in cover.elements:
            if all(element_contains_hull(e, pts) is True for pts in hulls):
                found = i
                break
        if found is None:
            return None
        witnesses[s] = found
    return witnesses


def aligned_images(f, cover: IndexedCover) -> dict:
    """Vertex -> its image under a PL map, aligned with the cover's ambient
    once (lifted into the subdivision when the images live on its base)."""
    return {v: align_point(x, cover.ambient, cover.base) for v, x in f.images}


def align_point(point: Point, element_complex: Complex, base: Complex | None) -> Point:
    """The point in the coordinates of the element's complex: itself, or
    lifted into the subdivision when it lives on the base."""
    if point.complex == element_complex:
        return point
    if base is not None and point.complex == base:
        return lift_to_subdivision(point, element_complex)
    raise ValueError("point cannot be aligned with the element's complex")


# ---------------------------------------------------------------------------
# pull-backs


def pullback_cover(p, cover: IndexedCover) -> IndexedCover:
    """Elementwise preimage, keeping the index set, in the two regimes of a
    tower's covers: a closed cover of the map's own (subdivided) target
    pulls back to the preimage subcomplexes; an open cover of a
    quasi-simplicial map's base target pulls back to the open stars of the
    source vertices whose image simplex meets the core, read off the
    assignment once as the source vertices over each base vertex.
    """
    if cover.kind == "closed" and cover.ambient == p.target:
        elements = {i: preimage_of_subdivided_subcomplex(p, e) for i, e in cover.elements}
    elif cover.kind == "open" and isinstance(p, QSMap) and cover.ambient == p.base_target:
        over: dict = {}
        for u, image in p.assignment:
            for v in image:
                over.setdefault(v, []).append(u)
        elements = {
            i: OpenStarSet(p.source, frozenset(u for v in e.core for u in over.get(v, ())))
            for i, e in cover.elements
        }
    else:
        raise ValueError("cover does not live on the map's target (closed) or base target (open)")
    return IndexedCover.build(p.source, cover.kind, elements, base=None, star_of=dict(cover.star_of))


# ---------------------------------------------------------------------------
# nerves


class NerveResult(Record, frozen=True):
    complex: Complex | None
    status: Verdict
    subsets_checked: int


def _meeting_sets(cover: IndexedCover):
    """The indices of the elements that meet at each place: a subcomplex at
    each of its vertices, an open star at each maximal simplex through its
    core.  Elements of one kind have a common point exactly when they all
    meet at one place (a common simplex has a common vertex; a simplex
    meeting every core lies in a maximal one), so the nerve is the face
    closure of these sets."""
    if len({type(e) for _, e in cover.elements}) > 1:
        raise ValueError("cover mixes element representations")
    meets: dict = {}
    for i, e in cover.elements:
        if isinstance(e, Subcomplex):
            places = e.vertex_set()
        else:
            places = {m for c in e.core for m in e.ambient.maximal_at(c)}
        for place in places:
            meets.setdefault(place, []).append(i)
    return meets.values()


def nerve(cover: IndexedCover, budgets: Budgets = DEFAULT_BUDGETS) -> NerveResult:
    """The complex on the index set whose simplices are the subsets with a
    common point: the face closure of the meeting sets, with every distinct
    nerve simplex counted against the budget."""
    budget = budgets.nerve_subsets
    closure: set = set()
    for ids in {tuple(sorted(ids, key=vertex_key)) for ids in _meeting_sets(cover) if ids}:
        for face in faces(ids):
            if face not in closure:
                closure.add(face)
                if len(closure) > budget:
                    return NerveResult(None, Verdict.inconclusive("nerve budget exhausted"), len(closure))
    return NerveResult(Complex._from_closed(closure), Verdict.holds(), len(closure))


# ---------------------------------------------------------------------------
# mesh


class MeshResult(Record, frozen=True):
    value: Fraction
    computed_on_closure: bool


def _element_vertex_sets(cover: IndexedCover, element) -> set:
    """The element's vertices (of its closure, for open stars), each read as
    the set of base vertices at whose barycentre it sits: the parts of its
    name when the element lives in the subdivision of the metric base, the
    vertex alone otherwise."""
    if isinstance(element, OpenStarSet):
        ambient = element.ambient
        vertices = {v for c in element.core for m in ambient.maximal_at(c) for v in m}
    else:
        ambient = element.parent
        vertices = element.vertex_set()
    if cover.base is not None and cover.base != ambient:
        return {frozenset(v) for v in vertices}
    return {frozenset([v]) for v in vertices}


def _diameter_bounds(elements) -> tuple:
    """(largest vertex-pair distance, largest distance to the apex) at scale 1
    over elements given as (apex, vertex sets) pairs, the vertex sets read
    as in `_element_vertex_sets`.  Distances depend only on the shape (a, b,
    c) of a pair, so the distinct shapes of all elements are collected first
    and each is evaluated once."""
    pair_shapes = set()
    apex_shapes = set()
    for apex, vertex_sets in elements:
        pair_shapes.update((len(x), len(y), len(x & y)) for x, y in combinations(vertex_sets, 2))
        apex_shapes.update((1, len(p), int(apex in p)) for p in vertex_sets)

    def largest(shapes):
        return max([Fraction(0)] + [barycentre_distance(*shape) for shape in shapes])

    return largest(pair_shapes), largest(apex_shapes)


def mesh(cover: IndexedCover, scale=Fraction(1)) -> MeshResult:
    """Largest vertex-pair distance over the elements; the scaled l1 metric
    is convex in each argument, so this is the exact supremum of diameters.
    Open elements are measured on their closures and flagged."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    star_of = dict(cover.star_of)
    elements = [(star_of.get(i), _element_vertex_sets(cover, e)) for i, e in cover.elements]
    on_closure = any(isinstance(e, OpenStarSet) for _, e in cover.elements)
    return MeshResult(_diameter_bounds(elements)[0] * scale, on_closure)


def cone_geodesic_diameter_bound(cover: IndexedCover, scale=Fraction(1)) -> Fraction | None:
    """Upper bound for the geodesic diameter of every element via a common
    apex: vertex stars (open or barycentric) are starshaped around their
    vertex, so any two of their points connect through the apex along
    straight segments.  None when some element has no recorded apex."""
    scale = Fraction(scale)
    star_of = dict(cover.star_of)
    base = cover.base if cover.base is not None else cover.ambient
    for i in cover.indices:
        if i not in star_of:
            return None
        if not base.has_vertex(star_of[i]):
            raise UnknownVertexError(vertex_label(star_of[i]))
    elements = [(star_of[i], _element_vertex_sets(cover, e)) for i, e in cover.elements]
    return 2 * _diameter_bounds(elements)[1] * scale


def star_cover_bounds(kind: str, base: Complex, scale=Fraction(1)) -> tuple:
    """`mesh(cover).value` and `cone_geodesic_diameter_bound(cover)` of the
    vertex-star cover of the given kind ("B" or "O") of a complex, r and 2r
    at scale 1, in closed form from its dimension d.  The barycentres of
    vertex sets of sizes a and b sharing c vertices lie 2 - 2c/max(a, b)
    apart (`barycentre_distance`).  The vertex sets of the barycentric star
    of v are the simplices through v, so they share v and the farthest pair
    is {v} and a largest simplex through v: r = 2 - 2/(d + 1), also the
    farthest reach from the apex v.  Two distinct vertices of the closure of
    an open star lie 2 apart, as does one from the apex: r = 2.  Without an
    edge (d <= 0) every element is one point: r = 0."""
    d = base.dimension
    if d <= 0:
        r = Fraction(0)
    elif kind == "B":
        r = barycentre_distance(1, d + 1, 1)
    else:
        r = barycentre_distance(1, 1, 0)
    scale = Fraction(scale)
    return r * scale, 2 * r * scale

