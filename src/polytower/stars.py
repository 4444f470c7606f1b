"""Open stars, barycentric stars, indexed covers, nerves, and the explicit
straight-line deformation onto a full subcomplex.

Conventions used throughout:

* the open star of a subcomplex L in K is the complement of the simplices
  missing L; a point belongs exactly when its support touches a vertex of L;
* a simplex of the subdivision (a chain of simplices of K) meets L exactly
  when its minimal element has a vertex in L, so the barycentric star is the
  set of chains whose minimal element touches L;
* covers carry an explicit index set which every pull-back preserves.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .complexes import (
    Complex,
    Point,
    Subcomplex,
    UnknownVertexError,
    barycentric_subdivision,
    beta_subcomplex,
    canon_vertex,
    chain_min,
    induced_subcomplex,
    is_full_subcomplex,
    lift_to_subdivision,
    make_point,
    simplex_sort_key,
    vertex_key,
    vertex_label,
)
from .maps import QSMap, VertexMap, preimage_of_base_subcomplex, preimage_of_subdivided_subcomplex, underlying_vertex_map
from .plmaps import PartialPLMap
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict


class IndexMismatchError(ValueError):
    """Covers compared without a shared index set."""


# ---------------------------------------------------------------------------
# stars


@dataclass(frozen=True)
class OpenStarSet:
    """The open star of a core subcomplex: membership is support meeting the
    core's vertex set; the avoided subcomplex is everything induced on the
    remaining vertices."""

    ambient: Complex
    core: Subcomplex

    def __post_init__(self):
        if self.core.parent != self.ambient:
            raise ValueError("core must be a subcomplex of the ambient complex")

    @property
    def avoided(self) -> Subcomplex:
        rest = [v for v in self.ambient.vertices if v not in self.core.vertex_set()]
        return induced_subcomplex(self.ambient, rest)

    def contains_point(self, point: Point) -> bool:
        if point.complex != self.ambient:
            raise ValueError("point lives on a different complex")
        core_vertices = self.core.vertex_set()
        return any(v in core_vertices for v in point.support)

    def meets_simplex(self, simplex) -> bool:
        core_vertices = self.core.vertex_set()
        return any(v in core_vertices for v in simplex)


def open_star(ambient: Complex, core: Subcomplex) -> OpenStarSet:
    return OpenStarSet(ambient, core)


def open_vertex_star(ambient: Complex, vertex) -> OpenStarSet:
    v = canon_vertex(vertex)
    return OpenStarSet(ambient, induced_subcomplex(ambient, [v]))


def open_star_of_subdivided(base: Complex, sub: Subcomplex) -> OpenStarSet:
    """The open star, inside the subdivision of the base, of a subcomplex of
    the base (taken with its subdivided triangulation)."""
    beta = barycentric_subdivision(base)
    return OpenStarSet(beta, beta_subcomplex(sub, beta))


def barycentric_star(base: Complex, sub: Subcomplex) -> Subcomplex:
    """All simplices of the subdivision meeting the subcomplex: the chains
    whose minimal element touches a vertex of it."""
    if sub.parent != base:
        raise ValueError("subcomplex of a different complex")
    beta = barycentric_subdivision(base)
    core_vertices = sub.vertex_set()
    kept = frozenset(
        c for c in beta.simplices if any(v in core_vertices for v in chain_min(c))
    )
    return Subcomplex(beta, kept)


def barycentric_vertex_star(base: Complex, vertex) -> Subcomplex:
    v = canon_vertex(vertex)
    return barycentric_star(base, induced_subcomplex(base, [v]))


def barycentric_star_contains_point(base: Complex, sub: Subcomplex, point: Point) -> bool:
    """Point-level membership in the barycentric star: some vertex of the
    subcomplex carries the maximal barycentric coordinate."""
    if point.complex != base:
        raise ValueError("point lives on a different complex")
    top = max(c for _, c in point.coords)
    argmax = {v for v, c in point.coords if c == top}
    return bool(argmax & sub.vertex_set())


# ---------------------------------------------------------------------------
# pulled-back vertex stars that are not subcomplexes of any fixed subdivision


@dataclass(frozen=True)
class VertexStarPreimage:
    """The inverse image of a vertex star of the target of a simplicial map.

    These sets are generally not subcomplexes of the source or of its first
    subdivision, but point membership and joint intersection emptiness have
    exact combinatorial rules, which is all the cover calculus needs.
    """

    vertex_map: VertexMap
    star_vertex: object
    closed: bool  # barycentric star when True, open star when False

    def contains_point(self, point: Point) -> bool:
        if point.complex != self.vertex_map.source:
            raise ValueError("point lives on a different complex")
        mapping = self.vertex_map.as_dict()
        pushed: dict = {}
        for v, c in point.coords:
            w = mapping[v]
            pushed[w] = pushed.get(w, Fraction(0)) + c
        if self.closed:
            top = max(pushed.values())
            return pushed.get(self.star_vertex, Fraction(0)) == top
        return self.star_vertex in pushed


def star_preimages_jointly_meet(elements) -> bool:
    """Exact rule: the preimages of vertex stars along one simplicial map
    intersect exactly when some source simplex covers all the star
    vertices."""
    vms = {e.vertex_map for e in elements}
    if len(vms) != 1:
        raise ValueError("joint rule needs a single underlying map")
    vm = next(iter(vms))
    wanted = {e.star_vertex for e in elements}
    for s in vm.source.simplices:
        if wanted <= set(vm.image_simplex(s)):
            return True
    return False


# ---------------------------------------------------------------------------
# indexed covers


@dataclass(frozen=True)
class IndexedCover:
    """A family of star sets or subcomplexes of one ambient complex, indexed
    explicitly; pull-backs preserve the index set."""

    ambient: Complex
    kind: str  # "open" | "closed"
    elements: tuple  # sorted (index, element) pairs
    base: Complex | None = None  # metric base when the ambient is its subdivision
    star_of: tuple = ()

    @staticmethod
    def build(ambient, kind, elements: dict, base=None, star_of=None, check=True) -> "IndexedCover":
        pairs = tuple(sorted(elements.items(), key=lambda kv: vertex_key(kv[0])))
        stars = tuple(sorted((star_of or {}).items(), key=lambda kv: vertex_key(kv[0])))
        cover = IndexedCover(ambient, kind, pairs, base, stars)
        if check:
            missing = cover.first_uncovered()
            if missing is not None:
                raise ValueError(
                    "cover misses simplex %s" % (tuple(vertex_label(v) for v in missing),)
                )
        return cover

    @property
    def indices(self) -> tuple:
        return tuple(i for i, _ in self.elements)

    def element(self, index):
        for i, e in self.elements:
            if i == index:
                return e
        raise IndexMismatchError("unknown cover index %r" % (index,))

    def as_dict(self) -> dict:
        return dict(self.elements)

    def first_uncovered(self):
        """A maximal simplex no element accounts for, or None."""
        for s in sorted(self.ambient.maximal, key=simplex_sort_key):
            hit = False
            for _, e in self.elements:
                if isinstance(e, Subcomplex):
                    if s in e.simplices:
                        hit = True
                elif isinstance(e, OpenStarSet):
                    if e.meets_simplex(s):
                        hit = True
                else:
                    hit = True  # preimage covers whenever the original does
                if hit:
                    break
            if not hit:
                return s
        return None

    def element_nonempty(self, index) -> bool:
        e = self.element(index)
        if isinstance(e, Subcomplex):
            return bool(e.simplices)
        if isinstance(e, OpenStarSet):
            return any(e.meets_simplex(s) for s in e.ambient.simplices)
        return any(
            e.star_vertex in e.vertex_map.image_simplex(s)
            for s in e.vertex_map.source.simplices
        )

    def intersection_nonempty(self, index_subset) -> bool:
        elems = [self.element(i) for i in index_subset]
        if all(isinstance(e, Subcomplex) for e in elems):
            common = set(elems[0].simplices)
            for e in elems[1:]:
                common &= e.simplices
            return bool(common)
        if all(isinstance(e, OpenStarSet) for e in elems):
            cores = [e.core.vertex_set() for e in elems]
            for s in self.ambient.simplices:
                if all(set(s) & core for core in cores):
                    return True
            return False
        if all(isinstance(e, VertexStarPreimage) for e in elems):
            return star_preimages_jointly_meet(elems)
        raise ValueError("cover mixes element representations")

    def intersection_subcomplex(self, index_subset) -> Subcomplex:
        elems = [self.element(i) for i in index_subset]
        if not all(isinstance(e, Subcomplex) for e in elems):
            raise ValueError("only closed covers have subcomplex intersections")
        common = set(elems[0].simplices)
        for e in elems[1:]:
            common &= e.simplices
        return Subcomplex(self.ambient, frozenset(common))

    def element_contains_point(self, index, point: Point) -> bool:
        return element_contains_point(self.element(index), point, self.base)


def cover_O(base: Complex) -> IndexedCover:
    """The open cover by vertex stars, indexed by the vertices."""
    elements = {v: open_vertex_star(base, v) for v in base.vertices}
    return IndexedCover.build(base, "open", elements, base=base, star_of={v: v for v in base.vertices})


def cover_B(base: Complex) -> IndexedCover:
    """The closed cover by barycentric vertex stars, indexed by the vertices;
    elements are subcomplexes of the subdivision, metrically flattened into
    the base."""
    beta = barycentric_subdivision(base)
    elements = {v: barycentric_vertex_star(base, v) for v in base.vertices}
    return IndexedCover.build(beta, "closed", elements, base=base, star_of={v: v for v in base.vertices})


def closed_star_cover(complex_: Complex) -> IndexedCover:
    """The closed cover of a complex by the closed stars of its own vertices
    in its own triangulation."""
    elements = {}
    for v in complex_.vertices:
        elements[v] = Subcomplex(complex_, complex_.closed_star(v))
    return IndexedCover.build(complex_, "closed", elements, star_of={v: v for v in complex_.vertices})


# ---------------------------------------------------------------------------
# point and hull containment in elements


def element_contains_point(element, point: Point, base: Complex | None = None) -> bool:
    """Exact membership of a point in a cover element.  Points expressed on
    the base complex are lifted into subdivision coordinates when the element
    lives in the subdivision."""
    if isinstance(element, OpenStarSet):
        aligned = _align_point(point, element.ambient, base)
        return element.contains_point(aligned)
    if isinstance(element, Subcomplex):
        aligned = _align_point(point, element.parent, base)
        return aligned.support in element.simplices
    if isinstance(element, VertexStarPreimage):
        return element.contains_point(point)
    raise TypeError("unknown element type %r" % (type(element),))


def element_contains_hull(element, points, base: Complex | None = None):
    """Containment of the convex hull of finitely many points.

    Returns True on a certificate, False on an exact pointwise violation at
    one of the given points, None when undecided (the hull certificate needs
    the lifted supports to sit in one simplex of the element's complex).
    """
    if isinstance(element, OpenStarSet):
        # membership only looks at supports, and every hull point's support
        # contains some corner's support, so corner membership is exact
        return all(element_contains_point(element, p, base) for p in points)
    if isinstance(element, Subcomplex):
        aligned = [_align_point(p, element.parent, base) for p in points]
        union = set()
        for p in aligned:
            union.update(p.support)
        span = tuple(sorted(union, key=vertex_key))
        if span in element.simplices:
            return True
        if any(p.support not in element.simplices for p in aligned):
            return False
        return None
    if isinstance(element, VertexStarPreimage):
        if not all(element.contains_point(p) for p in points):
            return False
        if element.closed:
            return None  # the region is not simplexwise convex in general
        return True
    raise TypeError("unknown element type %r" % (type(element),))


def _align_point(point: Point, element_complex: Complex, base: Complex | None) -> Point:
    if point.complex == element_complex:
        return point
    if base is not None and point.complex == base:
        return lift_to_subdivision(point, element_complex)
    raise ValueError("point cannot be aligned with the element's complex")


# ---------------------------------------------------------------------------
# pull-backs


def pullback_cover(p, cover: IndexedCover) -> IndexedCover:
    """Elementwise preimage, keeping the index set.

    Three exact regimes: covers living on the map's own target complex pull
    back to subcomplexes or open stars of the source; covers on the base
    target of a quasi-simplicial map pull back through the chain tops; vertex
    star covers of the subdivided target pulled along a plain simplicial map
    become preimage sets with exact membership and intersection rules.
    """
    vm = underlying_vertex_map(p)
    elements: dict = {}
    star_of = dict(cover.star_of)
    if cover.ambient == vm.target:
        for i, e in cover.elements:
            if isinstance(e, Subcomplex):
                elements[i] = preimage_of_subdivided_subcomplex(vm, e)
            elif isinstance(e, OpenStarSet):
                core_targets = e.core.vertex_set()
                w = [v for v in vm.source.vertices if vm(v) in core_targets]
                elements[i] = OpenStarSet(vm.source, induced_subcomplex(vm.source, w))
            else:
                raise ValueError("cannot pull back this element representation")
        return IndexedCover.build(vm.source, cover.kind, elements, base=None, star_of=star_of, check=False)
    if isinstance(p, QSMap) and cover.ambient == p.base_target:
        for i, e in cover.elements:
            if isinstance(e, Subcomplex):
                elements[i] = preimage_of_base_subcomplex(p, e)
            elif isinstance(e, OpenStarSet):
                core_targets = e.core.vertex_set()
                w = [v for v in p.source.vertices if set(p(v)) & core_targets]
                elements[i] = OpenStarSet(p.source, induced_subcomplex(p.source, w))
            else:
                raise ValueError("cannot pull back this element representation")
        return IndexedCover.build(p.source, cover.kind, elements, base=None, star_of=star_of, check=False)
    if not isinstance(p, QSMap) and cover.base == vm.target and star_of:
        # vertex star cover of the subdivided target, pulled along a plain
        # simplicial map: keep exact predicates instead of subcomplexes
        closed = cover.kind == "closed"
        for i, _ in cover.elements:
            elements[i] = VertexStarPreimage(vm, star_of[i], closed)
        return IndexedCover.build(vm.source, cover.kind, elements, base=None, star_of=star_of, check=False)
    raise ValueError("cover does not live on the map's target")


# ---------------------------------------------------------------------------
# nerves and cover isomorphism


@dataclass(frozen=True)
class NerveResult:
    complex: Complex | None
    status: Verdict
    subsets_checked: int


def nerve(cover: IndexedCover, budgets: Budgets = DEFAULT_BUDGETS) -> NerveResult:
    """The complex on the index set whose simplices are the subsets with a
    common point, grown level by level so that a first empty intersection
    prunes everything above it."""
    budget = budgets.nerve_subsets
    checked = 0
    alive = []
    for i in cover.indices:
        checked += 1
        if checked > budget:
            return NerveResult(None, Verdict.inconclusive("nerve budget exhausted"), checked)
        if cover.element_nonempty(i):
            alive.append(i)
    simplices = [tuple([i]) for i in alive]
    current = [frozenset([i]) for i in alive]
    level = 1
    while current:
        seen = set()
        next_level = []
        current_set = set(current)
        for subset in current:
            for i in alive:
                if i in subset:
                    continue
                candidate = subset | {i}
                if candidate in seen or len(candidate) != level + 1:
                    continue
                seen.add(candidate)
                if any(candidate - {j} not in current_set for j in candidate):
                    continue
                checked += 1
                if checked > budget:
                    return NerveResult(None, Verdict.inconclusive("nerve budget exhausted"), checked)
                if cover.intersection_nonempty(sorted(candidate, key=vertex_key)):
                    next_level.append(candidate)
        simplices.extend(tuple(sorted(c, key=vertex_key)) for c in next_level)
        current = next_level
        level += 1
    return NerveResult(Complex.from_maximal(simplices), Verdict.holds(), checked)


def covers_isomorphic(f: IndexedCover, g: IndexedCover, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Holds when both covers have the same index set and identical nerves;
    a distinguishing index subset is the witness otherwise."""
    if set(f.indices) != set(g.indices):
        raise IndexMismatchError("covers are indexed by different sets")
    nf, ng = nerve(f, budgets), nerve(g, budgets)
    if not nf.status.is_holds:
        return nf.status
    if not ng.status.is_holds:
        return ng.status
    sf, sg = nf.complex.simplices, ng.complex.simplices
    if sf == sg:
        return Verdict.holds()
    difference = sorted(sf ^ sg, key=simplex_sort_key)
    return Verdict.fails(witness=difference[0], reason="nerves differ")


# ---------------------------------------------------------------------------
# mesh


@dataclass(frozen=True)
class MeshResult:
    value: Fraction
    computed_on_closure: bool


def _element_vertex_sets(cover: IndexedCover, element) -> set:
    """The element's vertices (of its closure, for open stars), each read as
    the set of base vertices at whose barycentre it sits: the parts of its
    name when the element lives in the subdivision of the metric base, the
    vertex alone otherwise."""
    if isinstance(element, OpenStarSet):
        core = element.core.vertex_set()
        ambient = element.ambient
        vertices = {v for s in ambient.simplices if not core.isdisjoint(s) for v in s}
    elif isinstance(element, Subcomplex):
        ambient = element.parent
        vertices = element.vertex_set()
    else:
        raise ValueError("mesh is not defined for preimage predicates")
    if cover.base is not None and cover.base != ambient:
        return {frozenset(v) for v in vertices}
    return {frozenset([v]) for v in vertices}


def _barycentre_distance(a: int, b: int, c: int) -> Fraction:
    """Exact l1 distance between the barycentres of two vertex sets of sizes
    a and b sharing c vertices: c shared coordinates differ by |1/a - 1/b|,
    the others contribute their whole mass."""
    return c * abs(Fraction(1, a) - Fraction(1, b)) + Fraction(a - c, a) + Fraction(b - c, b)


def mesh(cover: IndexedCover, scale=Fraction(1)) -> MeshResult:
    """Largest vertex-pair distance over the elements; the scaled l1 metric
    is convex in each argument, so this is the exact supremum of diameters.
    Open elements are measured on their closures and flagged."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    best = Fraction(0)
    on_closure = False
    for _, e in cover.elements:
        if isinstance(e, OpenStarSet):
            on_closure = True
        pairs = combinations(_element_vertex_sets(cover, e), 2)
        shapes = {(len(x), len(y), len(x & y)) for x, y in pairs}
        best = max([best] + [_barycentre_distance(*shape) for shape in shapes])
    return MeshResult(best * scale, on_closure)


def cone_geodesic_diameter_bound(cover: IndexedCover, scale=Fraction(1)) -> Fraction | None:
    """Upper bound for the geodesic diameter of every element via a common
    apex: vertex stars (open or barycentric) are starshaped around their
    vertex, so any two of their points connect through the apex along
    straight segments.  None when some element has no recorded apex."""
    scale = Fraction(scale)
    star_of = dict(cover.star_of)
    base = cover.base if cover.base is not None else cover.ambient
    worst = Fraction(0)
    for i, e in cover.elements:
        if i not in star_of or not isinstance(e, (Subcomplex, OpenStarSet)):
            return None
        apex = star_of[i]
        if not base.has_vertex(apex):
            raise UnknownVertexError(vertex_label(apex))
        shapes = {(1, len(p), int(apex in p)) for p in _element_vertex_sets(cover, e)}
        reach = max([Fraction(0)] + [_barycentre_distance(*shape) for shape in shapes])
        worst = max(worst, 2 * reach)
    return worst * scale


# ---------------------------------------------------------------------------
# the straight-line deformation


def deformation_phi(x: Point, t, core: Subcomplex) -> Point:
    """The convex slide t*q(x) + (1-t)*x toward the renormalised projection
    onto a full subcomplex; defined on the open star of the core."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if core.parent != x.complex:
        raise ValueError("point and subcomplex live on different complexes")
    if not is_full_subcomplex(core):
        raise ValueError("deformation needs a full subcomplex")
    core_vertices = core.vertex_set()
    norm = sum((c for v, c in x.coords if v in core_vertices), Fraction(0))
    if norm == 0:
        raise ValueError("point is outside the open star of the core")
    out: dict = {}
    for v, c in x.coords:
        value = (1 - t) * c
        if v in core_vertices:
            value += t * (c / norm)
        if value:
            out[v] = value
    return make_point(x.complex, out, x.scale)


# ---------------------------------------------------------------------------
# closeness of PL maps relative to a cover


def are_close(f: PartialPLMap, g: PartialPLMap, cover: IndexedCover, allow_subdivision: bool = True) -> Verdict:
    """Certified cover-closeness of two PL maps on one triangulated domain.

    Holds with a per-simplex witness table when every domain simplex has an
    element containing both image hulls; fails with an exact point witness
    when some evaluated domain point has no common element at all; otherwise
    inconclusive after one domain subdivision.
    """
    if f.domain != g.domain:
        raise ValueError("maps must share a domain triangulation")
    if f.target != g.target:
        raise ValueError("maps must share a target")
    current_f, current_g = f, g
    for round_ in range(2):
        pointwise = _pointwise_violation(current_f, current_g, cover)
        if pointwise is not None:
            return Verdict.fails(
                witness={"vertex": pointwise}, reason="no common element at a domain point"
            )
        witnesses = _simplexwise_witnesses(current_f, current_g, cover)
        if witnesses is not None:
            return Verdict.holds(witness=witnesses)
        if not allow_subdivision or round_ == 1:
            break
        current_f, current_g = current_f.subdivided(), current_g.subdivided()
    return Verdict.inconclusive("no per-simplex witness after one subdivision")


def _pointwise_violation(f, g, cover):
    for v in sorted(f.defined_on.vertex_set(), key=vertex_key):
        fp, gp = f.image_of(v), g.image_of(v)
        found = False
        for i in cover.indices:
            e = cover.element(i)
            if element_contains_point(e, fp, cover.base) and element_contains_point(e, gp, cover.base):
                found = True
                break
        if not found:
            return v
    return None


def _simplexwise_witnesses(f, g, cover):
    witnesses = {}
    for s in sorted(f.defined_on.simplices, key=simplex_sort_key):
        if any(set(s) < set(other) for other in f.defined_on.simplices):
            continue  # witnesses on maximal simplices restrict to faces
        fpts, gpts = f.image_points(s), g.image_points(s)
        found = None
        for i in cover.indices:
            e = cover.element(i)
            if element_contains_hull(e, fpts, cover.base) is True and element_contains_hull(e, gpts, cover.base) is True:
                found = i
                break
        if found is None:
            return None
        witnesses[s] = found
    return witnesses
