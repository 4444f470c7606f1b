"""Simplicial and quasi-simplicial maps between finite complexes.

A VertexMap is a total assignment on vertices whose simpliciality (images of
simplices span simplices) is a checkable verdict.  A quasi-simplicial map
from K to L is a vertex map of K into the barycentric subdivision of L that
is simplicial; its vertex images are therefore chains of simplices of L.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import snf
from .complexes import (
    Complex,
    Point,
    Subcomplex,
    barycentric_subdivision,
    canon_vertex,
    distance,
    flatten_point,
    induced_subcomplex,
    make_point,
    simplex_sort_key,
    vertex_key,
    vertex_label,
)
from .connectivity import homology_coordinates, _chain_data
from .verdicts import Verdict


class NotSimplicialError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "image of simplex %s spans no simplex of the target"
            % (tuple(vertex_label(v) for v in witness),)
        )


@dataclass(frozen=True)
class VertexMap:
    source: Complex
    target: Complex
    assignment: tuple  # sorted tuple of (source vertex, target vertex)

    @staticmethod
    def build(source: Complex, target: Complex, images: dict) -> "VertexMap":
        pairs = []
        assigned = {canon_vertex(k) for k in images}
        for v in source.vertices:
            cv = canon_vertex(v)
            if cv not in assigned:
                raise ValueError("no image for vertex %s" % vertex_label(cv))
        for k, w in images.items():
            ck, cw = canon_vertex(k), canon_vertex(w)
            if not source.has_vertex(ck):
                raise ValueError("unknown source vertex %s" % vertex_label(ck))
            if not target.has_vertex(cw):
                raise ValueError("unknown target vertex %s" % vertex_label(cw))
            pairs.append((ck, cw))
        pairs.sort(key=lambda p: vertex_key(p[0]))
        return VertexMap(source, target, tuple(pairs))

    @cached_property
    def _lookup(self) -> dict:
        """The assignment as a dict, built once per map for the lookups."""
        return dict(self.assignment)

    def as_dict(self) -> dict:
        return dict(self.assignment)

    def __call__(self, vertex):
        v = canon_vertex(vertex)
        if v not in self._lookup:
            raise ValueError("unknown vertex %s" % vertex_label(v))
        return self._lookup[v]

    def image_simplex(self, simplex) -> tuple:
        lookup = self._lookup
        return tuple(sorted({lookup[v] for v in simplex}, key=vertex_key))


def check_simplicial(f: VertexMap) -> Verdict:
    """Holds iff every simplex maps onto a simplex of the target."""
    for s in sorted(f.source.maximal, key=simplex_sort_key):
        if f.image_simplex(s) not in f.target.simplices:
            return Verdict.fails(witness=s, reason="image spans no target simplex")
    return Verdict.holds()


@dataclass(frozen=True)
class QSMap:
    """A quasi-simplicial map: simplicial from `source` into the barycentric
    subdivision of `base_target`."""

    vertex_map: VertexMap  # source -> subdivided_target
    source: Complex
    base_target: Complex
    subdivided_target: Complex

    @staticmethod
    def build(source: Complex, base_target: Complex, images: dict) -> "QSMap":
        subdivided = barycentric_subdivision(base_target)
        vm = VertexMap.build(source, subdivided, images)
        check = check_simplicial(vm)
        if not check.is_holds:
            raise NotSimplicialError(check.witness)
        return QSMap(vm, source, base_target, subdivided)

    def __call__(self, vertex):
        return self.vertex_map(vertex)

    def as_dict(self) -> dict:
        return self.vertex_map.as_dict()

    def image_simplex(self, simplex) -> tuple:
        return self.vertex_map.image_simplex(simplex)


def check_quasi_simplicial(source: Complex, base_target: Complex, images: dict) -> QSMap:
    """Validate a vertex assignment into subdivision names as a QSMap."""
    return QSMap.build(source, base_target, images)


def identity_qsmap(base: Complex) -> QSMap:
    """The identity of the subdivision, as a quasi-simplicial map onto the
    base complex."""
    subdivided = barycentric_subdivision(base)
    return QSMap.build(subdivided, base, {v: v for v in subdivided.vertices})


def underlying_vertex_map(p) -> VertexMap:
    return p.vertex_map if isinstance(p, QSMap) else p


def is_surjective(p) -> Verdict:
    """Combinatorial surjectivity: every maximal target simplex is the exact
    image of some source simplex.  For simplicial maps this coincides with
    geometric surjectivity."""
    vm = underlying_vertex_map(p)
    covered = {vm.image_simplex(s) for s in vm.source.simplices}
    for target_max in sorted(vm.target.maximal, key=simplex_sort_key):
        if target_max not in covered:
            return Verdict.fails(witness=target_max, reason="maximal simplex not covered")
    return Verdict.holds()


# ---------------------------------------------------------------------------
# preimages


def preimage_subcomplex(p: QSMap, delta) -> Subcomplex:
    """Inverse image of a closed simplex of the subdivided target, as the
    induced subcomplex on the vertices mapping into it.

    The two agree geometrically: a point sits over delta exactly when its
    whole support maps into delta's vertex set (no coordinate may survive
    elsewhere)."""
    delta = tuple(canon_vertex(v) for v in delta)
    if tuple(sorted(delta, key=vertex_key)) not in p.subdivided_target.simplices:
        raise ValueError("not a simplex of the subdivided target")
    allowed = set(delta)
    w = [v for v, img in p.vertex_map.assignment if img in allowed]
    return induced_subcomplex(p.source, w)


def preimage_of_subdivided_subcomplex(p, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the map's (subdivided) target under a
    simplicial map: all source simplices whose image simplex lies in it."""
    vm = underlying_vertex_map(p)
    if sub.parent != vm.target:
        raise ValueError("subcomplex does not live in the map's target")
    kept = frozenset(s for s in vm.source.simplices if vm.image_simplex(s) in sub.simplices)
    return Subcomplex(vm.source, kept)


def preimage_of_base_subcomplex(p: QSMap, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the base target under a
    quasi-simplicial map: a source simplex lies over it exactly when the top
    of its image chain (the union of the named simplices) belongs to it."""
    if sub.parent != p.base_target:
        raise ValueError("subcomplex does not live in the base target")
    mapping = p.as_dict()
    kept = set()
    for s in p.source.simplices:
        top = set()
        for v in s:
            top.update(mapping[v])
        if tuple(sorted(top, key=vertex_key)) in sub.simplices:
            kept.add(s)
    return Subcomplex(p.source, frozenset(kept))


# ---------------------------------------------------------------------------
# evaluation and metric constants


def apply_subdivision(p: QSMap, x: Point) -> Point:
    """Push a point forward into subdivision coordinates of the target."""
    acc: dict = {}
    mapping = p.as_dict()
    for v, c in x.coords:
        w = mapping[v]
        acc[w] = acc.get(w, Fraction(0)) + c
    return make_point(p.subdivided_target, acc, x.scale)


def apply(p: QSMap, x: Point, scale=None) -> Point:
    """Evaluate the affine extension, expressed in base target coordinates."""
    pushed = apply_subdivision(p, x)
    flat = flatten_point(pushed, p.base_target)
    if scale is not None and Fraction(scale) != flat.scale:
        flat = make_point(p.base_target, flat.as_dict(), Fraction(scale))
    return flat


def vertex_image_point(p: QSMap, vertex, scale=Fraction(1)) -> Point:
    name = p(vertex)
    share = Fraction(1, len(name))
    return make_point(p.base_target, {v: share for v in name}, scale)


def lipschitz_constant(p: QSMap, kappa, lam) -> Fraction:
    """The exact Lipschitz constant of every affine piece: the supremum of
    distance ratios over each closed simplex, attained at a vertex pair.

    Pairs of vertices of one simplex sit at source distance 2*kappa, so the
    constant is the largest image distance over such pairs divided by
    2*kappa.  Ratios between points of different simplices are not governed
    by this constant under the ambient metric.
    """
    kappa, lam = Fraction(kappa), Fraction(lam)
    if kappa <= 0 or lam <= 0:
        raise ValueError("scales must be positive")
    best = Fraction(0)
    image_points = {v: vertex_image_point(p, v, lam) for v in p.source.vertices}
    for edge in p.source.simplices_of_dim(1):
        u, v = edge
        d = distance(image_points[u], image_points[v])
        if d > best:
            best = d
    return best / (2 * kappa)


# ---------------------------------------------------------------------------
# composition


def _beta_extension(vm: VertexMap) -> VertexMap:
    """The subdivision of a simplicial map: the vertex named by a simplex maps
    to the vertex named by its image simplex."""
    src = barycentric_subdivision(vm.source)
    dst = barycentric_subdivision(vm.target)
    images = {name: vm.image_simplex(name) for name in src.vertices}
    return VertexMap.build(src, dst, images)


def compose(outer, inner) -> VertexMap:
    """Vertex-level composition (outer after inner).

    Plain simplicial maps compose directly.  When maps land in subdivisions
    the outer map is first subdivided so that its action on chain names is
    simplicial; the result is a vertex map into an iterated subdivision.
    Images are flattened back to coarser vertices only when every image is a
    singleton chain.
    """
    inner_vm = underlying_vertex_map(inner)
    outer_vm = underlying_vertex_map(outer)
    if inner_vm.target == outer_vm.source:
        extended = outer_vm
    else:
        extended = _beta_extension(outer_vm)
        if inner_vm.target != extended.source:
            raise ValueError("maps do not compose: target/source mismatch")
    mapping = {v: extended(inner_vm(v)) for v in inner_vm.source.vertices}
    composed = VertexMap.build(inner_vm.source, extended.target, mapping)
    return flatten_vertex_map(composed)


def flatten_vertex_map(vm: VertexMap) -> VertexMap:
    """Strip one level of singleton chains from every image, repeatedly, as
    long as every image is a singleton tuple naming a coarser vertex."""
    current = vm
    while True:
        images = current.as_dict()
        if not images:
            return current
        if not all(isinstance(w, tuple) and len(w) == 1 for w in images.values()):
            return current
        stripped = {v: w[0] for v, w in images.items()}
        candidates = set(stripped.values())
        target = _flattening_target(current.target, candidates)
        if target is None:
            return current
        current = VertexMap.build(current.source, target, stripped)


def _flattening_target(subdivided: Complex, needed) -> Complex | None:
    """Reconstruct the complex whose subdivision the given complex is, when
    its vertex names are simplices of that coarser complex."""
    names = subdivided.vertices
    if not all(isinstance(n, tuple) for n in names):
        return None
    try:
        coarse = Complex.from_maximal(list(names))
    except Exception:
        return None
    if barycentric_subdivision(coarse).simplices >= subdivided.simplices and all(
        w in coarse.vertex_set() for w in needed
    ):
        return coarse
    return None


# ---------------------------------------------------------------------------
# induced maps on homology


def chain_map_columns(vm: VertexMap, k: int) -> list:
    """Sparse columns {target simplex index: sign} of the degree-k chain map;
    simplices collapsed by the map give empty columns, non-degenerate images
    carry the sorting sign."""
    src_bases, _ = _chain_data(vm.source)
    _, dst_index = _chain_data(vm.target)
    mapping = vm.as_dict()
    columns = []
    for s in src_bases.get(k, ()):
        images = [mapping[v] for v in s]
        if len(set(images)) != len(images):
            columns.append({})
            continue
        order = sorted(range(len(images)), key=lambda i: vertex_key(images[i]))
        target_simplex = tuple(images[i] for i in order)
        columns.append({dst_index[k][target_simplex]: _permutation_sign(order)})
    return columns


def _permutation_sign(order) -> int:
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def induced_homology_map(p, k: int) -> tuple:
    """The degree-k map on integral homology induced by a (quasi-)simplicial
    map, with a verdict on whether it is an isomorphism.

    Returns (matrix over canonical generators, Verdict).  The verdict holds
    exactly when both groups share invariants and the induced map is onto,
    which for finitely generated abelian groups forces bijectivity.
    """
    vm = underlying_vertex_map(p)
    src = homology_coordinates(vm.source, k)
    dst = homology_coordinates(vm.target, k)
    chain = chain_map_columns(vm, k)
    src_group = (src.betti, src.torsion)
    dst_group = (dst.betti, dst.torsion)

    generator_images = []
    for cycle in _homology_generator_cycles(src):
        coords = dst.coords_of_cycle(snf.combine(chain, cycle))
        if coords is None:
            raise AssertionError("image of a cycle is not a cycle")
        generator_images.append(coords)

    if src_group != dst_group:
        return generator_images, Verdict.fails(
            witness={"source": _group_obj(src), "target": _group_obj(dst)},
            reason="homology groups differ in degree %d" % k,
        )
    if dst.betti == 0 and not dst.torsion:
        return generator_images, Verdict.holds()
    surj = _onto_verdict(generator_images, dst)
    return generator_images, surj


def _group_obj(data) -> dict:
    return {"betti": data.betti, "torsion": list(data.torsion)}


def _homology_generator_cycles(data) -> list:
    """Cycle representatives {simplex index: coefficient} of the canonical
    free and torsion generators of H_k: the columns of P^-1 at those
    positions, carried from cycle coordinates to chains by V."""
    basis = [data.cycles.right[j] for j in data.position]
    positions = data.free_positions + [p for p, _ in data.torsion_entries]
    return [snf.combine(basis, data.quotient.right_inverse[p]) for p in positions]


def _onto_verdict(generator_images, dst) -> Verdict:
    """Cokernel test: the images of the source generators together with the
    target torsion relations must generate the whole target group."""
    free_rank = dst.betti
    torsion_orders = [order for _, order in dst.torsion_entries]
    rows = free_rank + len(torsion_orders)
    cols = []
    for free, tor in generator_images:
        cols.append(list(free) + list(tor))
    for idx, order in enumerate(torsion_orders):
        col = [0] * rows
        col[free_rank + idx] = order
        cols.append(col)
    if rows == 0:
        return Verdict.holds()
    matrix = [[col[i] for col in cols] for i in range(rows)]
    factors = snf.invariant_factors(matrix, cols=len(cols))
    if len(factors) == rows and all(abs(d) == 1 for d in factors):
        return Verdict.holds()
    return Verdict.fails(
        witness={"invariant_factors": factors},
        reason="induced map is not onto",
    )
