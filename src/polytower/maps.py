"""Simplicial and quasi-simplicial maps between finite complexes.

A VertexMap is a total assignment on vertices whose simpliciality (images of
simplices span simplices) is a checkable verdict.  A quasi-simplicial map
from K to L is a vertex map of K into the barycentric subdivision of L that
is simplicial; its vertex images are therefore chains of simplices of L.
Both kinds answer surjectivity, preimages, evaluation, Lipschitz constants
and induced maps on homology.  A Tower is a chain of levels joined by
quasi-simplicial bonds; it is the record the generators build, so it lives
here and not with the certificate pipeline of `towers`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import (
    Complex,
    Point,
    Subcomplex,
    barycentre_distance,
    barycentric_subdivision,
    beta_subcomplex,
    faces,
    flatten_point,
    make_point,
    vertex_key,
    vertex_label,
)
from .records import Record
from .verdicts import Verdict


class NotSimplicialError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            "image of simplex %s spans no simplex of the target"
            % (tuple(vertex_label(v) for v in witness),)
        )


class VertexMap(Record, frozen=True):
    source: Complex
    target: Complex
    assignment: tuple  # sorted tuple of (source vertex, target vertex)

    @staticmethod
    def build(source: Complex, target: Complex, images: dict) -> "VertexMap":
        pairs = []
        assigned = {source.canon(k) for k in images}
        for v in source.vertices:
            if v not in assigned:
                raise ValueError("no image for vertex %s" % vertex_label(v))
        for k, w in images.items():
            ck, cw = source.canon(k), target.canon(w)
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
        v = self.source.canon(vertex)
        if v not in self._lookup:
            raise ValueError("unknown vertex %s" % vertex_label(v))
        return self._lookup[v]

    def image_simplex(self, simplex) -> tuple:
        lookup = self._lookup
        return tuple(sorted({lookup[v] for v in simplex}, key=vertex_key))

    @cached_property
    def vertex_fibers(self) -> dict:
        """Target vertex -> the source vertices mapped to it (hit vertices
        only), built once per map."""
        fibers: dict = {}
        for v, w in self.assignment:
            fibers.setdefault(w, []).append(v)
        return fibers

    @cached_property
    def simplex_fibers(self) -> dict:
        """Image simplex -> the source simplices mapped onto it exactly,
        built once per map."""
        fibers: dict = {}
        for s in self.source.simplices:
            fibers.setdefault(self.image_simplex(s), []).append(s)
        return fibers


def check_simplicial(f: VertexMap) -> Verdict:
    """Holds iff every simplex maps onto a simplex of the target; the witness
    is the first failing maximal simplex, in the `simplex_sort_key` order a
    complex keeps them in."""
    for s in f.source.maximal:
        if f.image_simplex(s) not in f.target.simplices:
            return Verdict.fails(witness=s, reason="image spans no target simplex")
    return Verdict.holds()


class QSMap(Record, frozen=True):
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
    image of some source simplex, that is, a key of the simplex fibers.  For
    simplicial maps this coincides with geometric surjectivity."""
    vm = underlying_vertex_map(p)
    for target_max in vm.target.maximal:
        if target_max not in vm.simplex_fibers:
            return Verdict.fails(witness=target_max, reason="maximal simplex not covered")
    return Verdict.holds()


# ---------------------------------------------------------------------------
# preimages


def _fiber_union(vm: VertexMap, targets) -> Subcomplex:
    """The one preimage rule: over a face-closed set of target simplices lie
    exactly the source simplices whose image simplex belongs to it, so the
    preimage is the union of their fibers (face-closed, as the faces of a
    source simplex map onto faces of its image)."""
    fibers = vm.simplex_fibers
    return Subcomplex._trusted(vm.source, frozenset(s for t in targets for s in fibers.get(t, ())))


def preimage_subcomplex(p: QSMap, delta) -> Subcomplex:
    """Inverse image of a closed simplex of the subdivided target: the
    source simplices whose image is a face of delta.

    This is the preimage as a point set too: a point sits over delta exactly
    when its whole support maps into delta's vertex set (no coordinate may
    survive elsewhere)."""
    target = p.subdivided_target
    delta = tuple(sorted(map(target.canon, delta), key=vertex_key))
    if delta not in target.simplices:
        raise ValueError("not a simplex of the subdivided target")
    return _fiber_union(p.vertex_map, faces(delta))


def preimage_of_subdivided_subcomplex(p, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the map's (subdivided) target under a
    simplicial map: all source simplices whose image simplex lies in it."""
    vm = underlying_vertex_map(p)
    if sub.parent != vm.target:
        raise ValueError("subcomplex does not live in the map's target")
    return _fiber_union(vm, sub.simplices)


def preimage_of_base_subcomplex(p: QSMap, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the base target under a
    quasi-simplicial map: a source simplex lies over it exactly when its
    whole image chain does, so this is the preimage of its subdivision."""
    if sub.parent != p.base_target:
        raise ValueError("subcomplex does not live in the base target")
    return _fiber_union(p.vertex_map, beta_subcomplex(sub).simplices)


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


def lipschitz_constant(p: QSMap, kappa, lam) -> Fraction:
    """The exact Lipschitz constant of every affine piece: the supremum of
    distance ratios over each closed simplex, attained at a vertex pair.

    Pairs of vertices of one simplex sit at source distance 2*kappa, so the
    constant is the largest image distance over such pairs divided by
    2*kappa.  Ratios between points of different simplices are not governed
    by this constant under the ambient metric.  The images of an edge's ends
    are the barycentres of two base simplices, so each distinct shape (their
    sizes and overlap) is evaluated once.
    """
    kappa, lam = Fraction(kappa), Fraction(lam)
    if kappa <= 0 or lam <= 0:
        raise ValueError("scales must be positive")
    mapping = p.as_dict()
    shapes = set()
    for u, v in p.source.simplices_of_dim(1):
        a, b = mapping[u], mapping[v]
        shapes.add((len(a), len(b), len(set(a) & set(b))))
    best = max([Fraction(0)] + [barycentre_distance(*shape) for shape in shapes])
    return lam * best / (2 * kappa)


# ---------------------------------------------------------------------------
# towers


class MalformedTowerError(ValueError):
    pass


class Tower(Record, frozen=True):
    """Levels K_1..K_M with bonds p_i: K_{i+1} -> K_i and per-level scales."""

    levels: tuple
    bonds: tuple
    scales: tuple
    cover_kind: str = "B"

    @staticmethod
    def build(levels, bonds, scales=None, cover_kind="B") -> "Tower":
        levels = tuple(levels)
        bonds = tuple(bonds)
        if not levels:
            raise MalformedTowerError("a tower needs at least one level")
        if len(bonds) != len(levels) - 1:
            raise MalformedTowerError("a tower with M levels needs M-1 bonds")
        for i, bond in enumerate(bonds):
            if not isinstance(bond, QSMap):
                raise MalformedTowerError("bonds must be quasi-simplicial maps")
            if bond.source != levels[i + 1] or bond.base_target != levels[i]:
                raise MalformedTowerError(
                    "bond %d does not map level %d onto level %d" % (i + 1, i + 2, i + 1)
                )
        if scales is None:
            scales = tuple(Fraction(1, 2 ** (i + 1)) for i in range(len(levels)))
        else:
            scales = tuple(Fraction(s) for s in scales)
            if len(scales) != len(levels):
                raise MalformedTowerError("one scale per level")
            if any(s <= 0 for s in scales):
                raise MalformedTowerError("scales must be positive")
        if cover_kind not in ("B", "O"):
            raise MalformedTowerError("cover kind must be B or O")
        return Tower(levels, bonds, scales, cover_kind)

    def depth(self) -> int:
        return len(self.levels)

    @cached_property
    def covers(self) -> tuple:
        """The vertex-star cover of every level but the last, built once per
        tower: the pull-backs and lifts read a cover only at a bond's target,
        and the summability bounds come from the levels themselves."""
        from .stars import cover_B, cover_O  # stars imports this module

        star_cover = cover_B if self.cover_kind == "B" else cover_O
        return tuple(star_cover(level) for level in self.levels[:-1])

    @cached_property
    def lipschitz(self) -> tuple:
        """Each bond's Lipschitz constant at its levels' scales, computed once."""
        return tuple(
            lipschitz_constant(bond, self.scales[idx + 1], self.scales[idx])
            for idx, bond in enumerate(self.bonds)
        )


# ---------------------------------------------------------------------------
# induced maps on homology


def chain_map_columns(vm: VertexMap, k: int) -> list:
    """Sparse columns {target simplex index: sign} of the degree-k chain map;
    simplices collapsed by the map give empty columns, non-degenerate images
    carry the sorting sign."""
    dst_index = {s: i for i, s in enumerate(vm.target.simplices_of_dim(k))}
    mapping = vm.as_dict()
    columns = []
    for s in vm.source.simplices_of_dim(k):
        images = [mapping[v] for v in s]
        if len(set(images)) != len(images):
            columns.append({})
            continue
        order = sorted(range(len(images)), key=lambda i: vertex_key(images[i]))
        target_simplex = tuple(images[i] for i in order)
        columns.append({dst_index[target_simplex]: _permutation_sign(order)})
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
    # the homology layers load with the first induced map, not with maps
    from .connectivity import homology_coordinates
    from .snf import combine

    vm = underlying_vertex_map(p)
    src = homology_coordinates(vm.source, k)
    # a map onto an equal complex (an identity bond) reduces it once
    dst = src if vm.target == vm.source else homology_coordinates(vm.target, k)
    chain = chain_map_columns(vm, k)
    src_group = (src.betti, src.torsion)
    dst_group = (dst.betti, dst.torsion)

    generator_images = []
    for cycle in _homology_generator_cycles(src):
        coords = dst.coords_of_cycle(combine(chain, cycle))
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
    from .snf import combine

    basis = [data.cycles.right[j] for j in data.position]
    positions = data.free_positions + [p for p, _ in data.torsion_entries]
    return [combine(basis, data.quotient.right_inverse[p]) for p in positions]


def _onto_verdict(generator_images, dst) -> Verdict:
    """Cokernel test: the images of the source generators together with the
    target torsion relations must generate the whole target group."""
    from .snf import invariant_factors

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
    factors = invariant_factors(matrix, cols=len(cols))
    if len(factors) == rows and all(abs(d) == 1 for d in factors):
        return Verdict.holds()
    return Verdict.fails(
        witness={"invariant_factors": factors},
        reason="induced map is not onto",
    )
