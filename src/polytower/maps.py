"""Simplicial and quasi-simplicial maps between finite complexes.

A VertexMap is a total assignment on vertices whose simpliciality (images of
simplices span simplices) is a checkable verdict.  A quasi-simplicial map
from K to L is a vertex map of K into the barycentric subdivision of L that
is simplicial; its vertex images are therefore chains of simplices of L.
Both kinds answer surjectivity, preimages and Lipschitz constants; their
evaluation at points is in `points` and their induced maps on homology are
in `induced`.  A Tower is a chain of levels joined by
quasi-simplicial bonds; it is the record the generators build, so it lives
here and not with the certificate pipeline of `towers`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import (
    Complex,
    Subcomplex,
    barycentre_distance,
    barycentric_subdivision,
    beta_subcomplex,
    faces,
    vertex_key,
    vertex_to_key,
)
from .records import Record
from .verdicts import Verdict


class NotSimplicialError(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__("image of simplex %s spans no simplex of the target" % vertex_to_key(witness))


class VertexMap(Record, frozen=True):
    source: Complex
    target: Complex
    assignment: tuple  # sorted tuple of (source vertex, target vertex)

    @staticmethod
    def build(source: Complex, target: Complex, images: dict) -> "VertexMap":
        for v in source.vertices:
            if v not in images:
                raise ValueError("no image for vertex %s" % vertex_to_key(v))
        for k, w in images.items():
            if not source.has_vertex(k):
                raise ValueError("unknown source vertex %s" % vertex_to_key(k))
            if not target.has_vertex(w):
                raise ValueError("unknown target vertex %s" % vertex_to_key(w))
        return VertexMap(source, target, tuple((v, images[v]) for v in source.vertices))

    @cached_property
    def lookup(self) -> dict:
        """The assignment as a dict, built once per map; callers read it and
        never change it."""
        return dict(self.assignment)

    def __call__(self, vertex):
        try:
            return self.lookup[vertex]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError("unknown vertex %s" % vertex_to_key(vertex)) from None

    def image_simplex(self, simplex) -> tuple:
        lookup = self.lookup
        return tuple(sorted({lookup[v] for v in simplex}, key=vertex_key))

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


class QSMap(VertexMap, frozen=True):
    """A quasi-simplicial map: a simplicial vertex map from `source` into
    `target`, the barycentric subdivision of `base_target`."""

    base_target: Complex


def check_quasi_simplicial(source: Complex, base_target: Complex, images: dict) -> QSMap:
    """Validate a vertex assignment into subdivision names as a QSMap."""
    vm = VertexMap.build(source, barycentric_subdivision(base_target), images)
    p = QSMap(source, vm.target, vm.assignment, base_target)
    check = check_simplicial(p)
    if not check.is_holds:
        raise NotSimplicialError(check.witness)
    return p


def identity_qsmap(base: Complex) -> QSMap:
    """The identity of the subdivision, as a quasi-simplicial map onto the
    base complex."""
    subdivided = barycentric_subdivision(base)
    return check_quasi_simplicial(subdivided, base, {v: v for v in subdivided.vertices})


def is_surjective(p) -> Verdict:
    """Combinatorial surjectivity: every maximal target simplex is the exact
    image of some source simplex, that is, a key of the simplex fibers.  For
    simplicial maps this coincides with geometric surjectivity."""
    for target_max in p.target.maximal:
        if target_max not in p.simplex_fibers:
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
    if not p.target.has_simplex(delta):
        raise ValueError("not a simplex of the subdivided target")
    return _fiber_union(p, faces(delta))


def preimage_of_subdivided_subcomplex(p, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the map's (subdivided) target under a
    simplicial map: all source simplices whose image simplex lies in it."""
    if sub.parent != p.target:
        raise ValueError("subcomplex does not live in the map's target")
    return _fiber_union(p, sub.simplices)


def preimage_of_base_subcomplex(p: QSMap, sub: Subcomplex) -> Subcomplex:
    """Inverse image of a subcomplex of the base target under a
    quasi-simplicial map: a source simplex lies over it exactly when its
    whole image chain does, so this is the preimage of its subdivision."""
    if sub.parent != p.base_target:
        raise ValueError("subcomplex does not live in the base target")
    return _fiber_union(p, beta_subcomplex(sub).simplices)


# ---------------------------------------------------------------------------
# metric constants


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
    mapping = p.lookup
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
    def lipschitz(self) -> tuple:
        """Each bond's Lipschitz constant at its levels' scales, computed once."""
        return tuple(
            lipschitz_constant(bond, self.scales[idx + 1], self.scales[idx])
            for idx, bond in enumerate(self.bonds)
        )


def __getattr__(name):
    # `bench/trace_cli.py` looks this up here, where it lived before the
    # induced maps on homology moved to `induced`
    if name == "induced_homology_map":
        from . import induced

        return induced.induced_homology_map
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
