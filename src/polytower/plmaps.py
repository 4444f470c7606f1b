"""Piecewise-linear maps given by rational point images on vertices.

A PartialPLMap assigns a Point of the target to every vertex of the
subcomplex it is defined on and extends affinely over each simplex.  The
validity condition is that the images of the vertices of any one simplex sit
inside a single closed simplex of the target, so the affine extension never
leaves the target polyhedron.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .complexes import (
    Complex,
    Point,
    Subcomplex,
    UnknownVertexError,
    barycenter_point,
    barycentric_subdivision,
    beta_subcomplex,
    convex_combination,
    simplex_sort_key,
    vertex_key,
    vertex_label,
)
from .maps import QSMap, apply
from .records import Record


class PartialPLMap(Record, frozen=True):
    domain: Complex
    defined_on: Subcomplex
    images: tuple  # sorted (vertex, Point) pairs
    target: Complex

    @staticmethod
    def build(domain: Complex, defined_on: Subcomplex, images: dict, target: Complex) -> "PartialPLMap":
        if defined_on.parent != domain:
            raise ValueError("defined_on must be a subcomplex of the domain")
        for v, point in images.items():
            if not domain.has_vertex(v):
                raise UnknownVertexError(vertex_label(v))
            if not isinstance(point, Point):
                raise TypeError("images must be Points")
            if point.complex != target:
                raise ValueError("image point lives on the wrong complex")
        scales = {p.scale for p in images.values()}
        if len(scales) > 1:
            raise ValueError("image points disagree on scale")
        for v in defined_on.vertex_set():
            if v not in images:
                raise ValueError("no image for vertex %s" % vertex_label(v))
        pairs = tuple(sorted(images.items(), key=lambda kv: vertex_key(kv[0])))
        pl = PartialPLMap(domain, defined_on, pairs, target)
        bad = pl.first_invalid_simplex()
        if bad is not None:
            raise ValueError(
                "images of simplex %s span no target simplex"
                % (tuple(vertex_label(v) for v in bad),)
            )
        return pl

    @cached_property
    def _lookup(self) -> dict:
        """The images as a dict, built once per map for the lookups."""
        return dict(self.images)

    def image_of(self, vertex) -> Point:
        try:
            return self._lookup[vertex]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError("map not defined at %s" % vertex_label(vertex)) from None

    @property
    def scale(self) -> Fraction:
        return self.images[0][1].scale if self.images else Fraction(1)

    def is_total(self) -> bool:
        return self.defined_on.simplices == self.domain.simplices

    def first_invalid_simplex(self):
        table = self._lookup
        for s in sorted(self.defined_on.simplices, key=simplex_sort_key):
            union = set()
            for v in s:
                union.update(table[v].support)
            if tuple(sorted(union, key=vertex_key)) not in self.target.simplices:
                return s
        return None

    def image_points(self, simplex) -> list:
        return [self.image_of(v) for v in simplex]

    def evaluate(self, point: Point) -> Point:
        """Affine evaluation at a point carried by the defined-on part."""
        if point.complex != self.domain:
            raise ValueError("point is not on the domain")
        if point.support not in self.defined_on.simplices:
            raise ValueError("point is outside the defined-on subcomplex")
        pts = [self.image_of(v) for v in point.support]
        weights = [c for _, c in point.coords]
        return convex_combination(pts, weights)

    def subdivided(self) -> "PartialPLMap":
        """The same map presented on the barycentric subdivision of its
        domain: subdivision vertices take the evaluated barycenter images."""
        beta_dom = barycentric_subdivision(self.domain)
        beta_def = beta_subcomplex(self.defined_on)
        images = {}
        for name in beta_def.vertex_set():
            images[name] = self.evaluate(barycenter_point(self.domain, name))
        return PartialPLMap.build(beta_dom, beta_def, images, self.target)

    def after(self, p: QSMap) -> "PartialPLMap":
        """Compose with a quasi-simplicial map applied to every image point."""
        if p.source != self.target:
            raise ValueError("composition mismatch")
        images = {v: apply(p, point) for v, point in self.images}
        return PartialPLMap.build(self.domain, self.defined_on, images, p.base_target)


def equal_on(f: PartialPLMap, g: PartialPLMap, sub: Subcomplex) -> bool:
    """Exact agreement of two PL maps on a common subcomplex (both affine on
    its simplices, so vertex agreement is enough)."""
    for v in sub.vertex_set():
        if f.image_of(v).coords != g.image_of(v).coords:
            return False
    return True
