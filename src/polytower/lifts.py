"""Constructive finite-depth lifts through a tower: one bond at a time, a
PL map into a level is lifted to the next one, exactly on an anchored
subcomplex and cover-close to the input elsewhere, with a per-simplex
closeness certificate, and the stages are chained through the whole tower.

Each stage first checks the hypotheses that `towers` certifies (a
surjective bond and extensor pulled-back cover intersections), then finds
cover elements holding the image hulls and extends the anchored lift over
the carrier they give (`carriers`).  A hypothesis that fails surfaces as an
inconclusive result naming the condition, never as a fabricated lift.
"""
from __future__ import annotations

from .carriers import AlignedImages, carried_extension, element_contains_hull, hull_witnesses
from .complexes import Complex, Subcomplex, faces, simplex_sort_key, vertex_key, vertex_to_key
from .connectivity import check_degree
from .maps import QSMap, Tower, is_surjective
from .plmaps import PartialPLMap, equal_on
from .points import apply
from .records import Record
from .stars import IndexedCover, cover_B, cover_O, pullback_cover
from .towers import intersection_verdicts, summability_report
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin


# ---------------------------------------------------------------------------
# lifting along one bond


class LiftResult(Record):
    status: Verdict
    lift: PartialPLMap | None
    closeness: Verdict | None
    witnesses: dict
    used_f: PartialPLMap | None = None
    used_defined: Subcomplex | None = None


def single_lift(
    p: QSMap,
    cover: IndexedCover,
    f: PartialPLMap,
    defined: Subcomplex,
    g0: PartialPLMap,
    n: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> LiftResult:
    """Lift a PL map along one bond: the result extends the given partial
    lift exactly, and its projection is cover-close to the input with a
    per-simplex certificate.

    An open cover must be the vertex stars of the base target, as its
    pulled-back intersections are certified on the barycentric ones.
    Hypothesis failures (non-surjective bond, uncertified pull-back
    intersections, missing image witnesses after one subdivision) surface as
    inconclusive results naming the condition, never as fabricated lifts.
    """
    if cover.kind == "open" and cover != cover_O(p.base_target):
        raise ValueError("an open cover must be the open vertex-star cover of the base target")
    if f.domain != g0.domain:
        raise ValueError("the partial lift must live on the map's domain")
    if not f.is_total():
        raise ValueError("the map to lift must be total")
    if g0.defined_on.simplices != defined.simplices:
        raise ValueError("the partial lift must be defined exactly on the given subcomplex")
    if f.domain.dimension > min(n, 2):
        return LiftResult(
            Verdict.inconclusive("domain dimension exceeds the constructive range"),
            None,
            None,
            {},
        )
    surjective = is_surjective(p)
    if not surjective.is_holds:
        return LiftResult(
            Verdict.inconclusive("bond is not surjective at %s" % vertex_to_key(surjective.witness)),
            None,
            None,
            {},
        )
    for v in sorted(defined.vertex_set(), key=vertex_key):
        projected = apply(p, g0.image_of(v), scale=f.scale)
        if projected.coords != f.image_of(v).coords:
            raise ValueError("the given partial lift does not project onto the map at %s" % vertex_to_key(v))

    pulled = pullback_cover(p, cover)
    certified = pulled if cover.kind == "closed" else pullback_cover(p, cover_B(p.base_target))
    nerve_status, intersections = intersection_verdicts(certified, n, budgets)
    if not nerve_status.is_holds:
        return LiftResult(nerve_status, None, None, {})
    for indices, verdict, _ in intersections:
        if not verdict.is_holds:
            return LiftResult(
                Verdict.inconclusive(
                    "pulled-back cover intersection %s lacks an extensor certificate"
                    % vertex_to_key(indices)
                ),
                None,
                None,
                {},
            )

    current_f, current_g0, current_defined = f, g0, defined
    witnesses = hull_witnesses([current_f], current_f.domain.maximal, cover)
    if witnesses is None:
        current_f = current_f.subdivided()
        current_g0 = current_g0.subdivided()
        current_defined = current_g0.defined_on
        witnesses = hull_witnesses([current_f], current_f.domain.maximal, cover)
        if witnesses is None:
            return LiftResult(
                Verdict.inconclusive(
                    "no cover element contains some image hull after one subdivision"
                ),
                None,
                None,
                {},
            )
    domain = current_f.domain
    cover_elements = {s: Subcomplex(domain, frozenset(faces(s))) for s in domain.maximal}
    targets = {s: pulled.element(witnesses[s]) for s in domain.maximal}
    source_cover = IndexedCover.build(domain, "closed", cover_elements)
    seed = PartialPLMap.build(
        domain, current_defined, {v: pt for v, pt in current_g0.images}, p.source
    )
    result = carried_extension(seed, source_cover, targets, budgets=budgets)
    if not result.status.is_holds:
        return LiftResult(result.status, None, None, witnesses)
    lift = result.extended
    closeness = _closeness_certificate(lift, result.descent, p, cover, witnesses)
    if not closeness.is_holds:
        return LiftResult(closeness, lift, closeness, witnesses)
    return LiftResult(
        Verdict.holds(), lift, closeness, witnesses, used_f=current_f, used_defined=current_defined
    )


def _closeness_certificate(lift, descent, p, cover, witnesses) -> Verdict:
    """Per original domain simplex: the input map's hull sits in the witness
    element (established when the witnesses were found) and the projected
    lift's hull over every refined piece sits there too (re-checked here),
    so every point has both values inside the witness element."""
    images = AlignedImages(lift.after(p), cover)
    for s in lift.domain.maximal:
        # `_check_extension` read `descent[s]` for every refined maximal s,
        # a maximal cell of the witnessed domain
        ok = element_contains_hull(cover.element(witnesses[descent[s]]), [images[v] for v in s])
        if ok is not True:
            return Verdict.inconclusive("projected lift leaves the witness element")
    return Verdict.holds(witness=dict(sorted(witnesses.items(), key=lambda kv: simplex_sort_key(kv[0]))))


# ---------------------------------------------------------------------------
# lifting through the whole tower


class ThreadApprox(Record):
    """Exactly compatible points through the tower levels, per anchor
    vertex."""

    tower: Tower
    assignments: dict  # vertex -> list of Points, one per level

    def validate(self):
        for v, points in sorted(self.assignments.items(), key=lambda kv: vertex_key(kv[0])):
            if len(points) != self.tower.depth():
                raise ValueError("thread at %s misses levels" % vertex_to_key(v))
            for idx, bond in enumerate(self.tower.bonds):
                projected = apply(bond, points[idx + 1], scale=points[idx].scale)
                if projected.coords != points[idx].coords:
                    raise ValueError("thread at %s breaks at bond %d" % (vertex_to_key(v), idx + 1))
        return self

    def level_map(self, domain: Complex, defined: Subcomplex, level_index: int) -> PartialPLMap:
        images = {v: self.assignments[v][level_index] for v in defined.vertex_set()}
        return PartialPLMap.build(domain, defined, images, self.tower.levels[level_index])


class TowerLiftResult(Record):
    status: Verdict
    stages: list  # per-stage dicts: stage, lift, closeness, witnesses
    cauchy: dict
    anchored_exactly: bool


def tower_lift(
    tower: Tower,
    f1: PartialPLMap,
    defined: Subcomplex,
    g0: ThreadApprox,
    n: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> TowerLiftResult:
    """Stagewise lifts of a map into the first level through every bond,
    anchored exactly on the given thread values, with per-stage closeness
    certificates and the increment-bound tables."""
    check_degree(n)
    g0.validate()
    seeds = [g0.level_map(f1.domain, defined, j) for j in range(tower.depth())]
    if not equal_on(f1, seeds[0], defined):
        raise ValueError("thread values at the first level disagree with the map")
    stages: list = []
    current_f, current_defined = f1, defined
    status = Verdict.holds()
    anchored = True
    for idx, bond in enumerate(tower.bonds):
        cover = (cover_B if tower.cover_kind == "B" else cover_O)(tower.levels[idx])
        result = single_lift(bond, cover, current_f, current_defined, seeds[idx + 1], n, budgets)
        if not result.status.is_holds:
            status = result.status
            break
        if result.used_f.domain != current_f.domain:
            # a pre-witness subdivision happened: re-express later seeds on it
            for j in range(idx + 1, len(seeds)):
                seeds[j] = seeds[j].subdivided()
            current_defined = result.used_defined
        lift = result.lift
        stages.append(
            {
                "stage": idx + 2,
                "lift": lift,
                "closeness": result.closeness,
                "witnesses": result.witnesses,
            }
        )
        anchored = anchored and equal_on(lift, seeds[idx + 1], current_defined)
        # move everything onto the lift's (possibly refined) domain, which
        # keeps every defined simplex
        current_defined = Subcomplex(lift.domain, current_defined.simplices)
        for j in range(idx + 2, len(seeds)):
            seeds[j] = _rebase(seeds[j], lift.domain, current_defined)
        current_f = lift
    cauchy = summability_report(tower)
    overall = conjoin([status, cauchy["status"]])
    return TowerLiftResult(overall, stages, cauchy, anchored)


def _rebase(partial: PartialPLMap, new_domain: Complex, new_defined: Subcomplex) -> PartialPLMap:
    images = {v: partial.image_of(v) for v in new_defined.vertex_set()}
    return PartialPLMap.build(new_domain, new_defined, images, partial.target)
