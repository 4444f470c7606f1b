"""Towers of finite polyhedra: regularity reports, certification of the
lifting hypotheses, restrictions, and constructive finite-depth lifts.

A tower is a finite chain of complexes with quasi-simplicial bonding maps and
a scale per level.  The certificate checks, per level and per bond:

* finite dimension of every level;
* quasi-simpliciality, surjectivity, and regularity of every bond (the
  preimage of every simplex of the subdivided target passes the
  k-connectedness rule below the requested degree);
* completeness (trivial for finite complexes) and the cover class of the
  chosen vertex-star covers;
* extensor verdicts for every non-empty intersection of the pulled-back
  covers;
* summability of the lift increments: exact per-bond Lipschitz constants,
  exact cover meshes, and a geometric tail bound through cone-shaped
  elements.

The reported increment bounds multiply the per-piece Lipschitz constants of
the bonds, which control distances along paths, with the through-the-apex
geodesic diameter bound of the cover elements; the product soundly bounds
the stagewise approximation gaps of the lifting construction.
"""
from __future__ import annotations

from fractions import Fraction

from .complexes import (
    Complex,
    Subcomplex,
    faces,
    induced_subcomplex,
    simplex_sort_key,
    vertex_key,
    vertex_label,
)
from .connectivity import check_degree, subcomplex_verdict
from .maps import (
    MalformedTowerError,
    QSMap,
    Tower,
    apply,
    check_quasi_simplicial,
    induced_homology_map,
    is_surjective,
    preimage_of_base_subcomplex,
    preimage_subcomplex,
)
from .records import Record
from .stars import (
    IndexedCover,
    OpenStarSet,
    element_contains_hull,
    hull_witnesses,
    nerve,
    open_intersection,
    pullback_cover,
    star_cover_bounds,
)
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin


# ---------------------------------------------------------------------------
# regularity of one bond


def regularity_report(p: QSMap, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> dict:
    """Per simplex of the subdivided target: the preimage subcomplex and its
    k-connectedness verdict below n.  Only simplices whose verdict is not
    `holds` get an entry; `checked` counts them all.  Empty preimages are
    surjectivity failures, never vacuous passes."""
    check_degree(n)
    simplices = p.subdivided_target.sorted_simplices()
    entries = []
    for delta in simplices:
        pre = preimage_subcomplex(p, delta)
        if pre.is_empty():
            verdict = Verdict.fails(
                witness={"delta": delta},
                reason="empty preimage: map is not onto this simplex",
            )
        else:
            verdict = subcomplex_verdict(pre, n, budgets)
        if not verdict.is_holds:
            entries.append(
                {
                    "delta": delta,
                    "preimage_size": len(pre.simplices),
                    "verdict": verdict,
                    "nonsurjective": pre.is_empty(),
                }
            )
    aggregate = conjoin(e["verdict"] for e in entries)
    if aggregate.is_fails:
        first = next(e for e in entries if e["verdict"].is_fails)
        aggregate = Verdict.fails(
            witness={"delta": first["delta"], "detail": aggregate.witness},
            reason=aggregate.reason,
        )
    return {"n": n, "aggregate": aggregate, "entries": entries, "checked": len(simplices)}


# ---------------------------------------------------------------------------
# tower certification


class TowerCertificate(Record):
    n: int
    conditions: dict
    homology_evidence: dict
    conclusion: Verdict
    statement: str

    def to_obj(self) -> dict:
        """The certificate as one document; `formats.dumps_canonical`
        renders the verdicts, reports and rationals inside it."""
        return {
            "n": self.n,
            "conditions": self.conditions,
            "homology_evidence": self.homology_evidence,
            "conclusion": self.conclusion,
            "statement": self.statement,
        }


def verify_tower(tower: Tower, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> TowerCertificate:
    """Run every hypothesis check on the supplied finite truncation."""
    check_degree(n)
    conditions: dict = {}
    verdicts: list = []

    level_entries = [
        {"level": idx + 1, "dimension": level.dimension}
        for idx, level in enumerate(tower.levels)
    ]
    conditions["level_dimension"] = {"status": Verdict.holds(), "levels": level_entries}
    verdicts.append(Verdict.holds())

    bond_entries = []
    bond_verdicts = []
    for idx, bond in enumerate(tower.bonds):
        surjective = is_surjective(bond)
        report = regularity_report(bond, n, budgets)
        bond_entries.append(
            {
                "bond": idx + 1,
                "quasi_simplicial": Verdict.holds(),
                "surjective": surjective,
                "regularity": report,
            }
        )
        bond_verdicts.append(conjoin([surjective, report["aggregate"]]))
    bond_status = conjoin(bond_verdicts)
    conditions["bond_regularity"] = {"status": bond_status, "bonds": bond_entries}
    verdicts.append(bond_status)

    conditions["completeness"] = {
        "status": Verdict.holds(),
        "note": "finite polyhedra are complete in the scaled l1 metric",
    }
    verdicts.append(Verdict.holds())

    lipschitz_entries = []
    for idx, computed in enumerate(tower.lipschitz):
        kappa, lam = tower.scales[idx + 1], tower.scales[idx]
        lipschitz_entries.append(
            {
                "bond": idx + 1,
                "computed": computed,
                "halved_scale_ratio": lam / (2 * kappa),
                "within_halved_scale_ratio": computed <= lam / (2 * kappa),
            }
        )
    conditions["lipschitz"] = {"status": Verdict.holds(), "bonds": lipschitz_entries}
    verdicts.append(Verdict.holds())

    cover_note = (
        "closed, finite, finite-dimensional vertex-star covers"
        if tower.cover_kind == "B"
        else "open vertex-star covers"
    )
    conditions["cover_class"] = {
        "status": Verdict.holds(),
        "note": cover_note,
        "kind": tower.cover_kind,
    }
    verdicts.append(Verdict.holds())

    pullback_entries = []
    pullback_verdicts = []
    for idx, bond in enumerate(tower.bonds):
        pulled = pullback_cover(bond, tower.covers[idx])
        level_entry = {"level": idx + 1, "intersections": []}
        nerve_status, intersections = intersection_verdicts(pulled, n, budgets)
        if not nerve_status.is_holds:
            pullback_verdicts.append(nerve_status)
            level_entry["intersections"].append({"status": nerve_status, "indices": None})
        for indices, verdict, size in intersections:
            pullback_verdicts.append(verdict)
            level_entry["intersections"].append(
                {"indices": indices, "status": verdict, "simplices": size}
            )
        pullback_entries.append(level_entry)
    pullback_status = conjoin(pullback_verdicts)
    conditions["pullback_extensors"] = {"status": pullback_status, "levels": pullback_entries}
    verdicts.append(pullback_status)

    summability = summability_report(tower)
    conditions["mesh_summability"] = summability
    verdicts.append(summability["status"])

    evidence_entries = []
    evidence_verdicts = []
    for idx, bond in enumerate(tower.bonds):
        degrees = {}
        for k in range(n):
            _, verdict = induced_homology_map(bond, k)
            degrees[k] = verdict
            evidence_verdicts.append(verdict)
        evidence_entries.append({"bond": idx + 1, "degrees": degrees})
    evidence_status = conjoin(evidence_verdicts)
    homology_evidence = {"status": evidence_status, "bonds": evidence_entries}
    verdicts.append(evidence_status)

    conclusion = conjoin(verdicts)
    if conclusion.is_holds:
        statement = (
            "the supplied truncation satisfies every hypothesis at n=%d: finite-stage "
            "evidence that the limit is locally k-connected for k < %d and that the "
            "projections are weak %d-homotopy equivalences" % (n, n, n)
        )
    elif conclusion.is_fails:
        statement = "hypotheses refuted at n=%d; see the recorded witness" % n
    else:
        statement = "certification incomplete at n=%d; see the recorded reason" % n
    return TowerCertificate(n, conditions, homology_evidence, conclusion, statement)


def summability_report(tower: Tower) -> dict:
    """Exact meshes, per-bond Lipschitz constants, increment-bound tables for
    every starting level, and the geometric tail data.  The meshes and cone
    bounds of the star covers are closed forms in each level's dimension
    (`star_cover_bounds`), so no level is subdivided or searched here."""
    depth = tower.depth()
    meshes = []
    cone_meshes = []
    for level, scale in zip(tower.levels, tower.scales):
        value, cone = star_cover_bounds(tower.cover_kind, level, scale)
        meshes.append(value)
        cone_meshes.append(cone)
    lipschitz = list(tower.lipschitz)
    tables = {}
    for k in range(depth):
        rows = []
        product = Fraction(1)
        for m in range(k, depth):
            if m > k:
                product *= lipschitz[m - 1]
            rows.append(
                {
                    "stage": m + 1,
                    "lipschitz_product": product,
                    "cover_mesh": meshes[m],
                    "increment_bound": product * cone_meshes[m],
                }
            )
        tables[k + 1] = {
            "rows": rows,
            "partial_sum": sum((r["increment_bound"] for r in rows), Fraction(0)),
        }
    ratios = []
    for m in range(depth - 1):
        if cone_meshes[m] == 0:
            continue
        ratios.append(lipschitz[m] * cone_meshes[m + 1] / cone_meshes[m])
    quotient = max(ratios) if ratios else Fraction(0)
    if quotient < 1:
        last = tables[1]["rows"][-1]["increment_bound"]
        tail = last * quotient / (1 - quotient) if quotient else Fraction(0)
        status = Verdict.holds()
    else:
        tail = None
        status = Verdict.inconclusive("increment bounds do not contract (quotient %s)" % quotient)
    return {
        "status": status,
        "mesh": meshes,
        "cone_mesh": cone_meshes,
        "lipschitz": lipschitz,
        "tables": tables,
        "contraction_quotient": quotient,
        "tail_bound_after_depth": tail,
    }


# ---------------------------------------------------------------------------
# restriction


def restrict_tower(tower: Tower, m: int, sub: Subcomplex) -> Tower:
    """The tower from level m on, restricted to a subcomplex there; each
    later level is the exact preimage of the previous restricted level, and
    every restricted bond is re-validated as quasi-simplicial."""
    if not 1 <= m <= tower.depth():
        raise MalformedTowerError("level out of range")
    if sub.parent != tower.levels[m - 1]:
        raise MalformedTowerError("subcomplex does not live at the requested level")
    if sub.is_empty():
        raise MalformedTowerError("cannot restrict to an empty subcomplex")
    new_levels = [sub.as_complex()]
    new_bonds = []
    current = sub
    for idx in range(m - 1, tower.depth() - 1):
        bond = tower.bonds[idx]
        pre = preimage_of_base_subcomplex(bond, current)
        if pre.is_empty():
            raise MalformedTowerError("restriction emptied level %d" % (idx + 2,))
        new_level = pre.as_complex()
        mapping = bond.as_dict()
        images = {v: mapping[v] for v in new_level.vertices}
        new_bond = check_quasi_simplicial(new_level, new_levels[-1], images)
        new_levels.append(new_level)
        new_bonds.append(new_bond)
        current = pre
    return Tower.build(new_levels, new_bonds, tower.scales[m - 1 :], tower.cover_kind)


# ---------------------------------------------------------------------------
# pulled-back cover intersections


def intersection_verdicts(pulled: IndexedCover, n: int, budgets: Budgets):
    """The nerve status of a pulled-back cover and, lazily and in simplex
    order, (indices, extensor verdict, size) for each non-empty intersection:
    size is the simplex count of a closed intersection, None for an open one."""
    nerve_result = nerve(pulled, budgets)
    subsets = []
    if nerve_result.status.is_holds:
        subsets = sorted(nerve_result.complex.simplices, key=simplex_sort_key)

    def verdicts():
        for subset in subsets:
            indices = list(subset)
            if pulled.kind == "closed":
                piece = pulled.intersection_subcomplex(indices)
                yield indices, subcomplex_verdict(piece, n, budgets), len(piece.simplices)
            else:
                yield indices, open_intersection_verdict(pulled, indices, n, budgets), None

    return nerve_result.status, verdicts()


def open_intersection_verdict(cover: IndexedCover, subset, n: int, budgets: Budgets) -> Verdict:
    """Extensor verdict for an intersection of open stars: exact when the
    intersection coincides setwise with the star of the common core (then
    the straight-line deformation retracts it there), else inconclusive."""
    elements = [cover.element(i) for i in subset]
    if not all(isinstance(e, OpenStarSet) for e in elements):
        return Verdict.inconclusive("intersection verdicts need open star elements")
    cores = [e.core.vertex_set() for e in elements]
    ambient = elements[0].ambient
    common_core = frozenset.intersection(*cores)
    # a simplex through the common core meets every core; the converse is
    # what makes the intersection the open star of the common core
    if any(common_core.isdisjoint(s) for s in open_intersection(ambient, cores)):
        return Verdict.inconclusive("open intersection is not a star of the common core")
    if not common_core:
        return Verdict.inconclusive("open intersection has no common core")
    piece = induced_subcomplex(ambient, sorted(common_core, key=vertex_key))
    return subcomplex_verdict(piece, n, budgets)


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

    Hypothesis failures (non-surjective bond, uncertified pull-back
    intersections, missing image witnesses after one subdivision) surface as
    inconclusive results naming the condition, never as fabricated lifts.
    """
    from .carriers import carried_extension
    from .plmaps import PartialPLMap

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
            Verdict.inconclusive("bond is not surjective at %s" % (surjective.witness,)),
            None,
            None,
            {},
        )
    for v in sorted(defined.vertex_set(), key=vertex_key):
        projected = apply(p, g0.image_of(v), scale=f.scale)
        if projected.coords != f.image_of(v).coords:
            raise ValueError(
                "the given partial lift does not project onto the map at %s" % vertex_label(v)
            )

    pulled = pullback_cover(p, cover)
    nerve_status, intersections = intersection_verdicts(pulled, n, budgets)
    if not nerve_status.is_holds:
        return LiftResult(nerve_status, None, None, {})
    for indices, verdict, _ in intersections:
        if not verdict.is_holds:
            return LiftResult(
                Verdict.inconclusive(
                    "pulled-back cover intersection %s lacks an extensor certificate"
                    % (indices,)
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
    source_cover = IndexedCover.build(domain, "closed", cover_elements, check=True)
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
    projected = lift.after(p)
    for s in lift.domain.maximal:
        origin = descent.get(s, s)
        witness = witnesses.get(origin)
        if witness is None:
            return Verdict.inconclusive("refined cell lost its witness")
        ok = element_contains_hull(cover.element(witness), projected.image_points(s), cover.base)
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
                raise ValueError("thread at %s misses levels" % vertex_label(v))
            for idx, bond in enumerate(self.tower.bonds):
                projected = apply(bond, points[idx + 1], scale=points[idx].scale)
                if projected.coords != points[idx].coords:
                    raise ValueError(
                        "thread at %s breaks at bond %d" % (vertex_label(v), idx + 1)
                    )
        return self

    def level_map(self, domain: Complex, defined: Subcomplex, level_index: int) -> PartialPLMap:
        from .plmaps import PartialPLMap

        images = {v: self.assignments[v][level_index] for v in defined.vertex_set()}
        return PartialPLMap.build(domain, defined, images, self.tower.levels[level_index])


class TowerLiftResult(Record):
    status: Verdict
    stages: list  # per-stage dicts: stage, lift, closeness, witnesses
    cauchy: dict
    anchored_exactly: bool

    def lifts(self) -> list:
        return [s["lift"] for s in self.stages]


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
    from .plmaps import equal_on

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
        result = single_lift(
            bond, tower.covers[idx], current_f, current_defined, seeds[idx + 1], n, budgets
        )
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
        anchored = anchored and _anchored_exactly(lift, seeds[idx + 1], current_defined)
        # move everything onto the lift's (possibly refined) domain
        current_defined = _transport_defined(current_defined, lift.domain)
        for j in range(idx + 2, len(seeds)):
            seeds[j] = _rebase(seeds[j], lift.domain, current_defined)
        current_f = lift
    cauchy = summability_report(tower)
    overall = conjoin([status, cauchy["status"]])
    return TowerLiftResult(overall, stages, cauchy, anchored)


def _anchored_exactly(lift: PartialPLMap, seed: PartialPLMap, defined: Subcomplex) -> bool:
    for v in defined.vertex_set():
        if lift.image_of(v).coords != seed.image_of(v).coords:
            return False
    return True


def _transport_defined(defined: Subcomplex, refined: Complex) -> Subcomplex:
    kept = frozenset(s for s in defined.simplices if s in refined.simplices)
    if len(kept) != len(defined.simplices):
        raise ValueError("anchored subcomplex was not preserved by refinement")
    return Subcomplex(refined, kept)


def _rebase(partial: PartialPLMap, new_domain: Complex, new_defined: Subcomplex) -> PartialPLMap:
    from .plmaps import PartialPLMap

    images = {v: partial.image_of(v) for v in new_defined.vertex_set()}
    return PartialPLMap.build(new_domain, new_defined, images, partial.target)
