"""Towers of finite polyhedra: regularity reports, certification of the
lifting hypotheses, and restrictions (the constructive finite-depth lifts
are in `lifts`).

A tower is a finite chain of complexes with quasi-simplicial bonding maps and
a scale per level.  The certificate checks, per level and per bond:

* finite dimension of every level;
* quasi-simpliciality, surjectivity, and regularity of every bond (the
  preimage of every simplex of the subdivided target passes the
  k-connectedness rule below the requested degree);
* completeness (trivial for finite complexes) and the cover class of the
  chosen vertex-star covers;
* extensor verdicts for the non-empty intersections of the pulled-back
  covers, counted per level and listed where they do not hold;
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

from .complexes import Subcomplex
from .connectivity import check_degree, subcomplex_verdict
from .maps import (
    MalformedTowerError,
    QSMap,
    Tower,
    check_quasi_simplicial,
    is_surjective,
    preimage_of_base_subcomplex,
    preimage_subcomplex,
)
from .records import Record
from .stars import IndexedCover, cover_B, nerve, pullback_cover, star_cover_bounds
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin


# ---------------------------------------------------------------------------
# regularity of one bond


def regularity_report(p: QSMap, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> dict:
    """Per simplex of the subdivided target: the preimage subcomplex and its
    k-connectedness verdict below n, listed and counted by `_not_holding`.
    Empty preimages are surjectivity failures, never vacuous passes."""
    check_degree(n)

    def judged():
        for delta in p.target.sorted_simplices():
            pre = preimage_subcomplex(p, delta)
            if pre.is_empty():
                verdict = Verdict.fails(
                    witness={"delta": delta},
                    reason="empty preimage: map is not onto this simplex",
                )
            else:
                verdict = subcomplex_verdict(pre, n, budgets)
            yield {
                "delta": delta,
                "preimage_size": len(pre.simplices),
                "verdict": verdict,
                "nonsurjective": pre.is_empty(),
            }

    entries, checked = _not_holding(judged(), "verdict")
    aggregate = conjoin(e["verdict"] for e in entries)
    if aggregate.is_fails:
        first = next(e for e in entries if e["verdict"].is_fails)
        aggregate = Verdict.fails(
            witness={"delta": first["delta"], "detail": aggregate.witness},
            reason=aggregate.reason,
        )
    return {"n": n, "aggregate": aggregate, "entries": entries, "checked": checked}


def _not_holding(entries, key: str) -> tuple:
    """The one rule of a per-simplex section: (the entries whose verdict under
    `key` is not `holds`, in order; how many were judged)."""
    listed, checked = [], 0
    for checked, entry in enumerate(entries, 1):
        if not entry[key].is_holds:
            listed.append(entry)
    return listed, checked


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
    """Run every hypothesis check on the supplied finite truncation.  A
    section's status is read off the verdicts of its entries and the
    conclusion off the section statuses, so a certificate's reader can
    recompute both from what it prints."""
    check_degree(n)
    conditions: dict = {}

    level_entries = [
        {"level": idx + 1, "dimension": level.dimension}
        for idx, level in enumerate(tower.levels)
    ]
    conditions["level_dimension"] = _section("levels", level_entries)

    bond_entries = [
        {
            "bond": idx + 1,
            "quasi_simplicial": Verdict.holds(),
            "surjective": is_surjective(bond),
            "regularity": regularity_report(bond, n, budgets),
        }
        for idx, bond in enumerate(tower.bonds)
    ]
    # a regularity report's aggregate precedes its entries, so a failure's
    # witness names its simplex
    conditions["bond_regularity"] = _section("bonds", bond_entries)

    conditions["completeness"] = {
        "status": Verdict.holds(),
        "note": "finite polyhedra are complete in the scaled l1 metric",
    }

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
    conditions["lipschitz"] = _section("bonds", lipschitz_entries)

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

    pullback_entries = []
    closed = tower.cover_kind == "B"  # an open intersection has no simplex count
    for idx, bond in enumerate(tower.bonds):
        pulled = pullback_cover(bond, cover_B(tower.levels[idx]))
        nerve_status, intersections = intersection_verdicts(pulled, n, budgets)
        judged = (
            {"indices": indices, "status": verdict, "simplices": size if closed else None}
            for indices, verdict, size in intersections
        )
        listed, checked = _not_holding(judged, "status")
        if not nerve_status.is_holds:  # then no piece was judged
            listed = [{"status": nerve_status, "indices": None}]
        pullback_entries.append({"level": idx + 1, "checked": checked, "intersections": listed})
    conditions["pullback_extensors"] = _section("levels", pullback_entries)

    conditions["mesh_summability"] = summability_report(tower)

    # only this evidence reads induced maps, so `lift` and `check-map`,
    # which load this module too, do not load them
    from .induced import induced_homology_map

    evidence_entries = [
        {"bond": idx + 1, "degrees": {k: induced_homology_map(bond, k) for k in range(n)}}
        for idx, bond in enumerate(tower.bonds)
    ]
    homology_evidence = _section("bonds", evidence_entries)

    sections = [*conditions.values(), homology_evidence]
    conclusion = conjoin(section["status"] for section in sections)
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


def _section(key: str, entries: list) -> dict:
    """A certificate section: its entries under `key` and its status, the
    conjunction of every verdict in them in the order they were recorded."""
    return {"status": conjoin(_verdicts_in(entries)), key: entries}


def _verdicts_in(value):
    """The verdicts in a report's dicts and lists, depth first in order; a
    verdict's own witness is not searched."""
    if isinstance(value, Verdict):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _verdicts_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from _verdicts_in(item)


def summability_report(tower: Tower) -> dict:
    """Exact meshes, per-bond Lipschitz constants, increment-bound tables for
    every starting level, and the geometric tail data.  The meshes and cone
    bounds of the star covers are closed forms in each level's dimension
    (`star_cover_bounds`), so no level is subdivided or searched here.

    The quotient is below 1 for every tower of vertex-star covers, whatever
    its scales.  With cone bound c_m = 2·r(d_m)·λ_m at level m (scale λ_m,
    dimension d_m) and L_m = λ_m·best_m/(2·λ_{m+1}), where best_m is the
    largest image distance of an edge at scale 1, each ratio is
    L_m·c_{m+1}/c_m = best_m·r(d_{m+1})/(2·r(d_m)).  A quasi-simplicial bond
    sends an edge onto a chain a ⊆ b of simplices of level m, whose
    barycentres lie 2 − 2|a|/|b| ≤ 2 − 2/(d_m + 1) = r_B(d_m) apart.  So a
    ratio is at most r_B(d_{m+1})/2 for barycentric stars and r_B(d_m)/2
    for open ones (r_O = 2), and r_B < 2.  The `inconclusive` branch stays as
    the certifying check of that bound."""
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
        images = {v: bond.lookup[v] for v in new_level.vertices}
        new_bond = check_quasi_simplicial(new_level, new_levels[-1], images)
        new_levels.append(new_level)
        new_bonds.append(new_bond)
        current = pre
    return Tower.build(new_levels, new_bonds, tower.scales[m - 1 :], tower.cover_kind)


# ---------------------------------------------------------------------------
# pulled-back cover intersections


def intersection_verdicts(pulled: IndexedCover, n: int, budgets: Budgets):
    """The nerve status of a pulled-back closed cover and, lazily and in
    simplex order, (indices, extensor verdict, simplex count) for each
    non-empty intersection.

    Open towers are certified here too, on the barycentric stars: the open
    vertex stars pull back along a quasi-simplicial bond p to the same nerve
    and pieces.  A source vertex u lies in the pulled-back star of v, closed
    or open, exactly when v ∈ p(u), a simplex of the base.  A source simplex
    s maps onto a chain, so it lies in the closed star exactly when v lies
    in the chain's least element ∩_{u∈s} p(u): the closed intersection over
    σ is the subcomplex induced on W(σ) = {u : σ ⊆ p(u)}.  W(σ) is the
    common core of the open stars; their intersection is its open star (s
    meets every star exactly when the vertex with the top image does),
    which retracts onto that same subcomplex.  Both covers meet exactly
    where some p(u) holds the indices, the closed one at u and the open one
    at the top image of each maximal simplex, so their nerves are equal, as
    are the subsets a nerve budget counts.
    """
    nerve_result = nerve(pulled, budgets)
    subsets = nerve_result.complex.sorted_simplices() if nerve_result.status.is_holds else []

    def verdicts():
        for subset in subsets:
            indices = list(subset)
            piece = pulled.intersection_subcomplex(indices)
            yield indices, subcomplex_verdict(piece, n, budgets), len(piece.simplices)

    return nerve_result.status, verdicts()


def __getattr__(name):
    # `bench/trace_cli.py` looks these up here, where they lived before the
    # lift code moved to `lifts`
    if name in ("single_lift", "tower_lift"):
        from . import lifts

        return getattr(lifts, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
