import random
from fractions import Fraction

import pytest

from polytower.complexes import Complex, subcomplex_from, vertex_key, whole_subcomplex
from polytower.maps import VertexMap, identity_qsmap, is_surjective
from polytower.points import apply, make_point
from polytower.plmaps import PartialPLMap
from polytower.lifts import ThreadApprox, single_lift, tower_lift
from polytower.towers import (
    MalformedTowerError,
    Tower,
    regularity_report,
    restrict_tower,
    summability_report,
    verify_tower,
)
from polytower.generators import (
    circle,
    cylinder_map,
    cylinder_tower,
    projective_plane,
    random_tower,
    simplex,
    subdivision_tower,
)
from polytower.stars import (
    IndexedCover,
    OpenStarSet,
    cover_B,
    cover_O,
    nerve,
    open_intersection,
    pullback_cover,
)
from polytower.verdicts import Budgets, Verdict

from util import (
    barycentric_core_stars,
    cover_rule_mismatches,
    distance,
    from_vertex_images,
    open_pullback_by_fibers,
    pullback_star_cover,
    scan_open_intersection,
    vertex_point,
)


class TestTowerBuild:
    def test_default_scales(self):
        t = subdivision_tower(simplex(2), 3)
        assert t.scales == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))

    def test_mismatched_bond_rejected(self):
        a, b = simplex(1), simplex(2)
        bond = identity_qsmap(a)
        with pytest.raises(MalformedTowerError):
            Tower.build([b, bond.source], [bond])

    def test_refusals(self):
        k = simplex(1)
        bond = identity_qsmap(k)
        plain = VertexMap.build(bond.source, k, {v: v[0] for v in bond.source.vertices})
        for levels, bonds, message in (
            ([], [], "a tower needs at least one level"),
            ([k, bond.source], [], "a tower with M levels needs M-1 bonds"),
            ([k, bond.source], [plain], "bonds must be quasi-simplicial maps"),
        ):
            with pytest.raises(MalformedTowerError, match=message):
                Tower.build(levels, bonds)

    def test_single_level(self):
        t = Tower.build([simplex(2)], [])
        assert t.depth() == 1


class TestRegularityReport:
    def test_identity_subdivision_holds(self):
        p = identity_qsmap(simplex(1))
        for n in (1, 2, 3):
            report = regularity_report(p, n)
            assert report["aggregate"].is_holds
            # entries list only the simplices that do not hold
            assert report["entries"] == []
            assert report["checked"] == len(p.target.simplices)

    def test_cylinder_holds_at_one(self):
        assert regularity_report(cylinder_map(), 1)["aggregate"].is_holds

    def test_cylinder_fails_at_two_on_circle_fibers(self):
        report = regularity_report(cylinder_map(), 2)
        assert report["aggregate"].is_fails
        # every vertex fiber is a circle; the headline witness is the
        # canonically first one and the midpoint fiber is among the failures
        assert report["aggregate"].witness["delta"] == (("u",),)
        failing = {e["delta"]: e for e in report["entries"] if e["verdict"].is_fails}
        middle = failing[((("u", "v")),)]
        assert middle["verdict"].witness == {"betti": 1, "torsion": []}
        assert middle["preimage_size"] == 6  # three vertices and three edges

    def test_constant_map_reports_nonsurjectivity(self):
        from polytower.maps import check_quasi_simplicial

        k = simplex(2)
        base = simplex(1, ["u", "v"])
        p = check_quasi_simplicial(k, base, {v: ("u",) for v in k.vertices})
        report = regularity_report(p, 1)
        assert report["aggregate"].is_fails
        assert any(e["nonsurjective"] for e in report["entries"])

    def test_preimages_read_the_fibers(self, monkeypatch):
        # every preimage is a union of simplex fibers: no induced subcomplex
        # of the source is built
        from polytower import complexes

        bonds = list(subdivision_tower(simplex(2), 3).bonds) + [cylinder_map()]
        calls = []
        original = complexes._induced_tops
        monkeypatch.setattr(complexes, "_induced_tops", lambda k, w: calls.append(w) or original(k, w))
        for bond in bonds:
            regularity_report(bond, 2)
        assert calls == []


class TestVerifyTower:
    def test_subdivision_tower_holds(self):
        t = subdivision_tower(simplex(2), 3)
        cert = verify_tower(t, 2)
        assert cert.conclusion.is_holds
        pullbacks = cert.conditions["pullback_extensors"]
        assert pullbacks["status"].is_holds
        # every nerve simplex of each pull-back is judged, and none is listed
        assert len(pullbacks["levels"]) == len(t.bonds)
        for idx, (level, bond) in enumerate(zip(pullbacks["levels"], t.bonds)):
            assert level["intersections"] == []
            assert level["checked"] == len(nerve(pullback_cover(bond, cover_B(t.levels[idx]))).complex.simplices) > 0
        summability = cert.conditions["mesh_summability"]
        assert summability["status"].is_holds
        assert summability["contraction_quotient"] < 1
        assert summability["tail_bound_after_depth"] is not None

    def test_cylinder_tower_fails_at_two_with_witness(self):
        cert = verify_tower(cylinder_tower(), 2)
        assert cert.conclusion.is_fails
        bond = cert.conditions["bond_regularity"]["bonds"][0]
        report = bond["regularity"]
        assert report["aggregate"].is_fails
        failing = {e["delta"]: e for e in report["entries"] if e["verdict"].is_fails}
        assert failing[(("u", "v"),)]["verdict"].witness == {"betti": 1, "torsion": []}

    def test_cylinder_tower_holds_at_one(self):
        cert = verify_tower(cylinder_tower(), 1)
        assert cert.conclusion.is_holds

    def test_single_level_holds_vacuously(self):
        cert = verify_tower(Tower.build([simplex(2)], []), 2)
        assert cert.conclusion.is_holds

    def test_homology_evidence_iso_on_certified(self):
        t = subdivision_tower(simplex(2), 3)
        cert = verify_tower(t, 2)
        assert cert.homology_evidence["status"].is_holds

    def test_budget_exhaustion_is_inconclusive(self):
        # a closed tetrahedron needs more than one rewrite, so regularity is
        # not certified and the pull-back pieces are judged too
        t = subdivision_tower(simplex(3), 2)
        cert = verify_tower(t, 2, Budgets(pi1_steps=1))
        assert cert.conclusion.is_inconclusive

    def test_open_star_cover_kind_certifies(self):
        t = subdivision_tower(simplex(2), 2)
        t_open = Tower.build(t.levels, t.bonds, t.scales, cover_kind="O")
        cert = verify_tower(t_open, 2)
        assert cert.conclusion.is_holds
        assert cert.conditions["mesh_summability"]["contraction_quotient"] < 1

    def test_open_tower_builds_no_open_cover(self, monkeypatch):
        # its pulled-back intersections are certified on the barycentric
        # stars, and an open intersection records no simplex count
        from polytower import stars, towers

        calls = {"cover_B": 0, "cover_O": 0}
        for name in calls:
            original = getattr(stars, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(stars, name, counted)
            monkeypatch.setattr(towers, name, counted, raising=False)
        # a regular tower's pieces are read off the fiber lemma: no cover
        t = subdivision_tower(simplex(2), 3)
        cert = verify_tower(Tower.build(t.levels, t.bonds, t.scales, cover_kind="O"), 2)
        assert cert.conclusion.is_holds
        assert calls == {"cover_B": 0, "cover_O": 0}
        # regularity is not certified within one rewrite, so the pieces are
        # judged, and the ones that are not certified either are listed
        t = subdivision_tower(simplex(3), 2)
        cert = verify_tower(Tower.build(t.levels, t.bonds, t.scales, cover_kind="O"), 2, Budgets(pi1_steps=1))
        assert cert.conclusion.is_inconclusive
        entries = [e for level in cert.conditions["pullback_extensors"]["levels"] for e in level["intersections"]]
        assert entries and all(e["simplices"] is None for e in entries)
        assert calls == {"cover_B": 1, "cover_O": 0}
        # the open cylinder tower lists the pieces that fail at n = 2
        t = cylinder_tower()
        cert = verify_tower(Tower.build(t.levels, t.bonds, t.scales, cover_kind="O"), 2)
        assert cert.conclusion.is_fails
        entries = [e for level in cert.conditions["pullback_extensors"]["levels"] for e in level["intersections"]]
        assert entries and all(e["simplices"] is None for e in entries)
        assert calls == {"cover_B": 2, "cover_O": 0}

    def test_covers_and_lipschitz_constants_built_once(self, monkeypatch):
        # one cover per bond target, built where its pull-back reads it, and
        # one constant per bond, shared by the lipschitz condition and the
        # summability report; regularity is not certified within one
        # rewrite, so every pull-back is computed
        from polytower import maps, towers

        calls = {"cover_B": 0, "lipschitz_constant": 0}
        for module, name in ((towers, "cover_B"), (maps, "lipschitz_constant")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cert = verify_tower(subdivision_tower(simplex(3), 3), 2, Budgets(pi1_steps=1))
        assert cert.conclusion.is_inconclusive
        assert cert.conditions["bond_regularity"]["status"].is_inconclusive
        assert calls == {"cover_B": 2, "lipschitz_constant": 2}

    @pytest.mark.parametrize("kind", ["B", "O"])
    def test_top_level_never_subdivided(self, monkeypatch, kind):
        # the summability bounds are read from the levels, and covers are
        # built only at bond targets, so the last level is never subdivided;
        # regularity is not certified within one rewrite, so the covers are
        # built
        import sys

        from polytower import complexes

        t = subdivision_tower(simplex(3), 3)
        t = Tower.build(t.levels, t.bonds, t.scales, cover_kind=kind)
        original = complexes.barycentric_subdivision
        subdivided = []

        def recording(k):
            subdivided.append(k)
            return original(k)

        for name, module in list(sys.modules.items()):
            if name.startswith("polytower") and getattr(module, "barycentric_subdivision", None) is original:
                monkeypatch.setattr(module, "barycentric_subdivision", recording)
        cert = verify_tower(t, 2, Budgets(pi1_steps=1))
        assert cert.conclusion.is_inconclusive
        assert all(k != t.levels[-1] for k in subdivided)
        assert subdivided or kind == "O"  # the B covers of the bond targets pass through the spy

    def test_a_verified_tower_leaves_no_live_memory(self):
        # the bounded `vertex_key` memo keeps the names it has keyed, so a
        # first build of the tower keys them before the reading is taken
        import gc
        import tracemalloc

        def triangle():
            return Complex.from_maximal([["live0", "live1", "live2"]])

        subdivision_tower(triangle(), 4)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tower = subdivision_tower(triangle(), 4)
            assert verify_tower(tower, 2).conclusion.is_holds
            del tower
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before <= 250_000


class TestNerveTheorem:
    def test_certified_pull_backs_keep_the_low_homology(self):
        # where every pulled-back intersection is certified (n - 1)-connected,
        # the nerve theorem gives H_k(nerve) = H_k(source) for k < n; the
        # homology is computed afresh, apart from the intersection verdicts
        from polytower.connectivity import homology
        from polytower.towers import intersection_verdicts
        from util import corpus_towers

        checked, refused = 0, []
        for label, tower in corpus_towers():
            for idx, bond in enumerate(tower.bonds):
                pulled = pullback_cover(bond, cover_B(tower.levels[idx]))
                for n in (1, 2):
                    status, verdicts = intersection_verdicts(pulled, n, Budgets())
                    if not (status.is_holds and all(v.is_holds for _, v, _ in verdicts)):
                        refused.append((label, idx + 1, n))
                        continue
                    complex_ = nerve(pulled).complex
                    for k in range(n):
                        ours, theirs = homology(complex_, k), homology(bond.source, k)
                        assert (ours.betti, ours.torsion) == (theirs.betti, theirs.torsion), (label, idx + 1, n, k)
                    checked += 1
        assert refused == [("cylinder", 1, 2)]
        assert checked == 2 * sum(t.depth() - 1 for _, t in corpus_towers()) - 1


class TestPullbackListing:
    """A pull-back level of the certificate lists exactly the pieces that do
    not hold in the reference verdict table of `util.pullback_star_cover`,
    in its order, and counts every piece of that table."""

    def test_listed_pieces_are_the_reference_failures(self):
        from util import corpus_towers

        judged, listed = 0, 0
        for label, tower in corpus_towers():
            opened = Tower.build(tower.levels, tower.bonds, tower.scales, cover_kind="O")
            for t in (tower, opened):
                for n in (1, 2):
                    levels = verify_tower(t, n).conditions["pullback_extensors"]["levels"]
                    assert [level["level"] for level in levels] == list(range(1, tower.depth()))
                    for i, level in enumerate(levels, 1):
                        cover, reference = pullback_star_cover(tower, i, i + 1, "B", n)
                        assert "status" not in reference, (label, i, n)
                        where = (label, t.cover_kind, i, n)
                        failing = [key for key, verdict in reference.items() if not verdict.is_holds]
                        assert [tuple(e["indices"]) for e in level["intersections"]] == failing, where
                        assert [e["status"] for e in level["intersections"]] == [reference[key] for key in failing], where
                        sizes = [len(cover.intersection_subcomplex(list(key)).simplices) if t.cover_kind == "B" else None for key in failing]
                        assert [e["simplices"] for e in level["intersections"]] == sizes, where
                        assert level["checked"] == len(reference), where
                        judged += len(reference)
                        listed += len(failing)
        # the cylinder's three pieces fail at n = 2, closed and open
        assert (listed, judged) == (6, 884)

    def test_a_mutant_verdict_is_listed_alone(self, monkeypatch):
        # one piece judged inconclusive is the one entry listed, and the
        # section turns inconclusive; regularity, which shares the verdict
        # routine, judges no equal subcomplex.  A bond whose regularity holds
        # has its pieces read off the fiber lemma, so the rule is switched
        # off to have them judged
        from polytower import towers

        monkeypatch.setattr(towers, "_fiber_lemma_applies", lambda bond_entry: False)
        tower = subdivision_tower(simplex(2), 3)
        cover, reference = pullback_star_cover(tower, 1, 2, "B", 2)
        assert ("a",) in reference and all(verdict.is_holds for verdict in reference.values())
        piece = cover.intersection_subcomplex(["a"])
        real = towers.subcomplex_verdict

        def mutant(sub, n, budgets):
            if sub.parent is piece.parent and sub.simplices == piece.simplices:
                return Verdict.inconclusive("mutant")
            return real(sub, n, budgets)

        monkeypatch.setattr(towers, "subcomplex_verdict", mutant)
        cert = verify_tower(tower, 2)
        section = cert.conditions["pullback_extensors"]
        assert section["status"] == Verdict.inconclusive("mutant")
        listed = [(level["level"], e["indices"], e["status"]) for level in section["levels"] for e in level["intersections"]]
        assert listed == [(1, ["a"], Verdict.inconclusive("mutant"))]
        assert [level["checked"] for level in section["levels"]] == [len(reference), len(pullback_star_cover(tower, 2, 3, "B", 2)[1])]
        assert cert.conditions["bond_regularity"]["status"].is_holds
        assert cert.conclusion.is_inconclusive


class TestFiberTheorem:
    def test_surjective_regular_bonds_keep_the_low_homology(self):
        # a surjective bond whose closed-simplex preimages are all
        # (n - 1)-connected is n-connected (Quillen, Adv. Math. 1978;
        # Björner, JCTA 2003), so it induces isomorphisms below degree n and
        # its homology evidence holds there; the checks are the library's
        # stages, and no certificate is built
        from polytower.induced import induced_homology_map
        from util import corpus_towers

        checked, refused = 0, []
        for label, tower in corpus_towers():
            for idx, bond in enumerate(tower.bonds):
                onto = is_surjective(bond).is_holds
                for n in (1, 2, 3):
                    if not (onto and regularity_report(bond, n)["aggregate"].is_holds):
                        refused.append((label, idx + 1, n))
                        continue
                    for k in range(n):
                        assert induced_homology_map(bond, k).is_holds, (label, idx + 1, n, k)
                    checked += 1
        assert refused == [("cylinder", 1, 2), ("cylinder", 1, 3)]
        assert checked == 3 * sum(t.depth() - 1 for _, t in corpus_towers()) - 2

    def test_derived_sections_equal_the_computed_ones(self):
        # `verify_tower` reads the pull-back level and the homology evidence
        # of a surjective regular bond off the fiber lemma; each is computed
        # here, the pieces on the closed or the open pulled-back stars, and
        # must equal what the certificate prints
        from polytower.induced import induced_homology_map
        from util import corpus_towers

        derived, refused = 0, []
        for label, tower in corpus_towers():
            for kind in "BO":
                t = Tower.build(tower.levels, tower.bonds, tower.scales, cover_kind=kind)
                for n in (1, 2, 3):
                    cert = verify_tower(t, n)
                    for idx, bond in enumerate(t.bonds):
                        where = (label, kind, idx + 1, n)
                        entry = cert.conditions["bond_regularity"]["bonds"][idx]
                        if not (entry["surjective"].is_holds and entry["regularity"]["aggregate"].is_holds):
                            refused.append(where)
                            continue
                        cover, reference = pullback_star_cover(t, idx + 1, idx + 2, kind, n)
                        assert nerve(cover).complex.simplices == t.levels[idx].simplices, where
                        computed = {
                            "level": idx + 1,
                            "checked": len(reference),
                            "intersections": [key for key, verdict in reference.items() if not verdict.is_holds],
                        }
                        assert cert.conditions["pullback_extensors"]["levels"][idx] == computed, where
                        degrees = {k: induced_homology_map(bond, k) for k in range(n)}
                        assert cert.homology_evidence["bonds"][idx]["degrees"] == degrees, where
                        derived += 1
        assert refused == [("cylinder", kind, 1, n) for kind in "BO" for n in (2, 3)]
        assert derived == 6 * sum(t.depth() - 1 for _, t in corpus_towers()) - 4

    def test_a_bond_that_is_not_regular_is_computed(self, monkeypatch):
        # the cylinder's bond is onto, and its fibers are circles, so at
        # n = 2 its pieces and its evidence are computed and fail; a rule
        # that skipped the regularity check would print them as holding
        from polytower import towers

        def check_cylinder():
            cert = verify_tower(cylinder_tower(), 2)
            circle = Verdict.fails(witness={"betti": 1, "torsion": []}, reason="non-trivial first homology")
            (level,) = cert.conditions["pullback_extensors"]["levels"]
            assert [(e["indices"], e["status"]) for e in level["intersections"]] == [
                (["u"], circle), (["v"], circle), (["u", "v"], circle)
            ]
            (evidence,) = cert.homology_evidence["bonds"]
            assert evidence["degrees"] == {
                0: Verdict.holds(),
                1: Verdict.fails(
                    witness={"source": {"betti": 1, "torsion": []}, "target": {"betti": 0, "torsion": []}},
                    reason="homology groups differ in degree 1",
                ),
            }

        check_cylinder()
        monkeypatch.setattr(towers, "_fiber_lemma_applies", lambda bond_entry: bond_entry["surjective"].is_holds)
        with pytest.raises(AssertionError):
            check_cylinder()


def summability_cases() -> list:
    """(tower label, cover kind, tower) triples over both cover kinds: every
    corpus tower, and the 3-level random towers 0-39 at the default scales
    and at the scale bases 3, 8/7 and 5."""
    from util import corpus_towers

    towers = corpus_towers()
    for seed in range(40):
        towers.append(("random %d" % seed, random_tower(seed, 3)))
        for base in (Fraction(3), Fraction(8, 7), Fraction(5)):
            scales = [1 / base ** (i + 1) for i in range(3)]
            towers.append(("random %d" % seed, random_tower(seed, 3, scales)))
    return [(label, kind, Tower.build(t.levels, t.bonds, t.scales, kind)) for label, t in towers for kind in "BO"]


class TestSummability:
    def test_vertex_star_covers_always_contract(self):
        # the docstring's bound: each ratio is best_m·r(d_{m+1})/(2·r(d_m)),
        # whatever the scales, and at most r_B(d)/2 < 1
        cases = summability_cases()
        assert len(cases) == 342
        quotients: dict = {}
        for label, kind, tower in cases:
            report = summability_report(tower)
            assert report["status"].is_holds, (label, kind)
            assert report["contraction_quotient"] < 1, (label, kind)
            quotients.setdefault((label, kind), set()).add(report["contraction_quotient"])
        assert all(len(q) == 1 for q in quotients.values())  # the scales cancel
        assert max(q for qs in quotients.values() for q in qs) == Fraction(3, 4)

    def test_growing_cone_bounds_are_inconclusive(self, tmp_path, capsys, monkeypatch):
        # the bound above keeps every vertex-star tower out of the
        # `inconclusive` branch; cone bounds that grow as the scales shrink
        # reach it, and the verdict then certifies nothing
        import json

        from polytower import cli, formats, towers

        original = towers.star_cover_bounds

        def growing(kind, level, scale):
            value, cone = original(kind, level, scale)
            return value, cone / scale**2

        monkeypatch.setattr(towers, "star_cover_bounds", growing)
        tower = subdivision_tower(simplex(2), 2)
        report = summability_report(tower)
        assert report["contraction_quotient"] == Fraction(8, 3)
        assert report["status"] == Verdict.inconclusive("increment bounds do not contract (quotient 8/3)")
        assert report["tail_bound_after_depth"] is None
        path = tmp_path / "tower.json"
        path.write_text(formats.dumps_canonical(formats.tower_to_obj(tower)))
        assert cli.main(["verify-tower", str(path), "--n", "2"]) == 2
        certificate = json.loads(capsys.readouterr().out)
        assert certificate["conditions"]["mesh_summability"]["status"]["status"] == "inconclusive"
        assert certificate["conclusion"]["status"] == "inconclusive"

    def test_monotone_tail(self):
        t = subdivision_tower(simplex(2), 4)
        report = summability_report(t)
        rows = report["tables"][1]["rows"]
        bounds = [r["increment_bound"] for r in rows]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= report["contraction_quotient"] * a

    def test_deeper_start_smaller_sum(self):
        t = subdivision_tower(simplex(2), 4)
        report = summability_report(t)
        sums = [report["tables"][k]["partial_sum"] for k in (1, 2, 3)]
        assert sums[0] >= sums[1] >= sums[2]

    def test_bounds_read_each_level_dimension(self, monkeypatch):
        # the star-cover bounds are closed forms in each level's dimension:
        # no maximal-simplex index and no pair shape is consulted
        from polytower import stars
        from polytower.complexes import Complex

        towers = [subdivision_tower(simplex(2), 3), subdivision_tower(simplex(3), 2)]
        towers += [Tower.build(t.levels, t.bonds, cover_kind="O") for t in towers]
        calls = []
        maximal_at, diameter_bounds = Complex.maximal_at, stars._diameter_bounds
        monkeypatch.setattr(Complex, "maximal_at", lambda k, v: calls.append(v) or maximal_at(k, v))
        monkeypatch.setattr(stars, "_diameter_bounds", lambda e: calls.append("shapes") or diameter_bounds(e))
        for tower in towers:
            report = summability_report(tower)
            assert report["mesh"][-1] > 0
        assert calls == []

    def test_point_tower_all_zero(self):
        t = subdivision_tower(simplex(0, ["p"]), 3)
        report = summability_report(t)
        assert report["status"].is_holds
        assert all(m == 0 for m in report["mesh"])
        assert report["tables"][1]["partial_sum"] == 0


class TestRestrict:
    def test_restrict_to_whole_level_is_tail(self):
        t = subdivision_tower(simplex(2), 3)
        tail = restrict_tower(t, 2, whole_subcomplex(t.levels[1]))
        assert tail.depth() == 2
        assert tail.levels[0] == t.levels[1]
        assert tail.levels[1] == t.levels[2]
        assert tail.scales == t.scales[1:]

    def test_restrict_subdivision_tower_to_edge(self):
        t = subdivision_tower(simplex(2), 3)
        edge = subcomplex_from(t.levels[0], [["a", "b"]])
        restricted = restrict_tower(t, 1, edge)
        expected = subdivision_tower(Complex.from_maximal([["a", "b"]]), 3)
        for ours, theirs in zip(restricted.levels, expected.levels):
            assert ours.f_vector() == theirs.f_vector()
        cert = verify_tower(restricted, 2)
        assert cert.conclusion.is_holds

    def test_restrict_cylinder_tower_to_vertex(self):
        t = cylinder_tower()
        vertex = subcomplex_from(t.levels[0], [["u"]])
        restricted = restrict_tower(t, 1, vertex)
        assert sorted(restricted.levels[1].vertices) == ["b0", "b1", "b2"]
        assert len(restricted.levels[1].simplices_of_dim(1)) == 3

    def test_restriction_coherence(self):
        # a certified tower's restriction keeps its bond hypotheses
        t = subdivision_tower(simplex(2), 3)
        edge = subcomplex_from(t.levels[0], [["a", "b"]])
        restricted = restrict_tower(t, 1, edge)
        for bond in restricted.bonds:
            assert is_surjective(bond).is_holds
            assert regularity_report(bond, 2)["aggregate"].is_holds


class TestPullbackStarCover:
    def test_level_equal_is_the_cover(self):
        t = subdivision_tower(simplex(2), 2)
        cover, verdicts = pullback_star_cover(t, 1, 1, "B", n=2)
        base_cover = cover_B(t.levels[0])
        assert cover.indices == base_cover.indices
        assert all(v.is_holds for v in verdicts.values())

    def test_subdivision_depth_two_cone_preimages(self):
        t = subdivision_tower(simplex(2), 2)
        cover, verdicts = pullback_star_cover(t, 1, 2, "B", n=2)
        assert len(cover.indices) == 3
        assert all(v.is_holds for v in verdicts.values())
        singles = [v for key, v in verdicts.items() if len(key) == 1]
        assert len(singles) == 3

    def test_cylinder_pair_intersection_fails_at_two(self):
        t = cylinder_tower()
        cover, verdicts = pullback_star_cover(t, 1, 2, "B", n=2)
        pair = verdicts[("u", "v")]
        assert pair.is_fails
        assert pair.witness == {"betti": 1, "torsion": []}

    def test_cylinder_pair_intersection_connected_at_one(self):
        t = cylinder_tower()
        _, verdicts = pullback_star_cover(t, 1, 2, "B", n=1)
        assert all(v.is_holds for v in verdicts.values())


def common_core_misses(cover) -> tuple:
    """(the nerve simplices of an open cover whose intersection is not the
    set of simplices meeting the common core, every nerve simplex)."""
    subsets = nerve(cover).complex.simplices
    misses = 0
    for subset in subsets:
        cores = [cover.element(i).core for i in subset]
        common = frozenset.intersection(*cores)
        misses += open_intersection(cover.ambient, cores) != scan_open_intersection(cover.ambient, [common])
    return misses, len(subsets)


class TestCommonCoreDecides:
    """An intersection of open stars pulled back from a bond's base target
    is the open star of the common core, which retracts onto the subcomplex
    induced on that core (`util.common_core_piece`).  Both pulled-back
    covers, open and barycentric, must give that piece and the same nerve,
    as `towers.intersection_verdicts` certifies open towers on the
    barycentric stars."""

    @staticmethod
    def towers():
        out = [("random tower %d" % seed, random_tower(seed)) for seed in range(16)]
        out += [
            ("triangle", subdivision_tower(simplex(2), 4)),
            ("tetrahedron", subdivision_tower(simplex(3), 3)),
            ("rp2", subdivision_tower(projective_plane(), 3)),
            ("circle", subdivision_tower(circle(), 4)),
            ("cylinder", cylinder_tower()),
        ]
        return out

    def test_pulled_back_intersections_are_stars_of_the_common_core(self):
        checked = 0
        for label, tower in self.towers():
            pulled = [
                ("bond %d" % (idx + 1), pullback_cover(bond, cover_O(tower.levels[idx])))
                for idx, bond in enumerate(tower.bonds)
            ]
            for i in range(1, tower.depth() + 1):
                for m in range(i + 2, tower.depth() + 1):
                    pulled.append(("levels %d to %d" % (i, m), pullback_star_cover(tower, i, m, "O")[0]))
            for where, cover in pulled:
                misses, subsets = common_core_misses(cover)
                assert misses == 0, (label, where)
                checked += subsets
        assert checked == 1290

    def test_the_check_fails_on_a_pullback_from_the_subdivided_target(self):
        # stars of the subdivided target pulled back through their vertex
        # fibers: here the common core does not decide
        tower = subdivision_tower(simplex(2), 3)
        counts = [common_core_misses(open_pullback_by_fibers(bond, cover_O(bond.target))) for bond in tower.bonds]
        assert tuple(map(sum, zip(*counts))) == (114, 146)

    def test_pullback_by_fibers_reads_the_assignment(self):
        assert not hasattr(VertexMap, "vertex_fibers")
        for bond in subdivision_tower(simplex(2), 3).bonds:
            cover = cover_O(bond.target)
            for i, element in open_pullback_by_fibers(bond, cover).elements:
                expected = frozenset(u for u in bond.source.vertices if bond(u) in cover.element(i).core)
                assert element.core == expected, i

    @staticmethod
    def open_covers_on_bonds(tower) -> list:
        """(where, bond, open cover of the bond's base target): the vertex
        stars of each level, and the stars of every higher level pulled back
        to it, whose cores hold several vertices."""
        out = []
        for idx, bond in enumerate(tower.bonds):
            out.append(("bond %d" % (idx + 1), bond, cover_O(tower.levels[idx])))
            for i in range(1, idx + 1):
                out.append(("levels %d to %d" % (i, idx + 2), bond, pullback_star_cover(tower, i, idx + 1, "O")[0]))
        return out

    def test_open_and_barycentric_pull_backs_agree(self):
        checked = 0
        for label, tower in self.towers():
            # the barycentric stars of a bond target, which certify its
            # pull-back, are the counterparts of its open vertex stars
            for level in tower.levels[:-1]:
                assert barycentric_core_stars(cover_O(level)).elements == cover_B(level).elements, label
            for where, bond, cover in self.open_covers_on_bonds(tower):
                pulled_open = pullback_cover(bond, cover)
                pulled_closed = pullback_cover(bond, barycentric_core_stars(cover))
                assert cover_rule_mismatches(pulled_open, pulled_closed) == [], (label, where)
                subsets = nerve(pulled_open).subsets_checked
                short = Budgets(nerve_subsets=subsets - 1)
                assert cover_rule_mismatches(pulled_open, pulled_closed, short) == [], (label, where)
                checked += subsets
        assert checked == 1290

    def test_dropping_a_core_vertex_fails_the_cross_check(self):
        for label, tower in self.towers():
            for where, bond, cover in self.open_covers_on_bonds(tower):
                pulled_open = pullback_cover(bond, cover)
                pulled_closed = pullback_cover(bond, barycentric_core_stars(cover))
                i, element = next((i, e) for i, e in pulled_open.elements if e.core)
                elements = dict(pulled_open.elements)
                elements[i] = OpenStarSet(element.ambient, element.core - {min(element.core, key=vertex_key)})
                mutated = IndexedCover.build(pulled_open.ambient, "open", elements, star_of=dict(pulled_open.star_of))
                assert cover_rule_mismatches(mutated, pulled_closed), (label, where)


def edge_domain():
    return Complex.from_maximal([["x0", "x1"]])


def renamed(domain, name):
    """Resolve a vertex through however many subdivisions renamed it."""
    candidate = name
    while not domain.has_vertex(candidate):
        candidate = (candidate,)
    return candidate


def inclusion_of_edge(tower) -> PartialPLMap:
    base = tower.levels[0]
    return from_vertex_images(
        edge_domain(), {"x0": "a", "x1": "b"}, base, scale=Fraction(1)
    )


def anchor_thread(tower, domain_vertex="x0", base_vertex="a") -> ThreadApprox:
    assignments = {domain_vertex: []}
    name = base_vertex
    for level in tower.levels:
        assignments[domain_vertex].append(vertex_point(level, name))
        name = (name,) if not isinstance(name, tuple) else (name,)
    return ThreadApprox(tower, assignments)


class TestSingleLift:
    def test_lift_vertex_map_along_cylinder_bond(self):
        t = cylinder_tower()
        bond = t.bonds[0]
        domain = Complex.from_maximal([["x"]])
        f = from_vertex_images(domain, {"x": "u"}, t.levels[0])
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, t.levels[1])
        result = single_lift(bond, "B", f, empty, g0, 1)
        assert result.status.is_holds
        lifted_vertex = result.lift.image_of("x")
        assert apply(bond, lifted_vertex, scale=1).as_dict() == {"u": Fraction(1)}

    def test_lift_path_across_cylinder_bond(self):
        t = cylinder_tower()
        bond = t.bonds[0]
        domain = edge_domain()
        f = from_vertex_images(domain, {"x0": "u", "x1": "v"}, t.levels[0])
        anchor = subcomplex_from(domain, [["x0"]])
        g0 = PartialPLMap.build(
            domain, anchor, {"x0": vertex_point(t.levels[1], "b0")}, t.levels[1]
        )
        result = single_lift(bond, "B", f, anchor, g0, 1)
        assert result.status.is_holds
        assert result.closeness.is_holds
        assert len(result.closeness.witness) >= 2
        anchor_name = renamed(result.lift.domain, "x0")
        assert result.lift.image_of(anchor_name).as_dict() == {"b0": Fraction(1)}

    def test_lift_with_open_star_cover(self):
        t = subdivision_tower(simplex(2), 2)
        bond = t.bonds[0]
        domain = Complex.from_maximal([["x"]])
        f = from_vertex_images(domain, {"x": "a"}, t.levels[0])
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, t.levels[1])
        result = single_lift(bond, "O", f, empty, g0, 2)
        assert result.status.is_holds
        assert apply(bond, result.lift.image_of("x")).as_dict() == {"a": Fraction(1)}

    def test_anchor_equal_to_domain_returns_seed(self):
        t = subdivision_tower(simplex(2), 2)
        bond = t.bonds[0]
        domain = edge_domain()
        f = PartialPLMap.build(
            domain,
            whole_subcomplex(domain),
            {
                "x0": vertex_point(t.levels[0], "a"),
                "x1": make_point(t.levels[0], {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
            },
            t.levels[0],
        )
        whole = whole_subcomplex(domain)
        g0 = PartialPLMap.build(
            domain,
            whole,
            {
                "x0": vertex_point(t.levels[1], ("a",)),
                "x1": vertex_point(t.levels[1], ("a", "b")),
            },
            t.levels[1],
        )
        result = single_lift(bond, "B", f, whole, g0, 2)
        assert result.status.is_holds
        for v in ("x0", "x1"):
            name = renamed(result.lift.domain, v)
            assert result.lift.image_of(name).coords == g0.image_of(v).coords

    @staticmethod
    def _point_lift():
        t = subdivision_tower(simplex(2), 2)
        domain = Complex.from_maximal([["x"]])
        f = from_vertex_images(domain, {"x": "a"}, t.levels[0])
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, t.levels[1])
        return t, f, empty, g0

    def test_inputs_must_agree(self):
        t, f, empty, g0 = self._point_lift()
        bond = t.bonds[0]
        edge = edge_domain()
        other_g0 = PartialPLMap.build(edge, subcomplex_from(edge, []), {}, t.levels[1])
        with pytest.raises(ValueError, match="live on the map's domain"):
            single_lift(bond, "B", f, empty, other_g0, 2)
        partial = PartialPLMap.build(f.domain, empty, {}, t.levels[0])
        with pytest.raises(ValueError, match="must be total"):
            single_lift(bond, "B", partial, empty, g0, 2)
        with pytest.raises(ValueError, match="exactly on the given subcomplex"):
            single_lift(bond, "B", f, whole_subcomplex(f.domain), g0, 2)

    def test_domain_above_the_constructive_range_is_inconclusive(self):
        # a triangle is two-dimensional, more than n = 1 asks for
        t = subdivision_tower(simplex(2), 2)
        domain = Complex.from_maximal([["x", "y", "z"]])
        f = from_vertex_images(domain, {"x": "a", "y": "b", "z": "c"}, t.levels[0])
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, t.levels[1])
        result = single_lift(t.bonds[0], "B", f, empty, g0, 1)
        assert result.status.is_inconclusive and result.lift is None
        assert result.status.reason == "domain dimension exceeds the constructive range"

    def test_non_surjective_bond_is_inconclusive(self):
        from polytower.maps import check_quasi_simplicial

        base = Complex.from_maximal([["a", "b"]])
        bond = check_quasi_simplicial(Complex.from_maximal([["p"]]), base, {"p": ("a",)})
        domain = Complex.from_maximal([["x"]])
        f = from_vertex_images(domain, {"x": "a"}, base)
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, bond.source)
        result = single_lift(bond, "B", f, empty, g0, 1)
        assert result.status.is_inconclusive and result.status.reason == 'bond is not surjective at [["a"],["a","b"]]'

    def test_nerve_budget_is_reported(self):
        t, f, empty, g0 = self._point_lift()
        result = single_lift(t.bonds[0], "B", f, empty, g0, 2, Budgets(nerve_subsets=2))
        assert result.status.is_inconclusive and result.status.reason == "nerve budget exhausted"
        assert result.lift is None and result.witnesses == {}

    @staticmethod
    def _triangle_lift():
        # the two-level random tower 35, whose triangle lift uses the
        # two-cell filler
        t = random_tower(35, 2)
        domain = Complex.from_maximal([["x", "y", "z"]])
        f = from_vertex_images(domain, {"x": "v1", "y": "v2", "z": "v3"}, t.levels[0])
        empty = subcomplex_from(domain, [])
        g0 = PartialPLMap.build(domain, empty, {}, t.levels[1])
        return t, f, empty, g0

    def test_failed_extension_is_returned(self, monkeypatch):
        from polytower import carriers

        monkeypatch.setattr(carriers, "_fill_two_cell", lambda *args: None)
        t, f, empty, g0 = self._triangle_lift()
        result = single_lift(t.bonds[0], "B", f, empty, g0, 2)
        assert result.status.is_inconclusive and "filler budget exhausted" in result.status.reason
        assert result.lift is None and result.witnesses

    def test_closeness_certificate_rechecks_the_projected_lift(self, monkeypatch):
        # carry every cell into the element of the first cell's witness: the
        # extension holds on those targets, and the closeness certificate,
        # which reads each cell's own witness, refuses the lift
        from polytower import lifts
        from polytower.complexes import simplex_sort_key

        real = lifts.carried_extension

        def one_target(seed, source_cover, targets, budgets):
            first = targets[min(targets, key=simplex_sort_key)]
            return real(seed, source_cover, dict.fromkeys(targets, first), budgets)

        monkeypatch.setattr(lifts, "carried_extension", one_target)
        t = subdivision_tower(simplex(2), 2)
        f = inclusion_of_edge(t)
        empty = subcomplex_from(f.domain, [])
        g0 = PartialPLMap.build(f.domain, empty, {}, t.levels[1])
        result = single_lift(t.bonds[0], "B", f, empty, g0, 2)
        assert result.status.is_inconclusive
        assert result.status.reason == "projected lift leaves the witness element"
        assert result.closeness == result.status and result.lift is not None
        assert set(result.witnesses.values()) == {"a", "b"}


class TestTowerLift:
    def test_thread_must_agree_with_the_map_at_the_first_level(self):
        t = subdivision_tower(simplex(2), 2)
        f1 = inclusion_of_edge(t)
        anchor = subcomplex_from(f1.domain, [["x0"]])
        with pytest.raises(ValueError, match="disagree with the map"):
            tower_lift(t, f1, anchor, anchor_thread(t, base_vertex="b"), 2)

    def test_constant_lift_through_point_tower(self):
        t = subdivision_tower(simplex(0, ["p"]), 3)
        domain = edge_domain()
        f1 = from_vertex_images(domain, {"x0": "p", "x1": "p"}, t.levels[0])
        anchor = subcomplex_from(domain, [["x0"]])
        threads = ThreadApprox(
            t, {"x0": [vertex_point(level, level.vertices[0]) for level in t.levels]}
        )
        result = tower_lift(t, f1, anchor, threads, 1)
        assert result.status.is_holds
        assert result.anchored_exactly
        assert result.cauchy["tables"][1]["partial_sum"] == 0

    def test_edge_lift_through_subdivision_tower(self):
        t = subdivision_tower(simplex(2), 3)
        f1 = inclusion_of_edge(t)
        anchor = subcomplex_from(f1.domain, [["x0"]])
        threads = anchor_thread(t)
        result = tower_lift(t, f1, anchor, threads, 2)
        assert result.status.is_holds
        assert result.anchored_exactly
        assert len(result.stages) == 2
        for stage in result.stages:
            assert stage["closeness"].is_holds
        # increment bounds decrease geometrically
        rows = result.cauchy["tables"][1]["rows"]
        bounds = [r["increment_bound"] for r in rows]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        quotient = result.cauchy["contraction_quotient"]
        assert quotient < 1

    def test_witness_search_aligns_only_the_images_it_reads(self, monkeypatch):
        # the benchmark's inconclusive lift: a triangle onto the base
        # triangle, anchored through three levels.  The second bond's
        # search stops at its first uncovered cell after one subdivision;
        # aligning every vertex image before searching cost 49 calls
        from polytower import carriers

        calls = []
        real = carriers.lift_to_subdivision
        monkeypatch.setattr(carriers, "lift_to_subdivision", lambda x, k: calls.append(x) or real(x, k))
        t = subdivision_tower(simplex(2), 3)
        domain = Complex.from_maximal([["x0", "x1", "x2"]])
        f1 = from_vertex_images(domain, {"x0": "a", "x1": "b", "x2": "c"}, t.levels[0], scale=Fraction(1))
        anchor = subcomplex_from(domain, [["x0"]])
        result = tower_lift(t, f1, anchor, anchor_thread(t), 2)
        assert result.status == Verdict.inconclusive("no cover element contains some image hull after one subdivision")
        assert len(calls) < 49

    def test_thread_compatibility_enforced(self):
        t = subdivision_tower(simplex(2), 2)
        broken = ThreadApprox(
            t,
            {
                "x0": [
                    vertex_point(t.levels[0], "a"),
                    vertex_point(t.levels[1], ("b",)),
                ]
            },
        )
        with pytest.raises(ValueError):
            broken.validate()

    def test_loop_into_cylinder_tower_inconclusive_at_two(self):
        # the circle maps onto the segment; covers fail the extensor
        # condition at degree two, so the lift is not fabricated
        t = cylinder_tower()
        domain = Complex.from_maximal([["y0", "y1"], ["y1", "y2"], ["y0", "y2"]])
        f1 = from_vertex_images(
            domain, {"y0": "u", "y1": "v", "y2": "u"}, t.levels[0]
        )
        anchor = subcomplex_from(domain, [["y0"]])
        threads = ThreadApprox(
            t,
            {
                "y0": [
                    vertex_point(t.levels[0], "u"),
                    vertex_point(t.levels[1], "b0"),
                ]
            },
        )
        result = tower_lift(t, f1, anchor, threads, 2)
        assert result.status.is_inconclusive
        assert "extensor" in result.status.reason

    def test_loop_lifts_at_one(self):
        t = cylinder_tower()
        domain = Complex.from_maximal([["y0", "y1"], ["y1", "y2"], ["y0", "y2"]])
        f1 = from_vertex_images(
            domain, {"y0": "u", "y1": "v", "y2": "u"}, t.levels[0]
        )
        anchor = subcomplex_from(domain, [["y0"]])
        threads = ThreadApprox(
            t,
            {
                "y0": [
                    vertex_point(t.levels[0], "u"),
                    vertex_point(t.levels[1], "b0"),
                ]
            },
        )
        result = tower_lift(t, f1, anchor, threads, 1)
        assert result.status.is_holds
        assert result.anchored_exactly


class TestCauchySampled:
    def test_stagewise_projections_within_bounds(self):
        # evaluate the stagewise approximations at the original vertices and
        # compare their gaps against the reported increment bounds
        t = subdivision_tower(simplex(2), 3)
        f1 = inclusion_of_edge(t)
        anchor = subcomplex_from(f1.domain, [["x0"]])
        result = tower_lift(t, f1, anchor, anchor_thread(t), 2)
        assert result.status.is_holds
        maps = [f1] + [s["lift"] for s in result.stages]

        def project_to(level_index, stage_index, vertex):
            name = renamed(maps[stage_index].domain, vertex)
            point = maps[stage_index].image_of(name)
            for idx in range(stage_index - 1, level_index - 1, -1):
                point = apply(t.bonds[idx], point)
            return make_point(t.levels[level_index], point.as_dict(), t.scales[level_index])

        for k in range(t.depth()):
            rows = result.cauchy["tables"][k + 1]["rows"]
            for m in range(k, t.depth() - 1):
                bound = rows[m - k]["increment_bound"]
                for v in ("x0", "x1"):
                    a = project_to(k, m, v)
                    b = project_to(k, m + 1, v)
                    assert distance(a, b) <= bound
