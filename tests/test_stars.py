import random
from fractions import Fraction

import pytest

from polytower.complexes import (
    Complex,
    UnknownVertexError,
    barycentric_subdivision,
    chain_min,
    induced_subcomplex,
    subcomplex_from,
    vertex_key,
    whole_subcomplex,
)
from polytower.points import barycenter_point, flatten_point, make_point
from polytower.generators import cylinder_tower, projective_plane, random_tower, simplex, subdivision_tower
from polytower.maps import is_surjective
from polytower.plmaps import PartialPLMap
from polytower.carriers import align_point, element_contains_hull
from polytower.stars import (
    IndexMismatchError,
    IndexedCover,
    OpenStarSet,
    barycentric_vertex_star,
    cone_geodesic_diameter_bound,
    cover_B,
    cover_O,
    mesh,
    nerve,
    open_intersection,
    open_vertex_star,
    pullback_cover,
    star_cover_bounds,
)
from polytower.verdicts import Budgets

from util import (
    are_close,
    barycentric_star,
    barycentric_star_contains_point,
    closed_star_cover,
    covers_isomorphic,
    cylinder_map,
    deformation_phi,
    distance,
    from_vertex_images,
    in_element,
    kernel_complexes,
    meets_core,
    open_pullback_by_fibers,
    open_star_of_subdivided,
    random_complex,
    random_point,
    random_qsmap,
    random_surjective_vertex_map,
    random_vertex_subsets,
    scan_first_uncovered,
    scan_nerve,
    scan_open_intersection,
    scan_preimage_of_subdivided,
    simplex_complex,
    sphere_complex,
    vertex_point,
)


class TestOpenStar:
    def test_vertex_star_in_triangle(self):
        k = simplex_complex(["a", "b", "c"])
        star = open_vertex_star(k, "a")
        assert star.avoided.simplices == frozenset({("b",), ("c",), ("b", "c")})
        assert in_element(star, barycenter_point(k, ("a", "b", "c")))
        assert not in_element(star, vertex_point(k, "b"))

    def test_membership_is_support_meets_core(self):
        k = simplex_complex(["a", "b", "c"])
        star = OpenStarSet(k, frozenset(["a", "b"]))
        x = make_point(k, {"b": Fraction(1, 2), "c": Fraction(1, 2)})
        assert in_element(star, x)
        assert not in_element(star, vertex_point(k, "c"))

    def test_core_is_a_set_of_ambient_vertices(self):
        k = simplex_complex(["a", "b", "c"])
        assert open_vertex_star(k, "a").core == frozenset(["a"])
        with pytest.raises(ValueError, match="vertices of the ambient"):
            OpenStarSet(k, frozenset(["a", "z"]))
        with pytest.raises(UnknownVertexError):
            open_vertex_star(k, "z")

    def test_subdivided_vertex_stars_intersect_iff_adjacent(self):
        beta = barycentric_subdivision(simplex_complex(["a", "b", "c"]))
        stars = {v: open_vertex_star(beta, v) for v in beta.vertices}
        for u in beta.vertices:
            for v in beta.vertices:
                if u == v:
                    continue
                meets = any(
                    meets_core(stars[u], s) and meets_core(stars[v], s)
                    for s in beta.simplices
                )
                adjacent = tuple(sorted((u, v), key=vertex_key)) in beta.simplices
                assert meets == adjacent


class TestHullContainment:
    def test_subcomplex_holds_refutes_or_leaves_undecided(self):
        k = simplex_complex(["a", "b", "c"])
        hollow = subcomplex_from(k, [["a", "b"], ["b", "c"], ["a", "c"]])
        corners = [vertex_point(k, v) for v in "abc"]
        assert element_contains_hull(hollow, corners[:2]) is True
        assert element_contains_hull(subcomplex_from(k, [["a", "b"]]), corners) is False
        assert element_contains_hull(hollow, corners) is None

    def test_unknown_element_type_rejected(self):
        k = simplex_complex(["a"])
        with pytest.raises(TypeError, match="unknown element type"):
            element_contains_hull(frozenset(["a"]), [vertex_point(k, "a")])

    def test_hull_points_on_another_complex_rejected(self):
        k, other = simplex_complex(["a", "b"]), simplex_complex(["a"])
        for element in (open_vertex_star(k, "a"), whole_subcomplex(k)):
            with pytest.raises(ValueError, match="live on the element's complex"):
                element_contains_hull(element, [vertex_point(other, "a")])

    def test_point_that_cannot_be_aligned_rejected(self):
        k = simplex_complex(["a", "b"])
        beta = barycentric_subdivision(k)
        stray = vertex_point(simplex_complex(["a"]), "a")
        assert align_point(vertex_point(k, "a"), beta, k) == vertex_point(beta, ("a",))
        for base in (k, None):
            with pytest.raises(ValueError, match="cannot be aligned"):
                align_point(stray, beta, base)


class TestBarycentricStar:
    def test_segment_star(self):
        k = simplex_complex(["a", "b"])
        star = barycentric_vertex_star(k, "a")
        assert star.vertex_set() == {("a",), ("a", "b")}
        assert (("a",), ("a", "b")) in star.simplices

    def test_star_is_cone_with_apex(self):
        for base in (simplex_complex(["a", "b", "c"]), sphere_complex(2)):
            for v in base.vertices:
                star = barycentric_vertex_star(base, v)
                apex = (v,)
                for s in star.simplices:
                    joined = tuple(sorted(set(s) | {apex}, key=vertex_key))
                    assert joined in star.parent.simplices and joined in star.simplices

    def test_star_of_whole_complex_is_everything(self):
        k = simplex_complex(["a", "b", "c"])
        star = barycentric_star(k, whole_subcomplex(k))
        assert star.simplices == barycentric_subdivision(k).simplices

    def test_point_rule_matches_chain_rule(self):
        # the argmax membership rule agrees with lifting and checking the
        # minimal chain element, on sampled points
        rng = random.Random(3)
        for seed in range(4):
            k = random_complex(seed)
            beta = barycentric_subdivision(k)
            vs = list(k.vertices)
            sub = induced_subcomplex(k, vs[: max(1, len(vs) // 2)])
            star = barycentric_star(k, sub)
            for _ in range(60):
                x = random_point(k, rng)
                by_points = barycentric_star_contains_point(k, sub, x)
                from polytower.points import lift_to_subdivision

                lifted = lift_to_subdivision(x, beta)
                by_chains = lifted.support in star.simplices
                assert by_points == by_chains

    def test_stars_pass_the_checks_and_match_the_chain_scan(self):
        # trusted stars equal the checked subcomplex of the chains whose
        # minimal element touches the core, scanned over the whole subdivision
        from polytower.complexes import Subcomplex

        for label, k in kernel_complexes():
            if len(k.simplices) > 400:
                continue
            beta = barycentric_subdivision(k)
            for core in random_vertex_subsets(k, 5):
                scan = frozenset(c for c in beta.simplices if not set(core).isdisjoint(chain_min(c)))
                checked = Subcomplex(beta, scan)
                assert barycentric_star(k, induced_subcomplex(k, core)) == checked, (label, core)
                if len(core) == 1:
                    assert barycentric_vertex_star(k, core[0]) == checked, (label, core)

    def test_unknown_vertex_and_foreign_subcomplex(self):
        from polytower.complexes import UnknownVertexError

        k = simplex_complex(["a", "b"])
        with pytest.raises(UnknownVertexError):
            barycentric_vertex_star(k, "z")
        with pytest.raises(ValueError):
            barycentric_star(k, whole_subcomplex(simplex_complex(["a", "c"])))


class TestCovers:
    def test_cover_B_of_edge(self):
        k = simplex_complex(["u", "v"])
        cb = cover_B(k)
        assert cb.indices == ("u", "v")
        star_u = cb.element("u")
        assert star_u.vertex_set() == {("u",), ("u", "v")}
        overlap = cb.intersection_subcomplex(["u", "v"])
        assert overlap.vertex_set() == {("u", "v")}

    def test_cover_O_of_triangle_triple_intersection(self):
        k = simplex_complex(["a", "b", "c"])
        co = cover_O(k)
        assert ("a", "b", "c") in nerve(co).complex.simplices
        center = barycenter_point(k, ("a", "b", "c"))
        assert all(in_element(co.element(v), center, co.base) for v in "abc")

    def test_single_vertex_cover(self):
        k = simplex_complex(["p"])
        assert cover_O(k).indices == ("p",)
        assert cover_B(k).indices == ("p",)

    def test_cover_B_is_a_cover(self):
        for seed in range(4):
            k = random_complex(seed)
            cb = cover_B(k)
            assert scan_first_uncovered(cb) is None

    def test_cover_O_is_a_cover(self):
        for seed in range(4):
            assert scan_first_uncovered(cover_O(random_complex(seed))) is None

    def test_cover_B_elements_are_barycentric_vertex_stars(self):
        for label, k in kernel_complexes():
            cb = cover_B(k)
            assert cb.indices == k.vertices, label
            for v in k.vertices:
                assert cb.element(v) == barycentric_vertex_star(k, v), (label, v)

    def test_cover_B_reads_each_chain_once(self, monkeypatch):
        import polytower.stars as stars_module

        calls = []

        def counting_chain_min(chain):
            calls.append(chain)
            return chain_min(chain)

        monkeypatch.setattr(stars_module, "chain_min", counting_chain_min)
        k = projective_plane()
        cover_B(k)
        assert len(calls) == len(barycentric_subdivision(k).simplices)

    def test_star_covers_cover_and_each_barycentric_star_is_needed(self):
        for label, k in kernel_complexes():
            cb = cover_B(k)
            for cover in (cb, cover_O(k), closed_star_cover(k)):
                assert scan_first_uncovered(cover) is None, label
            for dropped in k.vertices[:3]:
                elements = {i: e for i, e in cb.elements if i != dropped}
                partial = IndexedCover.build(cb.ambient, cb.kind, elements)
                # the flags starting at a vertex lie in its barycentric star
                # alone
                assert scan_first_uncovered(partial) is not None, (label, dropped)

    def test_bond_pullbacks_cover(self):
        for label, bond, _, pulled in bond_pullbacks():
            assert scan_first_uncovered(pulled) is None, label
            empty = IndexedCover.build(bond.source, pulled.kind, {})
            assert scan_first_uncovered(empty) == bond.source.maximal[0], label

    def test_unknown_index_rejected(self):
        cb = cover_B(simplex_complex(["u", "v"]))
        for index in ("w", ["u"]):
            with pytest.raises(IndexMismatchError):
                cb.element(index)


class TestNerve:
    def test_nerve_of_open_triangle_cover(self):
        k = simplex_complex(["a", "b", "c"])
        result = nerve(cover_O(k))
        assert result.status.is_holds
        assert result.complex.simplices == k.simplices

    def test_nerve_of_closed_triangle_cover(self):
        k = simplex_complex(["a", "b", "c"])
        result = nerve(cover_B(k))
        assert result.complex.simplices == k.simplices

    def test_nerve_of_disjoint_elements(self):
        k = Complex_from([["x"], ["y"]])
        cover = IndexedCover.build(
            k,
            "closed",
            {
                "x": subcomplex_from(k, [["x"]]),
                "y": subcomplex_from(k, [["y"]]),
            },
        )
        result = nerve(cover)
        assert result.complex.f_vector() == (2,)

    def test_budget_exhaustion(self):
        k = simplex_complex(["a", "b", "c"])
        result = nerve(cover_O(k), Budgets(nerve_subsets=2))
        assert result.status.is_inconclusive

    def test_nerve_of_open_cover_matches_base_for_random_complexes(self):
        for seed in range(10):
            k = random_complex(seed)
            result = nerve(cover_O(k))
            assert result.status.is_holds
            assert result.complex.simplices == k.simplices

    def test_nerve_matches_scan(self):
        for label, cover in nerve_cross_check_covers():
            reference, checked = scan_nerve(cover, 10_000)
            if reference is None:
                continue
            result = nerve(cover)
            assert result.status.is_holds, label
            assert result.complex.simplices == reference, label
            assert result.subsets_checked == len(reference) <= checked, label

    def test_budget_counts_nerve_simplices(self):
        for label, cover in nerve_cross_check_covers()[::7]:
            count = nerve(cover).subsets_checked
            if not count:
                continue
            assert nerve(cover, Budgets(nerve_subsets=count)).status.is_holds, label
            short = nerve(cover, Budgets(nerve_subsets=count - 1))
            assert short.status.is_inconclusive and short.complex is None, label

    def test_mixed_element_kinds_rejected(self):
        k = simplex_complex(["a", "b", "c"])
        elements = dict(cover_O(k).elements)
        elements["a"] = subcomplex_from(k, [["a"]])
        cover = IndexedCover.build(k, "open", elements)
        with pytest.raises(ValueError):
            nerve(cover)


def bond_pullbacks() -> list:
    """(label, bond, cover, pull-back) for the barycentric and open star
    covers of each level pulled along the bond onto it, in the rp2
    subdivision tower of depth 3 and the cylinder tower: the covers that
    `verify-tower` builds, the barycentric ones on the subdivided target
    and the open ones on the base target."""
    out = []
    for name, tower in (("rp2", subdivision_tower(projective_plane(), 3)), ("cylinder", cylinder_tower())):
        for idx, bond in enumerate(tower.bonds):
            for kind, build in (("B", cover_B), ("O", cover_O)):
                cover = build(tower.levels[idx])
                label = "%s tower bond %d %s" % (name, idx + 1, kind)
                out.append((label, bond, cover, pullback_cover(bond, cover)))
    return out


def nerve_cross_check_covers() -> list:
    """(label, cover) pairs holding every element kind: the star covers of
    the kernel complexes, and pull-backs along the bonds of random towers,
    of the rp2 tower and of the cylinder tower, and along their vertex maps
    (subcomplexes, open stars through chain tops and through vertex
    fibers)."""
    out = []
    for label, k in kernel_complexes():
        out += [(label + " B", cover_B(k)), (label + " O", cover_O(k)), (label + " closed stars", closed_star_cover(k))]
    for seed in range(6):
        tower = random_tower(seed, 3)
        for idx, bond in enumerate(tower.bonds):
            level = tower.levels[idx]
            tag = "random tower %d bond %d" % (seed, idx + 1)
            out += [
                (tag + " B", pullback_cover(bond, cover_B(level))),
                (tag + " O", pullback_cover(bond, cover_O(level))),
                (tag + " O on the map", open_pullback_by_fibers(bond, cover_O(bond.target))),
            ]
    out += [(label, pulled) for label, _, _, pulled in bond_pullbacks()]
    return out


class TestTrustedSubcomplexes:
    """Intersections of closed cover elements and subdivided preimages are
    built without the subcomplex checks; each must equal the checked
    construction of the same set, computed by plain set operations and
    whole-source scans."""

    def test_intersections_and_preimages_pass_the_checks(self):
        from itertools import combinations

        from polytower.complexes import Subcomplex

        def check(label, p, stars):
            pulled = pullback_cover(p, stars)
            for i, element in pulled.elements:
                expected = scan_preimage_of_subdivided(p, stars.element(i))
                assert element == Subcomplex(p.source, expected), (label, i)
            return pulled

        def check_intersections(label, cover):
            subsets = [(i,) for i in cover.indices] + list(combinations(cover.indices, 2))
            subsets += [s for s in nerve(cover).complex.simplices if len(s) > 2]
            for subset in subsets:
                common = frozenset.intersection(*(cover.element(i).simplices for i in subset))
                checked = Subcomplex(cover.ambient, common)
                assert cover.intersection_subcomplex(subset) == checked, (label, subset)

        for label, k in kernel_complexes():
            if len(k.simplices) > 120:
                continue
            stars = cover_B(k)
            pulled = check(label, random_qsmap(k, 2), stars)
            for cover in (stars, closed_star_cover(k), pulled):
                check_intersections(label, cover)
        for label, bond, cover, _ in bond_pullbacks():
            if cover.kind == "closed":
                check_intersections(label, check(label, bond, cover))

    def test_intersection_needs_elements_of_the_ambient(self):
        from polytower.complexes import ComplexMismatchError

        k = simplex_complex(["a", "b", "c"])
        other = cover_B(simplex_complex(["a", "b"]))
        mixed = IndexedCover.build(k, "closed", {"a": other.element("a"), "b": whole_subcomplex(k)})
        with pytest.raises(ComplexMismatchError):
            mixed.intersection_subcomplex(["a", "b"])


class TestOpenIntersection:
    def test_matches_scan(self):
        for label, k in kernel_complexes():
            subsets = [frozenset(s) for s in random_vertex_subsets(k, 7)]
            for size in (1, 2, 3):
                for j in range(len(subsets)):
                    cores = [subsets[(j + t) % len(subsets)] for t in range(size)]
                    assert open_intersection(k, cores) == scan_open_intersection(k, cores), (label, cores)


def Complex_from(maximal):
    from polytower.complexes import Complex

    return Complex.from_maximal(maximal)


class TestCoverIsomorphism:
    def test_reflexive(self):
        c = cover_O(simplex_complex(["a", "b"]))
        assert covers_isomorphic(c, c).is_holds

    def test_open_vs_closed_star_covers(self):
        for seed in range(5):
            k = random_complex(seed)
            assert covers_isomorphic(cover_O(k), cover_B(k)).is_holds

    def test_index_mismatch(self):
        with pytest.raises(IndexMismatchError):
            covers_isomorphic(cover_O(simplex_complex(["a", "b"])), cover_O(simplex_complex(["a", "q"])))

    def test_pullback_along_surjection_isomorphic(self):
        for seed in range(6):
            base = random_complex(seed)
            p = random_qsmap(base, seed + 21)
            assert is_surjective(p).is_holds
            cb = cover_B(base)
            pulled = pullback_cover(p, cb)
            assert pulled.indices == cb.indices
            assert covers_isomorphic(pulled, cb).is_holds

    def test_equivalence_on_triples(self):
        k = simplex_complex(["a", "b", "c"])
        f, g, h = cover_O(k), cover_B(k), cover_O(k)
        assert covers_isomorphic(f, g).is_holds
        assert covers_isomorphic(g, h).is_holds
        assert covers_isomorphic(f, h).is_holds


class TestPullback:
    def test_pullback_along_identity(self):
        k = simplex_complex(["a", "b", "c"])
        cb = cover_B(k)
        beta = barycentric_subdivision(k)
        from polytower.maps import VertexMap

        identity = VertexMap.build(beta, beta, {v: v for v in beta.vertices})
        pulled = pullback_cover(identity, cb)
        for i in cb.indices:
            assert pulled.element(i).simplices == cb.element(i).simplices

    def test_cylinder_pullback_of_segment_stars(self):
        p = cylinder_map()
        pulled = pullback_cover(p, cover_B(p.base_target))
        bottom = pulled.element("u")
        top = pulled.element("v")
        assert {v[0] for v in (tuple(b)[:1] for b in bottom.vertex_set())}  # non-empty
        assert sorted(bottom.vertex_set()) == ["b0", "b1", "b2", "m0", "m1", "m2"]
        assert sorted(top.vertex_set()) == ["m0", "m1", "m2", "t0", "t1", "t2"]
        middle = pulled.intersection_subcomplex(["u", "v"])
        assert sorted(middle.vertex_set()) == ["m0", "m1", "m2"]

    def test_three_tubes_from_closed_star_cover(self):
        # pulling back the closed stars of the subdivided segment's three
        # vertices yields three tube-shaped subcomplexes
        p = cylinder_map()
        stars = closed_star_cover(p.target)
        pulled = pullback_cover(p, stars)
        assert len(pulled.indices) == 3
        sizes = [len(pulled.element(i).vertex_set()) for i in pulled.indices]
        assert sorted(sizes) == [6, 6, 9]

    def test_open_cover_pullback_membership(self):
        p = cylinder_map()
        co = cover_O(p.base_target)
        pulled = pullback_cover(p, co)
        rng = random.Random(11)
        from polytower.points import apply

        for _ in range(150):
            x = random_point(p.source, rng)
            for i in co.indices:
                forward = in_element(co.element(i), apply(p, x), co.base)
                back = in_element(pulled.element(i), x, pulled.base)
                assert forward == back

    def test_open_star_pullback_matches_scan(self):
        for label, base in kernel_complexes():
            if len(base.simplices) > 120:
                continue
            p = random_qsmap(base, 1)
            # open stars of the subdivided target do not pull back
            with pytest.raises(ValueError, match="does not live on the map's target"):
                pullback_cover(p, cover_O(p.target))
            # the open stars of the base target, pulled along the QSMap itself
            base_stars = cover_O(p.base_target)
            for i, e in pullback_cover(p, base_stars).elements:
                core = base_stars.element(i).core
                w = [v for v in p.source.vertices if set(p(v)) & core]
                assert e.core == set(w), (label, i)

    def test_closed_cover_pullback_membership(self):
        p = random_qsmap(sphere_complex(1), 5)
        cb = cover_B(p.base_target)
        pulled = pullback_cover(p, cb)
        rng = random.Random(7)
        from polytower.points import apply

        for _ in range(120):
            x = random_point(p.source, rng)
            for i in cb.indices:
                direct = in_element(cb.element(i), apply(p, x), cb.base)
                back = in_element(pulled.element(i), x, pulled.base)
                assert direct == back

    def test_bond_pullback_containment(self):
        """A point or a simplex hull lies in a pulled-back element exactly
        when its image lies in the element it came from."""
        from polytower.points import apply

        rng = random.Random(5)
        for label, bond, cover, pulled in bond_pullbacks():
            for s in rng.sample(bond.source.maximal, min(12, len(bond.source.maximal))):
                corners = [vertex_point(bond.source, v) for v in s]
                points = corners + [random_point(bond.source, rng)]
                for i, e in cover.elements:
                    back = pulled.element(i)
                    for x in points:
                        where = (label, s, i, x)
                        assert in_element(back, x) == in_element(e, apply(bond, x), cover.base), where
                    images = [align_point(apply(bond, x), cover.ambient, cover.base) for x in corners]
                    forward = element_contains_hull(e, images)
                    assert element_contains_hull(back, corners) == forward, (label, s, i)

    def test_only_the_two_tower_regimes_pull_back(self):
        # a closed cover of the base target, an open one of the subdivided
        # target: neither pulls back
        p = cylinder_map()
        for cover in (closed_star_cover(p.base_target), cover_O(p.target)):
            with pytest.raises(ValueError, match="does not live on the map's target"):
                pullback_cover(p, cover)

    def test_plain_map_onto_the_base_of_a_subdivided_cover_rejected(self):
        base = sphere_complex(1)
        vm = random_surjective_vertex_map(base, 5)
        assert vm.target == base
        with pytest.raises(ValueError, match="does not live on the map's target"):
            pullback_cover(vm, cover_B(vm.target))


class TestMesh:
    def test_segment_star_cover(self):
        k = simplex_complex(["u", "v"])
        assert mesh(cover_B(k)).value == 1

    def test_mesh_scales_linearly(self):
        k = simplex_complex(["u", "v"])
        assert mesh(cover_B(k), Fraction(1, 2)).value == Fraction(1, 2)

    def test_mesh_at_most_diameter(self):
        for seed in range(6):
            k = random_complex(seed)
            assert mesh(cover_B(k)).value <= 2

    def test_open_cover_flagged(self):
        k = simplex_complex(["a", "b"])
        result = mesh(cover_O(k))
        assert result.computed_on_closure

    def test_cone_bound_dominates_mesh(self):
        for seed in range(5):
            k = random_complex(seed)
            cb = cover_B(k)
            bound = cone_geodesic_diameter_bound(cb)
            assert bound is not None
            assert bound >= mesh(cb).value or len(k.vertices) == 1

    def test_cone_bound_needs_an_apex_for_every_element(self):
        k = simplex_complex(["a", "b"])
        cover = IndexedCover.build(k, "closed", {"e": whole_subcomplex(k)})
        assert cone_geodesic_diameter_bound(cover) is None


def _reference_positions(cover, element):
    """Element vertices (closure vertices for open stars) as Points of the
    metric base, flattened out of the subdivision when the element lives
    there."""
    if isinstance(element, OpenStarSet):
        ambient = element.ambient
        vertices = {v for s in ambient.simplices if meets_core(element, s) for v in s}
    else:
        ambient = element.parent
        vertices = element.vertex_set()
    points = [vertex_point(ambient, v) for v in sorted(vertices, key=vertex_key)]
    if cover.base is not None and cover.base != ambient:
        points = [flatten_point(p, cover.base) for p in points]
    return points


def _reference_mesh(cover, scale):
    best = Fraction(0)
    for _, e in cover.elements:
        points = _reference_positions(cover, e)
        for i, x in enumerate(points):
            for y in points[i + 1 :]:
                best = max(best, distance(x, y))
    return best * scale


def _reference_cone(cover, scale):
    base = cover.base if cover.base is not None else cover.ambient
    star_of = dict(cover.star_of)
    worst = Fraction(0)
    for i, e in cover.elements:
        apex = vertex_point(base, star_of[i])
        reach = max([Fraction(0)] + [distance(apex, p) for p in _reference_positions(cover, e)])
        worst = max(worst, 2 * reach)
    return worst * scale


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:
        return ("raises", type(exc))


class TestMeshCrossCheck:
    """Set-arithmetic meshes and cone bounds against Point distances."""

    def covers(self):
        towers = [random_tower(seed, 2) for seed in range(12)]
        towers += [cylinder_tower(), subdivision_tower(projective_plane(), 2)]
        for tower in towers:
            for idx, (level, scale) in enumerate(zip(tower.levels, tower.scales)):
                for cover in (cover_B(level), cover_O(level)):
                    yield cover, scale
                    if idx + 1 < tower.depth():
                        yield pullback_cover(tower.bonds[idx], cover), tower.scales[idx + 1]

    def test_mesh_and_cone_match_point_distances(self):
        kinds = set()
        for cover, scale in self.covers():
            kinds.add((cover.kind, cover.base is not None))
            result = mesh(cover, scale)
            assert result.value == _reference_mesh(cover, scale)
            assert result.computed_on_closure == (cover.kind == "open")
            expected = _outcome(_reference_cone, cover, scale)
            assert _outcome(cone_geodesic_diameter_bound, cover, scale) == expected
        assert kinds == {("open", True), ("open", False), ("closed", True), ("closed", False)}


class TestStarCoverBoundsFromK:
    """The closed-form meshes and cone bounds read from the complex's
    dimension equal those of the built covers and of the Point-distance
    references."""

    MIXED = Complex.from_maximal([["a"], ["b", "c"], ["d", "e", "f"]])

    def check(self, label, k, references=True):
        for kind, build in (("B", cover_B), ("O", cover_O)):
            cover = build(k)
            for scale in (Fraction(1), Fraction(3, 8)):
                value, cone = star_cover_bounds(kind, k, scale)
                where = (label, kind, scale)
                assert value == mesh(cover, scale).value, where
                assert cone == cone_geodesic_diameter_bound(cover, scale), where
                if references:
                    assert value == _reference_mesh(cover, scale), where
                    assert cone == _reference_cone(cover, scale), where

    def test_matches_covers_and_references(self):
        for label, k in kernel_complexes():
            self.check(label, k)

    def test_mixed_dimension(self):
        # the largest simplex sets the bound, whatever the smaller ones
        self.check("mixed", self.MIXED)
        assert star_cover_bounds("B", self.MIXED) == (Fraction(4, 3), Fraction(8, 3))
        assert star_cover_bounds("O", self.MIXED) == (2, 4)

    def test_zero_dimensional(self):
        k = Complex.from_maximal([["p"], ["q"], ["r"]])
        self.check("points", k)
        for kind in ("B", "O"):
            assert star_cover_bounds(kind, k, Fraction(1, 3)) == (0, 0)

    def test_tetrahedron_tower_levels(self):
        for i, level in enumerate(subdivision_tower(simplex(3), 3).levels):
            self.check("tetrahedron level %d" % i, level, references=i == 0)
            assert star_cover_bounds("B", level) == (Fraction(3, 2), 3)


class TestStarIntersectionIdentity:
    def test_on_random_complexes(self):
        # intersection of subdivided open stars is the subdivided open star
        # of the intersection, checked on all barycenters and sampled points
        rng = random.Random(2)
        for seed in range(10):
            k = random_complex(seed, max_simplices=30)
            beta = barycentric_subdivision(k)
            verts = list(k.vertices)
            for size in (2, 3):
                for combo in _combos(verts, size, limit=6):
                    subs = [induced_subcomplex(k, [v]) for v in combo]
                    stars = [open_star_of_subdivided(k, s) for s in subs]
                    common = induced_subcomplex(k, set(combo) if len(set(combo)) == 1 else [])
                    star_common = open_star_of_subdivided(k, common)
                    samples = [vertex_point(beta, name) for name in beta.vertices]
                    for _ in range(10):
                        samples.append(random_point(beta, rng))
                    for x in samples:
                        lhs = all(in_element(s, x) for s in stars)
                        rhs = in_element(star_common, x)
                        assert lhs == rhs

    def test_identity_with_overlapping_subcomplexes(self):
        rng = random.Random(4)
        for seed in range(6):
            k = random_complex(seed, max_simplices=30)
            beta = barycentric_subdivision(k)
            vs = list(k.vertices)
            a = induced_subcomplex(k, vs[: 2 + len(vs) // 2])
            b = induced_subcomplex(k, vs[len(vs) // 3 :])
            star_a = open_star_of_subdivided(k, a)
            star_b = open_star_of_subdivided(k, b)
            common_vertices = [v for v in vs if v in a.vertex_set() and v in b.vertex_set()]
            star_ab = open_star_of_subdivided(k, induced_subcomplex(k, common_vertices))
            samples = [vertex_point(beta, name) for name in beta.vertices]
            for _ in range(15):
                samples.append(random_point(beta, rng))
            for x in samples:
                assert (in_element(star_a, x) and in_element(star_b, x)) == in_element(star_ab, x)


def _combos(items, size, limit):
    from itertools import combinations as comb

    out = list(comb(items, size))[:limit]
    return out


class TestDeformation:
    def setup_method(self):
        self.k = simplex_complex(["a", "b"])
        self.core = induced_subcomplex(self.k, ["a"])

    def test_time_zero_fixes(self):
        x = make_point(self.k, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert deformation_phi(x, 0, self.core).coords == x.coords

    def test_half_and_full_slide(self):
        x = make_point(self.k, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        halfway = deformation_phi(x, Fraction(1, 2), self.core)
        assert halfway.as_dict() == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
        final = deformation_phi(x, 1, self.core)
        assert final.as_dict() == {"a": Fraction(1)}

    def test_points_of_core_are_fixed(self):
        k = simplex_complex(["a", "b", "c"])
        core = induced_subcomplex(k, ["a", "b"])
        x = make_point(k, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        for t in (0, Fraction(1, 3), 1):
            assert deformation_phi(x, t, core).coords == x.coords

    def test_outside_star_rejected(self):
        with pytest.raises(ValueError):
            deformation_phi(vertex_point(self.k, "b"), Fraction(1, 2), self.core)

    def test_non_full_core_rejected(self):
        k = simplex_complex(["a", "b", "c"])
        core = subcomplex_from(k, [["a"], ["b"]])
        x = barycenter_point(k, ("a", "b", "c"))
        with pytest.raises(ValueError):
            deformation_phi(x, Fraction(1, 2), core)

    def test_invariants_on_sampled_points(self):
        rng = random.Random(8)
        k = sphere_complex(2)
        core = induced_subcomplex(k, ["s0", "s1"])
        star = OpenStarSet(k, core.vertex_set())
        for _ in range(120):
            x = random_point(k, rng)
            if not in_element(star, x):
                continue
            t = Fraction(rng.randint(0, 8), 8)
            out = deformation_phi(x, t, core)
            assert deformation_phi(x, 0, core).coords == x.coords
            assert set(out.support) <= set(x.support)
            assert in_element(star, out)
            end = deformation_phi(x, 1, core)
            assert end.support in core.simplices
            if barycentric_star_contains_point(k, core, x):
                assert barycentric_star_contains_point(k, core, out)


class TestAreClose:
    def test_equal_maps_hold(self):
        k = simplex_complex(["a", "b", "c"])
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        v = are_close(f, f, cover_O(k))
        assert v.is_holds

    def test_deformation_endpoints_within_one_star(self):
        base = simplex_complex(["a", "b"])
        core = induced_subcomplex(base, ["a"])
        beta = barycentric_subdivision(base)
        domain = simplex_complex(["x0", "x1"])
        start = {
            "x0": vertex_point(base, "a"),
            "x1": make_point(base, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        }
        end = {
            "x0": deformation_phi(start["x0"], 1, core),
            "x1": deformation_phi(start["x1"], 1, core),
        }
        f = PartialPLMap.build(domain, whole_subcomplex(domain), start, base)
        g = PartialPLMap.build(domain, whole_subcomplex(domain), end, base)
        one_star = IndexedCover.build(base, "open", {"a": open_vertex_star(base, "a")}, base=base)
        verdict = are_close(f, g, one_star)
        assert verdict.is_holds

    def test_antipodal_maps_fail(self):
        domain = simplex_complex(["x", "y"])
        base = simplex_complex(["u", "v"])
        f = from_vertex_images(domain, {"x": "u", "y": "v"}, base)
        g = from_vertex_images(domain, {"x": "v", "y": "u"}, base)
        verdict = are_close(f, g, cover_O(base))
        assert verdict.is_fails
        assert "vertex" in verdict.witness

    def test_identity_vs_quasi_simplicial_collapse(self):
        # closeness of a map and itself relative to the closed star cover
        p = cylinder_map()
        f = from_vertex_images(
            p.source, {v: v for v in p.source.vertices}, p.source
        ).after(p)
        verdict = are_close(f, f, cover_B(p.base_target))
        assert verdict.is_holds
