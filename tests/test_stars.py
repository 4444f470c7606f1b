import random
from fractions import Fraction

import pytest

from polytower.complexes import (
    barycenter_point,
    barycentric_subdivision,
    distance,
    flatten_point,
    induced_subcomplex,
    make_point,
    subcomplex_from,
    vertex_key,
    vertex_point,
    whole_subcomplex,
)
from polytower.generators import cylinder_tower, projective_plane, random_tower, subdivision_tower
from polytower.plmaps import PartialPLMap
from polytower.stars import (
    IndexMismatchError,
    IndexedCover,
    OpenStarSet,
    are_close,
    barycentric_star,
    barycentric_star_contains_point,
    barycentric_vertex_star,
    closed_star_cover,
    cone_geodesic_diameter_bound,
    cover_B,
    cover_O,
    covers_isomorphic,
    deformation_phi,
    element_contains_point,
    mesh,
    nerve,
    open_star,
    open_star_of_subdivided,
    open_vertex_star,
    pullback_cover,
)
from polytower.verdicts import Budgets

from util import (
    cylinder_map,
    random_complex,
    random_point,
    random_surjective_vertex_map,
    simplex_complex,
    sphere_complex,
)


class TestOpenStar:
    def test_vertex_star_in_triangle(self):
        k = simplex_complex(["a", "b", "c"])
        star = open_vertex_star(k, "a")
        assert star.avoided.simplices == frozenset({("b",), ("c",), ("b", "c")})
        assert star.contains_point(barycenter_point(k, ["a", "b", "c"]))
        assert not star.contains_point(vertex_point(k, "b"))

    def test_membership_is_support_meets_core(self):
        k = simplex_complex(["a", "b", "c"])
        star = open_star(k, induced_subcomplex(k, ["a", "b"]))
        x = make_point(k, {"b": Fraction(1, 2), "c": Fraction(1, 2)})
        assert star.contains_point(x)
        assert not star.contains_point(vertex_point(k, "c"))

    def test_subdivided_vertex_stars_intersect_iff_adjacent(self):
        beta = barycentric_subdivision(simplex_complex(["a", "b", "c"]))
        stars = {v: open_vertex_star(beta, v) for v in beta.vertices}
        for u in beta.vertices:
            for v in beta.vertices:
                if u == v:
                    continue
                meets = any(
                    stars[u].meets_simplex(s) and stars[v].meets_simplex(s)
                    for s in beta.simplices
                )
                adjacent = beta.span([u, v]) is not None
                assert meets == adjacent


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
                    joined = tuple(sorted(set(s) | {apex}, key=lambda x: (len(x), x)))
                    joined = star.parent.span(list(s) + [apex])
                    assert joined is not None and joined in star.simplices

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
                from polytower.complexes import lift_to_subdivision

                lifted = lift_to_subdivision(x, beta)
                by_chains = lifted.support in star.simplices
                assert by_points == by_chains


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
        assert co.intersection_nonempty(["a", "b", "c"])
        center = barycenter_point(k, ["a", "b", "c"])
        assert all(co.element_contains_point(v, center) for v in "abc")

    def test_single_vertex_cover(self):
        k = simplex_complex(["p"])
        assert cover_O(k).indices == ("p",)
        assert cover_B(k).indices == ("p",)

    def test_cover_B_is_a_cover(self):
        for seed in range(4):
            k = random_complex(seed)
            cb = cover_B(k)
            assert cb.first_uncovered() is None

    def test_cover_O_is_a_cover(self):
        for seed in range(4):
            assert cover_O(random_complex(seed)).first_uncovered() is None


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
            vm = random_surjective_vertex_map(base, seed + 21)
            cb = cover_B(base)
            pulled = pullback_cover(vm, cb)
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
        pulled = pullback_cover(p.vertex_map, cover_B(p.base_target))
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
        stars = closed_star_cover(p.subdivided_target)
        pulled = pullback_cover(p.vertex_map, stars)
        assert len(pulled.indices) == 3
        sizes = [len(pulled.element(i).vertex_set()) for i in pulled.indices]
        assert sorted(sizes) == [6, 6, 9]

    def test_open_cover_pullback_membership(self):
        p = cylinder_map()
        co = cover_O(p.base_target)
        pulled = pullback_cover(p, co)
        rng = random.Random(11)
        from polytower.maps import apply

        for _ in range(150):
            x = random_point(p.source, rng)
            for i in co.indices:
                forward = co.element_contains_point(i, apply(p, x))
                back = pulled.element_contains_point(i, x)
                assert forward == back

    def test_star_preimage_predicates(self):
        base = sphere_complex(1)
        vm = random_surjective_vertex_map(base, 5)
        cb = cover_B(base)
        pulled = pullback_cover(vm, cb)
        rng = random.Random(7)

        for _ in range(120):
            x = random_point(vm.source, rng)
            # the affine image of x under the simplicial map
            pushed: dict = {}
            for v, c in x.coords:
                w = vm(v)
                pushed[w] = pushed.get(w, Fraction(0)) + c
            image = make_point(base, pushed)
            for i in cb.indices:
                direct = cb.element_contains_point(i, image)
                back = pulled.element_contains_point(i, x)
                assert direct == back


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


def _reference_positions(cover, element):
    """Element vertices (closure vertices for open stars) as Points of the
    metric base, flattened out of the subdivision when the element lives
    there."""
    if isinstance(element, OpenStarSet):
        ambient = element.ambient
        vertices = {v for s in ambient.simplices if element.meets_simplex(s) for v in s}
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
                        lhs = all(s.contains_point(x) for s in stars)
                        rhs = star_common.contains_point(x)
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
                assert (star_a.contains_point(x) and star_b.contains_point(x)) == star_ab.contains_point(x)


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
        x = barycenter_point(k, ["a", "b", "c"])
        with pytest.raises(ValueError):
            deformation_phi(x, Fraction(1, 2), core)

    def test_invariants_on_sampled_points(self):
        rng = random.Random(8)
        k = sphere_complex(2)
        core = induced_subcomplex(k, ["s0", "s1"])
        star = open_star(k, core)
        for _ in range(120):
            x = random_point(k, rng)
            if not star.contains_point(x):
                continue
            t = Fraction(rng.randint(0, 8), 8)
            out = deformation_phi(x, t, core)
            assert deformation_phi(x, 0, core).coords == x.coords
            assert set(out.support) <= set(x.support)
            assert star.contains_point(out)
            end = deformation_phi(x, 1, core)
            assert end.support in core.simplices
            if barycentric_star_contains_point(k, core, x):
                assert barycentric_star_contains_point(k, core, out)


class TestAreClose:
    def test_equal_maps_hold(self):
        k = simplex_complex(["a", "b", "c"])
        f = PartialPLMap.from_vertex_images(k, {v: v for v in k.vertices}, k)
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
        one_star = IndexedCover.build(
            base, "open", {"a": open_vertex_star(base, "a")}, base=base, check=False
        )
        verdict = are_close(f, g, one_star)
        assert verdict.is_holds

    def test_antipodal_maps_fail(self):
        domain = simplex_complex(["x", "y"])
        base = simplex_complex(["u", "v"])
        f = PartialPLMap.from_vertex_images(domain, {"x": "u", "y": "v"}, base)
        g = PartialPLMap.from_vertex_images(domain, {"x": "v", "y": "u"}, base)
        verdict = are_close(f, g, cover_O(base))
        assert verdict.is_fails
        assert "vertex" in verdict.witness

    def test_identity_vs_quasi_simplicial_collapse(self):
        # closeness of a map and itself relative to the closed star cover
        p = cylinder_map()
        f = PartialPLMap.from_vertex_images(
            p.source, {v: v for v in p.source.vertices}, p.source
        ).after(p)
        verdict = are_close(f, f, cover_B(p.base_target))
        assert verdict.is_holds
