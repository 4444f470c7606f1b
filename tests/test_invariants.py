"""Cross-cutting soundness properties tying several modules together."""
import random
from fractions import Fraction

from polytower.complexes import (
    barycentric_subdivision,
    flatten_point,
    lift_to_subdivision,
    make_point,
    subcomplex_from,
    whole_subcomplex,
)
from polytower.connectivity import ae_verdict
from polytower.maps import (
    apply_subdivision,
    identity_qsmap,
    induced_homology_map,
    is_surjective,
    VertexMap,
)
from polytower.stars import barycentric_vertex_star, cover_B, mesh
from polytower.generators import cylinder_map, simplex, sphere, subdivision_tower

from util import (
    chain_max,
    compose,
    distance,
    from_vertex_images,
    pullback_star_cover,
    random_complex,
    random_point,
    random_surjective_vertex_map,
    reference_induced_homology_map,
    simplex_complex,
    vertex_point,
)


class TestSurjectivitySoundness:
    def test_sampled_points_have_affine_preimages(self):
        # whenever the combinatorial check holds, every sampled target point
        # is hit by inverting the map affinely over some maximal simplex
        rng = random.Random(17)
        maps = [cylinder_map(), identity_qsmap(simplex(2))]
        for seed in range(4):
            base = random_complex(seed)
            vm = random_surjective_vertex_map(base, seed + 400)
            maps.append(vm)
        for p in maps:
            verdict = is_surjective(p)
            assert verdict.is_holds
            for _ in range(60):
                y = random_point(p.target, rng)
                assert _affine_preimage(p, y) is not None, (p, y)

    def test_preimage_actually_maps_onto_sample(self):
        rng = random.Random(23)
        p = cylinder_map()
        for _ in range(60):
            y = random_point(p.target, rng)
            x = _affine_preimage(p, y)
            assert x is not None
            assert apply_subdivision(p, x).coords == y.coords


def _affine_preimage(p, y):
    """Invert the affine extension over one maximal source simplex: spread
    each target coordinate uniformly over the fiber inside the simplex."""
    mapping = p.lookup
    source = p.source
    y_coords = y.as_dict()
    for s in source.maximal:
        fibers = {}
        for v in s:
            fibers.setdefault(mapping[v], []).append(v)
        if not set(y_coords) <= set(fibers):
            continue
        x = {}
        for w, mass in y_coords.items():
            share = mass / len(fibers[w])
            for v in fibers[w]:
                x[v] = share
        return make_point(source, x, y.scale)
    return None


class TestHomologyFunctoriality:
    def test_composition_on_first_homology_of_circle(self):
        base = sphere(1)
        f = random_surjective_vertex_map(base, 5)
        g = random_surjective_vertex_map(barycentric_subdivision(base), 6)
        composed = compose(f, g)
        images_fg, verdict_fg = reference_induced_homology_map(composed, 1)
        images_f, verdict_f = reference_induced_homology_map(f, 1)
        images_g, verdict_g = reference_induced_homology_map(g, 1)
        assert verdict_f.is_holds and verdict_g.is_holds and verdict_fg.is_holds
        assert [induced_homology_map(p, 1) for p in (composed, f, g)] == [verdict_fg, verdict_f, verdict_g]
        # one free generator each; the composite degree is the product
        deg_fg = images_fg[0][0][0]
        deg_f = images_f[0][0][0]
        deg_g = images_g[0][0][0]
        assert abs(deg_fg) == abs(deg_f * deg_g) == 1
        assert deg_fg == deg_f * deg_g

    def test_identity_composition_neutral(self):
        p = cylinder_map()
        identity = VertexMap.build(p.source, p.source, {v: v for v in p.source.vertices})
        assert compose(p, identity).assignment == p.assignment


class TestFlattenSupportCompatibility:
    def test_flattened_support_is_chain_top(self):
        rng = random.Random(31)
        for seed in range(5):
            base = random_complex(seed)
            beta = barycentric_subdivision(base)
            for _ in range(40):
                x = random_point(beta, rng)
                flat = flatten_point(x, base)
                assert set(flat.support) == set(chain_max(x.support))

    def test_lift_support_spans_chain_of_support(self):
        rng = random.Random(37)
        base = simplex(2)
        beta = barycentric_subdivision(base)
        for _ in range(40):
            x = random_point(base, rng)
            lifted = lift_to_subdivision(x, beta)
            assert set(chain_max(lifted.support)) == set(x.support)


class TestStarCones:
    def test_barycentric_vertex_stars_are_extensors(self):
        for base in (simplex(2), sphere(2), simplex(3)):
            for v in list(base.vertices)[:2]:
                star = barycentric_vertex_star(base, v)
                for n in range(1, 5):
                    assert ae_verdict(star.as_complex(), n).is_holds

    def test_mesh_at_most_diameter(self):
        for seed in range(5):
            base = random_complex(seed)
            assert mesh(cover_B(base), Fraction(1, 3)).value <= 2 * Fraction(1, 3)


class TestRandomMapSweeps:
    def test_preimage_membership_on_random_quasi_simplicial_maps(self):
        from polytower.maps import preimage_subcomplex
        from util import random_qsmap

        rng = random.Random(91)
        for seed in range(5):
            base = random_complex(seed)
            p = random_qsmap(base, seed + 60)
            deltas = p.target.sorted_simplices()
            for _ in range(40):
                x = random_point(p.source, rng)
                pushed = apply_subdivision(p, x)
                support = set(pushed.support)
                for delta in deltas:
                    assert (x.support in preimage_subcomplex(p, delta).simplices) == (support <= set(delta))

    def test_regularity_of_subdivision_bonds_on_random_bases(self):
        from polytower.towers import regularity_report

        for seed in range(5):
            tower = subdivision_tower(random_complex(seed), 2)
            report = regularity_report(tower.bonds[0], 1)
            assert report["aggregate"].is_holds


class TestLiftPreconditions:
    def test_non_lift_seed_rejected(self):
        from polytower.plmaps import PartialPLMap
        from polytower.stars import cover_B
        from polytower.towers import single_lift
        import pytest

        t = subdivision_tower(simplex(2), 2)
        domain = simplex_complex(["x"])
        f = from_vertex_images(domain, {"x": "a"}, t.levels[0])
        anchor = subcomplex_from(domain, [["x"]])
        bad_seed = PartialPLMap.build(
            domain, anchor, {"x": vertex_point(t.levels[1], ("b",))}, t.levels[1]
        )
        with pytest.raises(ValueError):
            single_lift(t.bonds[0], cover_B(t.levels[0]), f, anchor, bad_seed, 2)


class TestPulledOpenStarCover:
    def test_depth_two_open_kind(self):
        from polytower.towers import Tower

        t = subdivision_tower(simplex(2), 2)
        t_open = Tower.build(t.levels, t.bonds, t.scales, cover_kind="O")
        cover, verdicts = pullback_star_cover(t_open, 1, 2, "O", n=2)
        assert len(cover.indices) == 3
        assert verdicts
        assert all(v.is_holds or v.is_inconclusive for v in verdicts.values())
        singles = [v for key, v in verdicts.items() if len(key) == 1]
        assert all(v.is_holds for v in singles)


class TestIncrementBoundSoundness:
    def test_projected_pairs_within_cone_mesh_times_lipschitz(self):
        # two points inside one star element of a deep level, projected down
        # through the bonds, stay within the certified increment bound
        from polytower.maps import apply, lipschitz_constant
        from polytower.stars import cone_geodesic_diameter_bound
        from polytower.towers import Tower

        rng = random.Random(71)
        for seed in range(4):
            base = random_complex(seed, max_vertices=5, max_faces=3, max_simplices=15)
            tower = subdivision_tower(base, 2)
            m = tower.depth() - 1  # deepest level, zero based
            cover = cover_B(tower.levels[m])
            cone = cone_geodesic_diameter_bound(cover, tower.scales[m])
            lips = [
                lipschitz_constant(tower.bonds[i], tower.scales[i + 1], tower.scales[i])
                for i in range(len(tower.bonds))
            ]
            for k in range(m):
                product = Fraction(1)
                for i in range(k, m):
                    product *= lips[i]
                bound = product * cone
                for index, element in cover.elements[:3]:
                    simplices = sorted(element.simplices, key=lambda s: (len(s), s))
                    for _ in range(10):
                        pts = []
                        for _ in range(2):
                            chain = rng.choice(simplices)
                            weights = [rng.randint(1, 5) for _ in chain]
                            total = sum(weights)
                            lifted = make_point(
                                element.parent,
                                {c: Fraction(w, total) for c, w in zip(chain, weights)},
                            )
                            pts.append(flatten_point(lifted, tower.levels[m]))
                        a_pt, b_pt = pts
                        for i in range(m - 1, k - 1, -1):
                            a_pt = apply(tower.bonds[i], a_pt)
                            b_pt = apply(tower.bonds[i], b_pt)
                        a_pt = make_point(tower.levels[k], a_pt.as_dict(), tower.scales[k])
                        b_pt = make_point(tower.levels[k], b_pt.as_dict(), tower.scales[k])
                        assert distance(a_pt, b_pt) <= bound


class TestExtensionDeterminism:
    def test_identical_runs_identical_output(self):
        from polytower.carriers import Carrier, extend_carried
        from polytower.plmaps import PartialPLMap
        from polytower.stars import IndexedCover

        target = simplex(2)
        domain = simplex_complex(["x", "y"])
        cov = IndexedCover.build(
            domain,
            "closed",
            {("x", "y"): subcomplex_from(domain, [["x", "y"]])},
        )
        carrier = Carrier.build(cov, {("x", "y"): whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"], ["y"]]),
            {"x": vertex_point(target, "a"), "y": vertex_point(target, "c")},
            target,
        )
        results = [extend_carried(seed, carrier) for _ in range(2)]
        assert results[0].extended.images == results[1].extended.images
        assert results[0].extended.domain == results[1].extended.domain

    def test_tower_certificates_identical(self):
        from polytower import formats
        from polytower.towers import verify_tower

        t = subdivision_tower(simplex(2), 2)
        a = formats.dumps_canonical(verify_tower(t, 2).to_obj())
        b = formats.dumps_canonical(verify_tower(t, 2).to_obj())
        assert a == b
