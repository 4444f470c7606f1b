import random
from fractions import Fraction

import pytest

from polytower.complexes import (
    Complex,
    Subcomplex,
    barycentric_subdivision,
    induced_subcomplex,
    make_point,
    subcomplex_from,
)
from polytower import formats
from polytower.generators import projective_plane, sphere, subdivision_tower
from polytower.maps import (
    NotSimplicialError,
    VertexMap,
    apply,
    apply_subdivision,
    check_quasi_simplicial,
    check_simplicial,
    chain_map_columns,
    identity_qsmap,
    induced_homology_map,
    is_surjective,
    lipschitz_constant,
    preimage_of_base_subcomplex,
    preimage_of_subdivided_subcomplex,
    preimage_subcomplex,
)
from polytower.stars import cover_B
from polytower.verdicts import Verdict
from polytower import snf

from util import (
    closed_star,
    compose,
    corpus_towers,
    cylinder_complex,
    cylinder_map,
    distance,
    kernel_complexes,
    random_complex,
    random_point,
    random_qsmap,
    random_surjective_vertex_map,
    random_vertex_subsets,
    reference_homology,
    reference_induced_homology_map,
    rp2_complex,
    scan_is_surjective,
    scan_preimage,
    scan_preimage_of_base,
    scan_preimage_of_subdivided,
    simplex_complex,
    sphere_complex,
    vertex_image_point,
    vertex_point,
)


class TestCheckSimplicial:
    def test_identity_holds(self):
        k = simplex_complex(["a", "b", "c"])
        vm = VertexMap.build(k, k, {v: v for v in k.vertices})
        assert check_simplicial(vm).is_holds

    def test_edge_to_disjoint_vertices_fails(self):
        src = simplex_complex(["a", "b"])
        dst = Complex.from_maximal([["u"], ["v"]])
        vm = VertexMap.build(src, dst, {"a": "u", "b": "v"})
        v = check_simplicial(vm)
        assert v.is_fails and v.witness == ("a", "b")

    def test_cylinder_map_all_twelve_triangles(self):
        p = cylinder_map()
        assert len(p.source.simplices_of_dim(2)) == 12
        assert check_simplicial(p).is_holds


class TestQuasiSimplicial:
    def test_identity_subdivision(self):
        base = simplex_complex(["u", "v"])
        p = identity_qsmap(base)
        assert p.source == barycentric_subdivision(base)

    def test_identity_is_a_vertex_map_into_the_subdivision(self):
        base = simplex_complex(["u", "v", "w"])
        p = identity_qsmap(base)
        assert isinstance(p, VertexMap)
        assert p.target == barycentric_subdivision(base) and p.base_target == base
        assert p(("u", "w")) == ("u", "w")

    def test_constant_map(self):
        k = simplex_complex(["a", "b", "c"])
        base = simplex_complex(["u", "v"])
        p = check_quasi_simplicial(k, base, {v: ("u",) for v in k.vertices})
        assert is_surjective(p).is_fails

    def test_non_adjacent_pair_rejected(self):
        src = simplex_complex(["a", "b"])
        base = simplex_complex(["u", "v"])
        with pytest.raises(NotSimplicialError):
            check_quasi_simplicial(src, base, {"a": ("u",), "b": ("v",)})


class TestSurjectivity:
    def test_identity_subdivision_surjective(self):
        assert is_surjective(identity_qsmap(simplex_complex(["u", "v"]))).is_holds

    def test_constant_map_witness(self):
        k = simplex_complex(["a", "b", "c"])
        base = simplex_complex(["u", "v"])
        p = check_quasi_simplicial(k, base, {v: ("u",) for v in k.vertices})
        v = is_surjective(p)
        assert v.is_fails
        # both maximal edges of the subdivided segment are uncovered; the
        # witness is the canonically first one
        assert v.witness in ((("u",), ("u", "v")), (("u", "v"), ("v",)))

    def test_cylinder_surjective(self):
        assert is_surjective(cylinder_map()).is_holds

    def test_random_least_vertex_maps_surjective(self):
        for seed in range(10):
            base = random_complex(seed)
            vm = random_surjective_vertex_map(base, seed + 100)
            assert check_simplicial(vm).is_holds
            assert is_surjective(vm).is_holds


class TestPreimage:
    def test_identity_gives_back_simplex(self):
        base = simplex_complex(["u", "v"])
        p = identity_qsmap(base)
        for delta in p.target.sorted_simplices():
            sub = preimage_subcomplex(p, delta)
            assert set(delta) == set(sub.vertices)
            assert tuple(sorted(delta, key=lambda x: (len(x), x))) in {
                tuple(sorted(s, key=lambda x: (len(x), x))) for s in sub.simplices
            }

    def test_cylinder_middle_circle(self):
        p = cylinder_map()
        sub = preimage_subcomplex(p, (("u", "v"),))
        assert sorted(sub.vertices) == ["m0", "m1", "m2"]
        assert sorted(len(s) for s in sub.simplices) == [1, 1, 1, 2, 2, 2]

    def test_cylinder_bottom_tube(self):
        p = cylinder_map()
        sub = preimage_subcomplex(p, (("u",), ("u", "v")))
        assert len(sub.vertices) == 6
        dims = [len([s for s in sub.simplices if len(s) == k]) for k in (1, 2, 3)]
        assert dims == [6, 12, 6]

    def test_membership_agreement_sampled(self):
        p = cylinder_map()
        rng = random.Random(0)
        deltas = p.target.sorted_simplices()
        for _ in range(300):
            x = random_point(p.source, rng)
            pushed = apply_subdivision(p, x)
            for delta in deltas:
                in_sub = x.support in preimage_subcomplex(p, delta).simplices
                in_delta = set(pushed.support) <= set(delta)
                assert in_sub == in_delta

    def test_preimage_of_base_subcomplex_restriction(self):
        p = cylinder_map()
        edge = subcomplex_from(p.base_target, [["u", "v"]])
        total = preimage_of_base_subcomplex(p, edge)
        assert total.simplices == p.source.simplices
        u_only = subcomplex_from(p.base_target, [["u"]])
        bottom = preimage_of_base_subcomplex(p, u_only)
        assert sorted(bottom.vertices) == ["b0", "b1", "b2"]


def fiber_maps():
    """(label, map) pairs: `random_qsmap` on the kernel complexes of at most
    120 simplices, three seeds each."""
    for label, base in kernel_complexes():
        if len(base.simplices) <= 120:
            for seed in range(3):
                yield "%s seed %d" % (label, seed), random_qsmap(base, seed)


class TestFiberCrossCheck:
    """The fiber-indexed preimages against whole-source scans."""

    def test_preimage_subcomplex_matches_scan(self):
        for label, p in fiber_maps():
            for delta in p.target.simplices:
                assert preimage_subcomplex(p, delta).simplices == scan_preimage(p, delta), (label, delta)

    def test_preimage_subcomplex_names(self):
        p = cylinder_map()
        # a simplex is a sorted tuple of names as the target holds them
        for delta in ([("u", "v")], (["u", "v"],), (("v", "u"),), (("u", "w"),), (("u",), ("u", "v"))[::-1]):
            with pytest.raises(ValueError):
                preimage_subcomplex(p, delta)

    def test_preimage_of_subdivided_subcomplex_matches_scan(self):
        for seed, (label, p) in enumerate(fiber_maps()):
            subs = [induced_subcomplex(p.target, w) for w in random_vertex_subsets(p.target, seed, count=4)]
            subs += [e for _, e in cover_B(p.base_target).elements]
            for sub in subs:
                expected = scan_preimage_of_subdivided(p, sub)
                assert preimage_of_subdivided_subcomplex(p, sub).simplices == expected, label

    def test_preimage_of_base_subcomplex_matches_scan(self):
        # induced subcomplexes, closed vertex stars and the 1-skeleton, which
        # is not induced wherever the base has a triangle
        for seed, (label, p) in enumerate(list(fiber_maps()) + [("cylinder", cylinder_map())]):
            base = p.base_target
            subs = [induced_subcomplex(base, w) for w in random_vertex_subsets(base, seed, count=4)]
            subs += [Subcomplex(base, closed_star(base, v)) for v in base.vertices]
            subs.append(Subcomplex(base, frozenset(s for s in base.simplices if len(s) <= 2)))
            for sub in subs:
                expected = scan_preimage_of_base(p, sub)
                assert preimage_of_base_subcomplex(p, sub).simplices == expected, (label, len(sub.simplices))

    def test_is_surjective_matches_scan(self):
        maps = [p for _, p in fiber_maps()] + [cylinder_map()]
        for seed in range(6):
            k = random_complex(seed)
            maps.append(random_surjective_vertex_map(k, seed))
            # the inclusion of k without its last maximal simplex misses it
            rest = Complex.from_maximal(k.maximal[:-1])
            maps.append(VertexMap.build(rest, k, {v: v for v in rest.vertices}))
            maps.append(check_quasi_simplicial(k, k, {v: (k.vertices[0],) for v in k.vertices}))
        failing = 0
        for p in maps:
            verdict = is_surjective(p)
            assert verdict == scan_is_surjective(p), p.source
            failing += verdict.is_fails
        assert 0 < failing < len(maps)


class TestApply:
    def test_vertex_goes_to_vertex(self):
        p = cylinder_map()
        out = apply(p, vertex_point(p.source, "b0"))
        assert out.as_dict() == {"u": Fraction(1)}

    def test_midpoint_pushforward(self):
        p = cylinder_map()
        mid = make_point(p.source, {"b0": Fraction(1, 2), "m0": Fraction(1, 2)})
        out = apply(p, mid)
        assert out.as_dict() == {"u": Fraction(3, 4), "v": Fraction(1, 4)}

    def test_constant_map_sends_everything_to_vertex(self):
        k = simplex_complex(["a", "b", "c"])
        base = simplex_complex(["u", "v"])
        p = check_quasi_simplicial(k, base, {v: ("u",) for v in k.vertices})
        rng = random.Random(1)
        for _ in range(20):
            out = apply(p, random_point(k, rng))
            assert out.as_dict() == {"u": Fraction(1)}

    def test_apply_is_affine(self):
        p = cylinder_map()
        rng = random.Random(2)
        for _ in range(20):
            simplex = rng.choice(p.source.simplices_of_dim(2))
            w = [Fraction(rng.randint(1, 5)) for _ in simplex]
            total = sum(w)
            x = make_point(p.source, {v: c / total for v, c in zip(simplex, w)})
            direct = apply(p, x)
            combo: dict = {}
            for v, c in zip(simplex, w):
                for tv, tc in apply(p, vertex_point(p.source, v)).coords:
                    combo[tv] = combo.get(tv, Fraction(0)) + (c / total) * tc
            assert direct.as_dict() == {k2: v2 for k2, v2 in combo.items() if v2}


class TestLipschitz:
    def test_identity_subdivision_is_half(self):
        p = identity_qsmap(simplex_complex(["u", "v"]))
        assert lipschitz_constant(p, 1, 1) == Fraction(1, 2)

    def test_edge_onto_vertex_and_barycenter(self):
        base = simplex_complex(["a", "b", "c"])
        src = simplex_complex(["x", "y"])
        p = check_quasi_simplicial(src, base, {"x": ("a",), "y": ("a", "b", "c")})
        assert lipschitz_constant(p, 1, 1) == Fraction(2, 3)

    def test_constant_map_zero(self):
        k = simplex_complex(["a", "b"])
        base = simplex_complex(["u", "v"])
        p = check_quasi_simplicial(k, base, {v: ("u",) for v in k.vertices})
        assert lipschitz_constant(p, 1, 1) == 0

    def test_scale_dependence(self):
        p = identity_qsmap(simplex_complex(["u", "v"]))
        assert lipschitz_constant(p, Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2) * 2

    def test_sampled_ratios_within_constant(self):
        rng = random.Random(7)
        for seed in range(10):
            base = random_complex(seed)
            p = random_qsmap(base, seed)
            const = lipschitz_constant(p, 1, 1)
            simplices = sorted(p.source.simplices, key=lambda s: (len(s), s))
            for _ in range(100):
                s = rng.choice(simplices)
                x = _point_in(p.source, s, rng)
                y = _point_in(p.source, s, rng)
                if x.coords == y.coords:
                    continue
                assert distance(apply(p, x), apply(p, y)) <= const * distance(x, y)

    def test_constant_attained_at_vertex_pair(self):
        for seed in range(5):
            base = random_complex(seed)
            p = random_qsmap(base, seed + 50)
            const = lipschitz_constant(p, 1, 1)
            attained = Fraction(0)
            for edge in p.source.simplices_of_dim(1):
                u, v = edge
                d = distance(vertex_image_point(p, u), vertex_image_point(p, v))
                attained = max(attained, d / 2)
            assert attained == const


def _point_in(complex_, simplex, rng):
    nums = [rng.randint(0, 6) for _ in simplex]
    if sum(nums) == 0:
        nums[0] = 1
    total = sum(nums)
    return make_point(complex_, {v: Fraction(n, total) for v, n in zip(simplex, nums) if n}, 1)


class TestCompose:
    def test_identity_neutral(self):
        p = cylinder_map()
        left = compose(identity_qsmap(p.base_target), p)
        hmm = left  # composition with the subdivision identity keeps images
        assert hmm.assignment == p.assignment

    def test_plain_composition(self):
        a = simplex_complex(["a", "b"])
        b = simplex_complex(["u", "v"])
        c = simplex_complex(["x"])
        f = VertexMap.build(a, b, {"a": "u", "b": "v"})
        g = VertexMap.build(b, c, {"u": "x", "v": "x"})
        assert compose(g, f).lookup == {"a": "x", "b": "x"}

    def test_two_collapses_stack(self):
        # collapse the cylinder onto the edge, then the edge onto a vertex
        p = cylinder_map()
        edge = p.base_target
        point = simplex_complex(["z"])
        q = check_quasi_simplicial(edge, point, {"u": ("z",), "v": ("z",)})
        composed = compose(q, p)
        # every cylinder vertex ends on the single vertex after flattening
        images = set(composed.lookup.values())
        assert images == {"z"}

    def test_subdivision_identity_after_cylinder(self):
        # quasi-simplicial after quasi-simplicial lands in a double subdivision
        base = simplex_complex(["u", "v"])
        p = identity_qsmap(base)  # beta(edge) -> edge
        q = cylinder_map()  # cylinder -> edge; need source match: compose p after relabel
        composed = compose(p, identity_qsmap(barycentric_subdivision(base)))
        # images are names one level deeper than the base complex
        depths = {max(_depth(v) for v in composed.lookup.values())}
        assert depths == {2}

    def test_explicit_vertex_table_for_stacked_collapse(self):
        p = cylinder_map()
        point = simplex_complex(["z"])
        q = check_quasi_simplicial(p.base_target, point, {"u": ("z",), "v": ("z",)})
        composed = compose(q, p)
        expected = {v: "z" for v in p.source.vertices}
        assert composed.lookup == expected


def _depth(name):
    if isinstance(name, str):
        return 0
    return 1 + max(_depth(p) for p in name)


class TestInducedHomology:
    def test_identity_subdivision_iso_all_degrees(self):
        p = identity_qsmap(simplex_complex(["u", "v"]))
        for k in range(2):
            verdict = induced_homology_map(p, k)
            assert verdict.is_holds

    def test_cylinder_kills_h1(self):
        p = cylinder_map()
        verdict = induced_homology_map(p, 1)
        assert verdict.is_fails
        assert verdict.witness["source"] == {"betti": 1, "torsion": []}
        assert verdict.witness["target"] == {"betti": 0, "torsion": []}

    def test_cylinder_h0_iso(self):
        verdict = induced_homology_map(cylinder_map(), 0)
        assert verdict.is_holds

    def test_point_constant_map(self):
        k = simplex_complex(["p"])
        base = simplex_complex(["q"])
        p = check_quasi_simplicial(k, base, {"p": ("q",)})
        verdict = induced_homology_map(p, 0)
        assert verdict.is_holds

    def test_least_vertex_approximation_iso_on_rp2(self):
        base = rp2_complex()
        vm = random_surjective_vertex_map(base, 3)
        for k in range(3):
            verdict = induced_homology_map(vm, k)
            assert verdict.is_holds, (k, verdict)

    def test_least_vertex_approximation_iso_on_spheres(self):
        for dim in (1, 2):
            base = sphere_complex(dim)
            vm = random_surjective_vertex_map(base, dim)
            for k in range(dim + 1):
                verdict = induced_homology_map(vm, k)
                assert verdict.is_holds

    def test_reflection_bond_reverses_the_circle(self):
        # β(C) onto the circle C by the reflection swapping a and b: edges
        # of β(C) land reversed, so the chain map carries the odd sign and
        # degree 1 is multiplication by -1, an isomorphism
        circle = Complex.from_maximal([["a", "b"], ["b", "c"], ["a", "c"]])
        swap = {"a": "b", "b": "a", "c": "c"}
        beta = barycentric_subdivision(circle)
        p = check_quasi_simplicial(beta, circle, {v: tuple(sorted(swap[x] for x in v)) for v in beta.vertices})
        assert induced_homology_map(p, 1) == Verdict.holds()
        assert reference_induced_homology_map(p, 1) == ([((-1,), ())], Verdict.holds())
        assert -1 in [sign for column in chain_map_columns(p, 1) for sign in column.values()]

    def test_degree_two_bond_is_not_onto(self):
        # the 12-cycle wound twice around β(C): H1 goes to twice a generator
        circle = Complex.from_maximal([["a", "b"], ["b", "c"], ["a", "c"]])
        around = [("a",), ("a", "b"), ("b",), ("b", "c"), ("c",), ("a", "c")]
        names = ["x%02d" % j for j in range(12)]
        cycle = Complex.from_maximal([[names[j], names[(j + 1) % 12]] for j in range(12)])
        p = check_quasi_simplicial(cycle, circle, {x: around[j % 6] for j, x in enumerate(names)})
        not_onto = Verdict.fails(witness={"invariant_factors": [2]}, reason="induced map is not onto")
        assert induced_homology_map(p, 1) == not_onto
        assert reference_induced_homology_map(p, 1) == ([((2,), ())], not_onto)

    def test_functoriality_on_chains(self):
        base = sphere_complex(1)
        f = random_surjective_vertex_map(base, 11)  # beta(circle) -> circle
        g = random_surjective_vertex_map(barycentric_subdivision(base), 12)
        composed = compose(f, g)
        for k in range(2):
            lhs = chain_map_columns(composed, k)
            rhs = [snf.combine(chain_map_columns(f, k), column) for column in chain_map_columns(g, k)]
            assert lhs == rhs


class TestHomologyCoordinates:
    """The two recorded reductions behind the reference's canonical homology
    coordinates must agree with each other; verdict-level tests only see
    group invariants."""

    @staticmethod
    def cases():
        complexes = list(subdivision_tower(simplex_complex(["a", "b", "c"]), 3).levels)
        complexes += [rp2_complex(), sphere_complex(1), cylinder_complex()]
        for k in complexes:
            for deg in range(k.dimension + 1):
                yield k, deg, reference_homology(k, deg)

    def test_generators_have_unit_coordinates(self):
        for _, _, data in self.cases():
            n_free = len(data.free_positions)
            generators = data.generator_cycles()
            assert len(generators) == n_free + len(data.torsion_entries)
            for idx, cycle in enumerate(generators):
                free = tuple(int(i == idx) for i in range(n_free))
                tor = tuple(
                    int(i == idx - n_free) % order for i, (_, order) in enumerate(data.torsion_entries)
                )
                assert data.coords_of_cycle(cycle) == (free, tor)

    def test_single_edge_is_not_a_cycle(self):
        for _, deg, data in self.cases():
            if deg == 1:
                assert data.coords_of_cycle({0: 1}) is None

    def test_recorded_transforms_are_inverse(self):
        # V * V^-1 = I for both recorded reductions
        for _, _, data in self.cases():
            quotient_inverse = snf.transpose_sparse(data.quotient.right_inverse, data.quotient.cols)
            for red, inverse in ((data.cycles, data.inverse_columns), (data.quotient, quotient_inverse)):
                for j, column in enumerate(red.right):
                    assert snf.combine(inverse, column) == {j: 1}



def _cycle_names(prefix: str, m: int) -> tuple:
    names = ["%s%02d" % (prefix, j) for j in range(m)]
    return names, [[names[j], names[(j + 1) % m]] for j in range(m)]


def wrapped_circle(degree: int) -> VertexMap:
    """A circle of 3 * max(degree, 1) edges wound `degree` times around a
    triangle's boundary; degree 0 is the constant map."""
    triangle = Complex.from_maximal([["a", "b"], ["b", "c"], ["a", "c"]])
    names, edges = _cycle_names("x", 3 * max(degree, 1))
    return VertexMap.build(
        Complex.from_maximal(edges), triangle, {v: "abc"[j % 3] if degree else "a" for j, v in enumerate(names)}
    )


def two_circles_onto_wedge(da: int, db: int) -> VertexMap:
    """Two disjoint circles wound da and db times around the two loops of a
    wedge of two triangle boundaries; H_1 is Z^2 on both sides."""
    wedge = Complex.from_maximal([["w", "a1"], ["a1", "a2"], ["a2", "w"], ["w", "b1"], ["b1", "b2"], ["b2", "w"]])
    images = {}
    for prefix, degree, loop in (("x", da, ("w", "a1", "a2")), ("y", db, ("w", "b1", "b2"))):
        names, _ = _cycle_names(prefix, 3 * max(degree, 1))
        images.update({v: loop[j % 3] if degree else "w" for j, v in enumerate(names)})
    edges = _cycle_names("x", 3 * max(da, 1))[1] + _cycle_names("y", 3 * max(db, 1))[1]
    return VertexMap.build(Complex.from_maximal(edges), wedge, images)


def constant_map(complex_) -> VertexMap:
    return VertexMap.build(complex_, complex_, {v: complex_.vertices[0] for v in complex_.vertices})


# (label, map, degree, invariant factors of the not-onto witness)
NOT_ONTO = [
    ("circle wound 0 times", wrapped_circle(0), 1, []),
    ("circle wound 2 times", wrapped_circle(2), 1, [2]),
    ("circle wound 3 times", wrapped_circle(3), 1, [3]),
    ("circle wound 4 times", wrapped_circle(4), 1, [4]),
    ("wedge 0 0", two_circles_onto_wedge(0, 0), 1, []),
    ("wedge 1 0", two_circles_onto_wedge(1, 0), 1, [1]),
    ("wedge 1 2", two_circles_onto_wedge(1, 2), 1, [1, 2]),
    ("wedge 2 3", two_circles_onto_wedge(2, 3), 1, [1, 6]),
    ("wedge 2 2", two_circles_onto_wedge(2, 2), 1, [2, 2]),
    ("constant rp2", constant_map(projective_plane()), 1, [2]),
    ("constant sphere", constant_map(sphere(2)), 2, []),
]


def verdict_bytes(verdict) -> str:
    return formats.dumps_canonical(formats.verdict_to_obj(verdict))


class TestInducedHomologyAgainstReference:
    """The verdict read off ranks and one span has the bytes of the verdict
    of the reference, which maps canonical generators through recorded
    transforms and their inverses."""

    @staticmethod
    def assert_as_reference(p, k):
        _, expected = reference_induced_homology_map(p, k)
        assert verdict_bytes(induced_homology_map(p, k)) == verdict_bytes(expected), k

    def test_kernel_complex_maps(self):
        for label, k in kernel_complexes():
            for seed in range(2):
                for p in (random_qsmap(k, seed), random_surjective_vertex_map(k, seed)):
                    for deg in range(k.dimension + 1):
                        self.assert_as_reference(p, deg)

    def test_corpus_bonds(self):
        for label, tower in corpus_towers():
            for bond in tower.bonds:
                for deg in range(bond.source.dimension + 1):
                    self.assert_as_reference(bond, deg)

    @pytest.mark.parametrize("label, p, k, factors", NOT_ONTO, ids=[case[0] for case in NOT_ONTO])
    def test_not_onto_witness(self, label, p, k, factors):
        verdict = induced_homology_map(p, k)
        assert verdict == Verdict.fails(witness={"invariant_factors": factors}, reason="induced map is not onto")
        self.assert_as_reference(p, k)

    def test_onto_in_the_other_degrees(self):
        for label, p, k, _ in NOT_ONTO:
            for deg in range(p.source.dimension + 1):
                if deg != k:
                    self.assert_as_reference(p, deg)
