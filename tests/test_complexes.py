import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polytower.complexes import (
    Complex,
    DuplicateVertexError,
    EmptySimplexError,
    UnknownVertexError,
    barycentre_distance,
    barycentric_subdivision,
    beta_subcomplex,
    canon_vertex,
    induced_subcomplex,
    simplex_sort_key,
    subcomplex_from,
    vertex_key,
)
from polytower.points import barycenter_point, flatten_point, lift_to_subdivision, make_point

from util import (
    ScaleMismatchError,
    brute_force_closure,
    brute_force_maximal,
    chain_f_vector,
    closed_star,
    cylinder_complex,
    distance,
    is_full_subcomplex,
    kernel_complexes,
    random_complex,
    random_point,
    random_vertex_subsets,
    scan_beta_subcomplex,
    scan_closed_star,
    scan_induced,
    scan_is_full,
    shape_distance,
    simplex_complex,
    sphere_complex,
    subdivision_flags,
    vertex_point,
)


class TestValidate:
    def test_triangle_closure(self):
        k = Complex.from_maximal([["a", "b", "c"]])
        assert k.dimension == 2
        assert len(k.simplices) == 7
        assert k.f_vector() == (3, 3, 1)

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexError):
            Complex.from_maximal([["a", "a"]])

    def test_empty_simplex_rejected(self):
        with pytest.raises(EmptySimplexError):
            Complex.from_maximal([[]])

    def test_name_of_another_type_rejected(self):
        with pytest.raises(TypeError, match="vertex names are strings or nested tuples"):
            Complex.from_maximal([[1]])

    def test_immutable_and_equal_only_to_complexes(self):
        k = Complex.from_maximal([["a", "b"]])
        with pytest.raises(AttributeError, match="Complex is immutable"):
            k.maximal = ()
        assert k.maximal == (("a", "b"),)
        assert (k == 5) is False

    def test_boundary_of_tetrahedron(self):
        k = sphere_complex(2)
        expected = brute_force_closure(k.maximal)
        assert k.simplices == frozenset(expected)
        assert len(k.simplices) == 14
        assert k.f_vector() == (4, 6, 4)

    def test_extra_vertices_become_isolated(self):
        k = Complex.from_maximal([["a", "b"]], extra_vertices=["z"])
        assert k.has_vertex("z")
        assert ("z",) in k.simplices

    def test_maximal_recomputed(self):
        k = Complex.from_maximal([["a", "b"], ["a", "b", "c"]])
        assert k.maximal == (("a", "b", "c"),)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_face_closure_property(self, raw):
        k = Complex.from_maximal(raw)
        for s in k.simplices:
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                if face:
                    assert face in k.simplices


class TestVertexOrder:
    def test_atoms_before_tuples(self):
        assert vertex_key("z") < vertex_key(("a",))

    def test_canon_sorts_nested(self):
        assert canon_vertex(["b", "a"]) == ("a", "b")

    @given(st.recursive(st.text("abc", min_size=1, max_size=2), lambda inner: st.lists(inner, min_size=1, max_size=3).map(tuple), max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_key_total_order(self, name):
        try:
            c = canon_vertex(name)
        except (DuplicateVertexError, EmptySimplexError):
            return
        key = vertex_key(c)
        assert key == vertex_key(canon_vertex(c))

    def test_memoised_key_matches_reference(self):
        def reference(name):
            if isinstance(name, str):
                return (0, name)
            return (1, tuple(reference(p) for p in name))

        for label, k in kernel_complexes():
            for v in k.vertices:
                assert vertex_key(v) == reference(v), (label, v)
            assert list(k.vertices) == sorted(k.vertices, key=reference), label


def test_kernel_caches_are_bounded():
    import importlib
    import pkgutil
    from functools import cached_property

    import polytower
    from polytower.complexes import _position_flags
    from polytower.connectivity import homology_coordinates
    from polytower.maps import VertexMap

    # the package's only module-level memos are the name key and the flags
    # of a standard simplex, each with a fixed bound
    memos = set()
    for info in pkgutil.iter_modules(polytower.__path__):
        module = importlib.import_module("polytower." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                assert value.cache_info().maxsize is not None, (info.name, name)
                memos.add(value)
    assert memos == {vertex_key, _position_flags}
    # a level's reductions live for one call
    assert not hasattr(homology_coordinates, "cache_info")
    # the subdivision, vertex and fiber indexes live on their object and die with it
    k = simplex_complex(["a", "b", "c"])
    assert barycentric_subdivision(k) is barycentric_subdivision(k)
    assert k.maximal_at("a") is k.maximal_at("a")
    assert isinstance(vars(VertexMap)["simplex_fibers"], cached_property)


class TestMaximalSimplices:
    def test_facet_marking_matches_pairwise_scan(self):
        for label, k in kernel_complexes():
            rebuilt = Complex._from_closed(set(k.simplices))
            assert set(rebuilt.maximal) == brute_force_maximal(k.simplices), label
            assert list(rebuilt.maximal) == sorted(rebuilt.maximal, key=simplex_sort_key), label

    def test_dimension_is_the_largest_simplex(self):
        for label, k in kernel_complexes() + [("mixed", Complex.from_maximal([["a"], ["b", "c"], ["d", "e", "f"]]))]:
            assert k.dimension == max(len(s) for s in k.simplices) - 1, label
        assert Complex._from_closed(set()).dimension == -1


def rank_order_cases() -> list:
    """Complexes for the rank-keyed orders: the kernel complexes, larger
    random ones, and complexes whose names mix atoms and tuples, with
    tuples that are prefixes of one another."""
    cases = kernel_complexes()
    cases += [("random %d" % seed, random_complex(seed, max_vertices=9, max_simplices=60)) for seed in range(12, 40)]
    for raw in (
        [["a", ("b", "c")], [("b", "c"), ("a",)], ["z", ("a",)]],
        [[("a",), ("a", "b"), ("b",)], [("a", "b"), "b", "c"], ["c", ("a", "b", "c")]],
        [[(("a",), ("a", "b")), ("a",), "a"], [("a", "b", "c"), ("a", "c"), "b"], [("a",), ("a", "c")]],
    ):
        k = Complex.from_maximal(raw)
        cases += [("mixed %r" % (k.vertices,), k), ("beta of mixed %r" % (k.vertices,), barycentric_subdivision(k))]
    return cases


class TestRankOrder:
    """Orders read from vertex ranks against the `vertex_key` and
    `simplex_sort_key` sorts they replace."""

    def test_complex_orders(self):
        for label, k in rank_order_cases():
            assert k.vertices == tuple(sorted({v for s in k.simplices for v in s}, key=vertex_key)), label
            assert k.maximal == tuple(sorted(brute_force_maximal(k.simplices), key=simplex_sort_key)), label
            assert k.sorted_simplices() == sorted(k.simplices, key=simplex_sort_key), label
            for d in range(k.dimension + 1):
                assert k.simplices_of_dim(d) == sorted((s for s in k.simplices if len(s) == d + 1), key=simplex_sort_key)

    def test_subdivision_orders(self):
        for label, k in rank_order_cases():
            beta = barycentric_subdivision(k)
            flags = {tuple(sorted(flag, key=vertex_key)) for flag in subdivision_flags(k)}
            closure = brute_force_closure(flags)
            assert beta.simplices == frozenset(closure), label
            assert beta.vertices == tuple(sorted(k.simplices, key=vertex_key)), label
            assert beta.maximal == tuple(sorted(flags, key=simplex_sort_key)), label
            assert beta.sorted_simplices() == sorted(closure, key=simplex_sort_key), label


class TestLocalQueries:
    """The vertex-indexed queries against whole-complex scans."""

    def test_induced_subcomplex_matches_scan(self):
        for seed, (label, k) in enumerate(kernel_complexes()):
            for w in random_vertex_subsets(k, seed):
                assert induced_subcomplex(k, w).simplices == scan_induced(k, w), (label, w)

    def test_induced_subcomplex_names(self):
        k = barycentric_subdivision(simplex_complex(["a", "b"]))
        # names are taken as the complex holds them, and nothing else is one
        assert induced_subcomplex(k, [("a", "b")]).simplices == {(("a", "b"),)}
        for name in (["a", "b"], ("b", "a"), ("b", "c"), ["a", "a"]):
            with pytest.raises(UnknownVertexError):
                induced_subcomplex(k, [name])

    def test_closed_star_matches_scan(self):
        for label, k in kernel_complexes():
            for v in k.vertices:
                assert closed_star(k, v) == scan_closed_star(k, v), (label, v)
        with pytest.raises(UnknownVertexError):
            closed_star(simplex_complex(["a", "b"]), "z")

    def test_is_full_subcomplex_matches_scan(self):
        for seed, (label, k) in enumerate(kernel_complexes()):
            for w in random_vertex_subsets(k, seed):
                induced = induced_subcomplex(k, w)
                assert is_full_subcomplex(induced) and scan_is_full(induced), (label, w)
                # dropping a top simplex of dimension at least one leaves
                # a face-closed subcomplex that is not full
                tops = [s for s in induced.simplices if len(s) > 1
                        and not any(set(s) < set(t) for t in induced.simplices)]
                for top in tops[:2]:
                    holed = subcomplex_from(k, [s for s in induced.simplices if s != top])
                    assert not is_full_subcomplex(holed), (label, top)
                    assert not scan_is_full(holed), (label, top)

    def test_beta_subcomplex_matches_scan(self):
        # the first 16 stop before the larger triangle levels, whose
        # subdivisions would dominate the suite's time
        for seed, (label, k) in enumerate(kernel_complexes()[:16]):
            beta = barycentric_subdivision(k)
            for w in random_vertex_subsets(k, seed, count=3):
                sub = induced_subcomplex(k, w)
                assert beta_subcomplex(sub).simplices == scan_beta_subcomplex(sub, beta), (label, w)


class TestSubdivision:
    def test_matches_validated_flags(self):
        for label, k in kernel_complexes():
            beta = barycentric_subdivision(k)
            reference = Complex.from_maximal(subdivision_flags(k))
            assert beta == reference, label
            assert beta.maximal == reference.maximal, label

    def test_trusts_its_canonical_flags(self, monkeypatch):
        import polytower.complexes as complexes

        calls = []

        def counted(name):
            calls.append(name)
            return canon_vertex(name)

        # built here, so no subdivision of them is kept yet
        inputs = [Complex.closure_of(k.maximal) for _, k in kernel_complexes()]
        monkeypatch.setattr(complexes, "canon_vertex", counted)
        for k in inputs:
            barycentric_subdivision(k)
        assert calls == []

    def test_edge(self):
        k = simplex_complex(["a", "b"])
        b = barycentric_subdivision(k)
        assert b.f_vector() == (3, 2)

    def test_triangle_against_chain_oracle(self):
        k = simplex_complex(["a", "b", "c"])
        b = barycentric_subdivision(k)
        assert b.f_vector() == (7, 12, 6)
        assert b.f_vector() == chain_f_vector(k)
        assert b.euler_characteristic() == 1

    def test_point_is_fixed(self):
        k = simplex_complex(["a"])
        b = barycentric_subdivision(k)
        assert b.f_vector() == (1,)
        assert b.vertices == (("a",),)

    def test_double_subdivision_of_edge(self):
        k = simplex_complex(["a", "b"])
        bb = barycentric_subdivision(barycentric_subdivision(k))
        assert bb.f_vector() == (5, 4)

    def test_vertex_count_is_simplex_count(self):
        for seed in range(5):
            k = random_complex(seed)
            b = barycentric_subdivision(k)
            assert len(b.vertices) == len(k.simplices)

    def test_chain_counts_on_random_complexes(self):
        for seed in range(5, 10):
            k = random_complex(seed, max_simplices=50)
            b = barycentric_subdivision(k)
            assert b.f_vector() == chain_f_vector(k)


class TestSubcomplexes:
    def test_induced_edge_in_triangle(self):
        k = simplex_complex(["a", "b", "c"])
        sub = induced_subcomplex(k, ["a", "b"])
        assert sub.simplices == frozenset({("a",), ("b",), ("a", "b")})

    def test_induced_in_boundary(self):
        k = sphere_complex(1)  # triangle boundary
        sub = induced_subcomplex(k, ["s0", "s1"])
        assert ("s0", "s1") in sub.simplices

    def test_unknown_vertex(self):
        k = simplex_complex(["a", "b"])
        with pytest.raises(UnknownVertexError):
            induced_subcomplex(k, ["q"])

    def test_cylinder_middle_circle(self):
        cyl = cylinder_complex()
        sub = induced_subcomplex(cyl, ["m0", "m1", "m2"])
        dims = sorted(len(s) for s in sub.simplices)
        assert dims == [1, 1, 1, 2, 2, 2]

    def test_full_edge_in_triangle(self):
        k = simplex_complex(["a", "b", "c"])
        sub = induced_subcomplex(k, ["a", "b"])
        assert is_full_subcomplex(sub, k)

    def test_two_vertices_not_full(self):
        k = simplex_complex(["a", "b", "c"])
        sub = subcomplex_from(k, [["a"], ["b"]])
        assert not is_full_subcomplex(sub, k)

    def test_boundary_not_full(self):
        k = simplex_complex(["a", "b", "c"])
        sub = subcomplex_from(k, [["a", "b"], ["b", "c"], ["a", "c"]])
        assert not is_full_subcomplex(sub, k)

    def test_induced_always_full(self):
        for seed in range(4):
            k = random_complex(seed)
            half = list(k.vertices)[: max(1, len(k.vertices) // 2)]
            assert is_full_subcomplex(induced_subcomplex(k, half), k)


class TestMetric:
    def test_vertex_distance(self):
        k = simplex_complex(["a", "b", "c"])
        assert distance(vertex_point(k, "a"), vertex_point(k, "b")) == 2

    def test_identity(self):
        k = simplex_complex(["a", "b"])
        x = make_point(k, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert distance(x, x) == 0

    def test_barycenter_to_vertex(self):
        k = simplex_complex(["a", "b", "c"])
        b = barycenter_point(k, ("a", "b", "c"))
        assert distance(b, vertex_point(k, "a")) == Fraction(4, 3)

    def test_barycenter_coordinates(self):
        k = simplex_complex(["a", "b"])
        b = barycenter_point(k, ("a", "b"))
        assert b.as_dict() == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    def test_nested_barycenter_distance_formula(self):
        # comparable barycenters at unit scale: 2 * (1 - small/large)
        k = simplex_complex(["a", "b", "c"])
        small = barycenter_point(k, ("a",))
        large = barycenter_point(k, ("a", "b", "c"))
        assert distance(small, large) == 2 * (1 - Fraction(1, 3))

    def test_barycentre_distance_closed_form(self):
        # 2 - 2c/max(a, b) against the term-by-term sum and the Point metric
        names = ["v%d" % i for i in range(16)]
        k = simplex_complex(names)
        for a in range(1, 9):
            for b in range(1, 9):
                for c in range(min(a, b) + 1):
                    x = barycenter_point(k, tuple(sorted(names[:a])))
                    y = barycenter_point(k, tuple(sorted(names[a - c : a - c + b])))
                    expected = shape_distance(a, b, c)
                    assert barycentre_distance(a, b, c) == expected == distance(x, y), (a, b, c)

    def test_scale_mismatch(self):
        k = simplex_complex(["a", "b"])
        with pytest.raises(ScaleMismatchError):
            distance(vertex_point(k, "a", 1), vertex_point(k, "b", Fraction(1, 2)))

    def test_scaling_is_linear(self):
        k = simplex_complex(["a", "b", "c"])
        half = Fraction(1, 2)
        d1 = distance(vertex_point(k, "a"), vertex_point(k, "b"))
        d2 = distance(vertex_point(k, "a", half), vertex_point(k, "b", half))
        assert d2 == half * d1

    @given(st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_metric_axioms_on_sampled_triples(self, seed):
        import random as random_module

        rng = random_module.Random(seed)
        k = random_complex(seed % 7)
        x, y, z = (random_point(k, rng) for _ in range(3))
        assert distance(x, y) == distance(y, x)
        assert distance(x, x) == 0
        assert distance(x, z) <= distance(x, y) + distance(y, z)
        if x.coords != y.coords:
            assert distance(x, y) > 0


class TestSubdivisionGeometry:
    def test_flatten_barycenter_vertex(self):
        k = simplex_complex(["a", "b"])
        b = barycentric_subdivision(k)
        mid = vertex_point(b, ("a", "b"))
        flat = flatten_point(mid, k)
        assert flat.as_dict() == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    def test_lift_round_trip(self):
        import random as random_module

        for seed in range(8):
            rng = random_module.Random(seed)
            k = random_complex(seed)
            b = barycentric_subdivision(k)
            x = random_point(k, rng)
            lifted = lift_to_subdivision(x, b)
            assert flatten_point(lifted, k).coords == x.coords

    def test_flatten_is_one_lipschitz_at_equal_scale(self):
        import random as random_module

        k = simplex_complex(["a", "b", "c"])
        b = barycentric_subdivision(k)
        rng = random_module.Random(5)
        for _ in range(50):
            x, y = random_point(b, rng), random_point(b, rng)
            dk = distance(flatten_point(x, k), flatten_point(y, k))
            db = distance(x, y)
            assert dk <= db

    def test_lift_support_is_a_chain(self):
        import random as random_module

        k = simplex_complex(["a", "b", "c"])
        b = barycentric_subdivision(k)
        rng = random_module.Random(9)
        for _ in range(30):
            x = random_point(k, rng)
            lifted = lift_to_subdivision(x, b)
            support = sorted(lifted.support, key=len)
            for small, large in zip(support, support[1:]):
                assert set(small) < set(large)
