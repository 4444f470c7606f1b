import random
from fractions import Fraction

import pytest

from polytower.complexes import (
    Complex,
    Subcomplex,
    barycentric_subdivision,
    induced_subcomplex,
    subcomplex_from,
    whole_subcomplex,
)
from polytower.points import barycenter_point, convex_combination, lift_to_subdivision, make_point
from polytower.carriers import (
    Carrier,
    carried_extension,
    extend_carried,
    is_carried,
    validate_carrier,
)
from polytower.connectivity import collapses_to_point
from polytower.plmaps import PartialPLMap, equal_on
from polytower.stars import (
    IndexedCover,
    OpenStarSet,
    barycentric_vertex_star,
    cover_B,
    cover_O,
    open_vertex_star,
)
from polytower.verdicts import Budgets

from util import (
    close_maps_homotopy,
    constant_pl_map,
    deformation_phi,
    from_vertex_images,
    kernel_complexes,
    prism_complex,
    scan_validate_carrier,
    simplex_complex,
    sphere_complex,
    vertex_point,
)


def closed_cover_of_maximal(domain: Complex) -> IndexedCover:
    elements = {}
    for s in domain.maximal:
        elements[s] = subcomplex_from(domain, [list(s)])
    return IndexedCover.build(domain, "closed", elements)


class TestValidateCarrier:
    def test_identity_carrier_holds(self):
        k = simplex_complex(["a", "b", "c"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)
        assert validate_carrier(carrier).is_holds

    def test_target_lookup(self):
        k = simplex_complex(["a", "b", "c"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)
        for i in cov.indices:
            assert carrier.target(i) is cov.element(i)
        for index in ("z", ["a", "b", "c"]):
            with pytest.raises(ValueError):
                carrier.target(index)

    def test_disjoint_targets_fail(self):
        k = simplex_complex(["a", "b"])
        cov = IndexedCover.build(
            k,
            "closed",
            {
                "l": subcomplex_from(k, [["a", "b"]]),
                "r": subcomplex_from(k, [["a", "b"]]),
            },
        )
        target = simplex_complex(["u", "v"])  # two vertices share no simplex? they do:
        target = Complex.from_maximal([["u"], ["v"]])
        carrier = Carrier.build(
            cov,
            {
                "l": subcomplex_from(target, [["u"]]),
                "r": subcomplex_from(target, [["v"]]),
            },
            target,
        )
        verdict = validate_carrier(carrier)
        assert verdict.is_fails
        assert sorted(verdict.witness) == ["l", "r"]

    def test_every_index_needs_a_target(self):
        k = simplex_complex(["a", "b"])
        cov = IndexedCover.build(k, "closed", {"l": whole_subcomplex(k), "r": whole_subcomplex(k)})
        with pytest.raises(ValueError, match="a target to every index"):
            Carrier.build(cov, {"l": whole_subcomplex(k)}, k)

    def test_targets_are_an_indexed_cover_on_the_map_target(self):
        k = simplex_complex(["a", "b", "c"])
        cb = cover_B(k)
        closed = Carrier.build(cb, dict(cb.elements), cb.ambient)
        assert closed.targets == IndexedCover.build(cb.ambient, "closed", dict(cb.elements))
        assert closed.map_target == cb.ambient
        opened = open_star_carrier(k, {})
        assert opened.targets.kind == "open" and opened.map_target == k
        assert Carrier._fields == ("source_cover", "targets")

    def test_targets_are_checked_at_build(self):
        # one kind, one complex: refused when built, before any region
        k = simplex_complex(["a", "b"])
        other = simplex_complex(["p", "q"])
        cov = IndexedCover.build(k, "closed", {"l": whole_subcomplex(k), "r": whole_subcomplex(k)})
        mixed = {"l": whole_subcomplex(k), "r": open_vertex_star(k, "a")}
        with pytest.raises(ValueError, match="mixes open and closed"):
            Carrier.build(cov, mixed, k)
        with pytest.raises(ValueError, match="mixes open and closed"):
            Carrier.build(cov, {"l": "a", "r": "b"}, k)
        for elsewhere in (whole_subcomplex(other), open_vertex_star(other, "p")):
            at_home = whole_subcomplex(k) if isinstance(elsewhere, Subcomplex) else open_vertex_star(k, "b")
            with pytest.raises(ValueError, match="live on the map target"):
                Carrier.build(cov, {"l": at_home, "r": elsewhere}, k)

    def test_nerve_budget_is_reported(self):
        k = simplex_complex(["a", "b", "c"])
        cb = cover_B(k)
        carrier = Carrier.build(cb, dict(cb.elements), cb.ambient)
        verdict = validate_carrier(carrier, Budgets(nerve_subsets=2))
        assert verdict.is_inconclusive and verdict.reason == "nerve budget exhausted"

    def test_open_source_cover_rejected(self):
        k = simplex_complex(["a", "b"])
        cov = cover_O(k)
        with pytest.raises(ValueError, match="source covers must be closed"):
            Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)

    def test_cylinder_pullback_carrier(self):
        from polytower.stars import pullback_cover
        from util import cylinder_map

        p = cylinder_map()
        cb = cover_B(p.base_target)
        pulled = pullback_cover(p, cb)
        cov = IndexedCover.build(p.source, "closed", dict(pulled.elements))
        carrier = Carrier.build(cov, {i: cb.element(i) for i in cb.indices}, cb.ambient)
        assert validate_carrier(carrier).is_holds


def open_star_carrier(domain: Complex, relabel: dict) -> Carrier:
    """The barycentric vertex stars of the domain carried to the open vertex
    stars of the domain itself, vertex v to the star of relabel.get(v, v)."""
    cover = cover_B(domain)
    targets = {v: open_vertex_star(domain, relabel.get(v, v)) for v in cover.indices}
    return Carrier.build(cover, targets, domain)


def carrier_cases() -> list:
    """(label, carrier) pairs: the barycentric vertex stars of each kernel
    complex of at most 60 simplices carried to its open vertex stars, to
    themselves, and to the open stars of a seeded shuffle of its
    vertices."""
    cases = []
    for label, k in kernel_complexes():
        if len(k.simplices) > 60:
            continue
        cases.append((label, open_star_carrier(k, {})))
        cb = cover_B(k)
        cases.append((label + " closed", Carrier.build(cb, dict(cb.elements), cb.ambient)))
        shuffled = list(k.vertices)
        random.Random(len(cases)).shuffle(shuffled)
        cases.append((label + " shuffled", open_star_carrier(k, dict(zip(k.vertices, shuffled)))))
    return cases


class TestValidateCarrierMaximalFirst:
    """`validate_carrier` decides on the maximal nerve simplices and keeps
    the first empty subset as its witness."""

    def test_matches_full_scan(self):
        outcomes = set()
        for label, carrier in carrier_cases():
            verdict = validate_carrier(carrier)
            assert verdict == scan_validate_carrier(carrier), label
            outcomes.add(verdict.status)
        assert outcomes == {"holds", "fails"}

    def test_first_empty_subset_is_not_maximal(self):
        # the triangle abc with the edge cd; c and d swap their targets, so
        # ac meets a and d, which share no simplex, while abc is maximal
        k = Complex.from_maximal([["a", "b", "c"], ["c", "d"]])
        carrier = open_star_carrier(k, {"c": "d", "d": "c"})
        verdict = validate_carrier(carrier)
        assert verdict.is_fails
        assert verdict.witness == ["a", "c"]
        assert verdict == scan_validate_carrier(carrier)

    def test_one_region_per_maximal_nerve_simplex(self, monkeypatch):
        from polytower import carriers
        from polytower.stars import nerve

        calls = []
        original = carriers._region_for
        monkeypatch.setattr(carriers, "_region_for", lambda c, ids: calls.append(ids) or original(c, ids))
        for label, carrier in carrier_cases():
            calls.clear()
            if validate_carrier(carrier).is_holds:
                maximal = nerve(carrier.source_cover).complex.maximal
                assert calls == [list(m) for m in maximal], label


class TestIsCarried:
    def test_constant_map_carried(self):
        k = simplex_complex(["a", "b"])
        t = simplex_complex(["u", "v"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {("a", "b"): whole_subcomplex(t)}, t)
        f = constant_pl_map(k, t, vertex_point(t, "u"))
        assert is_carried(f, carrier).is_holds

    def test_inclusion_carried_by_identity(self):
        k = simplex_complex(["a", "b", "c"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        assert is_carried(f, carrier).is_holds

    def test_escaping_map_fails(self):
        k = simplex_complex(["a", "b"])
        t = simplex_complex(["u", "v", "w"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {("a", "b"): subcomplex_from(t, [["u", "v"]])}, t)
        f = from_vertex_images(k, {"a": "u", "b": "w"}, t)
        verdict = is_carried(f, carrier)
        assert verdict.is_fails
        assert verdict.witness["index"] == ("a", "b")


    def test_undecided_hull_is_inconclusive(self):
        # every corner lies on the hollow triangle, their span does not
        t = simplex_complex(["a", "b", "c"])
        hollow = subcomplex_from(t, [["a", "b"], ["b", "c"], ["a", "c"]])
        k = simplex_complex(["x", "y", "z"])
        carrier = Carrier.build(closed_cover_of_maximal(k), {("x", "y", "z"): hollow}, t)
        f = from_vertex_images(k, {"x": "a", "y": "b", "z": "c"}, t)
        verdict = is_carried(f, carrier)
        assert verdict.is_inconclusive and "undecided" in verdict.reason


def triangle_seed(target: Complex, images: dict, target_element) -> tuple:
    """The triangle xyz defined on its vertices, sent to the given points of
    the target, and the carrier of the one element onto target_element."""
    domain = simplex_complex(["x", "y", "z"])
    carrier = Carrier.build(closed_cover_of_maximal(domain), {("x", "y", "z"): target_element}, target)
    seed = PartialPLMap.build(domain, subcomplex_from(domain, [["x"], ["y"], ["z"]]), images, target)
    return seed, carrier


def loop_search_log(monkeypatch) -> dict:
    """Record the moves the loop search generates, as (loop, removed
    positions) pairs, and the move lists it returns."""
    from polytower import carriers

    log: dict = {"moves": [], "found": []}
    successors, search = carriers._loop_successors, carriers._loop_moves_to_cappable_state

    def spy_successors(state, region):
        out = successors(state, region)
        log["moves"].extend((state, removed) for removed, _ in out)
        return out

    def spy_search(start, region, budget):
        log["found"].append(search(start, region, budget))
        return log["found"][-1]

    monkeypatch.setattr(carriers, "_loop_successors", spy_successors)
    monkeypatch.setattr(carriers, "_loop_moves_to_cappable_state", spy_search)
    return log


def move_kind(state, removed) -> str:
    """A loop move by what it drops: a repeated entry, a backtrack a b a (two
    entries) or the middle of a shortcut a b c."""
    if len(removed) == 2:
        return "backtrack"
    (j,) = removed
    return "repeat" if state[j - 1] == state[j] else "shortcut"


class TestExtendCarried:
    def test_domains_above_dimension_two_rejected(self):
        k = simplex_complex(["a", "b", "c", "d"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        with pytest.raises(ValueError, match="dimension at most 2"):
            extend_carried(f, carrier)

    def test_carrier_of_another_domain_rejected(self):
        k = simplex_complex(["a", "b"])
        cov = closed_cover_of_maximal(simplex_complex(["x", "y"]))
        carrier = Carrier.build(cov, {("x", "y"): whole_subcomplex(k)}, k)
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        with pytest.raises(ValueError, match="different domain"):
            extend_carried(f, carrier)

    def test_uncovered_cell_rejected(self):
        domain = simplex_complex(["x", "y"])
        cov = IndexedCover.build(domain, "closed", {"x": subcomplex_from(domain, [["x"]])})
        target = simplex_complex(["a"])
        carrier = Carrier.build(cov, {"x": whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(domain, subcomplex_from(domain, []), {}, target)
        with pytest.raises(ValueError, match="is not covered"):
            extend_carried(seed, carrier)

    def test_empty_vertex_region_fails(self):
        # an unvalidated carrier whose two targets share nothing
        domain = simplex_complex(["x", "y"])
        cov = IndexedCover.build(domain, "closed", {"l": whole_subcomplex(domain), "r": whole_subcomplex(domain)})
        target = Complex.from_maximal([["u"], ["v"]])
        carrier = Carrier.build(cov, {"l": subcomplex_from(target, [["u"]]), "r": subcomplex_from(target, [["v"]])}, target)
        assert validate_carrier(carrier).is_fails
        seed = PartialPLMap.build(domain, subcomplex_from(domain, []), {}, target)
        result = extend_carried(seed, carrier)
        assert result.status.is_fails and result.status.reason == "empty target intersection"
        assert result.failed_cells == [("x",), ("y",)] and result.extended is None

    def test_failed_validation_is_returned(self):
        domain = simplex_complex(["x", "y"])
        cov = IndexedCover.build(domain, "closed", {"l": whole_subcomplex(domain), "r": whole_subcomplex(domain)})
        target = Complex.from_maximal([["u"], ["v"]])
        targets = {"l": subcomplex_from(target, [["u"]]), "r": subcomplex_from(target, [["v"]])}
        seed = PartialPLMap.build(domain, subcomplex_from(domain, []), {}, target)
        result = carried_extension(seed, cov, targets)
        assert result.status.is_fails and result.status.witness == ["l", "r"]
        assert result.extended is None and result.failed_cells == []

    def test_edge_without_path_is_inconclusive(self):
        # the region holds both endpoint images but no path joins them
        domain = simplex_complex(["x", "y"])
        target = Complex.from_maximal([["u"], ["v"]])
        ends = {"x": vertex_point(target, "u"), "y": vertex_point(target, "v")}
        seed = PartialPLMap.build(domain, subcomplex_from(domain, [["x"], ["y"]]), ends, target)
        result = carried_extension(seed, closed_cover_of_maximal(domain), {("x", "y"): whole_subcomplex(target)})
        assert result.status.is_inconclusive and result.status.reason == "edge fillers found no path"
        assert result.failed_cells == [("x", "y")]

    def test_centroid_fan_in_the_larger_cell_region(self):
        # the edge xy is also covered by L, whose target misses the edge ab,
        # so it is routed through c; the triangle's own region is the whole
        # triangle, where the four boundary points span abc
        t = simplex_complex(["a", "b", "c"])
        domain = simplex_complex(["x", "y", "z"])
        cov = IndexedCover.build(
            domain, "closed", {"T": whole_subcomplex(domain), "L": subcomplex_from(domain, [["x", "y"]])}
        )
        targets = {"T": whole_subcomplex(t), "L": subcomplex_from(t, [["a", "c"], ["b", "c"]])}
        images = {v: vertex_point(t, w) for v, w in zip("xyz", "abc")}
        seed = PartialPLMap.build(domain, subcomplex_from(domain, [["x"], ["y"], ["z"]]), images, t)
        result = carried_extension(seed, cov, targets)
        assert result.status.is_holds
        refined = result.extended.domain
        assert len(refined.maximal) == 4  # the fan over x, the routed point, y and z
        (center,) = [v for v in refined.vertices if v.startswith("~c")]
        assert result.extended.image_of(center).as_dict() == {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 2)}

    def test_large_region_that_does_not_collapse_is_skipped(self, monkeypatch):
        # a 31-gon holds 62 simplices and no disc: the loop search is not run
        n = 31
        target = Complex.from_maximal([["c%02d" % j, "c%02d" % ((j + 1) % n)] for j in range(n)])
        images = {v: vertex_point(target, "c%02d" % j) for v, j in zip("xyz", (0, 10, 20))}
        seed, carrier = triangle_seed(target, images, whole_subcomplex(target))
        log = loop_search_log(monkeypatch)
        result = extend_carried(seed, carrier)
        assert result.status.is_inconclusive and result.failed_cells == [("x", "y", "z")]
        assert log["found"] == []

    def test_loop_search_exhausts_on_a_hollow_triangle(self, monkeypatch):
        # a three-entry loop has no move, and no vertex cones it off
        t = simplex_complex(["a", "b", "c"])
        hollow = subcomplex_from(t, [["a", "b"], ["b", "c"], ["a", "c"]])
        images = {v: vertex_point(t, w) for v, w in zip("xyz", "abc")}
        seed, carrier = triangle_seed(t, images, hollow)
        log = loop_search_log(monkeypatch)
        result = extend_carried(seed, carrier)
        assert result.status.is_inconclusive and result.failed_cells == [("x", "y", "z")]
        assert log == {"moves": [], "found": [None]}

    LOOP_CASES = {
        # closed: four triangles joined at vertices; the loop repeats an
        # entry and the search meets a loop twice
        "repeat": (
            [["g00", "g01", "g11"], ["g00", "g10", "g11"], ["g01", "g02", "g12"], ["g12", "g21", "g22"]],
            "closed",
            [("g00",), ("g00", "g11"), ("g22",)],
        ),
        # open: a backtrack and a shortcut
        "backtrack": (
            [["g01", "g02", "g12"], ["g11", "g12", "g22"], ["g11", "g20", "g21"], ["g11", "g21", "g22"]],
            "open",
            [("g12", "g22"), ("g02", "g12"), ("g20", "g21")],
        ),
        # closed: the entry nodes are coned off at once, the boundary is not
        "cappable": (
            [["g01", "g10", "g11"], ["g01", "g11", "g12"], ["g10", "g20", "g21"], ["g11", "g21", "g22"]],
            "closed",
            [("g20",), ("g01", "g11", "g12"), ("g21",)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_loop_contraction_moves(self, case, monkeypatch):
        maximal, kind, corners = self.LOOP_CASES[case]
        target = Complex.from_maximal(maximal)
        element = whole_subcomplex(target) if kind == "closed" else OpenStarSet(target, target.vertex_set())
        images = {v: barycenter_point(target, corner) for v, corner in zip("xyz", corners)}
        seed, carrier = triangle_seed(target, images, element)
        assert is_carried(seed, carrier).is_holds
        log = loop_search_log(monkeypatch)
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        assert result.extended.domain.euler_characteristic() == 1
        kinds = {move_kind(state, removed) for state, removed in log["moves"]}
        if case == "repeat":
            assert "repeat" in kinds
            from polytower.carriers import _canonical_cycle

            generated = [_canonical_cycle(tuple(s[i] for i in range(len(s)) if i not in r)) for s, r in log["moves"]]
            assert len(set(generated)) < len(generated)  # a loop met twice is not searched again
        elif case == "backtrack":
            assert {"backtrack", "shortcut"} <= kinds
        else:
            assert log == {"moves": [], "found": [[]]}

    def test_post_check_refuses_a_triangle_outside_its_region(self, monkeypatch):
        # a filler that fans from the centroid without asking the region
        from polytower import carriers

        def centroid_fan(cell, boundary, images, region, fresh, scale, budgets):
            center = fresh.next("c")
            points = [images[w] for w in boundary]
            images[center] = convex_combination(points, [Fraction(1, len(points))] * len(points))
            return carriers._fan_triangles(center, boundary)

        monkeypatch.setattr(carriers, "_fill_two_cell", centroid_fan)
        t = simplex_complex(["a", "b", "c"])
        hollow = subcomplex_from(t, [["a", "b"], ["b", "c"], ["a", "c"]])
        images = {v: vertex_point(t, w) for v, w in zip("xyz", "abc")}
        seed, carrier = triangle_seed(t, images, hollow)
        result = extend_carried(seed, carrier)
        assert result.status.is_fails and result.status.reason == "refined cell leaves its carrier target"
        assert result.extended is None
        assert result.failed_cells == [result.status.witness]
        assert result.status.witness["index"] == ("x", "y", "z")

    def test_map_onto_another_complex_rejected(self):
        k = simplex_complex(["a", "b", "c"])
        other = simplex_complex(["p", "q", "r"])
        domain = simplex_complex(["x", "y"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y"): whole_subcomplex(k)}, k)
        ends = {"x": vertex_point(other, "p"), "y": vertex_point(other, "q")}
        seed = PartialPLMap.build(domain, subcomplex_from(domain, [["x"], ["y"]]), ends, other)
        with pytest.raises(ValueError):
            extend_carried(seed, carrier)

    def test_total_map_unchanged(self):
        k = simplex_complex(["a", "b", "c"])
        cov = closed_cover_of_maximal(k)
        carrier = Carrier.build(cov, {i: cov.element(i) for i in cov.indices}, k)
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        result = extend_carried(f, carrier)
        assert result.status.is_holds
        assert result.extended.domain == k
        assert equal_on(result.extended, f, whole_subcomplex(k))

    def test_edge_filler_uses_path(self):
        # a segment must map its endpoints to far ends of a path graph
        domain = simplex_complex(["x", "y"])
        target = Complex.from_maximal([["p0", "p1"], ["p1", "p2"], ["p2", "p3"]])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y"): whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"], ["y"]]),
            {"x": vertex_point(target, "p0"), "y": vertex_point(target, "p3")},
            target,
        )
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        # the refined segment has one piece per path edge
        assert len(result.extended.domain.simplices_of_dim(1)) == 3
        assert is_carried(result.extended, carrier).is_holds

    def test_edge_filler_respects_graph_diameter(self):
        domain = simplex_complex(["x", "y"])
        target = Complex.from_maximal([["p%d" % i, "p%d" % (i + 1)] for i in range(5)])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y"): whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"], ["y"]]),
            {"x": vertex_point(target, "p1"), "y": vertex_point(target, "p4")},
            target,
        )
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert len(result.extended.domain.simplices_of_dim(1)) <= 5

    def test_open_region_edge_routes_through_star(self):
        # both endpoints lie in the open star of v, but the segment between
        # the midpoints of (a, v) and (v, b) spans no simplex: the edge must
        # pass through the star
        target = Complex.from_maximal([["a", "v"], ["v", "b"]])
        domain = simplex_complex(["u", "w"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("u", "w"): open_vertex_star(target, "v")}, target)
        half = Fraction(1, 2)
        ends = {
            "u": make_point(target, {"a": half, "v": half}),
            "w": make_point(target, {"v": half, "b": half}),
        }
        seed = PartialPLMap.build(domain, subcomplex_from(domain, [["u"], ["w"]]), ends, target)
        assert is_carried(seed, carrier).is_holds
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        assert len(result.extended.domain.simplices_of_dim(1)) == 2
        images = [p.coords for _, p in result.extended.images]
        assert vertex_point(target, "v").coords in images

    def test_cone_filler_on_barycentric_star(self):
        # extend a triangle boundary loop inside a barycentric vertex star
        base = simplex_complex(["a", "b", "c"])
        star = barycentric_vertex_star(base, "a")
        domain = simplex_complex(["x", "y", "z"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y", "z"): star}, star.parent)
        corners = {
            "x": vertex_point(base, "a"),
            "y": make_point(base, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
            "z": make_point(base, {"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)}),
        }
        corners = {v: lift_to_subdivision(x, star.parent) for v, x in corners.items()}
        boundary = subcomplex_from(domain, [["x", "y"], ["y", "z"], ["x", "z"]])
        seed = PartialPLMap.build(domain, boundary, corners, star.parent)
        assert is_carried(seed, carrier).is_holds
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        # boundary restriction is untouched
        for v in ("x", "y", "z"):
            assert result.extended.image_of(v).coords == corners[v].coords

    def test_apex_fan_after_edge_routing(self):
        # corner images sit on incomparable chains, so an edge is routed
        # through the star's apex and the two-cell is coned there
        base = simplex_complex(["a", "b", "c"])
        star = barycentric_vertex_star(base, "a")
        domain = simplex_complex(["x", "y", "z"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y", "z"): star}, star.parent)
        corners = {
            "x": make_point(base, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
            "y": make_point(base, {"a": Fraction(1, 2), "c": Fraction(1, 2)}),
            "z": vertex_point(base, "a"),
        }
        corners = {v: lift_to_subdivision(x, star.parent) for v, x in corners.items()}
        seed = PartialPLMap.build(
            domain, subcomplex_from(domain, [["x"], ["y"], ["z"]]), corners, star.parent
        )
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        for v in ("x", "y", "z"):
            assert result.extended.image_of(v).coords == corners[v].coords
        # every fan triangle is recorded under the refined complex's own
        # name, so the post-check and the lift witnesses find it
        assert set(result.descent) <= set(result.extended.domain.maximal)

    def test_loop_contraction_in_annulus_free_disc(self):
        # the target is a hexagonal disc; a boundary loop around the hexagon
        # contracts through shortcut moves
        hexagon = []
        for i in range(6):
            hexagon.append(["h", "r%d" % i, "r%d" % ((i + 1) % 6)])
        target = Complex.from_maximal(hexagon)
        domain = simplex_complex(["x", "y", "z"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y", "z"): whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"], ["y"], ["z"]]),
            {
                "x": vertex_point(target, "r0"),
                "y": vertex_point(target, "r2"),
                "z": vertex_point(target, "r4"),
            },
            target,
        )
        result = extend_carried(seed, carrier)
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds

    @staticmethod
    def _grid_disc():
        # 3x3 vertex grid, squares split toward the major diagonal; the disc
        # is collapsible but no single vertex cones off its boundary
        tris = []
        for i in range(2):
            for j in range(2):
                a, b = "g%d%d" % (i, j), "g%d%d" % (i, j + 1)
                c, d = "g%d%d" % (i + 1, j), "g%d%d" % (i + 1, j + 1)
                tris.append([a, b, d])
                tris.append([a, c, d])
        return Complex.from_maximal(tris)

    def _grid_seed(self, target):
        domain = simplex_complex(["x", "y", "z"])
        cov = closed_cover_of_maximal(domain)
        carrier = Carrier.build(cov, {("x", "y", "z"): whole_subcomplex(target)}, target)
        seed = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"], ["y"], ["z"]]),
            {
                "x": vertex_point(target, "g00"),
                "y": vertex_point(target, "g02"),
                "z": vertex_point(target, "g20"),
            },
            target,
        )
        return seed, carrier

    def test_loop_contraction_on_grid_disc(self):
        target = self._grid_disc()
        assert collapses_to_point(target.simplices, len(target.simplices))
        seed, carrier = self._grid_seed(target)
        result = extend_carried(seed, carrier, Budgets(filler_steps=20000))
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        # the refined triangle is still a contractible surface piece
        from polytower.connectivity import homology, is_connected

        refined = result.extended.domain
        assert is_connected(refined).is_holds
        assert homology(refined, 1).is_trivial()
        assert refined.euler_characteristic() == 1

    def test_loop_contraction_in_open_region(self):
        # the open star of every grid vertex holds every grid simplex as a
        # node; still no node cones off the boundary, so the loop contracts
        target = self._grid_disc()
        seed, _ = self._grid_seed(target)
        cov = closed_cover_of_maximal(seed.domain)
        carrier = Carrier.build(cov, {("x", "y", "z"): OpenStarSet(target, target.vertex_set())}, target)
        result = extend_carried(seed, carrier, Budgets(filler_steps=20000))
        assert result.status.is_holds
        assert is_carried(result.extended, carrier).is_holds
        assert result.extended.domain.euler_characteristic() == 1

    def test_budget_exhaustion_reports_cell(self):
        target = self._grid_disc()
        seed, carrier = self._grid_seed(target)
        result = extend_carried(seed, carrier, Budgets(filler_steps=1))
        assert result.status.is_inconclusive
        assert result.failed_cells == [("x", "y", "z")]


class TestCollapsibility:
    def test_cone_collapses(self):
        base = simplex_complex(["a", "b", "c"])
        star = barycentric_vertex_star(base, "a")
        assert collapses_to_point(star.simplices, len(star.simplices))

    def test_circle_does_not_collapse(self):
        k = sphere_complex(1)
        assert not collapses_to_point(k.simplices, len(k.simplices))

    def test_simplex_collapses(self):
        k = simplex_complex(["a", "b", "c", "d"])
        assert collapses_to_point(k.simplices, len(k.simplices))


class TestPrism:
    def test_prism_over_edge(self):
        k = simplex_complex(["a", "b"])
        prism, bottom, top, per_cell = prism_complex(k)
        assert prism.dimension == 2
        assert len(prism.simplices_of_dim(2)) == 2
        assert bottom["a"] == ("0", "a")
        assert top["b"] == ("1", "b")

    def test_prism_conformal_over_path(self):
        k = Complex.from_maximal([["a", "b"], ["b", "c"]])
        prism, _, _, _ = prism_complex(k)
        # four triangles, no dangling edges except the outer boundary
        assert len(prism.simplices_of_dim(2)) == 4
        assert prism.euler_characteristic() == 1


class TestCloseMapsHomotopy:
    def test_equal_maps_constant_homotopy(self):
        # the identity of a closed edge fits no single open vertex star, so
        # the certificate appears after one domain subdivision
        k = simplex_complex(["a", "b"])
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        result = close_maps_homotopy(f, f, cover_O(k), n=2)
        assert result.status.is_holds
        beta = barycentric_subdivision(k)
        assert set(result.path_witnesses) == set(beta.maximal)
        # tracks of domain vertices are constant
        prism_map = result.map
        for v in beta.vertices:
            bottom_img = prism_map.image_of(("0", v))
            top_img = prism_map.image_of(("1", v))
            assert bottom_img.coords == top_img.coords

    def test_deformation_segment_single_star(self):
        base = simplex_complex(["a", "b"])
        core = induced_subcomplex(base, ["a"])
        domain = simplex_complex(["x0", "x1"])
        start = {
            "x0": vertex_point(base, "a"),
            "x1": make_point(base, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        }
        end = {w: deformation_phi(p, 1, core) for w, p in start.items()}
        f = PartialPLMap.build(domain, whole_subcomplex(domain), start, base)
        g = PartialPLMap.build(domain, whole_subcomplex(domain), end, base)
        one_star = IndexedCover.build(base, "open", {"a": open_vertex_star(base, "a")}, base=base)
        result = close_maps_homotopy(f, g, one_star, n=2)
        assert result.status.is_holds
        assert result.path_witnesses == {("x0", "x1"): "a"}

    def test_antipodal_maps_fail_closeness(self):
        domain = sphere_complex(1)
        base = sphere_complex(1)
        rotate = {"s0": "s1", "s1": "s2", "s2": "s0"}
        f = from_vertex_images(domain, {v: v for v in domain.vertices}, base)
        g = from_vertex_images(domain, rotate, base)
        result = close_maps_homotopy(f, g, cover_O(base), n=2)
        assert not result.status.is_holds
        assert result.status.is_fails or result.status.is_inconclusive

    def test_domain_dimension_guard(self):
        k = simplex_complex(["a", "b"])
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        result = close_maps_homotopy(f, f, cover_O(k), n=1)
        assert result.status.is_inconclusive
