"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison here is
exact rational or integer arithmetic; the only tolerances are the stated
wall-clock budgets, asserted with a monotonic timer.
"""
import json
import random
import time
from fractions import Fraction

from polytower import formats, readers
from polytower.cli import main as cli_main
from polytower.complexes import barycentric_subdivision, induced_subcomplex, subcomplex_from
from polytower.connectivity import homology
from polytower.induced import induced_homology_map
from polytower.maps import identity_qsmap, is_surjective, lipschitz_constant, preimage_subcomplex
from polytower.points import apply, apply_subdivision, make_point
from polytower.stars import (
    OpenStarSet,
    cover_B,
    cover_O,
    nerve,
    pullback_cover,
)
from polytower.lifts import ThreadApprox, tower_lift
from polytower.towers import verify_tower
from polytower.generators import (
    cylinder_map,
    cylinder_tower,
    projective_plane,
    simplex,
    sphere,
    subdivision_tower,
)

from util import (
    barycentric_star_contains_point,
    chain_f_vector,
    covers_isomorphic,
    deformation_phi,
    distance,
    from_vertex_images,
    in_element,
    open_star_of_subdivided,
    random_complex,
    random_point,
    random_qsmap,
    vertex_image_point,
    vertex_point,
)


def passed(number, text):
    print("AC-%02d PASS: %s" % (number, text))


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_ac01_subdivision_combinatorics():
    with Timer() as t:
        edge, triangle = simplex(1), simplex(2)
        beta_edge = barycentric_subdivision(edge)
        assert beta_edge.f_vector() == (3, 2) == chain_f_vector(edge)
        beta_triangle = barycentric_subdivision(triangle)
        assert beta_triangle.f_vector() == (7, 12, 6) == chain_f_vector(triangle)
        twice = barycentric_subdivision(beta_edge)
        assert twice.f_vector() == (5, 4) == chain_f_vector(beta_edge)
    assert t.elapsed < 1.0
    passed(1, "f-vectors (3,2), (7,12,6), (5,4) match the chain enumeration oracle")


def test_ac02_homology_suite():
    with Timer() as t:
        def groups(k, up_to):
            return [(homology(k, d).betti, homology(k, d).torsion) for d in range(up_to + 1)]

        assert groups(sphere(1), 1) == [(1, ()), (1, ())]
        assert groups(sphere(2), 2) == [(1, ()), (0, ()), (1, ())]
        assert groups(projective_plane(), 2) == [(1, ()), (0, (2,)), (0, ())]
        for d in range(1, 6):
            cell = simplex(d, ["q%d" % i for i in range(d + 1)])
            assert homology(cell, 0, reduced=True).is_trivial()
            for degree in range(1, d + 1):
                assert homology(cell, degree).is_trivial()
    assert t.elapsed < 5.0
    passed(2, "circle, 2-sphere, projective plane, and simplices have the exact groups")


def test_ac03_preimage_correctness():
    with Timer() as t:
        rng = random.Random(2024)
        for p in (cylinder_map(), identity_qsmap(simplex(2))):
            deltas = p.target.sorted_simplices()
            preimages = {delta: preimage_subcomplex(p, delta) for delta in deltas}
            for _ in range(1000):
                x = random_point(p.source, rng)
                pushed = apply_subdivision(p, x)
                support = set(pushed.support)
                for delta in deltas:
                    by_subcomplex = x.support in preimages[delta].simplices
                    by_image = support <= set(delta)
                    assert by_subcomplex == by_image
    assert t.elapsed < 10.0
    passed(3, "membership in preimage subcomplexes equals membership of images, 1000 points per simplex")


def test_ac04_star_intersection_identity():
    from itertools import combinations

    rng = random.Random(77)
    for seed in range(10):
        base = random_complex(seed, max_simplices=30)
        beta = barycentric_subdivision(base)
        samples = [vertex_point(beta, name) for name in beta.vertices]
        samples += [random_point(beta, rng) for _ in range(10)]
        vertices = list(base.vertices)
        for size in (2, 3):
            for combo in list(combinations(vertices, size))[:5]:
                stars = [
                    open_star_of_subdivided(base, induced_subcomplex(base, [v]))
                    for v in combo
                ]
                common = induced_subcomplex(base, [])
                star_common = open_star_of_subdivided(base, common)
                for x in samples:
                    lhs = all(in_element(s, x) for s in stars)
                    assert lhs == in_element(star_common, x)
        # overlapping subcomplex cores, where the intersection is non-trivial
        half = induced_subcomplex(base, vertices[: len(vertices) // 2 + 1])
        tail = induced_subcomplex(base, vertices[len(vertices) // 3 :])
        star_half = open_star_of_subdivided(base, half)
        star_tail = open_star_of_subdivided(base, tail)
        shared = [v for v in vertices if v in half.vertex_set() and v in tail.vertex_set()]
        star_shared = open_star_of_subdivided(base, induced_subcomplex(base, shared))
        for x in samples:
            assert (in_element(star_half, x) and in_element(star_tail, x)) == in_element(star_shared, x)
    passed(4, "intersections of subdivided open stars equal the star of the intersection")


def test_ac05_deformation():
    rng = random.Random(55)
    instances = []
    for seed in range(40):
        base = random_complex(seed)
        vertices = list(base.vertices)
        core = induced_subcomplex(base, vertices[: max(1, len(vertices) // 2)])
        if not core.is_empty():
            instances.append((base, core))
        if len(instances) == 5:
            break
    assert len(instances) == 5
    checks = 0
    for base, core in instances:
        star = OpenStarSet(base, core.vertex_set())
        while_budget = 0
        per_instance = 0
        while per_instance < 200 and while_budget < 20000:
            while_budget += 1
            x = random_point(base, rng)
            if not in_element(star, x):
                continue
            per_instance += 1
            t = Fraction(rng.randint(0, 16), 16)
            moved = deformation_phi(x, t, core)
            assert deformation_phi(x, 0, core).coords == x.coords
            landed = deformation_phi(x, 1, core)
            assert landed.support in core.simplices
            assert set(moved.support) <= set(x.support)
            if barycentric_star_contains_point(base, core, x):
                assert barycentric_star_contains_point(base, core, moved)
            checks += 1
        assert per_instance == 200
    assert checks == 1000
    passed(5, "the straight-line deformation fixes time zero, lands in the core, and preserves stars")


def test_ac06_lipschitz():
    assert lipschitz_constant(identity_qsmap(simplex(1, ["u", "v"])), 1, 1) == Fraction(1, 2)
    rng = random.Random(33)
    for seed in range(10):
        base = random_complex(seed)
        p = random_qsmap(base, seed + 7)
        constant = lipschitz_constant(p, 1, 1)
        simplices = sorted(p.source.simplices, key=lambda s: (len(s), s))
        attained = Fraction(0)
        for edge in p.source.simplices_of_dim(1):
            u, v = edge
            d = distance(vertex_image_point(p, u), vertex_image_point(p, v))
            attained = max(attained, d / 2)
        assert attained == constant
        for _ in range(100):
            s = rng.choice(simplices)
            x, y = _two_points_in(p.source, s, rng)
            if x.coords == y.coords:
                continue
            assert distance(apply(p, x), apply(p, y)) <= constant * distance(x, y)
    passed(6, "identity of the subdivided segment is 1/2-Lipschitz; sampled ratios never exceed the constant")


def _two_points_in(complex_, s, rng):
    def one():
        nums = [rng.randint(0, 8) for _ in s]
        if not any(nums):
            nums[0] = 1
        total = sum(nums)
        return make_point(complex_, {v: Fraction(n, total) for v, n in zip(s, nums) if n})

    return one(), one()


def test_ac07_cover_isomorphism():
    for seed in range(10):
        base = random_complex(seed)
        p = random_qsmap(base, 1000 + seed)
        assert is_surjective(p).is_holds
        pulled = pullback_cover(p, cover_B(base))
        assert covers_isomorphic(pulled, cover_B(base)).is_holds
    for seed in range(10, 20):
        base = random_complex(seed)
        result = nerve(cover_O(base))
        assert result.status.is_holds
        assert result.complex.simplices == base.simplices
    passed(7, "pull-backs of star covers along surjections are isomorphic; open star nerves reproduce the complex")


def test_ac08_tower_certification_positive():
    with Timer() as t:
        tower = subdivision_tower(simplex(2), 3)
        assert tower.scales == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        certificate = verify_tower(tower, 2)
        assert certificate.conclusion.is_holds
        # every nerve simplex of each pull-back is judged, and none is listed
        levels = certificate.conditions["pullback_extensors"]["levels"]
        assert len(levels) == len(tower.bonds)
        for idx, (level, bond) in enumerate(zip(levels, tower.bonds)):
            assert level["intersections"] == []
            assert level["checked"] == len(nerve(pullback_cover(bond, cover_B(tower.levels[idx]))).complex.simplices) > 0
        summability = certificate.conditions["mesh_summability"]
        assert summability["status"].is_holds
        assert summability["contraction_quotient"] < 1
        assert summability["tail_bound_after_depth"] is not None
    assert t.elapsed < 60.0
    passed(8, "the depth-three subdivision tower certifies at n=2 with a finite tail bound")


def test_ac09_tower_certification_negative():
    with Timer() as t:
        tower = cylinder_tower()
        refuted = verify_tower(tower, 2)
        assert refuted.conclusion.is_fails
        report = refuted.conditions["bond_regularity"]["bonds"][0]["regularity"]
        failing = {e["delta"]: e for e in report["entries"] if e["verdict"].is_fails}
        midpoint_fiber = failing[(("u", "v"),)]
        assert midpoint_fiber["verdict"].witness == {"betti": 1, "torsion": []}
        held = verify_tower(tower, 1)
        assert held.conclusion.is_holds
    assert t.elapsed < 10.0
    passed(9, "the cylinder tower is refuted at n=2 at the midpoint fiber and certifies at n=1")


def test_ac10_weak_equivalence_consequence():
    for tower, n in ((subdivision_tower(simplex(2), 3), 2), (cylinder_tower(), 1)):
        certificate = verify_tower(tower, n)
        assert certificate.conclusion.is_holds
        for bond in tower.bonds:
            for k in range(n):
                assert induced_homology_map(bond, k).is_holds
    passed(10, "certified bonds induce homology isomorphisms below the certified degree")


def test_ac11_lifting():
    tower = subdivision_tower(simplex(2), 3)
    domain = readers.parse_complex({"vertices": [], "maximal": [["x0", "x1"]]})
    f1 = from_vertex_images(domain, {"x0": "a", "x1": "b"}, tower.levels[0])
    anchor = subcomplex_from(domain, [["x0"]])
    assignments = {"x0": []}
    name = "a"
    for level in tower.levels:
        assignments["x0"].append(vertex_point(level, name))
        name = (name,)
    threads = ThreadApprox(tower, assignments)
    result = tower_lift(tower, f1, anchor, threads, 2)
    assert result.status.is_holds
    assert result.anchored_exactly
    assert len(result.stages) == 2
    for stage in result.stages:
        assert stage["closeness"].is_holds
    rows = result.cauchy["tables"][1]["rows"]
    bounds = [r["increment_bound"] for r in rows]
    quotient = result.cauchy["contraction_quotient"]
    assert quotient < 1
    for a, b in zip(bounds, bounds[1:]):
        assert b <= quotient * a
    maps = [f1] + [s["lift"] for s in result.stages]

    def resolve(domain_, name_):
        candidate = name_
        while not domain_.has_vertex(candidate):
            candidate = (candidate,)
        return candidate

    for k in range(tower.depth()):
        for m in range(k, tower.depth() - 1):
            bound = result.cauchy["tables"][k + 1]["rows"][m - k]["increment_bound"]
            for v in ("x0", "x1"):
                a_pt = maps[m].image_of(resolve(maps[m].domain, v))
                b_pt = maps[m + 1].image_of(resolve(maps[m + 1].domain, v))
                for idx in range(m - 1, k - 1, -1):
                    a_pt = apply(tower.bonds[idx], a_pt)
                for idx in range(m, k - 1, -1):
                    b_pt = apply(tower.bonds[idx], b_pt)
                a_pt = make_point(tower.levels[k], a_pt.as_dict(), tower.scales[k])
                b_pt = make_point(tower.levels[k], b_pt.as_dict(), tower.scales[k])
                assert distance(a_pt, b_pt) <= bound
    passed(11, "stagewise lifts anchor exactly, certify closeness, and obey the geometric increment bounds")


def test_ac12_determinism(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(formats.dumps_canonical(payload), encoding="utf-8")
        return str(path)

    triangle = write("triangle.json", formats.complex_to_obj(simplex(2)))
    sphere_file = write("sphere.json", formats.complex_to_obj(sphere(2)))
    cover_file = write(
        "cover.json",
        {
            "ambient": formats.complex_to_obj(simplex(2)),
            "kind": "closed",
            "elements": {v: {"star_of": v} for v in "abc"},
        },
    )
    map_file = write("map.json", formats.map_to_obj(cylinder_map()))
    tower_file = write(
        "tower.json", formats.tower_to_obj(subdivision_tower(simplex(2), 2))
    )
    edge_file = write("edge.json", [["a", "b"]])
    spec_file = write(
        "spec.json",
        {
            "domain": {"vertices": [], "maximal": [["x0", "x1"]]},
            "f1": {
                "vertex_points": {
                    "x0": {"coords": {"a": "1"}, "scale": "1"},
                    "x1": {"coords": {"b": "1"}, "scale": "1"},
                }
            },
            "anchor": [["x0"]],
            "threads": {
                "x0": [
                    {"coords": {"a": "1"}, "scale": "1"},
                    {"coords": {'["a"]': "1"}, "scale": "1"},
                ]
            },
        },
    )
    commands = [
        ["validate", triangle],
        ["subdivide", triangle],
        ["stars", triangle, "--vertex", "a"],
        ["nerve", cover_file],
        ["homology", sphere_file],
        ["pi1", sphere_file],
        ["check-map", map_file, "--n", "2"],
        ["verify-tower", tower_file, "--n", "2"],
        ["restrict", tower_file, "--level", "1", "--complex", edge_file],
        ["mesh", cover_file],
        ["lift", tower_file, "--spec", spec_file, "--n", "2"],
        ["gen", "random-tower", "--seed", "3", "--levels", "2"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            cli_main(argv)
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], "non-deterministic output for %r" % (argv,)
    passed(12, "every command produces byte-identical reports across runs")
