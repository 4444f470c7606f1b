"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the implementation paths it
cross-checks: subdivision counts come from a DFS chain enumerator over the
face poset, homology cross-checks from rational and mod-p Gaussian
elimination, closures from raw powerset enumeration.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

from polytower.complexes import (
    Complex,
    make_point,
    vertex_key,
)


def brute_force_closure(simplices) -> set:
    out = set()
    for s in simplices:
        s = tuple(sorted(set(s), key=vertex_key))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out


def enumerate_chains(complex_: Complex) -> list:
    """All strictly increasing chains of the face poset, via DFS."""
    simplices = sorted(complex_.simplices, key=lambda s: (len(s), s))
    chains = []

    def extend(chain, last):
        chains.append(tuple(chain))
        for s in simplices:
            if len(s) > len(last) and set(last) < set(s):
                chain.append(s)
                extend(chain, s)
                chain.pop()

    for s in simplices:
        extend([s], s)
    return chains


def chain_f_vector(complex_: Complex) -> tuple:
    chains = enumerate_chains(complex_)
    counts: dict = {}
    for c in chains:
        counts[len(c) - 1] = counts.get(len(c) - 1, 0) + 1
    return tuple(counts.get(k, 0) for k in range(max(counts) + 1)) if counts else ()


def rational_rank(matrix) -> int:
    """Row reduction over the rationals."""
    mat = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rank_mod_p(matrix, p: int) -> int:
    """Row reduction over the field with p elements, p prime."""
    mat = [[x % p for x in row] for row in matrix]
    rank = 0
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inverse = pow(mat[rank][col], -1, p)
        mat[rank] = [x * inverse % p for x in mat[rank]]
        for r in range(rows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def boundary_matrix(complex_: Complex, k: int) -> list:
    """Dense form of `connectivity.boundary_columns`; rows index (k-1)-simplices."""
    from polytower import snf
    from polytower.connectivity import _chain_data, boundary_columns

    bases, _ = _chain_data(complex_)
    rows = len(bases.get(k - 1, ()))
    return snf.dense_rows(snf.transpose_sparse(boundary_columns(complex_, k), rows), len(bases.get(k, ())))


def betti_over_field(complex_, k, rank_fn) -> int:
    from polytower.connectivity import _chain_data

    bases, _ = _chain_data(complex_)
    n_k = len(bases.get(k, ()))
    if n_k == 0:
        return 0
    d_k = boundary_matrix(complex_, k)
    d_next = boundary_matrix(complex_, k + 1)
    rank_k = rank_fn(d_k) if d_k and d_k[0:] and len(d_k) else 0
    rank_next = rank_fn(d_next) if len(d_next) else 0
    return n_k - rank_k - rank_next


def random_point(complex_, rng: random.Random, scale=Fraction(1), max_num=20):
    """A random rational point supported on a random simplex."""
    simplices = sorted(complex_.simplices, key=lambda s: (len(s), s))
    s = rng.choice(simplices)
    nums = [rng.randint(1, max_num) for _ in s]
    total = sum(nums)
    return make_point(complex_, {v: Fraction(n, total) for v, n in zip(s, nums)}, scale)


def random_complex(seed: int, max_vertices: int = 7, max_faces: int = 5, max_simplices: int = 30) -> Complex:
    """Seeded random complex with a bounded number of simplices."""
    rng = random.Random(seed)
    while True:
        nv = rng.randint(3, max_vertices)
        names = ["v%d" % i for i in range(nv)]
        n_faces = rng.randint(1, max_faces)
        maximal = []
        for _ in range(n_faces):
            size = rng.randint(1, min(4, nv))
            maximal.append(rng.sample(names, size))
        k = Complex.from_maximal(maximal)
        if len(k.simplices) <= max_simplices:
            return k


def random_surjective_vertex_map(base: Complex, seed: int):
    """A surjective simplicial map from the subdivision onto the base: send
    the vertex named by a simplex to its least vertex under a random total
    order of the base vertices."""
    from polytower.complexes import barycentric_subdivision
    from polytower.maps import VertexMap

    rng = random.Random(seed)
    order = list(base.vertices)
    rng.shuffle(order)
    position = {v: i for i, v in enumerate(order)}
    subdivided = barycentric_subdivision(base)
    images = {name: min(name, key=lambda v: position[v]) for name in subdivided.vertices}
    return VertexMap.build(subdivided, base, images)


def random_qsmap(base: Complex, seed: int):
    """A random quasi-simplicial self-map of the subdivision: each simplex
    name maps to a face of itself containing the faces chosen lower down, so
    chains map to chains."""
    from polytower.complexes import barycentric_subdivision, vertex_key as vk
    from polytower.maps import QSMap

    rng = random.Random(seed)
    subdivided = barycentric_subdivision(base)
    chosen: dict = {}
    for name in sorted(subdivided.vertices, key=lambda s: (len(s), vk(s))):
        forced = set()
        for k in range(1, len(name)):
            for face in combinations(name, k):
                if face in chosen:
                    forced.update(chosen[face])
        candidates = [
            tuple(sorted(set(c) | forced, key=vk))
            for k in range(0, len(name) + 1)
            for c in combinations(name, k)
        ]
        candidates = sorted({c for c in candidates if c}, key=lambda s: (len(s), vk(s)))
        chosen[name] = rng.choice(candidates)
    return QSMap.build(subdivided, base, chosen)


def cylinder_complex() -> Complex:
    """Two stacked triangulated cylinder bands: circles b, m, t of three
    vertices each, twelve triangles."""
    tris = []
    for low, high in (("b", "m"), ("m", "t")):
        for i in range(3):
            j = (i + 1) % 3
            tris.append(["%s%d" % (low, i), "%s%d" % (low, j), "%s%d" % (high, i)])
            tris.append(["%s%d" % (low, j), "%s%d" % (high, i), "%s%d" % (high, j)])
    return Complex.from_maximal(tris)


def cylinder_map():
    """The stacked cylinder collapsing onto the edge [u, v]: bottom circle to
    u, middle circle to the edge midpoint, top circle to v."""
    from polytower.maps import QSMap

    base = Complex.from_maximal([["u", "v"]])
    cyl = cylinder_complex()
    images = {}
    for v in cyl.vertices:
        if v.startswith("b"):
            images[v] = ("u",)
        elif v.startswith("m"):
            images[v] = ("u", "v")
        else:
            images[v] = ("v",)
    return QSMap.build(cyl, base, images)


def simplex_complex(names) -> Complex:
    return Complex.from_maximal([list(names)])


def sphere_complex(dim: int) -> Complex:
    names = ["s%d" % i for i in range(dim + 2)]
    return Complex.from_maximal([list(c) for c in combinations(names, dim + 1)])


RP2_TRIANGLES = [
    ["p0", "p1", "p4"],
    ["p0", "p1", "p5"],
    ["p0", "p2", "p3"],
    ["p0", "p2", "p4"],
    ["p0", "p3", "p5"],
    ["p1", "p2", "p3"],
    ["p1", "p2", "p5"],
    ["p1", "p3", "p4"],
    ["p2", "p4", "p5"],
    ["p3", "p4", "p5"],
]


def rp2_complex() -> Complex:
    return Complex.from_maximal(RP2_TRIANGLES)


def brute_force_maximal(simplices) -> set:
    """Simplices that are no proper subset of another, by pairwise scan."""
    sets = [set(s) for s in simplices]
    return {s for s in simplices if not any(set(s) < t for t in sets)}


def shape_distance(a: int, b: int, c: int) -> Fraction:
    """The l1 distance between the barycentres of vertex sets of sizes a and
    b sharing c vertices, term by term: the c shared coordinates differ by
    |1/a - 1/b|, the others contribute their whole mass."""
    return c * abs(Fraction(1, a) - Fraction(1, b)) + Fraction(a - c, a) + Fraction(b - c, b)


def kernel_complexes() -> list:
    """(label, complex) pairs for the complex-kernel cross-checks: random
    complexes, rp2, the cylinder, and every level of the 3-level triangle
    subdivision tower together with its subdivision."""
    from polytower.complexes import barycentric_subdivision
    from polytower.generators import simplex, subdivision_tower

    out = [("random %d" % seed, random_complex(seed)) for seed in range(12)]
    out += [("rp2", rp2_complex()), ("cylinder", cylinder_complex())]
    for i, level in enumerate(subdivision_tower(simplex(2), 3).levels):
        out += [("triangle level %d" % i, level), ("beta of triangle level %d" % i, barycentric_subdivision(level))]
    return out


# ---------------------------------------------------------------------------
# whole-complex scans: the reference versions of the indexed local queries


def scan_induced(complex_: Complex, vertices) -> frozenset:
    """Every simplex of the complex with all its vertices in the set."""
    w = set(vertices)
    return frozenset(s for s in complex_.simplices if set(s) <= w)


def scan_closed_star(complex_: Complex, v) -> frozenset:
    """Every simplex whose join with the vertex is a simplex."""
    return frozenset(
        s for s in complex_.simplices
        if tuple(sorted(set(s) | {v}, key=vertex_key)) in complex_.simplices
    )


def scan_is_full(sub) -> bool:
    vs = sub.vertex_set()
    return all(s in sub.simplices for s in sub.parent.simplices if set(s) <= vs)


def scan_beta_subcomplex(sub, beta) -> frozenset:
    """The chains of the subdivision made of simplices of the subcomplex."""
    return frozenset(c for c in beta.simplices if all(e in sub.simplices for e in c))


def scan_preimage(p, delta) -> frozenset:
    """`preimage_subcomplex`: induced on the source vertices mapped into delta."""
    allowed = set(delta)
    return scan_induced(p.source, [v for v, img in p.vertex_map.assignment if img in allowed])


def scan_preimage_of_subdivided(vm, sub) -> frozenset:
    """The source simplices whose image simplex lies in the subcomplex."""
    return frozenset(s for s in vm.source.simplices if vm.image_simplex(s) in sub.simplices)


def scan_first_uncovered(cover):
    """Every element tested against every maximal simplex of the ambient."""
    from polytower.complexes import Subcomplex, simplex_sort_key
    from polytower.stars import OpenStarSet

    for s in sorted(cover.ambient.maximal, key=simplex_sort_key):
        hit = False
        for _, e in cover.elements:
            if isinstance(e, Subcomplex):
                hit = s in e.simplices
            elif isinstance(e, OpenStarSet):
                hit = meets_core(e, s)
            else:
                hit = True
            if hit:
                break
        if not hit:
            return s
    return None


def subdivision_flags(complex_: Complex) -> list:
    """One flag of faces per vertex ordering of every maximal simplex."""
    from itertools import permutations

    flags = []
    for top in complex_.maximal:
        for order in permutations(top):
            flags.append([tuple(sorted(order[: k + 1], key=vertex_key)) for k in range(len(order))])
    return flags


def random_vertex_subsets(complex_: Complex, seed: int, count: int = 6) -> list:
    """The empty set, every single vertex, all vertices, and seeded random
    subsets."""
    rng = random.Random(seed)
    vertices = list(complex_.vertices)
    subsets = [[], vertices] + [[v] for v in vertices]
    for _ in range(count):
        subsets.append(rng.sample(vertices, rng.randint(1, len(vertices))))
    return subsets


def dunce_hat_complex() -> Complex:
    """A triangulated dunce hat: the triangle abc with its edges ab, bc and
    ac glued to one edge in the directions a->b, b->c and a->c.  The second
    subdivision of the triangle makes the quotient simplicial: a vertex of it
    on an edge gets the label of its parameter t along that edge (every
    corner is "v", t = 1/4, 1/2, 3/4 give "e1", "e2", "e3"), and an inner
    vertex keeps a name of its own.  Contractible, with no free face."""
    from polytower.complexes import barycentric_subdivision, vertex_label

    twice = barycentric_subdivision(barycentric_subdivision(Complex.from_maximal([["a", "b", "c"]])))
    labels = {}
    for name in twice.vertices:
        position: dict = {}
        for face in name:  # the barycentre of a chain of faces of abc
            for corner in face:
                position[corner] = position.get(corner, 0) + Fraction(1, len(face) * len(name))
        support = sorted(position)
        if len(support) == 1:
            labels[name] = "v"
        elif len(support) == 2:
            labels[name] = "e%d" % (position[support[1]] * 4)
        else:
            labels[name] = "i" + vertex_label(name)
    return Complex.from_maximal([[labels[v] for v in tri] for tri in twice.maximal])


def greedy_collapse(simplices, budget: int) -> bool:
    """Whether at most `budget` elementary collapses, free faces taken in
    `simplex_sort_key` order and then in the order the collapses free them,
    reduce a face-closed set to a single vertex: the coface-queue search
    with no closed-form shortcut, as a reference."""
    from collections import deque

    from polytower.complexes import simplex_sort_key

    cofaces: dict = {}  # facet -> its cofaces still present
    for s in simplices:
        if len(s) > 1:
            for k in range(len(s)):
                cofaces.setdefault(s[:k] + s[k + 1 :], set()).add(s)
    free = deque(sorted((f for f, over in cofaces.items() if len(over) == 1), key=simplex_sort_key))
    size = len(simplices)
    steps = 0
    while free and size > 1:
        face = free.popleft()
        over = cofaces[face]
        if not over:
            continue
        if steps == budget:
            return False
        steps += 1
        top = over.pop()
        size -= 2
        for removed in (top, face) if len(face) > 1 else (top,):
            for k in range(len(removed)):
                facet = removed[:k] + removed[k + 1 :]
                rest = cofaces[facet]
                rest.discard(removed)
                if len(rest) == 1:
                    free.append(facet)
    return size == 1


def scan_nerve(cover, budget: int = 100_000):
    """The nerve grown level by level: every index tested for a non-empty
    element, then every subset whose facets all meet tested for a common
    simplex, each element read as the simplices it holds or touches by a
    scan of the whole complex.  Returns (simplices, subsets checked), or
    (None, checked) once more than `budget` subsets have been checked."""
    from polytower.complexes import Subcomplex
    from polytower.stars import OpenStarSet

    if len({type(e) for _, e in cover.elements}) > 1:
        raise ValueError("cover mixes element representations")
    if len({getattr(e, "vertex_map", None) for _, e in cover.elements}) > 1:
        raise ValueError("joint rule needs a single underlying map")

    def held(e) -> frozenset:
        if isinstance(e, Subcomplex):
            return e.simplices
        if isinstance(e, OpenStarSet):
            return frozenset(s for s in e.ambient.simplices if meets_core(e, s))
        vm = e.vertex_map
        return frozenset(s for s in vm.source.simplices if e.star_vertex in vm.image_simplex(s))

    sets = {i: held(e) for i, e in cover.elements}
    checked = 0
    alive = []
    for i in cover.indices:
        checked += 1
        if checked > budget:
            return None, checked
        if sets[i]:
            alive.append(i)
    simplices = {(i,) for i in alive}
    current = [frozenset([i]) for i in alive]
    while current:
        current_set = set(current)
        seen = set()
        grown = []
        for subset in current:
            for i in alive:
                if i in subset:
                    continue
                candidate = subset | {i}
                if candidate in seen:
                    continue
                seen.add(candidate)
                if any(candidate - {j} not in current_set for j in candidate):
                    continue
                checked += 1
                if checked > budget:
                    return None, checked
                if frozenset.intersection(*(sets[j] for j in candidate)):
                    grown.append(candidate)
        simplices.update(tuple(sorted(c, key=vertex_key)) for c in grown)
        current = grown
    return frozenset(simplices), checked


def scan_open_intersection(complex_: Complex, cores) -> list:
    """Every simplex of the complex meeting every core, in canonical order."""
    from polytower.complexes import simplex_sort_key

    return sorted(
        (s for s in complex_.simplices if all(set(s) & set(core) for core in cores)),
        key=simplex_sort_key,
    )


# ---------------------------------------------------------------------------
# helpers that only the tests call, kept out of the package


def chain_max(name_tuple) -> tuple:
    """The longest name of a chain of simplices: the top of the chain."""
    return max(name_tuple, key=len)


def matmul(a: list, b: list) -> list:
    """Dense integer matrix product."""
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    return [[sum(x * y for x, y in zip(row, col) if x) for col in zip(*b)] for row in a]


def is_zero_matrix(a: list) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def boundary_composition_is_zero(complex_: Complex) -> bool:
    """d_{k-1} d_k = 0 in every degree, on the dense boundary matrices."""
    for k in range(2, complex_.dimension + 1):
        if not is_zero_matrix(matmul(boundary_matrix(complex_, k - 1), boundary_matrix(complex_, k))):
            return False
    return True


def constant_pl_map(domain: Complex, target: Complex, point):
    """The PL map sending every vertex of the domain to one point."""
    from polytower.complexes import whole_subcomplex
    from polytower.plmaps import PartialPLMap

    return PartialPLMap.build(domain, whole_subcomplex(domain), {v: point for v in domain.vertices}, target)


def cover_to_obj(cover) -> dict:
    """A cover as the document `formats.parse_cover` reads."""
    from polytower.complexes import Subcomplex
    from polytower.formats import complex_to_obj, subcomplex_to_obj, vertex_to_key, vertex_to_obj

    elements = {}
    star_of = dict(cover.star_of)
    for i, e in cover.elements:
        key = vertex_to_key(i)
        if i in star_of:
            elements[key] = {"star_of": vertex_to_obj(star_of[i])}
        elif isinstance(e, Subcomplex):
            elements[key] = subcomplex_to_obj(e)
        else:
            elements[key] = subcomplex_to_obj(e.core)
    return {
        "ambient": complex_to_obj(cover.base if cover.base is not None else cover.ambient),
        "kind": cover.kind,
        "elements": elements,
    }


def homotopy_to_obj(result) -> dict:
    """A homotopy certificate as a document: the prism triangulation, its
    vertex images, and the cover element tracking each domain point's path."""
    from polytower.formats import complex_to_obj, point_to_obj, verdict_to_obj, vertex_to_key

    out = {"status": verdict_to_obj(result.status)}
    if result.prism is not None:
        out["prism"] = complex_to_obj(result.prism)
    if result.map is not None:
        out["vertex_images"] = {vertex_to_key(v): point_to_obj(p) for v, p in result.map.images}
    out["path_witnesses"] = {
        vertex_to_key(s): vertex_to_key(w)
        for s, w in sorted(result.path_witnesses.items(), key=lambda kv: str(kv[0]))
    }
    return out


def meets_core(element, simplex) -> bool:
    """Whether a simplex meets the core of an open star element."""
    return not element.core.vertex_set().isdisjoint(simplex)


def open_star_of_subdivided(base: Complex, sub):
    """The open star, inside the subdivision of the base, of a subcomplex of
    the base (taken with its subdivided triangulation)."""
    from polytower.complexes import barycentric_subdivision, beta_subcomplex
    from polytower.stars import OpenStarSet

    beta = barycentric_subdivision(base)
    return OpenStarSet(beta, beta_subcomplex(sub, beta))


def barycentric_star_contains_point(base: Complex, sub, point) -> bool:
    """Point-level membership in the barycentric star: some vertex of the
    subcomplex carries the maximal barycentric coordinate."""
    if point.complex != base:
        raise ValueError("point lives on a different complex")
    top = max(c for _, c in point.coords)
    argmax = {v for v, c in point.coords if c == top}
    return bool(argmax & sub.vertex_set())


def vertex_image_point(p, vertex, scale=Fraction(1)):
    """The image of a source vertex of a quasi-simplicial map, as the
    barycentre of its simplex in the base target."""
    name = p(vertex)
    share = Fraction(1, len(name))
    return make_point(p.base_target, {v: share for v in name}, scale)


# ---------------------------------------------------------------------------
# whole-source scans: the reference versions of the fiber-indexed maps queries


def scan_preimage_of_base(p, sub) -> frozenset:
    """Every source simplex whose image chain has its top (the union of the
    named simplices) in the subcomplex of the base target."""
    mapping = p.as_dict()
    kept = set()
    for s in p.source.simplices:
        top = set()
        for v in s:
            top.update(mapping[v])
        if tuple(sorted(top, key=vertex_key)) in sub.simplices:
            kept.add(s)
    return frozenset(kept)


def scan_is_surjective(p):
    """Every source simplex's image, then the first maximal target simplex
    (in `simplex_sort_key` order) that none of them is."""
    from polytower.complexes import simplex_sort_key
    from polytower.maps import underlying_vertex_map
    from polytower.verdicts import Verdict

    vm = underlying_vertex_map(p)
    covered = {vm.image_simplex(s) for s in vm.source.simplices}
    for target_max in sorted(vm.target.maximal, key=simplex_sort_key):
        if target_max not in covered:
            return Verdict.fails(witness=target_max, reason="maximal simplex not covered")
    return Verdict.holds()


def scan_validate_carrier(carrier):
    """The region of every nerve simplex, in `simplex_sort_key` order, until
    the first empty one."""
    from polytower.carriers import _region_for
    from polytower.complexes import simplex_sort_key
    from polytower.stars import nerve
    from polytower.verdicts import Verdict

    result = nerve(carrier.source_cover)
    if not result.status.is_holds:
        return result.status
    for subset in sorted(result.complex.simplices, key=simplex_sort_key):
        if not _region_for(carrier, list(subset)).simplices:
            return Verdict.fails(witness=list(subset), reason="target intersection empty")
    return Verdict.holds()


# ---------------------------------------------------------------------------
# canonical JSON through json.dumps: the reference for the one-pass writer


def plain_reference(value):
    """A document as JSON values: rationals as "p/q" strings, verdicts as
    objects, tuples as lists, sets as lists sorted by their JSON text and
    non-string keys by the string of their plain form."""
    from polytower.verdicts import Verdict

    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, Verdict):
        out = {"status": value.status}
        if value.witness is not None:
            out["witness"] = plain_reference(value.witness)
        if value.reason is not None:
            out["reason"] = value.reason
        return out
    if isinstance(value, tuple):
        return [plain_reference(v) for v in value]
    if isinstance(value, (list, set, frozenset)):
        items = [plain_reference(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=json.dumps)
        return items
    if isinstance(value, dict):
        return {str(plain_reference(k)) if not isinstance(k, str) else k: plain_reference(v) for k, v in value.items()}
    return value


def dumps_reference(obj) -> str:
    return json.dumps(plain_reference(obj), indent=2, sort_keys=True, ensure_ascii=True) + "\n"
