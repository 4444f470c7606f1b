"""Shared oracles and generators for the test suite.

The reference checks are deliberately independent of the implementation
paths they cross-check: subdivision counts come from a DFS chain enumerator
over the face poset, homology cross-checks from rational and mod-p Gaussian
elimination, closures from raw powerset enumeration.

The last sections hold the paper's lemmas that no command runs, built on the
library: the l1 distance and full subcomplexes, the straight-line
deformation, cover-closeness and "close maps are homotopic", composition of
quasi-simplicial maps, cover isomorphism and star covers pulled back through
several levels.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

from polytower.carriers import align_point, carried_extension, element_contains_hull, hull_witnesses
from polytower.complexes import (
    Complex,
    ComplexMismatchError,
    Subcomplex,
    UnknownVertexError,
    _induced_tops,
    barycentric_subdivision,
    face_closure,
    faces,
    induced_subcomplex,
    simplex_sort_key,
    vertex_key,
    vertex_to_key,
    whole_subcomplex,
)
from polytower.connectivity import subcomplex_verdict
from polytower.formats import InputFormatError
from polytower.maps import VertexMap, check_quasi_simplicial
from polytower.plmaps import PartialPLMap
from polytower.points import ONE, Point, make_point
from polytower.readers import parse_vertex_key
from polytower.records import Record
from polytower.stars import (
    IndexMismatchError,
    IndexedCover,
    OpenStarSet,
    barycentric_vertex_stars,
    cover_B,
    cover_O,
    nerve,
    pullback_cover,
)
from polytower.towers import MalformedTowerError, Tower, intersection_verdicts
from polytower.verdicts import DEFAULT_BUDGETS, Budgets, Verdict


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


def rank_mod_p(columns, p: int) -> int:
    """Rank over the field with p elements, p prime, of the matrix with the
    sparse columns {row: value}: each column is reduced against the kept
    ones by its largest row, and kept when anything is left of it."""
    kept: dict = {}  # largest row -> a kept column, 1 in that row
    for column in columns:
        col = {i: x % p for i, x in column.items() if x % p}
        while col:
            low = max(col)
            pivot = kept.get(low)
            if pivot is None:
                inverse = pow(col[low], -1, p)
                kept[low] = {i: x * inverse % p for i, x in col.items()}
                break
            c = col[low]
            for i, x in pivot.items():
                y = (col.get(i, 0) - c * x) % p
                if y:
                    col[i] = y
                else:
                    col.pop(i, None)
    return len(kept)


def betti_mod_p(complex_: Complex, k: int, p: int) -> int:
    """dim H_k(K; F_p) = n_k - rank ∂_k - rank ∂_(k+1) over F_p."""
    from polytower.connectivity import boundary_columns

    n_k = len(complex_.simplices_of_dim(k))
    return n_k - rank_mod_p(boundary_columns(complex_, k), p) - rank_mod_p(boundary_columns(complex_, k + 1), p)


def boundary_matrix(complex_: Complex, k: int) -> list:
    """Dense form of `connectivity.boundary_columns`; rows index (k-1)-simplices."""
    from polytower import snf
    from polytower.connectivity import boundary_columns

    rows = len(complex_.simplices_of_dim(k - 1))
    return snf.dense_rows(snf.transpose_sparse(boundary_columns(complex_, k), rows), len(complex_.simplices_of_dim(k)))


def betti_over_field(complex_, k, rank_fn) -> int:
    n_k = len(complex_.simplices_of_dim(k))
    if n_k == 0:
        return 0
    d_k = boundary_matrix(complex_, k)
    d_next = boundary_matrix(complex_, k + 1)
    rank_k = rank_fn(d_k) if d_k and d_k[0:] and len(d_k) else 0
    rank_next = rank_fn(d_next) if len(d_next) else 0
    return n_k - rank_k - rank_next


def invariant_factors(matrix: list, cols: int | None = None) -> list:
    """The invariant factors of a dense integer matrix, by `snf.eliminate`."""
    from polytower import snf

    width = cols if cols is not None else (len(matrix[0]) if matrix else 0)
    return [d for _, _, d in snf.eliminate(snf.sparse_columns(matrix, width), len(matrix)).pivots]


# ---------------------------------------------------------------------------
# reference induced maps: canonical homology coordinates from recorded
# transforms and their inverses, sharing no elimination with the library


class ReferenceReduction(Record):
    """U * A * V is zero except at the pivots (row, col, d); V and V^-1 are
    recorded, U is not."""

    pivots: list
    cols: int
    right: list  # V, as columns
    right_inverse: list  # V^-1, as rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_columns(self) -> list:
        used = {j for _, j, _ in self.pivots}
        return [j for j in range(self.cols) if j not in used]


def _axpy(target: dict, c: int, source: dict) -> None:
    for i, a in source.items():
        v = target.get(i, 0) + c * a
        if v:
            target[i] = v
        else:
            del target[i]


def _combine(vectors: list, coefficients: dict) -> dict:
    out: dict = {}
    for j, c in coefficients.items():
        _axpy(out, c, vectors[j])
    return out


def _transpose(vectors: list, length: int) -> list:
    out: list = [{} for _ in range(length)]
    for j, vec in enumerate(vectors):
        for i, a in vec.items():
            out[i][j] = a
    return out


def reference_eliminate(columns: list, rows: int) -> ReferenceReduction:
    """Sparse Smith elimination that tracks V and V^-1 through every column
    operation: unit pivots first, Euclid steps on a least entry otherwise."""
    cols = [dict(c) for c in columns]
    n = len(cols)
    meets: list = [set() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in col:
            meets[i].add(j)
    v = [{j: 1} for j in range(n)]
    v_inv = [{j: 1} for j in range(n)]
    pivots: list = []

    def add_col(src, dst, c):
        target = cols[dst]
        for i, a in cols[src].items():
            value = target.get(i, 0) + c * a
            if value:
                if i not in target:
                    meets[i].add(dst)
                target[i] = value
            else:
                del target[i]
                meets[i].discard(dst)
        _axpy(v[dst], c, v[src])
        _axpy(v_inv[src], -c, v_inv[dst])

    def add_row(src, dst, c):
        for j in list(meets[src]):
            col = cols[j]
            value = col.get(dst, 0) + c * col[src]
            if value:
                if dst not in col:
                    meets[dst].add(j)
                col[dst] = value
            else:
                del col[dst]
                meets[dst].discard(j)

    def retire(i, j):
        a = cols[j][i]
        for l in list(meets[i]):
            if l != j:
                add_col(j, l, -(cols[l][i] // a))
        for t in cols[j]:
            meets[t].discard(j)
        cols[j] = {}
        if a < 0:
            v[j] = {r: -x for r, x in v[j].items()}
            v_inv[j] = {r: -x for r, x in v_inv[j].items()}
        pivots.append((i, j, abs(a)))

    def isolate(i, j, pending):
        while True:
            a = cols[j][i]
            for l in list(meets[i]):
                if l != j and cols[l][i] // a:
                    add_col(j, l, -(cols[l][i] // a))
            rest = [l for l in meets[i] if l != j]
            if rest:
                j = min(rest, key=lambda l: (abs(cols[l][i]), l))
                continue
            for t in [t for t in cols[j] if t != i]:
                if cols[j][t] // a:
                    add_row(i, t, -(cols[j][t] // a))
            rest = [t for t in cols[j] if t != i]
            if rest:
                i = min(rest, key=lambda t: (abs(cols[j][t]), t))
                continue
            bad = next((t for l in pending if l != j for t, b in cols[l].items() if b % a), None)
            if bad is None:
                return i, j
            add_row(bad, i, 1)

    pending = [j for j in range(n) if cols[j]]
    while pending:
        found = False
        for j in pending:
            best = None
            for i, a in cols[j].items():
                if a in (1, -1) and (best is None or len(meets[i]) < len(meets[best])):
                    best = i
            if best is not None:
                retire(best, j)
                found = True
        pending = [j for j in pending if cols[j]]
        if pending and not found:
            _, j, i = min((abs(a), j, i) for j in pending for i, a in cols[j].items())
            retire(*isolate(i, j, pending))
            pending = [j for j in pending if cols[j]]
    return ReferenceReduction(pivots, n, v, v_inv)


class ReferenceHomology(Record):
    """H_k = Z_k / B_k from two reductions, with canonical (free, torsion)
    coordinates.

    `cycles` reduces ∂_k: the columns of V without a pivot are a basis of
    the cycles, and a chain c is a cycle exactly when V^-1 c vanishes at the
    pivot columns.  `quotient` reduces the boundaries written in that
    basis, transposed: P = W^T takes cycle coordinates to canonical ones,
    and the rows of W^-1 are the columns of P^-1.
    """

    degree: int
    cycles: ReferenceReduction
    position: dict  # cycle coordinate of each V column without a pivot
    inverse_columns: list  # V^-1 as columns, one per k-simplex
    quotient: ReferenceReduction
    torsion_entries: list  # (position, order) with order > 1
    free_positions: list
    betti: int
    torsion: tuple

    def coords_of_cycle(self, chain: dict):
        """Canonical (free, torsion) coordinates of a chain, or None if it
        is not a cycle."""
        z = _cycle_coordinates(self.inverse_columns, self.position, chain)
        if z is None:
            return None
        change = self.quotient.right

        def coordinate(p):
            column = change[p]
            return sum(a * column[s] for s, a in z.items() if s in column)

        free = tuple(coordinate(p) for p in self.free_positions)
        tor = tuple(coordinate(p) % order for p, order in self.torsion_entries)
        return (free, tor)

    def generator_cycles(self) -> list:
        """Cycles of the canonical free and torsion generators: the columns
        of P^-1 at those positions, carried to chains by V."""
        basis = [self.cycles.right[j] for j in self.position]
        positions = self.free_positions + [p for p, _ in self.torsion_entries]
        return [_combine(basis, self.quotient.right_inverse[p]) for p in positions]


def _cycle_coordinates(inverse_columns: list, position: dict, chain: dict):
    coords = {}
    for j, a in _combine(inverse_columns, chain).items():
        p = position.get(j)
        if p is None:
            return None
        coords[p] = a
    return coords


def reference_homology(complex_: Complex, k: int) -> ReferenceHomology:
    from polytower.connectivity import boundary_columns

    cycles = reference_eliminate(boundary_columns(complex_, k), len(complex_.simplices_of_dim(k - 1)))
    position = {j: p for p, j in enumerate(cycles.free_columns())}
    inverse_columns = _transpose(cycles.right_inverse, cycles.cols)
    d_next = boundary_columns(complex_, k + 1)
    relations: list = [{} for _ in position]
    for s, column in enumerate(d_next):
        for p, a in _cycle_coordinates(inverse_columns, position, column).items():
            relations[p][s] = a
    quotient = reference_eliminate(relations, len(d_next))
    torsion_entries = [(p, d) for _, p, d in quotient.pivots if d > 1]
    return ReferenceHomology(
        degree=k,
        cycles=cycles,
        position=position,
        inverse_columns=inverse_columns,
        quotient=quotient,
        torsion_entries=torsion_entries,
        free_positions=quotient.free_columns(),
        betti=len(position) - quotient.rank,
        torsion=tuple(d for _, d in torsion_entries),
    )


def reference_induced_homology_map(p, k: int) -> tuple:
    """(matrix over canonical generators, Verdict) of the degree-k induced
    map: the images of the source generators in target coordinates, and
    the cokernel test on them together with the target torsion relations."""
    from polytower.induced import chain_map_columns

    src = reference_homology(p.source, k)
    dst = reference_homology(p.target, k)
    chain = chain_map_columns(p, k)
    images = []
    for cycle in src.generator_cycles():
        coords = dst.coords_of_cycle(_combine(chain, cycle))
        if coords is None:
            raise AssertionError("image of a cycle is not a cycle")
        images.append(coords)
    if (src.betti, src.torsion) != (dst.betti, dst.torsion):
        return images, Verdict.fails(
            witness={
                "source": {"betti": src.betti, "torsion": list(src.torsion)},
                "target": {"betti": dst.betti, "torsion": list(dst.torsion)},
            },
            reason="homology groups differ in degree %d" % k,
        )
    if dst.betti == 0 and not dst.torsion:
        return images, Verdict.holds()
    orders = [order for _, order in dst.torsion_entries]
    rows = dst.betti + len(orders)
    columns = [list(free) + list(tor) for free, tor in images]
    columns += [[order if i == dst.betti + t else 0 for i in range(rows)] for t, order in enumerate(orders)]
    presentation = [{i: a for i, a in enumerate(column) if a} for column in columns]
    factors = [d for _, _, d in reference_eliminate(presentation, rows).pivots]
    if len(factors) == rows and all(d == 1 for d in factors):
        return images, Verdict.holds()
    return images, Verdict.fails(witness={"invariant_factors": factors}, reason="induced map is not onto")


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
    from polytower.complexes import vertex_key as vk

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
    return check_quasi_simplicial(subdivided, base, chosen)


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
    return check_quasi_simplicial(cyl, base, images)


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
    from polytower.generators import simplex, subdivision_tower

    out = [("random %d" % seed, random_complex(seed)) for seed in range(12)]
    out += [("rp2", rp2_complex()), ("cylinder", cylinder_complex())]
    for i, level in enumerate(subdivision_tower(simplex(2), 3).levels):
        out += [("triangle level %d" % i, level), ("beta of triangle level %d" % i, barycentric_subdivision(level))]
    return out


def corpus_towers() -> list:
    """(label, tower) pairs of the kinds the command-line corpus verifies:
    subdivision towers of the triangle, tetrahedron, rp2 and circle, the
    cylinder tower, whose bond is not an identity, and random towers."""
    from polytower.generators import circle, cylinder_tower, projective_plane, random_tower, simplex, subdivision_tower

    out = [
        ("triangle", subdivision_tower(simplex(2), 3)),
        ("tetrahedron", subdivision_tower(simplex(3), 2)),
        ("rp2", subdivision_tower(projective_plane(), 2)),
        ("circle", subdivision_tower(circle(), 3)),
        ("cylinder", cylinder_tower()),
    ]
    return out + [("random %d" % seed, random_tower(seed, 3)) for seed in range(6)]


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
    return scan_induced(p.source, [v for v, img in p.assignment if img in allowed])


def scan_preimage_of_subdivided(vm, sub) -> frozenset:
    """The source simplices whose image simplex lies in the subcomplex."""
    return frozenset(s for s in vm.source.simplices if vm.image_simplex(s) in sub.simplices)


def scan_first_uncovered(cover):
    """Every element tested against every maximal simplex of the ambient."""
    for s in sorted(cover.ambient.maximal, key=simplex_sort_key):
        hit = False
        for _, e in cover.elements:
            hit = s in e.simplices if isinstance(e, Subcomplex) else meets_core(e, s)
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
            labels[name] = "i" + vertex_to_key(name)
    return Complex.from_maximal([[labels[v] for v in tri] for tri in twice.maximal])


def greedy_collapse(simplices, budget: int) -> bool:
    """Whether at most `budget` elementary collapses, free faces taken in
    `simplex_sort_key` order and then in the order the collapses free them,
    reduce a face-closed set to a single vertex: the coface-queue search
    with no closed-form shortcut, as a reference."""
    from collections import deque

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
    if len({type(e) for _, e in cover.elements}) > 1:
        raise ValueError("cover mixes element representations")

    def held(e) -> frozenset:
        if isinstance(e, Subcomplex):
            return e.simplices
        return frozenset(s for s in e.ambient.simplices if meets_core(e, s))

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


def open_pullback_by_fibers(p, cover: IndexedCover) -> IndexedCover:
    """An open cover of a map's own (subdivided) target pulled back by
    hand, each core to the source vertices mapped into it: the regime
    `pullback_cover` refuses, since there an intersection of pulled-back
    stars need not be the star of the common core."""
    fibers: dict = {}
    for v, w in p.assignment:
        fibers.setdefault(w, []).append(v)
    elements = {i: OpenStarSet(p.source, frozenset(v for t in e.core for v in fibers.get(t, ()))) for i, e in cover.elements}
    return IndexedCover.build(p.source, "open", elements, star_of=dict(cover.star_of))


def common_core_piece(cover: IndexedCover, subset) -> Subcomplex:
    """The reference rule for an intersection of pulled-back open stars: the
    subcomplex induced on the common core, onto which the straight-line
    deformation retracts the intersection, the open star of that core."""
    common = frozenset.intersection(*(cover.element(i).core for i in subset))
    return induced_subcomplex(cover.ambient, common)


def common_core_verdicts(cover: IndexedCover, n: int, budgets: Budgets = DEFAULT_BUDGETS):
    """The nerve status of a pulled-back open cover and, in simplex order,
    (indices, extensor verdict of the common-core piece) per nerve simplex."""
    result = nerve(cover, budgets)
    if not result.status.is_holds:
        return result.status, []
    subsets = result.complex.sorted_simplices()
    return result.status, [(list(s), subcomplex_verdict(common_core_piece(cover, s), n, budgets)) for s in subsets]


def barycentric_core_stars(cover: IndexedCover) -> IndexedCover:
    """The closed counterpart of an open cover: per index, the chains of the
    subdivision whose minimal element meets the core, the union of the
    barycentric stars of the core's vertices."""
    beta = barycentric_subdivision(cover.ambient)
    stars = barycentric_vertex_stars(cover.ambient)
    elements = {
        i: Subcomplex(beta, frozenset().union(*(stars[v].simplices for v in e.core))) for i, e in cover.elements
    }
    return IndexedCover.build(beta, "closed", elements)


def cover_rule_mismatches(pulled_open: IndexedCover, pulled_closed: IndexedCover, budgets: Budgets = DEFAULT_BUDGETS) -> list:
    """Where an open cover and its barycentric counterpart, pulled back along
    one bond, part: ["nerve"] when the nerve results differ (their subset
    counts included), else the nerve simplices whose common-core piece is
    not the closed intersection."""
    open_nerve = nerve(pulled_open, budgets)
    if open_nerve != nerve(pulled_closed, budgets):
        return ["nerve"]
    if not open_nerve.status.is_holds:
        return []
    return [
        s
        for s in open_nerve.complex.sorted_simplices()
        if common_core_piece(pulled_open, s) != pulled_closed.intersection_subcomplex(s)
    ]


def scan_open_intersection(complex_: Complex, cores) -> list:
    """Every simplex of the complex meeting every core, in canonical order."""
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
    return PartialPLMap.build(domain, whole_subcomplex(domain), {v: point for v in domain.vertices}, target)


def vertex_to_obj(name):
    """The JSON form of a vertex name: an atom as it stands, a nested name as
    nested arrays (`formats.dumps_canonical` renders a name so)."""
    return name if isinstance(name, str) else [vertex_to_obj(part) for part in name]


def subcomplex_to_obj(sub: Subcomplex) -> list:
    """A subcomplex as the vertex arrays of its simplices, in simplex order."""
    return [[vertex_to_obj(v) for v in s] for s in sub.sorted_simplices()]


def cover_to_obj(cover) -> dict:
    """A cover as the document `readers.parse_cover` reads."""
    from polytower.formats import complex_to_obj, vertex_to_key

    elements = {}
    star_of = dict(cover.star_of)
    for i, e in cover.elements:
        key = vertex_to_key(i)
        if i in star_of:
            elements[key] = {"star_of": vertex_to_obj(star_of[i])}
        elif isinstance(e, Subcomplex):
            elements[key] = subcomplex_to_obj(e)
        else:
            elements[key] = [[vertex_to_obj(v)] for v in sorted(e.core, key=vertex_key)]
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
    return not element.core.isdisjoint(simplex)


def open_star_of_subdivided(base: Complex, sub):
    """The open star, inside the subdivision of the base, of a subcomplex of
    the base (taken with its subdivided triangulation)."""
    from polytower.complexes import beta_subcomplex

    beta = barycentric_subdivision(base)
    return OpenStarSet(beta, beta_subcomplex(sub).vertex_set())


def barycentric_star_contains_point(base: Complex, sub, point) -> bool:
    """Point-level membership in the barycentric star: some vertex of the
    subcomplex carries the maximal barycentric coordinate."""
    if point.complex != base:
        raise ValueError("point lives on a different complex")
    top = max(c for _, c in point.coords)
    argmax = {v for v, c in point.coords if c == top}
    return bool(argmax & sub.vertex_set())


def in_element(element, point, base=None) -> bool:
    """Exact membership of one point in a cover element: the hull of the
    point alone, aligned with the element's complex first (lifted into it
    when the point lives on its base)."""
    home = element.ambient if isinstance(element, OpenStarSet) else element.parent
    return element_contains_hull(element, [align_point(point, home, base)]) is True


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
    mapping = p.lookup
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
    covered = {p.image_simplex(s) for s in p.source.simplices}
    for target_max in sorted(p.target.maximal, key=simplex_sort_key):
        if target_max not in covered:
            return Verdict.fails(witness=target_max, reason="maximal simplex not covered")
    return Verdict.holds()


def scan_validate_carrier(carrier):
    """The region of every nerve simplex, in `simplex_sort_key` order, until
    the first empty one."""
    from polytower.carriers import _region_for

    result = nerve(carrier.source_cover)
    if not result.status.is_holds:
        return result.status
    for subset in sorted(result.complex.simplices, key=simplex_sort_key):
        if not _region_for(carrier, list(subset)).simplices:
            return Verdict.fails(witness=list(subset), reason="target intersection empty")
    return Verdict.holds()


# ---------------------------------------------------------------------------
# command documents: lift specifications, and names that read back


def lift_spec(maximal, depth: int, names="abc", thread=None) -> dict:
    """The lift specification of the map sending each x_i of the domain to
    the vertex names[i] of the first level, with x0 anchored on the thread
    of `depth` points at the vertices `thread` names, by default names[0],
    [names[0]], [[names[0]]], ... (no anchor at depth 0)."""
    point = lambda key: {"coords": {key: "1"}, "scale": "1"}  # noqa: E731
    used = sorted({x for s in maximal for x in s})
    if thread is None:
        thread, vertex = [], names[0]
        for _ in range(depth):
            thread.append(vertex)
            vertex = (vertex,)
    thread = [point(vertex_to_key(v)) for v in thread[:depth]]
    return {
        "domain": {"vertices": [], "maximal": maximal},
        "f1": {"vertex_points": {x: point(names[int(x[1:])]) for x in used}},
        "anchor": [["x0"]] if depth else [],
        "threads": {"x0": thread} if depth else {},
    }


def unreadable_keys(document) -> list:
    """The object keys anywhere in a JSON document that do not read back.

    A key that begins with '[' spells a nested vertex name, or a simplex of
    names, as its compact JSON: `readers.parse_vertex_key` must read it and
    `vertex_to_key` must spell what it read as the same text.  No key may be
    a Python repr of a list or a tuple (one that begins with "['" or "('").
    """
    bad = []
    stack = [document]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            bad.extend(key for key in value if not _reads_back(key))
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return bad


def _reads_back(key: str) -> bool:
    if key.startswith(("['", "('")):
        return False
    if not key.startswith("["):
        return True
    try:
        return vertex_to_key(parse_vertex_key(key)) == key
    except InputFormatError:
        return False


# ---------------------------------------------------------------------------
# canonical JSON through json.dumps: the reference for the one-pass writer


def plain_reference(value):
    """A document as JSON values: rationals as "p/q" strings, verdicts as
    objects, tuples as lists, sets as lists sorted by their JSON text and
    non-string keys by the compact JSON of their plain form."""
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
        return {k if isinstance(k, str) else _key_reference(plain_reference(k)): plain_reference(v) for k, v in value.items()}
    return value


def _key_reference(plain) -> str:
    """A non-string key's text: its compact JSON, as an object key spells a
    nested name; a rational's "p/q" string as it stands."""
    return plain if isinstance(plain, str) else json.dumps(plain, separators=(",", ":"))


def dumps_reference(obj) -> str:
    return json.dumps(plain_reference(obj), indent=2, sort_keys=True, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# points, fullness and closed stars


class ScaleMismatchError(ValueError):
    """Two points with different scales were combined."""


def distance(x: Point, y: Point) -> Fraction:
    """Scaled l1 distance of barycentric coordinate vectors."""
    if not (x.complex is y.complex or x.complex == y.complex):
        raise ComplexMismatchError("points on different complexes")
    if x.scale != y.scale:
        raise ScaleMismatchError("points at different scales: %s vs %s" % (x.scale, y.scale))
    xd, yd = x.as_dict(), y.as_dict()
    total = Fraction(0)
    for v in set(xd) | set(yd):
        total += abs(xd.get(v, Fraction(0)) - yd.get(v, Fraction(0)))
    return x.scale * total


def vertex_point(complex_: Complex, vertex, scale=ONE) -> Point:
    return make_point(complex_, {vertex: ONE}, scale)


def is_full_subcomplex(sub: Subcomplex, ambient: Complex | None = None) -> bool:
    """Whether every ambient simplex spanned by the subcomplex's vertices is
    already in the subcomplex: the subcomplex is face-closed, so it is enough
    that it holds every intersection of its vertex set with a maximal
    simplex."""
    if ambient is not None and ambient != sub.parent:
        raise ComplexMismatchError("subcomplex does not live in the given complex")
    return _induced_tops(sub.parent, sub.vertex_set()) <= sub.simplices


def closed_star(complex_: Complex, vertex) -> frozenset:
    """Simplices of every closed simplex containing the vertex: the faces
    of the maximal simplices through it."""
    if not complex_.has_vertex(vertex):
        raise UnknownVertexError(vertex_to_key(vertex))
    return frozenset(face_closure(complex_.maximal_at(vertex)))


# ---------------------------------------------------------------------------
# PL maps sending vertices to vertices


def from_vertex_images(domain: Complex, images: dict, target: Complex, scale=Fraction(1)) -> PartialPLMap:
    """Total PL map sending vertices to vertices of the target."""
    pts = {v: vertex_point(target, w, scale) for v, w in images.items()}
    return PartialPLMap.build(domain, whole_subcomplex(domain), pts, target)


# ---------------------------------------------------------------------------
# stars and covers: the barycentric star of a subcomplex, closed star covers,
# cover isomorphism, the straight-line deformation and cover-closeness


def barycentric_star(base: Complex, sub: Subcomplex) -> Subcomplex:
    """All simplices of the subdivision meeting the subcomplex: the union of
    the barycentric stars of its vertices."""
    if sub.parent != base:
        raise ValueError("subcomplex of a different complex")
    stars = barycentric_vertex_stars(base)
    kept = frozenset().union(*(stars[v].simplices for v in sub.vertex_set()))
    return Subcomplex._trusted(barycentric_subdivision(base), kept)


def closed_star_cover(complex_: Complex) -> IndexedCover:
    """The closed cover of a complex by the closed stars of its own vertices
    in its own triangulation."""
    elements = {}
    for v in complex_.vertices:
        elements[v] = Subcomplex(complex_, closed_star(complex_, v))
    return IndexedCover.build(complex_, "closed", elements, star_of={v: v for v in complex_.vertices})


def covers_isomorphic(f: IndexedCover, g: IndexedCover, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Holds when both covers have the same index set and identical nerves;
    a distinguishing index subset is the witness otherwise."""
    if set(f.indices) != set(g.indices):
        raise IndexMismatchError("covers are indexed by different sets")
    nf, ng = nerve(f, budgets), nerve(g, budgets)
    if not nf.status.is_holds:
        return nf.status
    if not ng.status.is_holds:
        return ng.status
    sf, sg = nf.complex.simplices, ng.complex.simplices
    if sf == sg:
        return Verdict.holds()
    difference = sorted(sf ^ sg, key=simplex_sort_key)
    return Verdict.fails(witness=difference[0], reason="nerves differ")


def deformation_phi(x: Point, t, core: Subcomplex) -> Point:
    """The convex slide t*q(x) + (1-t)*x toward the renormalised projection
    onto a full subcomplex; defined on the open star of the core."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    if core.parent != x.complex:
        raise ValueError("point and subcomplex live on different complexes")
    if not is_full_subcomplex(core):
        raise ValueError("deformation needs a full subcomplex")
    core_vertices = core.vertex_set()
    norm = sum((c for v, c in x.coords if v in core_vertices), Fraction(0))
    if norm == 0:
        raise ValueError("point is outside the open star of the core")
    out: dict = {}
    for v, c in x.coords:
        value = (1 - t) * c
        if v in core_vertices:
            value += t * (c / norm)
        if value:
            out[v] = value
    return make_point(x.complex, out, x.scale)


def are_close(f: PartialPLMap, g: PartialPLMap, cover: IndexedCover) -> Verdict:
    """Certified cover-closeness of two PL maps on one triangulated domain.

    Holds with a per-simplex witness table when every domain simplex has an
    element containing both image hulls; fails with an exact point witness
    when some evaluated domain point has no common element at all; otherwise
    inconclusive after one domain subdivision.
    """
    if f.domain != g.domain:
        raise ValueError("maps must share a domain triangulation")
    if f.target != g.target:
        raise ValueError("maps must share a target")
    for round_ in range(2):
        if round_:
            f, g = f.subdivided(), g.subdivided()
        pointwise = _pointwise_violation(f, g, cover)
        if pointwise is not None:
            return Verdict.fails(
                witness={"vertex": pointwise}, reason="no common element at a domain point"
            )
        # witnesses on maximal simplices restrict to faces
        maximal = f.defined_on.as_complex().maximal
        witnesses = hull_witnesses([f, g], maximal, cover)
        if witnesses is not None:
            return Verdict.holds(witness=witnesses)
    return Verdict.inconclusive("no per-simplex witness after one subdivision")


def _pointwise_violation(f, g, cover):
    for v in sorted(f.defined_on.vertex_set(), key=vertex_key):
        fp, gp = f.image_of(v), g.image_of(v)
        found = False
        for i in cover.indices:
            e = cover.element(i)
            if in_element(e, fp, cover.base) and in_element(e, gp, cover.base):
                found = True
                break
        if not found:
            return v
    return None


# ---------------------------------------------------------------------------
# composition of (quasi-)simplicial maps


def _beta_extension(vm: VertexMap) -> VertexMap:
    """The subdivision of a simplicial map: the vertex named by a simplex maps
    to the vertex named by its image simplex."""
    src = barycentric_subdivision(vm.source)
    dst = barycentric_subdivision(vm.target)
    images = {name: vm.image_simplex(name) for name in src.vertices}
    return VertexMap.build(src, dst, images)


def compose(outer, inner) -> VertexMap:
    """Vertex-level composition (outer after inner).

    Plain simplicial maps compose directly.  When maps land in subdivisions
    the outer map is first subdivided so that its action on chain names is
    simplicial; the result is a vertex map into an iterated subdivision.
    Images are flattened back to coarser vertices only when every image is a
    singleton chain.
    """
    if inner.target == outer.source:
        extended = outer
    else:
        extended = _beta_extension(outer)
        if inner.target != extended.source:
            raise ValueError("maps do not compose: target/source mismatch")
    mapping = {v: extended(inner(v)) for v in inner.source.vertices}
    composed = VertexMap.build(inner.source, extended.target, mapping)
    return flatten_vertex_map(composed)


def flatten_vertex_map(vm: VertexMap) -> VertexMap:
    """Strip one level of singleton chains from every image, repeatedly, as
    long as every image is a singleton tuple naming a coarser vertex."""
    current = vm
    while True:
        images = current.lookup
        if not images:
            return current
        if not all(isinstance(w, tuple) and len(w) == 1 for w in images.values()):
            return current
        stripped = {v: w[0] for v, w in images.items()}
        candidates = set(stripped.values())
        target = _flattening_target(current.target, candidates)
        if target is None:
            return current
        current = VertexMap.build(current.source, target, stripped)


def _flattening_target(subdivided: Complex, needed) -> Complex | None:
    """Reconstruct the complex whose subdivision the given complex is, when
    its vertex names are simplices of that coarser complex."""
    names = subdivided.vertices
    if not all(isinstance(n, tuple) for n in names):
        return None
    try:
        coarse = Complex.from_maximal(list(names))
    except Exception:
        return None
    if barycentric_subdivision(coarse).simplices >= subdivided.simplices and all(
        w in coarse.vertex_set() for w in needed
    ):
        return coarse
    return None


# ---------------------------------------------------------------------------
# star covers pulled back through several tower levels


def pullback_star_cover(
    tower: Tower,
    i: int,
    m: int,
    kind: str = "B",
    n: int | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
):
    """The level-i vertex star cover pulled back to level m through the
    bonds, indexed by the level-i vertices, with per-intersection verdicts
    when a degree is supplied: an open cover's are judged by the
    common-core rule (`common_core_verdicts`)."""
    if not 1 <= i <= m <= tower.depth():
        raise MalformedTowerError("levels out of range")
    current = (cover_B if kind == "B" else cover_O)(tower.levels[i - 1])
    for idx in range(i - 1, m - 1):
        current = pullback_cover(tower.bonds[idx], current)
    if n is None:
        return current, {}
    if kind == "B":
        nerve_status, intersections = intersection_verdicts(current, n, budgets)
        intersections = [(indices, verdict) for indices, verdict, _ in intersections]
    else:
        nerve_status, intersections = common_core_verdicts(current, n, budgets)
    if not nerve_status.is_holds:
        return current, {"status": nerve_status}
    return current, {tuple(indices): verdict for indices, verdict in intersections}


# ---------------------------------------------------------------------------
# close maps are homotopic: prisms and cover-tracked homotopies


def prism_complex(base: Complex):
    """The staircase triangulation of base x [0,1]; returns the prism, the
    bottom/top embeddings of the base vertices, and the per-cell prisms."""
    bottom = {v: ("0", v) for v in base.vertices}
    top = {v: ("1", v) for v in base.vertices}
    maximal = []
    per_cell: dict = {}
    for s in base.maximal:
        cells = []
        k = len(s)
        for i in range(k):
            prism_cell = tuple([bottom[v] for v in s[: i + 1]] + [top[v] for v in s[i:]])
            cells.append(prism_cell)
            maximal.append(prism_cell)
        per_cell[s] = cells
    prism = Complex.from_maximal(maximal)
    return prism, bottom, top, per_cell


class HomotopyResult(Record):
    status: Verdict
    prism: Complex | None
    map: PartialPLMap | None
    path_witnesses: dict  # original domain simplex -> cover index
    closeness: Verdict | None = None


def close_maps_homotopy(
    f: PartialPLMap,
    g: PartialPLMap,
    cover: IndexedCover,
    n: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> HomotopyResult:
    """A PL homotopy between cover-close maps whose tracks each stay inside a
    single cover element, built by carried extension over a prism."""
    if f.domain != g.domain or f.target != g.target:
        raise ValueError("maps must share domain and target")
    if f.domain.dimension >= n:
        return HomotopyResult(
            Verdict.inconclusive("domain dimension must stay below the extensor degree"),
            None,
            None,
            {},
        )
    closeness = are_close(f, g, cover)
    if not closeness.is_holds:
        status = closeness if closeness.is_fails else Verdict.inconclusive("maps are not certified close")
        return HomotopyResult(status, None, None, {}, closeness)
    for i in cover.indices:
        element_ae = _element_extensor_verdict(cover.element(i), n, budgets)
        if not element_ae.is_holds:
            return HomotopyResult(
                Verdict.inconclusive("cover element %s lacks an extensor certificate" % (i,)),
                None,
                None,
                {},
                closeness,
            )
    witnesses = closeness.witness
    used_f, used_g = f, g
    if witnesses and not all(s in used_f.defined_on.simplices for s in witnesses):
        # the certificate was found on the subdivided maps
        used_f, used_g = f.subdivided(), g.subdivided()
    prism, bottom, top, per_cell = prism_complex(used_f.domain)
    ends = [tuple(sorted((bottom[v] for v in s), key=vertex_key)) for s in used_f.domain.maximal]
    ends += [tuple(sorted((top[v] for v in s), key=vertex_key)) for s in used_f.domain.maximal]
    defined = Subcomplex(
        prism,
        frozenset(
            face
            for s in ends
            for face in faces(s)
        ),
    )
    images = {}
    for v in used_f.domain.vertices:
        images[bottom[v]] = used_f.image_of(v)
        images[top[v]] = used_g.image_of(v)
    seed = PartialPLMap.build(prism, defined, images, used_f.target)
    cover_elements = {}
    targets = {}
    for s in used_f.domain.maximal:
        name = s
        member_simplices = set()
        for cell in per_cell[s]:
            member_simplices.update(faces(cell))
        cover_elements[name] = Subcomplex(prism, frozenset(member_simplices))
        targets[name] = cover.element(witnesses[s])
    source_cover = IndexedCover.build(prism, "closed", cover_elements)
    result = carried_extension(seed, source_cover, targets, budgets=budgets)
    if not result.status.is_holds:
        return HomotopyResult(result.status, None, None, {}, closeness)
    path_witnesses = {s: witnesses[s] for s in used_f.domain.maximal}
    return HomotopyResult(Verdict.holds(), result.extended.domain, result.extended, path_witnesses, closeness)


def _element_extensor_verdict(element, n: int, budgets: Budgets) -> Verdict:
    """Extensor verdict for a single cover element: subcomplexes directly,
    open stars through the subcomplex induced on their cores (onto which
    the straight-line deformation retracts them)."""
    if isinstance(element, Subcomplex):
        return subcomplex_verdict(element, n, budgets)
    if isinstance(element, OpenStarSet):
        return subcomplex_verdict(induced_subcomplex(element.ambient, element.core), n, budgets)
    return Verdict.inconclusive("no extensor rule for this element representation")
