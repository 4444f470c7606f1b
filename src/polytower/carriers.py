"""Carriers, carried maps, and constructive extension over skeleta of
dimension at most two.

The extension engine fills cells in dimension order.  A vertex takes the
canonically least point of its required target intersection; an edge is
filled affinely when its endpoint images share a closed simplex and by a
shortest vertex path otherwise; a two-cell is filled affinely, by a fan to a
local cone apex, or by a bounded breadth-first contraction of its boundary
loop inside the target intersection.  Every refinement of the domain is
recorded, every produced cell is re-checked against its carrier, and a
filler that runs out of budget reports the cell instead of guessing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import (
    Complex,
    Point,
    Subcomplex,
    barycentric_subdivision,
    convex_combination,
    faces,
    flatten_point,
    lift_to_subdivision,
    make_point,
    simplex_sort_key,
    vertex_key,
    vertex_point,
    whole_subcomplex,
)
from .plmaps import PartialPLMap
from .stars import (
    IndexedCover,
    OpenStarSet,
    element_contains_hull,
)
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict


@dataclass(frozen=True)
class Carrier:
    """An index-preserving assignment from a closed cover of a domain to
    subsets of a target, sending intersections into intersections."""

    source_cover: IndexedCover  # closed cover of the domain by subcomplexes
    targets: tuple  # (index, element) pairs over the same index set
    pl_target: Complex  # the complex PL map images live on
    target_base: Complex | None = None  # set when targets live in its subdivision

    @staticmethod
    def build(source_cover: IndexedCover, targets: dict, pl_target: Complex, target_base=None) -> "Carrier":
        if set(targets) != set(source_cover.indices):
            raise ValueError("carrier must assign a target to every index")
        pairs = tuple(sorted(targets.items(), key=lambda kv: vertex_key(kv[0])))
        return Carrier(source_cover, pairs, pl_target, target_base)

    def target(self, index):
        for i, e in self.targets:
            if i == index:
                return e
        raise ValueError("unknown carrier index %r" % (index,))

    def indices_covering(self, simplex) -> list:
        out = []
        for i, element in self.source_cover.elements:
            if not isinstance(element, Subcomplex):
                raise ValueError("carrier source covers must be closed")
            if simplex in element.simplices:
                out.append(i)
        return out


def validate_carrier(carrier: Carrier, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Every index subset with intersecting sources must have intersecting
    targets; enumeration follows the source nerve with its budget."""
    from .stars import nerve

    result = nerve(carrier.source_cover, budgets)
    if not result.status.is_holds:
        return result.status
    for subset in sorted(result.complex.simplices, key=simplex_sort_key):
        region = _region_for(carrier, list(subset))
        if region.is_empty():
            return Verdict.fails(witness=list(subset), reason="target intersection empty")
    return Verdict.holds()


def is_carried(f: PartialPLMap, carrier: Carrier) -> Verdict:
    """Per-index containment of image hulls of the covered simplices."""
    for i, element in carrier.source_cover.elements:
        for s in sorted(element.simplices & f.defined_on.simplices, key=simplex_sort_key):
            points = f.image_points(s)
            verdict = element_contains_hull(carrier.target(i), points, carrier.target_base)
            if verdict is True:
                continue
            if verdict is False:
                return Verdict.fails(witness={"index": i, "simplex": s}, reason="image leaves the carrier target")
            return Verdict.inconclusive(
                "hull containment undecided for index %r" % (i,)
            )
    return Verdict.holds()


# ---------------------------------------------------------------------------
# regions: intersections of carrier targets


@dataclass
class Region:
    """The target intersection constraining one domain cell."""

    kind: str  # "closed" | "open"
    pl_target: Complex
    sub: Subcomplex | None = None  # closed: intersection subcomplex (parent P)
    lifted: bool = False  # closed: True when P is the subdivision of pl_target
    cores: list = field(default_factory=list)  # open: core vertex sets
    ambient: Complex | None = None  # open: the pl_target itself

    def is_empty(self) -> bool:
        if self.kind == "closed":
            return not self.sub.simplices
        return self.first_witness() is None

    # -- point conversions

    def _to_parent(self, y: Point) -> Point:
        if self.kind != "closed" or not self.lifted:
            return y
        return lift_to_subdivision(y, self.sub.parent)

    def _node_point(self, node, scale) -> Point:
        if self.kind == "closed":
            p = vertex_point(self.sub.parent, node, scale)
            return flatten_point(p, self.pl_target) if self.lifted else p
        share = Fraction(1, len(node))
        return make_point(self.pl_target, {v: share for v in node}, scale)

    # -- membership

    def contains_point(self, y: Point) -> bool:
        if self.kind == "closed":
            return self._to_parent(y).support in self.sub.simplices
        return all(set(y.support) & core for core in self.cores)

    def hull_inside(self, points) -> bool:
        """Certified containment of a hull: for closed regions the lifted
        supports must span one simplex of the intersection; for open regions
        corner membership is exact."""
        if self.kind == "closed":
            union = set()
            for y in points:
                union.update(self._to_parent(y).support)
            return tuple(sorted(union, key=vertex_key)) in self.sub.simplices
        return all(self.contains_point(y) for y in points)

    # -- canonical choices

    def canonical_point(self, scale) -> Point:
        if self.kind == "closed":
            v = min(self.sub.vertex_set(), key=vertex_key)
            return self._node_point(v, scale)
        return self._node_point(self.first_witness(), scale)

    def first_witness(self):
        if self.kind != "open":
            raise ValueError("witness simplices exist for open regions only")
        for s in sorted(self.ambient.simplices, key=simplex_sort_key):
            if all(set(s) & core for core in self.cores):
                return s
        return None

    # -- the node graph used by the one-dimensional filler

    def nodes(self) -> list:
        if self.kind == "closed":
            return sorted(self.sub.vertex_set(), key=vertex_key)
        return sorted(
            (s for s in self.ambient.simplices if all(set(s) & core for core in self.cores)),
            key=simplex_sort_key,
        )

    def adjacent(self, a, b) -> bool:
        if self.kind == "closed":
            return tuple(sorted((a, b), key=vertex_key)) in self.sub.simplices
        merged = set(a) | set(b)
        return tuple(sorted(merged, key=vertex_key)) in self.ambient.simplices

    def entry_node(self, y: Point):
        if self.kind == "closed":
            support = self._to_parent(y).support
            return min(support, key=vertex_key)
        return y.support

    def path(self, start: Point, end: Point):
        """Points of a polygonal path from start to end inside the region,
        endpoints included, or None when the node graph disconnects them."""
        a, b = self.entry_node(start), self.entry_node(end)
        nodes = self.nodes()
        previous = {a: None}
        queue = [a]
        while queue:
            current = queue.pop(0)
            if current == b:
                break
            for nxt in nodes:
                if nxt not in previous and nxt != current and self.adjacent(current, nxt):
                    previous[nxt] = current
                    queue.append(nxt)
        if b not in previous:
            return None
        chain = [b]
        while previous[chain[-1]] is not None:
            chain.append(previous[chain[-1]])
        chain.reverse()
        scale = start.scale
        points = [start] + [self._node_point(n, scale) for n in chain] + [end]
        return points

    # -- apex detection for the fan filler

    def fan_apex(self, boundary_points: list):
        """A vertex (closed) or witness simplex (open) whose join with every
        boundary segment stays in the region, canonically least, or None."""
        segments = []
        m = len(boundary_points)
        for j in range(m):
            segments.append((boundary_points[j], boundary_points[(j + 1) % m]))
        if self.kind == "closed":
            lifted = [
                (self._to_parent(p).support, self._to_parent(q).support) for p, q in segments
            ]
            for candidate in self.nodes():
                ok = True
                for sp, sq in lifted:
                    joined = tuple(sorted(set(sp) | set(sq) | {candidate}, key=vertex_key))
                    if joined not in self.sub.simplices:
                        ok = False
                        break
                if ok:
                    return candidate
            return None
        for candidate in self.nodes():
            ok = True
            for p, q in segments:
                joined = tuple(
                    sorted(set(p.support) | set(q.support) | set(candidate), key=vertex_key)
                )
                if joined not in self.ambient.simplices:
                    ok = False
                    break
            if ok:
                return candidate
        return None


def _region_for(carrier: Carrier, indices) -> Region:
    elements = [carrier.target(i) for i in indices]
    if all(isinstance(e, Subcomplex) for e in elements):
        parents = {e.parent for e in elements}
        if len(parents) != 1:
            raise ValueError("carrier targets live on different complexes")
        parent = next(iter(parents))
        common = set(elements[0].simplices)
        for e in elements[1:]:
            common &= e.simplices
        lifted = parent != carrier.pl_target
        if lifted and parent != barycentric_subdivision(carrier.pl_target):
            raise ValueError("carrier targets must live on the map target or its subdivision")
        return Region(
            kind="closed",
            pl_target=carrier.pl_target,
            sub=Subcomplex(parent, frozenset(common)),
            lifted=lifted,
        )
    if all(isinstance(e, OpenStarSet) for e in elements):
        ambients = {e.ambient for e in elements}
        if ambients != {carrier.pl_target}:
            raise ValueError("open targets must live on the map target")
        return Region(
            kind="open",
            pl_target=carrier.pl_target,
            cores=[e.core.vertex_set() for e in elements],
            ambient=carrier.pl_target,
        )
    raise ValueError("carrier mixes open and closed targets")


# ---------------------------------------------------------------------------
# collapsibility (used to order two-cell filler effort)


def greedy_free_face_collapse(sub: Subcomplex) -> bool:
    """Greedy elementary collapses; True when a single vertex remains."""
    simplices = set(sub.simplices)
    changed = True
    while changed:
        changed = False
        cofaces: dict = {}
        for s in simplices:
            for t in simplices:
                if len(t) == len(s) + 1 and set(s) < set(t):
                    cofaces.setdefault(s, []).append(t)
        for s in sorted(simplices, key=simplex_sort_key):
            over = cofaces.get(s, [])
            if len(over) == 1:
                bigger = over[0]
                has_even_bigger = any(
                    len(t) == len(bigger) + 1 and set(bigger) < set(t) for t in simplices
                )
                if not has_even_bigger:
                    simplices.discard(s)
                    simplices.discard(bigger)
                    changed = True
                    break
    return len(simplices) == 1


# ---------------------------------------------------------------------------
# the extension engine


@dataclass
class ExtensionResult:
    status: Verdict
    extended: PartialPLMap | None
    refined_domain: Complex | None
    descent: dict  # refined maximal simplex -> original cell
    failed_cells: list


class _FreshNames:
    def __init__(self, taken):
        self.taken = set(taken)
        self.counter = 0

    def next(self, tag: str) -> str:
        while True:
            name = "~%s%d" % (tag, self.counter)
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def extend_carried(
    f: PartialPLMap,
    carrier: Carrier,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExtensionResult:
    domain = f.domain
    if domain.dimension > 2:
        raise ValueError("constructive extension handles domains of dimension at most 2")
    if carrier.source_cover.ambient != domain:
        raise ValueError("carrier covers a different domain")
    defined = f.defined_on.simplices
    images = {v: p for v, p in f.images}
    scale = f.scale
    fresh = _FreshNames(domain.vertices)
    region_cache: dict = {}

    def region_of(cell) -> Region:
        key = tuple(sorted(carrier.indices_covering(cell), key=vertex_key))
        if not key:
            raise ValueError("domain cell %r is not covered" % (cell,))
        if key not in region_cache:
            region_cache[key] = _region_for(carrier, list(key))
        return region_cache[key]

    failed: list = []

    # dimension 0
    for cell in domain.simplices_of_dim(0):
        if cell in defined:
            continue
        region = region_of(cell)
        if region.is_empty():
            failed.append(cell)
            continue
        images[cell[0]] = region.canonical_point(scale)
    if failed:
        return ExtensionResult(
            Verdict.fails(witness=failed[0], reason="empty target intersection"),
            None,
            None,
            {},
            failed,
        )

    # dimension 1: edge_chains[edge] lists the domain vertices along the edge
    edge_chains: dict = {}
    for cell in domain.simplices_of_dim(1):
        if cell in defined:
            edge_chains[cell] = list(cell)
            continue
        region = region_of(cell)
        u, v = cell
        if region.hull_inside([images[u], images[v]]):
            edge_chains[cell] = [u, v]
            continue
        path_points = region.path(images[u], images[v])
        if path_points is None:
            failed.append(cell)
            continue
        path_points = _prune_path(path_points)
        chain = [u]
        for point in path_points[1:-1]:
            name = fresh.next("e")
            images[name] = point
            chain.append(name)
        chain.append(v)
        edge_chains[cell] = chain
    if failed:
        return ExtensionResult(
            Verdict.inconclusive("edge fillers found no path"),
            None,
            None,
            {},
            failed,
        )

    # dimension 2
    new_maximal: list = []
    descent: dict = {}
    inconclusive_cells: list = []
    for cell in domain.simplices_of_dim(2):
        if cell in defined:
            new_maximal.append(cell)
            descent[cell] = cell
            continue
        region = region_of(cell)
        a, b, c = cell
        boundary = (
            edge_chains[(a, b)][:-1]
            + edge_chains[(b, c)][:-1]
            + list(reversed(edge_chains[(a, c)]))[:-1]
        )
        if len(boundary) == 3 and region.hull_inside([images[w] for w in boundary]):
            new_maximal.append(cell)
            descent[cell] = cell
            continue
        pieces = _fill_two_cell(cell, boundary, images, region, fresh, scale, budgets)
        if pieces is None:
            inconclusive_cells.append(cell)
            continue
        for tri in pieces:
            new_maximal.append(tri)
            descent[tri] = cell
    if inconclusive_cells:
        return ExtensionResult(
            Verdict.inconclusive(
                "two-cell filler budget exhausted at %d cell(s)" % len(inconclusive_cells)
            ),
            None,
            None,
            descent,
            inconclusive_cells,
        )

    # maximal cells of lower dimension
    covered_edges = {tuple(sorted(e, key=vertex_key)) for t in domain.simplices_of_dim(2) for e in _edges_of(t)}
    for cell in domain.simplices_of_dim(1):
        if cell in covered_edges:
            continue
        chain = edge_chains[cell]
        for x, y in zip(chain, chain[1:]):
            seg = tuple(sorted((x, y), key=vertex_key))
            new_maximal.append(seg)
            descent[seg] = cell
    in_edges = {v for e in domain.simplices_of_dim(1) for v in e}
    for cell in domain.simplices_of_dim(0):
        if cell[0] not in in_edges:
            new_maximal.append(cell)
            descent[cell] = cell

    refined = Complex.from_maximal(new_maximal)
    used = {v for s in refined.simplices for v in s}
    total = PartialPLMap.build(
        refined,
        whole_subcomplex(refined),
        {v: p for v, p in images.items() if v in used},
        f.target,
    )
    check = _check_extension(total, carrier, descent)
    if not check.is_holds:
        return ExtensionResult(check, None, None, descent, [check.witness])
    return ExtensionResult(Verdict.holds(), total, refined, descent, [])


def _edges_of(simplex):
    n = len(simplex)
    for i in range(n):
        for j in range(i + 1, n):
            yield (simplex[i], simplex[j])


def _prune_path(points):
    """Drop consecutive duplicates (same coordinates)."""
    out = [points[0]]
    for p in points[1:]:
        if p.coords != out[-1].coords:
            out.append(p)
    return out


def _fill_two_cell(cell, boundary, images, region: Region, fresh: _FreshNames, scale, budgets: Budgets):
    boundary_points = [images[w] for w in boundary]
    # fan from the centroid when everything fits one simplex
    if region.hull_inside(boundary_points):
        center = fresh.next("c")
        images[center] = convex_combination(
            boundary_points, [Fraction(1, len(boundary_points))] * len(boundary_points)
        )
        return _fan_triangles(center, boundary)
    apex = region.fan_apex(boundary_points)
    if apex is not None:
        center = fresh.next("c")
        images[center] = region._node_point(apex, scale)
        return _fan_triangles(center, boundary)
    if region.kind != "closed":
        return None
    if not greedy_free_face_collapse(region.sub) and len(region.sub.simplices) > 60:
        # a large non-collapsible region: do not spend the search budget
        return None
    return _contract_boundary_loop(boundary, images, region, fresh, scale, budgets)


def _fan_triangles(center, boundary):
    out = []
    m = len(boundary)
    for j in range(m):
        a, b = boundary[j], boundary[(j + 1) % m]
        if a != b and center not in (a, b):
            out.append((center, a, b))
    return out


# ---------------------------------------------------------------------------
# bounded loop contraction for two-cells in closed regions


def _contract_boundary_loop(boundary, images, region: Region, fresh: _FreshNames, scale, budgets: Budgets):
    """Build a triangulated disc by contracting the boundary loop through the
    region's one-skeleton: a collar routes boundary images to region
    vertices, then a breadth-first search shrinks the vertex loop with
    backtrack removals and triangle shortcuts until its vertex set spans a
    region simplex, and a fan caps the final ring."""
    m = len(boundary)
    node_loop = []
    for w in boundary:
        y = images[w]
        if not region.contains_point(y):
            return None
        node_loop.append(region.entry_node(y))
    ring0 = [fresh.next("r") for _ in range(m)]
    triangles = []
    for j in range(m):
        jn = (j + 1) % m
        if not region.hull_inside([images[boundary[j]], images[boundary[jn]]]):
            return None
        triangles.append((boundary[j], boundary[jn], ring0[jn]))
        triangles.append((boundary[j], ring0[j], ring0[jn]))

    moves = _loop_moves_to_cappable_state(tuple(node_loop), region, budgets.filler_steps)
    if moves is None:
        return None
    rings = [ring0]
    loops = [list(node_loop)]
    for _move, _before, after in moves:
        rings.append([fresh.next("r") for _ in after])
        loops.append(list(after))
    for layer, move in enumerate(moves):
        triangles.extend(_annulus(rings[layer], rings[layer + 1], move))

    final_ring, final_loop = rings[-1], loops[-1]
    apex = _loop_cap_apex(tuple(final_loop), region)
    if apex is None:
        return None
    cap_center = fresh.next("c")
    images[cap_center] = region._node_point(apex, scale)
    for j in range(len(final_ring)):
        a, b = final_ring[j], final_ring[(j + 1) % len(final_ring)]
        triangles.append((cap_center, a, b))
    for ring, loop in zip(rings, loops):
        for name, node in zip(ring, loop):
            if name not in images:
                images[name] = region._node_point(node, scale)
    return triangles


def _loop_moves_to_cappable_state(start, region: Region, budget: int):
    """Breadth-first search over cyclic vertex loops; returns the winning
    move history (possibly empty) or None on exhaustion."""
    if _loop_cap_apex(start, region) is not None:
        return []
    seen = {_canonical_cycle(start)}
    frontier = [(start, [])]
    steps = 0
    while frontier:
        state, history = frontier.pop(0)
        for move, nxt in _loop_successors(state, region):
            steps += 1
            if steps > budget:
                return None
            key = _canonical_cycle(nxt)
            if key in seen:
                continue
            seen.add(key)
            new_history = history + [(move, state, nxt)]
            if _loop_cap_apex(nxt, region) is not None:
                return new_history
            frontier.append((nxt, new_history))
    return None


def _loop_cap_apex(loop, region: Region):
    """The canonically least region vertex whose join with every loop edge
    stays in the region, making a one-fan cap valid; None when there is
    none."""
    m = len(loop)
    for candidate in region.nodes():
        ok = True
        for j in range(m):
            joined = tuple(sorted({loop[j], loop[(j + 1) % m], candidate}, key=vertex_key))
            if joined not in region.sub.simplices:
                ok = False
                break
        if ok:
            return candidate
    return None


def _canonical_cycle(loop):
    rotations = [tuple(loop[i:]) + tuple(loop[:i]) for i in range(len(loop))]
    return min(rotations)


def _loop_successors(state, region: Region):
    """Length-reducing moves keeping the loop at three or more entries and
    the invariant that consecutive distinct entries span a region edge."""
    m = len(state)
    out = []
    if m <= 3:
        return out
    for j in range(m):
        a, b, c = state[j], state[(j + 1) % m], state[(j + 2) % m]
        if a == b:
            out.append(((("dup"), j), _drop(state, (j + 1) % m)))
            continue
        if a == c and m >= 5:
            # removing two entries must leave a ring of at least three
            out.append((("backtrack", j), _drop_pair(state, (j + 1) % m, (j + 2) % m)))
        tri = tuple(sorted({a, b, c}, key=vertex_key))
        if len(tri) == 3 and tri in region.sub.simplices:
            out.append((("shortcut", j), _drop(state, (j + 1) % m)))
    return out


def _drop(state, idx):
    return tuple(x for i, x in enumerate(state) if i != idx)


def _drop_pair(state, i1, i2):
    return tuple(x for i, x in enumerate(state) if i not in (i1, i2))


def _annulus(outer_ring, inner_ring, move):
    """Triangles between consecutive rings; removed positions fold onto the
    previous surviving position."""
    (move_kind, j), before, _after = move
    m = len(outer_ring)
    if move_kind in ("dup", "shortcut"):
        removed = {(j + 1) % m}
    elif move_kind == "backtrack":
        removed = {(j + 1) % m, (j + 2) % m}
    else:
        raise AssertionError("unknown move %r" % (move_kind,))
    align = _fold_alignment(m, removed)
    triangles = []
    for idx in range(m):
        nxt = (idx + 1) % m
        a, b = outer_ring[idx], outer_ring[nxt]
        ia, ib = inner_ring[align[idx]], inner_ring[align[nxt]]
        triangles.append((a, b, ib))
        if ia != ib:
            triangles.append((a, ia, ib))
    return triangles


def _fold_alignment(m, removed):
    survivors = [i for i in range(m) if i not in removed]
    inner_index = {pos: rank for rank, pos in enumerate(survivors)}
    align = []
    for idx in range(m):
        if idx in inner_index:
            align.append(inner_index[idx])
        else:
            k = (idx - 1) % m
            while k not in inner_index:
                k = (k - 1) % m
            align.append(inner_index[k])
    return align


def _check_extension(total: PartialPLMap, carrier: Carrier, descent: dict) -> Verdict:
    """Exact post-check: every refined simplex must land in the targets of
    every cover element containing its originating cell."""
    for s in sorted(total.domain.maximal, key=simplex_sort_key):
        origin = descent.get(s)
        if origin is None:
            continue
        points = total.image_points(s)
        for i in carrier.indices_covering(origin):
            ok = element_contains_hull(carrier.target(i), points, carrier.target_base)
            if ok is not True:
                return Verdict.fails(
                    witness={"index": i, "simplex": s},
                    reason="refined cell leaves its carrier target",
                )
    return Verdict.holds()


# ---------------------------------------------------------------------------
# prisms and cover-tracked homotopies


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


@dataclass
class HomotopyResult:
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
    from .connectivity import subcomplex_verdict
    from .stars import are_close

    if f.domain != g.domain or f.target != g.target:
        raise ValueError("maps must share domain and target")
    if f.domain.dimension >= n:
        return HomotopyResult(
            Verdict.inconclusive("domain dimension must stay below the extensor degree"),
            None,
            None,
            {},
        )
    closeness = are_close(f, g, cover, allow_subdivision=True)
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
    source_cover = IndexedCover.build(prism, "closed", cover_elements, check=False)
    carrier = Carrier.build(source_cover, targets, used_f.target, cover.base)
    valid = validate_carrier(carrier, budgets)
    if not valid.is_holds:
        return HomotopyResult(valid, None, None, {}, closeness)
    carried = is_carried(seed, carrier)
    if not carried.is_holds:
        return HomotopyResult(carried, None, None, {}, closeness)
    result = extend_carried(seed, carrier, budgets)
    if not result.status.is_holds:
        return HomotopyResult(result.status, result.refined_domain, result.extended, {}, closeness)
    path_witnesses = {s: witnesses[s] for s in used_f.domain.maximal}
    return HomotopyResult(Verdict.holds(), result.refined_domain, result.extended, path_witnesses, closeness)


def _element_extensor_verdict(element, n: int, budgets: Budgets) -> Verdict:
    """Extensor verdict for a single cover element: subcomplexes directly,
    open stars through their full cores (onto which the straight-line
    deformation retracts them)."""
    from .complexes import is_full_subcomplex
    from .connectivity import subcomplex_verdict

    if isinstance(element, Subcomplex):
        return subcomplex_verdict(element, n, budgets)
    if isinstance(element, OpenStarSet):
        if not is_full_subcomplex(element.core):
            return Verdict.inconclusive("open star core is not full")
        return subcomplex_verdict(element.core, n, budgets)
    return Verdict.inconclusive("no extensor rule for this element representation")
