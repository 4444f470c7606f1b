"""Carriers, carried maps, and constructive extension over skeleta of
dimension at most two: the extension step of the lifts in `towers`.

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

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .complexes import (
    Complex,
    Point,
    Subcomplex,
    barycenter_point,
    convex_combination,
    face_closure,
    simplex_sort_key,
    vertex_key,
    whole_subcomplex,
)
from .connectivity import collapses_to_point
from .plmaps import PartialPLMap
from .records import Record
from .stars import IndexedCover, OpenStarSet, element_contains_hull, nerve, open_intersection
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict


class Carrier(Record, frozen=True):
    """An index-preserving assignment from a closed cover of a domain to a
    cover of the map target, sending intersections into intersections."""

    source_cover: IndexedCover  # closed cover of the domain by subcomplexes
    targets: IndexedCover  # on the map target, over the same index set

    @staticmethod
    def build(source_cover: IndexedCover, targets: dict, map_target: Complex) -> "Carrier":
        """The carrier of the given targets, checked once here: they are
        all subcomplexes or all open stars, and all live on the map
        target."""
        if not all(isinstance(e, Subcomplex) for _, e in source_cover.elements):
            raise ValueError("carrier source covers must be closed")
        if set(targets) != set(source_cover.indices):
            raise ValueError("carrier must assign a target to every index")
        if all(isinstance(e, Subcomplex) for e in targets.values()):
            kind, homes = "closed", {e.parent for e in targets.values()}
        elif all(isinstance(e, OpenStarSet) for e in targets.values()):
            kind, homes = "open", {e.ambient for e in targets.values()}
        else:
            raise ValueError("carrier mixes open and closed targets")
        if homes - {map_target}:
            raise ValueError("carrier targets must live on the map target")
        return Carrier(source_cover, IndexedCover.build(map_target, kind, targets))

    @property
    def map_target(self) -> Complex:
        return self.targets.ambient

    def target(self, index):
        return self.targets.element(index)

    def indices_covering(self, simplex) -> list:
        return [i for i, element in self.source_cover.elements if simplex in element.simplices]


def validate_carrier(carrier: Carrier, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Every index subset with intersecting sources must have intersecting
    targets; enumeration follows the source nerve with its budget.  A
    region only shrinks as the subset grows, so the maximal nerve simplices
    decide; the witness is the first empty subset in `simplex_sort_key`
    order."""
    result = nerve(carrier.source_cover, budgets)
    if not result.status.is_holds:
        return result.status
    if all(_region_for(carrier, list(m)).simplices for m in result.complex.maximal):
        return Verdict.holds()
    # some maximal subset is empty, so the scan stops at it at the latest
    empty = next(s for s in result.complex.sorted_simplices() if not _region_for(carrier, list(s)).simplices)
    return Verdict.fails(witness=list(empty), reason="target intersection empty")


def is_carried(f: PartialPLMap, carrier: Carrier) -> Verdict:
    """Per-index containment of image hulls of the covered simplices."""
    for i, element in carrier.source_cover.elements:
        for s in sorted(element.simplices & f.defined_on.simplices, key=simplex_sort_key):
            points = f.image_points(s)
            verdict = element_contains_hull(carrier.target(i), points)
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


class Region(Record):
    """The target intersection constraining one domain cell, as a set of
    simplices of the map target, `parent`.  A closed intersection holds the
    simplices of its subcomplex, an open one the simplices meeting every
    core (`stars.open_intersection`).  Every test is one rule, `spans`: the
    supports, together, span a region simplex.  The node graph of the
    fillers has the region's vertices as nodes (1-tuples) for closed
    targets and every region simplex for open ones; a node stands for its
    barycentre."""

    parent: Complex
    simplices: frozenset
    nodes: tuple  # in `simplex_sort_key` order

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    def support(self, points) -> set:
        """The union of the supports of the points."""
        return set().union(*(y.support for y in points))

    def spans(self, vertices) -> bool:
        return tuple(sorted(vertices, key=vertex_key)) in self.simplices

    def node_point(self, node, scale) -> Point:
        return barycenter_point(self.parent, node, scale)

    def entry_node(self, y: Point):
        """The node a point enters the node graph by: its support when that
        is a node (always, in an open region containing it), its least vertex
        otherwise."""
        return y.support if y.support in self.node_set else y.support[:1]

    def apex(self, pieces):
        """The first node whose join with every piece (a vertex set) spans a
        region simplex, or None: the cone point of a fan over the pieces."""
        for node in self.nodes:
            if all(self.spans(piece.union(node)) for piece in pieces):
                return node
        return None

    def path(self, start: Point, end: Point):
        """Points of a polygonal path from start to end inside the region,
        endpoints included, or None when the node graph disconnects them."""
        a, b = self.entry_node(start), self.entry_node(end)
        previous = {a: None}
        queue = [a]
        while queue:
            current = queue.pop(0)
            if current == b:
                break
            for nxt in self.nodes:
                if nxt not in previous and self.spans(set(current).union(nxt)):
                    previous[nxt] = current
                    queue.append(nxt)
        if b not in previous:
            return None
        chain = [b]
        while previous[chain[-1]] is not None:
            chain.append(previous[chain[-1]])
        chain.reverse()
        scale = start.scale
        return [start] + [self.node_point(n, scale) for n in chain] + [end]


def _region_for(carrier: Carrier, indices) -> Region:
    targets = carrier.targets
    if targets.kind == "closed":
        common = targets.intersection_subcomplex(indices).simplices
        nodes = sorted((s for s in common if len(s) == 1), key=simplex_sort_key)
        return Region(targets.ambient, common, tuple(nodes))
    joint = open_intersection(targets.ambient, [targets.element(i).core for i in indices])
    return Region(targets.ambient, frozenset(joint), tuple(joint))


# ---------------------------------------------------------------------------
# the extension engine


class ExtensionResult(Record):
    status: Verdict
    extended: PartialPLMap | None
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
    """Extend a carried partial map over the skeleta of its domain, cell by
    cell inside each cell's region.  `carried_extension` checks that the
    seed is carried; the fillers rely on it, and the exact post-check
    (`_check_extension`) refuses any extension that leaves a target."""
    domain = f.domain
    if domain.dimension > 2:
        raise ValueError("constructive extension handles domains of dimension at most 2")
    if carrier.source_cover.ambient != domain:
        raise ValueError("carrier covers a different domain")
    if f.target != carrier.map_target:
        raise ValueError("the map and the carrier targets live on different complexes")
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
        if not region.simplices:
            failed.append(cell)
            continue
        images[cell[0]] = region.node_point(region.nodes[0], scale)
    if failed:
        return ExtensionResult(
            Verdict.fails(witness=failed[0], reason="empty target intersection"),
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
        if region.spans(region.support([images[u], images[v]])):
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
        if len(boundary) == 3 and region.spans(region.support([images[w] for w in boundary])):
            new_maximal.append(cell)
            descent[cell] = cell
            continue
        pieces = _fill_two_cell(cell, boundary, images, region, fresh, scale, budgets)
        if pieces is None:
            inconclusive_cells.append(cell)
            continue
        for tri in pieces:
            tri = tuple(sorted(tri, key=vertex_key))  # the refined complex's own name for it
            new_maximal.append(tri)
            descent[tri] = cell
    if inconclusive_cells:
        return ExtensionResult(
            Verdict.inconclusive(
                "two-cell filler budget exhausted at %d cell(s)" % len(inconclusive_cells)
            ),
            None,
            descent,
            inconclusive_cells,
        )

    # maximal cells of lower dimension
    covered_edges = {e for t in domain.simplices_of_dim(2) for e in combinations(t, 2)}
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
        return ExtensionResult(check, None, descent, [check.witness])
    return ExtensionResult(Verdict.holds(), total, descent, [])


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
    if region.spans(region.support(boundary_points)):
        center = fresh.next("c")
        images[center] = convex_combination(
            boundary_points, [Fraction(1, len(boundary_points))] * len(boundary_points)
        )
        return _fan_triangles(center, boundary)
    m = len(boundary_points)
    apex = region.apex([region.support((boundary_points[j], boundary_points[(j + 1) % m])) for j in range(m)])
    if apex is not None:
        center = fresh.next("c")
        images[center] = region.node_point(apex, scale)
        return _fan_triangles(center, boundary)
    if len(region.simplices) > 60:
        # a large region that does not collapse (an open one is judged by its
        # closure): do not spend the search budget (every collapse removes
        # two simplices, so `len(closure)` steps never run out)
        closure = face_closure(region.simplices)
        if not collapses_to_point(closure, len(closure)):
            return None
    return _contract_boundary_loop(boundary, images, region, fresh, scale, budgets)


def _fan_triangles(center, ring):
    """The cone from a fresh center over a ring of distinct names."""
    return [(center, ring[j], ring[(j + 1) % len(ring)]) for j in range(len(ring))]


# ---------------------------------------------------------------------------
# bounded loop contraction for two-cells


def _contract_boundary_loop(boundary, images, region: Region, fresh: _FreshNames, scale, budgets: Budgets):
    """Build a triangulated disc by contracting the boundary loop through the
    region's node graph: a collar routes boundary images to their entry
    nodes, then a breadth-first search shrinks the node loop with backtrack
    removals and triangle shortcuts until one node cones it off, and a fan
    caps the final ring.

    Every boundary point and every consecutive pair spans a region simplex
    for a carried seed: a vertex image lies in its vertex's region, which
    sits inside the cell's (every element holding the cell holds its
    vertices); edge-path points are nodes of the edge's region joined by
    `spans`; and a defined edge's images span a target simplex lying in
    each covering target."""
    m = len(boundary)
    node_loop = tuple(region.entry_node(images[w]) for w in boundary)
    ring0 = [fresh.next("r") for _ in range(m)]
    triangles = []
    for j in range(m):
        jn = (j + 1) % m
        triangles.append((boundary[j], boundary[jn], ring0[jn]))
        triangles.append((boundary[j], ring0[j], ring0[jn]))

    moves = _loop_moves_to_cappable_state(node_loop, region, budgets.filler_steps)
    if moves is None:
        return None
    rings, loops = [ring0], [node_loop]
    for removed, after in moves:
        inner = [fresh.next("r") for _ in after]
        triangles.extend(_annulus(rings[-1], inner, removed))
        rings.append(inner)
        loops.append(after)
    cap_center = fresh.next("c")
    # the search stops at a loop with a cap apex
    images[cap_center] = region.node_point(_loop_cap_apex(loops[-1], region), scale)
    for ring, loop in zip(rings, loops):
        images.update((name, region.node_point(node, scale)) for name, node in zip(ring, loop))
    return triangles + _fan_triangles(cap_center, rings[-1])


def _loop_moves_to_cappable_state(start, region: Region, budget: int):
    """Breadth-first search over cyclic node loops; returns the winning
    moves (possibly none) as (removed positions, next loop) pairs, or None
    on exhaustion."""
    if _loop_cap_apex(start, region) is not None:
        return []
    seen = {_canonical_cycle(start)}
    frontier = [(start, [])]
    steps = 0
    while frontier:
        state, history = frontier.pop(0)
        for removed, nxt in _loop_successors(state, region):
            steps += 1
            if steps > budget:
                return None
            key = _canonical_cycle(nxt)
            if key in seen:
                continue
            seen.add(key)
            new_history = history + [(removed, nxt)]
            if _loop_cap_apex(nxt, region) is not None:
                return new_history
            frontier.append((nxt, new_history))
    return None


def _loop_cap_apex(loop, region: Region):
    """The node coning off every loop edge, making a one-fan cap valid."""
    m = len(loop)
    return region.apex([set(loop[j]).union(loop[(j + 1) % m]) for j in range(m)])


def _canonical_cycle(loop):
    rotations = [tuple(loop[i:]) + tuple(loop[:i]) for i in range(len(loop))]
    return min(rotations)


def _loop_successors(state, region: Region):
    """Length-reducing moves, as (removed positions, next loop) pairs, that
    keep the loop at three or more entries and the invariant that
    consecutive distinct entries span a region simplex: a repeated entry, a
    backtrack a b a, and a shortcut past b when a, b, c span one."""
    m = len(state)
    out = []
    if m <= 3:
        return out
    for j in range(m):
        a, b, c = state[j], state[(j + 1) % m], state[(j + 2) % m]
        if a == b:
            out.append(_drop(state, {(j + 1) % m}))
            continue
        if a == c and m >= 5:
            # removing two entries must leave a ring of at least three
            out.append(_drop(state, {(j + 1) % m, (j + 2) % m}))
        if len({a, b, c}) == 3 and region.spans(set(a).union(b, c)):
            out.append(_drop(state, {(j + 1) % m}))
    return out


def _drop(state, removed):
    return removed, tuple(x for i, x in enumerate(state) if i not in removed)


def _annulus(outer_ring, inner_ring, removed):
    """Triangles between consecutive rings; removed positions fold onto the
    previous surviving position."""
    m = len(outer_ring)
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
    for s in total.domain.maximal:
        points = total.image_points(s)
        for i in carrier.indices_covering(descent[s]):
            ok = element_contains_hull(carrier.target(i), points)
            if ok is not True:
                return Verdict.fails(
                    witness={"index": i, "simplex": s},
                    reason="refined cell leaves its carrier target",
                )
    return Verdict.holds()


def carried_extension(
    seed: PartialPLMap,
    source_cover: IndexedCover,
    targets: dict,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExtensionResult:
    """Extend a partial map over a closed source cover carried to the given
    targets: build the carrier, validate it, check that the seed is
    carried, then extend."""
    carrier = Carrier.build(source_cover, targets, seed.target)
    status = validate_carrier(carrier, budgets)
    if status.is_holds:
        status = is_carried(seed, carrier)
    if not status.is_holds:
        return ExtensionResult(status, None, {}, [])
    return extend_carried(seed, carrier, budgets)

