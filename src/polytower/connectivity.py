"""Integral simplicial homology, connectedness, elementary collapses, and
the three-valued connectivity verdicts built on them (the fundamental group
is in `pi1`).

The rule implemented by `ae_verdict` is the sound substitute for
homotopy-group vanishing: connected, plus a trivialised edge-path
presentation of the fundamental group, plus vanishing integral homology in
the intermediate degrees.  Whenever the bounded simplification cannot decide
the fundamental group the verdict is inconclusive, never a guess.  A
subcomplex that collapses to a vertex is contractible, so at every degree it
is decided by elementary collapses alone, before any of that is built.
"""
from __future__ import annotations

from collections import Counter, deque

from . import snf
from .complexes import (
    Complex,
    Subcomplex,
    simplex_sort_key,
    vertex_key,
)
from .records import Record
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict, conjoin


# ---------------------------------------------------------------------------
# chain complexes and homology


def boundary_columns(complex_: Complex, k: int) -> list:
    """Sparse columns {face index: sign} of the boundary map from k-chains to
    (k-1)-chains with the fixed vertex-order orientation; each degree's basis
    is the complex's own `simplex_sort_key` order of its simplices."""
    simplices = complex_.simplices_of_dim(k)
    if k <= 0 or not simplices:
        return [{} for _ in simplices]
    face_index = {s: i for i, s in enumerate(complex_.simplices_of_dim(k - 1))}
    return [
        {face_index[s[:drop] + s[drop + 1 :]]: 1 - 2 * (drop & 1) for drop in range(len(s))}
        for s in simplices
    ]


class HomologySummary(Record, frozen=True):
    """H_k read off the ranks of the boundary maps around degree k.

    With n_k simplices of degree k, the cycles Z_k have rank n_k - rank ∂_k
    and the boundaries B_k rank ∂_{k+1}, so betti = n_k - rank ∂_k -
    rank ∂_{k+1}.  C_k / Z_k embeds in C_{k-1}, so it is free and Z_k is a
    direct summand of C_k: the invariant factors of ∂_{k+1} into C_k are
    those into Z_k, and the ones above 1 are the torsion of Z_k / B_k.
    """

    degree: int
    betti: int
    torsion: tuple
    boundary_rank: int  # rank of ∂_k

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def to_obj(self) -> dict:
        return {
            "degree": self.degree,
            "betti": self.betti,
            "torsion": list(self.torsion),
        }


def homology_run(complex_: Complex, degrees: range, reduced: bool = False) -> list:
    """The invariants of H_k for each k of a run of consecutive degrees.
    Each boundary map ∂_j of the run, ∂_lo to ∂_{hi+1}, is built and
    eliminated once, recording no transform: its pivots give rank ∂_j for
    degree j and the invariant factors for degree j - 1.  Reduced homology
    drops one from the betti number of a non-empty complex in degree 0."""
    if not degrees:
        return []
    if degrees[0] < 0:
        raise ValueError("homology degree must be non-negative")
    factors = {
        j: [d for _, _, d in snf.eliminate(boundary_columns(complex_, j), len(complex_.simplices_of_dim(j - 1))).pivots]
        for j in range(degrees[0], degrees[-1] + 2)
    }
    out = []
    for k in degrees:
        rank, top = len(factors[k]), factors[k + 1]
        betti = len(complex_.simplices_of_dim(k)) - rank - len(top)
        if reduced and k == 0 and complex_.simplices:
            betti -= 1
        out.append(HomologySummary(degree=k, betti=betti, torsion=tuple(d for d in top if d > 1), boundary_rank=rank))
    return out


def homology_coordinates(complex_: Complex, k: int) -> HomologySummary:
    """The invariants of H_k from two eliminations that record no transform."""
    return homology_run(complex_, range(k, k + 1))[0]


def homology(complex_: Complex, k: int, reduced: bool = False) -> HomologySummary:
    """Exact betti number and torsion coefficients in one degree."""
    return homology_run(complex_, range(k, k + 1), reduced)[0]


# ---------------------------------------------------------------------------
# connectedness


def _adjacency(complex_: Complex) -> dict:
    """Each vertex's neighbours in `vertex_key` order: the edges come sorted
    by the ranks of their ends, so a vertex meets its lesser neighbours, in
    order, before its greater ones."""
    adjacency: dict = {v: [] for v in complex_.vertices}
    for u, v in complex_.edges():
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def _search(adjacency: dict, root) -> tuple:
    """Breadth-first search from `root`, level by level and each level in
    `vertex_key` order: (the vertices reached, the edges of its tree)."""
    seen = {root}
    tree = set()
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    tree.add(tuple(sorted((u, w), key=vertex_key)))
                    nxt.append(w)
        nxt.sort(key=vertex_key)
        frontier = nxt
    return seen, tree


def components(complex_: Complex) -> list:
    """Vertex sets of connected components, each sorted, listed by their
    least representative."""
    adjacency = _adjacency(complex_)
    out: list = []
    placed: set = set()
    for v in complex_.vertices:
        if v not in placed:
            reached, _ = _search(adjacency, v)
            placed |= reached
            out.append(sorted(reached, key=vertex_key))
    return out


def is_connected(complex_: Complex) -> Verdict:
    comps = components(complex_)
    if not comps:
        return Verdict.fails(witness="empty", reason="empty complex")
    if len(comps) == 1:
        return Verdict.holds()
    return Verdict.fails(
        witness=[comps[0][0], comps[1][0]],
        reason="%d connected components" % len(comps),
    )


# ---------------------------------------------------------------------------
# elementary collapses


def collapses_to_point(simplices, budget: int) -> bool:
    """Whether at most `budget` elementary collapses reduce a face-closed set
    of canonical simplices to a single vertex.

    A free face has exactly one coface one dimension up, which is then
    maximal; removing the pair is a deformation retraction, so reaching a
    vertex proves the set contractible.  Free faces are taken in
    `simplex_sort_key` order first and then in the order the collapses free
    them, so the outcome does not depend on hashing.  Greedy collapse can
    stall on a contractible set (the dunce hat), so False proves nothing.

    Every collapse removes two simplices, so reaching a vertex takes exactly
    size // 2 steps.  Dropping a vertex a sends the simplices through a one
    to one onto the others and the empty face, so a lies in at most
    (size + 1) / 2 of them, and in exactly that many when the set is a cone
    on a (with every σ ∌ a it holds σ ∪ {a}).  Pairing σ with σ ∪ {a}
    collapses such a cone, the closed simplex among them, without a search.
    """
    size = len(simplices)
    if size % 2 and 2 * max(Counter(v for s in simplices for v in s).values()) == size + 1:
        return size // 2 <= budget
    cofaces: dict = {}  # facet -> its cofaces still present
    for s in simplices:
        if len(s) > 1:
            for k in range(len(s)):
                facet = s[:k] + s[k + 1 :]
                over = cofaces.get(facet)
                if over is None:
                    cofaces[facet] = {s}
                else:
                    over.add(s)
    # coface sets only shrink, so a face joins the queue at most once, when
    # its count reaches one; it is stale when that coface left with another
    free = deque(sorted((f for f, over in cofaces.items() if len(over) == 1), key=simplex_sort_key))
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


# ---------------------------------------------------------------------------
# k-connectedness and extensor verdicts


def check_degree(n: int) -> None:
    """The extensor degree n is at least 1; callers check it before any work."""
    if n < 1:
        raise ValueError("n must be at least 1")


def ae_verdict(complex_: Complex, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Extensor verdict for a finite polyhedron in dimension n.

    A finite polyhedron is a complete metric neighbourhood extensor in every
    dimension, so being an absolute extensor in dimension n reduces to
    k-connectedness for k < n, certified by the rule: connected,
    trivialised fundamental group, and vanishing homology in degrees 2..n-1.
    """
    check_degree(n)
    checks = [is_connected(complex_)]
    if checks[0].is_fails:
        return checks[0]
    if n >= 2:
        # most pieces collapse before they get here, so a process loads
        # the π1 code only when one does not
        from .pi1 import pi1_verdict

        checks.append(pi1_verdict(complex_, budgets=budgets))
    for summary in homology_run(complex_, range(2, n)):
        if summary.is_trivial():
            checks.append(Verdict.holds())
        else:
            k = summary.degree
            checks.append(
                Verdict.fails(
                    witness={"degree": k, "betti": summary.betti, "torsion": list(summary.torsion)},
                    reason="non-trivial homology in degree %d" % k,
                )
            )
    return conjoin(checks)


def subcomplex_verdict(sub: Subcomplex, n: int, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """`ae_verdict` of the subcomplex; one that collapses to a vertex within
    the π1 step budget is contractible and holds at every n with no complex
    built, and anything else takes the full path with its full budget."""
    if collapses_to_point(sub.simplices, budgets.pi1_steps):
        return Verdict.holds()
    return ae_verdict(sub.as_complex(), n, budgets)


def __getattr__(name):
    # `bench/trace_cli.py` looks these up here, where they lived before the
    # π1 code moved to `pi1`; a process loads `pi1` when it asks for them
    if name in ("pi1_verdict", "tietze_simplify"):
        from . import pi1

        return getattr(pi1, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
