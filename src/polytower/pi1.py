"""The fundamental group of a connected complex: the edge-path
presentation over a breadth-first spanning tree, bounded Tietze rewriting,
and the three-valued triviality verdict read off them.

`connectivity.ae_verdict` calls `pi1_verdict` only for a piece that does not
collapse to a vertex, so most processes never load this module.
"""
from __future__ import annotations

from .complexes import Complex
from .connectivity import _adjacency, _search, homology
from .records import Record
from .verdicts import DEFAULT_BUDGETS, Budgets, Verdict


class Presentation(Record):
    """Generators are the non-tree edges of a spanning tree of the
    1-skeleton; one relator per triangle."""

    generators: list  # list of edges (u, v)
    relators: list  # list of tuples of signed generator indices (1-based)

    def is_empty(self) -> bool:
        return not self.generators


def pi1_presentation(complex_: Complex) -> Presentation:
    """The edge-path presentation of a connected complex at its least
    vertex, over the breadth-first tree of `_search`."""
    if not complex_.vertices:
        raise ValueError("empty complex has no fundamental group")
    reached, tree = _search(_adjacency(complex_), complex_.vertices[0])
    if len(reached) != len(complex_.vertices):
        raise ValueError("complex is not connected")
    generators = [edge for edge in complex_.edges() if edge not in tree]  # in `simplex_sort_key` order
    index = {edge: g for g, edge in enumerate(generators, 1)}
    # each triangle a < b < c read along a -> b -> c -> a, tree edges dropped
    relators = [
        tuple(x for x in (index.get((a, b), 0), index.get((b, c), 0), -index.get((a, c), 0)) if x)
        for a, b, c in complex_.simplices_of_dim(2)
    ]
    return Presentation(generators, relators)


def _free_reduce(word: tuple) -> tuple:
    out: list = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    # cyclic reduction
    while len(out) >= 2 and out[0] == -out[-1]:
        out = out[1:-1]
    return tuple(out)


def _substitute(word: tuple, gen: int, replacement: tuple) -> tuple:
    out: list = []
    for x in word:
        if x == gen:
            out.extend(replacement)
        elif x == -gen:
            out.extend(-y for y in reversed(replacement))
        else:
            out.append(x)
    return tuple(out)


def tietze_simplify(presentation: Presentation, budget: int) -> tuple:
    """Bounded rewriting; returns (simplified presentation, steps used,
    exhausted flag).  Every move is a Tietze transformation, so the group is
    preserved and an emptied presentation certifies triviality."""
    gens = set(range(1, len(presentation.generators) + 1))
    relators = [_free_reduce(w) for w in presentation.relators]
    steps = 0

    def spend(n=1):
        nonlocal steps
        steps += n
        return steps <= budget

    changed = True
    while changed and steps <= budget:
        changed = False
        relators = [w for w in (_free_reduce(w) for w in relators) if w]
        relators.sort(key=lambda w: (len(w), w))
        # kill generators forced trivial by length-1 relators
        for w in relators:
            if len(w) == 1:
                g = abs(w[0])
                if not spend():
                    break
                relators = [_free_reduce(_substitute(r, g, ())) for r in relators]
                relators = [r for r in relators if r]
                gens.discard(g)
                changed = True
                break
        if changed:
            continue
        # replace a generator equated to another by a length-2 relator
        for w in relators:
            if len(w) == 2 and abs(w[0]) != abs(w[1]):
                # relator first*second = 1 with distinct generators:
                # solve for the first one
                g = abs(w[0])
                first, second = w
                if first < 0:
                    # (-g) * y = 1  =>  g = y
                    replacement = (second,)
                else:
                    # g * y = 1  =>  g = y^-1
                    replacement = (-second,)
                if not spend():
                    break
                relators = [
                    _free_reduce(_substitute(r, g, replacement)) for r in relators if r is not w
                ]
                relators = [r for r in relators if r]
                gens.discard(g)
                changed = True
                break
        if changed:
            continue
        # a generator occurring exactly once in exactly one relator can be
        # solved for and removed together with that relator
        occurrence: dict = {}
        for i, w in enumerate(relators):
            for x in w:
                occurrence.setdefault(abs(x), []).append(i)
        for g in sorted(gens):
            where = occurrence.get(g, [])
            if len(where) == 1:
                if not spend():
                    break
                idx = where[0]
                relators = [r for i, r in enumerate(relators) if i != idx]
                gens.discard(g)
                changed = True
                break
    exhausted = steps > budget
    simplified = Presentation([presentation.generators[g - 1] for g in sorted(gens)], relators)
    return simplified, min(steps, budget), exhausted


def pi1_verdict(complex_: Complex, budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """For a connected complex: holds when bounded simplification empties
    the presentation; fails when the abelianisation is non-trivial;
    inconclusive otherwise."""
    simplified, _steps, exhausted = tietze_simplify(pi1_presentation(complex_), budgets.pi1_steps)
    if simplified.is_empty():
        return Verdict.holds()
    h1 = homology(complex_, 1)
    if not h1.is_trivial():
        return Verdict.fails(
            witness={"betti": h1.betti, "torsion": list(h1.torsion)},
            reason="non-trivial first homology",
        )
    return Verdict.inconclusive("rewrite budget exhausted" if exhausted else "presentation not emptied")
