import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polytower.complexes import Complex, barycentric_subdivision, subcomplex_from, vertex_key, whole_subcomplex
from polytower import snf
from polytower.connectivity import (
    ae_verdict,
    boundary_columns,
    collapses_to_point,
    components,
    homology,
    homology_run,
    is_connected,
    subcomplex_verdict,
)
from polytower.induced import cycle_basis
from polytower.maps import preimage_of_subdivided_subcomplex, preimage_subcomplex
from polytower.stars import cover_B, nerve, pullback_cover
from polytower.pi1 import Presentation, pi1_presentation, pi1_verdict, tietze_simplify
from polytower.generators import circle, cylinder_tower, projective_plane, random_tower, simplex, subdivision_tower
from polytower.towers import verify_tower
from polytower.verdicts import Budgets, Verdict, conjoin

from util import (
    betti_mod_p,
    betti_over_field,
    boundary_composition_is_zero,
    corpus_towers,
    cylinder_complex,
    dunce_hat_complex,
    greedy_collapse,
    invariant_factors,
    kernel_complexes,
    random_complex,
    rational_rank,
    reference_eliminate,
    reference_homology,
    rp2_complex,
    simplex_complex,
    sphere_complex,
)


CROSS_CHECKED = [random_complex(seed) for seed in range(12)] + [rp2_complex()]


def groups(k: Complex, up_to: int):
    return [(homology(k, d).betti, homology(k, d).torsion) for d in range(up_to + 1)]


def field_checked_levels() -> list:
    """(label, complex) pairs of every level of the corpus towers: the
    triangle to depth 4, the tetrahedron and rp2 to depth 3, the circle, the
    cylinder, and the random towers 0-15 at 3 levels."""
    towers = [
        ("triangle", subdivision_tower(simplex(2), 4)),
        ("tetrahedron", subdivision_tower(simplex(3), 3)),
        ("rp2", subdivision_tower(projective_plane(), 3)),
        ("circle", subdivision_tower(circle(), 3)),
        ("cylinder", cylinder_tower()),
    ]
    towers += [("random %d" % seed, random_tower(seed, 3)) for seed in range(16)]
    return [("%s level %d" % (label, i + 1), level) for label, t in towers for i, level in enumerate(t.levels)]


def kernel_and_corpus_complexes() -> list:
    """(label, complex) pairs: the kernel complexes and every level of the
    corpus towers."""
    levels = [("%s level %d" % (label, i + 1), level) for label, t in corpus_towers() for i, level in enumerate(t.levels)]
    return kernel_complexes() + levels


class TestHomology:
    def test_boundary_squared_zero_everywhere(self):
        for seed in range(6):
            assert boundary_composition_is_zero(random_complex(seed))
        assert boundary_composition_is_zero(rp2_complex())

    def test_circle(self):
        assert groups(sphere_complex(1), 1) == [(1, ()), (1, ())]

    def test_two_sphere(self):
        assert groups(sphere_complex(2), 2) == [(1, ()), (0, ()), (1, ())]

    def test_projective_plane(self):
        assert groups(rp2_complex(), 2) == [(1, ()), (0, (2,)), (0, ())]

    def test_simplices_contractible(self):
        for d in range(1, 6):
            k = simplex_complex(["x%d" % i for i in range(d + 1)])
            assert homology(k, 0, reduced=True).is_trivial()
            for deg in range(1, d + 1):
                assert homology(k, deg).is_trivial()

    def test_point_reduced_trivial(self):
        k = simplex_complex(["p"])
        for deg in range(0, 3):
            assert homology(k, deg, reduced=True).is_trivial()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            homology(simplex_complex(["a"]), -1)

    def test_betti_matches_field_ranks_when_torsion_free(self):
        # over Q the betti numbers; over F_p the universal coefficient
        # theorem adds each torsion coefficient of H_k and of H_(k-1) that p
        # divides, so levels with torsion, such as rp2's, are checked too
        for k in CROSS_CHECKED:
            for deg in range(k.dimension + 1):
                assert homology(k, deg).betti == betti_over_field(k, deg, rational_rank)
        labelled = [("cross-checked %d" % i, k) for i, k in enumerate(CROSS_CHECKED)]
        for label, k in labelled + field_checked_levels():
            previous = ()
            for summary in homology_run(k, range(k.dimension + 1)):
                nearby = summary.torsion + previous
                for p in (2, 3):
                    expected = summary.betti + sum(1 for d in nearby if d % p == 0)
                    assert betti_mod_p(k, summary.degree, p) == expected, (label, summary.degree, p)
                previous = summary.torsion

    def test_torsion_detected_by_mod2_gap(self):
        k = rp2_complex()
        assert betti_over_field(k, 1, rational_rank) == 0
        assert betti_mod_p(k, 1, 2) == 1

    def test_euler_characteristic_consistency(self):
        # χ counts simplices; the betti numbers come from the eliminations
        spheres = [("sphere %d" % d, sphere_complex(d)) for d in (1, 2)]
        for label, k in spheres + kernel_and_corpus_complexes():
            chi = k.euler_characteristic()
            alt = sum((-1) ** d * homology(k, d).betti for d in range(k.dimension + 1))
            assert chi == alt, label

    def test_invariant_under_subdivision(self):
        for k in (sphere_complex(1), rp2_complex(), cylinder_complex()):
            b = barycentric_subdivision(k)
            for deg in range(k.dimension + 1):
                ours, theirs = homology(k, deg), homology(b, deg)
                assert (ours.betti, ours.torsion) == (theirs.betti, theirs.torsion)

    def test_ranks_agree_with_the_reference_reductions(self):
        # betti numbers and torsion read off ranks equal those of the
        # reference, which reduces the boundaries written in a cycle basis
        levels = [level for _, tower in corpus_towers() for level in tower.levels]
        for k in [k for _, k in kernel_complexes()] + levels:
            for deg in range(k.dimension + 2):
                ours, theirs = homology(k, deg), reference_homology(k, deg)
                assert (ours.betti, ours.torsion) == (theirs.betti, theirs.torsion), deg

    def test_cycle_basis_is_a_basis_of_the_cycles(self):
        # on the kernel complexes and every corpus level: each vector is a
        # cycle, there are n_k - rank ∂_k of them, and their matrix has only
        # unit invariant factors, so they span a direct summand of the chains
        # of the cycles' rank, Z_k itself and not a sublattice of it; the
        # rank and the factors come from the reference elimination, which
        # shares no code with `snf.eliminate`
        for label, k in kernel_complexes() + field_checked_levels():
            for deg in range(k.dimension + 1):
                n = len(k.simplices_of_dim(deg))
                boundary = boundary_columns(k, deg)
                basis = cycle_basis(k, deg)
                assert all(snf.combine(boundary, z) == {} for z in basis), (label, deg)
                rank = reference_eliminate(boundary, len(k.simplices_of_dim(deg - 1))).rank if deg else 0
                assert len(basis) == n - rank, (label, deg)
                factors = [d for _, _, d in reference_eliminate(basis, n).pivots]
                assert factors == [1] * len(basis), (label, deg)


class TestHomologyRun:
    def test_run_equals_each_degree_alone(self):
        for label, k in kernel_and_corpus_complexes():
            degrees = range(0, k.dimension + 2)
            for reduced in (False, True):
                run = homology_run(k, degrees, reduced)
                assert run == [homology(k, d, reduced) for d in degrees], (label, reduced)
            assert homology_run(k, range(1, k.dimension + 1)) == [homology(k, d) for d in range(1, k.dimension + 1)]

    def test_each_boundary_map_is_eliminated_once(self, monkeypatch):
        # degrees lo..hi read ∂_lo .. ∂_{hi+1}, one elimination each
        sizes = []
        eliminate = snf.eliminate
        monkeypatch.setattr(snf, "eliminate", lambda columns, rows, **kw: sizes.append(rows) or eliminate(columns, rows, **kw))
        k = rp2_complex()
        homology_run(k, range(0, 3))
        assert sizes == [len(k.simplices_of_dim(j - 1)) for j in range(0, 4)]
        sizes.clear()
        assert homology_run(k, range(2, 2)) == [] and sizes == []

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            homology_run(simplex_complex(["a"]), range(-1, 1))


class TestConnectedness:
    def test_triangle(self):
        assert is_connected(simplex_complex(["a", "b", "c"])).is_holds

    def test_two_vertices(self):
        v = is_connected(Complex.from_maximal([["a"], ["b"]]))
        assert v.is_fails
        assert v.witness == ["a", "b"]

    def test_cylinder(self):
        assert is_connected(cylinder_complex()).is_holds

    def test_empty(self):
        v = is_connected(Complex.from_maximal([]))
        assert v.is_fails and v.witness == "empty"

    def test_components_sorted(self):
        comps = components(Complex.from_maximal([["c", "d"], ["a", "b"]]))
        assert comps[0][0] == "a"


class TestPi1:
    def test_simplices_trivial(self):
        for d in range(1, 5):
            k = simplex_complex(["x%d" % i for i in range(d + 1)])
            assert pi1_verdict(k).is_holds

    def test_circle_fails_via_h1(self):
        v = pi1_verdict(sphere_complex(1))
        assert v.is_fails
        assert v.witness == {"betti": 1, "torsion": []}

    def test_two_sphere_holds(self):
        assert pi1_verdict(sphere_complex(2)).is_holds

    def test_rp2_fails_with_torsion_witness(self):
        v = pi1_verdict(rp2_complex())
        assert v.is_fails
        assert v.witness["torsion"] == [2]

    def test_empty_complex_has_no_presentation(self):
        with pytest.raises(ValueError, match="empty complex has no fundamental group"):
            pi1_presentation(Complex.from_maximal([]))

    def test_free_reduction_is_cyclic(self):
        from polytower.pi1 import _free_reduce

        assert _free_reduce((1, 2, -2, 3)) == (1, 3)
        assert _free_reduce((1, 2, -1)) == (2,)
        assert _free_reduce((-3, 1, 2, -1, 3)) == (2,)

    def test_budget_exhaustion_is_inconclusive(self):
        k = sphere_complex(2)
        v = pi1_verdict(k, budgets=Budgets(pi1_steps=1))
        assert not v.is_fails  # never a wrong refutation
        # with one rewrite step the presentation cannot empty
        assert v.is_inconclusive

    def test_presentation_shape_on_circle(self):
        pres = pi1_presentation(sphere_complex(1))
        assert len(pres.generators) == 1
        assert pres.relators == []

    def test_transcript_empties_boundary_of_tetrahedron(self):
        pres = pi1_presentation(sphere_complex(2))
        simplified, steps, exhausted = tietze_simplify(pres, 10_000)
        assert simplified.is_empty()
        assert not exhausted
        assert steps >= 3

    def test_generator_in_one_relator_is_solved_for(self):
        # no generator is trivial and no relator has length two, so the
        # third move drops the first generator used once, with its relator
        pres = Presentation([("a", "b"), ("b", "c"), ("a", "c")], [(1, 2, 3)])
        assert tietze_simplify(pres, 100) == (Presentation([("b", "c"), ("a", "c")], []), 1, False)

    def test_disconnected_complex_is_refused(self):
        # π1 is asked of a connected complex only: connectedness fails first,
        # naming the least vertex of each of the first two components
        k = Complex.from_maximal([["a", "b", "c"], ["x", "y"], ["y", "z"], ["x", "z"]])
        v = is_connected(k)
        assert v.is_fails and v.witness == ["a", "x"]
        with pytest.raises(ValueError, match="not connected"):
            pi1_presentation(k)
        with pytest.raises(ValueError, match="not connected"):
            pi1_verdict(k)

    def test_verdict_builds_no_complex(self, monkeypatch):
        # the presentation and H_1 are read off the complex itself
        built = []
        init = Complex.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        for k in (rp2_complex(), sphere_complex(1)):
            monkeypatch.setattr(Complex, "__init__", counting_init)
            v = pi1_verdict(k)
            monkeypatch.undo()
            assert v.is_fails
        assert built == []

    def test_never_holds_with_nontrivial_h1(self):
        for seed in range(8):
            k = random_complex(seed)
            v = pi1_verdict(k, budgets=Budgets(pi1_steps=50))
            if v.is_holds:
                assert homology(k, 1).is_trivial()
            if not homology(k, 1).is_trivial():
                assert not v.is_holds

    def test_tietze_moves_preserve_abelianization(self):
        # the rewriting engine may only apply group-preserving moves, so the
        # abelian invariants of the presentation must never change
        def invariants(relators, alive):
            index = {g: i for i, g in enumerate(sorted(alive))}
            cols = []
            for word in relators:
                col = [0] * len(alive)
                for letter in word:
                    if abs(letter) in index:
                        col[index[abs(letter)]] += 1 if letter > 0 else -1
                cols.append(col)
            matrix = [[c[i] for c in cols] for i in range(len(alive))]
            factors = invariant_factors(matrix, cols=len(cols)) if alive else []
            return len(alive) - len(factors), tuple(d for d in factors if d > 1)

        for seed in range(12):
            k = random_complex(seed)
            for comp_vertices in components(k):
                piece = Complex._from_closed(
                    {s for s in k.simplices if s[0] in set(comp_vertices)}
                )
                pres = pi1_presentation(piece)
                before = invariants(
                    pres.relators, set(range(1, len(pres.generators) + 1))
                )
                simplified, _, _ = tietze_simplify(pres, 10_000)
                # simplified relators keep the original generator numbering
                original_index = {edge: i + 1 for i, edge in enumerate(pres.generators)}
                survivors = {original_index[edge] for edge in simplified.generators}
                after = invariants(simplified.relators, survivors)
                assert before == after, (seed, before, after)

    def test_presentation_abelianization_matches_h1(self):
        # exponent-sum matrix of the relators presents the same abelian group
        # as the first homology of the (connected) complex
        for k in (sphere_complex(1), sphere_complex(2), rp2_complex(), cylinder_complex()):
            pres = pi1_presentation(k)
            gens = len(pres.generators)
            columns = []
            for word in pres.relators:
                col = [0] * gens
                for letter in word:
                    col[abs(letter) - 1] += 1 if letter > 0 else -1
                columns.append(col)
            matrix = [[col[i] for col in columns] for i in range(gens)]
            factors = invariant_factors(matrix, cols=len(columns)) if gens else []
            betti = gens - len(factors)
            torsion = tuple(d for d in factors if d > 1)
            h1 = homology(k, 1)
            assert (betti, torsion) == (h1.betti, h1.torsion)


class TestKConnected:
    def test_sphere2_at_n3_fails_at_h2(self):
        v = ae_verdict(sphere_complex(2), 3)
        assert v.is_fails
        assert v.witness["degree"] == 2

    def test_sphere2_at_n2_holds(self):
        assert ae_verdict(sphere_complex(2), 2).is_holds

    def test_empty_fails(self):
        assert ae_verdict(Complex.from_maximal([]), 1).is_fails

    def test_circle_at_n2_fails(self):
        assert ae_verdict(sphere_complex(1), 2).is_fails

    def test_triangle_all_n(self):
        for n in range(1, 5):
            assert ae_verdict(simplex_complex(["a", "b", "c"]), n).is_holds

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ae_verdict(simplex_complex(["a"]), 0)


class TestVerdictAlgebra:
    def test_fails_dominates(self):
        f = Verdict.fails("w")
        i = Verdict.inconclusive("r")
        h = Verdict.holds()
        assert conjoin([h, i, f]).is_fails
        assert conjoin([i, h]).is_inconclusive
        assert conjoin([h, h]).is_holds
        assert conjoin([]).is_holds

    def test_first_witness_kept(self):
        first = Verdict.fails("first")
        second = Verdict.fails("second")
        assert conjoin([first, second]).witness == "first"


def cone(k: Complex) -> Complex:
    return Complex.from_maximal([list(m) + ["apex"] for m in k.maximal])


def near_cone(k: Complex) -> Complex:
    """The cone on k with the apex missing from its first maximal simplex."""
    first, *rest = k.maximal
    return Complex.from_maximal([list(first)] + [list(m) + ["apex"] for m in rest])


class TestCollapse:
    """Elementary collapses decide contractible pieces; a stuck collapse
    proves nothing and leaves the verdict to the full path."""

    @given(st.integers(0, 2**32), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_collapse_to_point_implies_acyclic(self, seed, coned):
        k = random_complex(seed)
        if coned:
            k = cone(k)
        if collapses_to_point(k.simplices, len(k.simplices)):
            assert k.euler_characteristic() == 1
            for d in range(k.dimension + 1):
                assert homology(k, d, reduced=True).is_trivial(), d
            assert not ae_verdict(k, 3).is_fails

    def test_both_outcomes_occur(self):
        outcomes = {collapses_to_point(k.simplices, len(k.simplices)) for k in CROSS_CHECKED}
        assert outcomes == {True, False}

    def test_each_collapse_is_one_step(self):
        # every elementary collapse removes two simplices, so a collapse to a
        # vertex takes exactly (|S| - 1) / 2 steps
        for k in CROSS_CHECKED + [cone(k) for k in CROSS_CHECKED]:
            if not collapses_to_point(k.simplices, len(k.simplices)):
                continue
            needed = (len(k.simplices) - 1) // 2
            assert collapses_to_point(k.simplices, needed)
            if needed:
                assert not collapses_to_point(k.simplices, needed - 1)

    def test_closed_simplices_match_the_search(self):
        # a closed simplex is answered in closed form: (|S| - 1) / 2 steps
        for size in range(1, 11):
            k = simplex_complex(["v%d" % i for i in range(size)])
            needed = (len(k.simplices) - 1) // 2
            assert collapses_to_point(k.simplices, needed) is greedy_collapse(k.simplices, needed) is True
            if needed:
                assert collapses_to_point(k.simplices, needed - 1) is greedy_collapse(k.simplices, needed - 1) is False

    def test_other_sets_match_the_search(self):
        for k in CROSS_CHECKED + [cone(k) for k in CROSS_CHECKED]:
            for budget in (1, 4, 10, 100, len(k.simplices)):
                assert collapses_to_point(k.simplices, budget) == greedy_collapse(k.simplices, budget)

    def test_closed_simplex_needs_no_search(self, monkeypatch):
        import polytower.connectivity as connectivity

        def no_search(simplex):
            raise AssertionError("a closed simplex is answered in closed form")

        monkeypatch.setattr(connectivity, "simplex_sort_key", no_search)
        tetrahedron = simplex_complex(["a", "b", "c", "d"]).simplices
        assert collapses_to_point(tetrahedron, 7)
        assert not collapses_to_point(tetrahedron, 6)
        # the path a-b-c is a cone on b; the path a-b-c-d is no cone
        path = Complex.from_maximal([["a", "b"], ["b", "c"]]).simplices
        assert collapses_to_point(path, 2)
        assert not collapses_to_point(path, 1)
        path = Complex.from_maximal([["a", "b"], ["b", "c"], ["c", "d"]]).simplices
        with pytest.raises(AssertionError):
            collapses_to_point(path, 10)

    def test_cone_rule_matches_the_search(self, monkeypatch):
        # dropping a vertex sends the simplices through it one to one onto
        # the others and the empty face: it lies in at most (s + 1) / 2 of s
        # simplices, in exactly that many on a cone on it, and a cone
        # collapses in s // 2 steps
        import polytower.towers as towers

        pieces = []

        def recording(sub, n, budgets):
            pieces.append(sub.simplices)
            return subcomplex_verdict(sub, n, budgets)

        monkeypatch.setattr(towers, "subcomplex_verdict", recording)
        for base, depth in ((simplex(2), 3), (simplex(3), 2), (projective_plane(), 2), (circle(), 3)):
            verify_tower(subdivision_tower(base, depth), 2)
        for seed in range(3):
            verify_tower(random_tower(seed), 2)
        verify_tower(cylinder_tower(), 2)
        kernel = [k for _, k in kernel_complexes()]
        sets = [k.simplices for k in kernel + [cone(k) for k in kernel] + [near_cone(k) for k in kernel]]
        sets += set(pieces)
        outcomes = set()
        for simplices in sets:
            size = len(simplices)
            counts = Counter(v for s in simplices for v in s)
            most = max(counts.values())
            assert 2 * most <= size + 1
            is_cone = any(
                all(tuple(sorted(set(s) | {a}, key=vertex_key)) in simplices for s in simplices)
                for a, count in counts.items()
                if count == most
            )
            assert is_cone == (2 * most == size + 1)
            for budget in (size // 2, size // 2 - 1):
                if budget >= 0:
                    assert collapses_to_point(simplices, budget) == greedy_collapse(simplices, budget)
            outcomes.add((is_cone, greedy_collapse(simplices, size)))
        # cones, collapsible sets that are no cones, and stuck sets all occur
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_vertex_empty_set_and_solid_cone(self):
        # a simplex, a barycentric star and the circle are in test_carriers
        assert collapses_to_point(simplex_complex(["a"]).simplices, 1)
        assert not collapses_to_point(frozenset(), 10_000)
        assert collapses_to_point(cone(sphere_complex(2)).simplices, 10_000)

    def test_dunce_hat_falls_back(self, monkeypatch):
        import polytower.connectivity as connectivity

        k = dunce_hat_complex()
        assert k.euler_characteristic() == 1
        assert not collapses_to_point(k.simplices, 10**6)
        expected = ae_verdict(k, 2)
        assert expected == Verdict.holds()  # Tietze rewriting empties its presentation
        fallbacks = []

        def recording(complex_, n, budgets):
            fallbacks.append(complex_)
            return ae_verdict(complex_, n, budgets)

        monkeypatch.setattr(connectivity, "ae_verdict", recording)
        assert subcomplex_verdict(whole_subcomplex(k), 2) == expected
        assert fallbacks == [k]

    def test_collapsible_piece_holds_at_every_n_without_a_complex(self, monkeypatch):
        # a piece that collapses to a vertex is contractible: it holds at
        # n = 1 as at n >= 2, read off the collapse with no complex built
        built = []
        init = Complex.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        pieces = [whole_subcomplex(k) for k in (simplex_complex(["a", "b"]), cone(sphere_complex(1)))]
        monkeypatch.setattr(Complex, "__init__", counting_init)
        verdicts = [subcomplex_verdict(piece, n) for piece in pieces for n in (1, 2, 3)]
        monkeypatch.undo()
        assert verdicts == [Verdict.holds()] * 6
        assert built == []

    @staticmethod
    def _degree_one_mismatches() -> tuple:
        """Every preimage of a simplex under a corpus bond, the preimage of
        the two ends of every edge (which is disconnected), and every
        pulled-back intersection of the cylinder bond, judged at n = 1 and
        by the connectedness of the piece as a complex: (the pieces on which
        the two differ, the verdict statuses seen)."""
        pieces = []
        for label, tower in corpus_towers():
            for bond in tower.bonds:
                for delta in bond.target.sorted_simplices():
                    pieces.append((label, delta, preimage_subcomplex(bond, delta)))
                    if len(delta) == 2:
                        ends = subcomplex_from(bond.target, [[delta[0]], [delta[1]]])
                        pieces.append((label, ("ends",) + delta, preimage_of_subdivided_subcomplex(bond, ends)))
        tower = cylinder_tower()
        pulled = pullback_cover(tower.bonds[0], cover_B(tower.levels[0]))
        for indices in nerve(pulled).complex.sorted_simplices():
            pieces.append(("cylinder piece", indices, pulled.intersection_subcomplex(list(indices))))
        mismatches, seen = [], set()
        for label, where, piece in pieces:
            verdict = subcomplex_verdict(piece, 1)
            seen.add(verdict.status)
            if verdict != is_connected(piece.as_complex()):
                mismatches.append((label, where))
        return mismatches, seen

    def test_degree_one_verdict_is_connectedness(self):
        mismatches, seen = self._degree_one_mismatches()
        assert mismatches == []
        assert seen == {"holds", "fails"}

    def test_degree_one_cross_check_catches_a_collapse_of_a_disconnected_set(self, monkeypatch):
        import polytower.connectivity as connectivity

        real = connectivity.collapses_to_point

        def mutant(simplices, budget):
            # also answers True for a set of two or more components
            return real(simplices, budget) or len(connectivity.components(Complex._from_closed(set(simplices)))) > 1

        monkeypatch.setattr(connectivity, "collapses_to_point", mutant)
        mismatches, _ = self._degree_one_mismatches()
        assert mismatches and all(where[0] == "ends" for _, where in mismatches)

    def test_independent_of_hash_seed(self):
        script = (
            "from util import dunce_hat_complex, random_complex\n"
            "from polytower.connectivity import collapses_to_point\n"
            "from polytower.formats import dumps_canonical\n"
            "from polytower.generators import simplex, subdivision_tower\n"
            "from polytower.towers import verify_tower\n"
            "from polytower.verdicts import Budgets\n"
            "pieces = [random_complex(seed) for seed in range(40)] + [dunce_hat_complex()]\n"
            "print([[collapses_to_point(k.simplices, b) for b in (1, 4, 10, 100)] for k in pieces])\n"
            "tower = subdivision_tower(simplex(2), 3)\n"
            "for budget in (3, 10_000):\n"
            "    print(dumps_canonical(verify_tower(tower, 2, Budgets(pi1_steps=budget)).to_obj()))\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])

        def run(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            return subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            ).stdout

        first = run("0")
        assert first == run("1")
        assert "True" in first and "False" in first
