"""Maps induced on integral homology by (quasi-)simplicial maps: the chain
maps, a basis of the cycles, and the isomorphism verdict that the tower
certificate's homology evidence reads.  Only that evidence uses them, so
the commands that build or lift towers do not load this module.
"""
from __future__ import annotations

from . import snf
from .complexes import Complex, vertex_key
from .connectivity import boundary_columns, homology_coordinates
from .maps import VertexMap
from .verdicts import Verdict


def cycle_basis(complex_: Complex, k: int) -> list:
    """A basis of the k-cycles Z_k, as chains {simplex index: coefficient}:
    the columns of the unimodular V that hold no pivot, which span Z_k
    itself and not just a sublattice of finite index."""
    reduction = snf.eliminate(boundary_columns(complex_, k), len(complex_.simplices_of_dim(k - 1)), right=True)
    return [reduction.right[j] for j in reduction.free_columns()]


def chain_map_columns(vm: VertexMap, k: int) -> list:
    """Sparse columns {target simplex index: sign} of the degree-k chain map;
    simplices collapsed by the map give empty columns, non-degenerate images
    carry the sorting sign."""
    dst_index = {s: i for i, s in enumerate(vm.target.simplices_of_dim(k))}
    mapping = vm.lookup
    columns = []
    for s in vm.source.simplices_of_dim(k):
        images = [mapping[v] for v in s]
        if len(set(images)) != len(images):
            columns.append({})
            continue
        order = sorted(range(len(images)), key=lambda i: vertex_key(images[i]))
        target_simplex = tuple(images[i] for i in order)
        columns.append({dst_index[target_simplex]: _permutation_sign(order)})
    return columns


def _permutation_sign(order) -> int:
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def induced_homology_map(p, k: int) -> Verdict:
    """Whether the degree-k map on integral homology induced by a
    (quasi-)simplicial map is an isomorphism.

    It holds exactly when both groups share invariants and the induced map
    is onto, which for finitely generated abelian groups forces bijectivity.
    Onto-ness is read off one elimination of the boundaries of the target
    together with the images of a basis of the source cycles: C_k of the
    target modulo their span is coker f_* ⊕ Z^(rank ∂_k), as the cycles are
    a direct summand of C_k with free quotient.  A witness lists the
    invariant factors of a presentation of coker f_* with one generator per
    invariant factor of the target group: the units first, then the
    factors of the cokernel.
    """
    src = homology_coordinates(p.source, k)
    dst = homology_coordinates(p.target, k)
    if (src.betti, src.torsion) != (dst.betti, dst.torsion):
        return Verdict.fails(
            witness={"source": _group_obj(src), "target": _group_obj(dst)},
            reason="homology groups differ in degree %d" % k,
        )
    if dst.betti == 0 and not dst.torsion:
        return Verdict.holds()
    chain = chain_map_columns(p, k)
    boundary = boundary_columns(p.target, k)
    images = []
    for cycle in cycle_basis(p.source, k):
        image = snf.combine(chain, cycle)
        if snf.combine(boundary, image):
            raise AssertionError("image of a cycle is not a cycle")
        images.append(image)
    n = len(p.target.simplices_of_dim(k))
    span = snf.eliminate(boundary_columns(p.target, k + 1) + images, n)
    factors = [d for _, _, d in span.pivots if d > 1]
    free = n - span.rank - dst.boundary_rank
    if not factors and not free:
        return Verdict.holds()
    units = dst.betti + len(dst.torsion) - free - len(factors)
    return Verdict.fails(
        witness={"invariant_factors": [1] * units + factors},
        reason="induced map is not onto",
    )


def _group_obj(data) -> dict:
    return {"betti": data.betti, "torsion": list(data.torsion)}
