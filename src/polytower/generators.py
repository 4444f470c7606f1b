"""Deterministic input generators: simplexes, spheres, the projective plane,
the stacked cylinder, and towers built from iterated subdivision."""
from __future__ import annotations

from itertools import combinations

from .complexes import Complex
from .maps import QSMap, Tower, check_quasi_simplicial, identity_qsmap


def simplex(dim: int, names=None) -> Complex:
    if dim < 0:
        raise ValueError("simplex dimension must be non-negative")
    if names is None:
        names = DEFAULT_NAMES[: dim + 1] if dim + 1 <= len(DEFAULT_NAMES) else [
            "v%d" % i for i in range(dim + 1)
        ]
    return Complex.from_maximal([list(names)])


DEFAULT_NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]


def sphere(dim: int) -> Complex:
    """The boundary of a (dim+1)-simplex."""
    if dim < 0:
        raise ValueError("sphere dimension must be non-negative")
    names = ["s%d" % i for i in range(dim + 2)]
    return Complex.from_maximal([list(c) for c in combinations(names, dim + 1)])


def circle() -> Complex:
    return sphere(1)


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


def projective_plane() -> Complex:
    """The six-vertex triangulation of the projective plane."""
    return Complex.from_maximal(RP2_TRIANGLES)


def cylinder_complex() -> Complex:
    """Two stacked triangulated bands over a three-vertex circle."""
    tris = []
    for low, high in (("b", "m"), ("m", "t")):
        for i in range(3):
            j = (i + 1) % 3
            tris.append(["%s%d" % (low, i), "%s%d" % (low, j), "%s%d" % (high, i)])
            tris.append(["%s%d" % (low, j), "%s%d" % (high, i), "%s%d" % (high, j)])
    return Complex.from_maximal(tris)


def cylinder_map() -> QSMap:
    """The stacked cylinder collapsing onto a segment: bottom circle to one
    end, middle circle to the midpoint, top circle to the other end."""
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


def cylinder_tower() -> Tower:
    base = Complex.from_maximal([["u", "v"]])
    bond = cylinder_map()
    return Tower.build([base, bond.source], [bond])


def subdivision_tower(base: Complex, levels: int, scales=None) -> Tower:
    """base <- beta(base) <- beta^2(base) <- ... with identity bonds."""
    if levels < 1:
        raise ValueError("need at least one level")
    complexes = [base]
    bonds = []
    for _ in range(levels - 1):
        bonds.append(identity_qsmap(complexes[-1]))
        complexes.append(bonds[-1].source)
    return Tower.build(complexes, bonds, scales)


def random_base_complex(seed: int) -> Complex:
    """Three to six vertices and one to four faces of dimension at most 2."""
    import random  # only the random generators pay for it

    rng = random.Random(seed)
    nv = rng.randint(3, 6)
    names = ["v%d" % i for i in range(nv)]
    maximal = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(3, nv))
        maximal.append(rng.sample(names, size))
    return Complex.from_maximal(maximal)


def random_tower(seed: int, levels: int = 3, scales=None) -> Tower:
    """Seeded and reproducible: a random base refined by subdivision."""
    return subdivision_tower(random_base_complex(seed), levels, scales)
