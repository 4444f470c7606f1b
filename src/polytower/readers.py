"""Readers of the canonical JSON formats: every input document a command
takes (complexes, maps, covers, towers, points and PL maps) is validated
here, and a malformed one raises `formats.InputFormatError` with the place
it was found.  Vertex names read from one document share a memo, so each
distinct nested name is checked once; `complexes.canon_vertex` is what
makes each canonical.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .complexes import (
    MAX_NAME_DEPTH,  # re-exported: the bound a document's names are read under
    Complex,
    UnknownVertexError,
    barycentric_subdivision,
    canon_vertex,
    sorted_simplex,
    subcomplex_from,
    vertex_to_key,
    whole_subcomplex,
)
from .formats import InputFormatError
from .maps import QSMap, Tower, check_quasi_simplicial


# ---------------------------------------------------------------------------
# documents


def load_json(path: str):
    """The JSON document in a file; a file that cannot be read, or is not
    JSON, is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputFormatError("no such file: %s" % path)
    except OSError as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc.strerror))
    except json.JSONDecodeError as exc:
        raise InputFormatError("not JSON: %s (%s)" % (path, exc))
    except RecursionError:
        raise InputFormatError("not JSON: %s (nested too deep to read)" % path) from None


# ---------------------------------------------------------------------------
# scalars


def parse_fraction(text, context="rational") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise InputFormatError("rationals are 'p/q' strings", context)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError("bad rational %r: %s" % (text, exc), context)


# ---------------------------------------------------------------------------
# vertex names


def parse_vertex(obj, context="vertex", names=None):
    """A vertex name from its JSON form, made canonical by `canon_vertex`.
    `names` memoises the names met so far in one document (the caller's
    dict, fresh when omitted): a nested name by its compact JSON text, so a
    name met again costs one encoding and one lookup, and each distinct
    tuple of parts by itself, so it is sorted and checked once."""
    if names is None:
        names = {}
    try:
        if not isinstance(obj, list):
            return canon_vertex(obj)
        try:
            key = vertex_to_key(obj)
        except RecursionError:  # far deeper than MAX_NAME_DEPTH, which canon_vertex reports
            return canon_vertex(obj, names)
        name = names.get(key)
        if name is None:
            name = names[key] = canon_vertex(obj, names)
        return name
    except TypeError:
        raise InputFormatError("vertex names are strings or nested arrays", context)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def parse_vertex_key(text, context="vertex key", names=None):
    if text.startswith("["):
        if names is not None and text in names:  # compact text already read
            return names[text]
        try:
            return parse_vertex(json.loads(text), context, names)
        except json.JSONDecodeError as exc:
            raise InputFormatError("bad vertex key %r: %s" % (text, exc), context)
        except RecursionError:
            raise InputFormatError("vertex key nested too deep", context) from None
    return text


# ---------------------------------------------------------------------------
# complexes


def parse_complex(obj, context="complex", names=None) -> Complex:
    names = {} if names is None else names
    if not isinstance(obj, dict):
        raise InputFormatError("a complex is an object", context)
    maximal = obj.get("maximal")
    if not isinstance(maximal, list):
        raise InputFormatError("missing 'maximal' list", context)
    simplices = []
    for idx, raw in enumerate(maximal):
        if not isinstance(raw, list):
            raise InputFormatError("simplices are arrays", "%s.maximal[%d]" % (context, idx))
        simplices.append([parse_vertex(v, "%s.maximal[%d]" % (context, idx), names) for v in raw])
    raw_vertices = obj.get("vertices", [])
    if not isinstance(raw_vertices, list):
        raise InputFormatError("'vertices' is a list", context)
    extra = []
    for idx, raw in enumerate(raw_vertices):
        extra.append(parse_vertex(raw, "%s.vertices[%d]" % (context, idx), names))
    try:
        # parsed names are canonical: only the simplices need checking
        return Complex.closure_of(map(sorted_simplex, simplices), extra)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def parse_simplices(obj, context="simplices", names=None) -> list:
    """Simplices given as a list of vertex-name arrays."""
    if not isinstance(obj, list) or not all(isinstance(s, list) for s in obj):
        raise InputFormatError("simplices are a list of vertex arrays", context)
    names = {} if names is None else names
    return [[parse_vertex(v, context, names) for v in s] for s in obj]


# ---------------------------------------------------------------------------
# maps


def parse_map(obj, source: Complex | None = None, target: Complex | None = None, context="map", names=None) -> QSMap:
    """A quasi-simplicial map onto the subdivision of the target; the
    optional `subdivide_target` field may only say so (JSON true)."""
    names = {} if names is None else names
    if not isinstance(obj, dict):
        raise InputFormatError("a map is an object", context)
    if obj.get("subdivide_target", True) is not True:
        raise InputFormatError("'subdivide_target' must be true: maps are quasi-simplicial", context)
    if source is None:
        if "source" not in obj:
            raise InputFormatError("missing 'source'", context)
        source = parse_complex(obj["source"], context + ".source", names)
    elif "source" in obj and parse_complex(obj["source"], context + ".source", names) != source:
        raise InputFormatError("embedded source disagrees with the tower level", context)
    if target is None:
        if "target" not in obj:
            raise InputFormatError("missing 'target'", context)
        target = parse_complex(obj["target"], context + ".target", names)
    elif "target" in obj and parse_complex(obj["target"], context + ".target", names) != target:
        raise InputFormatError("embedded target disagrees with the tower level", context)
    raw_images = obj.get("vertex_images")
    if not isinstance(raw_images, dict):
        raise InputFormatError("missing 'vertex_images' object", context)
    images = {}
    for key, value in raw_images.items():
        v = parse_vertex_key(key, context + ".vertex_images", names)
        images[v] = parse_vertex(value, context + ".vertex_images[%s]" % key, names)
    try:
        return check_quasi_simplicial(source, target, images)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


# ---------------------------------------------------------------------------
# covers


def parse_cover(obj, context="cover") -> IndexedCover:
    from .stars import IndexedCover, OpenStarSet, barycentric_vertex_stars, open_vertex_star

    if not isinstance(obj, dict):
        raise InputFormatError("a cover is an object", context)
    names: dict = {}
    ambient = parse_complex(obj.get("ambient"), context + ".ambient", names)
    kind = obj.get("kind")
    if kind not in ("open", "closed"):
        raise InputFormatError("kind must be 'open' or 'closed'", context)
    raw = obj.get("elements")
    if not isinstance(raw, dict):
        raise InputFormatError("missing 'elements' object", context)
    star_kinds = {isinstance(v, dict) and "star_of" in v for v in raw.values()}
    if kind == "closed" and star_kinds == {True, False}:
        raise InputFormatError(
            "closed covers cannot mix star elements (subdivision resident) with plain subcomplexes",
            context,
        )
    elements = {}
    star_of = {}
    stars = None
    base = None
    target_complex = ambient
    for key, value in raw.items():
        index = parse_vertex_key(key, context + ".elements", names)
        if isinstance(value, dict) and "star_of" in value:
            v = parse_vertex(value["star_of"], context + ".elements[%s]" % key, names)
            star_of[index] = v
            if kind == "closed":
                if stars is None:
                    stars = barycentric_vertex_stars(ambient)
                    target_complex = barycentric_subdivision(ambient)
                    base = ambient
                if v not in stars:
                    raise UnknownVertexError(vertex_to_key(v))
                elements[index] = stars[v]
            else:
                elements[index] = open_vertex_star(ambient, v)
        elif isinstance(value, list):
            sub = subcomplex_from(ambient, parse_simplices(value, context, names))
            elements[index] = sub if kind == "closed" else OpenStarSet(ambient, sub.vertex_set())
        else:
            raise InputFormatError("elements are simplex lists or {'star_of': v}", context)
    return IndexedCover.build(target_complex, kind, elements, base=base, star_of=star_of)


# ---------------------------------------------------------------------------
# towers


def parse_tower(obj, context="tower") -> Tower:
    if not isinstance(obj, dict):
        raise InputFormatError("a tower is an object", context)
    raw_levels = obj.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise InputFormatError("missing 'levels' list", context)
    names: dict = {}
    levels = [parse_complex(l, "%s.levels[%d]" % (context, i), names) for i, l in enumerate(raw_levels)]
    raw_bonds = obj.get("bonds", [])
    if not isinstance(raw_bonds, list):
        raise InputFormatError("'bonds' is a list", context)
    if len(raw_bonds) != len(levels) - 1:
        raise InputFormatError("a tower with M levels needs M-1 bonds", context)
    bonds = []
    for i, raw in enumerate(raw_bonds):
        bonds.append(parse_map(raw, levels[i + 1], levels[i], "%s.bonds[%d]" % (context, i), names))
    scales = None
    if "scales" in obj:
        if not isinstance(obj["scales"], list):
            raise InputFormatError("'scales' is a list", context)
        scales = [parse_fraction(s, "%s.scales[%d]" % (context, i)) for i, s in enumerate(obj["scales"])]
    cover_kind = obj.get("cover", "B")
    try:
        return Tower.build(levels, bonds, scales, cover_kind)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


# ---------------------------------------------------------------------------
# points and PL maps


def parse_point(obj, complex_: Complex, context="point", names=None) -> Point:
    from .points import make_point  # only the lift reads points

    if not isinstance(obj, dict) or not isinstance(obj.get("coords"), dict):
        raise InputFormatError("a point is {'coords': {...}, 'scale': 'p/q'}", context)
    coords = {}
    for key, value in obj["coords"].items():
        coords[parse_vertex_key(key, context, names)] = parse_fraction(value, context)
    scale = parse_fraction(obj.get("scale", "1"), context)
    try:
        return make_point(complex_, coords, scale)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def parse_plmap(obj, domain: Complex, target: Complex, context="plmap") -> PartialPLMap:
    if not isinstance(obj, dict):
        raise InputFormatError("a PL map is an object", context)
    names: dict = {}
    if "defined_on" in obj:
        defined = subcomplex_from(domain, parse_simplices(obj["defined_on"], context, names))
    else:
        defined = whole_subcomplex(domain)
    raw = obj.get("vertex_points")
    if not isinstance(raw, dict):
        raise InputFormatError("missing 'vertex_points'", context)
    images = {}
    for key, value in raw.items():
        images[parse_vertex_key(key, context, names)] = parse_point(value, target, context, names)
    from .plmaps import PartialPLMap

    try:
        return PartialPLMap.build(domain, defined, images, target)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)
