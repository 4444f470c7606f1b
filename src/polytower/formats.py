"""Canonical JSON formats for complexes, maps, covers, towers, and reports.

Rationals serialize as "p/q" strings (just "p" for integers), vertex names
as strings or nested arrays, and every emitted document uses sorted keys and
two-space indentation so that equal inputs give byte-identical output.
Reports and certificates hold plain values (verdicts, rationals, vertex names
and simplex tuples), and `dumps_canonical` is the one place that converts
them.
"""
from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii as _encode_str

from .complexes import (
    Complex,
    Point,
    UnknownVertexError,
    barycentric_subdivision,
    check_atom,
    join_parts,
    make_point,
    sorted_simplex,
    subcomplex_from,
    vertex_label,
    whole_subcomplex,
)
from .maps import QSMap, Tower, check_quasi_simplicial
from .verdicts import Verdict


class InputFormatError(ValueError):
    """Raised on malformed input documents; carries field context."""

    def __init__(self, message, context=None):
        self.context = context
        super().__init__(message if context is None else "%s (at %s)" % (message, context))


# ---------------------------------------------------------------------------
# scalars


def fraction_to_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


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


def _shared_obj(name, lists: dict):
    """The JSON form of a vertex name within one document: `lists` holds one
    list per nested name, shared by all its occurrences, so
    `dumps_canonical` renders it once per depth."""
    if isinstance(name, str):
        return name
    obj = lists.get(name)
    if obj is None:
        obj = lists[name] = [_shared_obj(part, lists) for part in name]
    return obj


# compact JSON text of a name from one C encoder, built once with no
# circular-reference markers (a name is a tree): vertex keys and the
# reader's name memo
_compact_chunks = c_make_encoder(None, json.JSONEncoder().default, _encode_str, None, ":", ",", False, False, True)


def _compact(name) -> str:
    return "".join(_compact_chunks(name, 0))


# deepest nesting of a vertex name in an input document; names made by
# subdivision nest one level per subdivision, far below this
MAX_NAME_DEPTH = 100


def parse_vertex(obj, context="vertex", names=None):
    """A vertex name from its JSON form.  `names` memoises the names met so
    far in one document (the caller's dict, fresh when omitted): a nested
    name by its compact JSON text, so a name met again costs one encoding
    and one lookup, and each distinct tuple of parts is sorted and checked
    once."""
    if names is None:
        names = {}
    if not isinstance(obj, list):
        return _parse_name(obj, context, names, 0)
    try:
        key = _compact(obj)
    except RecursionError:  # far deeper than MAX_NAME_DEPTH, which _parse_name reports
        return _parse_name(obj, context, names, 0)
    name = names.get(key)
    if name is None:
        name = names[key] = _parse_name(obj, context, names, 0)
    return name


def _parse_name(obj, context, names: dict, depth: int):
    if isinstance(obj, str):
        try:
            return check_atom(obj)
        except ValueError as exc:
            raise InputFormatError(str(exc), context)
    if not isinstance(obj, list):
        raise InputFormatError("vertex names are strings or nested arrays", context)
    if depth == MAX_NAME_DEPTH:
        raise InputFormatError("vertex name nested more than %d deep" % MAX_NAME_DEPTH, context)
    parts = tuple(_parse_name(part, context, names, depth + 1) for part in obj)
    name = names.get(parts)
    if name is None:
        try:
            name = names[parts] = join_parts(parts, obj)
        except ValueError as exc:
            raise InputFormatError(str(exc), context)
    return name


def vertex_to_key(name) -> str:
    """Stable string form usable as a JSON object key."""
    if isinstance(name, str):
        return name
    return _compact(name)


def parse_vertex_key(text, context="vertex key", names=None):
    if not isinstance(text, str):
        raise InputFormatError("object keys must be strings", context)
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


def complex_to_obj(complex_: Complex) -> dict:
    return _complex_obj(complex_, {})


def _complex_obj(complex_: Complex, lists: dict) -> dict:
    objs = {v: _shared_obj(v, lists) for v in complex_.vertices}
    return {
        "vertices": list(objs.values()),
        "maximal": [list(map(objs.__getitem__, s)) for s in complex_.maximal],
    }


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


def map_to_obj(m) -> dict:
    return _map_obj(m, True, {})


def _map_obj(m: QSMap, include_complexes: bool, lists: dict) -> dict:
    out = {
        "subdivide_target": True,
        "vertex_images": {
            vertex_to_key(v): _shared_obj(w, lists) for v, w in m.assignment
        },
    }
    if include_complexes:
        out["source"] = _complex_obj(m.source, lists)
        out["target"] = _complex_obj(m.base_target, lists)
    return out


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
                    raise UnknownVertexError(vertex_label(v))
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


def tower_to_obj(tower: Tower) -> dict:
    lists: dict = {}
    return {
        "levels": [_complex_obj(level, lists) for level in tower.levels],
        "bonds": [_map_obj(bond, False, lists) for bond in tower.bonds],
        "scales": [fraction_to_str(s) for s in tower.scales],
        "cover": tower.cover_kind,
    }


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


def point_to_obj(point: Point) -> dict:
    return {
        "coords": {vertex_to_key(v): fraction_to_str(c) for v, c in point.coords},
        "scale": fraction_to_str(point.scale),
    }


def parse_point(obj, complex_: Complex, context="point", names=None) -> Point:
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


def plmap_to_obj(f: PartialPLMap) -> dict:
    return {
        "defined_on": f.defined_on.sorted_simplices(),
        "vertex_points": {vertex_to_key(v): point_to_obj(p) for v, p in f.images},
    }


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


# ---------------------------------------------------------------------------
# verdicts and reports


def verdict_to_obj(v: Verdict) -> dict:
    out = {"status": v.status}
    if v.witness is not None:
        out["witness"] = _plain(v.witness)
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def _plain(value):
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, Verdict):
        return verdict_to_obj(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, (list, set, frozenset)):
        items = [_plain(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=json.dumps)
        return items
    if isinstance(value, dict):
        return {str(_plain(k)) if not isinstance(k, str) else k: _plain(v) for k, v in value.items()}
    return value


def dumps_canonical(obj) -> str:
    """`json.dumps(_plain(obj), indent=2, sort_keys=True, ensure_ascii=True)`
    and a newline, rendered in one pass.  A list or tuple whose leaves are
    all strings, such as a vertex name, is rendered once per nesting depth:
    a tuple is remembered by value, a list by identity, and the entry holds
    the list so that its id cannot pass to another object."""
    tuples: dict = {}  # (tuple, depth) -> text
    lists: dict = {}  # (id(list), depth) -> (list, text)

    def render(value, depth):
        if isinstance(value, str):
            return _encode_str(value)
        if isinstance(value, (list, tuple)):
            return sequence(value, depth)[0]
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = {k if isinstance(k, str) else str(_plain(k)): v for k, v in value.items()}
            sep = ",\n" + "  " * (depth + 1)
            out = []
            for k, v in sorted(items.items()):
                out += (sep, _encode_str(k), ": ", render(v, depth + 1))
            out[0] = "{" + sep[1:]
            out.append("\n" + "  " * depth + "}")
            return "".join(out)
        if value is None or isinstance(value, (int, float)):
            return json.dumps(value)
        plain = _plain(value)
        # what _plain leaves as it is, json.dumps renders or refuses
        return json.dumps(value) if plain is value else render(plain, depth)

    def sequence(seq, depth):
        """The text of a list or tuple, and whether its leaves are all strings."""
        if not seq:
            return "[]", True
        if isinstance(seq, tuple):
            key = (seq, depth)
            try:
                text = tuples.get(key)
            except TypeError:  # it holds a list or another unhashable value
                key = text = None
            if text is not None:
                return text, True
        else:
            hit = lists.get((id(seq), depth))
            if hit is not None and hit[0] is seq:
                return hit[1], True
        sep = ",\n" + "  " * (depth + 1)
        pure = True
        out = []
        for item in seq:
            out.append(sep)
            if isinstance(item, str):
                out.append(_encode_str(item))
            elif isinstance(item, (list, tuple)):
                text, item_pure = sequence(item, depth + 1)
                out.append(text)
                pure = pure and item_pure
            else:
                out.append(render(item, depth + 1))
                pure = False
        out[0] = "[" + sep[1:]
        out.append("\n" + "  " * depth + "]")
        text = "".join(out)
        if pure:
            if isinstance(seq, list):
                lists[id(seq), depth] = (seq, text)
            elif key is not None:
                tuples[key] = text
        return text, pure

    return render(obj, 0) + "\n"


def render_human(obj, indent: int = 0) -> str:
    """Plain-text projection of a JSON report; never a separate code path."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.append(render_human(value, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, value))
        return "\n".join(line for line in lines if line)
    if isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append("%s-" % pad)
                lines.append(render_human(value, indent + 1))
            else:
                lines.append("%s- %s" % (pad, value))
        return "\n".join(line for line in lines if line)
    return "%s%s" % (pad, obj)
