"""Canonical JSON formats for complexes, maps, covers, towers, and reports.

Rationals serialize as "p/q" strings (just "p" for integers), vertex names
as strings or nested arrays, and every emitted document uses sorted keys and
two-space indentation so that equal inputs give byte-identical output.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .complexes import Complex, Point, Subcomplex, canon_vertex, make_point, subcomplex_from, vertex_key
from .maps import QSMap, VertexMap, check_quasi_simplicial
from .plmaps import PartialPLMap
from .stars import IndexedCover, open_star, barycentric_vertex_star, open_vertex_star
from .towers import RegularityReport, Tower
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
    if isinstance(text, int):
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


def vertex_to_obj(name):
    if isinstance(name, str):
        return name
    return [vertex_to_obj(part) for part in name]


def parse_vertex(obj, context="vertex"):
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list):
        try:
            return canon_vertex([parse_vertex(part, context) for part in obj])
        except ValueError as exc:
            raise InputFormatError(str(exc), context)
    raise InputFormatError("vertex names are strings or nested arrays", context)


def vertex_to_key(name) -> str:
    """Stable string form usable as a JSON object key."""
    if isinstance(name, str):
        return name
    return json.dumps(vertex_to_obj(name), separators=(",", ":"))


def parse_vertex_key(text, context="vertex key"):
    if not isinstance(text, str):
        raise InputFormatError("object keys must be strings", context)
    if text.startswith("["):
        try:
            return parse_vertex(json.loads(text), context)
        except json.JSONDecodeError as exc:
            raise InputFormatError("bad vertex key %r: %s" % (text, exc), context)
    return text


# ---------------------------------------------------------------------------
# complexes


def complex_to_obj(complex_: Complex) -> dict:
    return {
        "vertices": [vertex_to_obj(v) for v in complex_.vertices],
        "maximal": [[vertex_to_obj(v) for v in s] for s in complex_.maximal],
    }


def parse_complex(obj, context="complex") -> Complex:
    if not isinstance(obj, dict):
        raise InputFormatError("a complex is an object", context)
    maximal = obj.get("maximal")
    if not isinstance(maximal, list):
        raise InputFormatError("missing 'maximal' list", context)
    simplices = []
    for idx, raw in enumerate(maximal):
        if not isinstance(raw, list):
            raise InputFormatError("simplices are arrays", "%s.maximal[%d]" % (context, idx))
        simplices.append([parse_vertex(v, "%s.maximal[%d]" % (context, idx)) for v in raw])
    extra = []
    for idx, raw in enumerate(obj.get("vertices", [])):
        extra.append(parse_vertex(raw, "%s.vertices[%d]" % (context, idx)))
    try:
        return Complex.from_maximal(simplices, extra_vertices=extra)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def subcomplex_to_obj(sub: Subcomplex) -> list:
    return [[vertex_to_obj(v) for v in s] for s in sub.sorted_simplices()]


# ---------------------------------------------------------------------------
# maps


def map_to_obj(m, include_complexes: bool = True) -> dict:
    if isinstance(m, QSMap):
        vm = m.vertex_map
        subdivide = True
        target = m.base_target
    elif isinstance(m, VertexMap):
        vm = m
        subdivide = False
        target = m.target
    else:
        raise TypeError("not a map")
    out = {
        "subdivide_target": subdivide,
        "vertex_images": {
            vertex_to_key(v): vertex_to_obj(w) for v, w in vm.assignment
        },
    }
    if include_complexes:
        out["source"] = complex_to_obj(vm.source)
        out["target"] = complex_to_obj(target)
    return out


def parse_map(obj, source: Complex | None = None, target: Complex | None = None, context="map"):
    if not isinstance(obj, dict):
        raise InputFormatError("a map is an object", context)
    if source is None:
        if "source" not in obj:
            raise InputFormatError("missing 'source'", context)
        source = parse_complex(obj["source"], context + ".source")
    elif "source" in obj and parse_complex(obj["source"], context + ".source") != source:
        raise InputFormatError("embedded source disagrees with the tower level", context)
    if target is None:
        if "target" not in obj:
            raise InputFormatError("missing 'target'", context)
        target = parse_complex(obj["target"], context + ".target")
    elif "target" in obj and parse_complex(obj["target"], context + ".target") != target:
        raise InputFormatError("embedded target disagrees with the tower level", context)
    raw_images = obj.get("vertex_images")
    if not isinstance(raw_images, dict):
        raise InputFormatError("missing 'vertex_images' object", context)
    images = {}
    for key, value in raw_images.items():
        v = parse_vertex_key(key, context + ".vertex_images")
        images[v] = parse_vertex(value, context + ".vertex_images[%s]" % key)
    subdivide = obj.get("subdivide_target", True)
    try:
        if subdivide:
            return check_quasi_simplicial(source, target, images)
        vm = VertexMap.build(source, target, images)
        return vm
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


# ---------------------------------------------------------------------------
# covers


def cover_to_obj(cover: IndexedCover) -> dict:
    elements = {}
    star_of = dict(cover.star_of)
    for i, e in cover.elements:
        key = vertex_to_key(i)
        if i in star_of:
            elements[key] = {"star_of": vertex_to_obj(star_of[i])}
        elif isinstance(e, Subcomplex):
            elements[key] = subcomplex_to_obj(e)
        else:
            elements[key] = subcomplex_to_obj(e.core)
    return {
        "ambient": complex_to_obj(cover.base if cover.base is not None else cover.ambient),
        "kind": cover.kind,
        "elements": elements,
    }


def parse_cover(obj, context="cover") -> IndexedCover:
    if not isinstance(obj, dict):
        raise InputFormatError("a cover is an object", context)
    ambient = parse_complex(obj.get("ambient"), context + ".ambient")
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
    base = None
    target_complex = ambient
    for key, value in raw.items():
        index = parse_vertex_key(key, context + ".elements")
        if isinstance(value, dict) and "star_of" in value:
            v = parse_vertex(value["star_of"], context + ".elements[%s]" % key)
            star_of[index] = v
            if kind == "closed":
                elements[index] = barycentric_vertex_star(ambient, v)
                from .complexes import barycentric_subdivision

                target_complex = barycentric_subdivision(ambient)
                base = ambient
            else:
                elements[index] = open_vertex_star(ambient, v)
        elif isinstance(value, list):
            sub = subcomplex_from(ambient, [
                [parse_vertex(w, context) for w in simplex] for simplex in value
            ])
            if kind == "closed":
                elements[index] = sub
            else:
                elements[index] = open_star(ambient, sub)
        else:
            raise InputFormatError("elements are simplex lists or {'star_of': v}", context)
    try:
        return IndexedCover.build(
            target_complex, kind, elements, base=base, star_of=star_of, check=False
        )
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


# ---------------------------------------------------------------------------
# towers


def tower_to_obj(tower: Tower) -> dict:
    return {
        "levels": [complex_to_obj(level) for level in tower.levels],
        "bonds": [map_to_obj(bond, include_complexes=False) for bond in tower.bonds],
        "scales": [fraction_to_str(s) for s in tower.scales],
        "cover": tower.cover_kind,
    }


def parse_tower(obj, context="tower") -> Tower:
    if not isinstance(obj, dict):
        raise InputFormatError("a tower is an object", context)
    raw_levels = obj.get("levels")
    if not isinstance(raw_levels, list) or not raw_levels:
        raise InputFormatError("missing 'levels' list", context)
    levels = [parse_complex(l, "%s.levels[%d]" % (context, i)) for i, l in enumerate(raw_levels)]
    raw_bonds = obj.get("bonds", [])
    if len(raw_bonds) != len(levels) - 1:
        raise InputFormatError("a tower with M levels needs M-1 bonds", context)
    bonds = []
    for i, raw in enumerate(raw_bonds):
        bond = parse_map(raw, source=levels[i + 1], target=levels[i], context="%s.bonds[%d]" % (context, i))
        if not isinstance(bond, QSMap):
            raise InputFormatError("bonds must be quasi-simplicial (subdivide_target true)", context)
        bonds.append(bond)
    scales = None
    if "scales" in obj:
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


def parse_point(obj, complex_: Complex, context="point") -> Point:
    if not isinstance(obj, dict) or "coords" not in obj:
        raise InputFormatError("a point is {'coords': {...}, 'scale': 'p/q'}", context)
    coords = {}
    for key, value in obj["coords"].items():
        coords[parse_vertex_key(key, context)] = parse_fraction(value, context)
    scale = parse_fraction(obj.get("scale", "1"), context)
    try:
        return make_point(complex_, coords, scale)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def plmap_to_obj(f: PartialPLMap, include_complexes: bool = True) -> dict:
    out = {
        "defined_on": subcomplex_to_obj(f.defined_on),
        "vertex_points": {vertex_to_key(v): point_to_obj(p) for v, p in f.images},
    }
    if include_complexes:
        out["domain"] = complex_to_obj(f.domain)
        out["target"] = complex_to_obj(f.target)
    return out


def parse_plmap(obj, domain: Complex | None = None, target: Complex | None = None, context="plmap") -> PartialPLMap:
    if not isinstance(obj, dict):
        raise InputFormatError("a PL map is an object", context)
    if domain is None:
        domain = parse_complex(obj.get("domain"), context + ".domain")
    if target is None:
        target = parse_complex(obj.get("target"), context + ".target")
    if "defined_on" in obj:
        defined = subcomplex_from(domain, [
            [parse_vertex(v, context) for v in s] for s in obj["defined_on"]
        ])
    else:
        from .complexes import whole_subcomplex

        defined = whole_subcomplex(domain)
    raw = obj.get("vertex_points")
    if not isinstance(raw, dict):
        raise InputFormatError("missing 'vertex_points'", context)
    images = {}
    for key, value in raw.items():
        images[parse_vertex_key(key, context)] = parse_point(value, target, context)
    try:
        return PartialPLMap.build(domain, defined, images, target)
    except ValueError as exc:
        raise InputFormatError(str(exc), context)


def homotopy_to_obj(result) -> dict:
    """Serialized homotopy certificate: the prism triangulation, its vertex
    images, and the cover element tracking each domain point's path."""
    out = {"status": verdict_to_obj(result.status)}
    if result.prism is not None:
        out["prism"] = complex_to_obj(result.prism)
    if result.map is not None:
        out["vertex_images"] = {
            vertex_to_key(v): point_to_obj(p) for v, p in result.map.images
        }
    out["path_witnesses"] = {
        vertex_to_key(s): vertex_to_key(w) for s, w in sorted(
            result.path_witnesses.items(), key=lambda kv: str(kv[0])
        )
    }
    return out


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
    if isinstance(value, RegularityReport):
        return value.to_obj()
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
    return json.dumps(_plain(obj), indent=2, sort_keys=True, ensure_ascii=True) + "\n"


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
