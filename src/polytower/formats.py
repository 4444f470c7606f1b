"""Canonical JSON formats for complexes, maps, covers, towers, and reports:
the writers.  The readers, which validate input documents, are in
`readers`, so a command that reads no document (`gen`) does not load them.

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
from json.encoder import encode_basestring_ascii as _encode_str

from .complexes import vertex_to_key
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


# ---------------------------------------------------------------------------
# complexes, maps and towers: names as the complex holds them, which
# `dumps_canonical` renders once per depth


def complex_to_obj(complex_: Complex) -> dict:
    # the vertex tuple and each maximal simplex occur once in a document, so
    # they are lists, which `dumps_canonical` renders without a memo lookup
    return {"vertices": list(complex_.vertices), "maximal": [list(s) for s in complex_.maximal]}


def map_to_obj(m: QSMap, include_complexes: bool = True) -> dict:
    out = {
        "subdivide_target": True,
        "vertex_images": {vertex_to_key(v): w for v, w in m.assignment},
    }
    if include_complexes:
        out["source"] = complex_to_obj(m.source)
        out["target"] = complex_to_obj(m.base_target)
    return out


def tower_to_obj(tower: Tower) -> dict:
    return {
        "levels": [complex_to_obj(level) for level in tower.levels],
        "bonds": [map_to_obj(bond, False) for bond in tower.bonds],
        "scales": [fraction_to_str(s) for s in tower.scales],
        "cover": tower.cover_kind,
    }


# ---------------------------------------------------------------------------
# points and PL maps


def point_to_obj(point: Point) -> dict:
    return {
        "coords": {vertex_to_key(v): fraction_to_str(c) for v, c in point.coords},
        "scale": fraction_to_str(point.scale),
    }


def plmap_to_obj(f: PartialPLMap) -> dict:
    return {
        "defined_on": f.defined_on.sorted_simplices(),
        "vertex_points": {vertex_to_key(v): point_to_obj(p) for v, p in f.images},
    }


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
        return {k if isinstance(k, str) else vertex_to_key(_plain(k)): _plain(v) for k, v in value.items()}
    return value


def dumps_canonical(obj) -> str:
    """`json.dumps(_plain(obj), indent=2, sort_keys=True, ensure_ascii=True)`
    and a newline, rendered in one pass.  A tuple whose leaves are all
    strings, such as a vertex name, is rendered once per nesting depth."""
    tuples: dict = {}  # (tuple, depth) -> text

    def render(value, depth):
        if isinstance(value, str):
            return _encode_str(value)
        if isinstance(value, (list, tuple)):
            return sequence(value, depth)[0]
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = {k if isinstance(k, str) else vertex_to_key(_plain(k)): v for k, v in value.items()}
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
        key = (seq, depth) if isinstance(seq, tuple) else None
        if key is not None:
            try:
                text = tuples.get(key)
            except TypeError:  # it holds a list or another unhashable value
                key = text = None
            if text is not None:
                return text, True
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
        if pure and key is not None:
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


def __getattr__(name):
    # `bench/trace_cli.py` looks this up here, where it lived before the
    # readers moved to `readers`
    if name == "parse_tower":
        from . import readers

        return readers.parse_tower
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
