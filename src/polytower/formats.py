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
from json.encoder import c_make_encoder, encode_basestring_ascii as _encode_str

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


def vertex_to_key(name) -> str:
    """Stable string form usable as a JSON object key."""
    if isinstance(name, str):
        return name
    return _compact(name)


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


def __getattr__(name):
    # `bench/trace_cli.py` looks this up here, where it lived before the
    # readers moved to `readers`
    if name == "parse_tower":
        from . import readers

        return readers.parse_tower
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
