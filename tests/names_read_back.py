"""Every name a polytower document prints reads back.

An object key that begins with '[' spells a nested vertex name, or a simplex
of names, as its compact JSON: `readers.parse_vertex_key` must read it and
`complexes.vertex_to_key` must spell what it read as the same text.  No key
may be a Python repr of a list or a tuple (one that begins with "['" or
"('").  Run it on written documents:

    PYTHONPATH=src python tests/names_read_back.py OUTPUT.json ...

It prints each key that does not read back, with its file, and exits 1 if
there is one, 0 otherwise.
"""
from __future__ import annotations

import json
import sys

from polytower.complexes import vertex_to_key
from polytower.formats import InputFormatError
from polytower.readers import parse_vertex_key


def unreadable_keys(document) -> list:
    """The object keys anywhere in a JSON document that do not read back."""
    bad = []
    stack = [document]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            bad.extend(key for key in value if not reads_back(key))
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return bad


def reads_back(key: str) -> bool:
    if key.startswith(("['", "('")):
        return False
    if not key.startswith("["):
        return True
    try:
        return vertex_to_key(parse_vertex_key(key)) == key
    except InputFormatError:
        return False


def main(paths) -> int:
    failed = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for key in unreadable_keys(json.load(handle)):
                print("%s: key %r does not read back as a name" % (path, key))
                failed += 1
    print("%d files, %d keys that do not read back" % (len(paths), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
