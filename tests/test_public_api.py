"""The library is what the commands run: every name in `polytower.__all__`
is used by the package's own code, so public code that only tests call
cannot accumulate in `src/` (such oracles belong in `tests/util.py`)."""
import ast
from pathlib import Path

import polytower

SRC = Path(polytower.__file__).parent


def references() -> dict:
    """Each name read in the package's code (as a name or an attribute) ->
    the (module, enclosing definitions) pairs where it is read."""
    out: dict = {}
    for path in sorted(SRC.glob("*.py")):

        def walk(node, owners):
            for child in ast.iter_child_nodes(node):
                inner = owners
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = owners | {child.name}
                if isinstance(child, ast.Name):
                    out.setdefault(child.id, []).append((path.stem, owners))
                elif isinstance(child, ast.Attribute):
                    out.setdefault(child.attr, []).append((path.stem, owners))
                walk(child, inner)

        walk(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return out


def test_every_public_name_has_a_caller_in_the_package():
    refs = references()
    unused = [
        name
        for name in polytower.__all__
        if all(module == polytower._HOME[name] and name in owners for module, owners in refs.get(name, ()))
    ]
    assert unused == []

