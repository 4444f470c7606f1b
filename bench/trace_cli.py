"""Run one `polytower` command with spans around the layer-boundary functions.

    python3 bench/trace_cli.py TRACE_OUT.json CLI_ARG...

The command runs in this fresh process exactly as `python3 -m polytower.cli
CLI_ARG...` would: same output, same exit code, caches starting empty.  Each
function named in BOUNDARY is replaced, in every `polytower.*` namespace that
holds it, by a wrapper that records its calls, its total time and its self
time (total minus the time of boundary calls made inside it).  Counters are
read from return values and arguments, never from the program's internals.
Hot helpers such as `vertex_key` are left alone, so the overhead stays small.
When the command ends, TRACE_OUT.json receives the figures.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from time import perf_counter

# module -> public functions that a layer's callers go through
BOUNDARY = {
    "complexes": ["barycentric_subdivision"],
    "stars": [
        "cover_B",
        "mesh",
        "cone_geodesic_diameter_bound",
        "pullback_cover",
        "nerve",
        "element_contains_hull",
    ],
    "towers": ["summability_report", "regularity_report", "single_lift", "tower_lift", "verify_tower"],
    "maps": [
        "induced_homology_map",
        "lipschitz_constant",
        "preimage_subcomplex",
        "is_surjective",
        "check_quasi_simplicial",
    ],
    "connectivity": ["homology_coordinates", "subcomplex_verdict", "pi1_verdict", "homology", "tietze_simplify"],
    "snf": ["smith_normal_form", "solve_matrix"],
    "carriers": ["validate_carrier", "is_carried", "extend_carried"],
    "formats": ["parse_tower", "tower_to_obj", "dumps_canonical"],
}


def _count_nerve(counters, result, args, kwargs):
    counters["stars.nerve.subsets_checked"] += result.subsets_checked
    if result.complex is not None:
        counters["stars.nerve.simplices"] += len(result.complex.simplices)


def _count_verdict(counters, result, args, kwargs):
    counters["connectivity.subcomplex_verdict." + result.status] += 1


def _count_tietze(counters, result, args, kwargs):
    _, steps, exhausted = result
    counters["connectivity.tietze_simplify.steps"] += steps
    counters["connectivity.tietze_simplify.exhausted"] += int(bool(exhausted))


def _count_cells(counters, result, args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    cols = args[1] if len(args) > 1 else kwargs.get("cols")
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    counters["snf.smith_normal_form.cells"] += len(matrix) * cols


def _count_bytes(counters, result, args, kwargs):
    counters["formats.bytes_out"] += len(result.encode("utf-8"))


COUNTERS = {
    "stars.nerve": _count_nerve,
    "connectivity.subcomplex_verdict": _count_verdict,
    "connectivity.tietze_simplify": _count_tietze,
    "snf.smith_normal_form": _count_cells,
    "formats.dumps_canonical": _count_bytes,
}

# every counter a trace file can hold, so that absent work reads as 0
COUNTER_NAMES = [
    "stars.nerve.subsets_checked",
    "stars.nerve.simplices",
    "connectivity.subcomplex_verdict.holds",
    "connectivity.subcomplex_verdict.fails",
    "connectivity.subcomplex_verdict.inconclusive",
    "connectivity.tietze_simplify.steps",
    "connectivity.tietze_simplify.exhausted",
    "snf.smith_normal_form.cells",
    "formats.bytes_out",
]


class Recorder:
    """Per-function [calls, total seconds, self seconds] and counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._open: list[float] = []  # time spent in child spans, per open span

    def wrap(self, name, fn, count=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if count is not None:
                count(counters, result, args, kwargs)
            return result

        return traced


def instrument(recorder: Recorder) -> None:
    import polytower

    for info in pkgutil.iter_modules(polytower.__path__):
        importlib.import_module("polytower." + info.name)
    namespaces = [m for n, m in sys.modules.items() if n == "polytower" or n.startswith("polytower.")]
    for module, names in BOUNDARY.items():
        home = sys.modules["polytower." + module]
        for name in names:
            original = getattr(home, name)
            key = "%s.%s" % (module, name)
            traced = recorder.wrap(key, original, COUNTERS.get(key))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 3
    out_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    cli = importlib.import_module("polytower.cli")
    import_s = perf_counter() - start
    recorder = Recorder()
    instrument(recorder)
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": recorder.spans, "counters": recorder.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
