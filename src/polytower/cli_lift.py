"""Handler of the `lift` command: reads a tower and a lift specification
(the domain, the map into the first level, the anchored subcomplex and the
threads through the levels) and returns the stagewise lift's report and
status, which `cli.main` emits and exits on.
"""
from __future__ import annotations

from . import formats, readers
from .complexes import subcomplex_from, vertex_to_key
from .lifts import ThreadApprox, tower_lift


def cmd_lift(args) -> tuple:
    tower = readers.parse_tower(readers.load_json(args.input))
    spec = readers.load_json(args.spec)
    if not isinstance(spec, dict):
        raise formats.InputFormatError("a lift specification is an object", "lift")
    domain = readers.parse_complex(spec.get("domain"), "lift.domain")
    f1 = readers.parse_plmap(spec.get("f1"), domain=domain, target=tower.levels[0], context="lift.f1")
    defined = subcomplex_from(domain, readers.parse_simplices(spec.get("anchor", []), "lift.anchor"))
    raw_threads = spec.get("threads", {})
    if not isinstance(raw_threads, dict) or not all(isinstance(rows, list) for rows in raw_threads.values()):
        raise formats.InputFormatError("threads map vertex keys to lists of points", "lift.threads")
    threads = {}
    for key, rows in raw_threads.items():
        v = readers.parse_vertex_key(key, "lift.threads")
        if len(rows) > len(tower.levels):
            raise formats.InputFormatError(
                "a thread lists more points than the tower has levels", "lift.threads[%s]" % key
            )
        threads[v] = [
            readers.parse_point(row, tower.levels[i], "lift.threads[%s][%d]" % (key, i))
            for i, row in enumerate(rows)
        ]
    for v in defined.vertices:
        if v not in threads:
            raise formats.InputFormatError("no thread for anchored vertex %s" % vertex_to_key(v), "lift.threads")
    g0 = ThreadApprox(tower, threads)
    result = tower_lift(tower, f1, defined, g0, args.n, args.budgets)
    report = {
        "command": "lift",
        "status": result.status,
        "anchored_exactly": result.anchored_exactly,
        "stages": [
            {"stage": s["stage"], "closeness": s["closeness"], "lift": formats.plmap_to_obj(s["lift"])}
            for s in result.stages
        ],
        "cauchy": result.cauchy,
    }
    return report, result.status.status
