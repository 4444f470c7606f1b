"""Rebuild bench/strata.json, the table of `polytower gen random-tower` seeds
grouped by how many triangles their base complex has.

The tower-corpus workload draws a fixed number of seeds from each group, so
that every workload seed gives a corpus with the same mix of tower sizes and
run-to-run spread reflects the program, not the draw.  Run from the root of
the repository:

    python3 bench/make_strata.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = 256


def base_triangles(seed: int, env: dict) -> int:
    out = subprocess.run(
        [sys.executable, "-m", "polytower.cli", "gen", "random-tower", "--seed", str(seed), "--levels", "1"],
        env=env, capture_output=True, check=True,
    ).stdout
    return triangle_count(json.loads(out))


def triangle_count(tower: dict) -> int:
    return sum(1 for simplex in tower["levels"][0]["maximal"] if len(simplex) == 3)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    groups: dict[str, list[int]] = {}
    for seed in range(POOL):
        groups.setdefault(str(base_triangles(seed, env)), []).append(seed)
    rows = ",\n".join('  "%s": %s' % (k, json.dumps(v)) for k, v in sorted(groups.items()))
    text = '{\n "pool": %d,\n "seeds_by_base_triangles": {\n%s\n }\n}\n' % (POOL, rows)
    (ROOT / "bench" / "strata.json").write_text(text, encoding="utf-8")
    print({k: len(v) for k, v in sorted(groups.items())})
    return 0


if __name__ == "__main__":
    sys.exit(main())
