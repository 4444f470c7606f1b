"""polytower benchmark: time to a correct verdict for cold CLI runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is deep-tower, tower-corpus, lift or all.  Run it from anywhere; it
works on the checkout that holds this file, whose `src/` must hold the
package.  Every operation is one fresh `python3 -m polytower.cli` process, as
a user runs it, so the package's caches start empty each time.  Inputs are
made by `polytower gen` (and, for lift, spec files written here) from the
seed; the same seed gives the same inputs.

Each run sets up its inputs (three times without tracing, so set-up time is a
median), then runs passes over the workload's operations until --seconds
have gone by, at least two passes.  Every operation's exit code and verdict
status are checked against the input's known answer, and the sha256 of its
output must be the same in every pass.  With --trace 1 the passes alternate
between plain processes and processes started through bench/trace_cli.py,
and the per-layer figures come from the traced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record (every operation, digests,
environment) goes to .bench_work/results/.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from make_strata import triangle_count
from trace_cli import BOUNDARY, COUNTER_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
MIN_PASSES = 2
OP_LIMIT_S = 60.0  # one operation; deep-tower takes about 14 s
RUN_DEADLINE_S = 150.0  # no operation starts or runs past this point of a run
TAIL_SAMPLES = 10  # the tail percentile needs this many samples beyond it

# random-tower seeds drawn per group of bench/strata.json (base triangles)
CORPUS_QUOTA = {"0": 4, "1": 10, "2": 2}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_metric_units() -> dict:
    units = {}
    for module, names in BOUNDARY.items():
        for name in names:
            units["%s.%s.self_s" % (module, name)] = "s"
            units["%s.%s.calls" % (module, name)] = "count"
    for name in COUNTER_NAMES:
        units[name] = "B" if name == "formats.bytes_out" else "count"
    units["stars.nerve.useful_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One CLI invocation in a pass and the verdict its input is known to have."""

    name: str
    args: list
    exit: int
    status: str


@dataclass
class Workload:
    """Files to write and `polytower gen` commands to run at set-up, then
    the operations of one pass.  Paths are relative to the input directory."""

    files: dict = field(default_factory=dict)
    gens: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    # generated file -> number of base triangles it must have
    base_triangles: dict = field(default_factory=dict)


def triangle_names(workload: str, seed: int) -> list:
    """Three distinct one-letter vertex names chosen by the seed, so that
    the input varies with the seed while the work does not."""
    rng = random.Random("%s:%d" % (workload, seed))
    return rng.sample("abcdefghijklmnopqrstuvwxyz", 3)


def triangle_base(names) -> str:
    return json.dumps({"vertices": [], "maximal": [list(names)]})


def deep_tower(seed: int) -> Workload:
    w = Workload(files={"base.json": triangle_base(triangle_names("deep-tower", seed))})
    w.gens.append(["gen", "subdivision-tower", "--base", "base.json", "--levels", "4", "-o", "tower.json"])
    w.ops.append(Op("verify triangle depth 4 n=2", ["verify-tower", "tower.json", "--n", "2"], 0, "holds"))
    return w


def corpus_seeds(seed: int) -> list:
    groups = json.loads((BENCH / "strata.json").read_text(encoding="utf-8"))["seeds_by_base_triangles"]
    rng = random.Random("tower-corpus:%d" % seed)
    chosen = []
    for group, count in CORPUS_QUOTA.items():
        chosen += [(s, int(group)) for s in rng.sample(groups[group], count)]
    return sorted(chosen)


def tower_corpus(seed: int) -> Workload:
    w = Workload()
    for tower_seed, triangles in corpus_seeds(seed):
        path = "random-%d.json" % tower_seed
        w.gens.append(["gen", "random-tower", "--seed", str(tower_seed), "--levels", "3", "-o", path])
        w.base_triangles[path] = triangles
        w.ops.append(Op("verify random-tower %d n=2" % tower_seed, ["verify-tower", path, "--n", "2"], 0, "holds"))
    w.gens.append(["gen", "cylinder-tower", "-o", "cylinder.json"])
    w.ops.append(Op("verify cylinder n=2", ["verify-tower", "cylinder.json", "--n", "2"], 1, "fails"))
    w.ops.append(Op("verify cylinder n=1", ["verify-tower", "cylinder.json", "--n", "1"], 0, "holds"))
    for base, levels, n in (("tetrahedron", 2, 3), ("rp2", 2, 2), ("circle", 4, 1)):
        path = "%s.json" % base
        w.gens.append(["gen", "subdivision-tower", "--base", base, "--levels", str(levels), "-o", path])
        w.ops.append(Op("verify %s depth %d n=%d" % (base, levels, n), ["verify-tower", path, "--n", str(n)], 0, "holds"))
    return w


def vertex_key(name) -> str:
    return name if isinstance(name, str) else json.dumps(name, separators=(",", ":"))


def lift_spec(edges, images: dict, depth: int) -> str:
    """Lift the map sending x_i to vertex images[x_i] of the base triangle,
    anchoring x0 on the thread a, (a,), ((a,),), ... of its image."""
    points = {x: {"coords": {images[x]: "1"}, "scale": "1"} for x in sorted({x for e in edges for x in e})}
    thread, vertex = [], images["x0"]
    for _ in range(depth):
        thread.append({"coords": {vertex_key(vertex): "1"}, "scale": "1"})
        vertex = [vertex]
    spec = {
        "domain": {"vertices": [], "maximal": edges},
        "f1": {"vertex_points": points},
        "anchor": [["x0"]],
        "threads": {"x0": thread},
    }
    return json.dumps(spec, sort_keys=True)


def lift(seed: int) -> Workload:
    a, b, c = triangle_names("lift", seed)
    images = {"x0": a, "x1": b, "x2": c}
    edge = [["x0", "x1"]]
    loop = [["x0", "x1"], ["x1", "x2"], ["x0", "x2"]]
    triangle = [["x0", "x1", "x2"]]
    w = Workload(files={"base.json": triangle_base((a, b, c))})
    for levels in (2, 3, 4):
        w.gens.append(["gen", "subdivision-tower", "--base", "base.json", "--levels", str(levels), "-o", "tower-%d.json" % levels])
    cases = (
        ("edge", edge, 4, 0, "holds"),
        ("loop", loop, 3, 0, "holds"),
        ("triangle", triangle, 2, 0, "holds"),
        # no cover element contains some image hull after one subdivision
        ("triangle", triangle, 3, 2, "inconclusive"),
    )
    for shape, edges, depth, code, status in cases:
        spec = "spec-%s-%d.json" % (shape, depth)
        w.files[spec] = lift_spec(edges, images, depth)
        args = ["lift", "tower-%d.json" % depth, "--spec", spec, "--n", "2"]
        w.ops.append(Op("lift %s depth %d" % (shape, depth), args, code, status))
    return w


WORKLOADS = {"deep-tower": deep_tower, "tower-corpus": tower_corpus, "lift": lift}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    exit: int
    wall: float
    cpu: float
    rss_kb: int
    timed_out: bool


def spawn(argv, cwd: Path, stdout: Path, stderr: Path, limit: float) -> Proc:
    """Run argv to completion, killing it after `limit` seconds; wall time
    runs from spawn to exit, CPU and peak memory come from wait4."""
    env = {k: v for k, v in os.environ.items() if k != "POLYTOWER_BUDGETS"}
    env["PYTHONPATH"] = str(SRC)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(limit, 0.0), kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen never waits again
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, state["killed"])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One invocation of the benchmark on one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = WORK / ("%s-seed%d-trace%d" % (workload, seed, int(trace)))
        self.start = perf_counter()
        self.errors: list = []
        self.records: list = []  # one per operation run in a pass

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (perf_counter() - self.start)

    def cli(self, args, cwd: Path, out_stem: Path, trace_file: Path | None = None) -> tuple:
        if trace_file is None:
            argv = [sys.executable, "-m", "polytower.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_file), *args]
        limit = min(OP_LIMIT_S, self.remaining())
        stdout, stderr = out_stem.with_suffix(".out"), out_stem.with_suffix(".err")
        return spawn(argv, cwd, stdout, stderr, limit), stdout

    # -- set-up ---------------------------------------------------------------

    def setup(self, spec: Workload) -> tuple:
        """Make the inputs SETUP_REPS times (once when tracing); every
        repetition must give byte-identical files.  Returns the input
        directory, the wall and the CPU seconds of each repetition, and the
        inputs' digests."""
        reps = 1 if self.trace else SETUP_REPS
        walls, cpus, digests = [], [], None
        for rep in range(reps):
            inputs = self.dir / ("inputs-%d" % rep)
            inputs.mkdir(parents=True)
            logs = self.dir / ("setup-logs-%d" % rep)
            logs.mkdir()
            start, cpu = perf_counter(), 0.0
            for name, text in spec.files.items():
                (inputs / name).write_text(text, encoding="utf-8")
            for i, args in enumerate(spec.gens):
                proc, _ = self.cli(args, inputs, logs / ("gen-%d" % i))
                cpu += proc.cpu
                if proc.exit != 0:
                    self.errors.append("set-up %r exited %d%s" % (args, proc.exit, " (time limit)" * proc.timed_out))
            walls.append(perf_counter() - start)
            cpus.append(cpu)
            made = {p.name: sha256(p) for p in sorted(inputs.iterdir())}
            if digests is None:
                digests = made
            elif made != digests:
                self.errors.append("set-up repetition %d made different files" % rep)
        for path, triangles in spec.base_triangles.items():
            try:
                found = triangle_count(json.loads((inputs / path).read_text(encoding="utf-8")))
            except (OSError, ValueError, KeyError, IndexError, TypeError):
                found = None
            if found != triangles:
                self.errors.append(
                    "%s has %s base triangles, bench/strata.json says %d; rebuild it with bench/make_strata.py"
                    % (path, found, triangles)
                )
        return inputs, walls, cpus, digests

    # -- passes ---------------------------------------------------------------

    def run_pass(self, spec: Workload, inputs: Path, index: int, traced: bool) -> dict:
        out_dir = self.dir / ("pass-%d" % index)
        out_dir.mkdir()
        walls, cpus, rss, traces = [], [], [], []
        for i, op in enumerate(spec.ops):
            trace_file = out_dir / ("op-%d.trace.json" % i) if traced else None
            record = {"pass": index, "traced": traced, "op": op.name, "args": op.args}
            if self.remaining() <= 0:
                record["error"] = "run deadline passed before the operation started"
                self.records.append(record)
                continue
            proc, stdout = self.cli(op.args, inputs, out_dir / ("op-%d" % i), trace_file)
            record.update(exit=proc.exit, wall_s=proc.wall, cpu_s=proc.cpu, maxrss_kb=proc.rss_kb, sha256=sha256(stdout))
            record["status"], problem = check_output(op, proc, stdout)
            if problem:
                record["error"] = problem
            self.records.append(record)
            walls.append(proc.wall)
            cpus.append(proc.cpu)
            rss.append(proc.rss_kb)
            if traced and not proc.timed_out and trace_file.exists():
                traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
        return {"traced": traced, "wall_s": sum(walls), "cpu_s": sum(cpus), "op_walls": walls, "rss_kb": rss, "traces": traces}

    def check_digests(self) -> None:
        """An operation must print the same bytes in every pass, traced or not."""
        first = {}
        for record in self.records:
            if "sha256" not in record:
                continue
            seen = first.setdefault(record["op"], record["sha256"])
            if record["sha256"] != seen and "error" not in record:
                record["error"] = "output differs from the first pass"

    def execute(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        spec = WORKLOADS[self.workload](self.seed)
        loadavg_start = loadavg()
        inputs, setup_walls, setup_cpus, input_digests = self.setup(spec)
        passes = []
        measure_start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - measure_start < self.seconds:
            if self.remaining() <= 0:
                self.errors.append("run deadline reached after %d passes" % len(passes))
                break
            traced = self.trace and len(passes) % 2 == 1
            passes.append(self.run_pass(spec, inputs, len(passes), traced))
        self.check_digests()
        failed = sum(1 for r in self.records if "error" in r)
        plain = [p for p in passes if not p["traced"]]
        if self.trace:
            metrics = layer_metrics(plain, [p for p in passes if p["traced"]])
        else:
            metrics = end_to_end_metrics(plain, setup_cpus)
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": environment(loadavg_start),
            "setup_wall_s": setup_walls,
            "setup_cpu_s": setup_cpus,
            "input_sha256": input_digests,
            "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"]} for p in passes],
            "op_samples": sum(len(p["op_walls"]) for p in plain),
            "operations": self.records,
            "output_sha256": {r["op"]: r["sha256"] for r in self.records if "sha256" in r},
            "errors": self.errors,
            "failed_ratio": failed / max(len(self.records), 1),
            "metrics": metrics,
        }
        return {
            "correct": not self.errors and failed == 0 and bool(self.records),
            "attempted": len(self.records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "detail": detail,
        }


def check_output(op: Op, proc: Proc, stdout: Path) -> tuple:
    """(verdict status, problem or None) for one operation's output."""
    if proc.timed_out:
        return None, "time limit passed"
    try:
        report = json.loads(stdout.read_text(encoding="utf-8"))
        verdict = report["conclusion"] if op.args[0] == "verify-tower" else report["status"]
        status = verdict["status"]
    except (OSError, ValueError, KeyError, TypeError):
        return None, "exit %d without a verdict" % proc.exit
    if (proc.exit, status) != (op.exit, op.status):
        return status, "expected exit %d %s, got exit %d %s" % (op.exit, op.status, proc.exit, status)
    if status == "fails" and not verdict.get("witness"):
        return status, "fails without a witness"
    if status == "inconclusive" and not verdict.get("reason"):
        return status, "inconclusive without a reason"
    return status, None


# ---------------------------------------------------------------------------
# metrics


def tail(passes: list) -> float:
    """The highest of p99/p95/p90/p75/p50 of the pooled operation times with
    at least TAIL_SAMPLES samples beyond it, by nearest rank.  With too few
    samples for any of them, the median over passes of each pass's slowest
    operation."""
    ordered = sorted(w for p in passes for w in p["op_walls"])
    for pct in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - pct) / 100 >= TAIL_SAMPLES:
            return ordered[-(-len(ordered) * pct // 100) - 1]
    return statistics.median(max(p["op_walls"]) for p in passes)


def end_to_end_metrics(passes: list, setup_cpus: list) -> dict:
    passes = [p for p in passes if p["op_walls"]]
    if not passes:
        return {}
    op_walls = [w for p in passes for w in p["op_walls"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_s": statistics.median(op_walls),
        "op_tail_s": tail(passes),
        "peak_rss_mb": max(kb for p in passes for kb in p["rss_kb"]) / 1024,
        "setup_s": statistics.median(setup_cpus),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def layer_metrics(plain: list, traced: list) -> dict:
    """Per-layer sums over a traced pass, the median over traced passes."""
    units = layer_metric_units()
    per_pass = []
    for p in traced:
        totals = dict.fromkeys(units, 0)
        for trace in p["traces"]:
            for name, (calls, _, self_s) in trace["spans"].items():
                totals[name + ".calls"] += calls
                totals[name + ".self_s"] += self_s
            for name, count in trace["counters"].items():
                totals[name] += count
        checked = totals["stars.nerve.subsets_checked"]
        totals["stars.nerve.useful_ratio"] = totals["stars.nerve.simplices"] / checked if checked else 0.0
        imports = [t["import_s"] for t in p["traces"]]
        totals["cli.import_s"] = statistics.median(imports) if imports else 0.0
        per_pass.append(totals)
    if not per_pass or not plain:
        return {}
    values = {k: statistics.median(t[k] for t in per_pass) for k in units}
    values["trace.overhead"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    return {k: (values[k], units[k]) for k in units}


# ---------------------------------------------------------------------------
# environment and entry point


def loadavg():
    try:
        return Path("/proc/loadavg").read_text(encoding="utf-8").split()[:3]
    except OSError:
        return None


def environment(loadavg_start) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "polytower").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": loadavg(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def format_metric(name: str, metric: dict) -> str:
    value = metric["value"]
    text = "%d" % value if isinstance(value, int) else "%.6f" % value
    return "%-48s %14s %s" % (name, text, metric["unit"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polytower" / "cli.py").is_file():
        sys.stderr.write("no polytower package under %s; run the benchmark from a full checkout\n" % SRC)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
        detail = result.pop("detail")
        out = WORK / "results" / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(dict(result, detail=detail), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print("# %s  seed %d  correct %s  attempted %d  failed %d  record %s" % (
            name, args.seed, result["correct"], result["attempted"], result["failed"], out.relative_to(ROOT)))
        for error in detail["errors"] + [r["op"] + ": " + r["error"] for r in detail["operations"] if "error" in r]:
            print("#   error: %s" % error)
        for metric, value in result["metrics"].items():
            print(format_metric(metric if len(names) == 1 else "%s.%s" % (name, metric), value))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
