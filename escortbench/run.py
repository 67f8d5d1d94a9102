#!/usr/bin/env python3
"""The Escort benchmark: host cost per simulated event and defended goodput.

Run from the root of the repository:

  python3 escortbench/run.py --workload serve_10k --seed 0 --seconds 25 --trace 0
  python3 escortbench/run.py --self-check

The first run builds the simulator from ./src and the benchmark binary in
./escortbench with CMake (Release) under $CARGO_TARGET_DIR/escortbench,
default .bench_build/escortbench. Each run then executes one workload in
its own process for --seconds of host time, prints every metric by name
with its unit and, as the last line, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
BENCHMARK.json lists both with their units and directions; catalog.json
adds what each one is and what it should move. attempted/failed count
simulation runs; a run fails when its cycle ledger does not conserve, when
the digest of its simulated results differs from the first run's (traced
or untraced), or when a traced run's layer parts do not sum to its wall
time.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CATALOG = BENCH_DIR / "catalog.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SELF_CHECK_ARGS = ["--seconds", "0.01", "--warmup-s", "0.05", "--window-s", "0.15"]


def fail(msg):
    print(f"escortbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Bench:
    """BENCHMARK.json (names, units, directions, bounds) and catalog.json
    (everything else about the workloads and metrics)."""

    def __init__(self):
        self.spec = load_json(BENCHMARK_JSON)
        self.cat = load_json(CATALOG)
        self.end_to_end = self.spec["end_to_end"]
        # The simulated outcomes can read 0 (the livelocked crowd has no
        # goodput, most workloads have no QoS stream), so BENCHMARK.json
        # lists them with the per-layer metrics, which carry no bound.
        self.per_layer = self.spec["per_layer"]
        self.units = {m["name"]: m["unit"] for m in self.end_to_end + self.per_layer}

    def metrics(self, trace):
        return self.end_to_end if trace == 0 else self.per_layer


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "escortbench"


def build():
    """Configures and builds escort_perf; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(out), "--target", "escort_perf", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "escort_perf"


def run_binary(exe, workload, seed, seconds, trace, extra=()):
    env = {k: v for k, v in os.environ.items()
           if k not in ("ESCORT_WARMUP_S", "ESCORT_WINDOW_S")}
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace == 1 and "--spans" not in extra:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}.csv")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{workload}: escort_perf exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: escort_perf printed nothing")
    return json.loads(lines[-1])


def complete(bench, raw, trace):
    """Catalog metrics of this mode, from the binary's output.

    A ledger account a workload never charged is absent from its ledger;
    its share is 0. An account BENCHMARK.json does not list (a change to
    the simulator may add one) is a note, not a problem. Returns (values,
    problems, notes)."""
    values, problems, notes = {}, [], []
    got = raw["metrics"]
    for m in bench.metrics(trace):
        name = m["name"]
        if name in got:
            values[name] = got[name]
        elif name.startswith("kernel.cycles_frac."):
            values[name] = 0.0
        else:
            problems.append(f"metric {name} missing")
            continue
        if not isinstance(values[name], (int, float)) or not math.isfinite(values[name]):
            problems.append(f"metric {name} is not a finite number")
    for name in got:
        if name in bench.units:
            continue
        if name.startswith("kernel.cycles_frac."):
            notes.append(f"ledger account {name} = {got[name]:.6g} is not in BENCHMARK.json")
        else:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return values, problems, notes


def digest_note(cat, raw):
    rec = cat.get("recorded", {}).get(raw["workload"], {})
    if raw["seed"] != cat["default_seed"] or "digest" not in rec:
        return "no recorded digest for this seed"
    if rec["digest"] == raw["digest"]:
        return "matches the recorded seed-commit digest"
    return f"differs from the recorded seed-commit digest {rec['digest']}"


def report(bench, raw, trace):
    values, problems, notes = complete(bench, raw, trace)
    units = bench.units
    spec = raw["spec"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace {trace}: "
          + ", ".join(f"{k}={v}" for k, v in spec.items()))
    print(f"runs attempted {raw['attempted']}, failed {raw['failed']}; "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw["info"].items()))
    for why in raw["failures"]:
        print(f"FAILED: {why}")
    print(f"digest {raw['digest']}: {digest_note(bench.cat, raw)}")
    # Every metric the run measured, by name with its unit: both modes
    # print the end-to-end metrics and the simulated outcomes.
    for m in bench.end_to_end + bench.per_layer:
        name = m["name"]
        v = values.get(name, raw["metrics"].get(name))
        if v is not None:
            print(f"  {name:34s} {v:>18.6g} {m['unit']}")
    for n in notes:
        print(f"NOTE: {n}")
    for p in problems:
        print(f"PROBLEM: {p}")
    correct = raw["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))


def self_check(bench, exe):
    """Short runs of every workload in both modes; fails on a metric without
    a unit, direction or catalog entry, a missing metric, or a failed run."""
    problems = []
    for m in bench.end_to_end + bench.per_layer:
        for key in ("name", "unit", "better"):
            if not m.get(key):
                problems.append(f"metric {m.get('name')} has no {key}")
        if m.get("better") not in ("higher", "lower"):
            problems.append(f"metric {m.get('name')} has direction {m.get('better')}")
    for m in bench.end_to_end:
        if not 0 < m.get("bound", 0) <= 0.25:
            problems.append(f"end-to-end metric {m['name']} has bound {m.get('bound')}")
    described = set(bench.cat["metrics"])
    problems += [f"metric {n} has no catalog entry" for n in sorted(set(bench.units) - described)]
    problems += [f"catalog entry {n} names no metric" for n in sorted(described - set(bench.units))]
    names = [w["name"] for w in bench.spec["workloads"]]
    if sorted(names) != sorted(bench.cat["workloads"]):
        problems.append("BENCHMARK.json and catalog.json list different workloads")
    for name in names:
        digests = set()
        for trace in (0, 1):
            raw = run_binary(exe, name, bench.cat["default_seed"], 0.01, trace,
                             SELF_CHECK_ARGS)
            digests.add(raw["digest"])
            _, found, notes = complete(bench, raw, trace)
            problems += [f"{name} trace {trace}: {p}"
                         for p in found + notes + raw["failures"]]
            if raw["failed"]:
                problems.append(f"{name} trace {trace}: {raw['failed']} runs failed")
        if len(digests) != 1:
            problems.append(f"{name}: digests differ between modes: {sorted(digests)}")
        print(f"self-check {name}: digest {' '.join(sorted(digests))}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    bench = Bench()
    exe = build()
    if args.self_check:
        return 0 if self_check(bench, exe) else 1
    names = [w["name"] for w in bench.spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    seed = bench.cat["default_seed"] if args.seed is None else args.seed
    seconds = args.seconds if args.seconds is not None else bench.spec["run_seconds"]
    raw = run_binary(exe, args.workload, seed, seconds, args.trace)
    report(bench, raw, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
