#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny per-config budget.

For every workload in BENCHMARK.json it runs perfbench/run.py untraced
once and traced twice, and checks that:

  * each run is correct: no config fails, and the traced fingerprints
    equal the untraced ones;
  * every metric BENCHMARK.json names prints with its unit;
  * every count metric of the traced run repeats exactly across the two
    invocations (host-time metrics are exempt).

It also checks that run.py exits non-zero without a result in a
directory holding only BENCHMARK.json and perfbench/.

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "7", "--seconds", "1", "--instrs", "20000",
        "--warmup", "5000"]
# Per-layer metrics measured in host time; everything else in the
# traced run is a count or a model output and must repeat exactly.
HOST_TIMED = {
    "sim.ns_per_event", "cache.prime_ns_per_op", "workload.ns_per_op",
    "nvm.port.ns_per_call", "system.config_s.p50", "system.config_s.p90",
    "system.parallel_efficiency", "trace.overhead_ratio",
}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--trace", str(trace)] + TINY,
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(workload, trace, spec, failures):
    res = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if res.returncode != 0:
        failures.append(f"{label}: exit {res.returncode}\n{res.stderr}")
        return {}
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        failures.append(f"{label}: not correct\n{res.stdout}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"{label}: {m['name']} [{m['unit']}] missing")
    return result["metrics"]


def check_bare_directory(failures):
    """run.py must fail, printing no result, without the sources."""
    base = os.path.join(ROOT, ".bench_build")
    os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run(bare, "eager-mix", 0)
        if res.returncode == 0 or '"correct"' in res.stdout:
            failures.append("bare directory: run.py did not fail")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        result_of(w, 0, spec, failures)
        first = result_of(w, 1, spec, failures)
        second = result_of(w, 1, spec, failures)
        for name, got in first.items():
            if name in HOST_TIMED or name not in second:
                continue
            if got["value"] != second[name]["value"]:
                failures.append(f"{w}: count {name} moved: {got['value']}"
                                f" then {second[name]['value']}")
        print(f"{w}: " + ("ok" if len(failures) == before else "FAILED"))
    check_bare_directory(failures)
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
