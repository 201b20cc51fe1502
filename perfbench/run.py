#!/usr/bin/env python3
"""Benchmark entry point for mellowsim.

Builds the perfbench driver (perfbench/CMakeLists.txt, which compiles
the library from src/), runs one workload, checks the model's outputs
against the pinned fingerprints, prints a host manifest and every
metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 perfbench/run.py --workload eager-mix --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "digests.json")
WORKLOADS = ("eager-mix", "demand-mix", "paper-sweep")
# Per-config budget; the pinned digests were taken at this budget.
DEFAULT_INSTRS = 2_000_000
DEFAULT_WARMUP = 500_000
PRESET = "perfbench: Release -O3 + LTO, alloc counter on (as release-lto)"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instrs", type=int, default=DEFAULT_INSTRS,
                   help="detailed instructions per config")
    p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                   help="functional warm-up instructions per config")
    p.add_argument("--jobs", type=int, default=len(os.sched_getaffinity(0)),
                   help="worker threads for paper-sweep (default: nproc)")
    p.add_argument("--pin", action="store_true",
                   help="record this run's fingerprints as the pinned "
                        "digest of the workload (default seed and budget)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.instrs < 1 \
            or args.warmup < 0 or args.jobs < 1:
        die("seed, seconds, instrs, warmup and jobs must be in range")
    return args


def refuse_knobs():
    """Every MELLOWSIM_* variable changes what is measured."""
    knobs = sorted(k for k in os.environ if k.startswith("MELLOWSIM_"))
    if knobs:
        die("refusing to run with " + ", ".join(knobs) + " set; the "
            "benchmark sets budget, seed, jobs and device itself")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no mellowsim sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    configure = ["cmake", "-S", HERE, "-B", bdir]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", bdir, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def manifest(result, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": result["build_type"],
        "preset": PRESET,
        "alloc_counter": result["alloc_counter"],
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "instrs": args.instrs,
        "warmup": args.warmup,
        "jobs": args.jobs,
    }


def digest(configs):
    text = "".join(f"{c['id']} {c['hash']}\n" for c in configs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def pinned_budget(args, pins):
    return (args.seed, args.instrs, args.warmup) == \
        (pins["seed"], pins["instrs"], pins["warmup"])


def check_pins(configs, args):
    """Fail every config whose fingerprint differs from its pin."""
    all_pins = load_pins()
    if not pinned_budget(args, all_pins):
        return "self-consistency only (not the pinned seed and budget)"
    pins = all_pins["workloads"].get(args.workload)
    if pins is None:
        return "no pinned digest for this workload"
    for c in configs:
        if pins["configs"].get(c["id"]) != c["hash"] and not c["failure"]:
            c["failure"] = "fingerprint differs from the pinned one"
            print(f"FAILED {c['id']}: {c['failure']}")
    ok = pins["digest"] == digest(configs)
    return "matches the pin" if ok else f"differs from pin {pins['digest']}"


def write_pin(configs, args):
    pins = load_pins()
    if not pinned_budget(args, pins):
        die("--pin needs the pinned seed and budget")
    pins["workloads"][args.workload] = {
        "digest": digest(configs),
        "configs": {c["id"]: c["hash"] for c in configs},
    }
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    refuse_knobs()
    args = parse_args()
    bdir = build_dir()
    exe = build(bdir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--instrs", str(args.instrs), "--warmup", str(args.warmup),
           "--jobs", str(args.jobs)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench timed out")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        die(f"perfbench exited with {res.returncode}")
    result = json.loads(lines[-1])

    print("manifest: " + json.dumps(manifest(result, args), sort_keys=True))
    print("\n".join(lines[:-1]))

    configs = result["configs"]
    if args.pin:
        write_pin(configs, args)
    pin_state = check_pins(configs, args)
    failed = [c for c in configs if c["failure"]]
    print(f"fingerprint digest {digest(configs)}: {pin_state}")
    print(f"failed_frac {len(failed) / len(configs):.6g} "
          f"({len(failed)} of {len(configs)} configs)")

    correct = not failed
    metrics = {}
    for m in expected_metrics(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print(f"MISSING metric {m['name']} [{m['unit']}]")
            correct = False
            continue
        metrics[m["name"]] = got
    print(json.dumps({"correct": correct, "attempted": len(configs),
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
