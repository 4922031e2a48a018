#!/usr/bin/env python3
"""The ganacc repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced
                                                 # then traced, plus selftest
    python3 perfbench/run.py --selftest          # open-loop generator test

Builds perfbench/ (which builds ../src) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, and prints its metrics with units on
stderr and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"  # the repository's default


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def local_env(out):
    """Keep compiler and program temporaries inside the build dir."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure once and build the two binaries; quiet when current."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("ganacc sources (src/) are missing; cannot build")
        sys.exit(3)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "ganacc_perfbench", "perfbench_selftest"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, env=local_env(out),
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-8000:])
            log("build failed:", " ".join(cmd))
            sys.exit(3)
    return out


def run_selftest(out):
    res = subprocess.run([os.path.join(out, "perfbench_selftest")],
                         stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(res.stdout)
    return res.returncode == 0


def run_workload(out, spec, workload, seed, seconds, trace):
    """One run of the benchmark binary; returns (exit code, result)."""
    # Runs keep their fleet stores. Deleting them would make the next
    # run's store writes reuse just-freed inodes, which on ext4 is
    # several times slower and drifts set-up time from run to run.
    scratch = os.path.join(out, "runs", "%d-%d" % (time.time_ns(),
                                                   os.getpid()))
    # Write back the previous run's stores before this one starts.
    os.sync()
    cmd = [os.path.join(out, "ganacc_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", scratch]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=local_env(out),
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s")
        return 4, None
    lines = res.stdout.strip().splitlines()
    if not lines:
        return res.returncode or 4, None
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                log("missing end-to-end metric", m["name"])
                return 4, None
            # A layer this workload never exercises reads 0.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("unit mismatch for", m["name"], got["unit"], m["unit"])
            return 4, None
        metrics[m["name"]] = got
    extra = sorted(set(result["metrics"]) - set(metrics))
    if extra:
        log("metrics missing from BENCHMARK.json:", ", ".join(extra))
        return 4, None
    result["metrics"] = metrics
    return res.returncode, result


def metadata():
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or sha
    except OSError:
        pass
    return {"git_sha": sha, "build_type": BUILD_TYPE,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def print_metrics(result):
    for name, m in result["metrics"].items():
        log("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))


def run_all(out, spec, seed, seconds):
    """The one command: selftest, then every workload untraced and
    traced. Non-zero when any check or run failed."""
    ok = run_selftest(out)
    log("run metadata:", json.dumps(metadata()))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (False, True):
        for w in spec["workloads"]:
            code, result = run_workload(out, spec, w["name"], seed,
                                        seconds, trace)
            if result is None:
                log(w["name"], "produced no result")
                ok = False
                continue
            print_metrics(result)
            ok = ok and code == 0 and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"]["%s:%s" % (w["name"], name)] = m
    summary["correct"] = ok and summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.selftest:
        ap.error("--workload or --selftest is required")

    out = build()
    if args.selftest:
        return 0 if run_selftest(out) else 1
    if args.workload == "all":
        return run_all(out, spec, args.seed, args.seconds)
    code, result = run_workload(out, spec, args.workload, args.seed,
                                args.seconds, bool(args.trace))
    if result is None:
        return code or 4
    print_metrics(result)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
