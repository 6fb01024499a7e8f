#!/usr/bin/env python3
"""AquaSCALE benchmark: build the library and aquabench, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are declared in BENCHMARK.json at the checkout root.
The first run configures and builds perfbench/ (and through it ../src) in
.bench_build with CMake; later runs only check that the build is current.
The build log goes to stderr. Standard output carries aquabench's note
lines ("# ...": host stamp, gate verdicts, per-workload figures) and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics, the same names on every workload. The two times are
process CPU seconds (all threads) scaled to a nominal host speed: a fixed
reference computation runs on every pool thread around each set-up and
pass, and its CPU time sets the scale. On a shared host, CPU time leaves
out time stolen by other guests, and the scale takes out the drift in
speed that the neighbours' load causes, which moved wall-clock figures by
20-40% between runs of the same code.
  setup_s        median of three set-ups (networks, warm-up, k-medoids
                 placement on corpus_city, profile training on
                 serve_districts), CPU seconds at nominal speed
  ops_per_cpu_s  operations per CPU second at nominal speed, median over
                 passes. train_epa: scenarios through Phase I + evaluation
                 (8000 + 1000 a pass); corpus_city: scenarios simulated and
                 featurized (1024 a pass, each from a seed of its own);
                 serve_districts: requests served with a standing backlog
                 in every district (median over 0.2 s windows)
  peak_rss_mb    peak resident memory of the run
  ok_fraction    1 - failed / attempted (never 0, unlike a failure fraction)
Each workload's own figures (set-up and pass wall times, profile_build_s,
hamming, wall-clock scenarios_per_s and drain_per_s, the ladder's p50/p99
at 10k and 15k requests/s and max_rate_per_s) are printed on the note
lines; hamming and the ladder figures are per-layer metrics too.

With --trace 0 the metrics are exactly the end_to_end metrics; with
--trace 1 exactly the per_layer metrics, where a layer the workload does not
use reads 0. The exit status is nonzero, and no result line is printed,
when the build fails, aquabench fails, a correctness gate fails, or the
metrics aquabench reports do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AquaSCALE sources (src/CMakeLists.txt) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if not run_logged(configure):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs]):
        fail("build failed")


def source_version():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_checked(command):
    """Runs aquabench, always reaping it; returns (returncode, stdout)."""
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as process:
        try:
            stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            fail(f"aquabench exceeded {RUN_TIMEOUT_S} s")
    return process.returncode, stdout


def complete_metrics(metrics, declared, fill_zero):
    """Checks aquabench's metrics against the declared ones."""
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        fail(f"aquabench reported undeclared metrics: {', '.join(unknown)}")
    result = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            if not fill_zero:
                fail(f"aquabench did not report {name}")
            metrics[name] = {"value": 0.0, "unit": spec["unit"]}
        if metrics[name]["unit"] != spec["unit"]:
            fail(f"{name}: unit {metrics[name]['unit']!r}, declared {spec['unit']!r}")
        result[name] = metrics[name]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    build()
    if args.trace:
        # The per-layer breakdown rests on the span arithmetic; test it first.
        if not run_logged([os.path.join(BUILD_DIR, "trace_test")]):
            fail("span arithmetic test failed")

    scratch = os.path.join(BUILD_DIR, "scratch", f"{args.workload}-{os.getpid()}")
    command = [os.path.join(BUILD_DIR, "aquabench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", scratch,
               "--git-sha", source_version()]
    try:
        code, stdout = run_checked(command)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail(f"aquabench exited with status {code}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        fail("correctness gate failed")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = complete_metrics(result["metrics"], declared, fill_zero=bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
