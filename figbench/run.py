#!/usr/bin/env python3
"""Figure-level benchmark of the leakyhammer simulator.

Builds figbench (this directory's CMake package, which compiles the
repository's `leaky` library from ../src) in Release with
-DLEAKY_DCHECKS=OFF, runs one workload, checks that the result names
exactly the metrics BENCHMARK.json lists, and relays the report. The
last line of stdout is the result object:

    {"correct": ..., "attempted": <jobs>, "failed": <jobs_failed>,
     "metrics": {"<name>": {"value": ..., "unit": ...}, ...}}

Run from the repository root:

    python3 figbench/run.py --workload mitigation --seed 1 --seconds 36 --trace 0
    python3 figbench/run.py --self-test
    python3 figbench/run.py --record > figbench/expected.txt

The build lands in $CARGO_TARGET_DIR/figbench (default .bench_build/).
--record regenerates the recorded digests and model sentinels; a change
meant only to make the simulator faster must not need it.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mitigation", "capacity", "fingerprint")
# Every run must end within 180 s; one that builds from scratch, 900 s.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880
BUILD_LIMIT_S = 800


def fail(message, code=2):
    print(f"figbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "figbench")


def build(target):
    """Configure once, then build @target; compiler output goes to stderr.
    Returns the binary and whether this call configured the build."""
    out = build_dir()
    deadline = time.monotonic() + BUILD_LIMIT_S
    fresh = not os.path.exists(os.path.join(out, "CMakeCache.txt"))
    if fresh:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
             "-DLEAKY_DCHECKS=OFF"],
            stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    subprocess.run(
        ["cmake", "--build", out, "--target", target, "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out, target), fresh


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() or "none"


def run(cmd, limit):
    """Run @cmd to completion (killed and reaped past @limit seconds)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{cmd[0]} exceeded {limit:.0f} s", 1)
    return proc.returncode, out


def check_result(line, trace):
    """The result object must carry exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json {want}"
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"metric {name} has value {value!r}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} beside {os.path.basename(HERE)}/: the "
                 "benchmark builds the simulator from the repository's "
                 "sources")
    expected = os.path.join(HERE, "expected.txt")

    if args.self_test:
        code, out = run([build("figbench_selftest")[0]], BUILD_LIMIT_S)
        sys.stdout.write(out)
        return code
    if args.record:
        exe, _ = build("figbench")
        code = 0
        for workload in WORKLOADS:
            rc, out = run([exe, "--record", "--workload", workload,
                           "--expected", expected], BUILD_LIMIT_S)
            sys.stdout.write(out)
            code = code or rc
        return code
    if not args.workload:
        fail("--workload is required")

    exe, fresh = build("figbench")
    limit = FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S
    code, out = run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--expected", expected, "--git-sha", git_sha(),
         "--source-digest", source_digest()],
        max(10.0, limit - (time.monotonic() - start)))
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"figbench exited {code} without a result", 1)
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem, 1)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
