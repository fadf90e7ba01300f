#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short_regions --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests

The first call configures and builds the toolbox libraries and the
benchmark from source (Release) into .bench_build, or into the directory
named by $CARGO_TARGET_DIR; later calls only rebuild what changed. The
benchmark prints context lines and then one JSON result object as the last
line of standard output; build output goes to standard error. The exit
code is non-zero when the build fails, the run fails, or no result was
printed.
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configure once, then build `targets`; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no toolbox sources next to the benchmark "
                 "(expected src/CMakeLists.txt in %s)" % ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", *targets, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out


def run_benchmark(argv):
    out = build(["perfbench"])
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        workload = args[args.index("--workload") + 1]
        seed = args[args.index("--seed") + 1]
        args += ["--spans", os.path.join(spans, "%s-seed%s.jsonl" % (workload, seed))]
    start = time.monotonic()
    proc = subprocess.run([os.path.join(out, "perfbench"), *args],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1
    print("perfbench: run took %.1f s" % (time.monotonic() - start), file=sys.stderr)
    return 0 if set(result) == {"correct", "attempted", "failed", "metrics"} else 1


def run_tests():
    out = build(["perfbench", "perfbench_tests"])
    status = subprocess.run([os.path.join(out, "perfbench_tests")],
                            check=False).returncode
    # The metric catalogue compiled into the benchmark must match
    # BENCHMARK.json name for name and unit for unit.
    listed = subprocess.run([os.path.join(out, "perfbench"), "--list-metrics"],
                            stdout=subprocess.PIPE, text=True, check=True)
    compiled = {(kind, name, unit) for kind, name, unit in
                (line.split() for line in listed.stdout.splitlines())}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {(kind, m["name"], m["unit"])
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    if compiled != declared:
        print("catalogue mismatch: only compiled %s; only declared %s" %
              (sorted(compiled - declared), sorted(declared - compiled)),
              file=sys.stderr)
        status = status or 1
    else:
        print("catalogue matches BENCHMARK.json (%d metrics)" % len(declared))
    return status


def main():
    if sys.argv[1:] == ["--test"]:
        return run_tests()
    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print("perfbench: %s failed with %s" % (e.cmd[0], e.returncode), file=sys.stderr)
        sys.exit(1)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(1)
