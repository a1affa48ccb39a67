#!/usr/bin/env python3
"""Launch benchmark entry point.

Builds the benchmark (and the library sources it links) from this
checkout, runs one workload, and prints the result as the last line of
standard output:

    python3 launchbench/run.py --workload cold-severifast --seed 1 \
        --seconds 25 --trace 0
    python3 launchbench/run.py --selftest

With --trace 0 the metrics are the end-to-end ones; set-up time is the
median of this run's set-up and two more set-up-only processes. With
--trace 1 they are the per-layer ones, and the span trace is written
under the build directory. README.md describes workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-severifast", "cold-preencrypt", "serve-mixed")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("launchbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "launchbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args), 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output from " + " ".join(args), proc.returncode or 1)
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "launchbench_selftest")]).returncode)

    binary = os.path.join(out, "launchbench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        run_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, lines, result = run_binary(binary, run_args)
    for line in lines:
        print(line)

    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            extra_code, _, extra = run_binary(binary, common + ["--setup-only"])
            if extra_code:
                fail("set-up-only run failed", extra_code)
            setups.append(extra["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(json.dumps({"setup_s_samples": setups}))

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(declared.symmetric_difference(result["metrics"])), 1)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
