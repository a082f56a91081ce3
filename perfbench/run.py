#!/usr/bin/env python3
"""TreeServer benchmark: builds the benchmark binary from this checkout,
writes one run's seeded inputs, measures one workload and prints the
result JSON as the last line of standard output.

    python3 perfbench/run.py --workload serve-rows --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # the benchmark's own tests

Build output goes to .bench_build/ (or $CARGO_TARGET_DIR) at the root
of the checkout; results and traces to .bench_build/results/.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train-exact-inproc", "train-hist-tcp", "serve-rows", "fleet-batches"]
# One run's prepare + measure must end well inside 180 s.
PREPARE_TIMEOUT_S = 40
RUN_TIMEOUT_S = 130


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no TreeServer sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(build_dir(), "work", f"{tag}-{os.getpid()}")
    out = os.path.join(build_dir(), "results", tag)
    os.makedirs(out, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work]
    try:
        subprocess.run([binary, "prepare"] + common, check=True,
                       timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
        run = subprocess.run(
            [binary, "run"] + common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--out-dir", out],
            check=True, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    with open(os.path.join(out, "result.json"), "w") as f:
        f.write(run.stdout)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if not result["correct"]:
        log("output check failed; see the CHECK FAILED lines above")


if __name__ == "__main__":
    # Turn SIGTERM into an exception so subprocess.run stops and reaps
    # the running step and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        main()
    except subprocess.CalledProcessError as e:
        log(f"step failed with exit code {e.returncode}: {' '.join(e.cmd)}")
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        log(f"step timed out after {e.timeout} s: {' '.join(e.cmd)}")
        sys.exit(1)
