#!/usr/bin/env python3
"""Runs cheetah-bench for one (workload, seed) and prints one JSON result line.

    python3 bench/e2e/run.py --workload hot_line --seed 1 --seconds 10 --trace 0

Run from the repository root. Unless --binary names a built cheetah-bench,
the benchmark is configured and built first (cmake -S bench/e2e) under
$CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset.

Every metric the run measured is printed with its unit on stderr, including
those BENCHMARK.json leaves unbounded. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics are
every end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer
metric. The exit code is 0 whenever that line is printed, unless
--require-correct is given and the run was not correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds cheetah-bench; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "cheetah-bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "cheetah-bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="measure exactly this many rounds (smoke tests)")
    parser.add_argument("--binary", help="use this cheetah-bench, skip the build")
    parser.add_argument("--work-dir", help="directory for the run's files")
    parser.add_argument("--keep", help="copy the result (and trace) files here")
    parser.add_argument("--require-correct", action="store_true",
                        help="exit 1 unless the run was correct")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2e")
    try:
        binary = args.binary or build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"error: cannot build cheetah-bench: {error}")
        return 1

    work = args.work_dir or os.path.join(build_dir, "work")
    tag = f"{args.workload}.seed{args.seed}" + (".traced" if args.trace else "")
    os.makedirs(work, exist_ok=True)
    out_path = os.path.join(work, tag + ".json")
    trace_path = os.path.join(work, tag + ".trace.json")
    for stale in (out_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--out={out_path}",
               f"--work-dir={os.path.join(work, tag)}"]
    if args.rounds is not None:
        command.append(f"--rounds={args.rounds}")
    if args.trace:
        command.append(f"--trace={trace_path}")
    try:
        code = subprocess.run(command, stdout=sys.stderr,
                              timeout=args.seconds + 160).returncode
    except subprocess.TimeoutExpired:
        log("error: cheetah-bench timed out")
        return 1
    # Exit code 2 means a correctness gate fired; the result is still
    # written and reported as incorrect. Anything else is a broken run.
    if code not in (0, 2) or not os.path.exists(out_path):
        log(f"error: cheetah-bench exited with {code}")
        return 1
    with open(out_path) as f:
        result = json.load(f)

    correct = code == 0 and result["failed"] == 0
    source = result["layers"] if args.trace else result["metrics"]
    for name, entry in source.items():
        value = entry["p50"] if args.trace else entry["value"]
        log(f"{args.workload:>10}  {name:<36} {value:>16.6g} {entry['unit']}")
    log(f"{args.workload:>10}  {'fail_frac':<36} {result['fail_frac']:>16.6g} "
        f"ratio ({result['failed']} of {result['attempted']} rounds failed)")
    for failure in result["failures"]:
        log(f"FAIL {failure}")

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        entry = source.get(name)
        if entry is None:
            log(f"missing metric {name}")
            correct = False
            continue
        if entry["unit"] != metric["unit"]:
            log(f"metric {name} has unit {entry['unit']}, "
                f"BENCHMARK.json says {metric['unit']}")
            correct = False
        value = entry["p50"] if args.trace else entry["value"]
        metrics[name] = {"value": value, "unit": metric["unit"]}

    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        shutil.copy(out_path, args.keep)
        if args.trace:
            shutil.copy(trace_path, args.keep)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if args.require_correct and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
