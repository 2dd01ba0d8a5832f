#!/usr/bin/env python3
"""Compares sets of cheetah-bench result files (standard library only).

Result files are the cheetah-bench-result-v1 documents run.py --keep DIR
collects, named <workload>.seed<N>.json (<workload>.seed<N>.traced.json for
traced runs). Bounds and directions come from BENCHMARK.json.

  compare.py --agree A/ B/
      Two sets of the same code: one row per (metric, workload) with each
      set's median and spread (interquartile range over median, from
      statistics.quantiles(n=4)), the change of B's median against A's, and
      the metric's bound. A row agrees when the change and both spreads are
      within the bound (setup_s's spread is not bounded). Exit 0 when every
      row agrees.

  compare.py --pairs PARENT/ CHANGE/ [--metric M] [--workload W]
      A gain claim: files pair up by seed (run alternately). A row is a
      gain when the change wins at least 9 of every 10 pairs (ties count
      for neither) and the medians differ by more than the parent's
      interquartile range. Exit 0 when every selected row is a gain.

  compare.py --baseline A/ B/ TRACED/ -o BENCH_e2e.json
      Writes the cheetah-bench-e2e-v1 baseline: both sets' medians and
      quartiles, the traced run's layer table with each layer's target,
      and the tracing overhead.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# Which end-to-end metric each layer metric should move, and on which
# workloads (README.md, "Layer map").
LAYER_TARGETS = {
    "driver.build_ms": ("setup_s", "all"),
    "sim.capture_ms": ("setup_s", "hot_line"),
    "pmu.capture_samples": ("setup_s", "hot_line"),
    "pmu.trace_serialize_ms": ("setup_s", "hot_line"),
    "pmu.trace_parse_ms": ("setup_s", "hot_line"),
    "pmu.trace_mb": ("setup_s", "hot_line"),
    "driver.partition_ms": ("setup_s", "hot_line"),
    "interpose.self_ns": ("ingest_cpu_ns", "hot_line, numa_pages"),
    "interpose.batches": ("ingest_cpu_ns", "hot_line, numa_pages"),
    "interpose.batch_mean": ("ingest_cpu_ns", "hot_line, numa_pages"),
    "driver.attach_us": ("round_ms.p50", "daemon workloads"),
    "driver.detach_us": ("round_ms.p50", "daemon workloads"),
    "detect.busy_ns": ("ingest_cpu_ns",
                       "hot_line, numa_pages; no change on cold_evict"),
    "detect.thread_skew": ("round_ms.p50", "daemon workloads"),
    "detect.recorded_frac": ("ingest_cpu_ns", "hot_line, numa_pages"),
    "detect.page_recorded_frac": ("ingest_cpu_ns", "numa_pages"),
    "detect.filtered_frac": ("ingest_cpu_ns", "cold_evict"),
    "detect.invalidations_per_ksample": ("ingest_cpu_ns", "hot_line"),
    "detect.remote_frac": ("ingest_cpu_ns", "numa_pages"),
    "detect.lost": ("correctness: must be 0", "all"),
    "detect.line_grains": ("rss_mb", "cold_evict"),
    "detect.page_grains": ("rss_mb", "cold_evict"),
    "detect.line_bytes": ("rss_mb", "cold_evict"),
    "detect.page_bytes": ("rss_mb", "cold_evict"),
    "detect.evicted_line_grains": ("report_ms.p50", "cold_evict"),
    "detect.evicted_page_grains": ("report_ms.p50", "cold_evict"),
    "report.snapshot_ms": ("report_ms.p50",
                           "cold_evict; no change on hot_line"),
    "report.kb": ("report_ms.p50", "cold_evict"),
    "report.findings": ("report_ms.p50", "cold_evict"),
    "report.page_findings": ("report_ms.p50", "cold_evict"),
    "report.parse_ms": ("report_ms.p50", "cold_evict"),
    "history.append_ms": ("report_ms.p50", "cold_evict"),
    "history.serialize_ms": ("report_ms.p50", "cold_evict"),
    "history.write_ms": ("report_ms.p50", "cold_evict"),
    "history.mb": ("report_ms.p50", "cold_evict"),
    "oneshot.build_ms": ("round_ms.p50", "oneshot"),
    "oneshot.native_sim_ms": ("none: the base of profiler_share", "oneshot"),
    "oneshot.sim_ms": ("round_ms.p50, ingest_cpu_ns", "oneshot"),
    "oneshot.profiler_share": ("round_ms.p50", "oneshot"),
    "oneshot.finish_ms": ("report_ms.p50", "oneshot"),
    "oneshot.samples": ("ingest_cpu_ns", "oneshot"),
    "oneshot.report_kb": ("report_ms.p50", "oneshot"),
    "trace.round_ms": ("none: the traced round, for the overhead", "all"),
    "trace.coverage_min": ("none: must stay >= 0.9", "all"),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_set(directory, traced=False):
    """{workload: {seed: result}} for one directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.seed*.json"))):
        match = re.fullmatch(r"(.+)\.seed(\d+)(\.traced)?\.json",
                             os.path.basename(path))
        if not match or bool(match.group(3)) != traced:
            continue
        with open(path) as f:
            runs.setdefault(match.group(1), {})[int(match.group(2))] = json.load(f)
    return runs


def values(runs, metric):
    return [run["metrics"][metric]["value"]
            for _, run in sorted(runs.items()) if metric in run["metrics"]]


def quartiles(data):
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4)
    return q1, median, q3


def spread(data):
    q1, median, q3 = quartiles(data)
    return (q3 - q1) / median if median else float("inf")


def worse_by(parent, change, better):
    """Share by which change is worse than parent (negative: better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def agree(args, spec):
    a, b = load_set(args.agree[0]), load_set(args.agree[1])
    print(f"{'metric':<16} {'workload':<11} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in [w["name"] for w in spec["workloads"]]:
            va = values(a.get(workload, {}), name)
            vb = values(b.get(workload, {}), name)
            if not va or not vb:
                print(f"{name:<16} {workload:<11} missing runs")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            row_ok = abs(change) <= bound and (
                name == "setup_s" or (sa <= bound and sb <= bound))
            ok &= row_ok
            print(f"{name:<16} {workload:<11} {ma:>12.5g} {mb:>12.5g} "
                  f"{change:>+8.3f} {sa:>9.3f} {sb:>9.3f} {bound:>6.2f}  "
                  f"{'agree' if row_ok else 'DISAGREE'}")
    return 0 if ok else 1


def pairs(args, spec):
    parent, change = load_set(args.pairs[0]), load_set(args.pairs[1])
    print(f"{'metric':<16} {'workload':<11} {'pairs':>5} {'wins':>5} "
          f"{'parent':>12} {'parent IQR':>11} {'change':>12}  verdict")
    ok = True
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        if args.metric and name != args.metric:
            continue
        for workload in [w["name"] for w in spec["workloads"]]:
            if args.workload and workload != args.workload:
                continue
            p, c = parent.get(workload, {}), change.get(workload, {})
            seeds = sorted(set(p) & set(c))
            vp = [p[s]["metrics"][name]["value"] for s in seeds]
            vc = [c[s]["metrics"][name]["value"] for s in seeds]
            if len(seeds) < 10:
                print(f"{name:<16} {workload:<11} {len(seeds):>5} "
                      "needs at least 10 pairs")
                ok = False
                continue
            wins = sum(worse_by(x, y, better) < 0 for x, y in zip(vp, vc))
            q1, mp, q3 = quartiles(vp)
            mc = statistics.median(vc)
            gain = wins * 10 >= 9 * len(seeds) and abs(mc - mp) > q3 - q1 \
                and worse_by(mp, mc, better) < 0
            ok &= gain
            print(f"{name:<16} {workload:<11} {len(seeds):>5} {wins:>5} "
                  f"{mp:>12.5g} {q3 - q1:>11.4g} {mc:>12.5g}  "
                  f"{'gain' if gain else 'no gain'}")
    return 0 if ok else 1


def summarize(runs):
    """Median and quartiles of every metric the runs report, bounded or
    not, plus the calibration reading, per workload."""
    table = {}
    for workload, by_seed in sorted(runs.items()):
        table[workload] = {}
        some_run = next(iter(by_seed.values()))
        for name, entry in sorted(some_run["metrics"].items()):
            q1, median, q3 = quartiles(values(by_seed, name))
            table[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                     "n": len(by_seed), "unit": entry["unit"]}
        table[workload]["calibration_ms"] = statistics.median(
            raw_values(by_seed, "calibration_ms.p50"))
    return table


def raw_values(runs, metric):
    return [run["raw_metrics"][metric]["value"] for _, run in sorted(runs.items())]


def rounds_in_calibrations(result):
    """The unscaled round p50 in units of the run's calibration reading,
    so host drift between an untraced and a traced run cancels."""
    raw = result["raw_metrics"]
    return raw["round_ms.p50"]["value"] / raw["calibration_ms.p50"]["value"]


def baseline(args, spec):
    sets = [load_set(args.baseline[0]), load_set(args.baseline[1])]
    traced = load_set(args.baseline[2], traced=True)
    first = next(iter(next(iter(sets[0].values())).values()))
    layers, overhead = {}, {}
    for workload, by_seed in sorted(traced.items()):
        run = by_seed[min(by_seed)]
        layers[workload] = {
            name: dict(entry, target=LAYER_TARGETS.get(name, ("", ""))[0],
                       target_workloads=LAYER_TARGETS.get(name, ("", ""))[1])
            for name, entry in sorted(run["layers"].items())}
        untraced = statistics.median(
            rounds_in_calibrations(r) for s in sets
            for r in s[workload].values())
        traced_round = rounds_in_calibrations(run)
        overhead[workload] = {
            "untraced_round_in_calibrations": untraced,
            "traced_round_in_calibrations": traced_round,
            "overhead": traced_round / untraced - 1}
    document = {
        "schema": "cheetah-bench-e2e-v1",
        "host": {"nproc": first["nproc"], "build_type": first["build_type"]},
        "command": "bench/e2e/run.sh --seeds 10 --seconds %g" % spec["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
        "bounds": {m["name"]: {"unit": m["unit"], "better": m["better"],
                               "bound": m["bound"]} for m in spec["end_to_end"]},
        "sets": [summarize(s) for s in sets],
        "layers": layers,
        "trace_overhead": overhead,
    }
    with open(args.output, "w") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--agree", nargs=2, metavar=("A", "B"))
    mode.add_argument("--pairs", nargs=2, metavar=("PARENT", "CHANGE"))
    mode.add_argument("--baseline", nargs=3, metavar=("A", "B", "TRACED"))
    parser.add_argument("--metric")
    parser.add_argument("--workload")
    parser.add_argument("-o", "--output", default="BENCH_e2e.json")
    args = parser.parse_args()
    spec = load_spec()
    if args.agree:
        return agree(args, spec)
    if args.pairs:
        return pairs(args, spec)
    return baseline(args, spec)


if __name__ == "__main__":
    sys.exit(main())
