#!/usr/bin/env python3
"""Per-layer metrics of a traced benchmark run.

Reads what perfbench_runner left in a run directory -- result.json (jobs,
setup and replay timings, RuntimeStats counters) and spans/<pid>.bin (one
file per process that evaluated patterns, one span per kernel call, the
last call of each pattern evaluation flagged) -- merges the span files, and
computes every per-layer metric of BENCHMARK.json. Run it on a directory
from `python3 perfbench/run.py ... --trace 1`:

    python3 perfbench/trace_tool.py .bench_build/run-motif-dist-trace
"""

import json
import math
import os
import statistics
import struct
import sys

SPAN = struct.Struct("<qqiiii")  # start_ns, end_ns, worker, job, kernel, last
KERNELS = {0: "arm", 1: "seqmine"}
PERCENTILES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
MIN_BEYOND = 10


def tail(values, highest=PERCENTILES[-1]):
    """(percentile, value): the highest of PERCENTILES, up to `highest`,
    with at least MIN_BEYOND samples above its nearest-rank index; the
    median if none has; (0, 0.0) if `values` is empty. Capping the
    percentile keeps it fixed when a faster program fits more samples into
    a run."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        idx = max(0, math.ceil(p * n) - 1)
        if p <= highest and (best is None or n - 1 - idx >= MIN_BEYOND):
            best = (p, ordered[idx])
    return best


def median(values):
    return statistics.median(values) if values else 0.0


def load_spans(span_dir):
    """All spans of the run, from every per-process file, by job id."""
    by_job = {}
    if not os.path.isdir(span_dir):
        return by_job
    for name in sorted(os.listdir(span_dir)):
        if not name.endswith(".bin"):
            continue
        with open(os.path.join(span_dir, name), "rb") as f:
            data = f.read()
        usable = len(data) - len(data) % SPAN.size
        for start, end, worker, job, kernel, last in \
                SPAN.iter_unpack(data[:usable]):
            by_job.setdefault(job, []).append(
                (start, end, worker, kernel, last))
    return by_job


def evaluations(job_spans):
    """Groups one job's kernel-call spans into pattern evaluations: a list
    of (worker, kernel, first start, last end, summed call time), one per
    evaluation whose closing call was recorded."""
    out = []
    per_worker = {}
    for span in job_spans:
        per_worker.setdefault(span[2], []).append(span)
    for worker, spans in per_worker.items():
        spans.sort()
        first, busy = None, 0
        for start, end, _, kernel, last in spans:
            first = start if first is None else first
            busy += end - start
            if last:
                out.append((worker, kernel, first, end, busy))
                first, busy = None, 0
    return out


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def wall_s(job):
    return (job["end_ns"] - job["start_ns"]) * 1e-9


def ratio(num, den):
    return num / den if den else 0.0


def analyze(run_dir):
    """Returns (metrics, problems): metrics maps name -> (value, unit, note);
    problems lists every check the traced run failed."""
    with open(os.path.join(run_dir, "result.json")) as f:
        result = json.load(f)
    spans = load_spans(os.path.join(run_dir, "spans"))
    timed = [j for j in result["jobs"] if not j["warmup"]]
    traced = [j for j in timed if j["traced"]]
    untraced = [j for j in timed if not j["traced"]]
    problems = []
    if not result["spans_flushed"]:
        problems.append("span files could not be written")

    # Kernel spans: per-job counts, per-worker gaps, busy time, self time.
    # A job's workers share result["cpus"] CPUs (one when the runner is
    # pinned), which bounds the kernel time a job can hold.
    tasks, gaps_us, startup, drain, self_s = [], [], [], [], []
    busy_ns = capacity_ns = 0
    eval_us = {k: [] for k in KERNELS.values()}
    eval_s = {k: [] for k in KERNELS.values()}
    for job in traced:
        job_spans = spans.get(job["id"], [])
        evals = evaluations(job_spans)
        if job["ok"] and job["expected_tasks"] and \
                len(evals) != job["expected_tasks"]:
            problems.append("job %d: %d pattern evaluations, sequential "
                            "reference tested %d patterns" %
                            (job["id"], len(evals), job["expected_tasks"]))
        if not job_spans:
            continue
        tasks.append(len(evals))
        per_worker = {}
        per_kernel = {}
        for worker, kernel, first, last_end, call_ns in evals:
            per_worker.setdefault(worker, []).append((first, last_end))
            name = KERNELS[kernel]
            eval_us[name].append(call_ns * 1e-3)
            per_kernel[name] = per_kernel.get(name, 0) + call_ns
            busy_ns += call_ns
        for name, ns in per_kernel.items():
            eval_s[name].append(ns * 1e-9)
        for intervals in per_worker.values():
            intervals.sort()
            for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
                gaps_us.append((next_start - prev_end) * 1e-3)
        capacity_ns += min(job["workers"], result["cpus"]) * (
            job["end_ns"] - job["start_ns"])
        startup.append((min(s[0] for s in job_spans) - job["start_ns"]) * 1e-9)
        drain.append((job["end_ns"] - max(s[1] for s in job_spans)) * 1e-9)
        covered = covered_ns([(s[0], s[1]) for s in job_spans],
                             job["start_ns"], job["end_ns"])
        self_s.append((job["end_ns"] - job["start_ns"] - covered) * 1e-9)

    p50_untraced = median([wall_s(j) for j in untraced])
    p50_traced = median([wall_s(j) for j in traced])
    workers = timed[0]["workers"] if timed else 0
    cpus = min(workers, result["cpus"])
    reference_s = median(result["reference_s"]) / max(1, result["inputs"])
    is_classify = result["workload"] == "nyucv-dist"

    def stat(key):
        return median([j[key] for j in timed])

    def per_op(key):
        return median([ratio(j[key], j["tuple_ops"]) for j in timed])

    m = {}
    m["core.tasks"] = (median(tasks), "count", "")
    gp, gv = tail(gaps_us)
    m["core.task_gap_us.p50"] = (median(gaps_us), "us", "n=%d" % len(gaps_us))
    m["core.task_gap_us.tail"] = (gv, "us",
                                  "p%g n=%d" % (gp * 100, len(gaps_us)))
    m["core.kernel_busy_frac"] = (ratio(busy_ns, capacity_ns), "ratio", "")
    m["core.startup_s"] = (median(startup), "s", "")
    m["core.drain_s"] = (median(drain), "s", "")
    m["core.self_s"] = (median(self_s), "s", "job time no kernel span covers")
    m["core.parallel_efficiency"] = (
        ratio(reference_s, cpus * p50_untraced), "ratio",
        "sequential %.4f s, %d workers on %d CPUs" %
        (reference_s, workers, cpus))
    for name in ("arm", "seqmine"):
        p, v = tail(eval_us[name])
        m[name + ".eval_us.p50"] = (median(eval_us[name]), "us",
                                    "n=%d" % len(eval_us[name]))
        m[name + ".eval_us.tail"] = (
            v, "us", "p%g n=%d" % (p * 100, len(eval_us[name])))
        m[name + ".eval_s"] = (median(eval_s[name]), "s", "per job")
    m["classify.serial_s"] = (reference_s if is_classify else 0.0, "s",
                              "TrainNyuMinerCV")
    m["classify.work_units"] = (stat("total_work") if is_classify else 0.0,
                                "count", "")
    m["plinda.tuple_ops"] = (stat("tuple_ops"), "count", "per job")
    m["plinda.cross_shard_ops"] = (stat("cross_shard_ops"), "count", "per job")
    m["plinda.txn_committed"] = (stat("txn_committed"), "count", "per job")
    m["plinda.txn_aborted"] = (stat("txn_aborted"), "count", "per job")
    m["net.rpc_calls"] = (stat("rpc_calls"), "count", "per job")
    m["net.ops_per_rpc"] = (
        median([ratio(j["tuple_ops"], j["rpc_calls"]) for j in timed]),
        "ops/rpc", "")
    m["net.bytes_per_op"] = (per_op("bytes_on_wire"), "B/op", "")
    m["net.syscalls_per_op"] = (per_op("transport_syscalls"), "1/op", "")
    m["net.batch_frames"] = (stat("batch_frames"), "count", "per job")
    m["net.wal_appends"] = (stat("wal_appends"), "count", "per job")
    m["net.wal_bytes"] = (stat("wal_bytes"), "B", "per job")
    m["net.checkpoints"] = (stat("checkpoints"), "count", "per job")
    cycles = result["cycle_us"]
    cp, cv = tail(cycles)
    m["net.cycle_us.p50"] = (median(cycles), "us", "n=%d" % len(cycles))
    m["net.cycle_us.tail"] = (cv, "us", "p%g n=%d" % (cp * 100, len(cycles)))
    starts = result["server_start_s"]
    m["net.server_start_s"] = (median(starts), "s", "n=%d" % len(starts))
    m["trace.overhead_frac"] = (
        ratio(p50_traced, p50_untraced) - 1 if p50_untraced else 0.0, "ratio",
        "traced p50 %.4f s (n=%d) vs untraced %.4f s (n=%d)" %
        (p50_traced, len(traced), p50_untraced, len(untraced)))

    if not traced:
        problems.append("no traced job ran")
    if not is_classify and traced and not tasks:
        problems.append("traced jobs recorded no kernel spans")
    if result["distributed"] and not result["replay_ok"]:
        problems.append("wire replay failed")
    return m, problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics, problems = analyze(argv[1])
    for name, (value, unit, note) in metrics.items():
        print("%-28s %14.6g %-8s %s" % (name, value, unit, note))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
