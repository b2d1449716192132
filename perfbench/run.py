#!/usr/bin/env python3
"""The repository benchmark: mining-job latency on three workloads.

    python3 perfbench/run.py --workload apriori-sim|motif-dist|nyucv-dist \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The first call builds perfbench_runner
(Release, unsanitized) from src/ into .bench_build/ (or $CARGO_TARGET_DIR).
Each workload runs as a closed loop of mining jobs, one at a time, from one
process pinned to one CPU (every thread and process of a job shares it);
every job's output is checked against a sequential reference. With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics, with --trace 1 one with the per-layer metrics (see trace_tool.py).
The lines before it say the same for people, with the host and build.

--smoke runs every workload briefly, in both modes, and fails if a metric
of BENCHMARK.json is missing or has no unit, or if any output check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_tool  # noqa: E402

WORKLOADS = ("apriori-sim", "motif-dist", "nyucv-dist")
SETUP_SECONDS = 1.0  # setups repeat for this long (at least 3 times)
MIN_JOBS = 100       # timed jobs per run, so that job_s.tail is p90


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds perfbench_runner; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no fpdm sources at %s/src; run from a source tree" % ROOT)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_runner",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("run.py: build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench_runner")


def run_runner(binary, workload, seed, seconds, trace, min_jobs=MIN_JOBS,
               setup_seconds=SETUP_SECONDS):
    """Runs one measurement into a fresh run directory; returns its path."""
    mode = "trace" if trace else "e2e"
    run_dir = os.path.join(build_dir(), "run-%s-%s" % (workload, mode))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # The runner works in its run directory with relative paths, so unix
    # socket paths stay short however deep the source tree lies.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--out", ".", "--setup-seconds", repr(float(setup_seconds)),
           "--min-jobs", str(min_jobs)]
    proc = subprocess.run(cmd, cwd=run_dir, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        log("run.py: perfbench_runner exited with %d" % proc.returncode)
        return None
    return run_dir


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(result):
    """metrics name -> (value, unit, note), attempted, failed, mismatched."""
    jobs = result["jobs"]
    timed = [j["end_ns"] - j["start_ns"] for j in jobs if not j["warmup"]]
    timed = [ns * 1e-9 for ns in timed]
    failed = sum(1 for j in jobs if not (j["ok"] and j["match"]))
    mismatched = sum(1 for j in jobs if j["ok"] and not j["match"])
    p, tail = trace_tool.tail(timed, highest=0.9)
    m = {
        "job_s.p50": (statistics.median(timed), "s", "n=%d" % len(timed)),
        "job_s.tail": (tail, "s", "p%g of n=%d" % (p * 100, len(timed))),
        "job_ok_frac": (1 - failed / len(jobs), "ratio",
                        "job_failed_frac %.4f = %d failed of %d attempted"
                        % (failed / len(jobs), failed, len(jobs))),
        "setup_s": (statistics.median(result["setup_s"]), "s",
                    "median of %d setups" % len(result["setup_s"])),
        "peak_rss_mb": (max(result["peak_rss_self_mb"],
                            result["peak_rss_children_mb"]), "MB",
                        "self %.1f, children %.1f" % (
                            result["peak_rss_self_mb"],
                            result["peak_rss_children_mb"])),
    }
    return m, len(jobs), failed, mismatched


def measure(binary, workload, seed, seconds, trace, **kw):
    """Runs one measurement; returns (report dict, problems) or (None, why)."""
    run_dir = run_runner(binary, workload, seed, seconds, trace, **kw)
    if run_dir is None:
        return None, ["perfbench_runner failed"]
    with open(os.path.join(run_dir, "result.json")) as f:
        result = json.load(f)
    if result["build_type"] != "Release" or result["sanitizer"] != "none":
        return None, ["refusing a %s build with sanitizer %s" %
                      (result["build_type"], result["sanitizer"])]
    if not result["jobs"]:
        return None, ["no job ran"]
    m, attempted, failed, mismatched = end_to_end(result)
    problems = []
    if mismatched:
        problems.append("%d jobs returned output that differs from the "
                        "sequential reference" % mismatched)
    if trace:
        m, trace_problems = trace_tool.analyze(run_dir)
        problems += trace_problems
    print("workload %s seed %s trace %d: nproc %s, pinned to cpu %s, "
          "build %s, sanitizer %s, git %s" % (
              workload, seed, trace, result["nproc"], result["cpu"],
              result["build_type"], result["sanitizer"], git_sha()))
    for name, (value, unit, note) in m.items():
        print("  %-28s %14.6g %-8s %s" % (name, value, unit, note))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in m.items()},
    }
    return report, problems


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def smoke(binary):
    """Every workload briefly, both modes; non-zero if anything is off."""
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, problems = measure(binary, workload, 1, 1.0, trace,
                                       min_jobs=4, setup_seconds=0)
            tag = "%s trace=%d" % (workload, trace)
            if report is None or problems:
                bad += ["%s: %s" % (tag, p) for p in problems]
                continue
            metrics = report["metrics"]
            for spec in declared_metrics(trace):
                got = metrics.get(spec["name"])
                if got is None:
                    bad.append("%s: metric %s missing" % (tag, spec["name"]))
                elif got.get("unit") != spec["unit"]:
                    bad.append("%s: metric %s has unit %r, not %r" % (
                        tag, spec["name"], got.get("unit"), spec["unit"]))
            if set(metrics) != {s["name"] for s in declared_metrics(trace)}:
                bad.append("%s: metrics beyond BENCHMARK.json: %s" % (
                    tag, sorted(set(metrics) -
                                {s["name"] for s in declared_metrics(trace)})))
    for problem in bad:
        print("SMOKE FAILED: " + problem)
    print("smoke: %s" % ("ok" if not bad else "%d problems" % len(bad)))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return smoke(binary)
    report, problems = measure(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    if report is None:
        log("run.py: " + "; ".join(problems))
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
