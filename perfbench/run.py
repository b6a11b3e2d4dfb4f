#!/usr/bin/env python3
"""Host-throughput benchmark of the LT-cords simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>
    python3 perfbench/run.py --self-test [--seed <n>]

Run from the root of a checkout. The first call builds the simulator
library and the measuring process (perfbench/ltc_perfbench.cc) from
source into .bench_build/ with the repository's own CMake
configuration. The process runs rounds of one workload for --seconds;
this script checks every round and prints the metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. Earlier lines
give the host (numbers from different hosts must never be compared)
and the statistics digest, which is identical for every run of one
workload and seed. DESIGN.md describes the workloads and metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ltc_perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DEFAULT_SEED = 1
# Fresh processes that each build a workload once, timed for setup_s.
SETUP_PROCESSES = 25

# Per-layer counters copied from the process's per-round counters.
COPIED_COUNTERS = (
    "cache.l1_accesses", "cache.l1_misses", "cache.l2_misses",
    "cache.l1_prefetch_fills", "cache.l1_evictions",
    "pred.observes", "pred.requests", "pred.prefetch_evictions",
    "pred.feedback_events", "ltc.predictions",
    "ltc.signatures_streamed", "ltc.frames_in_use",
    "ghb.misses_observed", "ghb.prefetches_issued",
    "timing.mem_queue_cycles", "timing.l1l2_queue_cycles",
    "timing.prefetch_dropped", "timing.prefetch_partial",
    "sched.quanta",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------ build

def build():
    """Configure (once) and build the measuring process."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the simulator: "
                         "CMakeLists.txt or src/ is missing")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "ltc_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


# ---------------------------------------------------------- running

def run_process(workload, seed, seconds, trace, tiny=False, extra=()):
    """Run the measuring process; return (rounds, peak_rss_kb, exit_ok).

    The peak resident set is the process's own, taken from wait4(), so
    it is measured even if the process dies.
    """
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if tiny:
        cmd.append("--tiny")
    rounds = []
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(seconds + 120, proc.kill)
    timer.start()
    read_all = False
    try:
        for line in proc.stdout:
            rounds.append(json.loads(line))
        read_all = True
    finally:
        timer.cancel()
        if not read_all:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return rounds, usage.ru_maxrss, proc.returncode == 0


def setup_times(workload, seed, tiny):
    """Set-up seconds of SETUP_PROCESSES cold builds, and the failures.

    Each build runs in a fresh process, so it pays for a fresh heap as
    a user's run does; later rounds of one process would reuse the heap
    earlier rounds freed.
    """
    times, failures = [], 0
    for _ in range(SETUP_PROCESSES):
        rounds, _, ok = run_process(workload, seed, 0, 0, tiny,
                                    ("--setup-only",))
        if ok and len(rounds) == 1:
            times.append(rounds[0]["setup_s"])
        else:
            failures += 1
    return times, failures


def run_totals(run):
    """(refs, seconds, fill seconds) of one engine run."""
    slices = run["slices"]
    return (sum(s[0] for s in slices), sum(s[1] for s in slices),
            sum(s[2] for s in slices))


def quarter(run, which):
    """(refs, seconds, fill seconds) of quarter 0 or 3 of a run."""
    slices = run["slices"]
    n = len(slices) // 4
    part = slices[:n] if which == 0 else slices[-n:]
    return (sum(s[0] for s in part), sum(s[1] for s in part),
            sum(s[2] for s in part))


def timed_totals(rounds):
    """(refs, seconds) over every engine run of the rounds."""
    refs = secs = 0
    for rnd in rounds:
        for run in rnd["runs"]:
            r, t, _ = run_totals(run)
            refs += r
            secs += t
    return refs, secs


def late_rate_ratio(rounds):
    """Last-quarter refs/s over first-quarter refs/s, pooled over runs."""
    runs = [run for rnd in rounds for run in rnd["runs"]]
    rate = lambda qs: sum(q[0] for q in qs) / sum(q[1] for q in qs)
    return (rate([quarter(run, 3) for run in runs]) /
            rate([quarter(run, 0) for run in runs]))


def check_rounds(rounds, exit_ok):
    """Count engine runs attempted and failed; a crash fails one more."""
    attempted = failed = 0
    first = rounds[0]["digest"] if rounds else None
    for rnd in rounds:
        for run in rnd["runs"]:
            attempted += 1
            if run["errors"] or rnd["digest"] != first:
                failed += 1
                log(f"run {run['name']} failed:",
                    "; ".join(run["errors"]) or "statistics digest differs")
    if not exit_ok:
        attempted += 1
        failed += 1
    return attempted, failed


def fastest_round(rounds):
    """One round made of each slice's fastest time over the rounds.

    Every round simulates the same work in the same slices, and the
    host's noise (other tenants slowing this core for seconds at a
    time) only ever adds time, so a slice's fastest time is the
    steadiest estimate of what it costs.
    """
    return {"runs": [
        {"slices": [min((rnd["runs"][r]["slices"][s] for rnd in rounds),
                        key=lambda sl: sl[1])
                    for s in range(len(run["slices"]))]}
        for r, run in enumerate(rounds[0]["runs"])]}


def end_to_end(rounds, peak_kb, setups):
    """End-to-end metrics: the fastest round's rates, the fastest build.

    Host noise only ever adds time to a cold build too, so its fastest
    time is the steadiest estimate of the set-up cost.
    """
    fastest = fastest_round(rounds)
    refs, secs = timed_totals([fastest])
    return {
        "refs_per_s": refs / secs,
        "late_rate_ratio": late_rate_ratio([fastest]),
        "setup_s": min(setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }


LAYERS = ("trace", "cache", "pred", "timing")
# Per-layer times; they add up to run.timed_s (see layer_split).
LAYER_TIMES = ("trace.fill_s", "cache.base_s", "pred.cost_s",
               "timing.base_s")


def layer_split(rounds):
    """Host seconds of the rounds split over the layers.

    A run's own time is its time minus its fill time, which goes to
    the trace layer. A predictor-less run's own time goes to its
    engine's layer: the cache hierarchy for the trace and schedule
    engines, the timing model for the timing engine. A predicted run
    charges its base run's own time to that layer and the rest to the
    predictor, so the layers add up to the timed region. Also returns
    the predictor's cost and references in first and last quarters.
    """
    split = dict.fromkeys(LAYERS, 0.0)
    q_cost, q_refs = [0.0, 0.0], [0, 0]
    for rnd in rounds:
        runs = {run["name"]: run for run in rnd["runs"]}
        for run in rnd["runs"]:
            _, secs, fill = run_totals(run)
            layer = "timing" if run["engine"] == "timing" else "cache"
            split["trace"] += fill
            if not run["base"]:
                split[layer] += secs - fill
                continue
            base = runs[run["base"]]
            _, bsecs, bfill = run_totals(base)
            split[layer] += bsecs - bfill
            split["pred"] += (secs - fill) - (bsecs - bfill)
            for i, which in enumerate((0, 3)):
                r, s, f = quarter(run, which)
                _, bs, bf = quarter(base, which)
                q_cost[i] += (s - f) - (bs - bf)
                q_refs[i] += r
    return split, q_cost, q_refs


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(rounds):
    """Per-layer metrics: times per traced round, one round's counts."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    n = len(traced)
    split, q_cost, q_refs = layer_split(traced)
    refs, timed = timed_totals(traced)
    timing_refs, timing_secs = timed_totals(
        [{"runs": [run for run in r["runs"] if run["engine"] == "timing"]}
         for r in traced])
    slice_ms = [sl[1] * 1e3 for r in traced for run in r["runs"]
                for sl in run["slices"]]
    counters = traced[-1]["counters"]
    c = lambda key: counters.get(key, 0.0)
    round_secs = lambda rs: statistics.median(timed_totals([r])[1]
                                              for r in rs)
    metrics = {
        "trace.fill_s": split["trace"] / n,
        "trace.fill_share": ratio(split["trace"], timed),
        "trace.refs": refs / n,
        "cache.base_s": split["cache"] / n,
        "pred.cost_s": split["pred"] / n,
        "pred.cost_share": ratio(split["pred"], timed),
        "pred.cost_ns_per_ref_q1": ratio(q_cost[0], q_refs[0]) * 1e9,
        "pred.cost_ns_per_ref_q4": ratio(q_cost[1], q_refs[1]) * 1e9,
        "pred.useful_ratio": ratio(c("pred.correct"), c("pred.requests")),
        "ltc.sigcache_hit_ratio": ratio(c("ltc.sigcache_hits"),
                                        c("ltc.sigcache_lookups")),
        "ghb.delta_match_ratio": ratio(c("ghb.delta_matches"),
                                       c("ghb.misses_observed")),
        "timing.base_s": split["timing"] / n,
        "timing.host_ns_per_ref": ratio(timing_secs, timing_refs) * 1e9,
        "timing.mem_bus_busy_ratio": ratio(c("timing.mem_bus_busy"),
                                           c("timing.cycles")),
        "timing.avg_miss_latency_cycles": ratio(
            c("timing.miss_latency_total"), c("timing.l1_misses")),
        "sched.refs_per_quantum": ratio(c("sched.refs"), c("sched.quanta")),
        "run.timed_s": timed / n,
        "run.slice_ms_p50": statistics.median(slice_ms),
        "run.slice_ms_p90": statistics.quantiles(slice_ms, n=10)[8],
        "run.slices": len(slice_ms) / n,
        "trace_overhead_ratio": round_secs(traced) / round_secs(plain),
    }
    for key in COPIED_COUNTERS:
        metrics[key] = c(key)
    return metrics


def host_facts():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        clock = Path("/sys/devices/system/clocksource/clocksource0/"
                     "current_clocksource").read_text().strip()
    except OSError:
        clock = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "clocksource": clock}


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return the result object.

    A process that dies before finishing the rounds a result needs
    yields a failed result with no metrics. A failed set-up process
    counts as one failed run.
    """
    setups, setup_failures = ([], 0) if trace else setup_times(
        workload, seed, tiny)
    rounds, peak_kb, exit_ok = run_process(workload, seed, seconds, trace,
                                           tiny)
    attempted, failed = check_rounds(rounds, exit_ok)
    attempted += setup_failures
    failed += setup_failures
    if (not rounds or (trace and not any(r["traced"] for r in rounds))
            or (not trace and not setups)):
        log(f"perfbench: {workload}: the measuring processes completed "
            "too few rounds")
        return {"correct": False, "attempted": attempted,
                "failed": max(failed, 1), "metrics": {}}
    if trace:
        values, units = per_layer(rounds), PER_LAYER_UNITS
    else:
        values, units = end_to_end(rounds, peak_kb, setups), END_TO_END_UNITS
    print(json.dumps({"host": host_facts(), "workload": workload,
                      "seed": seed, "rounds": len(rounds)}))
    print(json.dumps({"digest": rounds[0]["digest"]}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


# -------------------------------------------------------- self-test

def self_test(seeds):
    """Run every workload at a tiny budget, plain and traced, per seed.

    Passes when every metric BENCHMARK.json names is printed with its
    unit, no run fails, traced and untraced rounds agree on the
    statistics digest (check_rounds compares every round's digest) and
    the layer times add up to the timed region.
    """
    wanted = {0: END_TO_END_UNITS, 1: PER_LAYER_UNITS}
    problems = []
    for seed in seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = measure(workload, seed, 0, trace, tiny=True)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                tag = f"{workload} seed={seed} trace={trace}"
                if got != wanted[trace]:
                    problems.append(f"{tag}: metrics/units differ from "
                                    "BENCHMARK.json")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if trace and m and not math.isclose(
                        sum(m[k] for k in LAYER_TIMES), m["run.timed_s"]):
                    problems.append(f"{tag}: layer times do not add up "
                                    "to the timed region")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: {result['failed']} of "
                                    f"{result['attempted']} runs failed")
                log(f"self-test {tag}: {result['attempted']} runs, "
                    f"{result['failed']} failed")
    for p in problems:
        log("self-test FAIL:", p)
    log("self-test", "FAIL" if problems else "PASS")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-budget check of every workload on the "
                         "given seed and the next one")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        build()
        if args.self_test:
            return 0 if self_test([args.seed, args.seed + 1]) else 1
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError) as err:
        log("perfbench:", err)
        return 1
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
