#!/usr/bin/env python3
"""End-to-end benchmark of wayfinder: the paper's DeepTune loop and the wfd fleet.

    python3 e2ebench/run.py --workload dt-serial --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Builds the library, `wfd` and the `e2e_bench` driver from the checkout's
sources (CMake, into $CARGO_TARGET_DIR or .bench_build), then runs
ceil(--seconds / one repetition) whole repetitions of one workload, each on
its own sub-seed of --seed. --trace 0 pools them into the end-to-end metrics;
--trace 1 runs untraced/traced pairs and prints the per-layer breakdown. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See e2ebench/README.md for what each workload and metric means.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("dt-serial", "dt-fleet")
# Rough wall time of one repetition, set-up and read phase included.
REP_SECONDS = {"dt-serial": 6.5, "dt-fleet": 7.5}
HARD_LIMIT_S = 170.0  # A run must end within 180 s.
PARTS_TOLERANCE = 1.02

# Metric names and units come from the benchmark's definition file.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _DEFINITION = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def pct(values, p):
    """Percentile p (0-100) with linear interpolation; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    at = (len(ordered) - 1) * p / 100.0
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def build():
    """Configures and builds the benchmark package; returns (e2e_bench, wfd)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "platform", "session.h")):
        log("e2ebench: wayfinder sources not found next to %s" % BENCH_DIR)
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4"], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "e2e_bench"), os.path.join(build_dir, "wfd"),
            build_dir)


# --- Reading the program's own instruments -----------------------------------

def read_histograms(path):
    """Registry histograms (count, sum, mean, p50, p99; ns) from RenderText output."""
    histograms = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 3 and parts[0] == "histogram":
                fields = dict(kv.split("=", 1) for kv in parts[2:] if "=" in kv)
                histograms[parts[1]] = {k: float(v) for k, v in fields.items()}
    return histograms


def read_trace(path):
    """One session's Chrome trace: spans by name -> [(ts_us, dur_us)], and
    the number of trials whose commit it holds."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans, commits = {}, 0
    for event in events:
        if event.get("ph") == "X":
            spans.setdefault(event["name"], []).append((event["ts"], event["dur"]))
        elif event.get("name") == "commit":
            commits += 1
    return spans, commits


def union_us(intervals):
    """Wall time covered by possibly overlapping (start, duration) spans."""
    covered, end = 0.0, None
    for start, dur in sorted(intervals):
        stop = start + dur
        if end is None or start > end:
            covered += dur
            end = stop
        elif stop > end:
            covered += stop - end
            end = stop
    return covered


# --- Metrics from one repetition ----------------------------------------------

def trials_per_s(reps):
    return sum(r["trials"] for r in reps) / sum(r["wall_s"] for r in reps)


def end_to_end(reps):
    """End-to-end metrics pooled over repetitions (one sub-seed each)."""
    pooled = lambda key: [x for rep in reps for x in rep[key]]
    mean = lambda key: statistics.fmean(rep[key] for rep in reps)
    return {
        "trials_per_s": trials_per_s(reps),
        "trial_ms_p50": pct(pooled("trial_ms"), 50),
        "trial_ms_p90": pct(pooled("trial_ms"), 90),
        "job_s_p50": pct(pooled("job_s"), 50),
        "best_objective": mean("best_objective"),
        "setup_s": pct(pooled("setup_s"), 50),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(rep, workdir):
    """The traced repetition's layer breakdown; fills rep["parts_ok"]."""
    hist = read_histograms(os.path.join(workdir, "metrics.txt"))
    h = lambda name: hist.get(name, {"count": 0.0, "sum": 0.0, "p50": 0.0, "p99": 0.0})
    trials = rep["trials"]
    per_trial = lambda x: x / trials if trials else 0.0
    trunk, pool = h("core.trunk_update_ns"), h("core.pool_assembly_ns")
    journal, store = h("service.journal_append_ns"), h("service.store_append_ns")
    wave, dispatch = h("service.wave_ns"), h("transport.dispatch_ns")

    # Session trace rings: evaluate spans (both workloads) and, on dt-fleet,
    # propose/observe spans. A ring that lost a trial's commit has wrapped and
    # holds only part of the spans, which fails the parts check below.
    evaluate_us, propose_ms, observe_ms = [], [], []
    evaluate_sum = propose_sum = observe_sum = evaluate_cover = 0.0
    budget = trials / max(1, len(rep["trace_files"]))
    rings_whole = True
    for name in rep["trace_files"]:
        spans, commits = read_trace(os.path.join(workdir, name))
        rings_whole = rings_whole and commits == budget
        evaluate = spans.get("evaluate", [])
        evaluate_us += [d for _, d in evaluate]
        evaluate_sum += sum(d for _, d in evaluate) / 1e6
        evaluate_cover += union_us(evaluate) / 1e6
        propose_ms += [d / 1e3 for _, d in spans.get("propose", [])]
        observe_ms += [d / 1e3 for _, d in spans.get("observe", [])]
        propose_sum += sum(d for _, d in spans.get("propose", [])) / 1e3
        observe_sum += sum(d for _, d in spans.get("observe", [])) / 1e3
    serial = rep["workload"] == "dt-serial"
    if serial:  # The forwarding wrapper times the searcher directly.
        propose_ms, observe_ms = rep["propose_ms"], rep["observe_ms"]
        propose_sum, observe_sum = sum(propose_ms), sum(observe_ms)

    core_s = (trunk["sum"] + pool["sum"]) / 1e9
    searcher_s = (propose_sum + observe_sum) / 1e3
    # dt-serial: the step is the whole. dt-fleet: a session thread's step is the wave.
    step_s = sum(rep["trial_ms"]) / 1e3 if serial else wave["sum"] / 1e9
    self_s = max(0.0, step_s - searcher_s - evaluate_cover)
    service_s = (journal["sum"] + store["sum"]) / 1e9
    transport_s = dispatch["sum"] / 1e9
    # dt-serial: the searcher and evaluate spans nest in the step, the whole.
    # dt-fleet: the compute layers (core histograms, evaluate spans) run on the
    # program's CPU seconds, the whole. Searcher spans are wall time, which
    # preemption stretches on saturated cores; journal/store appends and
    # status dispatch mostly wait (fsync, the manager lock).
    whole = step_s if serial else rep["cpu_s"]
    parts = searcher_s + evaluate_sum if serial else core_s + evaluate_sum
    share = lambda x: x / whole if whole > 0 else 0.0
    rep["parts_ok"] = rings_whole and whole > 0 and parts <= whole * PARTS_TOLERANCE
    rtt = rep.get("status_rtt_us", [])
    pool_p50 = pool["p50"] / 1e6
    return {
        "core.trunk_update_ms_p50": trunk["p50"] / 1e6,
        "core.trunk_update_ms_p99": trunk["p99"] / 1e6,
        "core.trunk_update_s_sum": trunk["sum"] / 1e9,
        "core.trunk_updates_per_trial": per_trial(trunk["count"]),
        "core.pool_assembly_ms_p50": pool_p50,
        "core.pool_assembly_s_sum": pool["sum"] / 1e9,
        "core.pool_assemblies_per_trial": per_trial(pool["count"]),
        "core.predict_score_ms_p50":
            max(0.0, pct(propose_ms, 50) - pool_p50) if pool["count"] else 0.0,
        "core.searcher_memory_mb": rep["searcher_memory_bytes"] / 2**20,
        "search.propose_ms_p50": pct(propose_ms, 50),
        "search.propose_ms_sum": propose_sum,
        "search.observe_ms_p50": pct(observe_ms, 50),
        "search.observe_ms_sum": observe_sum,
        "platform.self_us_per_trial": per_trial(self_s * 1e6),
        "platform.proposals_per_trial": per_trial(rep.get("proposals", 0.0)),
        "simos.evaluate_us_p50": pct(evaluate_us, 50),
        "simos.evaluate_s_sum": evaluate_sum,
        "util.cpu_util": rep["cpu_s"] / (rep["wall_s"] * rep["nproc"]),
        "util.ctx_switches_per_trial": per_trial(rep["ctx_switches"]),
        "service.journal_append_us_p50": journal["p50"] / 1e3,
        "service.journal_append_us_p99": journal["p99"] / 1e3,
        "service.journal_append_s_sum": journal["sum"] / 1e9,
        "service.journal_appends_per_trial": per_trial(journal["count"]),
        "service.store_append_us_p50": store["p50"] / 1e3,
        "service.store_append_s_sum": store["sum"] / 1e9,
        "service.store_appends_per_trial": per_trial(store["count"]),
        "service.journal_bytes_per_trial": per_trial(rep.get("journal_bytes", 0.0)),
        "service.store_bytes_per_trial": per_trial(rep.get("store_bytes", 0.0)),
        "service.wave_us_p50": wave["p50"] / 1e3,
        "service.wave_us_p99": wave["p99"] / 1e3,
        "service.wave_s_sum": wave["sum"] / 1e9,
        "service.submit_ms_p50": pct(rep.get("submit_ms", []), 50),
        "service.result_fetch_ms_p50": pct(rep.get("result_fetch_ms", []), 50),
        "service.warm_submit_ms": pct(rep.get("warm_submit_ms", []), 50),
        "transport.dispatch_us_p50": dispatch["p50"] / 1e3,
        "transport.dispatch_us_p99": dispatch["p99"] / 1e3,
        "transport.status_wait_us_mean":
            max(0.0, statistics.fmean(rtt) - dispatch.get("mean", 0.0) / 1e3)
            if rtt and dispatch["count"] else 0.0,
        "transport.bytes_per_status_reply": rep.get("reply_bytes", 0.0),
        "transport.status_rtt_us_p50": pct(rtt, 50),
        "transport.status_rtt_us_p90": pct(rtt, 90),
        "transport.status_rtt_us_p99": pct(rtt, 99),
        "loadgen.late_us_p99": pct(rep.get("late_us", []), 99),
        # The daemon does not export TraceRing::dropped(); its rings are whole
        # (checked above), so only dt-serial can read a non-zero count.
        "obs.trace_ring_dropped": rep.get("ring_dropped", 0.0),
        "breakdown.core_share": share(core_s),
        "breakdown.search_share": share(max(0.0, searcher_s - core_s)),
        "breakdown.platform_share": share(self_s),
        "breakdown.simos_share": share(evaluate_sum),
        "breakdown.service_share": share(service_s),
        "breakdown.transport_share": share(transport_s),
        "breakdown.parts_over_whole": share(parts),
    }


# --- Running ---------------------------------------------------------------------

def run_rep(exe, wfd, workload, seed, traced, workdir, timeout):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [exe, workload, "--seed", str(seed), "--trace", "1" if traced else "0",
           "--workdir", workdir]
    if workload != "dt-serial":
        cmd += ["--wfd", wfd]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        rep["layers"] = per_layer(rep, workdir)
    return rep


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the timing wrapper leaves a dt-serial "
                             "trajectory bit-identical, then exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    exe, wfd, build_dir = build()
    if args.selftest:
        rc = 0
        for seed in (args.seed, args.seed + 1):
            rc |= subprocess.run([exe, "selftest", "--seed", str(seed)]).returncode
        sys.exit(rc)

    # The repetition count follows from --seconds alone, so a seed always
    # names the same inputs. Repetition r runs sub-seed seed * 16 + r: each
    # has its own simulated landscapes, which evens out seed-to-seed spread.
    reps_wanted = max(1, math.ceil(args.seconds / REP_SECONDS[args.workload]))
    if args.trace:  # Pairs: untraced then traced, on the same sub-seed.
        plan = [(r, t) for r in range(max(1, reps_wanted // 2)) for t in (False, True)]
    else:
        plan = [(r, False) for r in range(reps_wanted)]
    start = time.monotonic()
    workdir = os.path.join(build_dir, "runs", "%s-%d" % (args.workload, os.getpid()))
    untraced, traced = [], []
    try:
        for r, trace in plan:
            timeout = HARD_LIMIT_S - (time.monotonic() - start)
            rep = run_rep(exe, wfd, args.workload, args.seed * 16 + r, trace, workdir, timeout)
            (traced if trace else untraced).append(rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(int(rep["attempted"]) for rep in reps)
    failed = sum(int(rep["failed"]) for rep in reps)
    for rep in reps:
        for error in rep["errors"]:
            log("check failed: %s" % error)
        for job, digest in sorted(rep["digests"].items()):
            print("digest %s seed=%d %s %s" % (args.workload, rep["seed"], job, digest))

    values = {}
    if args.trace:
        for plain, rep in zip(untraced, traced):
            # Tracing and the timing wrapper must not change the trajectory.
            attempted += 2
            if plain["digests"] != rep["digests"] or not rep["digests"]:
                failed += 1
                log("check failed: traced trajectory differs from untraced")
            if not rep["parts_ok"]:
                failed += 1
                log("check failed: layer parts exceed the whole, or a trace ring "
                    "wrapped (%.3f)"
                    % rep["layers"]["breakdown.parts_over_whole"])
        for name in PER_LAYER:
            if name in traced[0]["layers"]:
                values[name] = statistics.median(rep["layers"][name] for rep in traced)
        # Fixed per sub-seed, like best_objective, so pooled the same way.
        values["simos.sim_crash_rate"] = statistics.fmean(rep["sim_crash_rate"] for rep in traced)
        values["obs.trace_overhead"] = trials_per_s(traced) / trials_per_s(untraced)
        values["ops_failed_ratio"] = failed / attempted
        units = PER_LAYER
    else:
        values = end_to_end(untraced)
        units = END_TO_END
    for name, value in values.items():
        print("%-36s %14.6g %s" % (name, value, units[name]))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
