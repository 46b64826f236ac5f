#!/usr/bin/env python3
"""Diffs two bench JSON streams and flags regressions on the micro anchors.

The perf trajectory is a sequence of files produced by tools/run_benches.sh
(one JSON object per line): BENCH_pr1.json, BENCH_pr2.json, ... committed at
the repo root. This tool compares two of them:

    tools/bench_compare.py BENCH_pr2.json benches.json [--threshold 0.10]

Records are keyed on (bench, variant) and compared by ops_per_sec. Only the
*anchor* benches gate: the bench_micro_matmul kernels and pool predictions
(matmul_*, predict_batch_*), the bench_micro_dtm update/predict/propose
families (dtm_*, propose_*), the bench_micro_session executor anchors
(session_*), the bench_micro_service daemon anchor (service_*), the
bench_micro_transport event-loop/codec anchors
(transport_*), and the bench_micro_obs observability anchors (obs_*).
Everything else — the paper-figure harnesses, status records, speedup
summaries — is informational; figure benches are too seed- and
load-sensitive to gate on.

The obs_overhead records additionally gate WITHIN the candidate file: the
obs_overhead/ratio record (median of bench_micro_obs's paired
metrics-on/metrics-off chunk ratios — or, if absent, the ratio of the raw
rate pair) must stay above (1 - --obs-overhead), default 2%, the
docs/observability.md budget. The ratio comes from strictly alternating
fixed-work chunks of the same binary in the same run, so machine noise
cancels and this gate stays on even under --ignore-regressions.

Exit status: 1 when any anchor regressed by more than --threshold (default
10%), or when an anchor present in the baseline is missing from the
candidate (a crashed bench must not read as "no regressions"). New benches
and retired non-anchors are reported but never gate.

--ignore-regressions keeps only the missing-anchor gate: CI runners are too
noisy for a 10% wall-clock gate, but a silently crashed or skipped anchor
bench must still fail the workflow.
"""

import argparse
import json
import sys

# Summary/ratio records sharing these prefixes (propose_speedup,
# dtm_update_speedup, session_parallel_speedup, transport_*_speedup) never
# reach the gate: they carry no ops_per_sec, so load_records() drops them.
ANCHOR_PREFIXES = ("matmul_", "dtm_", "predict_batch_", "propose_", "session_",
                   "service_", "transport_", "obs_")
# Summary records (speedup ratios, backend info) carry no ops_per_sec.
RATE_KEY = "ops_per_sec"


def load_records(path):
    """Returns {(bench, variant): ops_per_sec} for rate records in `path`."""
    records = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    print(f"warning: {path}:{line_number}: not JSON, skipped",
                          file=sys.stderr)
                    continue
                if not isinstance(obj, dict) or RATE_KEY not in obj:
                    continue
                key = (obj.get("bench", "?"), obj.get("variant", ""))
                records[key] = float(obj[RATE_KEY])
    except OSError as err:
        sys.exit(f"error: cannot read {path}: {err}")
    return records


def load_obs_ratio(path):
    """Returns the obs_overhead/ratio record's on_over_off value, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (isinstance(obj, dict) and obj.get("bench") == "obs_overhead"
                        and obj.get("variant") == "ratio"
                        and "on_over_off" in obj):
                    return float(obj["on_over_off"])
    except OSError:
        pass
    return None


def is_anchor(key):
    if key[1] == "fault10":
        # The hostile-world session variant runs under a ~10% mixed-fault
        # plan with retries: its committed-trials/sec rate shifts whenever
        # the injected failure mix does, not only when the executor changes.
        # Tracked, never gated.
        return False
    if key[1] == "journal":
        # The journaled-session variant pays an fsync at every wave
        # boundary; fsync latency is a property of the host's storage stack
        # (tmpfs vs SSD vs spinning CI disk), not of the code under review.
        # Tracked, never gated.
        return False
    if key[0] == "obs_record":
        # Raw record-path rates are a few ns per op: at that scale the
        # number is dominated by binary code layout and cycle jitter, not by
        # the code under review (a duplicate predict record in a second
        # binary once swung 0.75-1.0x on layout alone). Tracked, never
        # gated — the end-to-end obs_overhead pair is the gate.
        return False
    return key[0].startswith(ANCHOR_PREFIXES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="older bench JSON (e.g. BENCH_pr2.json)")
    parser.add_argument("candidate", help="newer bench JSON to check")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="gate anchors that regress more than this fraction "
                             "(default 0.10)")
    parser.add_argument("--ignore-regressions", action="store_true",
                        help="only fail on missing anchors (for noisy CI runners)")
    parser.add_argument("--obs-overhead", type=float, default=0.02,
                        help="max fraction the metrics-on session rate may "
                             "trail metrics-off within the candidate file "
                             "(default 0.02)")
    args = parser.parse_args()

    base = load_records(args.baseline)
    cand = load_records(args.candidate)

    regressions = []
    missing_anchors = []
    rows = []
    for key in sorted(set(base) | set(cand)):
        name = f"{key[0]}/{key[1]}" if key[1] else key[0]
        if key not in base:
            rows.append((name, None, cand[key], None, "new"))
            continue
        if key not in cand:
            if is_anchor(key):
                missing_anchors.append(name)
                rows.append((name, base[key], None, None, "MISSING ANCHOR"))
            else:
                rows.append((name, base[key], None, None, "missing"))
            continue
        old, new = base[key], cand[key]
        ratio = new / old if old > 0 else float("inf")
        status = "ok"
        if is_anchor(key) and ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            regressions.append((name, old, new, ratio))
        elif not is_anchor(key):
            status = "info"
        rows.append((name, old, new, ratio, status))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'bench':<{width}}  {'base':>12}  {'new':>12}  {'ratio':>7}  status")
    for name, old, new, ratio, status in rows:
        old_s = f"{old:12.2f}" if old is not None else f"{'-':>12}"
        new_s = f"{new:12.2f}" if new is not None else f"{'-':>12}"
        ratio_s = f"{ratio:7.2f}" if ratio is not None else f"{'-':>7}"
        print(f"{name:<{width}}  {old_s}  {new_s}  {ratio_s}  {status}")

    # Same-file observability overhead gate: bench_micro_obs's median paired
    # metrics-on/metrics-off ratio must stay within --obs-overhead.
    # Independent of the baseline and of --ignore-regressions — the ratio
    # pairs chunks from the same run on the same box, so noise cancels.
    obs_ratio = load_obs_ratio(args.candidate)
    if obs_ratio is None:
        obs_off = cand.get(("obs_overhead", "session_trials_per_sec_metrics_off"))
        obs_on = cand.get(("obs_overhead", "session_trials_per_sec_metrics_on"))
        if obs_off is not None and obs_on is not None and obs_off > 0:
            obs_ratio = obs_on / obs_off
    obs_failed = False
    if obs_ratio is not None:
        if obs_ratio < 1.0 - args.obs_overhead:
            obs_failed = True
            print(f"\nobservability overhead gate: metrics_on/metrics_off = "
                  f"{obs_ratio:.4f}x exceeds the {args.obs_overhead:.0%} "
                  f"budget", file=sys.stderr)
        else:
            print(f"\nobservability overhead: metrics_on/metrics_off = "
                  f"{obs_ratio:.4f}x (budget {args.obs_overhead:.0%})")

    failed = obs_failed
    if missing_anchors:
        print(f"\n{len(missing_anchors)} anchor(s) missing from "
              f"{args.candidate} (crashed or skipped bench?):", file=sys.stderr)
        for name in missing_anchors:
            print(f"  {name}", file=sys.stderr)
        failed = True
    if regressions:
        print(f"\n{len(regressions)} anchor regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, old, new, ratio in regressions:
            print(f"  {name}: {old:.2f} -> {new:.2f} ({ratio:.2f}x)",
                  file=sys.stderr)
        if args.ignore_regressions:
            print("(--ignore-regressions: not gating on these)", file=sys.stderr)
        else:
            failed = True
    if failed:
        return 1
    print("\nno anchor regressions beyond "
          f"{args.threshold:.0%} ({len(rows)} records compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
