#!/usr/bin/env python3
"""Diffs two bench JSON streams and flags regressions on the micro anchors.

The perf trajectory is a sequence of files produced by tools/run_benches.sh
(one JSON object per line): BENCH_pr1.json, BENCH_pr2.json, ... committed at
the repo root. This tool compares two of them:

    tools/bench_compare.py BENCH_pr2.json benches.json [--threshold 0.10]

Records are keyed on (bench, variant) and compared by ops_per_sec. Each
rate record declares whether it gates: the bench_micro_* binaries print
`"gate": true` on their anchors and `"gate": false` on rates that move with
the host rather than the code (bench/bench_common.h, PrintRate). The
candidate's declaration wins, then the baseline's; a rate record without
one (older snapshots) gates. Records without ops_per_sec — status records,
speedup summaries, the paper-figure harnesses' output — never gate.

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

# Summary records (speedup ratios, backend info) carry no ops_per_sec.
RATE_KEY = "ops_per_sec"


def load_records(path):
    """Returns {(bench, variant): (ops_per_sec, gate)} for rate records in `path`."""
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
                records[key] = (float(obj[RATE_KEY]), obj.get("gate", True) is True)
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


def gates(key, base, cand):
    """The record's gate declaration: the candidate's, else the baseline's."""
    return (cand.get(key) or base[key])[1]


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
        anchor = gates(key, base, cand)
        if key not in base:
            rows.append((name, None, cand[key][0], None, "new"))
            continue
        if key not in cand:
            if anchor:
                missing_anchors.append(name)
                rows.append((name, base[key][0], None, None, "MISSING ANCHOR"))
            else:
                rows.append((name, base[key][0], None, None, "missing"))
            continue
        old, new = base[key][0], cand[key][0]
        ratio = new / old if old > 0 else float("inf")
        status = "ok"
        if anchor and ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            regressions.append((name, old, new, ratio))
        elif not anchor:
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
        if obs_off is not None and obs_on is not None and obs_off[0] > 0:
            obs_ratio = obs_on[0] / obs_off[0]
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
