#!/usr/bin/env python3
"""Bench-regression gate: compare a freshly produced BENCH_*.json against the
committed baseline and fail on regression.

Usage:
    tools/check_bench.py --fresh build/BENCH_server.json \
                         --baseline BENCH_server.json

Design (DESIGN.md section 6.3):

* The gate is *direction-aware*: throughput/speedup metrics fail only when
  they drop, latency metrics only when they rise. A faster runner or a perf
  win never trips it.
* Ratio metrics (speedups measured within one run, e.g.
  speedup_server_vs_cold) are machine-portable, so they get the tight
  +-40% noise band the workload's run-to-run jitter comfortably fits in.
* Absolute metrics (worlds/sec, qps, p99 ms) shift with runner hardware —
  baselines are produced on the dev container, checked on CI runners — so
  they get a generous 60% band: they only catch catastrophic (>2.5x)
  collapses, which is exactly what an absolute number can still prove
  across machines.
* Workload-identity keys (states, objects, worlds, queries, threads, ...)
  must match exactly: comparing different workloads is a config bug, not a
  perf result, and fails loudly.

Exit status: 0 all checks pass, 1 regression or config mismatch, 2 usage.
"""

import argparse
import json
import math
import os
import sys

# Direction of badness: "down" fails when fresh < baseline * (1 - band),
# "up" fails when fresh > baseline / (1 - band) — multiplicatively
# symmetric, so a 60% band tolerates the same 2.5x factor in either
# direction (a "+band" up-limit would trip at just 1.6x, far short of the
# catastrophic-collapse contract the absolute metrics promise).
RATIO_BAND = 0.40     # machine-portable within-run ratios
ABSOLUTE_BAND = 0.60  # absolute throughput/latency across machines

# key -> (direction, band). Keys absent from either file are skipped with a
# note (older baselines predate some metrics), so adding a metric to a bench
# does not break the gate until the baseline is refreshed.
CHECKS = {
    "micro_sampling": {
        "worlds_per_second": ("down", ABSOLUTE_BAND),
        "trajectories_per_second": ("down", ABSOLUTE_BAND),
    },
    "micro_engine": {
        "speedup_vs_single_shot": ("down", RATIO_BAND),
        "speedup_vs_warm_engine": ("down", RATIO_BAND),
        "qps_session_batch": ("down", ABSOLUTE_BAND),
        # The intra-query-parallel backends' own tracked lines (PR 5).
        "qps_markov_approx": ("down", ABSOLUTE_BAND),
        "qps_exact": ("down", ABSOLUTE_BAND),
        # The shared world arena on a hot (interval, seed) group (PR 6):
        # the on/off qps lines are absolute, the within-run ratio is
        # machine-portable. Arena evaluation skips the alias-sampling walk,
        # so the ratio sits >1 even single-core; the band only rejects the
        # amortization genuinely regressing.
        "qps_arena_on": ("down", ABSOLUTE_BAND),
        "qps_arena_off": ("down", ABSOLUTE_BAND),
        "arena_speedup": ("down", RATIO_BAND),
        # Adaptive precision vs fixed sampling (PR 7): the on/off qps lines
        # are absolute; the within-run speedup ratio is machine-portable.
        # mean_worlds_used is deterministic (identical stop decisions at any
        # thread count), so an *increase* means the stopping rule got less
        # effective — direction "up".
        "qps_adaptive_on": ("down", ABSOLUTE_BAND),
        "qps_adaptive_off": ("down", ABSOLUTE_BAND),
        "adaptive_speedup": ("down", RATIO_BAND),
        "mean_worlds_used": ("up", RATIO_BAND),
    },
    "micro_server": {
        "speedup_server_vs_cold": ("down", RATIO_BAND),
        "speedup_server_vs_runall": ("down", RATIO_BAND),
        "qps_server": ("down", ABSOLUTE_BAND),
        "qps_server_1lane": ("down", ABSOLUTE_BAND),
        "latency_p99_ms": ("up", ABSOLUTE_BAND),
        # Morsel stealing vs the group scheduler on the skewed stream: a
        # within-run p99 ratio, so it gets the machine-portable band. On a
        # 1-core runner it hovers near 1.0 (no idle lane to steal with);
        # the band then only rejects a genuine regression, while a
        # multi-core runner's >=1.3x win can only push it further up.
        "steal_speedup": ("down", RATIO_BAND),
        "p99_skew_steal": ("up", ABSOLUTE_BAND),
        # The arena on/off comparison on the hot-group skewed stream (PR 6).
        "qps_arena_on": ("down", ABSOLUTE_BAND),
        "qps_arena_off": ("down", ABSOLUTE_BAND),
        "arena_speedup": ("down", RATIO_BAND),
        # Adaptive precision served through the lane/morsel tier (PR 7).
        "qps_adaptive_on": ("down", ABSOLUTE_BAND),
        "qps_adaptive_off": ("down", ABSOLUTE_BAND),
        "adaptive_speedup": ("down", RATIO_BAND),
        "mean_worlds_used": ("up", RATIO_BAND),
        # Request tracing (PR 8): trace_overhead = qps tracing-off /
        # qps tracing-on on the same stream — a within-run ratio that must
        # stay near 1.0, so it gets a tight 10% rise band (tracing must be
        # cheap enough to turn on against a live serving problem). The
        # traced run's absolute qps keeps the catastrophic-collapse check.
        "qps_trace_on": ("down", ABSOLUTE_BAND),
        "trace_overhead": ("up", 0.10),
    },
    "micro_overload": {
        # Overload robustness (PR 10). goodput_saturated_ratio — goodput at
        # the highest offered multiple (~2x saturation) over the sweep's
        # peak — is the headline flatness claim: deadline shedding plus
        # graceful degradation keep it near 1.0, while an unprotected
        # server collapses toward 0. A within-run ratio, so it gets the
        # machine-portable band (the binary additionally gates it at
        # --min_ratio). The throughput/latency curve points are absolute.
        "goodput_saturated_ratio": ("down", RATIO_BAND),
        "saturation_qps": ("down", ABSOLUTE_BAND),
        "peak_goodput_qps": ("down", ABSOLUTE_BAND),
        "goodput_saturated_qps": ("down", ABSOLUTE_BAND),
        "p99_overload_ms": ("up", ABSOLUTE_BAND),
    },
    "micro_ingest": {
        # Online index maintenance (PR 9). delta_speedup — the qps ratio of
        # the base ∪ delta probe over the stale-index drop fallback at the
        # same post-write epoch — is a within-run ratio, so it gets the
        # machine-portable band; with the committed baseline >= 2x the band
        # floor keeps the tentpole claim (delta beats rebuild-or-drop)
        # gated on every run. The open-loop churn numbers (queries served
        # while a writer and the background compactor run) are absolute.
        "delta_speedup": ("down", RATIO_BAND),
        "qps_delta": ("down", ABSOLUTE_BAND),
        "qps_fallback": ("down", ABSOLUTE_BAND),
        "qps_ingest": ("down", ABSOLUTE_BAND),
        "p99_ingest_ms": ("up", ABSOLUTE_BAND),
    },
}

# Workload identity and hardware shape: these must be byte-equal or the
# comparison is void. A key missing from either side is not compared, so a
# baseline recorded before a key existed still gates until it is refreshed.
CONFIG_KEYS = [
    "benchmark", "num_states", "num_objects", "num_worlds", "num_queries",
    "num_participants", "num_intervals", "interval_length", "threads",
    "lanes", "clients", "max_batch_size", "executor", "arena", "skew",
    "morsel_specs", "adaptive", "adaptive_worlds",
    "markov_objects", "markov_queries", "exact_objects", "exact_queries",
    "writes", "write_interval_us", "compaction_interval_ms",
    "pool", "queue_capacity", "deadline_ms", "seconds_per_point",
    "num_multiples", "max_multiple", "max_batch_delay_ms",
    "hw_threads", "simd",
]


def write_step_summary(name, fresh_path, rows, failures):
    """Mirror the verdict into $GITHUB_STEP_SUMMARY (when set) so a failing
    gate is actionable from the run page: the offending key, committed vs
    measured value, and the allowed band — without digging through logs."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [f"### check_bench: `{name}` ({fresh_path})", ""]
    if rows:
        lines += ["| key | committed | measured | allowed | verdict |",
                  "|---|---|---|---|---|"]
        for key, base, now, allowed, ok in rows:
            verdict = "ok" if ok else "**FAIL**"
            lines.append(f"| `{key}` | {base:.4g} | {now:.4g} "
                         f"| {allowed} | {verdict} |")
        lines.append("")
    config_failures = [f for f in failures if f.startswith("config mismatch")]
    for failure in config_failures:
        lines.append(f"- {failure}")
    lines.append("")
    lines.append(f"**{len(failures)} failure(s)**" if failures
                 else "All checks passed.")
    lines.append("")
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n".join(lines))
    except OSError as e:
        print(f"check_bench: cannot write step summary: {e}", file=sys.stderr)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True,
                        help="JSON produced by this CI run")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--band-scale", type=float, default=1.0,
                        help="multiply every band (sanitizer jobs etc.)")
    args = parser.parse_args()

    fresh = load(args.fresh)
    baseline = load(args.baseline)

    name = baseline.get("benchmark")
    if name not in CHECKS:
        print(f"check_bench: no checks defined for benchmark {name!r}",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    rows = []  # (key, committed, measured, allowed, ok) for the summary

    for key in CONFIG_KEYS:
        if key in baseline and key in fresh and baseline[key] != fresh[key]:
            failures.append(
                f"config mismatch on {key!r}: baseline={baseline[key]} "
                f"fresh={fresh[key]} — regenerate the baseline or fix the "
                f"CI flags; comparing different workloads proves nothing")

    print(f"== {name}: {args.fresh} vs baseline {args.baseline} ==")
    for key, (direction, band) in CHECKS[name].items():
        if key not in baseline or key not in fresh:
            print(f"  skip  {key:<28} (missing from "
                  f"{'baseline' if key not in baseline else 'fresh'})")
            continue
        base, now = float(baseline[key]), float(fresh[key])
        if not (math.isfinite(base) and math.isfinite(now)) or base <= 0:
            failures.append(f"{key}: non-finite or non-positive values "
                            f"(baseline={base}, fresh={now})")
            continue
        eff_band = band * args.band_scale
        if direction == "down":
            limit = base * (1.0 - eff_band)
            ok = now >= limit
            verdict = f">= {limit:.4g}"
        else:
            limit = base / (1.0 - eff_band) if eff_band < 1.0 else math.inf
            ok = now <= limit
            verdict = f"<= {limit:.4g}"
        status = "ok   " if ok else "FAIL "
        print(f"  {status} {key:<28} baseline={base:<12.4g} "
              f"fresh={now:<12.4g} (need {verdict})")
        rows.append((key, base, now, verdict, ok))
        if not ok:
            failures.append(
                f"{key}: {now:.4g} vs baseline {base:.4g} breaches the "
                f"{eff_band:.0%} {'drop' if direction == 'down' else 'rise'} "
                f"band")

    write_step_summary(name, args.fresh, rows, failures)
    if failures:
        print(f"\ncheck_bench: {len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print("check_bench: all checks passed")


if __name__ == "__main__":
    main()
