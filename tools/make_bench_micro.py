#!/usr/bin/env python3
"""Condense google-benchmark JSON into BENCH_micro.json and gate overhead.

Reads the aggregate output of `bench_micro_simulators --benchmark_repetitions=N
--benchmark_report_aggregates_only=true --benchmark_format=json`, keeps the
median and stddev rows per benchmark (events/sec where the bench reports
items, ns/request otherwise), and writes the ROADMAP perf-trajectory artifact.

Several input files may be given — one per independent bench process. The
artifact keeps each benchmark's best (highest-throughput) median across
runs: machine noise on a shared box is strictly subtractive — steal time,
frequency drops, cache pollution only ever make a run slower — so best-of-N
estimates the code's true speed. The overhead gate, by contrast, pairs each
detached/instrumented ratio WITHIN one process (the two benches share that
process's noise phase, so common-mode noise cancels in the ratio) and fails
a pair only when every process agrees it is out of bounds. One process is
one draw from the box's noise distribution; the within-process stddev below
cannot see cross-process noise, but consensus across processes can absorb
it.

The overhead gate is two-sided. An instrumented simulator run (audited or
monitored) must not be more than BUDGET_PCT slower than its detached
counterpart — the integrity/telemetry overhead contract. But it must also not
be *faster* than detached beyond the pair's measured noise band: instrumented
code cannot outrun the identical code with the instrumentation removed, so a
negative overhead past noise means the measurement itself is broken (wrong
binary, thermal drift between runs, a dead-code'd loop) and the "overhead OK"
verdict is meaningless. Each pair's noise band is derived from the benchmark's
own stddev aggregates: noise_pct = 100 * sqrt(cv_base^2 + cv_inst^2), the
relative standard deviation of the throughput ratio, floored at
NOISE_FLOOR_PCT and widened by NOISE_SIGMAS.

The growth gate holds the ROADMAP rule that per-request cost stays flat as
the trace grows. For each GROWTH_PAIRS entry it takes ns/request at the
large size over ns/request at the small size, paired within one process
like the overhead ratios, and fails only when every process puts the ratio
above GROWTH_MAX.

Usage: make_bench_micro.py <google-benchmark.json>... <BENCH_micro.json>
"""

import json
import math
import sys

BUDGET_PCT = 10.0
# Floor on the noise band (pct) so a suspiciously tight stddev from a short
# run cannot turn ordinary jitter into a gate failure.
NOISE_FLOOR_PCT = 2.0
# Width of the band in stddevs of the ratio.
NOISE_SIGMAS = 3.0
# (label, detached benchmark, instrumented benchmark) — medians are compared.
OVERHEAD_PAIRS = [
    ("platform", "BM_PlatformSimThousandRequests", "BM_PlatformSimThousandRequestsAudited"),
    ("fleet", "BM_FleetSimDay/50000", "BM_FleetSimDayAudited/50000"),
    ("platform_monitored", "BM_PlatformSimThousandRequests",
     "BM_PlatformSimThousandRequestsMonitored"),
    ("fleet_monitored", "BM_FleetSimDay/50000", "BM_FleetSimDayMonitored/50000"),
]
# (label, small benchmark, large benchmark) — ns/request growth between them.
GROWTH_PAIRS = [
    ("fleet", "BM_FleetSimDay/50000", "BM_FleetSimDay/1000000"),
]
# Bound on the large/small ns-per-request ratio. Nine bench processes on a
# shared 4-vCPU Xeon measured 0.96-1.35 for the fleet pair (median 1.10);
# the rest is margin for that host's noise.
GROWTH_MAX = 1.5


def load_one(path):
    """(medians, stddevs) from one google-benchmark aggregate JSON."""
    with open(path) as f:
        raw = json.load(f)
    medians = {}
    stddevs = {}
    for row in raw.get("benchmarks", []):
        agg = row.get("aggregate_name")
        name = row["run_name"]
        if agg == "median":
            entry = {"ns_per_iter": row["real_time"]}
            ips = row.get("items_per_second")
            if ips:
                entry["items_per_second"] = ips
                entry["ns_per_item"] = 1e9 / ips
            medians[name] = entry
        elif agg == "stddev":
            ips = row.get("items_per_second")
            if ips is not None:
                stddevs[name] = ips
    return raw.get("context", {}), medians, stddevs


def faster(a, b):
    """True when median entry `a` beats `b` (higher throughput / lower time)."""
    if "items_per_second" in a and "items_per_second" in b:
        return a["items_per_second"] > b["items_per_second"]
    return a["ns_per_iter"] < b["ns_per_iter"]


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    inputs, out_path = sys.argv[1:-1], sys.argv[-1]

    context = {}
    medians = {}
    stddevs = {}
    runs = []  # (medians, stddevs) per process, for within-process pairing.
    for path in inputs:
        ctx, run_medians, run_stddevs = load_one(path)
        runs.append((run_medians, run_stddevs))
        if not context:
            context = ctx
        for name, entry in run_medians.items():
            if name not in medians or faster(entry, medians[name]):
                medians[name] = entry
                # Keep the winning run's own stddev so the noise band
                # describes the measurement actually used.
                if name in run_stddevs:
                    stddevs[name] = run_stddevs[name]
                else:
                    stddevs.pop(name, None)

    if not medians:
        print("make_bench_micro: no median aggregates in input", file=sys.stderr)
        return 1
    for name, sd in stddevs.items():
        if name in medians:
            medians[name]["items_per_second_stddev"] = sd

    overhead = {
        "budget_pct": BUDGET_PCT,
        "noise_floor_pct": NOISE_FLOOR_PCT,
        "noise_sigmas": NOISE_SIGMAS,
        "runs": len(inputs),
    }
    failed = False
    for label, detached, instrumented in OVERHEAD_PAIRS:
        # One (pct, noise, band) measurement per process that has the pair.
        measurements = []
        for run_medians, run_stddevs in runs:
            if detached not in run_medians or instrumented not in run_medians:
                continue
            base = run_medians[detached]["items_per_second"]
            inst = run_medians[instrumented]["items_per_second"]
            pct = (base / inst - 1.0) * 100.0
            # Relative stddev of the throughput ratio, from each side's own
            # spread; zero when the run had no stddev aggregates (reps == 1).
            cv_base = run_stddevs.get(detached, 0.0) / base if base else 0.0
            cv_inst = run_stddevs.get(instrumented, 0.0) / inst if inst else 0.0
            noise_pct = 100.0 * math.sqrt(cv_base * cv_base + cv_inst * cv_inst)
            band_pct = max(NOISE_FLOOR_PCT, NOISE_SIGMAS * noise_pct)
            measurements.append((pct, noise_pct, band_pct))
        if not measurements:
            print(f"make_bench_micro: missing pair for {label}", file=sys.stderr)
            failed = True
            continue
        # Consensus verdict: out of bounds only if every process says so.
        # Report the measurement closest to zero overhead — the draw least
        # disturbed by that process's noise phase.
        pct, noise_pct, band_pct = min(measurements, key=lambda m: abs(m[0]))
        all_over = all(m[0] > BUDGET_PCT for m in measurements)
        all_suspect = all(m[0] < -m[2] for m in measurements)
        overhead[label + "_pct"] = round(pct, 2)
        overhead[label + "_noise_pct"] = round(noise_pct, 2)
        overhead[label + "_spread_pct"] = [round(m[0], 2) for m in measurements]
        if all_over:
            status = "OVER BUDGET"
            failed = True
        elif all_suspect:
            status = f"SUSPECT (faster than detached beyond the {band_pct:.1f}% noise band)"
            failed = True
        else:
            status = "OK"
        spread = "/".join(f"{m[0]:+.1f}" for m in measurements)
        print(f"  {label}: instrumented {pct:+.1f}% vs detached "
              f"(runs {spread}), noise {noise_pct:.1f}% ({status})")

    growth = {"max_ratio": GROWTH_MAX, "runs": len(inputs)}
    growth_failed = False
    for label, small, large in GROWTH_PAIRS:
        ratios = [run_medians[large]["ns_per_item"] / run_medians[small]["ns_per_item"]
                  for run_medians, _ in runs
                  if small in run_medians and large in run_medians]
        if not ratios:
            print(f"make_bench_micro: missing growth pair for {label}", file=sys.stderr)
            growth_failed = True
            continue
        # Consensus again: only a ratio every process agrees on fails.
        ratio = min(ratios)
        growth[label + "_ratio"] = round(ratio, 3)
        growth[label + "_spread"] = [round(r, 3) for r in ratios]
        over = all(r > GROWTH_MAX for r in ratios)
        growth_failed = growth_failed or over
        spread = "/".join(f"{r:.2f}" for r in ratios)
        print(f"  {label} growth: ns/request {large} / {small} = {ratio:.2f}x "
              f"(runs {spread}), bound {GROWTH_MAX:.2f}x "
              f"({'OVER BOUND' if over else 'OK'})")

    with open(out_path, "w") as f:
        json.dump({
            "generator": "bench_micro_simulators (best median across runs)",
            "context": context,
            "benchmarks": medians,
            "integrity_overhead": overhead,
            "per_request_growth": growth,
        }, f, indent=2, sort_keys=True)
        f.write("\n")

    if failed:
        print("make_bench_micro: overhead gate failed — over the "
              f"{BUDGET_PCT:.0f}% budget or negative beyond noise", file=sys.stderr)
    if growth_failed:
        print("make_bench_micro: growth gate failed — per-request cost grows past "
              f"{GROWTH_MAX:.2f}x from the small to the large trace", file=sys.stderr)
    return 1 if failed or growth_failed else 0


if __name__ == "__main__":
    sys.exit(main())
