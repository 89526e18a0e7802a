#!/usr/bin/env python3
"""End-to-end benchmark of the faascost simulators.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 25 --trace 0

Builds perfbench/faasbench (CMake, into $CARGO_TARGET_DIR or .bench_build),
then runs the workload's scenario repeatedly, one single-threaded process per
repetition. The number of repetitions is fixed by --seconds and the
workload's nominal repetition cost (REP_COST_S), never by how fast the
repetitions go, so a run lasts about --seconds on the baseline host. Each
repetition generates its inputs from a seed derived from --seed (see
input_seed), so the same --seed gives the same inputs. Every metric is
printed by name with its unit; the last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics over untraced repetitions.
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans of
every traced repetition, with self times, are written under the build
directory.

`attempted`/`failed` count correctness checks: the simulator's own end-of-run
audit rules and USD reconciliations (run inside faasbench), identical
simulated statistics across repetitions of the same inputs (traced and
untraced), the goldens in perfbench/goldens.json at the default seed, and on
fleet-day the checkpoint resume-equivalence run. Any failed check makes the
exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet-day", "fleet-net", "platform-churn", "workflow-fanout")
DEFAULT_SEED = 1  # The seed perfbench/goldens.json was recorded at.
# Wall seconds of one full-size repetition (process start to exit) on the
# baseline host of perfbench/baseline.json, untraced; a traced one costs
# about the same. fleet-day also runs one resume-equivalence process per run.
# A run's repetition count comes from --seconds and these constants alone,
# never from how fast the repetitions actually go, so two commits compared
# on one host take their medians over the same number of samples.
REP_COST_S = {
    "fleet-day": 3.4,
    "fleet-net": 3.2,
    "platform-churn": 2.8,
    "workflow-fanout": 4.6,
}
RESUME_COST_S = {"fleet-day": 7.0}
# Distance between the input seeds of a run's repetition slots.
SEED_STRIDE = 1_000_003
# Fewest repetitions per run: untraced with --trace 0, traced and untraced
# each with --trace 1.
MIN_REPS = {0: 3, 1: 2}
# Together these keep a run under three minutes even if a process hangs or
# the host is several times slower than the baseline host: no repetition
# starts after MAX_RUN_S, and no process may take longer than REP_TIMEOUT_S.
MAX_RUN_S = 90.0
REP_TIMEOUT_S = 40

END_TO_END = {
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "per_req_growth": "ratio",
}

# Per-layer metrics with units. A workload that bypasses a layer reports 0
# for its metrics (see perfbench/README.md for which workload moves which).
PER_LAYER = {
    "trace.generate_s": "s",
    "trace.records_per_s": "1/s",
    "cluster.start_s": "s",
    "cluster.run_s": "s",
    "cluster.ns_per_req": "ns",
    "cluster.q1_ns_per_req": "ns",
    "cluster.q4_ns_per_req": "ns",
    "cluster.slice_ms_p50": "ms",
    "cluster.slice_ms_p99": "ms",
    "cluster.finish_s": "s",
    "cluster.queue_peak": "count",
    "cluster.attempts": "count",
    "cluster.sandboxes": "count",
    "cluster.cold_starts": "count",
    "cluster.success_ratio": "ratio",
    "platform.start_s": "s",
    "platform.run_s": "s",
    "platform.q1_ns_per_req": "ns",
    "platform.q4_ns_per_req": "ns",
    "platform.slice_ms_p50": "ms",
    "platform.slice_ms_p99": "ms",
    "platform.finish_s": "s",
    "platform.sandboxes_created": "count",
    "platform.attempts": "count",
    "platform.cold_starts": "count",
    "platform.success_ratio": "ratio",
    "billing.rebill_s": "s",
    "billing.invoice_ns": "ns",
    "billing.invoices": "count",
    "workflow.run_s": "s",
    "workflow.ns_per_hop": "ns",
    "workflow.audit_s": "s",
    "workflow.attempts": "count",
    "workflow.dispatched": "count",
    "workflow.hedges": "count",
    "workflow.useful_usd_ratio": "ratio",
    "net.transfers": "count",
    "net.rerouted": "count",
    "net.gb": "GB",
    "obs.spans": "count",
    "obs.span_mb": "MB",
    "obs.windows": "count",
    "obs.reconcile_s": "s",
    "integrity.checkpoint_s": "s",
    "integrity.checkpoint_mb": "MB",
    "integrity.digest_s": "s",
    "integrity.resume_s": "s",
    "bench.tracing_overhead": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds faasbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "faasbench", "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)} failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} exited {proc.returncode}")
            return None
    binary = os.path.join(out, "faasbench")
    return binary if os.path.exists(binary) else None


def run_rep(binary, workload, seed, mode, size, run_id):
    """One faasbench process; returns its parsed report or an error string."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--size", size, "--run-id", run_id]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"{run_id}: timed out after {REP_TIMEOUT_S}s"
    if proc.returncode != 0:
        return f"{run_id}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"{run_id}: unparseable output"


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def take_report(self, rep):
        for c in rep["checks"]:
            self.expect(f"{rep['run_id']}.{c['name']}", c["ok"], c["detail"])


def input_seed(seed, slot):
    """Input seed of a run's repetition slot.

    Slot 0 simulates --seed itself, so the goldens apply to it at seed 1.
    Later slots simulate other inputs of the same workload. Some figures
    depend on the inputs as much as on the host: fleet-net's per_req_growth
    read about 1.2 on seed 9002 and about 1.9 on seed 9001, process after
    process. So a run's medians cover several inputs, not one.
    """
    return (seed + slot * SEED_STRIDE) % 2**63


def planned_reps(workload, seconds, trace):
    """Repetitions of each kind (untraced; or traced and untraced) in a run."""
    budget = seconds - RESUME_COST_S.get(workload, 0.0)
    kinds = 1 if trace == 0 else 2
    return max(MIN_REPS[trace], int(budget / (kinds * REP_COST_S[workload])))


def self_times(spans):
    """Span duration minus the time its direct children cover, per span."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [s["end_ns"] - s["start_ns"] - c for s, c in zip(spans, child)]


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition (0 = layer bypassed)."""
    dur = {}
    slices = {"cluster": [], "platform": []}
    for s in rep["spans"]:
        d = (s["end_ns"] - s["start_ns"]) / 1e9
        dur[s["name"]] = dur.get(s["name"], 0.0) + d
        layer = s["name"].split(".")[0]
        if s["name"].endswith(".advance") and layer in slices:
            slices[layer].append(d * 1e3)
    counts = rep["counts"]
    m = {name: 0.0 for name in PER_LAYER}
    m.update({k: v for k, v in counts.items() if k in m})
    qn, qr = rep["quarter_ns"], rep["quarter_reqs"]

    def ns_per(q):
        return qn[q] / qr[q] if qr[q] else 0.0

    if "trace.generate" in dur:
        m["trace.generate_s"] = dur["trace.generate"]
        m["trace.records_per_s"] = counts["trace.records"] / dur["trace.generate"]
    for layer in ("cluster", "platform"):
        if f"{layer}.start" not in dur:
            continue
        run_s = sum(dur.get(f"{layer}.q{q}", 0.0) for q in range(1, 5))
        m[f"{layer}.start_s"] = dur[f"{layer}.start"]
        m[f"{layer}.run_s"] = run_s
        m[f"{layer}.q1_ns_per_req"] = ns_per(0)
        m[f"{layer}.q4_ns_per_req"] = ns_per(3)
        m[f"{layer}.slice_ms_p50"] = percentile(slices[layer], 0.50)
        m[f"{layer}.slice_ms_p99"] = percentile(slices[layer], 0.99)
        m[f"{layer}.finish_s"] = dur[f"{layer}.finish"]
        if layer == "cluster":
            m["cluster.ns_per_req"] = run_s * 1e9 / rep["requests"]
    if "billing.rebill" in dur:
        m["billing.rebill_s"] = dur["billing.rebill"]
        m["billing.invoice_ns"] = dur["billing.rebill"] * 1e9 / counts["billing.invoices"]
    if "workflow.run" in dur:
        m["workflow.run_s"] = dur["workflow.run"]
        m["workflow.ns_per_hop"] = dur["workflow.run"] * 1e9 / rep["requests"]
        m["workflow.audit_s"] = dur["workflow.audit"]
    for span, metric in (("obs.reconcile", "obs.reconcile_s"),
                         ("integrity.checkpoint", "integrity.checkpoint_s"),
                         ("integrity.digest", "integrity.digest_s")):
        m[metric] = dur.get(span, 0.0)
    return m


def median_rate(reps):
    """Median simulated requests per host second over the reps."""
    return statistics.median(r["requests"] / (r["scenario_ns"] / 1e9) for r in reps)


def growth(rep):
    """Last-quarter host ns per request ÷ first-quarter, within one rep.

    Both quarters run in the same process seconds apart, so a slow spell
    that spans the process cancels out of the ratio.
    """
    qn, qr = rep["quarter_ns"], rep["quarter_reqs"]
    return (qn[3] / qr[3]) / (qn[0] / qr[0])


def e2e_metrics(reps):
    """End-to-end metrics over the untraced repetitions of one run, each the
    median over the repetitions.

    On a shared host, other tenants slow a process by up to 2x for spells of
    a few seconds, and quiet spells come and go. A minimum depends on whether
    a run happens to catch a quiet spell; the median does not, so two runs
    of the same code agree more closely on it.
    """
    return {
        "requests_per_s": median_rate(reps),
        "setup_s": statistics.median(r["setup_ns"] for r in reps) / 1e9,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "per_req_growth": statistics.median(growth(r) for r in reps),
    }


def write_spans(reps, workload, seed, trace):
    """Writes every traced repetition's spans, with self time, as JSON."""
    out_dir = os.path.join(build_dir(), "spans")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    for rep in reps:
        spans = rep["spans"]
        for s, self_ns in zip(spans, self_times(spans)):
            s["self_ns"] = self_ns
        runs.append({"run_id": rep["run_id"], "spans": spans})
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "runs": runs}, f)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes (no goldens)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary = build()
    if binary is None:
        return 2

    checks = Checks()
    reps = []  # (mode, report)
    planned = planned_reps(args.workload, args.seconds, args.trace)
    # (mode, slot) of each repetition. --trace 0 runs one untraced repetition
    # per slot, and its last repetition repeats slot 0 so that determinism is
    # checked; --trace 1 runs a traced and an untraced repetition per slot.
    if args.trace == 0:
        schedule = [("untraced", i) for i in range(planned - 1)] + [("untraced", 0)]
    else:
        schedule = [(mode, i) for i in range(planned) for mode in ("traced", "untraced")]
    began = time.monotonic()
    for i, (mode, slot) in enumerate(schedule):
        if time.monotonic() - began > MAX_RUN_S:
            # Only on a host several times slower than the baseline one: the
            # medians then come from fewer samples than planned.
            log(f"perfbench: WARNING: stopped after {i} of {len(schedule)} "
                f"repetitions to stay within {MAX_RUN_S:.0f} s")
            break
        seed = input_seed(args.seed, slot)
        run_id = f"{args.workload}-s{seed}-{mode}-{i}"
        rep = run_rep(binary, args.workload, seed, mode, args.size, run_id)
        if isinstance(rep, str):
            checks.expect(run_id, False, rep)
            break
        checks.take_report(rep)
        reps.append((mode, rep))

    resume = None
    if args.workload == "fleet-day":
        seed = input_seed(args.seed, 0)
        resume = run_rep(binary, args.workload, seed, "resume", args.size,
                         f"{args.workload}-s{seed}-resume")
        if isinstance(resume, str):
            checks.expect("resume", False, resume)
            resume = None
        else:
            checks.take_report(resume)

    # Determinism: repetitions of the same inputs, traced or not, and the
    # resume run's straight leg simulate the same statistics.
    first = {}
    for mode, rep in reps:
        ref = first.setdefault(rep["seed"], rep)
        if ref is not rep:
            checks.expect(f"{rep['run_id']}.same_stats_as_{ref['run_id']}",
                          rep["stats"] == ref["stats"], f"{rep['stats']} vs {ref['stats']}")
    ref = reps[0][1]["stats"] if reps else {}  # Slot 0: the inputs of --seed.
    if resume is not None:
        for key, value in resume["stats"].items():
            checks.expect(f"resume.straight_{key}", ref.get(key) == value,
                          f"{value} vs timed {ref.get(key)}")
    if args.seed == DEFAULT_SEED and args.size == "full" and reps:
        with open(os.path.join(HERE, "goldens.json")) as f:
            golden = json.load(f)[args.workload]
        for key, value in golden.items():
            checks.expect(f"golden.{key}", ref.get(key) == value,
                          f"{ref.get(key)} vs golden {value}")

    untraced = [r for m, r in reps if m == "untraced"]
    traced = [r for m, r in reps if m == "traced"]
    metrics = {}
    if untraced and args.trace == 0:
        values = e2e_metrics(untraced)
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
    elif traced and untraced:
        per_rep = [layer_metrics(r) for r in traced]
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(p[name] for p in per_rep),
                             "unit": unit}
        if resume is not None:
            span = next(s for s in resume["spans"] if s["name"] == "integrity.resume")
            metrics["integrity.resume_s"]["value"] = (span["end_ns"] - span["start_ns"]) / 1e9
        metrics["bench.tracing_overhead"]["value"] = (
            median_rate(untraced) / median_rate(traced) - 1.0)
        log(f"perfbench: spans written to {write_spans(traced, args.workload, args.seed, args.trace)}")

    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    for failure in checks.failures:
        log(f"perfbench: CHECK FAILED {failure}")
    log(f"perfbench: {args.workload} seed {args.seed}: "
        f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
        f"{time.monotonic() - began:.1f} s wall")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
