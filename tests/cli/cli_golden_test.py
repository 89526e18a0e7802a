#!/usr/bin/env python3
"""End-to-end goldens for the faascost CLI.

Runs the built `faascost` binary on a fixed list of small command lines, each
in a fresh working directory, and byte-compares stdout, stderr, the exit code
and every file the run wrote against tests/cli/golden/<case>/:

  golden/<case>/stdout, stderr, exit_code   what the process printed/returned
  golden/<case>/files/<path>                each file it wrote, by relative path

Usage:
  cli_golden_test.py --faascost PATH                 compare every case
  cli_golden_test.py --faascost PATH --record CASE…  rewrite those cases' goldens

A missing binary is a failure, not a skip. Cases run sequentially and each
child is memory-capped, so a regression that loops allocating (the old
`--rps inf` path) fails the case instead of exhausting the host.
"""

import argparse
import difflib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# One case: name, argv after the binary, input files placed in the working
# directory first ({name: bytes} or {name: (golden case, file)}), and files
# whose bytes are wall-clock dependent (checked to exist and parse as JSON).
CASES = []


def case(name, args, inputs=None, volatile=()):
    CASES.append({"name": name, "args": args.split(), "inputs": inputs or {},
                  "volatile": set(volatile)})


PLATFORM_CP = {"cp.json": ("audit_platform_checkpoint", "cp.json")}
FLEET_CP = {"cp.json": ("audit_fleet_checkpoint", "cp.json")}
FLEET_DAY = "--requests 600 --functions 20 --seconds 300"

case("no_command", "")
case("unknown_command", "frobnicate")
case("platforms", "platforms")
case("platforms_unread_flag", "platforms --json")

case("bill", "bill --platform aws --exec-ms 150 --cpu-ms 80 --vcpus 1 "
     "--mem-mb 1769 --init-ms 400 --used-mem-mb 300")
case("bill_missing_platform", "bill --exec-ms 150")
case("bill_unknown_platform", "bill --platform nope")
case("bill_malformed_number", "bill --platform gcp --exec-ms abc")
case("bill_exec_ms_overflow", "bill --platform aws --exec-ms 1e300")

case("generate", "generate --out day.csv --requests 300 --functions 20 --seed 2")
case("generate_missing_out", "generate --requests 10")
case("generate_functions_zero", "generate --out day.csv --functions 0")

case("cost_generated", "cost --requests 2000 --functions 50 --seed 3")
case("cost_trace", "cost --trace day.csv",
     inputs={"day.csv": ("generate", "day.csv")})
case("cost_missing_trace", "cost --trace missing.csv")
case("cost_zero_requests", "cost --requests 0")

case("rightsize_aws", "rightsize --platform aws --cpu-ms 160 --slo-ms 500")
case("rightsize_gcp", "rightsize --platform gcp --cpu-ms 160 --slo-ms 800 --mem-mb 512")
case("rightsize_bad_platform", "rightsize --platform azure")

case("failures", "failures --platform aws --rate 0.1 --retries 3 --rps 4 "
     "--seconds 20 --seed 3")
case("failures_json", "failures --platform gcp --rate 0.05 --timeout-ms 1000 "
     "--rps 4 --seconds 20 --json")
case("failures_unknown_platform", "failures --platform nope")
case("failures_no_preset", "failures --platform oracle")
case("failures_rate_range", "failures --rate 1.5")
case("failures_retries_invalid", "failures --retries 0")
case("failures_malformed_int", "failures --seconds 1e3")
case("failures_rps_nan", "failures --rps nan --seconds 5")
case("failures_rps_inf", "failures --rps inf --seconds 5")
case("failures_rps_zero", "failures --rps 0")
case("failures_rps_negative", "failures --rps -1")
case("failures_seconds_zero", "failures --seconds 0")
case("failures_timeout_nan", "failures --timeout-ms nan")
case("failures_stray_positional", "failures --rps 2 --seconds 5 stray")

case("chaos", "chaos --requests 2000 --functions 40 --seconds 600 --hosts 8 "
     "--mtbf-s 300 --seed 3")
case("chaos_json", "chaos --platform gcp --requests 2000 --functions 40 "
     "--seconds 600 --hosts 8 --mtbf-s 300 --mttr-s 60 --zones 2 "
     "--zone-outage-mtbf-s 400 --graceful 0.5 --breaker-threshold 5 "
     "--retries 2 --json")
case("chaos_graceful_invalid", "chaos --graceful 2")
case("chaos_seconds_zero", "chaos --seconds 0")
case("chaos_requests_zero", "chaos --requests 0")
case("chaos_functions_zero", "chaos --functions 0")
case("chaos_unread_flag", "chaos --hostz 3")

case("observe", "observe --out out --rps 2 --seconds 10 --seed 4 --cotenants 1")
case("observe_missing_out", "observe --rps 2")
case("observe_rps_zero", "observe --out out --rps 0")
case("observe_cotenants_negative", "observe --out out --cotenants -1")
case("observe_seconds_overflow", "observe --out out --seconds 10000000000000")
case("observe_rps_nan", "observe --out out --rps nan")

case("monitor_fleet", "monitor --out out --requests 1500 --functions 30 "
     "--seconds 600 --window 60 --seed 5 --profile-engine",
     volatile={"out/profile.json"})
case("monitor_platform", "monitor --sim platform --platform gcp --out out "
     "--rps 4 --seconds 120 --window 30 --slo 500 --rate 0.05 --retries 2")
case("monitor_missing_out", "monitor --seed 5")
case("monitor_bad_sim", "monitor --out out --sim bogus")
case("monitor_window_zero", "monitor --out out --window 0")
case("monitor_slo_target_invalid", "monitor --out out --slo-target 2")
case("monitor_slo_nan", "monitor --out out --slo nan")
case("monitor_fleet_requests_zero", "monitor --out out --requests 0")
case("monitor_platform_rps_zero", "monitor --out out --sim platform --rps 0")
case("monitor_platform_unread_flag", "monitor --out out --sim platform --hosts 4 "
     "--seconds 30")

case("audit_platform", "audit --sim platform --seconds 20 --seed 2")
case("audit_platform_checkpoint", "audit --sim platform --seconds 20 --seed 2 "
     "--checkpoint cp.json --checkpoint-every 7 --json")
case("audit_platform_resume", "audit --sim platform --seconds 20 --seed 2 "
     "--resume cp.json --json", inputs=PLATFORM_CP)
case("audit_platform_resume_mismatch", "audit --sim platform --seconds 20 "
     "--seed 2 --rate 0.1 --resume cp.json", inputs=PLATFORM_CP)
case("audit_resume_garbage", "audit --sim platform --resume garbage.json",
     inputs={"garbage.json": b"not a checkpoint\n"})
case("audit_fleet", f"audit --sim fleet {FLEET_DAY} --seed 2 --audit-level basic")
case("audit_fleet_checkpoint", f"audit --sim fleet {FLEET_DAY} --seed 2 "
     "--breaker-threshold 4 --checkpoint cp.json --checkpoint-at 120 --json")
case("audit_fleet_resume", f"audit --sim fleet {FLEET_DAY} --seed 2 "
     "--breaker-threshold 4 --resume cp.json --json", inputs=FLEET_CP)
case("audit_bad_sim", "audit --sim bogus")
case("audit_bad_level", "audit --audit-level bogus")
case("audit_checkpoint_every_alone", "audit --checkpoint-every 5")
case("audit_checkpoint_no_interval", "audit --checkpoint cp.json")
case("audit_scan_cadence_negative", "audit --scan-cadence -1")
case("audit_platform_rps_zero", "audit --sim platform --rps 0")
case("audit_fleet_requests_zero", "audit --sim fleet --requests 0")

case("workflows_fanout_json", "workflows --archetype fanout --hops 4 --quorum 3 "
     "--workflows 30 --rate 0.08 --retries 3 --zones 3 --outage-zone 1 "
     "--outage-start-s 5 --outage-seconds 10 --hedge-ms 600 --audit-level full "
     "--seed 7 --json")
case("workflows_chain", "workflows --archetype chain --hops 3 --workflows 20 "
     "--wps 4 --rate 0.05 --init-fail-rate 0.02 --exec-ms 50 --timeout-ms 500 "
     "--deadline-ms 2000 --no-propagate --async --async-redrives 1 "
     "--breaker-threshold 3 --platform gcp")
case("workflows_mapreduce", "workflows --archetype mapreduce --hops 3 "
     "--workflows 10 --audit-level basic")
case("workflows_bad_archetype", "workflows --archetype bogus")
case("workflows_hops_zero", "workflows --hops 0")
case("workflows_bad_level", "workflows --audit-level bogus")
case("workflows_wps_zero", "workflows --wps 0")
case("workflows_rate_nan", "workflows --rate nan")
case("workflows_outage_seconds_overflow",
     "workflows --outage-zone 0 --outage-seconds 1e300")

case("network_json", f"network {FLEET_DAY} --zones 3 --req-kb 16 --resp-kb 64 "
     "--rate 0.05 --outage-zone 0 --outage-start-s 30 --outage-seconds 120 "
     "--seed 5 --json")
case("network", f"network {FLEET_DAY} --zones 4 --zones-per-region 2 "
     "--class-a 2 --class-b 1 --window 10 --retries 2")
case("network_unknown_platform", "network --platform nope")
case("network_rate_range", "network --rate 2")
case("network_zones_invalid", "network --zones 0")
case("network_retries_invalid", "network --retries 0")
case("network_requests_zero", "network --requests 0")


def sanitized(binary):
    """True for ASan/TSan builds, whose shadow memory cannot run under RLIMIT_AS."""
    data = Path(binary).read_bytes()
    return b"__asan_init" in data or b"__tsan_init" in data


def run_case(binary, c, workdir, cap_address_space):
    workdir.mkdir()
    for name, src in c["inputs"].items():
        data = src if isinstance(src, bytes) else \
            (GOLDEN_DIR / src[0] / "files" / src[1]).read_bytes()
        (workdir / name).write_bytes(data)

    def limit():
        if cap_address_space:
            cap = 2 << 30
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ)
    env["ASAN_OPTIONS"] = ":".join(
        filter(None, [env.get("ASAN_OPTIONS"), "hard_rss_limit_mb=2048"]))
    proc = subprocess.run([binary] + c["args"], cwd=workdir, capture_output=True,
                          env=env, preexec_fn=limit, timeout=30)
    files = {}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel not in c["inputs"]:
            files[rel] = path.read_bytes()
    return {"stdout": proc.stdout, "stderr": proc.stderr,
            "exit_code": f"{proc.returncode}\n".encode(), "files": files}


def record(c, got):
    dest = GOLDEN_DIR / c["name"]
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "files").mkdir(parents=True)
    for stream in ("stdout", "stderr", "exit_code"):
        (dest / stream).write_bytes(got[stream])
    for rel, data in got["files"].items():
        out = dest / "files" / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)


def diff(want, got, label):
    lines = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        f"golden/{label}", f"actual/{label}", lineterm="", n=1)
    return "\n".join(list(lines)[:20])


def compare(c, got):
    """Returns a list of mismatch descriptions (empty when the case passes)."""
    src = GOLDEN_DIR / c["name"]
    if not src.is_dir():
        return [f"no golden recorded under {src}"]
    problems = []
    for stream in ("exit_code", "stdout", "stderr"):
        want = (src / stream).read_bytes()
        if want != got[stream]:
            problems.append(f"{stream} differs\n{diff(want, got[stream], stream)}")
    want_files = {p.relative_to(src / "files").as_posix(): p
                  for p in (src / "files").rglob("*") if p.is_file()}
    for rel in sorted(set(want_files) | set(got["files"])):
        if rel not in got["files"]:
            problems.append(f"file {rel} was not written")
        elif rel not in want_files:
            problems.append(f"unexpected file {rel} written")
        elif rel in c["volatile"]:
            try:
                json.loads(got["files"][rel])
            except ValueError as e:
                problems.append(f"file {rel} is not valid JSON: {e}")
        elif want_files[rel].read_bytes() != got["files"][rel]:
            problems.append(f"file {rel} differs\n"
                            f"{diff(want_files[rel].read_bytes(), got['files'][rel], rel)}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--faascost", required=True, help="path to the faascost binary")
    ap.add_argument("--record", nargs="+", metavar="CASE",
                    help="rewrite the goldens of these cases from the binary's output")
    args = ap.parse_args()

    binary = os.path.abspath(args.faascost)
    if not os.access(binary, os.X_OK):
        print(f"cli_golden_test: faascost binary not found at {binary}", file=sys.stderr)
        return 1
    names = {c["name"] for c in CASES}
    unknown = set(args.record or ()) - names
    if unknown:
        print(f"cli_golden_test: unknown cases {sorted(unknown)}", file=sys.stderr)
        return 1
    cap = not sanitized(binary)

    failed = 0
    with tempfile.TemporaryDirectory(prefix="faascost_cli_golden_") as tmp:
        for c in CASES:
            if args.record and c["name"] not in args.record:
                continue
            try:
                got = run_case(binary, c, Path(tmp) / c["name"], cap)
            except subprocess.TimeoutExpired:
                failed += 1
                print(f"FAIL {c['name']}: did not finish in 30 s")
                continue
            if args.record:
                record(c, got)
                print(f"recorded {c['name']}")
                continue
            problems = compare(c, got)
            if problems:
                failed += 1
                print(f"FAIL {c['name']}: faascost {' '.join(c['args'])}")
                for p in problems:
                    print("  " + p.replace("\n", "\n    "))
    if not args.record:
        print(f"{len(CASES) - failed}/{len(CASES)} CLI golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
