#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring program (benchmark/Cargo.toml) from source, runs it,
reports provenance, every output check, the simulated-result fingerprint of
each mechanism and every metric with its unit and sample count, and prints
as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero without a result when the
program cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        # cargo's own output goes to stderr: stdout carries only the result
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")


def measure(binary, args, env):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"measuring program exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"measuring program exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("measuring program printed no result")
    return json.loads(lines[-1])


def as_number(value):
    # the program writes an infinite percentile as "+inf": report it as such
    return float("inf") if value == "+inf" else value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    ref_path = BENCH_DIR / "reference.json"
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        fail("the simulator sources (crates/, Cargo.toml) are not here; nothing to build")
    spec = json.loads(spec_path.read_text())
    reference = json.loads(ref_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed is None:
        args.seed = reference["default_seed"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    binary = ROOT / env["CARGO_TARGET_DIR"] / "release" / "df-benchmark"
    result = measure(binary, args, env)

    provenance = dict(result["provenance"])
    provenance["rustc"] = run_quiet(["rustc", "--version"]) or "unknown"
    provenance["git_commit"] = (run_quiet(["git", "rev-parse", "HEAD"])
                                or "unknown (not a git checkout)")
    result["provenance"] = provenance

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    print("provenance " + "  ".join(f"{k}={v}" for k, v in provenance.items()))
    expected = reference["fingerprints"].get(args.workload, {}).get(str(args.seed), {})
    for run in result["runs"]:
        mech = run["mechanism"]
        bad = [c for c in run["checks"] if not c["ok"]]
        status = "FAILED " + ", ".join(f"{c['name']} ({c['detail']})" for c in bad) if bad else "ok"
        want = expected.get(mech)
        if want is None:
            match = "no reference for this seed"
        elif want == run["fingerprint"]:
            match = "matches reference"
        else:
            match = f"DIFFERS from reference {want}"
        print(f"  {mech:5s} checks {status}; window repeats {run['window_repeats']}; "
              f"fingerprint {run['fingerprint']} ({match})")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {as_number(m['value'])!s:>24} {m['unit']:12s} samples {m['samples']}")
    if "spans" in result:
        print(f"  spans written to {result['trace_file']}; self time per span name:")
        for name, s in result["spans"].items():
            print(f"    {name:28s} calls {s['calls']:>7}  total {s['total_ms']:>11.3f} ms  "
                  f"self {s['self_ms']:>11.3f} ms  count {s['count']}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the measuring program's output")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": as_number(got["value"]), "unit": m["unit"]}
    failed = int(result["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
