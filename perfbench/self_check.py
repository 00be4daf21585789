#!/usr/bin/env python3
"""Smoke-size self-check of the repository benchmark.

    python3 perfbench/self_check.py

Runs every workload at a tiny population through run.py (untraced), plus
one traced run (which always covers all three workloads), and asserts:

  * the last stdout line has exactly correct / attempted / failed / metrics,
    and every metric BENCHMARK.json names is emitted, with its unit, and no
    other;
  * nothing failed the correctness gate (failed == 0, no problems listed);
  * the traced run's layer-by-layer results matched api::run byte for byte
    (a mismatch is a gate failure) and its spans cover >= 90% of each
    workload's traced wall time;
  * the Chrome trace file parses and holds well-formed complete events.

Exits 0 when every check passes. Takes well under a minute once built.
"""

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SEED = 7
FAILURES = []


def check(ok, what):
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def run(workload, trace):
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"self_check: {' '.join(command)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, declared, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result line has exactly the four keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{label}: correct, {result['failed']} of {result['attempted']} failed")
    emitted = result["metrics"]
    check(set(emitted) == set(declared),
          f"{label}: emits every declared metric and no other "
          f"(missing {sorted(set(declared) - set(emitted))}, "
          f"extra {sorted(set(emitted) - set(declared))})")
    wrong_units = [name for name, unit in declared.items()
                   if name in emitted and emitted[name]["unit"] != unit]
    check(not wrong_units, f"{label}: units match BENCHMARK.json {wrong_units}")


def main():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        print(f"{workload} (untraced)")
        check_result(run(workload, 0), end_to_end, workload)

    print("traced run")
    traced = run(workloads[0], 1)
    check_result(traced, per_layer, "traced")
    stem = REPO_ROOT / ".bench_out" / f"{workloads[0]}-seed{SEED}-trace1"
    document = json.loads(stem.with_suffix(".json").read_text())
    check(not document["problems"],
          f"traced: no gate problems {document['problems'][:3]}")
    check(document["manifest"]["release_build"], "traced: Release build")
    for workload in workloads:
        coverage = traced["metrics"][f"trace.coverage.{workload}"]["value"]
        check(coverage >= 0.9, f"traced: spans cover {coverage:.4f} of "
                               f"{workload}'s traced wall time")
    trace_path = pathlib.Path(str(stem) + ".perfetto.json")
    events = json.loads(trace_path.read_text()).get("traceEvents", [])
    well_formed = all(e.get("ph") == "X" and e.get("dur", -1) >= 0
                      and "name" in e for e in events)
    check(bool(events) and well_formed,
          f"traced: {trace_path.name} parses, {len(events)} complete events")

    if FAILURES:
        sys.exit(f"self_check: {len(FAILURES)} check(s) failed")
    print("self_check: all checks passed")


if __name__ == "__main__":
    main()
