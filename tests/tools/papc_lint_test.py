#!/usr/bin/env python3
"""ctest driver for papc_lint (registered as `tools_papc_lint`).

Asserts, in order:
  1. each rule fixture trips exactly its rule ID (and nothing else) —
     including the v2 whole-program rules: D7 colliding substream labels,
     D8 unsafe shard captures, D9 unsequenced draws from one generator,
     and the L1 cycle / L2 upward-include tree
     fixtures linted as self-contained mini-repos via --tree,
  1d. L3: in the l3_unreachable tree exactly the unreached src/ files are
     flagged, a justified allow(L3) suppresses, a bare one is SUPP,
  2. the justified-suppression fixtures lint clean (exit 0),
  3. the unjustified-suppression fixture reports SUPP only,
  4. per-directory profiles: the same D3 fixture that fails as engine
     code passes when posed as a test file (engine-only rules relaxed),
  5. --github emits well-formed GitHub annotations,
  6. --json emits a well-formed report (rule/file/line/snippet/status),
  7. a corrupted layer manifest is a hard error (exit 2) — the CI gate
     cannot be silently disabled by a bad layers.toml,
  8. the real tree (via this build's compile database) lints clean —
     the repo's determinism contracts hold with zero unexplained
     exceptions, the include graph is acyclic, every include edge is
     layer-conformant, and every src/ file is reachable from an entry
     point.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

LINE_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+):(?P<col>\d+): "
                     r"\[(?P<id>[A-Z0-9]+) [a-z\-]+\] ")
GITHUB_RE = re.compile(r"^::error file=[^,]+,line=\d+,col=\d+,"
                       r"title=papc_lint [A-Z0-9]+ \([a-z\-]+\)::")

# fixture basename -> (expected rule-ID set, expected exit code, as-dir).
# Most fixtures pose as src/sync/ files (a directory where every rule is
# in scope); the in-layer D6 fixture poses as src/fault/ because that arm
# of the rule only applies inside the fault layer itself.
FIXTURE_EXPECTATIONS = {
    "d1_raw_rng.cpp": ({"D1"}, 1, "src/sync"),
    "d2_unordered_iteration.cpp": ({"D2"}, 1, "src/sync"),
    "d3_raw_thread.cpp": ({"D3"}, 1, "src/sync"),
    "d4_wall_clock.cpp": ({"D4"}, 1, "src/sync"),
    "d5_simd.cpp": ({"D5"}, 1, "src/sync"),
    "d6_fault_hook.cpp": ({"D6"}, 1, "src/sync"),
    "d6_split_in_fault.cpp": ({"D6"}, 1, "src/fault"),
    "d6_suppressed_ok.cpp": (set(), 0, "src/sync"),
    "d7_substream_collision.cpp": ({"D7"}, 1, "src/sync"),
    "d7_suppressed_ok.cpp": (set(), 0, "src/sync"),
    "d8_shard_capture.cpp": ({"D8"}, 1, "src/sync"),
    "d8_suppressed_ok.cpp": (set(), 0, "src/sync"),
    "d9_unsequenced_draw.cpp": ({"D9"}, 1, "src/sync"),
    "d9_sequenced_ok.cpp": (set(), 0, "src/sync"),
    "suppressed_ok.cpp": (set(), 0, "src/sync"),
    "suppression_missing_justification.cpp": ({"SUPP"}, 1, "src/sync"),
}

# fixture tree -> expected rule-ID set (linted whole via --tree, which
# runs the layer-graph pass against the committed layers.toml). Each tree
# carries an examples/ root so L3 stays quiet except where it is the
# rule under test.
TREE_EXPECTATIONS = {
    "l1_cycle": {"L1"},
    "l2_upward": {"L2"},
}

# (fixture, posed directory) pairs that must lint CLEAN because the
# directory's rule profile relaxes the rule (engine-only rules do not
# apply to test code, which exercises pools/atomics on purpose).
PROFILE_EXPECTATIONS = [
    ("d3_raw_thread.cpp", "tests/support"),
    ("d2_unordered_iteration.cpp", "tests/sync"),
]

failures = []


def check(condition, message):
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {message}")
    if not condition:
        failures.append(message)


def run_lint(lint, args):
    proc = subprocess.run([sys.executable, lint, *args],
                          capture_output=True, text=True, check=False)
    ids = set()
    for line in proc.stdout.splitlines():
        m = LINE_RE.match(line)
        if m:
            ids.add(m.group("id"))
    return proc, ids


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--lint", required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--compdb", required=True)
    args = parser.parse_args()

    # 1-3: fixtures, each linted as if it lived in its declared directory.
    for name, (expected_ids, expected_exit,
               as_dir) in FIXTURE_EXPECTATIONS.items():
        path = f"{args.fixtures}/{name}"
        proc, ids = run_lint(args.lint,
                             ["--files", path, "--as-dir", as_dir,
                              "--root", args.root])
        check(ids == expected_ids,
              f"{name}: rule IDs {sorted(ids)} == {sorted(expected_ids)}")
        check(proc.returncode == expected_exit,
              f"{name}: exit {proc.returncode} == {expected_exit}")

    # 1b: whole-program tree fixtures (layer-graph pass).
    for tree, expected_ids in TREE_EXPECTATIONS.items():
        proc, ids = run_lint(args.lint, ["--tree", f"{args.fixtures}/{tree}"])
        check(ids == expected_ids,
              f"--tree {tree}: rule IDs {sorted(ids)} == "
              f"{sorted(expected_ids)}")
        check(proc.returncode == 1, f"--tree {tree}: exit {proc.returncode} == 1")

    # 1c: the [[allow]] escape hatch — the same upward edge fails under
    # the repo manifest and passes under a manifest that whitelists it
    # with a justified [[allow]] entry.
    allowed_tree = f"{args.fixtures}/l2_allowed"
    proc, ids = run_lint(args.lint, ["--tree", allowed_tree])
    check(proc.returncode == 1 and ids == {"L2"},
          f"l2_allowed vs repo manifest: upward edge flagged "
          f"(exit {proc.returncode}, ids {sorted(ids)})")
    proc, ids = run_lint(args.lint,
                         ["--tree", allowed_tree,
                          "--layers", f"{allowed_tree}/layers_allow.toml"])
    check(proc.returncode == 0 and not ids,
          f"l2_allowed vs [[allow]] manifest: edge whitelisted "
          f"(exit {proc.returncode}, ids {sorted(ids)})")

    # 1d: L3 per file. examples/main.cpp reaches used.hpp and, through
    # the header, used.cpp; orphan.{hpp,cpp} are unreached; justified.hpp
    # and bare.hpp are unreached but suppressed, bare.hpp without a reason.
    l3_tree = f"{args.fixtures}/l3_unreachable"
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        proc, ids = run_lint(args.lint,
                             ["--tree", l3_tree, "--json", report_path])
        with open(report_path, encoding="utf-8") as handle:
            findings = json.load(handle).get("findings", [])
    by_file = {}
    for f in findings:
        by_file.setdefault(f["file"], set()).add((f["rule"], f["status"]))
    expected = {
        "src/support/orphan.hpp": {("L3", "violation")},
        "src/support/orphan.cpp": {("L3", "violation")},
        "src/support/justified.hpp": {("L3", "suppressed")},
        "src/support/bare.hpp": {("L3", "suppressed"),
                                 ("SUPP", "violation")},
    }
    check(by_file == expected,
          f"--tree l3_unreachable: findings {sorted(by_file.items())} == "
          f"{sorted(expected.items())}")
    check(proc.returncode == 1 and ids == {"L3", "SUPP"}
          and all(f["line"] == 1 for f in findings if f["rule"] == "L3"),
          f"--tree l3_unreachable: exit {proc.returncode} == 1, "
          f"ids {sorted(ids)} == ['L3', 'SUPP'], L3 anchored at line 1")

    # 4: per-directory profiles relax engine-only rules outside src/.
    for name, as_dir in PROFILE_EXPECTATIONS:
        proc, ids = run_lint(args.lint,
                             ["--files", f"{args.fixtures}/{name}",
                              "--as-dir", as_dir, "--root", args.root])
        check(proc.returncode == 0 and not ids,
              f"{name} as {as_dir}: engine-only rule relaxed by profile "
              f"(exit {proc.returncode}, ids {sorted(ids)})")

    # 5: GitHub annotation format on a known-violating fixture.
    proc, _ = run_lint(args.lint,
                       ["--files", f"{args.fixtures}/d1_raw_rng.cpp",
                        "--as-dir", "src/sync", "--root", args.root,
                        "--github"])
    annotations = [l for l in proc.stdout.splitlines() if l.startswith("::")]
    check(annotations != [] and all(GITHUB_RE.match(l) for l in annotations),
          "--github emits ::error annotations for every finding")

    # 6: --json report shape, on a fixture with one violation and one
    # suppressed finding (the d8 pair exercises both statuses).
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        run_lint(args.lint,
                 ["--files", f"{args.fixtures}/d8_shard_capture.cpp",
                  f"{args.fixtures}/d8_suppressed_ok.cpp",
                  "--as-dir", "src/sync", "--root", args.root,
                  "--json", report_path])
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        findings = report.get("findings", [])
        statuses = sorted({f["status"] for f in findings})
        check(report.get("tool") == "papc_lint"
              and report.get("summary", {}).get("violations") == 1
              and report.get("summary", {}).get("suppressed") == 1
              and statuses == ["suppressed", "violation"]
              and all(f["rule"] == "D8" and f["file"] and f["line"] > 0
                      and f["snippet"] for f in findings),
              f"--json report well-formed (statuses {statuses})")

    # 7: a corrupted manifest is a hard configure error, not a silent
    # pass — drop the sync layer and the schema check must refuse it
    # outright (missing paths), exit 2.
    with tempfile.TemporaryDirectory() as tmp:
        bad_manifest = os.path.join(tmp, "layers.toml")
        with open(bad_manifest, "w", encoding="utf-8") as handle:
            handle.write('[[layer]]\nname = "support"\nrank = 0\n')
        proc, _ = run_lint(args.lint,
                           ["--tree", f"{args.fixtures}/l2_upward",
                            "--layers", bad_manifest])
        check(proc.returncode == 2,
              f"corrupted layers.toml is a hard error "
              f"(exit {proc.returncode} == 2)")

    # 7b: a well-formed manifest that no longer covers the tree turns
    # every uncovered file into an L2 finding — removing a layer cannot
    # silently shrink coverage.
    with tempfile.TemporaryDirectory() as tmp:
        partial_manifest = os.path.join(tmp, "layers.toml")
        with open(partial_manifest, "w", encoding="utf-8") as handle:
            handle.write('[[layer]]\nname = "support"\nrank = 0\n'
                         'paths = ["src/support/"]\n')
        proc, ids = run_lint(args.lint,
                             ["--tree", f"{args.fixtures}/l1_cycle",
                              "--layers", partial_manifest])
        check(proc.returncode == 1 and "L2" in ids,
              f"uncovered files are L2 findings under a partial manifest "
              f"(exit {proc.returncode}, ids {sorted(ids)})")

    # 8: the real tree is clean through the compile database (all passes:
    # per-file rules, D7 substream audit, L1/L2 layer graph).
    proc, ids = run_lint(args.lint, ["--compdb", args.compdb,
                                     "--root", args.root])
    check(proc.returncode == 0,
          f"repo lints clean via compile database (exit {proc.returncode})")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stdout.write(proc.stderr)

    if failures:
        print(f"{len(failures)} papc_lint self-test failure(s)")
        return 1
    print("papc_lint self-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
