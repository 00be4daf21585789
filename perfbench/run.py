#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sync-huge --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds the benchmark package
(perfbench/CMakeLists.txt, which compiles ../src) into the directory named
by $CARGO_TARGET_DIR, or .bench_build, then runs the papc_perfbench binary
and passes its output through. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; build logs and
the human-readable summary go to standard error. Result files (with the run
manifest) and traces land in .bench_out/.

Extra flag: --smoke shrinks every workload to a tiny population
(self_check.py uses it).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOADS = ("sync-huge", "event-core", "sweep-mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library sources, so a result names the code it timed
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (REPO_ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def build(build_dir):
    """Configures (once) and builds papc_perfbench; returns its path."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                  "--target", "papc_perfbench"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            fail(f"build step failed ({' '.join(step)})")
    binary = build_dir / "papc_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "api" / "registry.hpp").is_file():
        fail(f"no papc sources under {REPO_ROOT / 'src'}; run from a checkout")

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = REPO_ROOT / build_dir
    binary = build(build_dir)
    out_dir = REPO_ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(out_dir),
               "--git-sha", git_sha(), "--src-digest", source_digest()]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"papc_perfbench exited with code {proc.returncode}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
