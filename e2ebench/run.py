#!/usr/bin/env python3
"""Build the e2ebench harness from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Every argument is passed on to the harness (see README.md in this
directory). The harness and the library are built in Release mode under
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); the first run
configures and builds, later runs only check that the build is current.
Build output goes to stderr, so the last line of stdout is the harness's
JSON result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def commit() -> str:
    """The checkout's commit when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build() -> str:
    """Configures (once) and builds the harness; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = [os.path.join(build_dir, name)
                 for name in ("Makefile", "build.ninja")]
    if not any(os.path.isfile(path) for path in generated):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "e2e_bench")


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    try:
        result = subprocess.run([binary, *sys.argv[1:], "--commit", commit()],
                                timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"e2ebench: run failed: {err}", file=sys.stderr)
        return 2
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
