#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload ustm-8c --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program is configured and built
with CMake under $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check the build. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON
result. `--seed default` and `--seed heldout` name the seeds recorded in
perfbench/reference.json. Any further arguments are passed through to
the benchmark program (see perfbench/README.md).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark; False on failure."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_revision():
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def resolve_seed(args):
    """Replace `--seed default|heldout` with the recorded number."""
    args = list(args)
    for i, a in enumerate(args[:-1]):
        if a == "--seed" and args[i + 1] in ("default", "heldout"):
            with open(REFERENCE) as f:
                ref = json.load(f)
            args[i + 1] = str(ref[args[i + 1] + "_seed"])
    return args


def main():
    bdir = build_dir()
    if not build(bdir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), *resolve_seed(sys.argv[1:]),
           "--out-dir", out_dir, "--reference", REFERENCE,
           "--git-rev", git_revision()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
