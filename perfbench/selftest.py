#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through perfbench/run.py).
For each workload it checks, untraced and traced, that every metric
BENCHMARK.json names appears with its unit, that no job failed, and
that the traced run's spans cover at least 95% of its wall time. Then
it damages one cache object between the cold and warm campaign drains
and checks that warm_hit_frac drops below 1, which shows the warm hit
check is not vacuous. Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "default", "--seconds", "1",
           "--trace", str(trace), "--size", "smallest", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)
    print("ok  ", what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in workloads:
        for trace in (0, 1):
            r = run(workload, trace)
            tag = f"{workload} trace={trace}"
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == expected[trace],
                  f"{tag}: every named metric with its unit")
            check(r["failed"] == 0 and r["correct"],
                  f"{tag}: failed_frac is 0 ({r['failed']} of "
                  f"{r['attempted']})")
            if trace:
                cov = r["metrics"]["bench.span_coverage"]["value"]
                check(cov >= 0.95, f"{tag}: span coverage {cov:.3f} >= 0.95")
            else:
                hit = r["metrics"]["warm_hit_frac"]["value"]
                check(hit == 1, f"{tag}: warm_hit_frac is 1")

    r = run("synth-campaign", 0, "--corrupt-cache")
    hit = r["metrics"]["warm_hit_frac"]["value"]
    check(hit < 1, f"corrupted cache object: warm_hit_frac {hit:.4f} < 1")
    check(r["failed"] == 0,
          "corrupted cache object: the re-run document still matches")
    print("selftest passed")


if __name__ == "__main__":
    main()
