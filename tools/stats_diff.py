#!/usr/bin/env python3
"""Compare two simulator stats-JSON documents and flag regressions.

The simulator is deterministic, so the default tolerance is exact
equality; per-metric relative tolerances can be granted explicitly for
metrics that are allowed to move (e.g. host-side ones).

Subcommands:

  compare A B [--rtol metric=frac ...]
      Diff two stats-JSON logs (full logs or summaries). Runs are
      paired by position, and both logs must list the same sequence of
      (workload, design, cores) keys; every numeric metric and
      breakdown bucket must match within its tolerance. Checked runs
      (schemaVersion 3) also compare the execution verdict and the
      `check` block's counters (the witness subtree is skipped; only
      its axiom name is compared). Exits 1 on any difference, listing
      each offending metric.

  summarize IN OUT
      Reduce a full stats-JSON log to the compact summary form used for
      committed goldens: per-run metrics and cycle breakdown, without
      the bulky per-component `system` documents.

  check-bench BIN GOLDEN [--jobs N] [--rtol metric=frac ...]
      Run `BIN --quick --jobs N --stats-json <tmp>`, summarize the
      result, and compare against the committed GOLDEN summary. This is
      the CTest regression gate for the bench binaries.

  check-perf BENCH [--only SUBSTRING] [--max-obs-overhead PCT]
      Run `BENCH --quick --json-only` (the simcore microbench) and
      gate on its report: every workload's stats digest must be
      identical in both run-loop modes, and the observatory's
      wall-clock overhead must stay under the bound (default 10%).
      This is the CTest perf smoke gate (tools.perf_smoke).

Used by CTest as tools.stats_diff_fig10 and tools.stats_diff_ablation_*;
regenerate a golden with, e.g.:
  build/bench/fig10_ustm_breakdown --quick --stats-json /tmp/f.json
  tools/stats_diff.py summarize /tmp/f.json tests/golden/fig10_quick_summary.json
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Metric leaves that depend on the host rather than simulated state:
# never compared.
HOST_ONLY = frozenset()


def load(path):
    with open(path) as f:
        return json.load(f)


def run_key(run):
    return (run.get("workload"), run.get("design"), run.get("cores"))


def summarize_check(blk):
    """The comparable slice of a schemaVersion-3 `check` block: the
    verdict, scChecked, and the recorder/axiom counters. The witness
    subtree is skipped — it carries tick-level event detail that the
    counters already summarize — except for the violated axiom name,
    which is pulled up as its own leaf."""
    out = {k: v for k, v in blk.items() if k != "witness"}
    axiom = (blk.get("witness") or {}).get("axiom")
    if axiom:
        out["axiom"] = axiom
    return out


# Timeline totals compared across runs. Each is a delta-sum, so two
# runs with identical cumulative stats must agree exactly even when
# their samples were cut at different boundaries.
TIMELINE_TOTAL_KEYS = ("busy", "idle", "instrRetired", "fencesIssued",
                       "bounces", "nacks", "grtDeposits", "grtClears",
                       "flits")


def summarize_timeline(tl):
    """The comparable slice of a schemaVersion-4 `timeline` block.
    Per-metric totals over the retained samples compare exactly; the
    sample *count* is kept separately because fast-forward jumps
    legitimately merge several interval boundaries into one sample —
    compare_docs grants it a built-in tolerance."""
    samples = tl.get("samples", [])
    totals = {k: sum(s.get(k, 0) for s in samples)
              for k in TIMELINE_TOTAL_KEYS}
    out = {"interval": tl.get("interval"), "samples": len(samples),
           "totals": totals}
    if samples:
        out["start"] = samples[0]["start"]
        out["end"] = samples[-1]["end"]
    return out


def summarize_run(run):
    out = {
        "workload": run.get("workload"),
        "design": run.get("design"),
        "cores": run.get("cores"),
        "cycles": run.get("cycles"),
        "valid": run.get("valid"),
        "metrics": run.get("metrics", {}),
        "breakdown": run.get("breakdown", {}),
    }
    # Checked runs (schemaVersion >= 3) carry an execution verdict;
    # keep it comparable. Unchecked runs omit both keys, so goldens
    # from unchecked sweeps are unaffected.
    if "checkVerdict" in run:
        out["checkVerdict"] = run["checkVerdict"]
    blk = (run.get("system") or {}).get("check")
    if blk and blk.get("enabled"):
        out["check"] = summarize_check(blk)
    elif "check" in run:  # already-summarized input (summary-vs-summary)
        out["check"] = run["check"]
    # Interval time-series (schemaVersion 4, --stats-interval runs
    # only): goldens from plain sweeps carry no timeline and stay
    # byte-identical.
    tl = (run.get("system") or {}).get("timeline")
    if tl is not None:
        out["timeline"] = summarize_timeline(tl)
    elif "timeline" in run:  # already-summarized input
        out["timeline"] = run["timeline"]
    return out


def summarize_doc(doc):
    return {
        "schemaVersion": doc.get("schemaVersion"),
        "runs": [summarize_run(r) for r in doc.get("runs", [])],
    }


def flatten(obj, prefix=""):
    """Flatten nested dicts to {"a.b.c": leaf}; lists are skipped."""
    out = {}
    for k, v in obj.items():
        path = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(flatten(v, path + "."))
        elif isinstance(v, (int, float, bool, str)) or v is None:
            out[path] = v
    return out


def parse_rtols(pairs):
    rtols = {}
    for p in pairs or []:
        if "=" not in p:
            sys.exit(f"bad --rtol '{p}': expected metric=fraction")
        name, frac = p.split("=", 1)
        rtols[name] = float(frac)
    return rtols


# Built-in tolerances (overridable with --rtol): interval sample counts
# may differ across run-loop modes because fast-forward jumps merge
# boundary crossings into one sample, while the timeline *totals* still
# compare exactly.
DEFAULT_RTOLS = {"timeline.samples": 0.5}


def metric_rtol(path, rtols):
    """Tolerance for a metric: match the full path or its last segment."""
    if path in rtols:
        return rtols[path]
    if path.rsplit(".", 1)[-1] in rtols:
        return rtols[path.rsplit(".", 1)[-1]]
    return DEFAULT_RTOLS.get(path, 0.0)


def compare_docs(a_doc, b_doc, rtols, a_name="A", b_name="B"):
    """Pair the two logs' runs by position (a sweep may repeat a
    (workload, design, cores) key, e.g. one ablation config per
    machine variant) and diff each pair. The logs must list the same
    key sequence."""
    errors = []
    a_runs = [summarize_run(r) for r in a_doc.get("runs", [])]
    b_runs = [summarize_run(r) for r in b_doc.get("runs", [])]
    a_keys = [run_key(r) for r in a_runs]
    b_keys = [run_key(r) for r in b_runs]
    if a_keys != b_keys:
        i = next((i for i, (ka, kb) in enumerate(zip(a_keys, b_keys))
                  if ka != kb), min(len(a_keys), len(b_keys)))

        def at(keys):
            return keys[i] if i < len(keys) else "end of log"
        errors.append(f"run sequences differ at run {i}: {a_name} has "
                      f"{at(a_keys)}, {b_name} has {at(b_keys)} "
                      f"({len(a_keys)} vs {len(b_keys)} runs)")
        return errors

    for i, (ra, rb) in enumerate(zip(a_runs, b_runs)):
        fa = flatten(ra)
        fb = flatten(rb)
        ctx = f"run {i} " + "/".join(str(k) for k in a_keys[i])
        for path in sorted(fa.keys() | fb.keys()):
            if path.rsplit(".", 1)[-1] in HOST_ONLY:
                continue
            if path not in fa or path not in fb:
                where = b_name if path not in fb else a_name
                errors.append(f"{ctx}: '{path}' missing in {where}")
                continue
            va, vb = fa[path], fb[path]
            if isinstance(va, bool) or isinstance(va, str) or va is None:
                if va != vb:
                    errors.append(f"{ctx}: '{path}' {va!r} != {vb!r}")
                continue
            tol = metric_rtol(path, rtols)
            bound = tol * max(abs(va), abs(vb))
            if abs(va - vb) > bound:
                detail = f" (rtol {tol})" if tol else ""
                errors.append(
                    f"{ctx}: '{path}' {va} != {vb}{detail}")
    return errors


def report(errors, what):
    if errors:
        print(f"FAIL: {what}: {len(errors)} difference(s):",
              file=sys.stderr)
        for e in errors[:50]:
            print(f"  {e}", file=sys.stderr)
        if len(errors) > 50:
            print(f"  ... and {len(errors) - 50} more", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def cmd_compare(args):
    rtols = parse_rtols(args.rtol)
    errors = compare_docs(load(args.a), load(args.b), rtols,
                          args.a, args.b)
    report(errors, f"{args.a} vs {args.b}")


def cmd_summarize(args):
    summary = summarize_doc(load(args.input))
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ok: wrote {len(summary['runs'])} run summaries to "
          f"{args.output}")


def cmd_check_bench(args):
    bench = Path(args.bench)
    if not bench.exists():
        sys.exit(f"no such binary: {bench}")
    golden = load(args.golden)
    rtols = parse_rtols(args.rtol)
    jobs = args.jobs or min(os.cpu_count() or 2, 8)
    with tempfile.TemporaryDirectory() as tmp:
        stats = Path(tmp) / "stats.json"
        cmd = [str(bench), "--quick", "--jobs", str(jobs),
               f"--stats-json={stats}"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=1800)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {bench.name} exited "
                     f"{proc.returncode}:\n{proc.stderr}")
        fresh = summarize_doc(load(stats))
    errors = compare_docs(golden, fresh, rtols, "golden", "fresh")
    report(errors, f"{bench.name} --quick vs {args.golden}")


BENCH_MODES = ("noFastForward", "fastForward")


def check_perf_report(doc, max_obs_overhead=10.0):
    """Gate a simcore-microbench report (schemaVersion 4): mode
    identity everywhere and the observatory wall-clock overhead bound.
    The overhead gate is looser than the committed target (<= 5%) to
    keep host noise from flaking CI while still catching a sampler that
    landed on a hot path."""
    errors = []
    version = doc.get("schemaVersion")
    if version != 4:
        errors.append(f"report schemaVersion {version!r}, expected 4")
        return errors
    obs = doc.get("observatory")
    if not isinstance(obs, dict):
        errors.append("report without an 'observatory' block")
    else:
        if obs.get("statsIdentical") is not True:
            errors.append("observatory: stats differ with the "
                          "observatory on")
        overhead = obs.get("overheadPct")
        if not isinstance(overhead, (int, float)):
            errors.append("observatory: missing overheadPct")
        elif overhead > max_obs_overhead:
            errors.append(
                f"observatory overhead {overhead:.1f}% above the "
                f"{max_obs_overhead:.1f}% gate")
    workloads = doc.get("workloads", [])
    if not workloads:
        errors.append("report contains no workloads")
    for w in workloads:
        name = w.get("name", "?")
        if w.get("statsIdentical") is not True:
            errors.append(f"{name}: statsIdentical is not true")
        digests = []
        for mode in BENCH_MODES:
            run = w.get(mode)
            if not isinstance(run, dict) or "statsDigest" not in run:
                errors.append(f"{name}: mode '{mode}' missing "
                              f"statsDigest")
                continue
            digests.append(run["statsDigest"])
        if len(set(digests)) > 1:
            errors.append(f"{name}: stats digests differ across "
                          f"modes: {digests}")
    return errors


def cmd_check_perf(args):
    bench = Path(args.bench)
    if not bench.exists():
        sys.exit(f"no such binary: {bench}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        cmd = [str(bench), "--quick", "--json-only", "--out", str(out)]
        if args.only:
            cmd += ["--only", args.only]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=1800)
        # The bench itself refuses to write a report when any mode
        # diverges, so a non-zero exit already is an identity failure.
        if proc.returncode != 0:
            sys.exit(f"FAIL: {bench.name} exited "
                     f"{proc.returncode}:\n{proc.stderr}")
        doc = load(out)
    errors = check_perf_report(doc, args.max_obs_overhead)
    measured = doc.get("observatory", {}).get("overheadPct")
    measured = (f"{measured:.1f}% " if isinstance(measured, (int, float))
                else "")
    report(errors, f"{bench.name} perf smoke (mode identity, observatory "
                   f"{measured}<= {args.max_obs_overhead:.1f}%)")


def main():
    top = argparse.ArgumentParser(description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="diff two stats-JSON documents")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rtol", action="append", metavar="METRIC=FRAC")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("summarize",
                       help="reduce a stats-JSON log to a golden summary")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("check-bench",
                       help="run a bench --quick and diff vs a golden")
    p.add_argument("bench")
    p.add_argument("golden")
    p.add_argument("--jobs", type=int, default=0)
    p.add_argument("--rtol", action="append", metavar="METRIC=FRAC")
    p.set_defaults(func=cmd_check_bench)

    p = sub.add_parser("check-perf",
                       help="run the simcore microbench and gate on "
                            "mode identity + observatory overhead")
    p.add_argument("bench")
    p.add_argument("--only", default="")
    p.add_argument("--max-obs-overhead", type=float, default=10.0,
                   help="max observatory wall-clock overhead %%")
    p.set_defaults(func=cmd_check_perf)

    args = top.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
