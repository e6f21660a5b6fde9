#!/usr/bin/env python3
"""Validate the simulator's machine-readable observability output.

Runs asf_sim on a small workload with --stats-json and --trace, then
checks that the emitted stats report conforms to the documented schema
(see README.md "Observability") and that the trace file is well-formed
Chrome trace_event JSON. Registered in CTest so the schema cannot drift
silently.

Documents at schemaVersion 1 (pre-CPI-stack) are still accepted; the
version-2 additions (cpiStack, fenceProfile, watchdog, the decomposed
stall scalars) are required only when a document declares version 2 or
later, and the version-3 addition (the `check` execution-verification
block) only when version 3 declares it — a version-3 document omits it
entirely when checking was off, so v1/v2 consumers keep working.

Version 4 adds the contention observatory: a `hotLines` per-line
attribution block (required at v4 — tracking defaults on) and a
`timeline` interval time-series block (present only when the run used
--stats-interval). The driver exercises three single-run shapes (plain,
--check, --stats-interval under --obs-dir) plus one --all-designs sweep
with --heartbeat, whose JSONL telemetry is validated too.

With --bench the script instead validates a simcore-microbench host
performance report (BENCH_simcore.json, schemaVersion 4): per-workload
run documents for both run-loop modes (noFastForward, the reference,
and fastForward), the speedup field, the cross-mode identity claims
(equal stats digests, statsIdentical true, and no jumped cycles in the
reference mode), and the observatory overhead measurement.

The campaign service (src/service) adds three more document shapes
and four end-to-end drivers:

  --manifest PATH         validate one content-addressed cache
                          manifest (<digest>.manifest.json)
  --campaign-status PATH  validate `asf_campaign status --json`
  --cache <asf_sim>       run the same config cold then warm through
                          --cache-dir and require the warm stats log
                          to be byte-identical to the cold one (the
                          cache must splice the stored document, not
                          re-simulate), then validate every manifest
  --campaign <asf_campaign> <asf_sim>
                          submit a small campaign, crash it mid-run
                          (--abort-after), resume, re-run warm, and
                          drain a fresh copy with two --shard workers;
                          every merged stats log must be byte-identical
                          to the serial one, and a one-job campaign's
                          to asf_sim's for the same spec
  --bench-cache <bench>   run a bench's --quick sweep cold then warm
                          through --cache-dir: schema-valid documents,
                          one per table row, all warm runs cache hits
  --quick-namespace <bench>
                          a full sweep after a --quick one into the
                          same --cache-dir must match a fresh full sweep

Usage: check_stats_schema.py <path-to-asf_sim>
       check_stats_schema.py --bench <path-to-BENCH_simcore.json>
       check_stats_schema.py --heartbeat <path-to-heartbeat.jsonl>
       check_stats_schema.py --manifest <manifest.json>
       check_stats_schema.py --campaign-status <status.json>
       check_stats_schema.py --cache <path-to-asf_sim>
       check_stats_schema.py --campaign <asf_campaign> <asf_sim>
       check_stats_schema.py --bench-cache <path-to-bench>
       check_stats_schema.py --quick-namespace <path-to-bench>
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def is_hex_digest(s, n=64):
    return (isinstance(s, str) and len(s) == n and
            all(c in "0123456789abcdef" for c in s))


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def check_number(obj, key, ctx):
    expect(key in obj, f"{ctx}: missing key '{key}'")
    expect(isinstance(obj[key], (int, float)) and not isinstance(obj[key], bool),
           f"{ctx}: '{key}' is {type(obj[key]).__name__}, expected a number")


def check_histogram(name, h, ctx):
    for key in ("count", "mean", "max", "p50", "p90", "p99",
                "bucketWidth", "overflow"):
        check_number(h, key, f"{ctx} histogram '{name}'")
    expect(isinstance(h.get("buckets"), list),
           f"{ctx} histogram '{name}': 'buckets' is not an array")
    in_buckets = sum(h["buckets"])
    expect(in_buckets + h["overflow"] == h["count"],
           f"{ctx} histogram '{name}': buckets ({in_buckets}) + overflow "
           f"({h['overflow']}) != count ({h['count']})")
    expect(0 <= h["p50"] <= h["p90"] <= h["p99"],
           f"{ctx} histogram '{name}': percentiles not monotone")


# CPI-stack bucket JSON keys, fence category then other category
# (mirrors src/cpu/cpi_stack.cc).
FENCE_BUCKETS = ("waitForward", "heldStrong", "heldBsFull", "grtWait",
                 "remotePs", "recovering", "bounceRetry", "serialize")
OTHER_BUCKETS = ("l1Miss", "squashRefetch", "rmwDrain", "nocQueue",
                 "wbFull")
# The matching per-core scalar stat names.
STALL_SCALARS = ("stallWaitForward", "stallHeldStrong", "stallHeldBsFull",
                 "stallGrtWait", "stallRemotePs", "stallRecovering",
                 "stallBounceRetry", "stallFenceSerialize", "stallL1Miss",
                 "stallSquashRefetch", "stallRmwDrain", "stallNocQueue",
                 "stallWbFull")


def check_cpi_stack(stack):
    check_number(stack, "busy", "cpiStack")
    check_number(stack, "idle", "cpiStack")
    check_number(stack, "active", "cpiStack")
    for cat, keys in (("fence", FENCE_BUCKETS), ("other", OTHER_BUCKETS)):
        obj = stack.get(cat)
        expect(isinstance(obj, dict), f"cpiStack: missing '{cat}'")
        for key in keys:
            check_number(obj, key, f"cpiStack.{cat}")
        check_number(obj, "total", f"cpiStack.{cat}")
        expect(sum(obj[k] for k in keys) == obj["total"],
               f"cpiStack.{cat}: buckets do not sum to total")
    expect(stack["busy"] + stack["fence"]["total"] +
           stack["other"]["total"] == stack["active"],
           "cpiStack: busy + stalls != active")


def check_profile_histogram(name, h):
    expect(isinstance(h, dict), f"fenceProfile: '{name}' not an object")
    for key in ("count", "mean", "max", "p50", "p90", "p99"):
        check_number(h, key, f"fenceProfile.{name}")


def check_fence_profile(fp):
    for key in ("issued", "completed", "instant", "active",
                "squashedFences", "strong", "weak", "wee", "demotions",
                "recoveries"):
        check_number(fp, key, "fenceProfile")
    expect(fp["issued"] == fp["completed"] + fp["instant"] +
           fp["active"] + fp["squashedFences"],
           "fenceProfile: issued != completed + instant + active + "
           "squashed")
    for name in ("latency", "grtWait", "bounceRounds", "bsInserts"):
        check_profile_histogram(name, fp.get(name))
    slowest = fp.get("slowest")
    expect(isinstance(slowest, list), "fenceProfile: missing 'slowest'")
    for r in slowest:
        for key in ("id", "core", "issuedAt", "completedAt", "latency",
                    "psLines", "bsInserts", "bounces", "storeNacks",
                    "remotePsHolds", "recoveries", "squashedStores"):
            check_number(r, key, "fenceProfile slowest record")
        expect(isinstance(r.get("kind"), str),
               "fenceProfile slowest record: missing 'kind'")


# Per-line event attribution keys (mirrors hotEventName in
# src/mem/hotspot.cc); all optional per line, emitted only when nonzero.
HOT_EVENT_KEYS = ("bounces", "nackX", "nackCO", "sharerProbes",
                  "bsConflicts", "grtDeposits", "grtBlocks", "l2Misses")


def check_hot_lines(hl):
    for key in ("capacity", "tracked", "totalRecorded", "evictions"):
        check_number(hl, key, "hotLines")
    expect(hl["capacity"] > 0, "hotLines: zero capacity")
    expect(hl["tracked"] <= hl["capacity"],
           "hotLines: tracked exceeds capacity")
    lines = hl.get("lines")
    expect(isinstance(lines, list), "hotLines: 'lines' is not an array")
    expect(len(lines) == hl["tracked"],
           f"hotLines: {len(lines)} lines, 'tracked' says "
           f"{hl['tracked']}")
    prev = None
    for e in lines:
        check_number(e, "line", "hotLines entry")
        check_number(e, "count", "hotLines entry")
        check_number(e, "error", "hotLines entry")
        expect(e["error"] <= e["count"],
               f"hotLines line {e['line']:#x}: error exceeds count")
        attributed = sum(e.get(k, 0) for k in HOT_EVENT_KEYS)
        # Space-Saving inherits the evicted minimum into 'count', so
        # attributed events can undershoot count by at most 'error'.
        expect(attributed + e["error"] >= e["count"],
               f"hotLines line {e['line']:#x}: events "
               f"({attributed}) + error ({e['error']}) < count "
               f"({e['count']})")
        if "label" in e:
            expect(isinstance(e["label"], str) and e["label"],
                   f"hotLines line {e['line']:#x}: empty label")
        if prev is not None:
            expect(e["count"] <= prev,
                   "hotLines: lines not sorted by count descending")
        prev = e["count"]


def check_timeline(tl, cycles):
    check_number(tl, "interval", "timeline")
    expect(tl["interval"] > 0, "timeline: zero interval")
    check_number(tl, "ringCapacity", "timeline")
    check_number(tl, "droppedSamples", "timeline")
    samples = tl.get("samples")
    expect(isinstance(samples, list), "timeline: missing 'samples'")
    # The still-open tail interval rides along beyond the ring.
    expect(len(samples) <= tl["ringCapacity"] + 1,
           "timeline: more samples than the ring holds")
    prev_end = None
    for s in samples:
        ctx = "timeline sample"
        for key in ("start", "end", "busy", "idle", "instrRetired",
                    "fencesIssued", "bounces", "nacks", "grtDeposits",
                    "grtClears", "flits"):
            check_number(s, key, ctx)
        expect(s["start"] < s["end"], f"{ctx}: empty interval "
               f"[{s['start']}, {s['end']}]")
        expect(s["end"] <= cycles,
               f"{ctx}: end {s['end']} beyond the run ({cycles})")
        if prev_end is not None:
            expect(s["start"] == prev_end,
                   f"{ctx}: gap/overlap at {s['start']} (previous "
                   f"sample ended at {prev_end})")
        prev_end = s["end"]
        expect(isinstance(s.get("stall"), dict),
               f"{ctx}: missing 'stall'")
        links = s.get("links")
        expect(isinstance(links, list), f"{ctx}: missing 'links'")
        total = 0
        for pair in links:
            expect(isinstance(pair, list) and len(pair) == 2,
                   f"{ctx}: link delta is not an [index, flits] pair")
            expect(pair[1] > 0, f"{ctx}: zero link delta emitted")
            total += pair[1]
        expect(total == s["flits"],
               f"{ctx}: link deltas sum to {total}, 'flits' says "
               f"{s['flits']}")


def check_group(g):
    ctx = f"group '{g.get('name', '?')}'"
    expect(isinstance(g.get("name"), str), f"{ctx}: missing name")
    for section in ("scalars", "averages", "histograms"):
        expect(isinstance(g.get(section), dict),
               f"{ctx}: '{section}' is not an object")
    for name, v in g["scalars"].items():
        expect(isinstance(v, int) and v >= 0,
               f"{ctx} scalar '{name}': not a non-negative integer")
    for name, a in g["averages"].items():
        for key in ("count", "sum", "mean"):
            check_number(a, key, f"{ctx} average '{name}'")
    for name, h in g["histograms"].items():
        check_histogram(name, h, ctx)


def check_witness(w):
    expect(isinstance(w, dict), "witness: not an object")
    expect(w.get("verdict") in ("violation", "inconclusive"),
           f"witness: bad verdict {w.get('verdict')!r}")
    cycle = w.get("cycle", [])
    expect(isinstance(cycle, list), "witness: 'cycle' is not an array")
    for step in cycle:
        check_number(step, "thread", "witness step")
        check_number(step, "index", "witness step")
        check_number(step, "tick", "witness step")
        expect(step.get("kind") in ("load", "store", "rmw", "fence"),
               f"witness step: bad kind {step.get('kind')!r}")
        if step["kind"] == "fence":
            expect(isinstance(step.get("fenceKind"), str),
                   "witness fence step: missing 'fenceKind'")
        else:
            check_number(step, "addr", "witness step")
            check_number(step, "value", "witness step")
        if "edgeToNext" in step:
            expect(step["edgeToNext"] in ("po", "fence", "rf", "co",
                                          "fr"),
                   f"witness step: bad edge {step['edgeToNext']!r}")


def check_check_block(blk):
    expect(blk.get("enabled") is True, "check: 'enabled' is not true")
    for key in ("events", "loads", "stores", "rmws", "fences", "merges",
                "squashed", "rfEdges", "coEdges", "frEdges",
                "readsFromInit", "ambiguousReads"):
        check_number(blk, key, "check")
    expect(blk["events"] == blk["loads"] + blk["stores"] + blk["rmws"] +
           blk["fences"], "check: event classes do not sum to events")
    verdict = blk.get("verdict")
    expect(verdict in ("pass", "violation", "inconclusive"),
           f"check: unknown verdict {verdict!r}")
    expect(isinstance(blk.get("scChecked"), bool),
           "check: 'scChecked' is not a bool")
    if verdict == "pass":
        expect("witness" not in blk, "check: witness on a passing run")
    else:
        check_witness(blk.get("witness"))


def check_run(run, expect_check=False, expect_timeline=False):
    for key in ("workload", "design"):
        expect(isinstance(run.get(key), str), f"run: missing '{key}'")
    check_number(run, "cores", "run")
    check_number(run, "cycles", "run")
    expect(isinstance(run.get("valid"), bool), "run: missing 'valid'")
    expect(isinstance(run.get("metrics"), dict), "run: missing 'metrics'")
    expect(isinstance(run.get("breakdown"), dict),
           "run: missing 'breakdown'")
    for key in ("busy", "fenceStall", "otherStall", "idle"):
        check_number(run["breakdown"], key, "breakdown")

    sys_doc = run.get("system")
    expect(isinstance(sys_doc, dict), "run: missing 'system' document")
    version = sys_doc.get("schemaVersion")
    expect(version in (1, 2, 3, 4),
           f"system: unknown schemaVersion {version!r}")
    if version >= 2:
        for key in FENCE_BUCKETS + OTHER_BUCKETS:
            check_number(run["breakdown"], key, "breakdown")
        expect(sum(run["breakdown"][k] for k in FENCE_BUCKETS) ==
               run["breakdown"]["fenceStall"],
               "breakdown: fence buckets do not sum to fenceStall")
        expect(sum(run["breakdown"][k] for k in OTHER_BUCKETS) ==
               run["breakdown"]["otherStall"],
               "breakdown: other buckets do not sum to otherStall")
    check_number(sys_doc, "cycles", "system")
    cfg = sys_doc.get("config")
    expect(isinstance(cfg, dict), "system: missing 'config'")
    check_number(cfg, "numCores", "config")
    expect(isinstance(cfg.get("design"), str), "config: missing design")

    groups = sys_doc.get("groups")
    expect(isinstance(groups, list) and groups, "system: empty 'groups'")
    by_name = {}
    for g in groups:
        check_group(g)
        by_name[g["name"]] = g

    # The headline counters must be present (pre-registered) on every
    # core even when zero, and the write-buffer occupancy histogram must
    # have sampled every simulated cycle.
    ncores = cfg["numCores"]
    for i in range(ncores):
        name = f"core{i}"
        expect(name in by_name, f"missing stats group '{name}'")
        core = by_name[name]
        scalars = ("busyCycles", "idleCycles", "fenceStallCycles",
                   "instrRetired", "fencesStrong", "fencesWeak",
                   "bouncedWrites", "wPlusRecoveries", "loadSquashes",
                   "wbPushes", "wbSquashedStores", "wbHighWater")
        if version >= 2:
            scalars += STALL_SCALARS
        for scalar in scalars:
            expect(scalar in core["scalars"],
                   f"{name}: missing pre-registered scalar '{scalar}'")
        expect("wbOccupancy" in core["histograms"],
               f"{name}: missing 'wbOccupancy' histogram")
        expect(core["histograms"]["wbOccupancy"]["count"] > 0,
               f"{name}: wbOccupancy never sampled")
    for i in range(ncores):
        name = f"dir{i}"
        expect(name in by_name, f"missing stats group '{name}'")
        for scalar in ("bounces", "getxNacked", "queued"):
            expect(scalar in by_name[name]["scalars"],
                   f"{name}: missing pre-registered scalar '{scalar}'")
    expect("noc" in by_name, "missing stats group 'noc'")

    if version >= 2:
        stack = sys_doc.get("cpiStack")
        expect(isinstance(stack, dict), "system: missing 'cpiStack'")
        check_cpi_stack(stack)
        wd = sys_doc.get("watchdog")
        expect(isinstance(wd, dict), "system: missing 'watchdog'")
        check_number(wd, "cycles", "watchdog")
        expect(isinstance(wd.get("fired"), bool),
               "watchdog: missing 'fired'")
        # fenceProfile is present unless profiling was turned off.
        if "fenceProfile" in sys_doc:
            check_fence_profile(sys_doc["fenceProfile"])

    if version >= 4:
        # Hot-line tracking defaults on, so the block is mandatory; the
        # timeline appears only under --stats-interval.
        expect("hotLines" in sys_doc, "system: v4 without 'hotLines'")
        check_hot_lines(sys_doc["hotLines"])
        if expect_timeline:
            expect("timeline" in sys_doc,
                   "system: --stats-interval run without 'timeline'")
            expect(sys_doc["timeline"].get("samples"),
                   "timeline: no samples from a --stats-interval run")
        if "timeline" in sys_doc:
            check_timeline(sys_doc["timeline"], sys_doc["cycles"])

    if version >= 3 and expect_check:
        expect("check" in sys_doc,
               "system: --check run without a 'check' block")
        expect(run.get("checkVerdict") == sys_doc["check"]["verdict"],
               "run: checkVerdict disagrees with the check block")
    if "check" in sys_doc:
        check_check_block(sys_doc["check"])
    elif not expect_check:
        expect("checkVerdict" not in run,
               "run: checkVerdict without a check block")

    noc = sys_doc.get("noc")
    expect(isinstance(noc, dict), "system: missing 'noc'")
    check_number(noc, "meanLatency", "noc")
    links = noc.get("links")
    expect(isinstance(links, list) and links, "noc: empty link heatmap")
    for l in links:
        for key in ("node", "busyCycles", "bytes", "packets",
                    "utilization"):
            check_number(l, key, "link")
        expect(l["dir"] in ("E", "W", "N", "S"),
               f"link: bad direction {l.get('dir')!r}")
        expect(0.0 <= l["utilization"] <= 1.0,
               f"link: utilization {l['utilization']} outside [0, 1]")
        expect(l["packets"] > 0, "link: heatmap row with zero packets")


def check_heartbeat(path, expect_total=None):
    """Validate a sweep-heartbeat JSONL file (src/harness/heartbeat.cc):
    sweep-start first, sweep-end last, per-job start/end bracketing,
    monotone timestamps, well-formed progress lines."""
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    expect(lines, "heartbeat: empty file")
    events = []
    for i, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as e:
            fail(f"heartbeat line {i + 1}: not JSON ({e})")
    expect(events[0].get("event") == "sweep-start",
           "heartbeat: first event is not sweep-start")
    expect(events[-1].get("event") == "sweep-end",
           "heartbeat: last event is not sweep-end")
    total = events[0].get("total")
    check_number(events[0], "total", "sweep-start")
    if expect_total is not None:
        expect(total == expect_total,
               f"heartbeat: sweep-start total {total}, expected "
               f"{expect_total}")
    prev_t = None
    started, ended = set(), set()
    for e in events:
        kind = e.get("event")
        check_number(e, "t", f"heartbeat {kind}")
        if prev_t is not None:
            expect(e["t"] >= prev_t,
                   f"heartbeat: timestamps regress at {kind}")
        prev_t = e["t"]
        if kind == "job-start":
            check_number(e, "job", kind)
            expect(0 <= e["job"] < total, f"{kind}: job out of range")
            expect(e["job"] not in started, f"{kind}: duplicate job")
            started.add(e["job"])
            expect(isinstance(e.get("label"), str) and e["label"],
                   f"{kind}: missing label")
            # The ConfigKey digest (SHA-256, src/service/config_key.hh)
            # replaced the old 16-hex FNV-1a hash.
            expect(is_hex_digest(e.get("configHash")),
                   f"{kind}: configHash is not a 64-hex digest")
        elif kind == "job-end":
            check_number(e, "job", kind)
            check_number(e, "cycles", kind)
            expect(e["job"] in started, f"{kind}: end before start")
            expect(e["job"] not in ended, f"{kind}: duplicate end")
            ended.add(e["job"])
            expect(isinstance(e.get("valid"), bool),
                   f"{kind}: missing 'valid'")
            expect(isinstance(e.get("watchdog"), bool),
                   f"{kind}: missing 'watchdog'")
            expect(isinstance(e.get("status"), str),
                   f"{kind}: missing 'status'")
            expect(isinstance(e.get("cacheHit"), bool),
                   f"{kind}: missing 'cacheHit'")
            expect(isinstance(e.get("skipped"), bool),
                   f"{kind}: missing 'skipped'")
        elif kind == "progress":
            check_number(e, "done", kind)
            check_number(e, "total", kind)
            active = e.get("active")
            expect(isinstance(active, list), f"{kind}: missing active")
            for a in active:
                check_number(a, "job", f"{kind} active")
                check_number(a, "cycles", f"{kind} active")
        elif kind == "sweep-end":
            check_number(e, "done", kind)
            check_number(e, "elapsedSeconds", kind)
        elif kind != "sweep-start":
            fail(f"heartbeat: unknown event {kind!r}")
    expect(started == set(range(total)),
           f"heartbeat: jobs started {sorted(started)}, expected all "
           f"of 0..{total - 1}")
    expect(ended == started, "heartbeat: not every started job ended")
    expect(events[-1]["done"] == total,
           f"heartbeat: sweep-end done {events[-1]['done']} != "
           f"total {total}")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    expect(isinstance(events, list) and events, "trace: no events")
    phases = set()
    for e in events:
        expect(e.get("ph") in ("X", "i", "C", "M"),
               f"trace: unknown phase {e.get('ph')!r}")
        check_number(e, "ts", "trace event")
        check_number(e, "pid", "trace event")
        check_number(e, "tid", "trace event")
        if e["ph"] == "X":
            check_number(e, "dur", "trace event")
        phases.add(e["ph"])
    expect("X" in phases, "trace: no complete (span) events")
    expect("M" in phases, "trace: no metadata (naming) events")
    names = {e["name"] for e in events if e["ph"] == "M"}
    expect("process_name" in names, "trace: runs are not labelled")
    expect("thread_name" in names, "trace: rows are not named")


# Per-mode run document keys in a simcore-microbench report
# (mirrors emitRun in bench/simcore_microbench.cc).
BENCH_RUN_KEYS = ("hostSeconds", "simCycles", "simCyclesPerSec",
                  "eventsExecuted", "eventsPerSec", "instrRetired",
                  "fastForwardedCycles")
BENCH_MODES = ("noFastForward", "fastForward")


def check_bench_report(path):
    with open(path) as f:
        doc = json.load(f)
    version = doc.get("schemaVersion")
    expect(version == 4, f"bench: schemaVersion {version!r}, expected 4")
    expect(isinstance(doc.get("design"), str), "bench: missing 'design'")
    expect(isinstance(doc.get("quick"), bool), "bench: missing 'quick'")
    workloads = doc.get("workloads")
    expect(isinstance(workloads, list) and workloads,
           "bench: empty 'workloads'")
    for w in workloads:
        name = w.get("name")
        expect(isinstance(name, str), "bench workload: missing 'name'")
        check_number(w, "cores", name)
        digests = set()
        for mode in BENCH_MODES:
            run = w.get(mode)
            expect(isinstance(run, dict),
                   f"{name}: missing mode document '{mode}'")
            for key in BENCH_RUN_KEYS:
                check_number(run, key, f"{name}.{mode}")
            digest = run.get("statsDigest")
            expect(isinstance(digest, str) and len(digest) == 16,
                   f"{name}.{mode}: 'statsDigest' is not a 16-char "
                   f"hex string")
            digests.add(digest)
        # Identity across modes, and only fast-forward may jump.
        expect(len(digests) == 1,
               f"{name}: stats digests differ across modes")
        expect(w.get("statsIdentical") is True,
               f"{name}: 'statsIdentical' is not true")
        expect(w["noFastForward"]["fastForwardedCycles"] == 0,
               f"{name}: reference run fast-forwarded cycles")
        check_number(w, "speedupFastForward", name)
        expect(w["speedupFastForward"] > 0,
               f"{name}: 'speedupFastForward' not positive")
    obs = doc.get("observatory")
    expect(isinstance(obs, dict), "bench: report without 'observatory'")
    expect(isinstance(obs.get("workload"), str),
           "observatory: missing 'workload'")
    for key in ("intervalCycles", "samplesTaken", "hostSecondsOff",
                "hostSecondsOn", "overheadPct"):
        check_number(obs, key, "observatory")
    expect(obs["intervalCycles"] > 0, "observatory: zero intervalCycles")
    expect(obs["hostSecondsOff"] > 0 and obs["hostSecondsOn"] > 0,
           "observatory: non-positive host seconds")
    expect(obs.get("statsIdentical") is True,
           "observatory: 'statsIdentical' is not true")
    print(f"ok: bench report schema validated "
          f"({len(workloads)} workloads)")


# Scalar result fields a cache manifest's embedded ExperimentResult
# must carry (mirrors writeResultJson in src/service/result_cache.cc).
MANIFEST_RESULT_NUMBERS = ("cores", "cycles", "tasks", "steals",
                           "commits", "commitsRw", "aborts",
                           "instrRetired", "fencesStrong", "fencesWeak",
                           "weeDemotions", "bouncedWrites",
                           "retriesPerBouncedWrite", "bsLinesPerWf",
                           "wPlusRecoveries", "loadSquashes", "bsFullHolds",
                           "bytesBase", "bytesRetry", "bytesGrt")


def check_manifest(doc, docs_dir=None):
    """Validate one content-addressed cache manifest
    (<digest>.manifest.json, src/service/result_cache.cc). When
    docs_dir is given, also require the sibling stats document to
    exist and to hash to 'docDigest'."""
    expect(doc.get("schemaVersion") == 1,
           f"manifest: schemaVersion {doc.get('schemaVersion')!r}")
    for key in ("digest", "fingerprint", "docDigest"):
        expect(is_hex_digest(doc.get(key)),
               f"manifest: '{key}' is not a 64-hex digest")
    check_number(doc, "producedAt", "manifest")
    check_number(doc, "wallMs", "manifest")
    check_number(doc, "docBytes", "manifest")
    canonical = doc.get("canonical")
    expect(isinstance(canonical, str) and canonical,
           "manifest: missing 'canonical' config serialization")
    expect(canonical.startswith("asf-config-key "),
           "manifest: canonical form lacks its key-schema stamp")
    r = doc.get("result")
    expect(isinstance(r, dict), "manifest: missing 'result'")
    for key in ("workload", "design", "validationError", "checkVerdict"):
        expect(isinstance(r.get(key), str),
               f"manifest result: missing '{key}'")
    for key in MANIFEST_RESULT_NUMBERS:
        check_number(r, key, "manifest result")
    for key in ("valid", "watchdogFired"):
        expect(isinstance(r.get(key), bool),
               f"manifest result: missing '{key}'")
    b = r.get("breakdown")
    expect(isinstance(b, dict), "manifest result: missing 'breakdown'")
    for key in ("busy", "fenceStall", "otherStall", "idle"):
        check_number(b, key, "manifest breakdown")
    stall = b.get("stall")
    expect(isinstance(stall, list) and len(stall) == len(STALL_SCALARS),
           f"manifest breakdown: 'stall' is not a "
           f"{len(STALL_SCALARS)}-bucket array")
    if docs_dir is not None:
        import hashlib
        doc_path = Path(docs_dir) / f"{doc['digest']}.doc.json"
        expect(doc_path.exists(), f"manifest: no stats doc {doc_path}")
        data = doc_path.read_bytes()
        expect(len(data) == doc["docBytes"],
               f"manifest: doc is {len(data)} bytes, manifest says "
               f"{doc['docBytes']}")
        expect(hashlib.sha256(data).hexdigest() == doc["docDigest"],
               "manifest: stats doc does not hash to docDigest")


def check_campaign_status(doc):
    """Validate `asf_campaign status --json` (src/service/campaign.cc)."""
    expect(doc.get("schemaVersion") == 1,
           f"status: schemaVersion {doc.get('schemaVersion')!r}")
    for key in ("name", "dir", "cacheDir"):
        expect(isinstance(doc.get(key), str), f"status: missing '{key}'")
    for key in ("total", "done", "claimed", "pending", "cacheHits",
                "failures", "wallMs"):
        check_number(doc, key, "status")
    expect(doc["done"] + doc["claimed"] + doc["pending"] == doc["total"],
           "status: done + claimed + pending != total")
    expect(doc["cacheHits"] <= doc["done"],
           "status: more cache hits than done jobs")
    jobs = doc.get("jobs")
    expect(isinstance(jobs, list) and len(jobs) == doc["total"],
           f"status: 'jobs' does not list all {doc['total']} jobs")
    by_state = {"pending": 0, "claimed": 0, "done": 0}
    for i, j in enumerate(jobs):
        check_number(j, "job", "status job")
        expect(j["job"] == i, f"status job {i}: out-of-order index")
        expect(isinstance(j.get("label"), str) and j["label"],
               f"status job {i}: missing label")
        state = j.get("state")
        expect(state in by_state, f"status job {i}: bad state {state!r}")
        by_state[state] += 1
        if state == "done":
            expect(is_hex_digest(j.get("digest")),
                   f"status job {i}: done without a config digest")
            expect(isinstance(j.get("valid"), bool),
                   f"status job {i}: missing 'valid'")
            expect(isinstance(j.get("cacheHit"), bool),
                   f"status job {i}: missing 'cacheHit'")
            check_number(j, "cycles", f"status job {i}")
    for state, n in by_state.items():
        expect(n == doc[state],
               f"status: {state} jobs counted {n}, header says "
               f"{doc[state]}")


def check_cache_dir(cache_dir):
    """Validate every manifest in a --cache-dir tree and return how
    many objects it holds."""
    objects = Path(cache_dir) / "objects"
    expect(objects.is_dir(), f"cache: no objects/ under {cache_dir}")
    manifests = sorted(objects.glob("*.manifest.json"))
    for m in manifests:
        with open(m) as f:
            doc = json.load(f)
        check_manifest(doc, docs_dir=objects)
        expect(m.name == f"{doc['digest']}.manifest.json",
               f"cache: {m.name} stored under the wrong digest")
    return len(manifests)


def run_ok(cmd, ctx):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, timeout=300)
    expect(proc.returncode == 0,
           f"{ctx} failed ({proc.returncode}):\n{proc.stdout}"
           f"\n{proc.stderr}")
    return proc.stdout


def check_cache_roundtrip(asf_sim):
    """Cold/warm byte-identity: the same config run twice through
    --cache-dir must produce byte-identical stats logs, with the warm
    run spliced from the store (visible as a populated cache that did
    not grow)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = [asf_sim, "--workload", "ustm:Hash", "--design", "W+",
                "--cores", "4", "--cycles", "30000",
                f"--cache-dir={tmp / 'cache'}"]
        run_ok(base + [f"--stats-json={tmp / 'cold.json'}"],
               "cold asf_sim run")
        cold_objects = check_cache_dir(tmp / "cache")
        expect(cold_objects == 1,
               f"cache: cold run stored {cold_objects} objects, "
               f"expected 1")
        run_ok(base + [f"--stats-json={tmp / 'warm.json'}"],
               "warm asf_sim run")
        cold = (tmp / "cold.json").read_bytes()
        warm = (tmp / "warm.json").read_bytes()
        expect(cold == warm,
               "cache: warm stats log differs from the cold one")
        expect(check_cache_dir(tmp / "cache") == cold_objects,
               "cache: warm run grew the store (it re-simulated)")
    print("ok: cold/warm --cache-dir runs byte-identical, "
          "manifests validated")


def check_bench_cache(bench):
    """A bench binary honours --stats-json and --cache-dir: a cold
    --quick sweep writes one schema-valid stats document per table row,
    stored under <cache-dir>/quick; a second sweep is all cache hits
    (per its heartbeat) with a byte-identical log and table."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def sweep(name):
            table = run_ok([bench, "--quick", "--csv", "--jobs", "2",
                            f"--cache-dir={tmp / 'cache'}",
                            f"--stats-json={tmp / name}.json",
                            f"--heartbeat={tmp / name}.jsonl"],
                           f"{bench.name} {name} sweep")
            rows = len(table.splitlines()) - 1
            check_heartbeat(tmp / f"{name}.jsonl", expect_total=rows)
            with open(tmp / f"{name}.jsonl") as f:
                hits = [e["cacheHit"] for e in map(json.loads, f)
                        if e.get("event") == "job-end"]
            return table, (tmp / f"{name}.json").read_bytes(), hits

        cold_table, cold_log, cold_hits = sweep("cold")
        runs = json.loads(cold_log)["runs"]
        expect(len(runs) == len(cold_hits) and not any(cold_hits),
               f"{bench.name}: {len(cold_hits)} table rows, "
               f"{len(runs)} stats documents, {sum(cold_hits)} cold hits")
        for run in runs:
            check_run(run)
        expect(check_cache_dir(tmp / "cache" / "quick") == len(runs),
               f"{bench.name}: no cache object per run under "
               f"<cache-dir>/quick")
        warm_table, warm_log, warm_hits = sweep("warm")
        expect(all(warm_hits), f"{bench.name}: the warm sweep simulated")
        expect(warm_log == cold_log and warm_table == cold_table,
               f"{bench.name}: the warm log or table differs")
    print(f"ok: {bench.name} cold/warm --cache-dir sweeps: {len(runs)} "
          f"schema-valid documents, all warm runs cache hits, "
          f"byte-identical logs and tables")


def check_quick_cache_namespace(bench):
    """A full sweep after a --quick one into the same --cache-dir prints
    what a full sweep into a fresh cache prints: the cache key does not
    cover workload shape, so --quick results are filed apart."""
    with tempfile.TemporaryDirectory() as tmp:
        def sweep(cache, *extra):
            return run_ok([bench, "--csv", "--jobs", "4",
                           f"--cache-dir={Path(tmp) / cache}", *extra],
                          f"{bench.name} {' '.join(extra)} sweep")

        sweep("shared", "--quick")
        expect(sweep("shared") == sweep("fresh"),
               f"{bench.name}: a full sweep after a --quick sweep into "
               f"the same cache was served the quick results")
    print(f"ok: {bench.name} full sweep after --quick matches a full "
          f"sweep into a fresh cache")


def check_campaign_service(asf_campaign, asf_sim):
    """End-to-end campaign protocol: crash-resume re-executes only the
    jobs without completion records, a warm re-run is 100% cache hits,
    two shard workers drain a fresh campaign to the same merged bytes
    as the serial order, and a campaign job's merged document is
    byte-identical to asf_sim's for the same spec."""
    spec = ('{"workload":"ustm:Hash","designs":["S+","WS+","W+","Wee"],'
            '"cores":4,"cycles":30000}\n')
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        specs = tmp / "specs.jsonl"
        specs.write_text(spec)
        camp, camp2 = tmp / "camp", tmp / "camp2"

        def status(d):
            out = run_ok([asf_campaign, "status", d, "--json"],
                         "asf_campaign status")
            doc = json.loads(out)
            check_campaign_status(doc)
            return doc

        # Crash after two jobs: the third is claimed-but-abandoned,
        # exactly what a kill -9 mid-job leaves behind.
        run_ok([asf_campaign, "submit", camp, "--specs", specs],
               "asf_campaign submit")
        run_ok([asf_campaign, "run", camp, "--abort-after", "2"],
               "aborted asf_campaign run")
        st = status(camp)
        expect(st["done"] == 2 and st["total"] == 4,
               f"campaign: aborted run finished {st['done']}/4, "
               f"expected 2")
        expect(st["claimed"] == 1,
               "campaign: crash left no dangling claim to recover")

        # Resume: only the incomplete jobs run (the dangling claim is
        # detected as stale and taken over).
        out = run_ok([asf_campaign, "run", camp], "resumed run")
        expect("2 already done, 2 executed" in out,
               f"campaign: resume did not run exactly the incomplete "
               f"jobs:\n{out}")
        st = status(camp)
        expect(st["done"] == 4 and st["pending"] == 0 and
               st["claimed"] == 0, "campaign: resume left jobs behind")
        run_ok([asf_campaign, "merge", camp, tmp / "serial.json"],
               "merge")

        # Warm re-run: drop the completion records but keep the cache;
        # every job must come back as a hit with identical bytes.
        for rec in (camp / "done").glob("*.json"):
            rec.unlink()
        out = run_ok([asf_campaign, "run", camp], "warm run")
        expect("4 executed (4 cache hits)" in out,
               f"campaign: warm run was not 100% cache hits:\n{out}")
        st = status(camp)
        expect(st["cacheHits"] == 4,
               "campaign: status does not report the warm hits")
        run_ok([asf_campaign, "merge", camp, tmp / "warm.json"], "merge")
        expect((tmp / "serial.json").read_bytes() ==
               (tmp / "warm.json").read_bytes(),
               "campaign: warm merged log differs from the cold one")

        # Sharding: two workers with disjoint static shards drain a
        # fresh campaign; no job runs twice and the merged stats log is
        # byte-identical to the serial one.
        run_ok([asf_campaign, "submit", camp2, "--specs", specs],
               "submit shard campaign")
        for shard in ("0/2", "1/2"):
            out = run_ok([asf_campaign, "run", camp2, "--shard", shard],
                         f"shard {shard} run")
            expect("2 executed" in out and "0 already done" in out,
                   f"campaign: shard {shard} did not run exactly its "
                   f"half:\n{out}")
        st = status(camp2)
        expect(st["done"] == 4, "campaign: shards left jobs behind")
        run_ok([asf_campaign, "merge", camp2, tmp / "sharded.json"],
               "merge sharded")
        expect((tmp / "serial.json").read_bytes() ==
               (tmp / "sharded.json").read_bytes(),
               "campaign: sharded merged log differs from serial")
        check_cache_dir(camp / "cache")
        check_cache_dir(camp2 / "cache")

        # One job, run by a campaign worker and by asf_sim: the same
        # run defaults (the livelock watchdog among them) apply to
        # both, so the documents are the same bytes.
        one = tmp / "one.jsonl"
        one.write_text('{"workload":"ustm:Hash","design":"W+",'
                       '"cores":4,"cycles":30000}\n')
        camp3 = tmp / "camp3"
        run_ok([asf_campaign, "submit", camp3, "--specs", one],
               "submit one-job campaign")
        run_ok([asf_campaign, "run", camp3], "one-job run")
        run_ok([asf_campaign, "merge", camp3, tmp / "one-campaign.json"],
               "merge one-job campaign")
        run_ok([asf_sim, "--workload", "ustm:Hash", "--design", "W+",
                "--cores", "4", "--cycles", "30000",
                f"--stats-json={tmp / 'one-sim.json'}"], "asf_sim run")
        merged = (tmp / "one-campaign.json").read_bytes()
        expect(b'"watchdog":{"cycles":1000000' in merged,
               "campaign: job ran without the default livelock watchdog")
        expect(merged == (tmp / "one-sim.json").read_bytes(),
               "campaign: merged document differs from asf_sim's for "
               "the same spec")
    print("ok: campaign crash-resume, warm re-run (100% hits), "
          "two-shard drain and asf_sim's document all byte-identical")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--bench":
        bench = Path(sys.argv[2])
        expect(bench.exists(), f"no such report: {bench}")
        check_bench_report(bench)
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--heartbeat":
        hb = Path(sys.argv[2])
        expect(hb.exists(), f"no such heartbeat: {hb}")
        check_heartbeat(hb)
        print("ok: heartbeat telemetry validated")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--manifest":
        path = Path(sys.argv[2])
        expect(path.exists(), f"no such manifest: {path}")
        with open(path) as f:
            check_manifest(json.load(f), docs_dir=path.parent)
        print("ok: cache manifest validated")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--campaign-status":
        path = Path(sys.argv[2])
        expect(path.exists(), f"no such status document: {path}")
        with open(path) as f:
            check_campaign_status(json.load(f))
        print("ok: campaign status validated")
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--cache":
        sim = Path(sys.argv[2])
        expect(sim.exists(), f"no such binary: {sim}")
        check_cache_roundtrip(sim)
        return
    if len(sys.argv) == 3 and sys.argv[1] in ("--bench-cache",
                                              "--quick-namespace"):
        bench = Path(sys.argv[2])
        expect(bench.exists(), f"no such binary: {bench}")
        if sys.argv[1] == "--bench-cache":
            check_bench_cache(bench)
        else:
            check_quick_cache_namespace(bench)
        return
    if len(sys.argv) == 4 and sys.argv[1] == "--campaign":
        camp, sim = Path(sys.argv[2]), Path(sys.argv[3])
        for binary in (camp, sim):
            expect(binary.exists(), f"no such binary: {binary}")
        check_campaign_service(camp, sim)
        return
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <path-to-asf_sim> | "
             f"--bench <report.json> | --heartbeat <hb.jsonl> | "
             f"--manifest <manifest.json> | "
             f"--campaign-status <status.json> | "
             f"--cache <asf_sim> | --campaign <asf_campaign> <asf_sim> | "
             f"--bench-cache <bench> | --quick-namespace <bench>")
    asf_sim = Path(sys.argv[1])
    expect(asf_sim.exists(), f"no such binary: {asf_sim}")

    with tempfile.TemporaryDirectory() as tmp:
        stats_path = Path(tmp) / "stats.json"
        trace_path = Path(tmp) / "trace.json"
        base = [str(asf_sim), "--workload", "ustm:Hash", "--design",
                "W+", "--cores", "4", "--cycles", "30000"]
        for extra in ([f"--stats-json={stats_path}",
                       f"--trace={trace_path}"],
                      [f"--stats-json={stats_path}", "--check"]):
            stats_path.unlink(missing_ok=True)
            checked = "--check" in extra
            proc = subprocess.run(base + extra, capture_output=True,
                                  text=True, timeout=300)
            expect(proc.returncode == 0,
                   f"asf_sim failed ({proc.returncode}):\n{proc.stderr}")
            expect(stats_path.exists(), "no stats JSON written")

            with open(stats_path) as f:
                doc = json.load(f)
            expect(doc.get("schemaVersion") in (1, 2, 3, 4),
                   f"log: unknown schemaVersion "
                   f"{doc.get('schemaVersion')!r}")
            runs = doc.get("runs")
            expect(isinstance(runs, list) and len(runs) == 1,
                   f"log: expected 1 run, got {runs!r:.80}")
            check_run(runs[0], expect_check=checked)
            if checked:
                # Real workloads reuse data values (lock words toggle),
                # so 'inconclusive' is legitimate; only a 'violation'
                # means the simulator (or checker) is broken.
                expect(runs[0].get("checkVerdict") in ("pass",
                                                       "inconclusive"),
                       f"checked run verdict "
                       f"{runs[0].get('checkVerdict')!r}")
        expect(trace_path.exists(), "no trace written")
        check_trace(trace_path)

        # Observatory shape: --stats-interval fills the timeline block,
        # and --obs-dir resolves the relative stats path under it.
        obs_dir = Path(tmp) / "obs"
        proc = subprocess.run(
            base + ["--stats-json", "stats.json", "--stats-interval",
                    "1000", f"--obs-dir={obs_dir}"],
            capture_output=True, text=True, timeout=300)
        expect(proc.returncode == 0,
               f"asf_sim failed ({proc.returncode}):\n{proc.stderr}")
        obs_stats = obs_dir / "stats.json"
        expect(obs_stats.exists(),
               "--obs-dir did not redirect the relative stats path")
        with open(obs_stats) as f:
            doc = json.load(f)
        check_run(doc["runs"][0], expect_timeline=True)

        # Live sweep telemetry: an --all-designs campaign with
        # --heartbeat must leave a well-formed JSONL trail.
        hb_path = Path(tmp) / "heartbeat.jsonl"
        proc = subprocess.run(
            [str(asf_sim), "--workload", "ustm:Hash", "--all-designs",
             "--jobs", "2", "--cores", "4", "--cycles", "30000",
             f"--heartbeat={hb_path}"],
            capture_output=True, text=True, timeout=300)
        expect(proc.returncode == 0,
               f"asf_sim sweep failed ({proc.returncode}):"
               f"\n{proc.stderr}")
        expect(hb_path.exists(), "no heartbeat written")
        check_heartbeat(hb_path, expect_total=5)

    print("ok: stats schema (plain, --check, --stats-interval), trace "
          "format, obs-dir routing, and sweep heartbeat validated")


if __name__ == "__main__":
    main()
