#!/usr/bin/env python3
"""Schema + regression check for the bench_wallclock summary JSON, plus a
trace-validate subcommand for dcsim --trace exports.

Usage: check_bench_json.py [path]            (default: BENCH_sim.json)
       check_bench_json.py trace-validate TRACE.json
       check_bench_json.py fault-sweep SWEEP.json
       check_bench_json.py pipeline-fusion TABLE.json
       check_bench_json.py report-validate REPORT.json

report-validate schema-checks a structured run-report from
`dcsim --report=FILE.json`: pinned schema_version, required sections, a
known status (ok, sim_error, fault_error, or rejected — a run refused
before it ran, which names its refusal line as the error and executed no
comm cycle), per-track phase sums equal to the track's total cycles,
cross-counter reconciliation (profiled tracks + virtual counters ==
Counters.comm_cycles when no trace events were dropped), imbalance-summary
bounds and a strictly monotone flight-recorder timeline.

trace-validate schema-checks a Chrome-trace export from `dcsim --trace`:
every event carries name/ph/pid/tid/ts; 'B'/'E' spans are balanced per
(pid, tid) with matching names (LIFO nesting); kCycleEnd-style cycle spans
use known phase names; logical timestamps are strictly monotone across the
merged stream; and per-track cycle events appear in monotone (logical)
order. Span-balance checks are skipped when otherData.dropped_events > 0 —
a wrapped ring legitimately loses opening events.

Verifies the file is a non-empty JSON array in which every row carries a
non-empty "name" plus numeric "ns_per_op" and "items_per_sec" keys, with
ns_per_op > 0 and items_per_sec > 0 for every measurement row. Spread
aggregates ("_stddev", "_cv" rows) are exempt from the positivity checks —
a perfectly stable run legitimately reports 0 spread.

Two further gates run only on files that carry trajectory rows (rows whose
name ends in "@<tag>", e.g. "BM_BlockSort/512_median@pr3"); the CI smoke
file has none and skips both:

  * Block-family coverage: BM_BlockSort, BM_BlockPrefix, BM_MergeSplit,
    BM_BlockGather and BM_ShardedDualPrefix rows must be present — the SoA
    block-replay path, its SIMD kernels and the cluster-sharded engine must
    stay benchmarked.
  * Shard scaling: among the current fixed-cap sharded rows
    "BM_ShardedDualPrefix/<n>/<K>/1", at the largest n carrying both a K=1
    and a K=4 row, 4 shards must deliver >= 2x the K=1 nodes/sec. Under the
    cap a too-coarse sharding streams its cycles out of core; this gate
    keeps that cost bought back by sharding finer. Skipped when no capped
    rows are recorded (the CI smoke file runs only the small resident
    rows).
  * Warm/cold start: the BM_ColdStart/BM_WarmStart family must be present,
    and at every shared size the warm median (schedules loaded from the
    persistent store) must be <= 0.5x the cold median (record-and-validate
    from scratch).
  * Median regression: for every plain "X_median" row with at least one
    recorded "X_median@..." predecessor, the current ns_per_op must not
    exceed 1.1x the most recent predecessor. "Most recent" means the
    highest "@prN" number (other tags such as "@baseline-v0" count as
    PR 0); ties break toward the lowest ns_per_op, so a same-PR
    interpreted/compiled pair is compared against its faster variant.
    Alongside the gate, a per-family best/worst current-vs-predecessor
    ratio summary is printed (ratio < 1 is a speedup).

Stdlib only.
"""
import json
import re
import sys

REGRESSION_TOLERANCE = 1.1
SHARD_SCALING_MIN = 2.0


def load(path: str, valid, expected: str):
    """Parsed JSON of `path`, or None after printing to stderr why it is
    unusable: unreadable, not JSON, or failing `valid` (then "expected
    <expected>")."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return None
    if not valid(doc):
        print(f"{path}: expected {expected}", file=sys.stderr)
        return None
    return doc


def non_empty_list(doc) -> bool:
    return isinstance(doc, list) and bool(doc)


def failed(path: str, errors, scope: str = "") -> bool:
    """Prints `errors` and their count (" in <scope>" when given) to stderr;
    True when there were any."""
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{path}: {len(errors)} problem(s){scope}", file=sys.stderr)
    return bool(errors)


def pr_number(tag: str) -> int:
    """Trajectory age of a row tag: "pr3" -> 3, "pr2-compiled" -> 2,
    anything without a @prN prefix (e.g. "baseline-v0") -> 0."""
    m = re.match(r"pr(\d+)", tag)
    return int(m.group(1)) if m else 0


def check_schema(rows) -> list:
    errors = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i}: not an object")
            continue
        name = row.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"row {i}: missing or empty 'name'")
            continue
        for key in ("ns_per_op", "items_per_sec"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{name}: missing or non-numeric '{key}'")
        if any(tag in name for tag in ("_stddev", "_cv")):
            continue
        # A missing key reads as 0 and NaN fails `> 0`; any other
        # non-number is left to the error above.
        ns, ips = row.get("ns_per_op", 0), row.get("items_per_sec", 0)
        if isinstance(ns, (int, float)) and not ns > 0:
            errors.append(f"{name}: ns_per_op must be > 0")
        if isinstance(ips, (int, float)) and not ips > 0:
            errors.append(
                f"{name}: items_per_sec must be > 0 "
                "(did the bench call SetItemsProcessed?)"
            )
    return errors


def check_block_family(names) -> list:
    errors = []
    for family in (
        "BM_BlockSort",
        "BM_BlockPrefix",
        "BM_MergeSplit",
        "BM_BlockGather",
        "BM_ShardedDualPrefix",
    ):
        if not any(n == family or n.startswith(family + "/") for n in names):
            errors.append(f"missing block-family rows: no {family} benchmark")
    return errors


def family_of(name: str) -> str:
    """Benchmark family of a median row: "BM_BlockSort/512_median" ->
    "BM_BlockSort"."""
    return name.split("/", 1)[0].removesuffix("_median")


def report_family_ratios(ratios) -> None:
    """Per-family best/worst current-vs-predecessor summary, printed on
    every trajectory-gated run so a PR's speedups and near-regressions are
    visible without digging through raw rows. ratio < 1 is a speedup."""
    families = {}
    for name, ratio in ratios:
        families.setdefault(family_of(name), []).append((ratio, name))
    for family in sorted(families):
        entries = sorted(families[family])
        best_ratio, best_name = entries[0]
        worst_ratio, worst_name = entries[-1]
        print(
            f"{family}: best {best_ratio:.2f}x ({best_name}), "
            f"worst {worst_ratio:.2f}x ({worst_name}) vs newest trajectory"
        )


def check_shard_scaling(rows) -> list:
    """Fixed-cap shard-scaling gate (see module docstring). Prefers
    "_median" rows over single-rep rows for the same (n, K); only current
    (un-tagged) rows participate."""
    median, single = {}, {}
    for row in rows:
        name = row.get("name", "")
        if "@" in name:
            continue
        m = re.match(r"BM_ShardedDualPrefix/(\d+)/(\d+)/1(_median)?$", name)
        if not m:
            continue
        ips = row.get("items_per_sec")
        if not isinstance(ips, (int, float)) or isinstance(ips, bool):
            continue
        (median if m.group(3) else single)[
            (int(m.group(1)), int(m.group(2)))] = ips
    table = {**single, **median}
    sizes = [n for n, _ in table if (n, 1) in table and (n, 4) in table]
    if not sizes:
        return []
    n = max(sizes)
    ratio = table[(n, 4)] / table[(n, 1)]
    if ratio < SHARD_SCALING_MIN:
        return [
            f"BM_ShardedDualPrefix/{n}: 4 shards deliver only {ratio:.2f}x "
            f"the 1-shard nodes/sec at the shared memory cap (gate: >= "
            f"{SHARD_SCALING_MIN:.1f}x)"
        ]
    print(f"shard scaling at fixed cap (n={n}): 4 shards = {ratio:.2f}x "
          "1 shard nodes/sec")
    return []


WARM_COLD_MAX_RATIO = 0.5


def check_warm_cold(rows) -> list:
    """Cold-start gate: for every size with both a BM_ColdStart/<n>_median
    and a BM_WarmStart/<n>_median current row, the warm median (replay of
    schedules loaded from the persistent store) must be at most
    WARM_COLD_MAX_RATIO x the cold median (record-and-validate from
    scratch). Trajectory-tagged rows don't participate. Missing families
    are reported — once persistence is benchmarked it must stay
    benchmarked."""
    cold, warm = {}, {}
    for row in rows:
        name = row.get("name", "")
        if "@" in name:
            continue
        m = re.match(r"BM_(Cold|Warm)Start/(\d+)(?:/repeats:\d+)?_median$",
                     name)
        if not m:
            continue
        value = row.get("ns_per_op")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        (cold if m.group(1) == "Cold" else warm)[int(m.group(2))] = value

    if not cold or not warm:
        return ["missing BM_ColdStart/BM_WarmStart median rows: schedule "
                "persistence must stay benchmarked"]
    errors = []
    for n in sorted(set(cold) & set(warm)):
        ratio = warm[n] / cold[n]
        if ratio > WARM_COLD_MAX_RATIO:
            errors.append(
                f"BM_WarmStart/{n}: warm start is {ratio:.2f}x the cold "
                f"median (gate: <= {WARM_COLD_MAX_RATIO:.1f}x) — loading "
                "from the schedule store should skip record-and-validate")
        else:
            print(f"warm start (n={n}): {ratio:.2f}x the cold median")
    if not set(cold) & set(warm):
        errors.append("BM_ColdStart and BM_WarmStart rows never share a "
                      "size; the warm/cold ratio is ungated")
    return errors


def check_median_regressions(rows, ratios=None) -> list:
    # Trajectory rows: "X@tag" -> list of (pr_number, ns_per_op) under X.
    history = {}
    for row in rows:
        name = row.get("name", "")
        if "@" not in name:
            continue
        base, tag = name.split("@", 1)
        value = row.get("ns_per_op")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            history.setdefault(base, []).append((pr_number(tag), value, name))

    errors = []
    for row in rows:
        name = row.get("name", "")
        if "@" in name or not name.endswith("_median"):
            continue
        candidates = history.get(name)
        if not candidates:
            continue
        newest = max(pr for pr, _, _ in candidates)
        ns_pred, pred_name = min(
            (ns, n) for pr, ns, n in candidates if pr == newest)
        value = row.get("ns_per_op")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue  # already reported by the schema pass
        if ratios is not None and ns_pred > 0:
            ratios.append((name, value / ns_pred))
        if value > REGRESSION_TOLERANCE * ns_pred:
            errors.append(
                f"{name}: regressed to {value:.2f} ns/op, more than "
                f"{REGRESSION_TOLERANCE:.1f}x the recorded {ns_pred:.2f} "
                f"({pred_name})"
            )
    return errors


# Phase names the simulator emits (docs/MODEL.md "Observability"). Span
# names may also be "record:<algo>" / "replay:<algo>" / "interp:<algo>" /
# "load:<algo>" (replay of a schedule faulted in from the persistent
# store) / "fuse:<label>" (fused multi-section replay) / "phase:<label>"
# with a free-form suffix.
KNOWN_SPANS = {
    "comm_cycle",
    "comm_cycle_replay_blocks",
    "comm_cycle_fused",
}
KNOWN_SPAN_PREFIXES = ("record:", "replay:", "interp:", "load:", "fuse:",
                       "phase:")
KNOWN_INSTANTS = {
    "compute_step",
    "fault_drop",
    "fault_cycle",
    "fault_detour",
    "fault_epoch",
    "fault_rejoin",
    "recovery_retry",
    "recovery_replan",
    "recovery_exhausted",
    "schedule_cache_hit",
    "schedule_cache_miss",
    "schedule_commit",
    "schedule_load",
    "schedule_fuse",
}


def known_span_name(name: str) -> bool:
    return name in KNOWN_SPANS or name.startswith(KNOWN_SPAN_PREFIXES)


def trace_validate(path: str) -> int:
    doc = load(path, lambda d: isinstance(d, dict)
               and non_empty_list(d.get("traceEvents")),
               "an object with a non-empty 'traceEvents' array")
    if doc is None:
        return 1

    errors = []
    events = doc["traceEvents"]
    dropped = 0
    other = doc.get("otherData")
    if isinstance(other, dict):
        dropped = other.get("dropped_events", 0)

    last_ts = None        # merged-stream logical clock must be strict
    open_spans = {}       # (pid, tid) -> stack of open 'B' names
    cycle_count = {}      # pid -> comm cycles seen, to report positions
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = e.get("ph")
        name = e.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"event {i}: missing 'name'")
            continue
        if ph == "M":
            continue  # metadata (process_name) carries no ts
        for key in ("pid", "tid", "ts"):
            if not isinstance(e.get(key), int):
                errors.append(f"event {i} ({name}): missing integer '{key}'")
        ts = e.get("ts")
        if isinstance(ts, int):
            if last_ts is not None and ts <= last_ts:
                errors.append(
                    f"event {i} ({name}): logical ts {ts} not strictly "
                    f"increasing (previous {last_ts})")
            last_ts = ts
        key = (e.get("pid"), e.get("tid"))
        if ph == "B":
            if not known_span_name(name):
                errors.append(f"event {i}: unknown span name '{name}'")
            open_spans.setdefault(key, []).append(name)
        elif ph == "E":
            stack = open_spans.setdefault(key, [])
            if stack and stack[-1] == name:
                stack.pop()
            elif dropped == 0:
                errors.append(
                    f"event {i}: 'E' for '{name}' does not close the "
                    f"innermost open span {stack[-1] if stack else '(none)'}"
                    f" on track {key}")
            if name in KNOWN_SPANS:  # a comm cycle ended on this track
                cycle_count[e.get("pid")] = cycle_count.get(e.get("pid"), 0) + 1
        elif ph == "i":
            if name not in KNOWN_INSTANTS:
                errors.append(f"event {i}: unknown instant name '{name}'")
        else:
            errors.append(f"event {i} ({name}): unknown phase '{ph}'")
    if dropped == 0:
        for key, stack in open_spans.items():
            if stack:
                errors.append(
                    f"track {key}: {len(stack)} unclosed span(s), "
                    f"innermost '{stack[-1]}'")
    if not cycle_count:
        errors.append("no comm-cycle spans found "
                      f"(expected one of {sorted(KNOWN_SPANS)})")

    if failed(path, errors, f" in {len(events)} events"):
        return 1
    cycles = sum(cycle_count.values())
    print(f"{path}: {len(events)} events OK ({cycles} comm cycles on "
          f"{len(cycle_count)} track(s), {dropped} dropped)")
    return 0


def fault_sweep_validate(path: str) -> int:
    """Schema gate for tab_fault_sweep's DC_FAULT_SWEEP_JSON export: a
    non-empty array of injection-timing rows. Every row needs n >= 2,
    inject "pre"|"mid", comm_cycles > 0, replans == retries and
    correct == true; "pre" rows must show zero retries (the fault was
    planned around), "mid" rows at least one (the flap aborted a phase),
    and every n must carry both legs of the axis."""
    rows = load(path, non_empty_list, "a non-empty JSON array")
    if rows is None:
        return 1

    errors = []
    legs = {}  # n -> set of inject values seen
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i}: not an object")
            continue
        n = row.get("n")
        inject = row.get("inject")
        label = f"row {i} (n={n}, inject={inject})"
        if not isinstance(n, int) or n < 2:
            errors.append(f"{label}: 'n' must be an integer >= 2")
            continue
        if inject not in ("pre", "mid"):
            errors.append(f"{label}: 'inject' must be 'pre' or 'mid'")
            continue
        legs.setdefault(n, set()).add(inject)
        for key in ("comm_cycles", "retries", "replans", "backoff_cycles",
                    "repaired"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"{label}: missing or non-integer '{key}'")
        if not row.get("comm_cycles", 0) > 0:
            errors.append(f"{label}: comm_cycles must be > 0")
        if row.get("replans") != row.get("retries"):
            errors.append(f"{label}: every retry must re-plan "
                          f"(retries={row.get('retries')}, "
                          f"replans={row.get('replans')})")
        if inject == "pre" and row.get("retries") != 0:
            errors.append(f"{label}: pre-installed faults are planned "
                          "around, expected 0 retries")
        if inject == "mid" and not row.get("retries", 0) >= 1:
            errors.append(f"{label}: a mid-run flap must trigger a retry")
        if row.get("correct") is not True:
            errors.append(f"{label}: 'correct' must be true")
    for n, seen in sorted(legs.items()):
        if seen != {"pre", "mid"}:
            errors.append(f"n={n}: need both 'pre' and 'mid' rows, "
                          f"got {sorted(seen)}")

    if failed(path, errors, f" in {len(rows)} rows"):
        return 1
    print(f"{path}: {len(rows)} fault-sweep rows OK "
          f"({len(legs)} network size(s), both injection legs)")
    return 0


def pipeline_fusion_validate(path: str) -> int:
    """Gate for tab_pipeline_broadcast's DC_PIPELINE_JSON export: a
    non-empty array of rows carrying the fused-vs-unfused cycle counts.
    Every row needs n >= 2, chunks >= 1, positive ring/binomial cycle
    counts, correct == true, and fused_cycles == unfused_cycles - merged;
    at least one row must actually merge cycles (merged >= 1) — fusion
    must keep reducing total replay cycles."""
    rows = load(path, non_empty_list, "a non-empty JSON array")
    if rows is None:
        return 1

    errors = []
    any_merged = False
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i}: not an object")
            continue
        n = row.get("n")
        label = f"row {i} (n={n}, chunks={row.get('chunks')})"
        if not isinstance(n, int) or n < 2:
            errors.append(f"{label}: 'n' must be an integer >= 2")
            continue
        for key in ("chunks", "ring_cycles", "binomial_cycles",
                    "unfused_cycles", "fused_cycles", "merged"):
            value = row.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"{label}: missing or non-integer '{key}'")
        if errors and errors[-1].startswith(label):
            continue
        if row["chunks"] < 1 or row["ring_cycles"] <= 0 \
                or row["binomial_cycles"] <= 0:
            errors.append(f"{label}: cycle counts must be positive")
        if row["fused_cycles"] != row["unfused_cycles"] - row["merged"]:
            errors.append(
                f"{label}: fused_cycles ({row['fused_cycles']}) != "
                f"unfused_cycles - merged "
                f"({row['unfused_cycles']} - {row['merged']})")
        if row["merged"] >= 1:
            any_merged = True
        if row.get("correct") is not True:
            errors.append(f"{label}: 'correct' must be true")
    if not any_merged:
        errors.append("no row merged any cycles: fusion no longer reduces "
                      "total replay cycles")

    if failed(path, errors, f" in {len(rows)} rows"):
        return 1
    print(f"{path}: {len(rows)} pipeline-fusion rows OK")
    return 0


REPORT_SCHEMA_VERSION = 1
REPORT_STATUSES = ("ok", "sim_error", "fault_error", "rejected")


def report_validate(path: str) -> int:
    """Gate for dcsim --report run-reports (docstring at module top)."""
    doc = load(path, lambda d: isinstance(d, dict), "a JSON object")
    if doc is None:
        return 1

    errors = []
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        errors.append(f"schema_version must be {REPORT_SCHEMA_VERSION}, "
                      f"got {doc.get('schema_version')!r}")
    if doc.get("tool") != "dcsim":
        errors.append(f"tool must be 'dcsim', got {doc.get('tool')!r}")
    for key in ("algo", "status"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errors.append(f"missing or empty '{key}'")
    for key in ("n", "seed"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            errors.append(f"missing or non-integer '{key}'")
    for key in ("counters", "fault", "schedule_cache", "flight_recorder"):
        if not isinstance(doc.get(key), dict):
            errors.append(f"missing object section '{key}'")
    if not isinstance(doc.get("hot_edges"), list):
        errors.append("missing array section 'hot_edges'")
    if failed(path, errors):
        return 1

    status = doc["status"]
    if status not in REPORT_STATUSES:
        errors.append(f"status must be one of {'/'.join(REPORT_STATUSES)}, "
                      f"got {status!r}")
    elif status != "ok" and (not isinstance(doc.get("error"), str)
                             or not doc.get("error")):
        errors.append(f"a {status} run must name its error")
    counters = doc["counters"]
    comm_cycles = counters.get("comm_cycles")
    if not isinstance(comm_cycles, int):
        errors.append("counters.comm_cycles must be an integer")
        comm_cycles = None
    elif status == "ok" and comm_cycles <= 0:
        # A failed run legitimately dies before any counters are filled.
        errors.append("counters.comm_cycles must be positive on an ok run")
    elif status == "rejected" and comm_cycles != 0:
        errors.append("counters.comm_cycles must be 0 on a rejected run")

    # Critical-path attribution: per-track phase sums always equal the
    # track total, and — when the trace ring never wrapped — the profiled
    # tracks plus virtual (modeled, unexecuted) cycles reconcile exactly
    # against the simulator's own Counters.
    profile = doc.get("profile")
    reconciled_cycles = 0
    any_reconciled = False
    if isinstance(profile, dict):
        for track in profile.get("tracks", []):
            label = track.get("label", "?")
            phase_sum = sum(p.get("cycles", 0) for p in track.get("phases", []))
            if phase_sum != track.get("total_cycles"):
                errors.append(
                    f"track '{label}': phase cycles sum to {phase_sum}, "
                    f"total_cycles is {track.get('total_cycles')}")
            if track.get("reconciled"):
                any_reconciled = True
                reconciled_cycles += track.get("total_cycles", 0)
        if profile.get("dropped_events") == 0 and any_reconciled \
                and isinstance(comm_cycles, int):
            virtual = doc.get("virtual_counters")
            virtual_cycles = virtual.get("comm_cycles", 0) \
                if isinstance(virtual, dict) else 0
            if reconciled_cycles + virtual_cycles != comm_cycles:
                errors.append(
                    f"reconciliation failed: profiled tracks account for "
                    f"{reconciled_cycles} cycles + {virtual_cycles} virtual "
                    f"!= counters.comm_cycles {comm_cycles}")

    imbalance = doc.get("imbalance")
    if isinstance(imbalance, dict):
        if imbalance.get("band_min", 0) > imbalance.get("band_max", 0):
            errors.append("imbalance: band_min exceeds band_max")
        if imbalance.get("spread_max", 0) > imbalance.get("band_max", 0):
            errors.append("imbalance: spread_max exceeds band_max")
        if imbalance.get("spread_sum", 0) < imbalance.get("spread_max", 0):
            errors.append("imbalance: spread_sum below spread_max")

    flight = doc["flight_recorder"].get("events", [])
    last_ts = None
    for i, e in enumerate(flight):
        ts = e.get("ts")
        if not isinstance(ts, int):
            errors.append(f"flight event {i}: missing integer 'ts'")
            continue
        if last_ts is not None and ts <= last_ts:
            errors.append(f"flight event {i} ({e.get('name')}): ts {ts} not "
                          f"strictly increasing (previous {last_ts})")
        last_ts = ts

    if failed(path, errors):
        return 1
    tracks = len(profile.get("tracks", [])) if isinstance(profile, dict) else 0
    print(f"{path}: report OK (status={doc['status']}, "
          f"{comm_cycles} comm cycles, {tracks} profiled track(s), "
          f"{len(flight)} flight events)")
    return 0


FLIGHT_RECORDER_MAX_RATIO = 1.02


def check_flight_recorder_overhead(rows) -> list:
    """Always-on flight-recorder gate: the crash-buffer-attached
    BM_DualPrefixFlightRecorder/8 median must stay within
    FLIGHT_RECORDER_MAX_RATIO of the bare BM_DualPrefix/8 median. Skipped
    when either current row is absent (e.g. the CI smoke file)."""
    table = {}
    for row in rows:
        name = row.get("name", "")
        if "@" in name:
            continue
        if name in ("BM_DualPrefix/8_median",
                    "BM_DualPrefixFlightRecorder/8_median"):
            value = row.get("ns_per_op")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                table[name] = value
    bare = table.get("BM_DualPrefix/8_median")
    recorded = table.get("BM_DualPrefixFlightRecorder/8_median")
    if bare is None or recorded is None or bare <= 0:
        return []
    ratio = recorded / bare
    if ratio > FLIGHT_RECORDER_MAX_RATIO:
        return [
            f"BM_DualPrefixFlightRecorder/8: always-on flight recorder "
            f"costs {ratio:.3f}x the bare run (gate: <= "
            f"{FLIGHT_RECORDER_MAX_RATIO:.2f}x)"]
    print(f"flight-recorder overhead (n=8): {ratio:.3f}x the bare median")
    return []


def bench_validate(path: str) -> int:
    rows = load(path, non_empty_list, "a non-empty JSON array")
    if rows is None:
        return 1

    errors = check_schema(rows)
    names = [r.get("name", "") for r in rows if isinstance(r, dict)]
    has_trajectory = any("@" in n for n in names)
    if has_trajectory:
        errors += check_block_family(names)
        errors += check_shard_scaling(rows)
        errors += check_warm_cold(rows)
        errors += check_flight_recorder_overhead(rows)
        ratios = []
        errors += check_median_regressions(rows, ratios)
        report_family_ratios(ratios)

    if failed(path, errors, f" in {len(rows)} rows"):
        return 1
    suffix = " (trajectory gates active)" if has_trajectory else ""
    print(f"{path}: {len(rows)} rows OK{suffix}")
    return 0


# Subcommand -> (validator, argument name in its usage line).
SUBCOMMANDS = {
    "trace-validate": (trace_validate, "TRACE.json"),
    "fault-sweep": (fault_sweep_validate, "SWEEP.json"),
    "pipeline-fusion": (pipeline_fusion_validate, "TABLE.json"),
    "report-validate": (report_validate, "REPORT.json"),
}


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] in SUBCOMMANDS:
        validate, arg = SUBCOMMANDS[sys.argv[1]]
        if len(sys.argv) != 3:
            print(f"usage: check_bench_json.py {sys.argv[1]} {arg}",
                  file=sys.stderr)
            return 2
        return validate(sys.argv[2])
    return bench_validate(sys.argv[1] if len(sys.argv) > 1 else
                          "BENCH_sim.json")


if __name__ == "__main__":
    sys.exit(main())
