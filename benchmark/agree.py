#!/usr/bin/env python3
"""Checks that two sets of dcbench result files agree.

    python3 benchmark/agree.py --a RUN... --b RUN...

A RUN is a file holding the saved stdout of one untraced run
(benchmark/run.py ... --trace 0), or a directory whose *.txt files are such
runs. For every
workload and every end-to-end metric in BENCHMARK.json it prints each set's
median, quartiles and spread (IQR / median), and the ratio of the medians.
It fails when two medians differ by more than the metric's bound, and when a
file lacks a metric, the metric's unit or its sample count, or reports a
failed op. Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path, end_to_end, problems):
    """Returns (workload, {metric: value}) for one result file."""
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    report = next((json.loads(l)["dcbench"] for l in lines
                   if l.startswith('{"dcbench"')), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{path}: last line is not a result object")
        return None, {}
    if report is None:
        problems.append(f"{path}: no dcbench report line")
        return None, {}
    if not result.get("correct") or result.get("failed", 1) != 0:
        problems.append(f"{path}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    values = {}
    samples = report.get("samples", {})
    for name, unit in end_to_end.items():
        m = result.get("metrics", {}).get(name)
        if m is None:
            problems.append(f"{path}: metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"{path}: {name} has unit {m.get('unit')}, "
                            f"expected {unit}")
        elif not samples.get(name):
            problems.append(f"{path}: {name} has no sample count")
        else:
            values[name] = m["value"]
    return report["workload"], values


def load_set(args, end_to_end, problems):
    files = []
    for a in args:
        p = Path(a)
        files += sorted(p.glob("*.txt")) if p.is_dir() else [p]
    runs = {}
    for f in files:
        workload, values = load_run(f, end_to_end, problems)
        if workload:
            for name, v in values.items():
                runs.setdefault(workload, {}).setdefault(name, []).append(v)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="first set")
    ap.add_argument("--b", nargs="+", required=True, help="second set")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    a = load_set(args.a, end_to_end, problems)
    b = load_set(args.b, end_to_end, problems)

    print(f"{'workload':24} {'metric':12} {'n':>5} {'median A':>12} "
          f"{'q1..q3 A':>23} {'sprd A':>7} {'median B':>12} {'sprd B':>7} "
          f"{'B/A':>6} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for metric in end_to_end:
            va = a.get(name, {}).get(metric, [])
            vb = b.get(name, {}).get(metric, [])
            if not va or not vb:
                problems.append(f"{name}/{metric}: no runs in "
                                f"{'A' if not va else 'B'}")
                continue
            q1a, ma, q3a = quartiles(va)
            q1b, mb, q3b = quartiles(vb)
            ratio = mb / ma
            ok = abs(ratio - 1) <= bounds[metric]
            if not ok:
                problems.append(f"{name}/{metric}: medians differ by "
                                f"{abs(ratio - 1):.1%}, bound {bounds[metric]:.0%}")
            print(f"{name:24} {metric:12} {len(va):>2}/{len(vb):<2} {ma:>12.5g} "
                  f"{q1a:>11.5g}..{q3a:<11.5g} {(q3a - q1a) / ma:>7.1%} "
                  f"{mb:>12.5g} {(q3b - q1b) / mb:>7.1%} {ratio:>6.3f} "
                  f"{bounds[metric]:>6.0%}  {'ok' if ok else 'DIFFER'}")
    for p in problems:
        print(f"FAIL {p}")
    print("agree: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
