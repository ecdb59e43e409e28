#!/usr/bin/env python3
"""Compare perfbench trace files span by span.

    python3 tools/trace_diff.py --parent trace-a.jsonl [...] --change trace-b.jsonl [...]

Each side takes one or more `trace-<workload>-<seed>.jsonl` files written by
`python3 perfbench/run.py --trace 1`, typically one per seed. For every span
name the script prints, per side, the median over that side's files of:

  mean_ms   mean wall time per call;
  share     the span's total time over the total time of the jobs: the root
            spans that have children (`synth.job`, `serve.request`), or
            every span in a trace without nesting (`stream`);
  top10     the part of the span's total spent in its slowest 10% of calls.

A span is flagged (`*`) only when a change value lies outside the parent's
spread across files, that is below the parent's minimum or above its maximum,
or when it exists on one side only. With one parent file that spread is a
single point, so pass several seeds per side to tell a change from noise.

Exit status: 0 when nothing is flagged, 1 when something is, 2 on unreadable
or mismatched input. Uses only the Python standard library.
"""
import argparse
import json
import math
import statistics
import sys

METRICS = ("mean_ms", "share", "top10")


def fail(message):
    print("trace_diff: " + message, file=sys.stderr)
    sys.exit(2)


def read_trace(path):
    """Returns (workload, {span name: [durations ns]}, job ns)."""
    workload = None
    spans = []
    try:
        with open(path, encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if "provenance" in record:
                        workload = record["provenance"]["workload"]
                    elif "name" in record:
                        spans.append((record["name"], int(record["end_ns"]) - int(record["start_ns"]),
                                      int(record["parent"])))
                except (ValueError, KeyError, TypeError) as e:
                    fail("%s:%d: not a trace record (%s)" % (path, number, e))
    except OSError as e:
        fail(str(e))
    if workload is None:
        fail("%s: no provenance line" % path)
    if not spans:
        fail("%s: no spans" % path)

    has_children = set(parent for _, _, parent in spans if parent >= 0)
    job_ns = sum(ns for index, (_, ns, parent) in enumerate(spans)
                 if parent < 0 and (index in has_children or not has_children))
    if job_ns <= 0:
        fail("%s: no time in job spans" % path)
    by_name = {}
    for name, ns, _ in spans:
        by_name.setdefault(name, []).append(ns)
    return workload, by_name, job_ns


def span_metrics(durations, job_ns):
    total = sum(durations)
    slowest = sorted(durations, reverse=True)[:max(1, math.ceil(len(durations) / 10))]
    return {
        "mean_ms": total / len(durations) / 1e6,
        "share": total / job_ns,
        "top10": sum(slowest) / total if total > 0 else 0.0,
    }


def load_side(paths):
    """Per span name and metric, the list of per-file values."""
    workloads = set()
    spans = {}
    for path in paths:
        workload, by_name, job_ns = read_trace(path)
        workloads.add(workload)
        for name, durations in by_name.items():
            for metric, value in span_metrics(durations, job_ns).items():
                spans.setdefault(name, {}).setdefault(metric, []).append(value)
    return workloads, spans


def outside(parent_values, change_values):
    change = statistics.median(change_values)
    return change < min(parent_values) or change > max(parent_values)


def fmt(metric, value):
    if value is None:
        return "-"
    return "%.4f" % value if metric == "mean_ms" else "%.1f%%" % (100 * value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True, help="trace files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="trace files of the change")
    args = ap.parse_args()

    parent_workloads, parent_spans = load_side(args.parent)
    change_workloads, change_spans = load_side(args.change)
    workloads = parent_workloads | change_workloads
    if len(workloads) != 1:
        fail("files mix workloads: " + ", ".join(sorted(workloads)))

    flagged = 0
    header = "%-26s" % "span" + "".join(
        "%14s %14s  " % ("parent " + m, "change " + m) for m in METRICS)
    print("workload %s: %d parent file(s), %d change file(s); medians over files, "
          "* = outside the parent's spread" % (workloads.pop(), len(args.parent),
                                               len(args.change)))
    print(header)
    for name in sorted(set(parent_spans) | set(change_spans)):
        p = parent_spans.get(name)
        c = change_spans.get(name)
        row = "%-26s" % name
        for metric in METRICS:
            pv = statistics.median(p[metric]) if p else None
            cv = statistics.median(c[metric]) if c else None
            mark = "*" if p is None or c is None or outside(p[metric], c[metric]) else " "
            flagged += mark == "*"
            row += "%14s %13s%s  " % (fmt(metric, pv), fmt(metric, cv), mark)
        print(row.rstrip())

    print("flagged: %d" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
