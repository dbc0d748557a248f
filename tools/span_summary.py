#!/usr/bin/env python3
"""Summarize the spans of a traced perfbench run.

    python3 tools/span_summary.py TRACE [NAME ...]

TRACE is the file a `perfbench/run.py ... --trace 1` run writes to
<build>/traces/<workload>-seed<n>.json. For every (span name, thread) the
table gives the count and the p50, p90 and sum of the span durations in
milliseconds. Thread 0 is the solve loop; other numbers are background
threads (the drain worker and its helper lanes, the tiered promoter) in the
order they first opened a span. Given NAMEs, only those spans are listed.
Timings cover every solve in the run, traced solves only.
"""

import argparse
import json
import sys


def percentile(values, q):
    """Inclusive-method quantile of sorted `values`, q in [0, 1]."""
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("names", nargs="*", help="span names to list (default: all)")
    args = ap.parse_args()
    with open(args.trace) as f:
        spans = json.load(f)["spans"]
    groups = {}
    for s in spans:
        if args.names and s["name"] not in args.names:
            continue
        ms = (s["end"] - s["start"]) * 1e3
        groups.setdefault((s["name"], s["thread"]), []).append(ms)
    if not groups:
        sys.exit("span_summary: no matching spans in %s" % args.trace)
    print("%-28s %6s %8s %10s %10s %12s"
          % ("span", "thread", "count", "p50_ms", "p90_ms", "sum_ms"))
    for (name, thread), ms in sorted(groups.items()):
        ms.sort()
        print("%-28s %6d %8d %10.4f %10.4f %12.3f"
              % (name, thread, len(ms), percentile(ms, 0.5),
                 percentile(ms, 0.9), sum(ms)))


if __name__ == "__main__":
    main()
