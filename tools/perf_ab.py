#!/usr/bin/env python3
"""Compare perfbench between a parent revision and the working tree.

    python3 tools/perf_ab.py --parent REV [--json PATH]

Run from anywhere inside the repository. BENCHMARK.json supplies the
command, the run length (run_seconds), the workloads and each end-to-end
metric's direction and regression bound. The parent is extracted with
`git archive REV | tar -x` into a temporary directory; the change is the
working tree. Each side runs its own perfbench/run.py from its own root,
with CARGO_TARGET_DIR pointing at a temporary directory, so nothing is
written inside the repository. One pair of runs is made per
(workload, seed) over the fixed SEEDS, and the side that goes first
alternates from seed to seed.

For every (workload, metric) the report gives each side's median and
quartiles, the change/parent median ratio, the pairs the change won (ties
count for neither) and a verdict:
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  differs     otherwise, for a metric in SAME_PER_SEED, when any seed's
              value differs between the sides;
  unresolved  otherwise, when the parent's interquartile range exceeds
              bound x its median and not every change run beats every
              parent run;
  ok          otherwise.
It also reports, per side, whether every run was correct and the share of
failed operations. The exit status is 1 on any `worse` or `differs`, any
incorrect run, or a larger failed share in the change; 0 otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
# Ten alternating pairs at least, plus one far-off seed.
SEEDS = list(range(1, 11)) + [8191]
# Deterministic for a given seed: a change that moves them changes what is
# solved or stored, not how fast.
SAME_PER_SEED = ("iters_to_converge", "steps_executed",
                 "stored_bytes_per_ckpt")


def extract(root, rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit("perf_ab: could not extract %s" % rev)


def run_once(bench, side_root, build_dir, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=side_root, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return {
        "returncode": proc.returncode,
        "correct": proc.returncode == 0 and result.get("correct") is True,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": result.get("metrics", {}),
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(metric, parent, change):
    """Summary of one metric on one workload; `parent` and `change` are the
    per-pair values (None where a run did not report the metric)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    beats = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    out = {"metric": metric["name"], "bound": bound, "better": metric["better"]}
    if not p or not c:
        out["verdict"] = "n/a"
        return out
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    out.update({
        "parent_median": p_med, "parent_quartiles": (p_q1, p_q3),
        "change_median": c_med, "change_quartiles": quartiles(c),
        "ratio": c_med / p_med if p_med else (1.0 if c_med == p_med else None),
        "pairs": sum(1 for a, b in zip(parent, change)
                     if a is not None and b is not None),
        "change_won": sum(1 for a, b in zip(parent, change)
                          if a is not None and b is not None and beats(b, a)),
    })
    limit = p_med * (1 + bound) if lower else p_med * (1 - bound)
    if beats(limit, c_med):
        out["verdict"] = "worse"
    elif metric["name"] in SAME_PER_SEED and parent != change:
        out["verdict"] = "differs"
    elif p_q3 - p_q1 > bound * p_med and not all(beats(b, a)
                                                 for a in p for b in c):
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "ok"
    return out


def summarize(bench, workloads, runs):
    """Per-side correctness and failed shares, and one compare() row per
    (workload, end-to-end metric). The second value is True when the change
    fails: a `worse` or `differs` verdict, an incorrect run or a larger
    failed share."""
    summary = {"sides": [], "metrics": []}
    failing = False
    for workload in workloads:
        of = {s: [r for r in runs if r["workload"] == workload
                  and r["side"] == s] for s in SIDES}
        shares = {}
        for side in SIDES:
            attempted = sum(r["attempted"] for r in of[side])
            failed = sum(r["failed"] for r in of[side])
            correct = all(r["correct"] for r in of[side])
            shares[side] = failed / attempted if attempted else 1.0
            failing |= not correct
            summary["sides"].append({"workload": workload, "side": side,
                                     "all_correct": correct,
                                     "failed": failed, "attempted": attempted})
        failing |= shares["change"] > shares["parent"]
        for metric in bench["end_to_end"]:
            values = {s: [r["metrics"].get(metric["name"], {}).get("value")
                          for r in of[s]] for s in SIDES}
            row = compare(metric, values["parent"], values["change"])
            row["workload"] = workload
            failing |= row["verdict"] in ("worse", "differs")
            summary["metrics"].append(row)
    return summary, failing


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--json", help="write every run and the summary here")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parent_sha = subprocess.run(
        ["git", "-C", root, "rev-parse", "--verify", args.parent + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()

    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    runs = []
    try:
        roots = {"parent": os.path.join(tmp, "parent"), "change": root}
        extract(root, parent_sha, roots["parent"])
        for i, seed in enumerate(SEEDS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    sys.stderr.write("perf_ab: %s seed %d %s\n"
                                     % (workload, seed, side))
                    run = run_once(bench, roots[side],
                                   os.path.join(tmp, side + "-build"),
                                   workload, seed)
                    run.update({"side": side, "workload": workload,
                                "seed": seed, "first": order[0]})
                    runs.append(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary, failing = summarize(bench, workloads, runs)

    print("parent %s vs working tree; seeds %s; %s s per run"
          % (parent_sha[:12], SEEDS, bench["run_seconds"]))
    print("%-20s %-22s %-30s %-30s %6s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "ratio", "won", "verdict"))
    for row in summary["metrics"]:
        if row["verdict"] == "n/a":
            print("%-20s %-22s %s" % (row["workload"], row["metric"], "n/a"))
            continue
        cell = {s: "%.5g [%.5g, %.5g]" % ((row[s + "_median"],)
                                          + tuple(row[s + "_quartiles"]))
                for s in SIDES}
        ratio = "-" if row["ratio"] is None else "%.3f" % row["ratio"]
        print("%-20s %-22s %-30s %-30s %6s %2d/%-2d  %s" % (
            row["workload"], row["metric"], cell["parent"], cell["change"],
            ratio, row["change_won"], row["pairs"], row["verdict"]))
    for s in summary["sides"]:
        print("%-20s %-6s all correct: %-5s failed/attempted: %d/%d" % (
            s["workload"], s["side"], s["all_correct"], s["failed"],
            s["attempted"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"parent": parent_sha, "seeds": SEEDS,
                       "run_seconds": bench["run_seconds"], "runs": runs,
                       "summary": summary}, f, indent=1)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
