#!/usr/bin/env python3
"""Compares two sets of pc_bench_e2e runs: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR \\
        [--benchmark BENCHMARK.json] [--claim WORKLOAD:METRIC ...]

Each directory holds the <workload>.json files that `pc_bench_e2e --out`
writes, one set per run, in any layout below it (for example run1/, run2/,
...). A parent run and a change run of a workload are paired when they
used the same seed, so both served the same inputs; each seed may appear
once per side and workload. Alternate which side runs first when producing
them. A pair is left out when one side has no run for its seed, or when
the benchmark marked either run invalid (a timing check failed: the host,
not the program, was disturbed).

For every workload and end-to-end metric in BENCHMARK.json it prints both
sides' medians and quartiles and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  not regressed, but the parent's own spread (interquartile
              range over median) is wider than the bound, and not every
              change run reads better than every parent run;
  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side, and at least 10 pairs are needed) and the
              medians differ by more than the parent's interquartile range;
  unchanged   otherwise.

A --claim is met only when its metric is improved and no more requests
failed than at the parent. Exit status: 1 on any regression or any rise in
the share of failed requests, 2 on bad input, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {seed: result}}; raises ValueError on a repeated seed."""
    runs = {}
    paths = []
    for root, _, files in os.walk(directory):
        paths += [os.path.join(root, f) for f in files if f.endswith(".json")]
    for path in sorted(paths):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        if not (isinstance(doc, dict) and "workload" in doc
                and "metrics" in doc and "seed" in doc):
            continue
        by_seed = runs.setdefault(doc["workload"], {})
        if doc["seed"] in by_seed:
            raise ValueError("%s: seed %s of %s appears twice" %
                             (directory, doc["seed"], doc["workload"]))
        by_seed[doc["seed"]] = doc
    return runs


def pair_runs(parent, change):
    """(parent, change) results of the seeds both sides ran validly, in seed
    order, and the number of seeds left out."""
    pairs, left_out = [], 0
    for seed in sorted(set(parent) | set(change)):
        p, c = parent.get(seed), change.get(seed)
        if p and c and p.get("valid", True) and c.get("valid", True):
            pairs.append((p, c))
        else:
            left_out += 1
    return pairs, left_out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """`parent[i]` and `change[i]` are the two sides' values at one seed."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    worse_share = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if worse_share > bound:
        return "regressed"
    all_better = all(better(c, p) for c in change for p in parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    return "unchanged"


def fail_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    try:
        parent, change = load_runs(args.parent), load_runs(args.change)
    except ValueError as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2
    if not parent or not change:
        print("compare.py: no pc_bench_e2e results under %s" %
              (args.parent if not parent else args.change), file=sys.stderr)
        return 2

    verdicts = {}
    failing = False
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in parent or w not in change:
            print("%s: missing on %s" % (w, "parent" if w not in parent
                                         else "change"))
            continue
        p_fail = fail_share(parent[w].values())
        c_fail = fail_share(change[w].values())
        pairs, left_out = pair_runs(parent[w], change[w])
        print("\n%s: %d seed pairs (left out, unmatched or invalid: %d); "
              "failed share %.4g -> %.4g" %
              (w, len(pairs), left_out, p_fail, c_fail))
        if c_fail > p_fail:
            print("  REGRESSION: more requests failed than at the parent")
            failing = True
        print("  %-26s %12s %25s %12s %25s  %s" %
              ("metric", "parent p50", "parent q1..q3", "change p50",
               "change q1..q3", "verdict"))
        for m in bench["end_to_end"]:
            name = m["name"]
            both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]]
            pv = [p for p, _ in both]
            cv = [c for _, c in both]
            if not both:
                print("  %-26s missing" % name)
                continue
            v = verdict(m, pv, cv)
            verdicts[(w, name)] = (v, c_fail <= p_fail)
            failing |= v == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            print("  %-26s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g  %s %s"
                  % (name, statistics.median(pv), pq[0], pq[1],
                     statistics.median(cv), cq[0], cq[1], v, m["unit"]))

    for claim in args.claim:
        w, _, name = claim.partition(":")
        v, no_more_failures = verdicts.get((w, name), ("missing", False))
        met = v == "improved" and no_more_failures
        print("claim %s: %s (%s)" % (claim, "met" if met else "NOT met", v))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
