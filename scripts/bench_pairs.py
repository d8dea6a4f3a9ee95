#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as a BENCH_*.json record.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload NAME --seeds 4401-4410 --out BENCH_x.json \\
        [--parent-label TEXT] [--change-label TEXT] [--protocol TEXT] \\
        [--other NOTE] [--trace-seed N [--trace-note TEXT]]

For each seed, `perfbench/run.py --workload NAME --seed SEED --seconds S
--trace 0` runs once in each checkout (one process per run, from the
checkout's root), with S the run_seconds of the changed checkout's
BENCHMARK.json, and the two alternate which runs first: the parent at
the first seed, the change at the second, and so on.  The record holds
every pair and, per end-to-end metric of BENCHMARK.json, the parent's and
the change's quartiles [q1, median, q3] (inclusive method), the pairs in
which the change reads lower, and the median change relative to the
parent's median.  Its "machine" is what run.py wrote for the changed
checkout's last run (perfbench/results/), BLAS thread count included.

Without --other the workload is the record's own (a new file, or the top
level of an existing one is replaced); with --other NOTE its summary and
pairs go under "other_workloads" of the existing --out file, with NOTE.
--trace-seed N adds one traced run per checkout (`--trace 1`, 5 seconds)
as "per_layer", with --trace-note as its note.  No metric is computed here beyond those statistics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    p.add_argument("--out", required=True)
    p.add_argument("--parent-label", default="parent")
    p.add_argument("--change-label", default="change")
    p.add_argument("--protocol", default="")
    p.add_argument("--other", default=None)
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--trace-note", default="one traced run per checkout")
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    args.seeds = list(range(int(first), int(last or first) + 1))
    return args


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark process in `tree`; its last stdout line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} failed in {tree}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def flat(result):
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out.update({n: m["value"] for n, m in result["metrics"].items()})
    return out


def summarize(pairs, metrics):
    """Quartiles, pairs won by the change and the median change, per metric
    (every metric here is better lower)."""
    summary = {}
    for name in metrics:
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        q = [statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
             else [xs[0]] * 3 for xs in (par, chg)]
        summary[name] = {
            "parent_quartiles": [round(v, 4) for v in q[0]],
            "change_quartiles": [round(v, 4) for v in q[1]],
            "change_better_pairs": sum(c < p for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "median_change_rel": round(statistics.median(chg) / statistics.median(par)
                                       - 1.0, 4),
        }
    return summary


def machine(tree, workload, seed):
    """The machine block run.py wrote for its run of `workload` at `seed`
    in `tree`."""
    path = os.path.join(tree, "perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)["machine"]


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = flat(run_once(trees[side], args.workload, seed,
                                       seconds, 0))
        pairs.append({k: pair[k] for k in ("seed", "first", "parent", "change")})
        print(f"seed {seed}: run_s parent {pair['parent']['run_s']:.4f} "
              f"change {pair['change']['run_s']:.4f}", file=sys.stderr)
    block = {"summary": summarize(pairs, metrics), "pairs": pairs}

    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    if args.other is not None:
        others = record.setdefault("other_workloads", {})
        others["note"] = args.other
        others[args.workload] = block
    else:
        command = (f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed SEED --seconds {seconds:g} --trace 0")
        record.update({"workload": args.workload, "command": command,
                       "protocol": args.protocol, "parent": args.parent_label,
                       "change": args.change_label,
                       "machine": machine(trees["change"], args.workload,
                                          args.seeds[-1])})
        record.update(block)
    if args.trace_seed is not None:
        record["per_layer"] = {
            "command": (f"python3 perfbench/run.py --workload {args.workload} "
                        f"--seed {args.trace_seed} --seconds 5 --trace 1"),
            "note": args.trace_note,
            **{side: {n: round(m["value"], 4) for n, m in run_once(
                tree, args.workload, args.trace_seed, 5, 1)["metrics"].items()}
               for side, tree in trees.items()}}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
