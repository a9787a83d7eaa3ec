#!/usr/bin/env python3
"""Collects and compares result sets of the benchmark.

A result set is a JSON-lines file, one record per run:
    {"tree": ..., "workload": ..., "seed": ..., "trace": 0|1, "order": ...,
     "result": <the JSON line the benchmark printed>}

  run      Runs the benchmark in one or two source trees for every workload
           and seed, alternating which tree goes first in each pair, and
           appends the records to one set per tree.
             compare.py run --tree A --tree B --out-a a.jsonl --out-b b.jsonl \
                 --seeds 1-10 [--workloads w1,w2] [--trace]
  spread   Median, quartiles and quartile spread of every end-to-end metric
           of one set, against the metric's bound.
             compare.py spread a.jsonl
  compare  Parent (A) against change (B), paired by workload and seed, by
           the rule of choosing-metrics section 8: a gain needs B to win at
           least 9/10 of the pairs and the medians to differ by more than
           A's quartile spread; a metric whose spread exceeds its bound is
           "unresolved" unless every B run beats every A run; a regression
           is a B median worse than A's by more than the bound. Adds a
           per-layer table from the traced runs (--trace 1 records).
             compare.py compare a.jsonl b.jsonl

Bounds and directions come from BENCHMARK.json next to this directory.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree, workload, seed, trace):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def cmd_run(args):
    trees = args.tree
    outs = [args.out_a, args.out_b][:len(trees)]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in SPEC["workloads"]])
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in workloads:
            order = list(range(len(trees)))
            if i % 2 == 1:
                order.reverse()
            for pos, t in enumerate(order):
                result = run_one(trees[t], workload, seed, int(args.trace))
                rec = {"tree": trees[t], "workload": workload, "seed": seed,
                       "trace": int(args.trace), "order": pos,
                       "result": result}
                with open(outs[t], "a") as f:
                    f.write(json.dumps(rec) + "\n")
                ok = result is not None and result.get("correct")
                print(f"{trees[t]} {workload} seed={seed} "
                      f"{'ok' if ok else 'FAILED'}", flush=True)


def load(path, trace):
    """{workload: {seed: metrics}} of the set's correct runs."""
    out = {}
    for line in open(path):
        rec = json.loads(line)
        res = rec.get("result")
        if rec["trace"] != trace or not res or not res.get("correct"):
            continue
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        out.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(metric, base, change):
    """Share of the base median by which `change` is worse (negative: better)."""
    if base == 0:
        return 0.0
    gap = (change - base) / abs(base)
    return gap if metric["better"] == "lower" else -gap


def cmd_spread(args):
    data = load(args.set, 0)
    for workload, by_seed in data.items():
        print(f"{workload} ({len(by_seed)} runs)")
        for name, spec in E2E.items():
            vals = [m[name] for m in by_seed.values() if name in m]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s <= spec["bound"] else "  OVER BOUND"
            if s > spec["bound"] / 3 and not flag:
                flag = "  over a third of the bound"
            print(f"  {name:18} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {s:6.3f} bound {spec['bound']}"
                  f"{flag}")


def cmd_compare(args):
    a, b = load(args.a, 0), load(args.b, 0)
    for workload in sorted(set(a) & set(b)):
        seeds = sorted(set(a[workload]) & set(b[workload]))
        print(f"{workload}: {len(seeds)} pairs")
        for name, spec in E2E.items():
            va = [a[workload][s][name] for s in seeds]
            vb = [b[workload][s][name] for s in seeds]
            if not va:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sign = -1 if spec["better"] == "lower" else 1
            wins = sum(1 for x, y in zip(va, vb) if sign * (y - x) > 0)
            losses = sum(1 for x, y in zip(va, vb) if sign * (y - x) < 0)
            gap = worse_by(spec, qa[1], qb[1])
            base_iqr = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
            all_better = all(sign * (y - x) > 0 for x in va for y in vb)
            if wins >= 0.9 * len(seeds) and -gap > base_iqr:
                verdict = "gain"
            elif gap > spec["bound"]:
                verdict = "REGRESSION"
            elif max(spread(va), spread(vb)) > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"  {name:18} A {qa[1]:<12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  B {qb[1]:<12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  worse {gap:+.3f} wins {wins}/{len(seeds)}"
                  f" (losses {losses})  {verdict}")
    ta, tb = load(args.a, 1), load(args.b, 1)
    for workload in sorted(set(ta) & set(tb)):
        print(f"{workload} per-layer (traced runs; A median -> B median)")
        for name in LAYER:
            va = [m[name] for m in ta[workload].values() if name in m]
            vb = [m[name] for m in tb[workload].values() if name in m]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            rel = f"{(mb - ma) / abs(ma):+.3f}" if ma else "   n/a"
            print(f"  {name:32} {ma:<14.6g} -> {mb:<14.6g} {rel}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--tree", action="append", required=True,
                   help="source tree to run in (give one or two)")
    r.add_argument("--out-a", required=True)
    r.add_argument("--out-b")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    r.add_argument("--trace", action="store_true")
    s = sub.add_parser("spread")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "run" and len(args.tree) == 2 and not args.out_b:
        ap.error("two trees need --out-b")
    {"run": cmd_run, "spread": cmd_spread, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
