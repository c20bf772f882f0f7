#!/usr/bin/env python3
"""Steadiness and A/B tool for the benchmark.

    # k runs of one workload; seeds seed, seed+step, ... (step 0 = same seed)
    python3 perfbench/abtool.py run --workload fleet-small --seed 1 --k 10 \
        --seed-step 1 --out a.json
    # median, quartiles and spread of every metric of a result set
    python3 perfbench/abtool.py summary a.json
    # compare two result sets of one workload against BENCHMARK.json's bounds
    python3 perfbench/abtool.py compare a.json b.json

Run from the root of a checkout. `compare` applies the acceptance rule: the
spread (interquartile distance over the median) of each end-to-end metric,
setup_s included, must stay within its bound in both sets, and B's median
may not be worse than A's by more than the bound. It exits 1 when a metric
fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(args):
    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for i in range(args.k):
        seed = args.seed + i * args.seed_step
        cmd = ["python3", os.path.join(BENCH_DIR, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = [l for l in r.stdout.splitlines() if l.strip()]
        result = json.loads(lines[-1]) if lines else None
        runs.append({"seed": seed, "exit": r.returncode, "result": result})
        print(f"run {i + 1}/{args.k} seed {seed} exit {r.returncode}",
              file=sys.stderr)
    out = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
           "runs": runs}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    summarize(out)


def metric_values(result_set):
    values = {}
    for run in result_set["runs"]:
        if run["result"] is None:
            continue
        for name, m in run["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def summarize(result_set):
    failed = [r for r in result_set["runs"]
              if r["exit"] != 0 or r["result"] is None
              or not r["result"]["correct"]]
    print(f"{result_set['workload']}: {len(result_set['runs'])} runs, "
          f"{len(failed)} failed or incorrect")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in metric_values(result_set).items():
        med, q1, q3, spread = stats(vals)
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")


def compare(args):
    bench = load_benchmark()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    va, vb = metric_values(a), metric_values(b)
    ok = True
    print(f"{'metric':24} {'median A':>12} {'median B':>12} {'change':>8} "
          f"{'spread A':>8} {'spread B':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        if name not in va or name not in vb:
            print(f"{name:24} missing")
            ok = False
            continue
        ma, _, _, sa = stats(va[name])
        mb, _, _, sb = stats(vb[name])
        worse = (mb - ma) / abs(ma) if ma else float("inf")
        if m["better"] == "higher":
            worse = -worse
        verdicts = []
        if worse > bound:
            verdicts.append("worse")
        if sa > bound or sb > bound:
            verdicts.append("unsteady")
        ok = ok and not verdicts
        print(f"{name:24} {ma:12.6g} {mb:12.6g} {-worse if m['better'] == 'higher' else worse:+8.3f} "
              f"{sa:8.4f} {sb:8.4f} {bound:6.2f}  {'/'.join(verdicts) or 'ok'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description="benchmark steadiness and A/B")
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seed-step", type=int, default=0)
    r.add_argument("--k", type=int, default=10)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "run":
        run_set(args)
    elif args.cmd == "summary":
        with open(args.set) as f:
            summarize(json.load(f))
    else:
        sys.exit(compare(args))


if __name__ == "__main__":
    main()
