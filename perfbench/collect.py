"""Run the benchmark over several seeds and write a result file.

    python3 perfbench/collect.py --out mine.json
    python3 perfbench/collect.py --out change.json --parent ../parent --parent-out parent.json

Runs the command of BENCHMARK.json once per (seed, workload) with tracing
off, rotating the workload order from seed to seed, then ``--trace-seeds``
traced runs per workload. The file holds BENCHMARK.json, the environment,
a session id, the seeds and every run's result; it is rewritten after each
run. At the end the spread of every end-to-end metric (interquartile range
over median, as the regression check computes it) is printed next to its
bound.

With ``--parent``, a checkout of the parent commit whose benchmark files are
identical to this one's, every run is made twice, once in each checkout,
back to back, alternating which side goes first from seed to seed. The two
files share one session id; compare.py gives verdicts only for such a pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import uuid

import compare
import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)
RUN_TIMEOUT_S = 900


def run_once(bench, root, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def src_clean(root):
    proc = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                          capture_output=True, text=True)
    return proc.returncode == 0 and proc.stdout.strip() == ""


def bench_digest(root):
    """Hash of BENCHMARK.json and the benchmark's code, results and outputs aside."""
    digest = hashlib.sha256()
    files = ["BENCHMARK.json"] + sorted(
        os.path.join(BENCH_DIR, name) for name in os.listdir(os.path.join(root, BENCH_DIR))
        if name.endswith(".py")
    )
    for rel in files:
        with open(os.path.join(root, rel), "rb") as handle:
            digest.update(rel.encode() + b"\0" + handle.read() + b"\0")
    return digest.hexdigest()


def record_for(root, bench, session, side, seeds):
    env = envinfo.environment(root)
    env["src_clean"] = src_clean(root)
    return {"benchmark": bench, "environment": env, "session": session, "side": side,
            "seeds": seeds, "runs": []}


def print_spreads(label, record, bench, workloads):
    values = compare.samples(record)
    for m in bench["end_to_end"]:
        for workload in workloads:
            vals = list(values.get((workload, m["name"]), {}).values())
            if not vals:
                continue
            q1, med, q3 = compare.quartiles(vals)
            share = compare.spread(vals)
            flag = "ok" if share < m["bound"] / 3 else ("WIDE" if share > m["bound"] else "near")
            print(f"{label:<7} {workload:<20} {m['name']:<14} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:6.1%} "
                  f"bound {m['bound']:.0%}  {flag}")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-seeds", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--parent", help="root of a checkout of the parent commit")
    parser.add_argument("--parent-out", help="result file of the parent (with --parent)")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    unknown = set(chosen) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if bool(args.parent) != bool(args.parent_out):
        parser.error("--parent and --parent-out go together")
    if args.parent and bench_digest(args.parent) != bench_digest(ROOT):
        parser.error(f"the benchmark files in {args.parent} differ from those in {ROOT}")

    session = uuid.uuid4().hex
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    sides = [("change", ROOT, args.out)]
    if args.parent:
        sides.insert(0, ("parent", os.path.abspath(args.parent), args.parent_out))
    records = {side: record_for(root, bench, session, side, seeds) for side, root, _ in sides}
    plan = []
    for i, seed in enumerate(seeds):
        turn = i % len(chosen)
        plan += [(w, seed, 0, i) for w in chosen[turn:] + chosen[:turn]]
    plan += [(w, seed, 1, i) for i, seed in enumerate(seeds[:args.trace_seeds]) for w in chosen]
    for workload, seed, trace, i in plan:
        turn = i % len(sides)
        for side, root, out in sides[turn:] + sides[:turn]:
            result, wall = run_once(bench, root, workload, seed, trace)
            records[side]["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                                          "wall_s": wall, "result": result})
            print(f"{side} {workload} seed {seed} trace {trace}: {wall:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(records[side], handle, indent=1)
                handle.write("\n")

    for side, _, _ in sides:
        print_spreads(side, records[side], bench, chosen)
    return 0


if __name__ == "__main__":
    sys.exit(main())
