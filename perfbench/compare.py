"""Compare the two result files of one interleaved collect.py session.

    python3 perfbench/collect.py --out change.json --parent ../parent --parent-out parent.json
    python3 perfbench/compare.py parent.json change.json

For every (workload, metric) present in both files it prints each side's
median and quartiles, the change of B against A, and a verdict. A pair is
the two runs of one (workload, seed, trace) setting, made back to back.

better      at least 10 pairs; B's median beats A's by more than A's own
            spread (interquartile range over median) and B wins at least 9 in
            10 pairs, ties counting for neither;
worse       at least 10 pairs; an end-to-end metric whose median got worse
            by more than its bound in BENCHMARK.json, or a per-layer metric
            that loses by the rule for better with the sides swapped;
same        every run on both sides read exactly the same (exact counters);
unresolved  anything else;
unpaired    the files come from different sessions (for example the committed
            baseline and a new run): the host drifts between sessions by more
            than the bounds, so no verdict is given.

Exit code 1 when any end-to-end metric is worse, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile range as a share of the median (inf for a zero median)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q1 == q3 == 0 else math.inf
    return (q3 - q1) / abs(med)


def samples(result_file):
    """{(workload, metric): {seed: value}} over every run in a result file."""
    out = {}
    for run in result_file["runs"]:
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def verdict(a, b, better, bound, paired):
    """Verdict and relative gain of B over A; a and b map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    va, vb = list(a.values()), list(b.values())
    med_a, med_b = statistics.median(va), statistics.median(vb)
    gain = sign * (med_b - med_a) / abs(med_a) if med_a else sign * math.copysign(math.inf, med_b)
    if len(set(va) | set(vb)) == 1:
        return "same", 0.0
    if not paired:
        return "unpaired", gain
    pairs = [(a[seed], b[seed]) for seed in a.keys() & b.keys()]
    if len(pairs) < MIN_PAIRS:
        return "unresolved", gain
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / (wins + losses) if wins + losses else 0.5
    noise = spread(va)
    if gain > noise and share >= WIN_SHARE:
        return "better", gain
    if bound is not None:
        return ("worse" if -gain > bound else "unresolved"), gain
    if -gain > noise and 1.0 - share >= WIN_SHARE:
        return "worse", gain
    return "unresolved", gain


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result file of the parent (reference)")
    parser.add_argument("b", help="result file of the change")
    args = parser.parse_args(argv)
    files = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    declared = {}
    for section in ("end_to_end", "per_layer"):
        for m in files[0]["benchmark"][section]:
            declared[m["name"]] = (section, m)
    sa, sb = samples(files[0]), samples(files[1])
    paired = files[0].get("session") is not None and files[0].get("session") == files[1].get(
        "session")
    print(f"A: {args.a} ({files[0]['environment']['git_commit']})")
    print(f"B: {args.b} ({files[1]['environment']['git_commit']})")
    if not paired:
        print("The files come from different sessions: medians and quartiles only. For "
              "verdicts, measure both sides in one session with collect.py --parent.")
    header = (f"{'workload':<20} {'metric':<38} {'A q1':>11} {'A median':>11} {'A q3':>11} "
              f"{'B q1':>11} {'B median':>11} {'B q3':>11} {'change':>8} {'bound':>6}  verdict")
    print(header)
    regressions = 0
    for key in sorted(set(sa) & set(sb), key=lambda k: (k[0], list(declared).index(k[1]))):
        workload, name = key
        section, m = declared[name]
        bound = m.get("bound") if section == "end_to_end" else None
        word, gain = verdict(sa[key], sb[key], m["better"], bound, paired)
        regressions += section == "end_to_end" and word == "worse"
        qa, qb = quartiles(list(sa[key].values())), quartiles(list(sb[key].values()))
        cells = " ".join(f"{v:>11.5g}" for v in qa + qb)
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<20} {name:<38} {cells} {gain:>+8.1%} {bound_text:>6}  {word}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
