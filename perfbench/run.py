"""Benchmark of the cavmag pipeline: one workload per run.

    python3 perfbench/run.py --workload point --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; cavmag is imported from ``src/``
there and nowhere else. Human-readable lines go first; the last line of
standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate traced run. Exit code 0 when a result was printed, 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Set-up is timed in fresh processes (interpreter start, imports, inputs,
# warm-up); the median of this many is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cavmag():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cavmag
    except ImportError as exc:
        die(f"cannot import cavmag from {src}: {exc}")
    if not os.path.abspath(cavmag.__file__).startswith(os.path.join(src, "cavmag") + os.sep):
        die(f"cavmag was imported from {cavmag.__file__}, not from {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: set up, print the ready time and exit")
    return parser.parse_args(argv)


def setup_seconds(args):
    """Wall time from spawning a fresh interpreter until it is ready to time."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        die(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None):
    args = parse_args(argv)
    import_cavmag()
    import checks
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        workloads.warm_up(args.workload, args.seed)
        print(time.monotonic())
        return 0
    if args.seconds <= 0:
        die("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    setups = [] if args.trace else [
        setup_seconds(args) for _ in range(SETUP_PROBES)
    ]
    workloads.warm_up(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    gate = workloads.Gate()
    values, notes = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), gate, OUT_DIR
    )
    failed_ratio = gate.failed / gate.attempted
    if args.trace:
        values["failed_ratio"] = failed_ratio
    else:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        die(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {notes[0]}")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for note in notes[1:]:
        print(note)
    print(f"failed {gate.failed} of {gate.attempted} points (ratio {failed_ratio:.6g})")
    for example in gate.examples:
        print(f"FAILED {example}")
    print(f"monogamy: {gate.below_monogamy} points with r_tau_min below "
          f"{checks.MONOGAMY_FLOOR:g} (worst {gate.worst_r_tau_min:.6g}); "
          "counted, not failed: a state property, see perfbench/checks.py")
    print("environment " + json.dumps(envinfo.environment(ROOT), sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
