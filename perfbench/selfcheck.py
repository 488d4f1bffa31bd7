"""Checks of the benchmark itself: run-to-run spread and seed determinism.

    python3 perfbench/selfcheck.py spread [--workloads a,b] [--seeds 10] [--seconds 10]
    python3 perfbench/selfcheck.py determinism [--workloads a,b] [--seconds 5]

``spread`` runs each workload once per seed (``--seeds`` consecutive seeds
from ``--first-seed``) and prints, per end-to-end metric, the distance
between the first and third quartile as a share of the median, for the
calibrated value that BENCHMARK.json reports and for raw wall time.

``determinism`` makes two traced runs with one seed and one with the next
seed: every per-layer count must repeat exactly across the first two, and
the input fingerprint must repeat for the same seed and change for the
other one.  Exit status 1 when it does not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its table, fingerprint and result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    table, fingerprint, in_table, wall = {}, None, False, None
    for line in lines[:-1]:
        if line.startswith("perfbench "):
            fingerprint = line.rsplit("inputs=", 1)[1]
        elif line.startswith("metric"):
            in_table = True
        elif line.startswith("verify:"):
            in_table = False
            wall = float(line.rsplit("wall_s=", 1)[1])
        elif in_table:
            parts = line.split()
            values = [float(v) for v in parts[1:-2]]
            table[parts[0]] = (values[0], values[1] if len(values) > 1 else None)
    return {"table": table, "inputs": fingerprint, "wall_s": wall,
            "result": json.loads(lines[-1])}


def quartile_spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def spread(args) -> int:
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}, "
              f"all correct={all(r['result']['correct'] for r in runs)}, "
              f"mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s")
        for name in sorted(set.intersection(*(set(r["table"]) for r in runs))):
            value, raw = zip(*(r["table"][name] for r in runs))
            raw_text = "" if None in raw else f"  raw {quartile_spread(raw):.4f}"
            print(f"  {name:<12} median {statistics.median(value):<11.6g} spread "
                  f"calibrated {quartile_spread(value):.4f}{raw_text}")
            print("    values " + " ".join(f"{v:.4g}" for v in value))
        sys.stdout.flush()
    return 0


def determinism(args) -> int:
    from layers import COUNTS

    ok = True
    for workload in args.workloads:
        a = run(workload, args.first_seed, args.seconds, 1)
        b = run(workload, args.first_seed, args.seconds, 1)
        c = run(workload, args.first_seed + 1, args.seconds, 1)
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        differ = [k for k in COUNTS if ma[k]["value"] != mb[k]["value"]]
        same_inputs = a["inputs"] == b["inputs"]
        new_inputs = a["inputs"] != c["inputs"]
        good = not differ and same_inputs and new_inputs
        ok &= good
        print(f"{workload}: counts repeat={not differ} {differ or ''} "
              f"same seed same inputs={same_inputs} "
              f"other seed other inputs={new_inputs}")
        sys.stdout.flush()
    return 0 if ok else 1


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("check", choices=("spread", "determinism"))
    p.add_argument("--workloads", default=",".join(names),
                   type=lambda s: s.split(","))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args(argv)
    return spread(args) if args.check == "spread" else determinism(args)


if __name__ == "__main__":
    sys.exit(main())
