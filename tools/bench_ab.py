"""A/B benchmark: alternating runs of a reference revision and the working tree.

Exports a reference revision of this repository with `git archive` into a
temporary directory, then runs `perfbench/run.py --workload W` from it and
from the working tree in pairs, one run of each per pair, both on the pair's
seed (pair i on seed S + i).  The machine's speed drifts over minutes, so
the pairs alternate which side runs first.  Writes `BENCH_<W>.json` with
each pair's end-to-end metrics (those BENCHMARK.json lists), the median and
interquartile range of each side, the change of the tree's median against
the reference's, the pairs in which the tree was better, and the
environment line of the tree's runs.  Each pair also records each side's
core use: the run's CPU seconds, wall seconds and their ratio, which tells
a run whose threads shared the cores from one that had a single core.

    python tools/bench_ab.py --workload check [--pairs 10] [--seconds 10] [--seed 1] \
        [--rev HEAD]

Exits 1 if any run fails or reports an incorrect result.  Nothing is written
to `.git` and nothing is fetched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from artifact_oracle import REPO, export


def run(root: str, workload: str, seconds: float, seed: int) -> tuple[dict, dict, dict]:
    """(metrics, environment, core use) of one perfbench run of the checkout at
    root.  Core use is the run's CPU seconds (user and system, its threads
    summed), its wall seconds and their ratio: about 1 for a run that had one
    core, well above 1 for one whose threads ran on several at once."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_ab: run in {root} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench_ab: run in {root} is not correct: {lines[-2]}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return (metrics, json.loads(lines[0])["environment"],
            {"cpu_s": cpu, "wall_s": wall, "cpu_per_wall": cpu / wall})


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds of operations per run (default: 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench seed of the first pair (default: 1)")
    parser.add_argument("--rev", default="HEAD",
                        help="reference revision to export (default: HEAD)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for an interquartile range")
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", args.rev], cwd=REPO, check=True,
                         capture_output=True, text=True).stdout.strip()

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        export(args.rev, tmp)
        for i in range(args.pairs):
            sides = ("reference", "tree") if i % 2 == 0 else ("tree", "reference")
            pair = {"seed": args.seed + i, "first": sides[0], "core_use": {}}
            for side in sides:
                pair[side], env, pair["core_use"][side] = run(
                    tmp if side == "reference" else REPO, args.workload, args.seconds,
                    args.seed + i)
                if side == "tree":
                    environment = env
            pairs.append(pair)
            print(json.dumps({"pair": i, **pair}), flush=True)

    summary = {}
    for name, direction in better.items():
        ref = [p["reference"][name] for p in pairs]
        new = [p["tree"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        summary[name] = {
            "better": direction,
            "reference": spread(ref),
            "tree": spread(new),
            "median_change": statistics.median(new) / statistics.median(ref) - 1.0,
            "pairs_better": sum(sign * (b - a) > 0 for a, b in zip(ref, new)),
        }
    out = os.path.join(REPO, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "reference_rev": rev,
                   "seconds_per_run": args.seconds, "environment": environment,
                   "pairs": pairs, "summary": summary}, fh, indent=1)
        fh.write("\n")
    for name, s in summary.items():
        print(f"{name:26s} reference {s['reference']['median']:.4g} "
              f"(IQR {s['reference']['iqr']:.3g}), tree {s['tree']['median']:.4g} "
              f"(IQR {s['tree']['iqr']:.3g}), change {s['median_change']:+.1%}, "
              f"tree better in {s['pairs_better']}/{len(pairs)}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
