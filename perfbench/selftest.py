#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py [workload ...]

For each workload (all three by default) it checks that

- an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, is correct and has no failed operation;
- two traced runs on one seed print every per-layer metric of
  BENCHMARK.json and agree exactly on every count (calls, transforms per
  step or case, OU cells per step, active and used fractions, bytes);

and that in a directory holding only BENCHMARK.json and perfbench/ the
benchmark exits non-zero without printing a result.  Takes about a minute
on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_METRICS  # noqa: E402

SEED = 7


def run(workload: str, trace: int, seconds: float, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_result(res: dict, spec: list[dict], label: str) -> dict:
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, (label, res)
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == expected, (label, set(got) ^ set(expected))
    return {name: m["value"] for name, m in res["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = check_result(result(run(workload, 0, 1)), bench["end_to_end"],
                              f"{workload} untraced")
        assert all(v > 0 for v in values.values()), (workload, values)
        first, second = (check_result(result(run(workload, 1, 1)), bench["per_layer"],
                                      f"{workload} traced") for _ in range(2))
        differ = {m: (first[m], second[m]) for m in EXACT_METRICS if first[m] != second[m]}
        assert not differ, (workload, differ)
        print(f"{workload}: ok ({len(EXACT_METRICS)} exact counts repeat)")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(workloads[0], 0, 1, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
