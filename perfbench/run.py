#!/usr/bin/env python3
"""gmnslab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload {contract,check,simulate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gmnslab is imported from its
`src/` directory.  The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics of S seconds of operations,
with --trace 1 the per-layer metrics of a fixed list of operations, run once
untraced and once traced.  Earlier lines give the environment and a report
(operation count, failed fraction, p90 latency where there are at least 100
operations, and the reference comparison).
"""

import os
import sys
import time

_T_START = time.perf_counter()

# Pin the native thread pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer, unit  # noqa: E402
from workloads import WORKLOADS, Timing, op_seed  # noqa: E402

REFERENCE_SEED = 0  # the default seed; its first input is the reference input
SETUP_REPEATS = 3
# Headline scalars must match reference.json to |a - b| <= RTOL*|b| + ATOL:
# loose enough for a rounding-level kernel change, tight enough to catch a
# wrong kernel (which moves them at O(1e-3) or more).
RTOL = 1e-6
ATOL = 1e-12
P90_MIN_OPS = 100
# SpeedProbe's kernel time on a 2-core x86 machine running at full speed
# (its 5th percentile over 20 s was 7.2 ms, its median 8.8 ms).
CAL_REF_S = 7e-3

MODULES = ("spectral", "cutoff", "noise", "integrate", "experiments",
           "registry", "config", "cli")
REQUIRED = ("spectral", "noise", "integrate", "experiments", "cli")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> SimpleNamespace:
    if not (SRC / "gmnslab" / "__init__.py").is_file():
        fail(f"no gmnslab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gmnslab

    if Path(gmnslab.__file__).resolve().parent != SRC / "gmnslab":
        fail(f"imported gmnslab from {gmnslab.__file__}, not from {SRC}")
    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"gmnslab.{name}")
        except ImportError:
            if name in REQUIRED:
                raise
            mods[name] = None  # its layer metrics are reported as absent
    return SimpleNamespace(**mods)


def environment(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k].get('version', '')}".strip()
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def compare_reference(workload: str, measured: list[dict]) -> dict:
    with open(HERE / "reference.json") as fh:
        expected = json.load(fh)[workload]
    match = bool(measured) and all(
        set(m) == set(expected)
        and all(abs(m[k] - expected[k]) <= RTOL * abs(expected[k]) + ATOL for k in m)
        for m in measured
    )
    return {"match": match, "expected": expected, "measured": measured[0] if measured else None,
            "rtol": RTOL, "atol": ATOL}


class SpeedProbe:
    """A fixed kernel owned by the benchmark, timed after every program call.

    The machines this runs on are shared: their speed drifts by up to 2x for
    tens of seconds at a time, which no statistic over one run can cancel.
    The kernel has the program's mix of work (scatter into small 3-D grids,
    FFTs on the 9^3 and 13^3 grids, small einsums, interpreter loops) and no
    gmnslab code, so a change to gmnslab does not move it.  A call's
    speed-adjusted time is its wall time times CAL_REF_S over the mean of the
    kernel's times just before and just after it.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        # bound now, so that a tracer patching numpy.fft later does not see them
        self.ifftn, self.fftn = np.fft.ifftn, np.fft.fftn
        self.grids = [np.zeros((3, m, m, m), dtype=np.complex128) for m in (9, 13)]
        self.bins = [tuple(rng.integers(0, m, size=(3, 62))) for m in (9, 13)]
        self.coeffs = rng.standard_normal((62, 2)) + 1j * rng.standard_normal((62, 2))
        self.pol = rng.standard_normal((62, 2, 3))
        # the median of three samples: the import time is adjusted by it alone
        self.last = statistics.median(self.measure() for _ in range(3))

    def measure(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(12):
            uhat = np.einsum("np,npc->nc", self.coeffs, self.pol)
            for spec, (ix, iy, iz) in zip(self.grids, self.bins):
                spec[:, ix, iy, iz] = uhat.T
                g = self.ifftn(spec, axes=(1, 2, 3)).real
                sq = np.einsum("cxyz,cxyz->xyz", g, g)
                self.fftn(g, axes=(1, 2, 3))
                float((sq * sq).sum()) ** 0.25
            acc = 0.0
            for i in range(64):
                acc += i * 0.5
        return time.perf_counter() - t0

    def adjust(self, seconds: float, cal_s: float) -> float:
        return seconds * CAL_REF_S / cal_s

    def timer(self, call) -> Timing:
        """Time one program call; a call that raises is reported, not raised."""
        before = self.last
        t0 = time.perf_counter()
        result, error = None, None
        try:
            result = call()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        self.last = self.measure()
        return Timing(seconds, self.adjust(seconds, 0.5 * (before + self.last)),
                      result, error)


def set_up(wl_class, gm, workdir, probe):
    """Build the workload and run the reference input (the warm-up).

    Returns the workload, the reference operations and the speed-adjusted
    set-up time, which leaves out the probe's own measurements."""
    before = probe.last
    t0 = time.perf_counter()
    wl = wl_class(gm, workdir, probe.timer)
    inp = wl.make_input(op_seed(REFERENCE_SEED, wl.name, "reference"))
    build = time.perf_counter() - t0
    ops = wl.run(inp)
    return wl, ops, probe.adjust(build, before) + sum(op.adjusted for op in ops)


def run_inputs(wl, inputs) -> list:
    ops = []
    for inp in inputs:
        ops.extend(wl.run(inp))
    return ops


def until(deadline: float, wl, seed: int):
    i = 0
    while time.perf_counter() < deadline:
        yield wl.make_input(op_seed(seed, wl.name, i))
        i += 1


def quantiles(values: list) -> dict:
    """Median and, from 100 values on, p90, in ms."""
    q = {"p50": statistics.median(values) * 1e3}
    if len(values) >= P90_MIN_OPS:
        q["p90"] = statistics.quantiles(values, n=10)[-1] * 1e3
    return q


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    gm = import_program()
    import numpy as np

    import_s = time.perf_counter() - _T_START
    probe = SpeedProbe(np)
    import_adj = probe.adjust(import_s, probe.last)
    wl_class = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": environment(np)}))

    try:
        reference_ops = []
        if args.trace:
            wl, reference_ops, _ = set_up(wl_class, gm, workdir, probe)
            inputs = [wl.make_input(op_seed(args.seed, wl.name, i))
                      for i in range(wl.trace_inputs)]
            untraced = run_inputs(wl, inputs)
            tracer = Tracer()
            tracer.install(vars(gm))
            try:
                traced = run_inputs(wl, inputs)
            finally:
                tracer.uninstall()
            work = sum(op.work for op in traced)
            traced_adj = sum(op.adjusted for op in traced)
            time_scale = traced_adj / sum(op.seconds for op in traced)
            metrics = tracer.metrics(
                steps=work if wl.work_unit == "steps" else 0,
                cases=work if wl.work_unit == "cases" else 0,
                time_scale=time_scale,
                overhead_frac=traced_adj / sum(op.adjusted for op in untraced) - 1.0,
            )
            ops = untraced + traced
            units = {m: unit(m) for m in metrics}
            extra = {"absent": tracer.absent_metrics(), "time_scale": time_scale}
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                wl, ref, setup_adj = set_up(wl_class, gm, workdir, probe)
                reference_ops += ref
                setups.append(setup_adj)
            ops = run_inputs(wl, until(time.perf_counter() + args.seconds, wl, args.seed))
            adjusted = [op.adjusted for op in ops]
            rates = [op.work / op.adjusted for op in ops]
            metrics = {
                "setup_s": import_adj + statistics.median(setups),
                "steps_or_cases_per_s_adj": statistics.median(rates),
                "op_ms_p50_adj": statistics.median(adjusted) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "steps_or_cases_per_s_adj": "1/s",
                     "op_ms_p50_adj": "ms", "peak_rss_mb": "MB"}
            seconds = [op.seconds for op in ops]
            extra = {
                "work_unit": wl.work_unit,
                "op_ms_adj": quantiles(adjusted),
                "op_ms_wall": quantiles(seconds),
                "steps_or_cases_per_s_wall": sum(op.work for op in ops) / sum(seconds),
                "import_s": import_s,
                "setup_repeats_adj_s": setups,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another workload process still uses it

    failed = [op for op in ops if not op.ok]
    reference = compare_reference(args.workload, [op.headline for op in reference_ops
                                                  if op.ok])
    reference["match"] = reference["match"] and all(op.ok for op in reference_ops)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "failed": len(failed), "failed_frac": len(failed) / len(ops),
        "first_error": failed[0].error if failed else None,
        "reference": reference, **extra,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed and reference["match"],
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
