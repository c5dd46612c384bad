"""Per-layer tracer: wraps public gmnslab callables from outside the package.

Each wrapped callable becomes a span.  A span's self time is its duration
minus the time covered by the spans it caused, so the self times of the
layers add up to the traced wall time of the operations.  Spans are kept as
per-name aggregates in memory (calls, inclusive time, self time, 3-D FFTs
issued inside the span); a contraction operation issues ~10^5 spans, too
many to keep one record each.

numpy's n-D FFT entry points are counted, not spanned: their time stays in
the calling layer's self time, and each call counts as many 3-D scalar
transforms as its batch holds (the product of the non-transformed axes).

A name is patched where its caller looks it up (for example both
`cutoff.cutoff_factor` and `integrate.cutoff_factor`).  A name that no
longer exists is reported as absent; the run goes on without it.
"""

from __future__ import annotations

import math
import os
import time
import weakref
from dataclasses import dataclass

import numpy as np

# (stat name, [(module name or "module.Class", attribute), ...]).  Only
# public names: private helpers are expected to move in refactors.
TARGETS = [
    ("spectral.synthesize", [("spectral.GalerkinBasis", "synthesize")]),
    ("spectral.synthesize_gradient", [("spectral.GalerkinBasis", "synthesize_gradient")]),
    ("spectral.analyze", [("spectral.GalerkinBasis", "analyze")]),
    ("spectral.norm_L4", [("spectral", "norm_L4"), ("cutoff", "norm_L4")]),
    ("spectral.nonlinear_B", [("spectral", "nonlinear_B"), ("cutoff", "nonlinear_B")]),
    ("spectral.trilinear_b", [("spectral", "trilinear_b")]),
    ("cutoff.cutoff_advection", [("cutoff", "cutoff_advection")]),
    ("cutoff.cutoff_lipschitz_sides", [("cutoff", "cutoff_lipschitz_sides")]),
    ("cutoff.monotonicity_gap", [("cutoff", "monotonicity_gap")]),
    ("cutoff.cutoff_factor", [("cutoff", "cutoff_factor"), ("integrate", "cutoff_factor")]),
    ("noise.make_path", [("noise", "make_path")]),
    ("noise.WienerPath.normals", [("noise.WienerPath", "normals")]),
    ("noise.OUCursor.advance_to", [("noise.OUCursor", "advance_to")]),
    ("integrate.solve_transformed", [("integrate", "solve_transformed")]),
    ("integrate.EnergyLedger.to_csv", [("integrate.EnergyLedger", "to_csv")]),
    ("integrate.checkpoint_dump", [("integrate", "checkpoint_dump")]),
    ("experiments.contraction_experiment", [("experiments", "contraction_experiment")]),
    ("experiments.check_cutoff_lemma", [("experiments", "check_cutoff_lemma")]),
    ("experiments.check_trilinear", [("experiments", "check_trilinear")]),
    ("experiments.check_monotonicity", [("experiments", "check_monotonicity")]),
    ("registry.register_run", [("registry", "register_run"), ("cli", "register_run")]),
    ("cli.run_experiment", [("cli", "run_experiment")]),
    ("config.parse_config", [("config", "parse_config"), ("cli", "parse_config")]),
]

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn")

CHECKS = ("experiments.check_cutoff_lemma", "experiments.check_trilinear",
          "experiments.check_monotonicity")

# Per-layer metric names in report order; the traced run prints all of them.
LAYER_METRICS = (
    [f"spectral.{f}.{s}" for f in ("synthesize", "synthesize_gradient", "analyze")
     for s in ("calls", "us_per_call", "self_s")]
    + [f"spectral.{f}.{s}" for f in ("norm_L4", "nonlinear_B", "trilinear_b")
       for s in ("calls", "self_s")]
    + ["spectral.transforms_per_step", "spectral.transforms_per_case",
       "spectral.fft_us_per_transform", "spectral.fft_bytes_per_transform_computed"]
    + [f"cutoff.{f}.{s}"
       for f in ("cutoff_advection", "cutoff_lipschitz_sides", "monotonicity_gap")
       for s in ("calls", "self_s")]
    + ["cutoff.cutoff_factor.calls", "cutoff.active_frac",
       "noise.make_path.calls", "noise.make_path.self_s",
       "noise.WienerPath.normals.calls", "noise.WienerPath.normals.self_s",
       "noise.OUCursor.advance_to.calls", "noise.OUCursor.advance_to.us_per_call",
       "noise.OUCursor.advance_to.self_s",
       "noise.cells_per_step", "noise.draws_used_frac",
       "integrate.solve_transformed.calls", "integrate.solve_transformed.self_s",
       "integrate.solve_transformed.us_per_step",
       "integrate.EnergyLedger.to_csv.self_s", "integrate.EnergyLedger.to_csv.bytes",
       "integrate.checkpoint_dump.self_s"]
    + [f"experiments.{f}.self_s" for f in
       ("contraction_experiment", "check_cutoff_lemma", "check_trilinear",
        "check_monotonicity")]
    + ["registry.register_run.calls", "registry.register_run.self_s",
       "registry.register_run.bytes_hashed",
       "cli.run_experiment.self_s", "config.parse_config.self_s",
       "trace.overhead_frac"]
)

# Metrics that are exact counts: two traced runs on one seed must agree on
# every one of them.
EXACT_METRICS = tuple(
    m for m in LAYER_METRICS
    if m.endswith((".calls", ".bytes", ".bytes_hashed", "_per_step", "_per_case",
                   "_frac", "_computed"))
    and m not in ("trace.overhead_frac", "integrate.solve_transformed.us_per_step")
)

ABSENT = -1.0  # value printed for a metric whose program name is gone


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    transforms: int = 0


class _Frame:
    __slots__ = ("child_s", "transforms")

    def __init__(self):
        self.child_s = 0.0
        self.transforms = 0


class Tracer:
    """Install with `install(modules)`, run the operations, then `uninstall()`."""

    def __init__(self):
        self.stats = {name: Stat() for name, _ in TARGETS}
        self.absent: set[str] = set()
        self.counters = {
            "fft_transforms": 0, "fft_s": 0.0, "fft_bytes": 0,
            "ou_cells": 0, "draws_used": 0, "draws_materialized": 0,
            "ledger_rows": 0, "ledger_rows_active": 0,
            "csv_bytes": 0, "bytes_hashed": 0,
        }
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []
        self._seen_paths = weakref.WeakSet()

    # ---- installation ---------------------------------------------------

    def install(self, modules: dict) -> None:
        hooks = {
            "noise.OUCursor.advance_to": (self._cells_before, self._cells_after),
            "noise.WienerPath.normals": (None, self._draws_after),
            "integrate.solve_transformed": (None, self._ledger_after),
            "integrate.EnergyLedger.to_csv": (self._tell, self._csv_after),
            "registry.register_run": (None, self._hashed_after),
        }
        for name, sites in TARGETS:
            found = False
            for owner_name, attr in sites:
                owner = _resolve(modules, owner_name)
                original = _lookup(owner, attr)
                if original is None:
                    continue
                before, after = hooks.get(name, (None, None))
                self._patch(owner, attr, self._span(name, original, before, after))
                found = True
            if not found:
                self.absent.add(name)
        for attr in FFT_ENTRY_POINTS:
            self._patch(np.fft, attr, self._fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # ---- spans ------------------------------------------------------------

    def _span(self, name, fn, before, after):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = self._hook(name, before, args, kwargs) if before else None
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame.child_s
                stat.transforms += frame.transforms
                if stack:
                    stack[-1].child_s += dt
                    stack[-1].transforms += frame.transforms
            if after:
                self._hook(name, after, token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, name, hook, *args):
        try:
            return hook(*args)
        except (AttributeError, TypeError, ValueError, OSError):
            # the public attribute a counter reads has changed shape
            self.absent.add(name + ".counter")
            return None

    def _fft(self, fn):
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            counters["fft_s"] += clock() - t0
            arr = np.asarray(a)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            if axes is None:
                batch = 1
            else:
                transformed = {ax % arr.ndim for ax in axes}
                batch = math.prod(n for i, n in enumerate(arr.shape) if i not in transformed)
            counters["fft_transforms"] += batch
            counters["fft_bytes"] += arr.nbytes + out.nbytes
            if stack:
                stack[-1].transforms += batch
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- counter hooks (read public attributes only) --------------------

    def _cells_before(self, args, kwargs):
        return args[0].time

    def _cells_after(self, t_before, args, kwargs, result):
        cursor = args[0]
        self.counters["ou_cells"] += round((cursor.time - t_before) / cursor.path.dt_path)

    def _draws_after(self, token, args, kwargs, result):
        path = args[0]
        if path not in self._seen_paths:
            # the first draw request materializes the whole table
            self._seen_paths.add(path)
            self.counters["draws_materialized"] += path.steps * path.n_coordinates
        self.counters["draws_used"] += result.size

    def _ledger_after(self, token, args, kwargs, result):
        cutoff = np.asarray(result.ledger.cutoff)
        self.counters["ledger_rows"] += cutoff.size
        self.counters["ledger_rows_active"] += int((cutoff < 1.0).sum())

    def _tell(self, args, kwargs):
        return args[1].tell()

    def _csv_after(self, start, args, kwargs, result):
        self.counters["csv_bytes"] += args[1].tell() - start

    def _hashed_after(self, token, args, kwargs, result):
        paths = kwargs.get("artifact_paths", args[3] if len(args) > 3 else ())
        self.counters["bytes_hashed"] += sum(os.path.getsize(p) for p in paths)

    # ---- metrics ------------------------------------------------------------

    def metrics(self, steps: int, cases: int, time_scale: float, overhead_frac: float) -> dict:
        """Every per-layer metric.  `steps` and `cases` are the solver steps
        and fuzz cases the traced operations performed; every time is
        multiplied by `time_scale` (the run's speed adjustment)."""
        st, c = self.stats, self.counters
        us = 1e6 * time_scale
        out = {}
        for name, stat in st.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s * time_scale
            out[f"{name}.us_per_call"] = _ratio(stat.total_s * us, stat.calls)
        solve = st["integrate.solve_transformed"]
        out["integrate.solve_transformed.us_per_step"] = _ratio(solve.total_s * us, steps)
        out["spectral.transforms_per_step"] = _ratio(solve.transforms, steps)
        out["spectral.transforms_per_case"] = _ratio(
            sum(st[n].transforms for n in CHECKS), cases)
        out["spectral.fft_us_per_transform"] = _ratio(c["fft_s"] * us, c["fft_transforms"])
        out["spectral.fft_bytes_per_transform_computed"] = _ratio(
            c["fft_bytes"], c["fft_transforms"])
        out["cutoff.active_frac"] = _ratio(c["ledger_rows_active"], c["ledger_rows"])
        out["noise.cells_per_step"] = _ratio(c["ou_cells"], steps)
        out["noise.draws_used_frac"] = _ratio(c["draws_used"], c["draws_materialized"])
        out["integrate.EnergyLedger.to_csv.bytes"] = c["csv_bytes"]
        out["registry.register_run.bytes_hashed"] = c["bytes_hashed"]
        out["trace.overhead_frac"] = overhead_frac

        derived = {
            "spectral.transforms_per_step": ["integrate.solve_transformed"],
            "spectral.transforms_per_case": list(CHECKS),
            "cutoff.active_frac": ["integrate.solve_transformed",
                                   "integrate.solve_transformed.counter"],
            "noise.cells_per_step": ["noise.OUCursor.advance_to",
                                     "noise.OUCursor.advance_to.counter"],
            "noise.draws_used_frac": ["noise.WienerPath.normals",
                                      "noise.WienerPath.normals.counter"],
            "integrate.EnergyLedger.to_csv.bytes": ["integrate.EnergyLedger.to_csv",
                                                    "integrate.EnergyLedger.to_csv.counter"],
            "registry.register_run.bytes_hashed": ["registry.register_run",
                                                   "registry.register_run.counter"],
        }
        result = {}
        for metric in LAYER_METRICS:
            sources = derived.get(metric, [metric.rsplit(".", 1)[0]])
            if any(s in self.absent for s in sources):
                result[metric] = ABSENT
            else:
                result[metric] = out[metric]
        return result

    def absent_metrics(self) -> list[str]:
        return sorted(self.absent)


def unit(metric: str) -> str:
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    if "us_per" in metric:
        return "us"
    if "bytes" in metric:
        return "B"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _resolve(modules: dict, owner_name: str):
    module_name, _, class_name = owner_name.partition(".")
    owner = modules.get(module_name)
    if owner is not None and class_name:
        owner = getattr(owner, class_name, None)
    return owner


def _lookup(owner, attr):
    if owner is None:
        return None
    fn = owner.__dict__.get(attr)
    return fn if callable(fn) else None
