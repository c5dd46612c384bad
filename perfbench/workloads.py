"""The three benchmark workloads, each a scaled slice of a costly acceptance
criterion (see README.md for why each was chosen).

A workload builds its inputs from a seed, runs one input as one or more
operations and checks each operation's output.  Each call into gmnslab goes
through the `timer` the workload was built with, which returns a `Timing`;
input generation and output checks are not timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

# contract: acceptance criterion c08's parameters, 16 members, horizon 1/16
# (16 steps per solve; the decay-slope fit uses the last three records).
CONTRACT_PARAMS = dict(nu=4.0, level=1.0, chi=0.0, kmax=2, dt=1.0 / 256, t_final=0.0625)
CONTRACT_ENSEMBLE = 16
CONTRACT_RECORD_EVERY = 4

# check: one round of the three field-API fuzz suites at kmax=2.
CHECK_KMAX = 2
CHECK_CUTOFF_PAIRS = 8  # two of each of the four branch cases
CHECK_TRILINEAR_TRIPLES = 4
CHECK_MONOTONICITY_TRIPLES = 1  # per point of the default 3x3 (nu, level) grid

# simulate: one trajectory on the 13^3 grid, 32 OU cells per solver step;
# level 0.8 puts F < 1 on part of every run (|u|_L4 starts near 1.1 and
# settles near 0.6).
SIMULATE_STEPS = 128
SIMULATE_CONFIG = {
    "experiment": "simulate",
    "params": {
        "nu": 1.0, "level": 0.8, "chi": 1.0, "kmax": 3,
        "dt": 1.0 / 128, "dt_path": 1.0 / 4096, "t_final": 1.0,
        "noise": {"s": 1.0, "amplitude": 1.0},
    },
    "options": {"record_every": 1, "initial": {"norm": 4.0}},
}


def op_seed(seed: int, workload: str, index) -> int:
    """Seed of one operation's inputs, derived from the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{workload}:{index}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little")


@dataclass
class Timing:
    seconds: float  # wall time of the call
    adjusted: float  # the same, speed-adjusted (see run.SpeedProbe)
    result: object = None
    error: str | None = None  # set when the call raised


@dataclass
class Op:
    seconds: float
    adjusted: float
    ok: bool
    work: int  # solver steps or fuzz cases completed (0 when the op failed)
    headline: dict = field(default_factory=dict)
    error: str | None = None


def _op(t: Timing, work: int = 0, headline: dict | None = None,
        error: str | None = None) -> Op:
    error = t.error or error
    return Op(t.seconds, t.adjusted, error is None, 0 if error else work,
              headline or {}, error)


class Contract:
    name = "contract"
    work_unit = "steps"
    trace_inputs = 1

    def __init__(self, gm, workdir, timer):
        self.gm = gm
        self.timer = timer
        self.params = gm.integrate.SimParams(
            **CONTRACT_PARAMS, noise=gm.noise.NoiseSpectrum(s=1.0, amplitude=1.0))
        self.basis = self.params.basis()
        n_steps = round(CONTRACT_PARAMS["t_final"] / CONTRACT_PARAMS["dt"])
        self.steps_per_op = CONTRACT_ENSEMBLE * 2 * n_steps  # two coupled solves

    def make_input(self, seed: int):
        rng = np.random.default_rng(seed)
        sp = self.gm.spectral
        return (sp.random_field(self.basis, rng, norm=1.0),
                sp.random_field(self.basis, rng, norm=0.5), seed)

    def run(self, inp) -> list[Op]:
        x1, x2, seed = inp
        t = self.timer(lambda: self.gm.experiments.contraction_experiment(
            self.params, x1, x2, ensemble=CONTRACT_ENSEMBLE, seed=seed,
            record_every=CONTRACT_RECORD_EVERY))
        if t.error:
            return [_op(t)]
        rep = t.result
        series = (rep.times, rep.mean_sq, rep.stderr, rep.envelope)
        if not all(np.isfinite(s).all() for s in series):
            return [_op(t, error="non-finite contraction series")]
        if not rep.passed:
            return [_op(t, error=f"contraction assertions failed: {rep.extra}")]
        return [_op(t, self.steps_per_op, {"final_mean_sq": float(rep.mean_sq[-1])})]


class Check:
    name = "check"
    work_unit = "cases"
    trace_inputs = 40

    def __init__(self, gm, workdir, timer):
        self.gm = gm
        self.timer = timer

    def make_input(self, seed: int):
        return seed

    def run(self, seed) -> list[Op]:
        ex = self.gm.experiments

        def round_():
            return [
                ex.check_cutoff_lemma(kmax=CHECK_KMAX, n_pairs=CHECK_CUTOFF_PAIRS, seed=seed),
                ex.check_trilinear(kmax=CHECK_KMAX, n_triples=CHECK_TRILINEAR_TRIPLES,
                                   seed=seed),
                ex.check_monotonicity(kmax=CHECK_KMAX,
                                      n_triples=CHECK_MONOTONICITY_TRIPLES, seed=seed),
            ]

        t = self.timer(round_)
        if t.error:
            return [_op(t)]
        bad = [r.name for r in t.result if r.violations != 0 or not r.passed]
        if bad:
            return [_op(t, error=f"violations in {bad}")]
        return [_op(t, sum(r.cases for r in t.result),
                    {f"{r.name}.worst_margin": float(r.worst_margin) for r in t.result})]


class Simulate:
    """Each input is a pair of CLI runs with one config: the first into a
    fresh directory, the second into the same one, where the registry must
    find identical bytes (exit 0, not 7)."""

    name = "simulate"
    work_unit = "steps"
    trace_inputs = 2

    def __init__(self, gm, workdir, timer):
        self.gm = gm
        self.workdir = workdir
        self.timer = timer
        self.pairs = 0

    def make_input(self, seed: int):
        return seed

    def run(self, seed) -> list[Op]:
        pair_dir = os.path.join(self.workdir, f"pair-{self.pairs}")
        self.pairs += 1
        os.makedirs(pair_dir)
        cfg_path = os.path.join(pair_dir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(SIMULATE_CONFIG, seed=seed), fh)
        out = os.path.join(pair_dir, "out")
        argv = ["simulate", "--config", cfg_path, "--out", out]
        ops = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                t = self.timer(lambda: self.gm.cli.main(argv))
            headline = {}
            if t.error is None and t.result != 0:
                headline = {"error": f"exit code {t.result}"}
            elif t.error is None:
                try:
                    headline = self._check_outputs(out)
                except (OSError, KeyError, ValueError) as exc:
                    headline = {"error": f"unreadable outputs: {exc!r}"}
            err = headline.pop("error", None)
            ops.append(_op(t, SIMULATE_STEPS, headline, err))
        shutil.rmtree(pair_dir)
        return ops

    @staticmethod
    def _check_outputs(out: str) -> dict:
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        if not math.isfinite(summary["max_energy_residual"]):
            return {"error": "non-finite energy residual"}
        with open(os.path.join(out, "trajectory.csv")) as fh:
            rows = sum(1 for _ in fh) - 1  # minus the header
        if rows != SIMULATE_STEPS + 1:
            return {"error": f"trajectory.csv has {rows} rows, expected {SIMULATE_STEPS + 1}"}
        return {"final_H_norm_u": float(summary["final_H_norm_u"])}


WORKLOADS = {w.name: w for w in (Contract, Check, Simulate)}
