"""Run configuration: a single human-editable JSON file per experiment.

The resolved configuration round-trips losslessly, every run directory keeps
the exact copy that produced it, and the pair (config, seed) determines all
outputs byte-for-byte.  Validation failures carry the offending field name.
Each params rule is declared once, beside its field in `integrate.SimParams`
or `noise.NoiseSpectrum`, whose message this module passes through; it adds
only what JSON brings (unknown keys, object shapes, the forcing as base64
text) and the ceilings of chi * dt, eta, E|z|_H^2 and the instability.  Each
command's options, with their defaults and rules, are declared once, in
`_OPTIONS`, and a command reads only its own.  One function, `run_budget`,
bounds the bytes a run holds at once and the work of contract and check, each
against its one ceiling.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .cutoff import CutoffParams
from .experiments import MEASURE_BATCHES, member_bytes, member_tile, stability_threshold
from .integrate import SimParams
from .noise import (PATH_TABLE_CEILING, NoiseSpectrum, _finite, _is_int, path_table_bytes,
                    stationary_mean_H2)

# The largest chi * dt a run may take.  z decorrelates within
# 1/(nu |k|^2 + chi) <= 1/chi, and the stepper's trapezoid of chi z needs a
# step shorter than that.  u does not depend on chi, yet on one kmax-1 path
# (dt 1/64, t_final 2) |u|_H departs from its chi-0 value by 0.25% at
# chi * dt = 1/4, 1.0% at 1/2 and 14% at 2.
CHI_DT_CEILING = 0.25

# The second ceiling of run_budget: the most work a contract
# or check run may do, counted in grid points (about 0.38 us a point on a
# 2-core VM, so the ceiling is about an hour).  For contract, one
# member-step (a solver step of a member's two fields) costs about
# grid_size^3 + 1024 points, the 1024 being the fixed cost of its calls, and
# 1/256 of that again for each path cell its cursor crosses (measured at
# kmax 1-8).  Acceptance criterion c08 does 64 x 1,024 member-steps of
# 1,760 points, 2^26.8.  For check, see _CHECK_CASE_POINTS.
WORK_CEILING = 2**33

# Grid points of work per case of each fuzz suite of check, (a, b) in
# a * grid_size^3 + b: a line through the cost per case measured at kmax 1
# and 8, within 40% of it at kmax 3-6.  A monotonicity triple is 9 cases,
# one per (nu, level) point; the shift pairs run at kmax 1.  The defaults
# do about 2^28 points at kmax 8.
_CHECK_CASE_POINTS = {
    "cutoff_pairs": (0.21, 50),
    "trilinear_triples": (0.45, 40),
    "monotonicity_triples": (3.7, 420),
    "shift_pairs": (0.0, 2600),
}

# SimParams's own defaults (dt_path stays None: the config keeps it unresolved)
# plus the two it leaves to its caller
PARAM_DEFAULTS = {
    "nu": 1.0, "level": 1.0,
    **{f.name: f.default for f in fields(SimParams) if f.default is not MISSING},
    "noise": asdict(NoiseSpectrum()),
}


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    ensemble: int = 64
    assertion_mode: str = "strict"
    out: str | None = None
    params: SimParams = None
    options: dict = field(default_factory=dict)

    @property
    def strict(self) -> bool:
        return self.assertion_mode == "strict"

    def option(self, name: str):
        """options[name], or its default in `_OPTIONS`, where a default that
        scales with the relaxation time 1/(nu*lambda_p) is a function of
        nu*lambda_p; KeyError for an option the command does not read.  The
        runners and the config-time checks both read them here."""
        default = _OPTIONS[self.experiment][name][0]
        if name in self.options:
            return self.options[name]
        return default(self.params.nu * self.params.lambda_p) if callable(default) else default

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "ensemble": self.ensemble,
            "assertion_mode": self.assertion_mode,
            "params": self.params.to_dict(),
            "options": self.options,
        }

    def canonical_json(self) -> str:
        """Deterministic serialization; excludes out, which must not
        influence artifact bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


class _NonFinite(str):
    """What JSON parsing leaves in place of a NaN/Infinity/-Infinity literal."""


def _reject_non_finite(node, where: str = "") -> None:
    _require(not isinstance(node, _NonFinite), f"field '{where}' is {node}; non-finite "
             "numbers are not allowed (write \"inf\" for no cutoff level)")
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        _reject_non_finite(child, f"{where}.{key}" if where else str(key))


def resolve_config(raw: dict) -> RunConfig:
    """Fill defaults, cross-validate, and build the typed configuration.  The
    one check of a run: the command line's overrides are set on `raw` first,
    and the experiments do not repeat its rules."""
    unknown = set(raw) - {
        "experiment", "seed", "ensemble", "assertion_mode", "out", "params", "options",
    }
    _require(not unknown, f"unknown top-level field(s): {sorted(unknown)}")
    experiment = raw.get("experiment")
    _require(
        experiment in EXPERIMENTS,
        f"field 'experiment' must be one of {EXPERIMENTS}, got {experiment!r}",
    )
    seed = raw.get("seed", 0)
    _require(_is_int(seed) and 0 <= seed < 2**64,
             f"field 'seed' must be a 64-bit unsigned integer, got {seed!r}")
    ensemble = raw.get("ensemble", 64)
    _require(_is_int(ensemble) and ensemble >= 1,
             f"field 'ensemble' must be a positive integer, got {ensemble!r}")
    mode = raw.get("assertion_mode", "strict")
    _require(mode in ("strict", "exploratory"),
             f"field 'assertion_mode' must be 'strict' or 'exploratory', got {mode!r}")

    raw_params = raw.get("params", {})
    _require(isinstance(raw_params, dict), "field 'params' must be an object")
    pd = dict(PARAM_DEFAULTS, noise=dict(PARAM_DEFAULTS["noise"]))
    if experiment in ("contract", "measure") and "nu" not in raw_params:
        # default viscosity above the stability threshold of the default
        # cutoff level, so the strict variants of these experiments run
        pd["nu"] = 4.0
    for key, value in raw_params.items():
        _require(key in pd, f"unknown field 'params.{key}'")
        if key == "noise":
            _require(isinstance(value, dict), "field 'params.noise' must be an object")
            for nk, nv in value.items():
                _require(nk in pd["noise"], f"unknown field 'params.noise.{nk}'")
                pd["noise"][nk] = nv
        else:
            pd[key] = value

    _require(pd["forcing"] is None or isinstance(pd["forcing"], str),
             f"field 'params.forcing' must be null or base64 text, got {pd['forcing']!r}")
    try:
        params = SimParams.from_dict(pd)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _require(params.chi * params.dt <= CHI_DT_CEILING,
             f"field 'params.chi' = {params.chi!r} gives chi * dt = "
             f"{params.chi * params.dt:.3g} at dt = {params.dt!r}, above {CHI_DT_CEILING}")
    # eta = 7^7 level^8 / (2^13 nu^7) of a finite level in Python floats (a
    # power raises OverflowError, nu^7 may underflow to 0); a finite level^8
    # keeps the dissipation estimates' level^2 and the lemma's |u|^4 finite,
    # and a finite 2 eta the contraction rate nu lambda - 2 eta
    if math.isfinite(params.level):
        bad, eta = "level", math.inf  # the field named until level^8 is taken
        try:
            params.level ** 8
            bad = "nu"
            eta = CutoffParams(params.level, params.nu).eta
        except (OverflowError, ZeroDivisionError):
            pass
        _require(math.isfinite(2 * eta), f"field 'params.{bad}' = {getattr(params, bad)!r} "
                 "gives eta = 7^7 level^8 / (2^13 nu^7) whose double is not a finite float")
    # |z|^4 of the stationary OU start in its L4 quadrature scales as E|z|_H^2
    # squared, and the squared instability ceiling as factor^2 * E|z|_H^2;
    # E|z|_H^2 is amplitude^2 times its unit-amplitude value, which nu sets
    a = params.noise.amplitude
    unit = stationary_mean_H2(replace(params.noise, amplitude=1.0), params.chi, params.nu,
                              params.basis())
    h2 = a * a * unit
    bad, value = ("noise.amplitude", a) if math.isfinite(unit * unit) else ("nu", params.nu)
    _require(math.isfinite(h2 * h2), f"field 'params.{bad}' = {value!r} gives a "
             f"stationary E|z|_H^2 of {h2:.3g}, which overflows once squared")
    f = params.instability_factor
    _require(math.isfinite(f * f * max(1.0, h2)), "field 'params.instability_factor' "
             f"= {f!r} gives an instability ceiling that overflows once squared")

    options = raw.get("options", {})
    _require(isinstance(options, dict), "field 'options' must be an object")

    cfg = RunConfig(
        experiment=experiment, seed=seed, ensemble=ensemble, assertion_mode=mode,
        out=raw.get("out"), params=params, options=options,
    )
    _validate_experiment(cfg)
    return cfg


# an initial-field spec (see cli._initial_field): an object whose every key is one
# of these and passes its check; spectral.random_field defaults the keys left out
_SPEC_KEYS = {"kind": lambda k: k in ("random", "zero"), "decay": _finite,
              "norm": lambda n: n is None or _finite(n) and n > 0,
              "label": lambda s: isinstance(s, str)}


def _is_field_spec(spec) -> bool:
    return isinstance(spec, dict) and all(k in _SPEC_KEYS and _SPEC_KEYS[k](v)
                                          for k, v in spec.items())


def _positive_list(xs) -> bool:
    return isinstance(xs, list) and bool(xs) and all(_finite(x) and x > 0 for x in xs)


_FIELD_SPEC = ('an initial-field spec: an object with kind "random" or "zero", '
               "norm a finite number > 0 or null, decay a finite number, label a "
               "string and no other key")

# (validator, what it must be) of the rules more than one option follows
_COUNT = (lambda n: _is_int(n) and n >= 1, "an integer >= 1")
_NON_NEGATIVE = (lambda x: _finite(x) and x >= 0, "a finite number >= 0")
_SPEC = (_is_field_spec, _FIELD_SPEC)
_SPECS = (lambda d: isinstance(d, dict) and d and all(map(_is_field_spec, d.values())),
          f"a non-empty object whose every entry is {_FIELD_SPEC}")

# command -> option -> (default, (validator, what it must be)): the options
# each command reads, in the order they are checked; a callable default is a
# function of the relaxation rate nu * lambda_p.  simulate's record_every
# reads nothing (a solve keeps no snapshots) but stays while the benchmark's
# config sets it
_OPTIONS = {
    "check": {"cutoff_pairs": (10_000, _COUNT), "trilinear_triples": (1000, _COUNT),
              "monotonicity_triples": (1000, _COUNT), "shift_pairs": (100, _COUNT),
              # a variance needs two samples
              "ou_samples": (100_000, (lambda n: _is_int(n) and n >= 2, "an integer >= 2")),
              "ou_chi": (1.0, _NON_NEGATIVE)},
    "simulate": {"record_every": (1, _COUNT), "initial": ({}, _SPEC)},
    "contract": {"record_every": (4, _COUNT), "x1": ({"norm": 1.0}, _SPEC),
                 "x2": ({"norm": 0.5}, _SPEC)},
    # the decay check compares each time's term with the next larger time's
    "pullback": {"pullback_times": (lambda rate: [m / rate for m in (1, 2, 4, 8, 16, 32)],
                                    (lambda xs: _positive_list(xs) and len(set(xs)) == len(xs),
                                     "a non-empty list of distinct finite numbers > 0")),
                 "families": ({"small": {"norm": 1.0}, "large": {"norm": 100.0}}, _SPECS),
                 "family_tol": (1e-6, _NON_NEGATIVE)},
    # the sweep compares each level's run with the next larger level's
    "nse-limit": {"initial": ({"norm": 2.0}, _SPEC),
                  "multipliers": ([0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                                  (lambda xs: _positive_list(xs)
                                   and all(a < b for a, b in zip(xs, xs[1:])),
                                   "a strictly increasing non-empty list of finite "
                                   "numbers > 0"))},
    "measure": {"burn_in": (lambda rate: 5.0 / rate, _NON_NEGATIVE),
                "horizon": (lambda rate: 200.0 / rate,
                            (lambda x: _finite(x) and x > 0, "a finite number > 0")),
                "initial_set": ({"zero": {"kind": "zero"}, "big": {"norm": 10.0}}, _SPECS)},
}

EXPERIMENTS = tuple(_OPTIONS)


def _span(cfg: RunConfig) -> tuple[str, float]:
    """The field(s) that set the span of the paths a run marches on, and the
    span, which must be whole steps of dt, as integrate.solve_transformed takes."""
    dt = cfg.params.dt
    name, span = "field 'params.t_final'", cfg.params.t_final  # paths over [0, t_final]
    if cfg.experiment == "pullback":  # one path over [-max(times), dt]
        name, span = "field 'options.pullback_times'", max(cfg.option("pullback_times")) + dt
    if cfg.experiment == "measure":  # one path per initial state over [0, burn_in + horizon]
        name = "fields 'options.burn_in' + 'options.horizon'"
        span = cfg.option("burn_in") + cfg.option("horizon")
    steps = span / dt
    _require(math.isfinite(steps) and abs(round(steps) * dt - span) <= 1e-9 * max(1.0, span),
             f"{name} = {span} must be a whole number of steps of params.dt = {dt}")
    return name, span


def contract_work(p: SimParams, ensemble: int) -> float:
    """The grid points of work of a contract run."""
    per_step = ((4 * p.kmax + 1) ** 3 + 1024) * (1 + p.substeps / 256)
    return ensemble * round(p.t_final / p.dt) * per_step


def check_work(cfg: RunConfig) -> dict[str, float]:
    """Grid points of work of each counted fuzz suite of a check run, by
    the option that sets its size."""
    points = (4 * cfg.params.kmax + 1) ** 3
    return {name: cfg.option(name) * (a * points + b)
            for name, (a, b) in _CHECK_CASE_POINTS.items()}


def run_budget(cfg: RunConfig) -> list[tuple[str, float, float, float, str]]:
    """Each ceiling a resolved run must fit, as (the field to name, its value,
    the amount, the ceiling, its unit): the bytes the run holds at once, a
    tile's worth of members' path tables and ledgers (`member_bytes`), against
    PATH_TABLE_CEILING, and the work of contract and check against WORK_CEILING."""
    held, work = "bytes of path tables and ledgers held at once", "grid points of work"
    if cfg.experiment == "check":
        # c06 samples one kmax=1 path of ou_samples + 1 cells into a series,
        # and its variance copies it; the fuzz count with the largest share of
        # the work is the one to name
        n, points = cfg.option("ou_samples"), check_work(cfg)
        name = max(points, key=points.get)
        return [("field 'options.ou_samples'", n, path_table_bytes(n + 1, 1) + 16 * n,
                 PATH_TABLE_CEILING, held),
                (f"field 'options.{name}'", cfg.option(name), sum(points.values()),
                 WORK_CEILING, work)]
    name, span = _span(cfg)
    p = replace(cfg.params, t_final=span)
    # (fields, members) of the march: a contract member's two fields keep no
    # ledger; nse-limit's levels and its unmodified run march as one stack,
    # each level's error to that run kept per step
    exp = cfg.experiment
    levels = len(cfg.option("multipliers")) if exp == "nse-limit" else 0
    n_fields = (2 if exp == "contract" else levels + 1 if exp == "nse-limit"
                else len(cfg.option("families")) if exp == "pullback" else 1)
    members = (cfg.ensemble if exp == "contract"
               else len(cfg.option("initial_set")) if exp == "measure" else 1)
    member = (member_bytes(p, n_fields, ledger=exp != "contract")
              + 8 * (round(span / p.dt) + 1) * levels)
    nbytes = min(members, member_tile(p.basis(), 12 * n_fields, member)) * member
    budget = [(name, span, nbytes, PATH_TABLE_CEILING, held)]
    if cfg.experiment == "contract":
        budget.append(("field 'ensemble'", cfg.ensemble, contract_work(p, cfg.ensemble),
                       WORK_CEILING, work))
    return budget


def _validate_experiment(cfg: RunConfig) -> None:
    p = cfg.params
    row = _OPTIONS[cfg.experiment]
    for option in sorted(cfg.options):
        _require(option in row, f"field 'options.{option}' is not an option of "
                 f"'{cfg.experiment}', which reads {list(row)}")
    for option, (_, (valid, what)) in row.items():
        value = cfg.option(option)
        _require(valid(value), f"field 'options.{option}' must be {what}, got {value!r}")
    if cfg.experiment == "nse-limit":
        # the unmodified run from a zero field without forcing stays at 0,
        # and so would the cutoff levels, which scale with its L4 norm
        _require(cfg.option("initial").get("kind") != "zero" or p.forcing is not None,
                 "field 'options.initial' must not be the zero field for nse-limit "
                 "while params.forcing is null: the cutoff levels scale with the "
                 "L4 norm of the unmodified run, which stays 0")
    if cfg.experiment == "pullback":
        # the tolerance of experiments.pullback_absorption
        times = cfg.option("pullback_times")
        _require(all(math.isfinite(t / p.dt) and abs(round(t / p.dt) * p.dt - t) <= 1e-9
                     for t in times),
                 f"field 'options.pullback_times' must hold multiples of "
                 f"params.dt = {p.dt}, got {times!r}")
    if cfg.experiment == "measure":
        _require(cfg.option("horizon") >= MEASURE_BATCHES * p.dt,
                 f"field 'options.horizon' = {cfg.option('horizon')} must be at least "
                 f"{MEASURE_BATCHES} steps of params.dt = {p.dt}, one per error-bar batch")
    if cfg.experiment == "contract":
        _require(cfg.ensemble >= 2, f"field 'ensemble' = {cfg.ensemble} must be >= 2 "
                 "for contract (the standard error needs two members)")
    for name, value, amount, ceiling, what in run_budget(cfg):
        _require(amount <= ceiling, f"{name} = {value} at kmax {p.kmax} needs "
                 f"{amount:.3g} {what}, over the ceiling of {ceiling:.3g}")
    if cfg.experiment in ("contract", "measure") and cfg.strict:
        thr = stability_threshold(p.level, p.lambda_p)
        _require(
            p.nu > thr,
            f"field 'params.nu' = {p.nu} must exceed the stability threshold "
            f"{thr:.6g} for the strict '{cfg.experiment}' experiment "
            "(use assertion_mode 'exploratory' to explore below threshold)",
        )
    if cfg.experiment == "contract" and cfg.strict:
        _require(
            cfg.ensemble >= 32,
            f"field 'ensemble' = {cfg.ensemble} must be >= 32 for strict "
            "contraction statistics",
        )


def read_config(path: str) -> dict:
    """The JSON object of a configuration file, not yet resolved: the command
    line's overrides are set on it before resolve_config checks it."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_NonFinite)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not well-formed JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    _reject_non_finite(raw)
    return raw
