"""Command-line surface tying the modules into reproducible experiments.

Commands: check, simulate, contract, pullback, nse-limit, measure.  Every
run writes the exact resolved config plus JSON summary and CSV series
(17 significant digits) into the output directory, then registers artifact
hashes.  Exit codes: 0 success, 2 config error, 3 assertion failure in
strict mode, 4 instability, 5 insufficient horizon, 6 I/O failure,
7 registry divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments as ex
from . import integrate as it
from . import noise as nz
from . import spectral as sp
from .config import ConfigError, RunConfig, read_config, resolve_config
from .registry import DivergenceError, config_hash, register_run
from .seeding import labeled_generator

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERTION = 3
EXIT_INSTABILITY = 4
EXIT_HORIZON = 5
EXIT_IO = 6
EXIT_DIVERGENCE = 7


def _write_csv(path: str, columns: dict) -> None:
    """Columns under their names: floats to 17 digits, the rest through str, LF ends."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) + "\n")


def _np_default(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path: str, payload: dict) -> None:
    """Sorted, indented JSON; a NaN or infinity raises ValueError before the
    file is opened, so it leaves no file."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=_np_default, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _initial_field(basis, spec: dict, seed: int, label: str) -> sp.SpectralField:
    """The field of an initial-field spec (validated by the config); the keys
    it leaves out take random_field's defaults."""
    if spec.get("kind") == "zero":
        return sp.zero_field(basis)
    rng = labeled_generator(seed, spec.get("label", label))
    return sp.random_field(basis, rng, **{k: spec[k] for k in ("decay", "norm") if k in spec})


# ---- experiment runners -----------------------------------------------------


def _run_check(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    kmax = cfg.params.kmax
    reports = [
        ex.check_cutoff_lemma(
            kmax=kmax, n_pairs=cfg.option("cutoff_pairs"), seed=cfg.seed,
            level=cfg.params.level if math.isfinite(cfg.params.level) else 1.0,
        ),
        ex.check_trilinear(
            kmax=kmax, n_triples=cfg.option("trilinear_triples"), seed=cfg.seed + 1
        ),
        ex.check_monotonicity(
            kmax=kmax, n_triples=cfg.option("monotonicity_triples"), seed=cfg.seed + 2
        ),
        ex.check_ou_stationarity(
            seed=cfg.seed + 3, n_samples=cfg.option("ou_samples"),
            nu=cfg.params.nu, chi=cfg.option("ou_chi"),
        ),
        ex.check_shift_covariance(seed=cfg.seed + 4, n_pairs=cfg.option("shift_pairs")),
    ]
    passed = all(r.passed for r in reports)
    summary = {"checks": [r.summary() for r in reports], "passed": passed}
    return summary, passed, {f"fuzz_{r.name}.csv": r.columns() for r in reports if r.rows}, []


def _run_simulate(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    params = cfg.params
    basis = params.basis()
    x = _initial_field(basis, cfg.option("initial"), cfg.seed, "ic")
    path = nz.make_path(cfg.seed, params.dt_path, 0.0, params.t_final,
                        params.noise, basis)
    traj = it.solve(x, path, params)
    manifest_path = os.path.join(out, "path_manifest.json")
    _write_json(manifest_path, path.manifest())
    ckpt_path = os.path.join(out, "checkpoint.json")
    with open(ckpt_path, "w") as fh:
        fh.write(it.checkpoint_dump(traj, path, params))
        fh.write("\n")
    summary = {
        "name": "simulate",
        "final_H_norm_v": math.sqrt(traj.ledger.v_H2[-1]),
        "final_H_norm_u": math.sqrt(traj.ledger.u_H2[-1]),
        "max_energy_residual": traj.ledger.max_residual(),
        "apriori_margin": it.apriori_margin(params, traj.ledger),
        "pullback_margin": it.pullback_inequality_margin(params, traj.ledger),
        "passed": True,
    }
    return summary, True, {"trajectory.csv": traj.ledger.columns()}, [manifest_path, ckpt_path]


def _run_contract(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    params = cfg.params
    basis = params.basis()
    x1 = _initial_field(basis, cfg.option("x1"), cfg.seed, "x1")
    x2 = _initial_field(basis, cfg.option("x2"), cfg.seed, "x2")
    rep = ex.contraction_experiment(params, x1, x2, ensemble=cfg.ensemble, seed=cfg.seed,
                                    record_every=cfg.option("record_every"))
    return rep.summary(), rep.passed, {"contraction.csv": rep.columns()}, []


def _run_pullback(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    params = cfg.params
    basis = params.basis()
    times = cfg.option("pullback_times")
    family = {
        name: _initial_field(basis, spec, cfg.seed, f"pullback-{name}")
        for name, spec in cfg.option("families").items()
    }
    rep = ex.pullback_absorption(
        params, times, family, seed=cfg.seed,
        family_tol=cfg.option("family_tol"),
    )
    return rep.summary(), rep.passed, {"pullback.csv": rep.columns()}, []


def _run_nse_limit(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    basis = cfg.params.basis()
    x = _initial_field(basis, cfg.option("initial"), cfg.seed, "nse-ic")
    rep = ex.nse_limit_experiment(x, cfg.params,
                                  multipliers=tuple(cfg.option("multipliers")))
    return rep.summary(), rep.passed, {"nse_limit.csv": rep.columns()}, []


def _run_measure(cfg: RunConfig, out: str) -> tuple[dict, bool, dict, list[str]]:
    params = cfg.params
    basis = params.basis()
    burn_in, horizon = cfg.option("burn_in"), cfg.option("horizon")
    ics = {
        name: _initial_field(basis, spec, cfg.seed, f"measure-{name}")
        for name, spec in cfg.option("initial_set").items()
    }
    rep = ex.invariant_measure_sampler(params, ics, burn_in=burn_in, horizon=horizon,
                                       seed=cfg.seed)
    return rep.summary(), rep.passed, {"measure.csv": rep.columns()}, []


# runner(cfg, out) -> (summary, passed, {CSV name: columns}, the files it wrote)
_RUNNERS = {
    "check": _run_check,
    "simulate": _run_simulate,
    "contract": _run_contract,
    "pullback": _run_pullback,
    "nse-limit": _run_nse_limit,
    "measure": _run_measure,
}


def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute one configured experiment; returns the process exit code."""
    out = out_dir or cfg.out or f"runs/{cfg.experiment}"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return EXIT_IO

    cfg_path = os.path.join(out, "config.json")
    try:
        _write_json(cfg_path, cfg.to_dict())
        summary, passed, tables, artifacts = _RUNNERS[cfg.experiment](cfg, out)
        for name, columns in tables.items():
            artifacts.append(os.path.join(out, name))
            _write_csv(artifacts[-1], columns)
        summary["assertion_mode"] = cfg.assertion_mode
        summary_path = os.path.join(out, "summary.json")
        _write_json(summary_path, summary)
        artifacts = [cfg_path, summary_path] + artifacts
    except it.InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except ex.HorizonError as exc:
        print(f"insufficient horizon: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        register_run(out, config_hash(cfg.canonical_json()), cfg.experiment,
                     artifacts, passed)
    except DivergenceError as exc:
        print(f"registry divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    status = "pass" if passed else "FAIL"
    print(f"{cfg.experiment}: {status} (artifacts in {out})")
    if not passed:
        _print_failures(summary)
    if cfg.strict and not passed:
        return EXIT_ASSERTION
    return EXIT_OK


def _print_failures(summary: dict) -> None:
    checks = summary.get("checks", [summary])
    for c in checks:
        if not c.get("passed", True):
            print(f"  failed: {c.get('name', '?')}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gmnslab",
        description="Spectral Galerkin experiments for cutoff-modified "
        "Navier-Stokes dynamics with OU forcing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the root seed")
        p.add_argument("--out", help="output directory")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", action="store_true",
                          help="assertions enforced (default)")
        mode.add_argument("--exploratory", action="store_true",
                          help="assertions reported, not enforced")
    args = parser.parse_args(argv)

    try:
        raw = read_config(args.config) if args.config else {"experiment": args.command}
        # the overrides are config fields: resolve_config checks them as such
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.strict or args.exploratory:
            raw["assertion_mode"] = "strict" if args.strict else "exploratory"
        cfg = resolve_config(raw)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config file is for experiment {cfg.experiment!r}, "
                f"but the command is {args.command!r}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return run_experiment(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
