"""Acceptance gate: the quantitative exit criteria at their stated sizes.

Each test prints one pass/fail line (run with -s to stream them).  Tolerance
and case-count constants below are pinned; they are the contract, not
tunables.
"""

import math
import os
import time

import numpy as np
import pytest

from gmnslab import cli
from gmnslab import experiments as ex
from gmnslab import integrate as it
from gmnslab import noise as nz
from gmnslab import spectral as sp
from gmnslab.seeding import labeled_generator


def report(num: int, label: str, passed: bool, detail: str, elapsed: float,
           budget: float) -> None:
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_c01_cutoff_lemma_suite():
    t0 = time.time()
    rep = ex.check_cutoff_lemma(kmax=2, n_pairs=10_000, seed=101, tol=1e-14)
    report(1, "cutoff lemma", rep.passed and rep.violations == 0,
           f"{rep.cases} stratified pairs, {rep.violations} violations, "
           f"worst margin {rep.worst_margin:.2e}", time.time() - t0, 10.0)


def test_c02_trilinear_identities():
    t0 = time.time()
    rep = ex.check_trilinear(kmax=2, n_triples=1000, seed=102, tol=1e-12)
    report(2, "trilinear identities", rep.passed,
           f"{rep.cases} triples, worst margin {rep.worst_margin:.2e}",
           time.time() - t0, 30.0)


def test_c03_monotonicity_gap():
    t0 = time.time()
    rep = ex.check_monotonicity(kmax=2, n_triples=1000, seed=103,
                                nus=(0.5, 1.0, 2.0), levels=(0.5, 1.0, 2.0))
    report(3, "monotonicity gap", rep.passed,
           f"{rep.cases} triples over 9 parameter pairs, worst margin "
           f"{rep.worst_margin:.2e}", time.time() - t0, 120.0)


def test_c04_energy_equality_refinement():
    t0 = time.time()
    basis = sp.build_basis(2)
    spec = nz.NoiseSpectrum(s=1.0, amplitude=0.5)
    x = sp.random_field(basis, labeled_generator(104, "ic"), norm=1.0)
    horizon = 4.0
    dts = [1 / 32, 1 / 64, 1 / 128, 1 / 256]
    path = nz.make_path(104, dts[-1], 0.0, horizon, spec, basis)
    residuals = []
    for dt in dts:
        p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=dt, t_final=horizon,
                         kmax=2, noise=spec, dt_path=dts[-1])
        traj = it.solve(x, path, p, record_every=1 << 30)
        residuals.append(abs(traj.ledger.residual[-1]))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = all(3.2 <= r <= 4.8 for r in ratios)
    report(4, "energy equality order", ok,
           f"residuals {['%.3e' % r for r in residuals]}, halving ratios "
           f"{['%.2f' % r for r in ratios]} (target 4 +/- 20%)",
           time.time() - t0, 300.0)


def test_c05_chi_independence_refinement():
    t0 = time.time()
    basis = sp.build_basis(2)
    spec = nz.NoiseSpectrum(s=1.0, amplitude=0.5)
    x = sp.random_field(basis, labeled_generator(105, "ic"), norm=1.0)
    horizon = 1.0
    dts = [1 / 128, 1 / 256, 1 / 512, 1 / 1024]
    sups, u_scale = [], 1.0
    for dt in dts:
        path = nz.make_path(105, dt, 0.0, horizon, spec, basis)
        p = it.SimParams(nu=1.0, level=1.0, dt=dt, t_final=horizon, kmax=2,
                         noise=spec, dt_path=dt)
        sups.append(it.chi_independence_sup(x, path, 0.0, 1.0, p))
        if dt == dts[-1]:
            traj = it.solve(x, path, p, record_every=1 << 30)
            u_scale = math.sqrt(float(traj.ledger.u_H2.max()))
    ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
    order = float(np.mean(np.log2(ratios)))
    rel = sups[-1] / u_scale
    ok = 1.6 <= order <= 2.4 and rel <= 1e-6
    report(5, "chi independence", ok,
           f"sup diffs {['%.2e' % s for s in sups]}, fitted order "
           f"{order:.2f}, final relative {rel:.2e} (<= 1e-6)",
           time.time() - t0, 300.0)


def test_c06_ou_stationarity():
    t0 = time.time()
    rep = ex.check_ou_stationarity(seed=106, n_samples=100_000, nu=1.0,
                                   chi=1.0, mc_fields=10_000,
                                   chis=(0.0, 1.0, 10.0, 100.0))
    e = rep.extra
    report(6, "OU stationarity", rep.passed,
           f"per-mode var {e['var_empirical']:.5f} vs {e['var_analytic']:.5f} "
           f"(se {e['var_se']:.1e}); E|z|_H^2 {e['h2_mc']:.4f} vs "
           f"{e['h2_analytic']:.4f}; chi sums decreasing "
           f"{[round(s, 4) for s in e['chi_sums']]}", time.time() - t0, 120.0)


def test_c07_shift_covariance():
    t0 = time.time()
    rep = ex.check_shift_covariance(seed=107, n_pairs=100, tol=1e-12)
    report(7, "shift covariance", rep.passed,
           f"{rep.cases} grid pairs, worst margin {rep.worst_margin:.2e} "
           "(agreement is bit-exact)", time.time() - t0, 60.0)


def test_c08_exponential_contraction():
    t0 = time.time()
    basis = sp.build_basis(2)
    p = it.SimParams(nu=4.0, level=1.0, chi=0.0, dt=1 / 256, t_final=4.0,
                     kmax=2, noise=nz.NoiseSpectrum(s=1.0, amplitude=1.0))
    gen = labeled_generator(108, "ic")
    x1 = sp.random_field(basis, gen, norm=1.0)
    x2 = sp.random_field(basis, gen, norm=0.5)
    rep = ex.contraction_experiment(p, x1, x2, ensemble=64, seed=108,
                                    record_every=16)
    assert rep.rate == pytest.approx(4.0 - 823543.0 / 67108864.0, rel=1e-12)
    report(8, "exponential contraction", rep.passed,
           f"rate {rep.rate:.5f}, fitted slope {rep.fitted_slope:.3f}, "
           f"64-path mean below envelope+3se at all "
           f"{len(rep.times)} output times: {rep.extra['below_envelope']}",
           time.time() - t0, 600.0)


def test_c09_large_cutoff_limit():
    t0 = time.time()
    basis = sp.build_basis(2)
    x = sp.random_field(basis, labeled_generator(109, "ic"), norm=2.0)
    p = it.SimParams(nu=1.0, level=1.0, dt=1 / 256, t_final=8.0, kmax=2,
                     noise=nz.NoiseSpectrum(amplitude=0.0))
    rep = ex.nse_limit_experiment(x, p, multipliers=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    detail = (
        f"i_n within bound: {rep.extra['bound_ok']}; "
        f"int|1-F| nonincreasing: {rep.extra['ints_monotone']}; "
        f"L2 gap nonincreasing: {rep.extra['errs_monotone']}; "
        f"largest level exact zero: {rep.extra['largest_level_exact']}"
    )
    report(9, "large-cutoff limit", rep.passed, detail, time.time() - t0, 600.0)


def test_c10_mixing_proxy():
    t0 = time.time()
    basis = sp.build_basis(2)
    p = it.SimParams(nu=4.0, level=1.0, chi=0.0, dt=1 / 128, t_final=1.0,
                     kmax=2, noise=nz.NoiseSpectrum(s=1.0, amplitude=1.0))
    rate = p.nu * p.lambda_p
    ics = {
        "zero": sp.zero_field(basis),
        "big": sp.random_field(basis, labeled_generator(110, "ic"), norm=10.0),
    }
    rep = ex.invariant_measure_sampler(
        p, ics, burn_in=5.0 / rate, horizon=200.0 / rate, seed=110,
        sigma_band=3.0,
    )
    a, b = rep.averages["u_H2"]["zero"], rep.averages["u_H2"]["big"]
    comb = math.hypot(rep.stderrs["u_H2"]["zero"], rep.stderrs["u_H2"]["big"])
    report(10, "mixing proxy", rep.passed,
           f"time-averaged |u|_H^2: {a:.4f} vs {b:.4f}, gap "
           f"{abs(a - b):.4f} <= 3*combined se {3 * comb:.4f}",
           time.time() - t0, 900.0)


def test_c11_determinism(tmp_path):
    t0 = time.time()
    import json

    raw = {
        "experiment": "simulate",
        "seed": 111,
        "params": {"nu": 1.0, "level": 1.0, "chi": 1.0, "dt": 1 / 128,
                   "t_final": 1.0, "kmax": 2,
                   "noise": {"s": 1.0, "amplitude": 1.0}},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = cli.main(["simulate", "--config", str(cfg), "--out", out_a])
    code_b = cli.main(["simulate", "--config", str(cfg), "--out", out_b])
    identical = code_a == code_b == 0
    names = ["config.json", "summary.json", "trajectory.csv",
             "path_manifest.json", "checkpoint.json"]
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa, \
             open(os.path.join(out_b, name), "rb") as fb:
            identical = identical and fa.read() == fb.read()
    report(11, "determinism", identical,
           f"repeated run produced byte-identical artifacts ({len(names)} files)",
           time.time() - t0, 120.0)
