"""Scripted numerical experiments reproducing the model's quantitative claims.

Desk-scale reproductions of the provable structure of the cutoff-modified
system: property fuzzing of the cutoff lemma, the trilinear identities and
the monotonicity gap; exponential contraction of coupled solutions above the
viscosity threshold; pullback absorption; the large-cutoff limit toward the
unmodified truncated Navier-Stokes dynamics; and invariant-measure sampling
with a mixing check across initial states, marched in tiles of one stacked
solve as the contraction members are.  Every experiment is deterministic in
(seed, options) and reports pass/fail per assertion plus plot-ready series.

The fuzz suites run their cases in tiles (see `_fuzz`): one stacked call
per quantity of a tile, then one pass over Python floats, through the
cutoff module's float formulas, for every per-case scalar, so that each
case is bit for bit its single-field evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cutoff as co
from . import integrate as it
from . import noise as nz
from . import spectral as sp
from .seeding import derive_key, labeled_generator


# ---- closed-form constants -------------------------------------------------


def stability_threshold(level: float, lambda_p: float) -> float:
    """Viscosity above which the contraction rate is positive:
    (7*level/2) * (1/(112*lambda))^(1/8)."""
    if level <= 0 or lambda_p <= 0:
        raise ValueError("need level > 0 and lambda_p > 0")
    return 3.5 * level * (1.0 / (112.0 * lambda_p)) ** 0.125


def contraction_rate(nu: float, level: float, lambda_p: float) -> float:
    """nu*lambda - 2*eta = nu*lambda - 7^7 * level^8 / (2^12 * nu^7), with eta
    the monotonicity constant `CutoffParams.eta`; positive above threshold."""
    return nu * lambda_p - 2 * co.CutoffParams(level, nu).eta


def _fields_and_extra(report, *omit: str) -> dict:
    """A report's fields but `extra` and `omit`, then the entries of `extra`."""
    return {**{k: v for k, v in vars(report).items() if k not in ("extra", *omit)},
            **report.extra}


# ---- property-check suites --------------------------------------------------


@dataclass
class CheckReport:
    name: str
    cases: int
    violations: int
    worst_margin: float
    passed: bool
    rows: list = field(default_factory=list, repr=False)
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return _fields_and_extra(self, "rows")

    def columns(self) -> dict:
        return dict(zip(("case", "seed", "lhs", "rhs", "margin"), zip(*self.rows)))


def _draw_fields(basis: sp.GalerkinBasis, rngs: list, spans: tuple) -> np.ndarray:
    """(len(rngs), len(spans), n, 2) coefficients, from each generator in turn
    a field per span as random_field(basis, rng, norm=rng.uniform(*span)), the
    norm drawn as lo + (hi - lo) * rng.random(), numpy's own formula for
    uniform: its bits without the call's argument handling."""
    normals = np.empty((len(rngs), len(spans), 2, basis.n_half_modes, 2))
    norms = np.empty(normals.shape[:2])
    for i, rng in enumerate(rngs):
        for j, (lo, hi) in enumerate(spans):
            norms[i, j] = lo + (hi - lo) * rng.random()
            rng.standard_normal(out=normals[i, j])
    return sp.random_coeffs(basis, normals, norm=norms)


@functools.lru_cache(maxsize=4)
def _tile_work(name: str, kmax: int, size: int) -> dict:
    """The work dict of a suite's tiles of `size` cases at kmax, kept past the
    call (the four latest), so that a suite called again reuses its transform
    stages instead of allocating and faulting them in afresh.  Only tiles of
    several cases keep one, as their grids fit TILE_GRID_BYTES; a single case
    may not, and its stages go with the call."""
    return {}


def _even_tiles(n: int, tile: int) -> list[range]:
    """range(n) in the fewest tiles of at most `tile`, as even as possible,
    larger first."""
    tiles = -(-n // tile)
    q, r = divmod(n, tiles or 1)
    return [range(i * q + min(i, r), (i + 1) * q + min(i + 1, r)) for i in range(tiles)]


def _fuzz(name: str, kmax: int, cases: int, seed: int, tile: int, evaluate) -> CheckReport:
    """A fuzz suite's report, its cases in order in `_even_tiles` of at most
    `tile`: evaluate(cases, work) draws and evaluates the case indices (a
    range) of a tile, with the work dict of its size, and gives per case (row
    id, lhs, rhs, margin, lowest margin, violations, kept) as Python numbers."""
    rows, violations, worst, work = [], 0, math.inf, {}
    for span in _even_tiles(cases, tile):
        if tile > 1:
            work = _tile_work(name, kmax, len(span))
        for j, lhs, rhs, margin, low, bad, keep in evaluate(span, work):
            violations += bad
            worst = min(worst, low)
            if keep:
                rows.append((j, seed, lhs, rhs, margin))
    return CheckReport(name, cases, violations, worst, violations == 0, rows)


def check_cutoff_lemma(kmax: int = 2, n_pairs: int = 10_000, seed: int = 0,
                       level: float = 1.0, tol: float = 1e-14) -> CheckReport:
    """Fuzz the two cutoff-lemma inequalities over stratified field pairs.

    Pairs are rescaled so the four branch combinations (each L4 norm below
    or above the cutoff level) are all exercised; the product bound must
    hold exactly and the Lipschitz bound up to tol.  A tile's L4 norms are two
    stacks, of the drawn pairs and then the rescaled pairs and differences.
    """
    basis = sp.build_basis(kmax)
    rng = labeled_generator(seed, "cutoff-lemma")

    def tile(cases, work):
        # per pair u and v, then its (lo_u, hi_u, lo_v, hi_v)
        normals = np.empty((len(cases), 2, 2, basis.n_half_modes, 2))
        bounds = np.empty((len(cases), 4))
        for i in range(len(cases)):
            rng.standard_normal(out=normals[i])
            # scalar draws with the bits of rng.uniform(lo, hi) (see _draw_fields)
            bounds[i] = [lo + (hi - lo) * rng.random()
                         for lo, hi in ((0.05, 0.95), (1.05, 8.0)) * 2]
        bounds *= level
        pick = np.array([(0, 2), (1, 3), (0, 3), (1, 2)])[np.remainder(cases, 4)]  # branches
        target = np.take_along_axis(bounds, pick, 1)
        uv = sp.random_coeffs(basis, normals)
        uv *= (target / sp.norm_L4(uv, basis, work.setdefault("drawn", {})))[..., None, None]
        norms = sp.norm_L4(np.concatenate([uv, uv[:, :1] - uv[:, 1:]], axis=1), basis,
                           work.setdefault("rescaled", {}))
        for j, (ru, rv, ruv) in zip(cases, norms.tolist()):
            prod = co.product_bound(ru, level)
            lhs, rhs = co.lipschitz_sides(ru, rv, ruv, level)
            over, margin = lhs > rhs + tol, rhs + tol - lhs
            yield (j, lhs, rhs, margin, min(margin, level - prod),
                   (not 0.0 <= prod <= level) + over, over or j < 512)

    return _fuzz("cutoff_lemma", kmax, n_pairs, seed, member_tile(basis, 5 * 3), tile)


def check_trilinear(kmax: int = 2, n_triples: int = 1000, seed: int = 1,
                    tol: float = 1e-12) -> CheckReport:
    """Skew symmetry b(u,v,v) = 0 and antisymmetry in the last two slots; a
    tile's b are one trilinear form on the Jacobians of v and w."""
    basis = sp.build_basis(kmax)
    rng = labeled_generator(seed, "trilinear")

    def tile(cases, work):
        uvw = _draw_fields(basis, [rng] * len(cases), ((0.5, 2.0),) * 3)
        vw = uvw[:, 1:]  # b[:, i, j] = b(u, (v, w)[i], (v, w)[j])
        b = sp.trilinear_b(uvw[:, :1, None], vw[:, :, None], vw[:, None], basis, work)
        for j, ((b_vv, b_vw), (b_wv, _)), (nu, nv, nw) in zip(
                cases, b.tolist(), sp.norm_V(uvw, basis).tolist()):
            skew, skew_cap = abs(b_vv), tol * nu * nv ** 2
            margin = min(skew_cap - skew, tol * nu * nv * nw - abs(b_vw + b_wv))
            yield j, skew, skew_cap, margin, margin, margin < 0, margin < 0 or j < 512

    return _fuzz("trilinear_identities", kmax, n_triples, seed,
                 member_tile(basis, 2 * 12 + 2 * 3), tile)


def check_monotonicity(kmax: int = 2, n_triples: int = 1000, seed: int = 2,
                       nus: tuple = (0.5, 1.0, 2.0),
                       levels: tuple = (0.5, 1.0, 2.0)) -> CheckReport:
    """Monotonicity gap >= -tolerance over a (nu, level) grid, each point's triples
    from its own generator; a tile may span points, each B_F at its point's level."""
    basis = sp.build_basis(kmax)
    params = [co.CutoffParams(level, nu) for nu in nus for level in levels]
    rngs = [labeled_generator(seed, f"monotonicity-{p.nu}-{p.level}") for p in params]

    def tile(cases, work):
        point = [j // n_triples for j in cases]
        v1, v2, z = _draw_fields(basis, [rngs[p] for p in point],
                                 ((0.2, 3.0), (0.2, 3.0), (0.0, 2.0))).transpose(1, 0, 2, 3)
        level = np.array([params[p].level for p in point])
        bf = co.cutoff_advection_coeffs(basis, np.stack([v1 + z, v2 + z], axis=1),
                                        level[:, None], work)[0]
        d = v1 - v2
        pair = sp.inner_coeffs(bf[:, 0] - bf[:, 1], d).tolist()
        nv1, nv2, nv = sp.norm_V(np.stack([v1, v2, d], axis=1), basis).T.tolist()
        nh = sp.norm_H(d, basis).tolist()
        for i, j in enumerate(cases):
            gap = co.gap_of_terms(params[point[i]], pair[i], nv[i], nh[i])
            tol = co.tolerance_of_norms(nv1[i], nv2[i])
            yield (j + 1, gap, -tol, gap + tol, gap + tol, gap < -tol,
                   gap < -tol or j % n_triples < 64)

    return _fuzz("monotonicity_gap", kmax, len(rngs) * n_triples, seed,
                 member_tile(basis, 2 * 12), tile)


def check_ou_stationarity(
    seed: int = 3, n_samples: int = 100_000, nu: float = 1.0, chi: float = 1.0,
    mc_fields: int = 10_000, chis: tuple = (0.0, 1.0, 10.0, 100.0),
) -> CheckReport:
    """Exact-transition stationarity: per-mode variance against
    sigma^2/(2*mu) over a long single-coordinate run, Monte Carlo
    E|z|_H^2 against the closed-form mode sum, and monotonicity in chi."""
    basis = sp.build_basis(1)
    spectrum = nz.NoiseSpectrum()
    # decorrelated sampling: the solver's own transition, one path cell of
    # lag 2.5/mu per sample, read at the cos coordinate of the first
    # polarization of the first half-space mode (0,0,1), where |k|^2 = 1
    mu = nu * 1.0 + chi
    lag = 2.5 / mu
    path = nz.make_path(seed, lag, 0.0, (n_samples + 1) * lag, spectrum, basis)
    cursor = nz.OUCursor(path, chi, nu)
    series = np.fromiter((cursor.advance_to(i * lag)[0, 0].real
                          for i in range(1, n_samples + 1)), float, n_samples)
    var_emp = float(series.var())
    var_true = 1.0 / (2.0 * mu)
    rho = math.exp(-mu * lag)
    # variance-estimator stderr for a Gaussian AR(1) sequence
    se = var_true * math.sqrt(2.0 * (1.0 + rho * rho) / (1.0 - rho * rho) / n_samples)
    ok_var = abs(var_emp - var_true) <= 5.0 * se

    rng = labeled_generator(seed, "ou-mc")
    h2 = np.empty(mc_fields)
    for i in range(mc_fields):
        h2[i] = sp.norm_H(nz.ou_stationary_sample(spectrum, chi, nu, basis, rng)) ** 2
    analytic = nz.stationary_mean_H2(spectrum, chi, nu, basis)
    se_mc = float(h2.std(ddof=1) / math.sqrt(mc_fields))
    ok_mc = abs(float(h2.mean()) - analytic) <= 5.0 * se_mc

    sums = [nz.stationary_mean_H2(spectrum, c, nu, basis) for c in chis]
    ok_mono = all(sums[i] > sums[i + 1] for i in range(len(sums) - 1))
    # the monotone decay must also show up in sampled energies, not just in
    # the closed form
    mc_rng = labeled_generator(seed, "ou-mc-chi")
    n_mono = max(500, mc_fields // 5)
    mc_sums = []
    for c in chis:
        vals = np.fromiter(
            (sp.norm_H(nz.ou_stationary_sample(spectrum, c, nu, basis, mc_rng)) ** 2
             for _ in range(n_mono)),
            dtype=float, count=n_mono,
        )
        mc_sums.append(float(vals.mean()))
    ok_mono_mc = all(mc_sums[i] > mc_sums[i + 1] for i in range(len(mc_sums) - 1))

    violations = (int(not ok_var) + int(not ok_mc) + int(not ok_mono)
                  + int(not ok_mono_mc))
    extra = {
        "var_empirical": var_emp, "var_analytic": var_true, "var_se": se,
        "h2_mc": float(h2.mean()), "h2_analytic": analytic, "h2_se": se_mc,
        "chi_sums": sums, "chi_sums_mc": mc_sums,
    }
    worst = min(5 * se - abs(var_emp - var_true), 5 * se_mc - abs(float(h2.mean()) - analytic))
    return CheckReport("ou_stationarity", n_samples + mc_fields, violations,
                       worst, violations == 0, extra=extra)


def check_shift_covariance(
    seed: int = 4, n_pairs: int = 100, kmax: int = 1,
    nu: float = 1.0, chi: float = 0.5, tol: float = 1e-12,
) -> CheckReport:
    """z(shifted path)(t) == z(path)(t+s) for random grid pairs (s, t)."""
    basis = sp.build_basis(kmax)
    spectrum = nz.NoiseSpectrum()
    dt = 1.0 / 64
    path = nz.make_path(seed, dt, 0.0, 8.0, spectrum, basis)
    rng = labeled_generator(seed, "shift-pairs")

    def pairs(cases, work):
        for case in cases:
            s, t = int(rng.integers(0, 256)) * dt, int(rng.integers(0, 256)) * dt
            lhs, rhs = nz.ou_shift_covariance_pair(path, s, t, chi, nu)
            diff = float(np.abs(lhs.coeffs - rhs.coeffs).max())
            yield case, diff, tol, tol - diff, tol - diff, diff > tol, True

    return _fuzz("shift_covariance", kmax, n_pairs, seed, max(1, n_pairs), pairs)


# ---- exponential contraction ------------------------------------------------


@dataclass
class ContractionReport:
    ensemble: int
    times: np.ndarray
    mean_sq: np.ndarray
    stderr: np.ndarray
    envelope: np.ndarray
    rate: float
    fitted_slope: float | None  # None: fewer than two record times to fit
    passed: bool
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"name": "contraction", "rate_theoretical": self.rate,
                **_fields_and_extra(self, "times", "mean_sq", "stderr", "envelope", "rate")}

    def columns(self) -> dict:
        return {"t": self.times.tolist(), "mean_sq_diff": self.mean_sq.tolist(),
                "stderr": self.stderr.tolist(), "envelope": self.envelope.tolist()}


# Byte budget of one tile's stacked grids and Jacobians (12 real M^3 grids per
# field, 3 without its Jacobian; a contraction member has 2 fields, a measure
# state 1): members march, and fuzz cases run, in tiles of as many as fit, at
# least one.  Measured per-member B_F cost of the contraction against the
# stack size (CHANGES.md): it falls down to 8 fields at kmax 2 (560 KB of
# grids, so 4 members per tile), keeps falling to 16 and more at kmax 1 (27
# per tile) and is flat at kmax 3 (1 per tile).
TILE_GRID_BYTES = 640 * 2**10


def member_bytes(params: it.SimParams, fields: int, ledger: bool = True) -> float:
    """Bytes one member of a march over [0, params.t_final] holds: its path
    table, plus the ledger of its fields when the march keeps one."""
    steps = round(params.t_final / params.dt) + 1
    ledger_bytes = 8 * steps * fields * it.LEDGER_STEP_FLOATS if ledger else 0
    return nz.path_table_bytes(params.t_final / params.dt_path, params.kmax) + ledger_bytes


def member_tile(basis: sp.GalerkinBasis, grids: int, nbytes: float = 0.0) -> int:
    """Members of `grids` real M^3 grids each per tile: as many as fit in
    TILE_GRID_BYTES and, holding nbytes each (`member_bytes`), whose bytes
    fit noise.PATH_TABLE_CEILING together; at least one."""
    tile = TILE_GRID_BYTES // (grids * 8 * basis.grid_size**3)
    if nbytes:
        tile = min(tile, nz.PATH_TABLE_CEILING // nbytes)
    return max(1, int(tile))


def _march_tiles(params: it.SimParams, x: np.ndarray, seed: int, label: str, **solve_kw):
    """Yield (first member, stacked solve) for each tile of the members'
    start velocities x, (members, P, n_half_modes, 2): member m marches on
    its own path over [0, params.t_final], keyed derive_key(seed,
    f"{label}-{m}"), in `_even_tiles` of at most `member_tile` members, one
    group each.  Every tile marches on one stepper, whose work dict is
    allocated once for the larger tiles and once more for the smaller.  An
    InstabilityError names the member, not its place in the tile."""
    basis = params.basis()
    P = x.shape[1]
    tile = member_tile(basis, 12 * P, member_bytes(params, P, solve_kw.get("ledger", True)))
    stepper = it._Stepper(params)
    for span in _even_tiles(len(x), tile):
        # each tile's paths are built here and dropped with the tile
        paths = [nz.make_path(derive_key(seed, f"{label}-{m}"), params.dt_path, 0.0,
                              params.t_final, params.noise, basis) for m in span]
        try:
            traj = it.solve(x[span.start:span.stop], paths, params, stepper=stepper, **solve_kw)
        except it.InstabilityError as exc:
            exc.member = (exc.member or 0) + span.start  # a tile of one field names none
            raise
        yield span.start, traj


def contraction_experiment(
    params: it.SimParams,
    x1: sp.SpectralField,
    x2: sp.SpectralField,
    ensemble: int = 64,
    seed: int = 0,
    record_every: int = 4,
) -> ContractionReport:
    """Coupled two-solution decay along shared paths, against the envelope
    |x1 - x2|_H^2 * exp(-rate * t) with rate = nu*lambda - 7^7 N^8/(2^12 nu^7).

    The ensemble mean must stay below envelope + 3 stderr at every recorded
    time and the fitted log-slope over the second half of the horizon must
    be at least as negative as the theoretical rate (up to fit error).
    The standard error needs ensemble >= 2.  The report records the
    stability threshold; the strict config demands nu above it.
    """
    if ensemble < 2:
        raise ValueError(f"ensemble={ensemble}: the standard error needs >= 2 members")
    rate = contraction_rate(params.nu, params.level, params.lambda_p)

    x = np.broadcast_to(np.stack([x1.coeffs, x2.coeffs]), (ensemble, 2, *x1.coeffs.shape))
    # |v1 - v2|_H^2 = |u1 - u2|_H^2 (z cancels on a shared path) at the record steps
    n_steps = round(params.t_final / params.dt)
    steps = sorted({*range(0, n_steps + 1, record_every), n_steps})
    recorded, rows, sq = set(steps), [], []

    def observe(k, v, z):
        if k in recorded:
            rows.append(sp.h2_coeffs(v[:, 0] - v[:, 1]))

    for _ in _march_tiles(params, x, seed, "member", ledger=False, observe=observe):
        sq.append(np.array(rows).T)
        rows.clear()
    sq = np.concatenate(sq)
    times = np.array([k * params.dt for k in steps])
    mean_sq = sq.mean(axis=0)
    stderr = sq.std(axis=0, ddof=1) / math.sqrt(ensemble)
    envelope = sp.norm_H(x1 - x2) ** 2 * np.exp(-rate * times)
    # 1e-12 relative allowance: at t = 0 the coupled difference equals the
    # envelope exactly up to the rounding of the layer subtraction
    below = bool(np.all(mean_sq <= envelope * (1.0 + 1e-12) + 3.0 * stderr))

    # decay slope from the second half of the horizon; with fewer than two
    # record times there is no slope, and the slope check fails
    half = times >= 0.5 * times[-1]
    slope = slope_se = None
    slope_ok = False
    if half.sum() >= 2:
        logm = np.log(np.maximum(mean_sq[half], 1e-300))
        slope, intercept = np.polyfit(times[half], logm, 1)
        fit_res = logm - (slope * times[half] + intercept)
        t_c = times[half] - times[half].mean()
        slope_se = float(np.sqrt((fit_res**2).sum() / max(1, len(logm) - 2)
                                 / (t_c**2).sum()))
        slope = float(slope)
        slope_ok = bool(slope <= -rate + max(3.0 * slope_se, 0.05 * abs(rate)))
    passed = below and slope_ok
    return ContractionReport(
        ensemble, times, mean_sq, stderr, envelope, rate, slope, passed,
        extra={"threshold": stability_threshold(params.level, params.lambda_p),
               "below_envelope": below,
               "slope_ok": bool(slope_ok), "slope_se": slope_se},
    )


# ---- pullback absorption -----------------------------------------------------


@dataclass
class PullbackReport:
    pullback_times: list
    radii: dict
    ic_terms: dict
    absorbing_bound: float
    family_gap: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"name": "pullback_absorption", **_fields_and_extra(self, "ic_terms")}

    def columns(self) -> dict:
        return {"pullback_time": list(map(float, self.pullback_times)),
                **{f"radius_{n}": list(map(float, r)) for n, r in self.radii.items()},
                **{f"ic_term_{n}": list(map(float, r)) for n, r in self.ic_terms.items()}}


def pullback_absorption(
    params: it.SimParams,
    pullback_times: list[float],
    x_family: dict[str, sp.SpectralField],
    seed: int = 0,
    family_tol: float = 1e-6,
) -> PullbackReport:
    """Solve from -t_m to 0 on one two-sided path and record |u(0)|_H.

    The initial-data contribution decays like e^{-nu*lam*t_m}, so for large
    t_m different initial families land on the same path-dependent radius;
    the measured radii are also checked against the absorbing bound built
    from the explicit-constant energy inequality.
    """
    tms = sorted(pullback_times)
    basis = next(iter(x_family.values())).basis
    t_far = max(tms)
    if any(abs(round(t / params.dt) * params.dt - t) > 1e-9 for t in tms):
        raise ValueError("pullback times must be multiples of dt")
    path = nz.make_path(seed, params.dt_path, -t_far, params.dt, params.noise, basis)
    rate = params.nu * params.lambda_p

    names = list(x_family)
    radii = {name: [] for name in names}
    margins = []
    for tm in tms:
        stack = traj = None  # the previous time's ledger goes before this one is made
        # the families march as one group on the path
        stack = it.solve(tuple(x_family.values()), [path], params, t0=-tm, t_final=tm)
        for p, name in enumerate(names):
            traj = stack.member(0, p)
            radii[name].append(sp.norm_H(traj.v + traj.z, basis))
            margins.append(it.pullback_inequality_margin(params, traj.ledger))

    # absorbing bound kappa11 + kappa12 from the discrete analogues of the
    # radius functionals on the far window (the last solve ran over it)
    led = traj.ledger
    w = np.exp(rate * led.t)
    dens = it.dissipation_forcing_density(params, led)
    kappa11_sq = 2.0 + 2.0 * float((led.z_H2 * w).max()) + float(
        np.trapezoid(dens * w, led.t)
    )
    kappa12 = math.sqrt(led.z_H2[-1])
    bound = math.sqrt(kappa11_sq) + kappa12

    final = {n: radii[n][-1] for n in names}
    gap = max(abs(final[a] - final[b]) for a in names for b in names)
    within_bound = all(r[-1] <= bound for r in radii.values())
    geo = all(
        2 * sp.norm_H(x_family[n]) ** 2 * math.exp(-rate * tms[i + 1])
        < 2 * sp.norm_H(x_family[n]) ** 2 * math.exp(-rate * tms[i]) + 1e-30
        for n in names
        for i in range(len(tms) - 1)
    )
    passed = gap <= family_tol and within_bound and geo
    return PullbackReport(
        tms, radii,
        {n: [2 * sp.norm_H(x_family[n]) ** 2 * math.exp(-rate * tm) for tm in tms]
         for n in names},
        bound, gap, passed,
        extra={"within_bound": within_bound,
               "max_energy_margin": max(margins), "ic_decay_geometric": geo},
    )


# ---- large-cutoff limit ------------------------------------------------------


@dataclass
class NseLimitReport:
    levels: list
    i_n: list
    i_n_bound: list
    int_one_minus_f: list
    l2_err: list
    k_t: float
    l4_scale: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"name": "nse_limit", **_fields_and_extra(self)}

    def columns(self) -> dict:
        return {"level": self.levels, "i_n": self.i_n, "i_n_bound": self.i_n_bound,
                "int_one_minus_f": self.int_one_minus_f, "l2_err": self.l2_err}


def solve_nse(x: sp.SpectralField, params: it.SimParams
              ) -> tuple[it.Trajectory, it.SimParams, nz.WienerPath]:
    """(trajectory, params, zero-noise path) of the unmodified truncated
    Navier-Stokes run: no cutoff, noise or damping."""
    p = replace(params, level=math.inf, chi=0.0,
                noise=replace(params.noise, amplitude=0.0))
    path = nz.make_path(0, p.dt_path, 0.0, p.t_final, p.noise, x.basis)
    return it.solve(x, path, p), p, path


def nse_limit_experiment(
    x: sp.SpectralField,
    params: it.SimParams,
    multipliers: tuple = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
) -> NseLimitReport:
    """Deterministic cutoff sweep: as the level grows the modified runs merge
    with the unmodified one; the active-set measure obeys its a priori bound.

    The levels scale with the unmodified run, which marches first and of
    which only that scale is kept; they then march as one (1, L + 1) stack
    on its zero-noise path, each field's level held by the stack's stepper
    (the stack's params.level is inf), the last field the unmodified run
    again at level inf, where F = 1 makes it bit for bit the first march,
    and each level's |v_level - v_star|_H^2 is taken against it at every
    step, as the stack marches.

    i_n is the grid measure of {t: |u(t)|_L4 >= level}; its bound is
    (K_T / level^2)^(4/3) with K_T = max(1, 1/nu) (|x|_H^2 + T |f|_dual^2/nu)
    from the discrete a priori estimate.
    """
    star, p, path = solve_nse(x, params)
    l4_scale = float(star.ledger.u_L4.max())
    del star  # its ledger is not held through the stack's march
    if l4_scale == 0.0:
        raise ValueError(
            "the unmodified run stays at the zero field (zero initial field and "
            "no forcing), so there is no L4 scale to set the cutoff levels by"
        )
    levels = [m * l4_scale for m in multipliers]
    T = params.t_final
    k_t = max(1.0, 1.0 / params.nu) * (
        sp.norm_H(x) ** 2 + T * params.forcing_dual_norm() ** 2 / params.nu
    )
    # without noise z(0) is +0.0, so each field starts at x bit for bit
    stacked = [*levels, math.inf]
    stepper = it._Stepper(p, level=np.array(stacked))
    err_sq = np.empty((round(T / p.dt) + 1, len(levels)))

    def observe(k, v, z):
        err_sq[k] = sp.h2_coeffs(v[0, :-1] - v[0, -1])

    try:
        stack = it.solve((x,) * len(stacked), [path], p, stepper=stepper, observe=observe)
    except it.InstabilityError as exc:  # the level, not its place in the stack
        exc.member, exc.message = None, f"cutoff level {stacked[exc.field]:.6g}: {exc.message}"
        raise

    i_ns, bounds, ints, ints_p, errs = [], [], [], [], []
    for i, level in enumerate(levels):
        traj = stack.member(0, i)
        led = traj.ledger
        i_n = params.dt * float((led.u_L4 >= level).sum())
        i_ns.append(i_n)
        bounds.append((k_t / level**2) ** (4.0 / 3.0))
        one_minus_f = 1.0 - led.cutoff
        ints.append(float(np.trapezoid(one_minus_f, led.t)))
        ints_p.append(float(np.trapezoid(one_minus_f ** 2, led.t)))
        errs.append(math.sqrt(float(np.trapezoid(err_sq[:, i], led.t))))

    bound_ok = all(i <= b for i, b in zip(i_ns, bounds))
    ints_mono = all(ints[i] >= ints[i + 1] - 1e-12 for i in range(len(ints) - 1))
    errs_mono = all(errs[i] >= errs[i + 1] - 1e-12 for i in range(len(errs) - 1))
    exact_zero = errs[-1] == 0.0
    # higher powers of |1 - F| are dominated since 0 <= 1 - F <= 1
    powers_ok = all(p <= v + 1e-15 for p, v in zip(ints_p, ints))
    passed = bound_ok and ints_mono and errs_mono and exact_zero and powers_ok
    return NseLimitReport(
        levels, i_ns, bounds, ints, errs, k_t, l4_scale, passed,
        extra={"bound_ok": bound_ok, "ints_monotone": ints_mono,
               "errs_monotone": errs_mono, "largest_level_exact": exact_zero,
               "int_one_minus_f_sq": ints_p, "powers_dominated": powers_ok},
    )


# ---- invariant-measure sampling ----------------------------------------------


class HorizonError(RuntimeError):
    """Raised when the mixing estimate deems the horizon insufficient."""


MEASURE_BATCHES = 20  # batch-means batches of the measure's standard errors


@dataclass
class MeasureReport:
    observables: list
    burn_in: float
    horizon: float
    averages: dict
    stderrs: dict
    autocorr_times: dict
    passed: bool
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"name": "invariant_measure", **_fields_and_extra(self)}

    def columns(self) -> dict:
        rows = [(obs, name, avg, self.stderrs[obs][name])
                for obs in self.observables for name, avg in self.averages[obs].items()]
        return dict(zip(("observable", "initial", "average", "stderr"), zip(*rows)))


def _integrated_autocorr(series: np.ndarray, dt: float) -> float:
    x = series - series.mean()
    n = len(x)
    v = float((x * x).mean())
    if v == 0.0:
        return 0.0
    tau = 0.5
    for lag in range(1, min(n - 1, 2000)):
        rho = float((x[:-lag] * x[lag:]).mean()) / v
        if rho <= 0.0:
            break
        tau += rho
    return 2.0 * tau * dt


def invariant_measure_sampler(
    params: it.SimParams,
    initial_set: dict[str, sp.SpectralField],
    burn_in: float,
    horizon: float,
    seed: int = 0,
    n_batches: int = MEASURE_BATCHES,
    sigma_band: float = 3.0,
) -> MeasureReport:
    """Long-run time averages of |u|_H^2, |u|_V^2, |u|_L4 per initial state.

    Each initial state runs on an independent path, marched in tiles of one
    stacked solve; agreement of the time averages within combined
    batch-means standard errors is the mixing check.  Raises ValueError for
    a horizon under n_batches steps and HorizonError when the estimated
    integrated autocorrelation time exceeds horizon/20.  The report records
    the stability threshold; the strict config demands nu above it.
    """
    if horizon < n_batches * params.dt:
        raise ValueError(f"horizon={horizon} is under n_batches={n_batches} steps of dt")
    observables = ["u_H2", "u_V2", "u_L4"]
    averages = {k: {} for k in observables}
    stderrs = {k: {} for k in observables}
    taus = {}
    p = replace(params, t_final=burn_in + horizon)
    names = list(initial_set)
    x = np.stack([xi.coeffs for xi in initial_set.values()])[:, None]
    for m0, traj in _march_tiles(p, x, seed, "measure"):
        for g, name in enumerate(names[m0:m0 + len(traj.v)]):
            led = traj.member(g, 0).ledger
            keep = led.t >= burn_in - 1e-12
            series = {key: getattr(led, key)[keep] for key in observables}
            taus[name] = _integrated_autocorr(series["u_H2"], params.dt)
            if taus[name] > horizon / 20.0:
                raise HorizonError(
                    f"autocorrelation time {taus[name]:.3g} exceeds horizon/20 "
                    f"for initial state '{name}'"
                )
            for key, vals in series.items():
                averages[key][name] = float(vals.mean())
                batches = np.array_split(vals, n_batches)
                bmeans = np.array([b.mean() for b in batches])
                stderrs[key][name] = float(bmeans.std(ddof=1) / math.sqrt(n_batches))

    ok = True
    for key in observables:
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                gap = abs(averages[key][a] - averages[key][b])
                comb = math.hypot(stderrs[key][a], stderrs[key][b])
                if gap > sigma_band * comb:
                    ok = False
    return MeasureReport(
        observables, burn_in, horizon, averages, stderrs, taus, ok,
        extra={"threshold": stability_threshold(params.level, params.lambda_p),
               "sigma_band": sigma_band},
    )
