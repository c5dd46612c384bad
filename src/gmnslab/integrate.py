"""Time integration of the transformed pathwise system.

After subtracting the stochastic layer z (the substitution v = u - z), the
dynamics is a deterministic evolution with random coefficients:

    dv/dt = -nu*A v - B_F(v + z) + chi*z + P f,      v(t0) = x - z(t0),

where B_F is the L4-cutoff advection.  The stiff Stokes part is diagonal, so
the stepper uses an exponential integrator exact for the linear flow and
second order overall (the two-stage ETD scheme of Cox & Matthews, JCP 176,
2002): with E = exp(-nu*lam*h), phi1(zh) = (1-E)/zh, phi2(zh) = (E-1+zh)/zh^2
for zh = nu*lam*h, and G(v, z) = -B_F(v+z) + chi*z + f,

    a      = E v_n + h phi1 G(v_n, z_n)
    v_next = a + h phi2 [G(a, z_next) - G(v_n, z_n)].

z is advanced by its exact transition through every path cell inside the
step, so the realized z trajectory is independent of the solver step size;
only the v-integration error refines.

There is one solve, `solve_transformed`: one loop steps this scheme, and
observes and records each step.  `solve` starts it from a velocity, the
entry point of every experiment.  The loop steps a stack (G, P) of fields:
G groups, each on its own path, and P fields per group that share its z,
one OU cursor for all groups.  One field is the (1, 1) stack.  A solve
holds no history: its `Trajectory` keeps the final state and the ledger,
and a caller that reads the steps in between passes `observe(k, v, z)`,
called at every step k = 0..n_steps with the stacked v (G, P, n, 2) and
z (G, 1, n, 2), to reduce them as the loop goes.  Each field's drift, L4
norm and cutoff factor, and each ledger entry, are computed as if it were
alone, so a stacked field is bit for bit its single solve.  A solve spans
params.t_final, and its one override is `level=`, a cutoff level per field.
The drift's stages keep their results in the work dict of its stack shape
(`spectral.stack_work`), allocated once.  With `ledger=False` a solve keeps
only the final state, for the runs that read nothing else (the contraction
ensemble).

The energy ledger records the terms of the energy balance

    |v(t)|_H^2 + 2 nu int |v|_V^2 + 2 int <B_F(v+z), v>
        = |v(t0)|_H^2 + 2 int <f, v> + 2 chi int (z, v),

with trapezoidal quadrature on the solver grid (same order as the stepper);
the cumulative defect of this identity is the scheme's convergence
diagnostic and decreases at second order under step refinement.  Its
columns per step are t, |v|_H^2, |v|_V^2, |u|_L4, the cutoff factor F,
|z|_H^2, |z|_L4, |u|_H^2, |u|_V^2 and the residual; the three pairings of
the flux are summed into the residual and not kept.  |u|_L4 and F come from
each step's drift.  The loop's v, z and B_F arrays are kept for a block of
steps (see `ledger_block`), and the norms (|z|_L4 among them) and pairings
of a block are one stacked call each, with the step as one more leading
axis; each entry is bit for bit its step's own call.  `EnergyLedger.columns`
gives one field's series to the CSV writer of the command line.

A checkpoint holds a one-field `Trajectory`'s final state (t_end, v, z)
with its params and path manifest: a complete state, from which a run
continued with its OU cursor started at the saved z is bit for bit the
uninterrupted one.  The package writes it; `tests/oracles.py` reads it back
and continues the run.

`SimParams` declares each parameter's rule beside its field and refuses a
bad value with "field 'params.<name>' must be <what>, got <value!r>".

The a priori bound and the pullback energy inequality are checked with the
explicit constants produced by the Young splits of the corresponding
estimates (see `dissipation_forcing_density`), not with guessed generic
constants.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .cutoff import cutoff_advection_coeffs
from .noise import (NON_NEGATIVE, POSITIVE, NoiseSpectrum, OUCursor, WienerPath, _finite,
                    _is_int, check_rules, rule)
from .spectral import (
    KMAX_CEILING,
    GalerkinBasis,
    SpectralField,
    build_basis,
    field_from_bytes,
    field_to_bytes,
    h2_coeffs,
    inner_coeffs,
    norm_dual,
    stack_work,
    v2_coeffs,
)


class InstabilityError(RuntimeError):
    """Raised when |v|_H exceeds the configured ceiling (dt too large).
    In a march of several fields, `member` (the group) and `field` locate
    the one that crossed it; a caller may renumber `member`."""

    def __init__(self, message: str, member: int | None = None, field: int = 0):
        super().__init__(message)
        self.message, self.member, self.field = message, member, field

    def __str__(self) -> str:
        if self.member is None:
            return self.message
        return f"member {self.member}, field {self.field}: {self.message}"


@dataclass(frozen=True)
class SimParams:
    """Every scalar of the evolution problem plus grid/step configuration.

    level is the L4 cutoff; math.inf disables the modification (plain
    truncated Navier-Stokes).  lambda_p is the Poincare constant and must
    equal the smallest Stokes eigenvalue of the basis (1 on this box).
    Solver steps must be integer multiples of dt_path so that path shifts
    and z-realizations are exact.  Each field declares its rule, which the
    constructor checks in field order (`noise.check_rules`): a value one
    refuses raises ValueError "field 'params.<name>' must be <what>, got
    <value!r>".  t_final >= dt names t_final, dt a whole multiple of
    dt_path names dt_path, and a forcing off kmax names forcing (after
    kmax's own rule).
    """

    nu: float = rule(*POSITIVE)
    level: float = rule(lambda x, p: x == math.inf or _finite(x) and x > 0,
                        "a finite number > 0, or inf for no cutoff")
    chi: float = rule(*NON_NEGATIVE, default=0.0)
    # |k|^2 = 1 at k = (0, 0, 1) for every kmax
    lambda_p: float = rule(lambda x, p: _finite(x) and x == 1.0,
                           "the Poincare constant 1.0 of the basis", default=1.0)
    dt: float = rule(*POSITIVE, default=1.0 / 256)
    t_final: float = rule(lambda x, p: _finite(x) and x >= p.dt,
                          "a finite number >= dt = {p.dt!r}", default=1.0)
    kmax: int = rule(lambda k, p: _is_int(k) and 1 <= k <= KMAX_CEILING,
                     f"an integer in [1, {KMAX_CEILING}]", default=2)
    forcing: SpectralField | None = rule(
        lambda f, p: f is None or isinstance(f, SpectralField)
        and f.basis.kmax == p.kmax and bool(np.isfinite(f.coeffs).all()),
        "null or a finite field on kmax {p.kmax!r}", default=None)
    noise: NoiseSpectrum = field(default_factory=NoiseSpectrum)
    # None takes dt; m = dt / dt_path must be a whole number >= 1 (to 1e-9)
    dt_path: float | None = rule(
        lambda x, p: _finite(x) and x > 0 and math.isfinite(m := p.dt / x)
        and abs(m - round(m)) <= 1e-9 and round(m) >= 1,
        "a finite number > 0 that divides dt = {p.dt!r} a whole number of times", default=None)
    instability_factor: float = rule(*POSITIVE, default=1e6)

    def __post_init__(self):
        if self.dt_path is None:
            object.__setattr__(self, "dt_path", self.dt)
        check_rules(self, "params.")

    @property
    def substeps(self) -> int:
        return int(round(self.dt / self.dt_path))

    def basis(self) -> GalerkinBasis:
        return build_basis(self.kmax)

    def forcing_dual_norm(self) -> float:
        return 0.0 if self.forcing is None else norm_dual(self.forcing)

    def to_dict(self) -> dict:
        """Every field, with level inf as "inf" and the forcing as base64 bytes."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["level"] = self.level if math.isfinite(self.level) else "inf"
        d["noise"] = asdict(self.noise)
        if self.forcing is not None:
            d["forcing"] = base64.b64encode(field_to_bytes(self.forcing)).decode()
        return d

    @staticmethod
    def from_dict(d: dict) -> "SimParams":
        """Inverse of to_dict; an omitted key takes the field's default.  The
        forcing is decoded on the basis of kmax once every other field's rule
        has held."""
        kw = {f.name: d[f.name] for f in fields(SimParams) if f.name in d}
        if kw.get("level") == "inf":
            kw["level"] = math.inf
        kw["noise"] = NoiseSpectrum(**kw.get("noise", {}))
        text = kw.pop("forcing", None)
        p = SimParams(**kw)
        if text is None:
            return p
        try:
            forcing = field_from_bytes(base64.b64decode(text), p.basis())
        except (ValueError, struct.error) as exc:
            raise ValueError(f"field 'params.forcing' must be base64 text of a field "
                             f"payload on kmax {p.kmax}, got one that is not: {exc}") from exc
        return replace(p, forcing=forcing)


@dataclass
class EnergyLedger:
    """Per-step record of the energy balance on the solver grid.

    residual[k] is the cumulative defect of the energy identity at t[k],
    with all integrals evaluated by the trapezoidal rule on the same grid
    the stepper used.  t has one entry per step; every other column has
    the stack axes of its trajectory after the step axis.
    """

    t: np.ndarray
    v_H2: np.ndarray
    v_V2: np.ndarray
    u_L4: np.ndarray
    cutoff: np.ndarray
    z_H2: np.ndarray
    z_L4: np.ndarray
    u_H2: np.ndarray
    u_V2: np.ndarray
    residual: np.ndarray

    def max_residual(self) -> float:
        return float(np.abs(self.residual).max())

    def columns(self) -> dict:
        """One field's series in the interchange column set, a row per step,
        as arrays: a list of Python floats would hold four times their bytes."""
        return {"t": self.t, "H_norm_v": np.sqrt(self.v_H2), "V_norm_v": np.sqrt(self.v_V2),
                "L4_norm_u": self.u_L4, "F_N": self.cutoff, "residual": self.residual,
                "H_norm_u": np.sqrt(self.u_H2)}


@dataclass
class Trajectory:
    """Solution record: the final state at t_end and the ledger on every
    step (None when not kept).  v is the final v, (*stack, n_half_modes, 2),
    stack () for one field and (G, P) for a stacked solve, whose z is
    (G, 1, n_half_modes, 2)."""

    t_end: float
    v: np.ndarray
    z: np.ndarray
    ledger: EnergyLedger | None
    basis: GalerkinBasis

    def member(self, g: int, p: int) -> "Trajectory":
        """Field p of group g of a stacked solve, as views of its arrays."""
        led = self.ledger and EnergyLedger(**{
            name: col if name == "t" else col[:, g, p]
            for name, col in vars(self.ledger).items()})
        return replace(self, v=self.v[g, p], z=self.z[g, 0], ledger=led)


# ---- stepper kernel -------------------------------------------------------


class _Stepper:
    """Precomputed ETD2 tables and the drift evaluation for params (its basis
    and dt), with the B_F `work` dict of the stack shape it last evaluated,
    at params.level or at `level`, one per field of the stack it marches."""

    def __init__(self, params: SimParams, level=None):
        self.params = params
        self.basis = basis = params.basis()
        self.level = params.level if level is None else level
        # one entry per coefficient, (n, 2), so each product with a stack of
        # fields runs as one long loop
        lam = np.repeat(basis.eigenvalues.astype(np.float64)[:, None], 2, axis=1)
        zh = params.nu * lam * params.dt
        self.E = np.exp(-zh)
        small = zh < 1e-5
        with np.errstate(invalid="ignore", divide="ignore"):
            phi1 = -np.expm1(-zh) / zh
            phi2 = (np.expm1(-zh) + zh) / zh**2
        phi1_series = 1.0 - zh / 2.0 + zh**2 / 6.0 - zh**3 / 24.0
        phi2_series = 0.5 - zh / 6.0 + zh**2 / 24.0 - zh**3 / 120.0
        self.hphi1 = params.dt * np.where(small, phi1_series, phi1)
        self.hphi2 = params.dt * np.where(small, phi2_series, phi2)
        self.f_coeffs = (np.zeros((basis.n_half_modes, 2), dtype=np.complex128)
                         if params.forcing is None else params.forcing.coeffs)
        self._lead = self._work = None

    def drift(self, v: np.ndarray, z: np.ndarray):
        """G(v, z) = -B_F(v+z) + chi*z + f, plus ledger quantities; v and z
        may be stacks of fields (leading axes) that broadcast together."""
        w = v + z
        if w.shape[:-2] != self._lead:  # a march keeps one stack shape
            self._lead, self._work = w.shape[:-2], stack_work("drift", self.basis, w.shape[:-2])
        bf, l4, fac = cutoff_advection_coeffs(self.basis, w, self.level, self._work)
        g = -bf
        if self.params.chi != 0.0:
            g = g + self.params.chi * z
        g = g + self.f_coeffs
        return g, bf, l4, fac

    def advance(self, v: np.ndarray, g_n: np.ndarray, z_next: np.ndarray):
        a = self.E * v + self.hphi1 * g_n
        g_a, _, _, _ = self.drift(a, z_next)
        return a + self.hphi2 * (g_a - g_n)


# ---- public operations ----------------------------------------------------


# Byte budget of the v, z and B_F arrays a ledger-keeping march holds between
# two ledger blocks, so a long run holds one block, not its history.  At
# kmax 3 a single field keeps 15 steps per block, and the norms and
# pairings of 129 steps took 2.9 ms in blocks against 7.1 ms one step at a
# time (2-core VM, 1 BLAS thread), and |z|_L4 of one block's 15 steps took
# 0.29 ms stacked against 0.56 ms one step at a time.  Each flush's stacked
# |z|_L4 synthesis also allocates its transform stages, about 2.6 MB at
# kmax 1 (ten times the block), and frees them after the flush.
LEDGER_BLOCK_BYTES = 2**18

# float64 a ledger holds per field and step at its peak: one per column and
# flux pairing, and four while the residual accumulates (the flux, its running
# integral and the two temporaries of its trapezoid sum; 17.0 traced at kmax 1)
LEDGER_STEP_FLOATS = len(fields(EnergyLedger)) + 3 + 4


def ledger_block(stack: tuple[int, int], n_half_modes: int) -> int:
    """Steps per ledger block of a (G, P) stack: as many steps' v (G, P),
    z (G, 1) and B_F (G, P) coefficient arrays as fit in LEDGER_BLOCK_BYTES,
    at least one."""
    G, P = stack
    step_bytes = (2 * G * P + G) * n_half_modes * 2 * 16
    return max(1, LEDGER_BLOCK_BYTES // step_bytes)


def _ledger_rows(led: dict, pairings: np.ndarray, k0: int, kept: list,
                 basis: GalerkinBasis, f_coeffs: np.ndarray) -> None:
    """Write the norms and flux pairings of steps k0, k0+1, ... from the
    kept (v, z, B_F) of each, one stacked call per column."""
    v, z, bf = map(np.stack, zip(*kept))
    rows = slice(k0, k0 + len(kept))
    u = v + z
    led["v_H2"][rows], led["z_H2"][rows], led["u_H2"][rows] = map(h2_coeffs, (v, z, u))
    led["v_V2"][rows], led["u_V2"][rows] = v2_coeffs(basis, v), v2_coeffs(basis, u)
    led["z_L4"][rows] = basis.l4_norm(basis.synthesize(z))
    for i, c in enumerate((bf, f_coeffs, z)):
        pairings[i, rows] = inner_coeffs(c, v)


def solve_transformed(
    v0: SpectralField | np.ndarray,
    path: WienerPath | list[WienerPath],
    params: SimParams,
    t0: float = 0.0,
    cursor: OUCursor | None = None,
    ledger: bool = True,
    level=None,
    observe=None,
) -> Trajectory:
    """Integrate the transformed system on [t0, t0 + params.t_final] by ETD2.

    v0 is one field, marched along `path`, and the result is its record.
    Or v0 is a stack (G, P, n_half_modes, 2) of coefficients on params'
    basis, group g marched along path[g], and the result carries the (G, P)
    axes.  `cursor` is the z layer of the path(s) at or before t0 (default:
    a new one).  Deterministic in (path seeds, params): repeated calls are
    bit-identical.  The ledger is recorded on every solver step unless
    `ledger` is False; of the fields, only the final state is kept, and
    observe(k, v, z), if given, sees the stacked v and z of every
    step k = 0..n_steps as the march goes.  `level`, an array that broadcasts
    to the stack's (G, P), gives each field its own cutoff level (default
    params.level).  Raises ValueError if v0 or z(t0) is not finite, and
    InstabilityError as soon as one field's |v|_H crosses its own ceiling,
    instability_factor * max(1, |v0|_H).
    """
    one = isinstance(v0, SpectralField)
    if one:
        if v0.basis.kmax != params.kmax:
            raise ValueError("initial data basis does not match params.kmax")
        v0 = v0.coeffs[None, None]
    basis = params.basis()
    n_steps = int(round(params.t_final / params.dt))
    if abs(n_steps * params.dt - params.t_final) > 1e-9 * max(1.0, params.t_final):
        raise ValueError("t_final must be a positive integer multiple of dt")
    stepper = _Stepper(params, level)
    cursor = cursor or OUCursor(path, params.chi, params.nu)
    G, P, n = v0.shape[:3]
    v, z = v0, cursor.advance_to(t0).reshape(G, 1, n, 2)
    # non-finite input is a data error, not a step-size blow-up
    for name, c in (("initial field v0", v), (f"OU layer z({t0})", z)):
        if not np.isfinite(c).all():
            raise ValueError(f"{name} is not finite")
    ceiling = params.instability_factor * np.maximum(1.0, np.sqrt(h2_coeffs(v)))
    if ledger:
        # every column but t and residual, which are built at the end
        led = {f.name: np.empty((n_steps + 1, G, P)) for f in fields(EnergyLedger)[1:-1]}
        # <B_F, v>, <f, v> and (z, v) per step
        pairings = np.empty((3, n_steps + 1, G, P))
        block, kept = ledger_block((G, P), n), []
    for k in range(n_steps + 1):
        if observe is not None:
            observe(k, v, z)
        # the final step needs its drift only for the ledger row
        if ledger or k < n_steps:
            drift = stepper.drift(v, z)
        if ledger:
            _, bf, led["u_L4"][k], led["cutoff"][k] = drift
            # each step's v and z are new arrays, so keeping them copies nothing
            kept.append((v, z, bf))
            if len(kept) == block or k == n_steps:
                _ledger_rows(led, pairings, k + 1 - len(kept), kept, basis, stepper.f_coeffs)
                kept = []
        if k == n_steps:
            break
        z_next = cursor.advance_to(t0 + (k + 1) * params.dt).reshape(G, 1, n, 2)
        v, z = stepper.advance(v, drift[0], z_next), z_next
        # NaN fails the comparison too
        within = h2_coeffs(v) <= ceiling**2
        if not within.all():
            g, p = np.unravel_index(np.argmin(within), within.shape)
            where = (int(g), int(p)) if within.size > 1 else (None, 0)
            raise InstabilityError(
                f"|v|_H exceeded {ceiling[g, p]:.3g} at t={t0 + (k + 1) * params.dt}; "
                f"dt={params.dt} is too large for this configuration", *where)

    energy = None
    if ledger:
        # energy flux 2nu|v|_V^2 + 2<B_F, v> - 2<f, v> - 2chi(z, v), and its
        # trapezoidal integral accumulated step by step
        bf_v, f_v, z_v = pairings
        flux = (2.0 * params.nu * led["v_V2"] + 2.0 * bf_v - 2.0 * f_v
                - 2.0 * params.chi * z_v)
        acc = np.zeros_like(flux)
        acc[1:] = np.cumsum(0.5 * params.dt * (flux[1:] + flux[:-1]), axis=0)
        energy = EnergyLedger(t=t0 + np.arange(n_steps + 1) * params.dt,
                              residual=led["v_H2"] - led["v_H2"][0] + acc, **led)
    traj = Trajectory(t0 + n_steps * params.dt, v, z, energy, basis)
    return traj.member(0, 0) if one else traj


def solve(x: SpectralField | tuple[SpectralField, ...] | np.ndarray,
          path: WienerPath | list[WienerPath],
          params: SimParams, t0: float = 0.0, ledger: bool = True, level=None,
          observe=None) -> Trajectory:
    """solve_transformed from the velocity x at t0, i.e. from v0 = x - z(t0):
    one field along one path, or a stack along each of G paths, x the
    (G, P, n_half_modes, 2) start velocities (v0 of group g, field p is
    x[g, p] - z_g(t0)) or a tuple of the P fields that start every group."""
    cursor = OUCursor(path, params.chi, params.nu)
    z0 = cursor.advance_to(t0)
    if isinstance(x, SpectralField):
        v0 = SpectralField(x.basis, x.coeffs - z0)
    else:  # a tuple of P fields starts every group
        v0 = (np.stack([xi.coeffs for xi in x]) if isinstance(x, tuple) else x) - z0[:, None]
    return solve_transformed(v0, path, params, t0, cursor=cursor, ledger=ledger, level=level,
                             observe=observe)


# ---- energy inequalities with explicit constants ---------------------------


def dissipation_forcing_density(params: SimParams, ledger: EnergyLedger) -> np.ndarray:
    """Forcing density of the dissipation estimates, evaluated per step.

    The Young splits of the standard estimate give, with lam the Poincare
    constant,

        d/dt |v|^2 <= -nu*lam |v|^2 + (2/nu) level^2 |z|_L4^2
                      + (4 chi^2/(nu lam)) |z|_H^2 + (4/nu) |f|_dual^2,

    so the density below is the exact bracket of both the running a priori
    bound and the exponentially weighted pullback inequality.
    """
    nu, lam, chi = params.nu, params.lambda_p, params.chi
    # without the cutoff the advection pairing cancels exactly instead of
    # being absorbed, so only the chi and forcing terms remain
    lvl2 = params.level**2 if math.isfinite(params.level) else 0.0
    f2 = params.forcing_dual_norm() ** 2
    return (
        (2.0 / nu) * lvl2 * ledger.z_L4**2
        + (4.0 * chi**2 / (nu * lam)) * ledger.z_H2
        + (4.0 / nu) * f2 * np.ones_like(ledger.z_H2)
    )


def apriori_margin(params: SimParams, ledger: EnergyLedger) -> float:
    """max over t of [ |v(t)|^2 + nu int |v|^2_H - |v0|^2 - int density ].

    Nonpositive (up to scheme residual) along every run; logged, since the
    bound is loose by construction.
    """
    t = ledger.t
    lhs = ledger.v_H2 + params.nu * _cumtrapz(ledger.v_H2, t)
    rhs = ledger.v_H2[0] + _cumtrapz(dissipation_forcing_density(params, ledger), t)
    return float((lhs - rhs).max())


def pullback_inequality_margin(params: SimParams, ledger: EnergyLedger) -> float:
    """max over t of the defect of the exponentially weighted energy bound

        |v(t)|^2 <= |v(t0)|^2 e^{-nu lam (t-t0)}
                    + int_t0^t density(s) e^{-nu lam (t-s)} ds,

    evaluated with the explicit constants of dissipation_forcing_density.
    Nonpositive up to scheme residual; asserted on fresh runs.
    """
    t = ledger.t
    rate = params.nu * params.lambda_p
    # the integral step by step, I_{k+1} = a I_k + (h/2) (a d_k + d_{k+1})
    # with a = e^{-rate h}: no weight e^{rate (t-t0)} to overflow; memoryviews
    # give the series as Python floats without a list of them
    h, d = np.diff(t), dissipation_forcing_density(params, ledger)
    weighted, w = np.zeros_like(t), 0.0
    for k, a, half, d0, d1 in zip(range(1, len(t)), *map(memoryview, (
            np.exp(-rate * h), 0.5 * h, d, d[1:]))):
        w = weighted[k] = a * w + half * (a * d0 + d1)
    rhs = ledger.v_H2[0] * np.exp(-rate * (t - t[0])) + weighted
    return float((ledger.v_H2 - rhs).max())


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


# ---- checkpointing ---------------------------------------------------------


def checkpoint_dump(traj: Trajectory, path: WienerPath, params: SimParams) -> str:
    """JSON checkpoint of a one-field solve's final state (t_end, v, z), with
    exact (bit-preserving) field payloads."""
    v, z = (base64.b64encode(field_to_bytes(SpectralField(traj.basis, c))).decode()
            for c in (traj.v, traj.z))
    payload = {"format": 1, "params": params.to_dict(), "path": path.manifest(),
               "time": traj.t_end, "v": v, "z": z}
    return json.dumps(payload, sort_keys=True)
