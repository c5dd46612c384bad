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

There is one solve, `solve_transformed`, and one march of this scheme under
it; `solve` starts it from a velocity, the entry point of every experiment.
The march steps a stack (G, P) of fields: G groups, each on its own path,
and P fields per group that share its z, one OU cursor for all groups.  One
field is the (1, 1) stack.  A solve holds no history: its `Trajectory`
keeps the start and final states and the ledger, and a caller that reads
the steps in between passes `observe(k, v, z)`, called at every step
k = 0..n_steps with the stacked v (G, P, n, 2) and z (G, 1, n, 2), to
reduce them as the march goes.  Each field's drift, L4 norm and cutoff
factor, and each ledger entry, are computed as if it were alone, so a
stacked field is bit for bit its single solve.  The stepper, built from
params alone (its basis and dt) and passed as `stepper=`, holds the cutoff
level, params.level or one per field, and a `work` dict for its stack
shape, in which each stage of the drift keeps its result, so a march
allocates them once.  With `ledger=False` a solve keeps only the two
states, for the runs that read nothing else (the contraction ensemble).

The energy ledger records the terms of the energy balance

    |v(t)|_H^2 + 2 nu int |v|_V^2 + 2 int <B_F(v+z), v>
        = |v(t0)|_H^2 + 2 int <f, v> + 2 chi int (z, v),

with trapezoidal quadrature on the solver grid (same order as the stepper);
the cumulative defect of this identity is the scheme's convergence
diagnostic and decreases at second order under step refinement.  Its
columns per step are t, |v|_H^2, |v|_V^2, |u|_L4, the cutoff factor F,
|z|_H^2, |z|_L4, |u|_H^2, |u|_V^2 and the residual; the three pairings of
the flux are summed into the residual and not kept.  |u|_L4 and F come from
each step's drift.  The march's v, z and B_F arrays are kept for a block of
steps (see `ledger_block`), and the norms (|z|_L4 among them) and pairings
of a block are one stacked call each, with the step as one more leading
axis; each entry is bit for bit its step's own call.  `EnergyLedger.columns`
gives one field's series to the CSV writer of the command line.

A checkpoint holds (time, v, z); `resume` starts its OU cursor from the
saved z, so the continued run is bit for bit the uninterrupted one.

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
from .noise import NoiseSpectrum, OUCursor, WienerPath, path_from_manifest
from .spectral import (
    GalerkinBasis,
    SpectralField,
    build_basis,
    field_from_bytes,
    field_to_bytes,
    h2_coeffs,
    inner_coeffs,
    norm_dual,
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
    and z-realizations are exact.
    """

    nu: float
    level: float
    chi: float = 0.0
    lambda_p: float = 1.0
    forcing: SpectralField | None = None
    dt: float = 1.0 / 256
    t_final: float = 1.0
    kmax: int = 2
    noise: NoiseSpectrum = field(default_factory=NoiseSpectrum)
    dt_path: float | None = None
    instability_factor: float = 1e6

    def __post_init__(self):
        # NaN fails every test; level = inf means no cutoff
        for name, ok in (("nu", self.nu > 0 and math.isfinite(self.nu)),
                         ("level", self.level > 0),
                         ("chi", self.chi >= 0 and math.isfinite(self.chi)),
                         ("instability_factor", self.instability_factor > 0
                          and math.isfinite(self.instability_factor))):
            if not ok:
                raise ValueError(f"{name}={getattr(self, name)} is invalid: need finite "
                                 "nu > 0, level > 0 (inf: no cutoff), finite chi >= 0, "
                                 "finite instability_factor > 0")
        if not (self.dt > 0 and math.isfinite(self.t_final) and self.t_final >= self.dt):
            raise ValueError("need dt > 0 and finite t_final >= dt")
        if self.dt_path is None:
            object.__setattr__(self, "dt_path", self.dt)
        if not (self.dt_path > 0 and math.isfinite(self.dt_path)):
            raise ValueError(f"dt_path={self.dt_path} is invalid: need finite dt_path > 0")
        m = self.dt / self.dt_path
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ValueError(
                f"dt={self.dt} must be a positive integer multiple of dt_path={self.dt_path}"
            )
        f = self.forcing
        if f is not None and (f.basis.kmax != self.kmax or not np.isfinite(f.coeffs).all()):
            raise ValueError(f"params.forcing must be a finite field on kmax={self.kmax} "
                             f"(it has kmax {f.basis.kmax})")

    @property
    def substeps(self) -> int:
        return int(round(self.dt / self.dt_path))

    def basis(self) -> GalerkinBasis:
        b = build_basis(self.kmax)
        if b.poincare_constant != self.lambda_p:
            raise ValueError(
                f"lambda_p={self.lambda_p} must equal the smallest Stokes eigenvalue "
                f"{b.poincare_constant}"
            )
        return b

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
        """Inverse of to_dict; an omitted key takes the field's default."""
        kw = {f.name: d[f.name] for f in fields(SimParams) if f.name in d}
        if kw.get("level") == "inf":
            kw["level"] = math.inf
        if kw.get("forcing") is not None:
            try:
                kw["forcing"] = field_from_bytes(base64.b64decode(kw["forcing"]),
                                                 build_basis(kw.get("kmax", SimParams.kmax)))
            except (ValueError, struct.error) as exc:
                raise ValueError(f"params.forcing is not a field payload: {exc}") from exc
        kw["noise"] = NoiseSpectrum(**kw.get("noise", {}))
        return SimParams(**kw)


@dataclass(frozen=True)
class TrajectoryState:
    """Transformed variable and stochastic layer at one instant."""

    time: float
    v: SpectralField
    z: SpectralField


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
        """One field's series in the interchange column set, a row per step."""
        return {"t": self.t.tolist(), "H_norm_v": np.sqrt(self.v_H2).tolist(),
                "V_norm_v": np.sqrt(self.v_V2).tolist(), "L4_norm_u": self.u_L4.tolist(),
                "F_N": self.cutoff.tolist(), "residual": self.residual.tolist(),
                "H_norm_u": np.sqrt(self.u_H2).tolist()}


@dataclass
class Trajectory:
    """Solution record: the states at t0 and t_end, and the ledger on every
    step (None when not kept).  v is (2, *stack, n_half_modes, 2), the start
    and final v, stack () for one field and (G, P) for a stacked solve,
    whose z is (2, G, 1, n_half_modes, 2)."""

    t0: float
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
        return replace(self, v=self.v[:, g, p], z=self.z[:, g, 0], ledger=led)

    def final_state(self) -> TrajectoryState:
        return TrajectoryState(self.t_end, SpectralField(self.basis, self.v[-1]),
                               SpectralField(self.basis, self.z[-1]))


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
        if w.shape[:-2] != self._lead:
            # a march keeps one stack shape; a new shape starts a new set
            self._lead, self._work = w.shape[:-2], {}
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


def _march(stepper: _Stepper, cursor: OUCursor, v: np.ndarray, t0: float,
           n_steps: int):
    """The ETD2 march of a stack v (G, P, n_half_modes, 2): G groups of P
    fields, group g on the z of the cursor's path g.

    Yields (k, v, z, drift) at t0 + k*dt for k = 0..n_steps, with z of shape
    (G, 1, n_half_modes, 2) and drift = stepper.drift(v, z) with one entry
    per field, or None at the final time, where no step needs it.  Raises
    InstabilityError as soon as one field's |v|_H crosses its own ceiling,
    instability_factor * max(1, |v0|_H).
    """
    params = stepper.params

    z_shape = (len(v), 1, *v.shape[2:])  # from (n, 2) or (G, n, 2)

    def z_at(t):
        return cursor.advance_to(t).reshape(z_shape)

    z = z_at(t0)
    # non-finite input is a data error, not a step-size blow-up
    for name, c in (("initial field v0", v), (f"OU layer z({t0})", z)):
        if not np.isfinite(c).all():
            raise ValueError(f"{name} is not finite")
    ceiling = params.instability_factor * np.maximum(1.0, np.sqrt(h2_coeffs(v)))
    for k in range(n_steps):
        drift = stepper.drift(v, z)
        yield k, v, z, drift
        z_next = z_at(t0 + (k + 1) * params.dt)
        v = stepper.advance(v, drift[0], z_next)
        z = z_next
        # NaN fails the comparison too
        within = h2_coeffs(v) <= ceiling**2
        if not within.all():
            g, p = np.unravel_index(np.argmin(within), within.shape)
            where = (int(g), int(p)) if within.size > 1 else (None, 0)
            raise InstabilityError(
                f"|v|_H exceeded {ceiling[g, p]:.3g} at t={t0 + (k + 1) * params.dt}; "
                f"dt={params.dt} is too large for this configuration", *where)
    yield n_steps, v, z, None


# ---- public operations ----------------------------------------------------


# Byte budget of the v, z and B_F arrays a ledger-keeping march holds between
# two ledger blocks, so a long run holds one block, not its history.  At
# kmax 3 a single field keeps 15 steps per block, and the norms and
# pairings of 129 steps took 2.9 ms in blocks against 7.1 ms one step at a
# time (2-core VM, 1 BLAS thread), and |z|_L4 of one block's 15 steps took
# 0.29 ms stacked against 0.56 ms one step at a time.
LEDGER_BLOCK_BYTES = 2**18


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
    t_final: float | None = None,
    cursor: OUCursor | None = None,
    ledger: bool = True,
    stepper: _Stepper | None = None,
    observe=None,
) -> Trajectory:
    """Integrate the transformed system on [t0, t0 + T].

    v0 is one field, marched along `path`, and the result is its record.
    Or v0 is a stack (G, P, n_half_modes, 2) of coefficients on params'
    basis, group g marched along path[g], and the result carries the (G, P)
    axes.  `cursor` is the z layer of the path(s) at or before t0 (default:
    a new one).  Deterministic in (path seeds, params): repeated calls are
    bit-identical.  The ledger is recorded on every solver step unless
    `ledger` is False; of the fields, only the start and final states are
    kept, and observe(k, v, z), if given, sees the stacked v and z of every
    step k = 0..n_steps as the march goes.  `stepper`, built for the same
    params, lends the march its work arrays and its cutoff level, which may
    be one per field (default: a new one at params.level).
    """
    one = isinstance(v0, SpectralField)
    if one:
        if v0.basis.kmax != params.kmax:
            raise ValueError("initial data basis does not match params.kmax")
        v0 = v0.coeffs[None, None]
    basis = params.basis()
    horizon = params.t_final if t_final is None else t_final
    n_steps = int(round(horizon / params.dt))
    if abs(n_steps * params.dt - horizon) > 1e-9 * max(1.0, horizon) or n_steps < 1:
        raise ValueError("t_final must be a positive integer multiple of dt")
    stepper = stepper or _Stepper(params)
    cursor = cursor or OUCursor(path, params.chi, params.nu)
    G, P, n = v0.shape[:3]
    if ledger:
        led = {f.name: np.empty((n_steps + 1, G, P)) for f in fields(EnergyLedger)}
        # <B_F, v>, <f, v> and (z, v) per step
        pairings = np.empty((3, n_steps + 1, G, P))
        block, kept = ledger_block((G, P), n), []

    for k, v, z, drift in _march(stepper, cursor, v0, t0, n_steps):
        if k == 0:
            start = v, z
        if observe is not None:
            observe(k, v, z)
        if not ledger:
            continue
        # the final time has no step drift to reuse
        _, bf, led["u_L4"][k], led["cutoff"][k] = drift or stepper.drift(v, z)
        # the march yields new arrays each step, so keeping them copies nothing
        kept.append((v, z, bf))
        if len(kept) == block or k == n_steps:
            _ledger_rows(led, pairings, k + 1 - len(kept), kept, basis, stepper.f_coeffs)
            kept = []

    energy = None
    if ledger:
        led["t"] = t0 + np.arange(n_steps + 1) * params.dt
        # energy flux 2nu|v|_V^2 + 2<B_F, v> - 2<f, v> - 2chi(z, v), and its
        # trapezoidal integral accumulated step by step
        bf_v, f_v, z_v = pairings
        flux = (2.0 * params.nu * led["v_V2"] + 2.0 * bf_v - 2.0 * f_v
                - 2.0 * params.chi * z_v)
        acc = np.zeros_like(flux)
        acc[1:] = np.cumsum(0.5 * params.dt * (flux[1:] + flux[:-1]), axis=0)
        led["residual"] = led["v_H2"] - led["v_H2"][0] + acc
        energy = EnergyLedger(**led)
    # the loop leaves v and z at the final step
    traj = Trajectory(t0, t0 + n_steps * params.dt, np.stack((start[0], v)),
                      np.stack((start[1], z)), energy, basis)
    return traj.member(0, 0) if one else traj


def solve(x: SpectralField | tuple[SpectralField, ...] | np.ndarray,
          path: WienerPath | list[WienerPath],
          params: SimParams, t0: float = 0.0, t_final: float | None = None,
          ledger: bool = True, stepper: _Stepper | None = None,
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
    return solve_transformed(v0, path, params, t0, t_final, cursor=cursor, ledger=ledger,
                             stepper=stepper, observe=observe)


def cocycle_apply(
    t: float, path: WienerPath, x: SpectralField, params: SimParams
) -> SpectralField:
    """Solution map of the random system from time 0: returns u(t) with
    u = v + z and v solved from x - z(0); the identity at t = 0."""
    if t < 0:
        raise ValueError("cocycle time must be nonnegative")
    if t == 0.0:
        return x
    state = solve(x, path, params, t_final=t, ledger=False).final_state()
    return state.v + state.z


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
    # with a = e^{-rate h}: no weight e^{rate (t-t0)} to overflow
    h, d = np.diff(t), dissipation_forcing_density(params, ledger).tolist()
    weighted = [0.0]
    for a, half, d0, d1 in zip(np.exp(-rate * h).tolist(), (0.5 * h).tolist(), d, d[1:]):
        weighted.append(a * weighted[-1] + half * (a * d0 + d1))
    rhs = ledger.v_H2[0] * np.exp(-rate * (t - t[0])) + np.array(weighted)
    return float((ledger.v_H2 - rhs).max())


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


# ---- checkpointing ---------------------------------------------------------


def checkpoint_dump(state: TrajectoryState, path: WienerPath, params: SimParams) -> str:
    """JSON checkpoint with exact (bit-preserving) field payloads."""
    payload = {
        "format": 1,
        "params": params.to_dict(),
        "path": path.manifest(),
        "time": state.time,
        "v": base64.b64encode(field_to_bytes(state.v)).decode(),
        "z": base64.b64encode(field_to_bytes(state.z)).decode(),
    }
    return json.dumps(payload, sort_keys=True)


def checkpoint_load(text: str) -> tuple[TrajectoryState, WienerPath, SimParams]:
    d = json.loads(text)
    if d.get("format") != 1:
        raise ValueError("unsupported checkpoint format")
    params = SimParams.from_dict(d["params"])
    basis = params.basis()
    path = path_from_manifest(d["path"], basis)
    v = field_from_bytes(base64.b64decode(d["v"]), basis)
    z = field_from_bytes(base64.b64decode(d["z"]), basis)
    return TrajectoryState(d["time"], v, z), path, params


def resume(state: TrajectoryState, path: WienerPath, params: SimParams,
           t_final: float) -> Trajectory:
    """Continue a checkpointed run to t_final, with z starting from the
    state's saved z; bit-identical to an uninterrupted solve over the same
    window."""
    cursor = OUCursor(path, params.chi, params.nu, start=(state.time, state.z.coeffs))
    return solve_transformed(state.v, path, params, t0=state.time,
                             t_final=t_final - state.time, cursor=cursor)
