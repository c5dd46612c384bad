"""Independent oracles for the spectral operators.

The field oracles evaluate fields by direct summation of cosine/sine basis
functions on an explicit grid (no FFT, none of the production transform
code), so agreement with the package is a genuine cross-check rather than a
tautology.  The polarization references near the end are the other kind: an
earlier layout of the package's own arithmetic, which the current one must
reproduce bit for bit.  Between them sit compositions of the package's
kernels that only the tests use: the projected advection B(u, v), the
field form of B_F, the L2 inner product of two fields, and the cutoff
lemma's sides, the monotonicity gap and its tolerance of fields; a solve's
recording observer, with the walks over whole trajectories on it, and the
cocycle map of a solve's final state; the forcing density of the
dissipation estimates as the paper's Young splits state it; and the reader
of a checkpoint, which continues the saved run to show that the file holds
a complete state.
"""

import base64
import json
from dataclasses import replace

import numpy as np

from gmnslab import integrate as it
from gmnslab.cutoff import (cutoff_advection_coeffs, gap_of_terms, lipschitz_sides,
                            product_bound, tolerance_of_norms)
from gmnslab.integrate import SimParams, Trajectory, solve
from gmnslab.noise import NoiseSpectrum, OUCursor, WienerPath
from gmnslab.spectral import (SpectralField, field_from_bytes, h2_coeffs, inner_coeffs,
                              norm_H, norm_L4, norm_V, v2_coeffs)

VOLUME = (2.0 * np.pi) ** 3


def polarization_pair(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two integer vectors orthogonal to k and to each other, from cross
    products with the unit vector along the smallest |k_i|."""
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(3, dtype=np.int64)
    e[axis] = 1
    p1 = np.cross(k, e)
    p2 = np.cross(k, p1)
    return p1, p2


def basis_reference(kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-space modes (sorted tuples > (0, 0, 0)), integer and unit
    polarizations of the truncated basis, built one mode at a time."""
    rng = range(-kmax, kmax + 1)
    modes = sorted((k1, k2, k3) for k1 in rng for k2 in rng for k3 in rng
                   if (k1, k2, k3) > (0, 0, 0))
    modes = np.array(modes, dtype=np.int64)
    pol_int = np.empty((len(modes), 2, 3), dtype=np.int64)
    for i, k in enumerate(modes):
        pol_int[i] = polarization_pair(k)
    pol = pol_int / np.linalg.norm(pol_int, axis=2, keepdims=True)
    return modes, pol_int, pol


def axes_grid(m: int) -> np.ndarray:
    x = 2.0 * np.pi * np.arange(m) / m
    return np.array(np.meshgrid(x, x, x, indexing="ij"))


def synth_direct(field, m: int) -> np.ndarray:
    """Sum a * cos(k.x) + b * sin(k.x) over all stored (mode, polarization)."""
    basis = field.basis
    x = axes_grid(m)
    scale = np.sqrt(2.0 / VOLUME)
    phases = np.einsum("ni,ixyz->nxyz", basis.modes.astype(float), x)
    cosn, sinn = np.cos(phases), np.sin(phases)
    a = field.coeffs.real
    b = field.coeffs.imag
    u = np.einsum("np,npc,nxyz->cxyz", a, basis.polarizations, cosn, optimize=True)
    u += np.einsum("np,npc,nxyz->cxyz", b, basis.polarizations, sinn, optimize=True)
    return scale * u


def grad_direct(field, m: int) -> np.ndarray:
    """Jacobian d(u_c)/d(x_i) by differentiating the trig sum, shape (i, c, ...)."""
    basis = field.basis
    x = axes_grid(m)
    scale = np.sqrt(2.0 / VOLUME)
    kf = basis.modes.astype(float)
    phases = np.einsum("ni,ixyz->nxyz", kf, x)
    cosn, sinn = np.cos(phases), np.sin(phases)
    a = field.coeffs.real
    b = field.coeffs.imag
    du = -np.einsum("np,npc,ni,nxyz->icxyz", a, basis.polarizations, kf, sinn,
                    optimize=True)
    du += np.einsum("np,npc,ni,nxyz->icxyz", b, basis.polarizations, kf, cosn,
                    optimize=True)
    return scale * du


def integrate(values: np.ndarray) -> float:
    return float(values.sum() * VOLUME / values.size)


def trilinear_oracle(u, v, w, m: int | None = None) -> float:
    """b(u, v, w) by direct quadrature; exact for m > 3*kmax."""
    if m is None:
        m = 4 * u.basis.kmax + 3
    ug = synth_direct(u, m)
    dv = grad_direct(v, m)
    wg = synth_direct(w, m)
    integrand = np.einsum("ixyz,icxyz,cxyz->xyz", ug, dv, wg, optimize=True)
    return integrate(integrand)


def norm_l4_oracle(u, m: int | None = None) -> float:
    if m is None:
        m = 4 * u.basis.kmax + 3
    g = synth_direct(u, m)
    sq = np.einsum("cxyz,cxyz->xyz", g, g)
    return integrate(sq * sq) ** 0.25


def norm_h_oracle(u, m: int | None = None) -> float:
    if m is None:
        m = 4 * u.basis.kmax + 3
    g = synth_direct(u, m)
    return integrate(np.einsum("cxyz,cxyz->xyz", g, g)) ** 0.5


# ---- compositions of the package's kernels that only tests use ----


def nonlinear_B(u, v):
    """Galerkin projection of (u . grad) v onto the truncated basis.

    Satisfies <B(u, v), w> = b(u, v, w) for every w in the basis.
    """
    basis = u.basis
    ug = basis.synthesize(u.coeffs)
    _, dv = basis.synthesize_with_jacobian(v.coeffs)
    return SpectralField(basis, basis.analyze(np.einsum("axyz,acxyz->cxyz", ug, dv)))


def inner_H(u, w):
    """L2 inner product (u, w) via Parseval."""
    return inner_coeffs(u.coeffs, w.coeffs)


def cutoff_advection(u, level):
    """B_F(u) = F(|u|_L4) * B(u, u); satisfies <B_F(u), u> = 0."""
    return SpectralField(u.basis, cutoff_advection_coeffs(u.basis, u.coeffs, level)[0])


def cutoff_product_bound(u, level):
    """`product_bound` of the field u."""
    return product_bound(norm_L4(u), level)


def cutoff_lipschitz_sides(u, v, level):
    """`lipschitz_sides` of the fields u and v."""
    return lipschitz_sides(norm_L4(u), norm_L4(v), norm_L4(u - v), level)


def monotonicity_gap(v1, v2, z, params):
    """<G(v1)-G(v2), v1-v2> + eta |v1-v2|_H^2 - (nu/2) |v1-v2|_V^2, the two B_F
    as one stack; >= -gap_tolerance(v1, v2)."""
    d = v1 - v2
    bf = cutoff_advection_coeffs(d.basis, np.stack([(v1 + z).coeffs, (v2 + z).coeffs]),
                                 params.level)[0]
    return gap_of_terms(params, inner_coeffs(bf[0] - bf[1], d.coeffs), norm_V(d), norm_H(d))


def gap_tolerance(v1, v2):
    """`tolerance_of_norms` of the fields v1 and v2."""
    return tolerance_of_norms(norm_V(v1), norm_V(v2))


# ---- trajectories through a recording observer ----


class Recording(list):
    """`observe` of a solve that keeps (k, v, z) at every step, copies of the
    stacked v (G, P, n, 2) and z (G, 1, n, 2), the history a solve does not
    hold; `v` and `z` stack them, and `member(g, p)` gives one field's."""

    def __call__(self, k, v, z):
        self.append((k, v.copy(), z.copy()))

    v = property(lambda self: np.stack([v for _, v, _ in self]))
    z = property(lambda self: np.stack([z for _, _, z in self]))

    def member(self, g: int = 0, p: int = 0) -> tuple[np.ndarray, np.ndarray]:
        return self.v[:, g, p], self.z[:, g, 0]


def recorded(solver, *args, **kw):
    """(trajectory, Recording) of solver(*args, **kw), solve or solve_transformed."""
    rec = Recording()
    return solver(*args, observe=rec, **kw), rec


def doss_sussman_recover(rec: Recording) -> np.ndarray:
    """u = v + z at every step of a one-field recording."""
    return np.add(*rec.member())


def transform_forward(rec: Recording, u: np.ndarray) -> np.ndarray:
    """v = u - z at every step; the inverse of doss_sussman_recover."""
    return u - rec.member()[1]


def cocycle_apply(t: float, path, x: SpectralField, params) -> SpectralField:
    """The random system's solution map from time 0: u(t) = v(t) + z(t), v
    solved from x - z(0); the identity at t = 0."""
    if t == 0.0:
        return x
    traj = solve(x, path, params, t_final=t, ledger=False)
    return SpectralField(x.basis, traj.v + traj.z)


def chi_independence_sup(x, path, chi1, chi2, params) -> float:
    """sup over solver steps of |u_chi1(t) - u_chi2(t)|_H for the same path.

    The continuum solution maps coincide for any damping shifts, so the
    measured difference is pure discretization error and decreases at the
    scheme's order under dt refinement.
    """
    u1, u2 = (doss_sussman_recover(recorded(solve, x, path, replace(params, chi=chi),
                                            ledger=False)[1]) for chi in (chi1, chi2))
    return float(np.sqrt(h2_coeffs(u1 - u2)).max())


def data_continuity_gap(x, x_n, f, f_n, path, params) -> tuple[float, float]:
    """(sup_t |v_n - v|_H, int |v_n - v|_V^2 dt) for perturbed data.

    Both solves share the path and z realization; the Gronwall structure of
    the continuity estimate makes the gap shrink with the data perturbation.
    """
    base, base_rec = recorded(solve, x, path, replace(params, forcing=f))
    _, pert_rec = recorded(solve, x_n, path, replace(params, forcing=f_n), ledger=False)
    diff = pert_rec.member()[0] - base_rec.member()[0]
    int_v2 = float(np.trapezoid(v2_coeffs(x.basis, diff), base.ledger.t))
    return float(np.sqrt(h2_coeffs(diff)).max()), int_v2


# ---- the dissipation estimates ----


def dissipation_density_reference(params, ledger) -> np.ndarray:
    """The forcing density of the a priori and pullback estimates per step,
    from the Young splits of d/dt |v|^2:

        (2/nu) N^2 |z|_L4^2 + (4 chi^2/(nu lam)) |z|_H^2 + (4/nu) |f|_V'^2,

    with no cutoff term at level inf (the advection pairing cancels) and
    |f|_V'^2 = sum |f_k|^2 / |k|^2 summed mode by mode."""
    nu, lam, chi, level = params.nu, params.lambda_p, params.chi, params.level
    f_dual2 = 0.0
    if params.forcing is not None:
        for k, c in zip(params.forcing.basis.modes, params.forcing.coeffs):
            f_dual2 += float((np.abs(c) ** 2).sum()) / float(k @ k)
    cutoff = 0.0 if np.isinf(level) else (2.0 / nu) * level**2
    return (cutoff * ledger.z_L4**2 + (4.0 * chi**2 / (nu * lam)) * ledger.z_H2
            + (4.0 / nu) * f_dual2)


# ---- the checkpoint read back ----


def path_from_manifest(manifest: dict, basis) -> WienerPath:
    """The path (or shifted view) that `WienerPath.manifest` describes."""
    dt_path, offset = manifest["dt_path"], manifest.get("offset", 0)
    steps = int(round((manifest["t_max"] - manifest["t_min"]) / dt_path))
    return WienerPath(manifest["seed"], dt_path, manifest["t_min"] + offset * dt_path, steps,
                      NoiseSpectrum(**manifest["spectrum"]), basis, offset)


def checkpoint_load(text: str) -> tuple:
    """(final state as a Trajectory without a ledger, path, params) of an
    `integrate.checkpoint_dump` text."""
    d = json.loads(text)
    if d.get("format") != 1:
        raise ValueError("unsupported checkpoint format")
    params = SimParams.from_dict(d["params"])
    basis = params.basis()
    v, z = (field_from_bytes(base64.b64decode(d[k]), basis).coeffs for k in "vz")
    return (Trajectory(d["time"], v, z, None, basis), path_from_manifest(d["path"], basis),
            params)


def resume(start, path, params, t_final: float):
    """Continue a one-field run from its final state to t_final, z starting
    from the saved z; bit-identical to an uninterrupted solve over the same
    window.  It calls `it.solve_transformed` through the module, so a test
    may wrap that."""
    cursor = OUCursor(path, params.chi, params.nu, start=(start.t_end, start.z))
    return it.solve_transformed(SpectralField(start.basis, start.v), path, params,
                                t0=start.t_end, t_final=t_final - start.t_end, cursor=cursor)


# ---- polarization contractions with the table in (n, p, c) order ----


def spectrum_reference(basis, coeffs: np.ndarray) -> np.ndarray:
    """`GalerkinBasis._spectrum` of a stack (L, n, 2): half cubes (P, L, 3)."""
    pol = basis.polarizations.astype(np.complex128)
    uhat = np.einsum("lnp,npc->nlc", np.conj(coeffs), pol)
    uhat *= basis._synth_scale
    vals = uhat.take(basis._src, axis=0)
    vals.imag *= basis._sign[:, None, None]
    spec = np.zeros((basis._cube_size, len(coeffs), 3), dtype=np.complex128)
    spec[basis._dst] = vals
    return spec


def analyze_reference(basis, grid: np.ndarray) -> np.ndarray:
    """`GalerkinBasis.analyze` of grids (..., 3, M, M, M): the same transform
    stages, then the (n, p, c) contraction."""
    n, M, lead = basis.n_half_modes, basis.grid_size, grid.shape[:-4]
    spec = np.ascontiguousarray(grid.reshape(-1, M, M, M).transpose(3, 1, 2, 0))
    spec = np.matmul(spec.reshape(M, -1).T, basis._proj3).view(np.complex128)
    spec = np.matmul(spec.reshape(M, -1).T, basis._proj12)
    spec = np.matmul(spec.reshape(M, -1).T, basis._proj12)
    uhat = spec.reshape(*lead, 3, -1).take(basis._gather, axis=-1)
    uhat.imag *= -basis._sign[:n]
    coeffs = np.einsum("...cn,npc->...np", uhat, basis.polarizations.astype(np.complex128))
    coeffs /= basis._synth_scale
    return coeffs


def ou_moments(z0: float, sigma: float, mu: float, t: float) -> tuple[float, float]:
    """Mean and variance of the scalar OU value at time t from z0."""
    mean = z0 * np.exp(-mu * t)
    var = sigma**2 / (2.0 * mu) * (1.0 - np.exp(-2.0 * mu * t))
    return mean, var
