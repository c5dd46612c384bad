"""L4-norm cutoff of the advection term and the associated drift operator.

The modified nonlinearity scales the advection by a factor

    F(r) = min(1, level / r)

of the L4 norm r of the advected state; the factor is 1 below the cutoff
level and decays like level/r above it, which caps the strength of the
nonlinear term globally.  F(0) = 1 by continuous extension so the zero field
is admissible.

The drift operator of the transformed system is

    G(v) = nu * A v + B_F(v + z),    B_F(w) = F(|w|_L4) * B(w, w),

and it is monotone up to a zeroth-order correction: for all v1, v2

    <G(v1) - G(v2), v1 - v2> + eta |v1 - v2|_H^2  >=  (nu/2) |v1 - v2|_V^2

with eta = 7^7 * level^8 / (2^13 * nu^7).  `monotonicity_gap` evaluates the
left-minus-right side directly so the inequality can be fuzzed numerically.
The functions of fields also take coefficient stacks on a `basis` (see the
spectral module), or for the cutoff lemma the stacks' norms, and then give
arrays, each entry bit for bit its field's value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import GalerkinBasis, _each, _on_basis, inner_coeffs, norm_H, norm_L4, norm_V


@dataclass(frozen=True)
class CutoffParams:
    """Cutoff level (math.inf disables the cutoff) and viscosity; arrays for a stack."""

    level: float | np.ndarray
    nu: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.greater(self.level, 0)):
            raise ValueError("cutoff level must be positive")
        if not np.all(np.greater(self.nu, 0) & np.isfinite(self.nu)):
            raise ValueError("viscosity must be positive and finite")

    @property
    def eta(self):
        """Monotonicity correction constant 7^7 * level^8 / (2^13 * nu^7)."""
        return _each(lambda level, nu: 7.0**7 * level**8 / (2.0**13 * nu**7), self.level, self.nu)


def cutoff_factor(r, level):
    """F(r) = min(1, level/r), with F(0) = 1; exact 1.0 for r <= level; of arrays, an array."""
    if isinstance(r, np.ndarray) or isinstance(level, np.ndarray):
        return _each(cutoff_factor, r, level)
    if level <= 0:
        raise ValueError("cutoff level must be positive")
    if r < 0:
        raise ValueError("norm argument must be nonnegative")
    if r <= level:
        return 1.0
    return level / r


def cutoff_product_bound(u, level, ru=None):
    """r * F(r) for r = |u|_L4; equals min(r, level), hence <= level exactly.
    `ru` is |u|_L4 when the caller has it already."""
    r = norm_L4(u) if ru is None else ru
    return r * cutoff_factor(r, level)


def cutoff_lipschitz_sides(u, v, level, ru=None, rv=None, ruv=None):
    """Both sides of |F(|u|) - F(|v|)| <= (1/level) F(|u|) F(|v|) |u - v|_L4;
    `ru`, `rv` and `ruv` are |u|_L4, |v|_L4 and |u - v|_L4 when the caller
    has them already."""
    ru, rv, ruv = (norm_L4(x) if r is None else r for x, r in ((u, ru), (v, rv), (u - v, ruv)))
    fu, fv = cutoff_factor(ru, level), cutoff_factor(rv, level)
    return abs(fu - fv), fu * fv * ruv / level


def cutoff_advection_coeffs(basis: GalerkinBasis, w: np.ndarray,
                            level: float | np.ndarray, work: dict | None = None):
    """(B_F(w), |w|_L4, F) for a coefficient array; the one B_F kernel of the
    field API and the stepper, with the L4 norm from the advection's grid.
    For a stack of arrays (leading axes) the norm and F are arrays with one
    entry per member, each computed as for that member alone, and at its
    own level when `level` is an array that broadcasts to the stack's
    leading shape (such as the stepper's one level per field).  Each stage
    keeps its result in `work` (see the spectral module), so a caller that
    evaluates B_F over one stack shape over and over allocates them once."""
    work = {} if work is None else work
    wg, dw = basis.synthesize_with_jacobian(w, work=work)
    l4 = basis.l4_norm(wg)
    adv = work["advection"] = np.einsum("...axyz,...acxyz->...cxyz", wg, dw,
                                        out=work.get("advection"))
    out = basis.analyze(adv, work)
    if w.ndim == 2:
        f = cutoff_factor(l4, level)
        if f != 1.0:
            out *= f
        return out, l4, f
    levels = np.full(l4.shape, level).ravel().tolist()
    f = np.array(list(map(cutoff_factor, l4.ravel().tolist(), levels))).reshape(l4.shape)
    # x * 1.0 is x bit for bit, so members with F = 1 are left as they are
    out *= f[..., None, None]
    return out, l4, f


def monotonicity_gap(v1, v2, z, params: CutoffParams,
                     basis: GalerkinBasis | None = None, work: dict | None = None):
    """<G(v1)-G(v2), v1-v2> + eta |v1-v2|_H^2 - (nu/2) |v1-v2|_V^2.

    Nonnegative up to rounding; callers compare against
    -gap_tolerance(v1, v2) rather than 0 so that exact-zero cases (v1 = v2)
    do not trip on floating-point noise.  The two B_F of each member run in
    one stack, with its stages in `work` (see cutoff_advection_coeffs).
    """
    basis, (v1, v2, z) = _on_basis(basis, v1, v2, z)
    d = v1 - v2
    bf = cutoff_advection_coeffs(basis, np.stack([v1 + z, v2 + z], axis=-3),
                                 np.expand_dims(params.level, -1), work)[0]
    pair = inner_coeffs(bf[..., 0, :, :] - bf[..., 1, :, :], d)
    return _each(lambda nu, eta, pair, nv, nh: nu * nv**2 + pair + eta * nh**2 - 0.5 * nu * nv**2,
                 params.nu, params.eta, pair, norm_V(d, basis), norm_H(d, basis))


def gap_tolerance(v1, v2, basis: GalerkinBasis | None = None):
    """Magnitude-scaled rounding allowance for the monotonicity inequality."""
    return _each(lambda a, b: 1e-10 * (1.0 + a**2 + b**2), norm_V(v1, basis), norm_V(v2, basis))
