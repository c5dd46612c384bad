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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    GalerkinBasis,
    SpectralField,
    _check_same_basis,
    inner_H,
    norm_H,
    norm_L4,
    norm_V,
)


@dataclass(frozen=True)
class CutoffParams:
    """Cutoff level and viscosity; level may be math.inf to disable the cutoff."""

    level: float
    nu: float

    def __post_init__(self):
        if not self.level > 0:
            raise ValueError("cutoff level must be positive")
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise ValueError("viscosity must be positive and finite")

    @property
    def eta(self) -> float:
        """Monotonicity correction constant 7^7 * level^8 / (2^13 * nu^7)."""
        return 7.0**7 * self.level**8 / (2.0**13 * self.nu**7)


def cutoff_factor(r: float, level: float) -> float:
    """F(r) = min(1, level/r), with F(0) = 1; exact 1.0 for r <= level."""
    if level <= 0:
        raise ValueError("cutoff level must be positive")
    if r < 0:
        raise ValueError("norm argument must be nonnegative")
    if r <= level:
        return 1.0
    return level / r


def cutoff_product_bound(u: SpectralField, level: float) -> float:
    """r * F(r) for r = |u|_L4; equals min(r, level), hence <= level exactly."""
    r = norm_L4(u)
    return r * cutoff_factor(r, level)


def cutoff_lipschitz_sides(
    u: SpectralField, v: SpectralField, level: float, ru: float | None = None
) -> tuple[float, float]:
    """Both sides of |F(|u|) - F(|v|)| <= (1/level) F(|u|) F(|v|) |u - v|_L4;
    `ru` is |u|_L4 when the caller has it already."""
    _check_same_basis(u, v)
    ru = norm_L4(u) if ru is None else ru
    rv = norm_L4(v)
    lhs = abs(cutoff_factor(ru, level) - cutoff_factor(rv, level))
    rhs = (
        cutoff_factor(ru, level)
        * cutoff_factor(rv, level)
        * norm_L4(u - v)
        / level
    )
    return lhs, rhs


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


def cutoff_advection(u: SpectralField, level: float) -> SpectralField:
    """B_F(u) = F(|u|_L4) * B(u, u); satisfies <B_F(u), u> = 0."""
    return SpectralField(u.basis, cutoff_advection_coeffs(u.basis, u.coeffs, level)[0])


def monotonicity_gap(
    v1: SpectralField, v2: SpectralField, z: SpectralField, params: CutoffParams
) -> float:
    """<G(v1)-G(v2), v1-v2> + eta |v1-v2|_H^2 - (nu/2) |v1-v2|_V^2.

    Nonnegative up to rounding; callers compare against
    -gap_tolerance(v1, v2) rather than 0 so that exact-zero cases (v1 = v2)
    do not trip on floating-point noise.
    """
    d = v1 - v2
    pairing = params.nu * norm_V(d) ** 2 + inner_H(
        cutoff_advection(v1 + z, params.level) - cutoff_advection(v2 + z, params.level),
        d,
    )
    return pairing + params.eta * norm_H(d) ** 2 - 0.5 * params.nu * norm_V(d) ** 2


def gap_tolerance(v1: SpectralField, v2: SpectralField) -> float:
    """Magnitude-scaled rounding allowance for the monotonicity inequality."""
    return 1e-10 * (1.0 + norm_V(v1) ** 2 + norm_V(v2) ** 2)
