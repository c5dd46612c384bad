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

with eta = 7^7 * level^8 / (2^13 * nu^7).  `gap_of_terms` evaluates the
left-minus-right side so the inequality can be fuzzed numerically.

Each per-case formula has one implementation here, on Python floats, which
the fuzz suites call with a tile's norms.  The one kernel of fields is
`cutoff_advection_coeffs`, on a stack (one field is a stack of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import GalerkinBasis


@dataclass(frozen=True)
class CutoffParams:
    """Cutoff level (math.inf disables the cutoff) and viscosity."""

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


def product_bound(r: float, level: float) -> float:
    """r * F(r) of an L4 norm r; equals min(r, level), hence <= level exactly."""
    return r * cutoff_factor(r, level)


def lipschitz_sides(ru: float, rv: float, ruv: float, level: float) -> tuple[float, float]:
    """Both sides of |F(ru) - F(rv)| <= (1/level) F(ru) F(rv) ruv for the L4
    norms ru = |u|, rv = |v| and ruv = |u - v|."""
    fu, fv = cutoff_factor(ru, level), cutoff_factor(rv, level)
    return abs(fu - fv), fu * fv * ruv / level


def cutoff_advection_coeffs(basis: GalerkinBasis, w: np.ndarray,
                            level: float | np.ndarray, work: dict | None = None):
    """(B_F(w), |w|_L4, F) for coefficients (..., n, 2); the one B_F kernel
    of the stepper and the fuzz suites, with the L4 norm from the
    advection's grid.  The norm and F are arrays of the stack's leading
    shape (0-d for one field), each entry computed as for that member alone,
    and at its own level when `level` is an array that broadcasts to the
    leading shape (such as the stepper's one level per field).  Each stage
    keeps its result in `work` (see the spectral module), so a caller that
    evaluates B_F over one stack shape over and over allocates them once."""
    work = {} if work is None else work
    wg, dw = basis.synthesize_with_jacobian(w, work=work)
    l4 = basis.l4_norm(wg)
    adv = work["advection"] = np.einsum("...axyz,...acxyz->...cxyz", wg, dw,
                                        out=work.get("advection"))
    out = basis.analyze(adv, work)
    levels = np.full(l4.shape, level).ravel().tolist()
    f = np.array(list(map(cutoff_factor, l4.ravel().tolist(), levels))).reshape(l4.shape)
    # x * 1.0 is x bit for bit, so members with F = 1 are left as they are
    out *= f[..., None, None]
    return out, l4, f


def gap_of_terms(params: CutoffParams, pair: float, nv: float, nh: float) -> float:
    """The monotonicity gap from its terms for d = v1 - v2: the advection
    pairing <B_F(v1 + z) - B_F(v2 + z), d>, nv = |d|_V and nh = |d|_H."""
    nu = params.nu
    return nu * nv**2 + pair + params.eta * nh**2 - 0.5 * nu * nv**2


def tolerance_of_norms(nv1: float, nv2: float) -> float:
    """Rounding allowance of the monotonicity gap (compared with its negative,
    not 0, so v1 = v2 does not trip on noise) from nv1 = |v1|_V, nv2 = |v2|_V."""
    return 1e-10 * (1.0 + nv1**2 + nv2**2)
