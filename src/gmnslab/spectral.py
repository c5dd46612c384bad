"""Divergence-free Fourier Galerkin discretization of the 2*pi-periodic box.

Velocity fields are expanded in a real orthonormal basis of H (the space of
square-integrable, divergence-free, zero-mean vector fields on [0, 2*pi]^3):

    phi_cos[k, j](x) = sqrt(2/V) * p_j(k) * cos(k.x)
    phi_sin[k, j](x) = sqrt(2/V) * p_j(k) * sin(k.x)

where V = (2*pi)^3, k runs over a half-space of the integer lattice with
|k|_inf <= kmax (one representative of each +-k pair, k != 0), and p_1(k),
p_2(k) are two orthonormal polarization vectors perpendicular to k.  Every
field synthesized from this basis is real and exactly divergence-free, and
the Stokes operator A = -P Laplacian is diagonal with integer eigenvalues
|k|^2.  The smallest eigenvalue is 1, so the Poincare inequality holds with
constant 1 on this space.

A field stores one complex number c = a + i*b per (mode, polarization); a is
the cos coordinate and b the sin coordinate, so Parseval reads

    |u|_H^2 = sum |c|^2,      |u|_V^2 = sum |k|^2 |c|^2.

Quadratic and quartic nonlinear quantities are evaluated on a physical grid
with grid_size = 4*kmax + 1 points per dimension.  Products of two fields
have spectral support |k|_inf <= 2*kmax and integrands of the trilinear form
have degree <= 3*kmax, so with this grid both the convolution (after
projection back to the truncated basis) and the L4 quadrature are exact up to
rounding: the grid plays the role of a zero-padded (3/2-rule) dealiasing grid.

Grid fields are real, and only the truncated frequencies are ever filled or
read, so the transforms are exact DFTs on the half cube |k1|, |k2| <= kmax,
0 <= k3 <= kmax, shape (2*kmax+1, 2*kmax+1, kmax+1).  A mode sits at +k if
k3 >= 0, else conjugated at -k; a k3 = 0 mode also fills -k, as that plane
holds both members of each Hermitian pair.  Each transform is sum-factorized
into three 1-D dense matrix products, one per axis (Deville, Fischer & Mund
2002, sec. 4): complex exp(i*x*k) along axes 1 and 2, then a real matrix
along axis 3 that maps the [Re, Im] pairs of k3 >= 0 to grid values with
weight 2 for k3 > 0 (the Hermitian half).  The half cubes hold the
wavenumbers first and a stack of fields innermost, (k1, k2, k3, B), where B
flattens the stack, derivative and component axes, so each stage is one
matrix product over the whole stack: it contracts the leading axis and
appends the new one, and one copy splits the complex values into their real
and imaginary parts for the real map.  The projection runs the adjoint
stages the same way, after one copy that turns the grids to (x3, x1, x2, B),
and computes only the half cube it gathers.  Every product reads the stack
as the transposed rows of its left factor.  With OpenBLAS, a product that
holds the stack in its right factor or in the plain rows of a real left
factor with 16 or more terms per sum rounds some rows differently as the
stack grows; read this way, each stacked field is bit for bit its own
transform, whatever the stack size or BLAS thread count.  At the grid sizes
used here (M = 4*kmax + 1 = 5 to 33, often prime) a full-grid FFT spends
most of its work on frequencies that are zero or discarded, so the small
products are faster at every kmax up to the ceiling.  Exactness of
quadrature and projection still rests on M >= 4*kmax + 1, not on the
transform: the products are the exact DFT restricted to the truncated
frequencies.

`build_basis` builds one basis per kmax and process, in integer array
arithmetic; every caller shares it, so all of its arrays are read-only.  The
stages of a transform keep their results in a caller-held `work` dict, one
entry per stage made on its first use and written into afterwards, so a
caller that transforms one stack shape over and over (the stepper) allocates
them once; without a dict each call makes its own.

Coefficient-side operations on a stack keep the mode axis innermost, so
each runs as a few long loops rather than many of length 2 or 3: the one
polarization table is C-contiguous (p, c, n), both polarization einsums
run along n, and so do the sign flips, gathers and scatters of `_spectrum`
and `analyze`.  Each einsum still sums over its short axis into a zeroed
output in the same order, so the layout changes no bit, not even the sign
of a zero.

`synthesize_with_jacobian` scatters once and gives grid values and Jacobian
from one stacked transform; the advection and B_F (with its L4 norm) are
built on it.  The advection keeps the convective form u_a d_a u_c, in which
every term of the single mode k = (1, 0, 0) is an exact zero, so B(u, u) of
that mode is exactly 0.0.  The norms and the trilinear form also take a stack
(..., n, 2) of coefficients on a `basis`, giving arrays, bit for bit per field.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

# Resource guard: a desk-scale build never needs more than this.
KMAX_CEILING = 8

BOX_VOLUME = (2.0 * np.pi) ** 3

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GalerkinBasis:
    """Truncated divergence-free Fourier basis on the 2*pi-periodic box.

    Parameters
    ----------
    kmax : int
        Truncation radius in the max norm, 1 <= kmax <= 8.  The physical
        grid has grid_size = 4*kmax + 1 points per dimension, the smallest
        grid on which quartic quadrature is exact.
    """

    kmax: int
    grid_size: int = field(init=False)
    modes: np.ndarray = field(init=False, repr=False, compare=False)
    polarizations: np.ndarray = field(init=False, repr=False, compare=False)
    polarizations_int: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1 (the empty basis is rejected)")
        if self.kmax > KMAX_CEILING:
            raise ValueError(f"kmax={self.kmax} exceeds the ceiling {KMAX_CEILING}")
        K, M = self.kmax, 4 * self.kmax + 1
        object.__setattr__(self, "grid_size", M)

        # the lattice [-K, K]^3 in lexicographic order; the rows after its
        # centre are the half space (k1, k2, k3) > (0, 0, 0)
        k = np.arange(-K, K + 1)
        lattice = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3)
        modes = lattice[len(lattice) // 2 + 1:]

        # two integer vectors orthogonal to k and to each other: cross
        # products with the unit vector along the smallest |k_i|, so the
        # divergence-free constraint holds in exact integer arithmetic
        e = np.eye(3, dtype=np.int64)[np.argmin(np.abs(modes), axis=1)]
        p1 = np.cross(modes, e)
        pol_int = np.stack([p1, np.cross(modes, p1)], axis=1)
        pol = pol_int / np.linalg.norm(pol_int, axis=2, keepdims=True)

        # Half-cube scatter targets (mode n -> dst, conjugated where sign is
        # -1; see the module docstring), wavenumbers and 1-D DFT matrices,
        # cached per basis.  Phases are reduced mod M in integers, so every
        # entry is an exact M-th root of unity up to one rounding.
        cube = (2 * K + 1, 2 * K + 1, K + 1)
        mirror = np.flatnonzero(modes[:, 2] == 0)
        src = np.concatenate([np.arange(len(modes)), mirror])
        sign = np.concatenate([np.where(modes[:, 2] < 0, -1, 1), -np.ones_like(mirror)])
        dst = np.ravel_multi_index(tuple((sign[:, None] * modes[src] + (K, K, 0)).T), cube)
        # where analyze finds mode n in its (k3, k1, k2) result
        i1, i2, i3 = np.unravel_index(dst[:len(modes)], cube)
        gather = np.ravel_multi_index((i3, i1, i2), cube[::-1])
        root = np.exp(2j * np.pi * (np.outer(np.arange(M), k) % M) / M)  # (M, 2K+1)
        weight = np.where(k[K:] == 0, 1.0, 2.0)[:, None] * root[:, K:].T
        synth3 = np.stack([weight.real, -weight.imag], axis=1).reshape(2 * K + 2, M)
        proj3 = np.ascontiguousarray(np.conj(root[:, K:]) / M).view(np.float64)
        ik = 1j * np.array(np.meshgrid(k, k, k[K:], indexing="ij")).reshape(3, 1, -1)
        # the basis is shared (see build_basis), so every array is read-only
        for name, value in (("modes", modes), ("polarizations", pol),
                            ("polarizations_int", pol_int),
                            ("eigenvalues", np.einsum("ni,ni->n", modes, modes)),
                            ("_src", src), ("_dst", dst), ("_sign", sign),
                            ("_gather", gather),
                            # complex, so that no einsum casts it per call
                            ("_pol_pcn", np.ascontiguousarray(pol.transpose(1, 2, 0),
                                                              dtype=np.complex128)),
                            ("_ik", ik),
                            ("_synth12", np.ascontiguousarray(root.T)),
                            ("_synth3", synth3), ("_proj12", np.conj(root) / M),
                            ("_proj3", proj3)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_synth_scale", 1.0 / np.sqrt(2.0 * BOX_VOLUME))
        object.__setattr__(self, "_cube_size", math.prod(cube))

    # ---- counts ------------------------------------------------------

    @property
    def n_half_modes(self) -> int:
        return len(self.modes)

    @property
    def n_coeffs(self) -> int:
        """Stored complex coefficients (half-space modes times 2 polarizations)."""
        return 2 * self.n_half_modes

    @property
    def poincare_constant(self) -> float:
        return float(self.eigenvalues.min())

    # ---- transforms --------------------------------------------------

    def _spectrum(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coefficients (..., n, 2) -> half cubes of the real grid fields,
        (P, L, 3): P = (2K+1) * (2K+1) * (K+1) the flattened wavenumbers
        (k1, k2, k3) of the half cube, then the L fields of the flattened
        stack and their components.  The amplitudes are formed as (L, 3, n),
        modes innermost, and turned only by the scatter.  Only the scatter
        targets are written, so a reused `out` keeps the zero padding it was
        allocated with."""
        c = coeffs.reshape(-1, *coeffs.shape[-2:])
        uhat = np.einsum("lnp,pcn->lcn", np.conj(c), self._pol_pcn)
        uhat *= self._synth_scale
        vals = uhat.take(self._src, axis=-1)
        vals.imag *= self._sign
        spec = out if out is not None else np.zeros((self._cube_size, len(c), 3),
                                                    dtype=np.complex128)
        spec[self._dst] = vals.transpose(2, 0, 1)
        return spec

    def _to_grid(self, spec: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Half cubes (P, ...) (see `_spectrum`) -> real grids (..., M, M, M).

        Each stage is one matrix product over every field of the stack, B
        the flattened trailing axes, that contracts the leading axis and
        appends the grid axis.  The DFTs along axes 1 and 2 go (k1, k2, k3,
        B) -> (k2, k3, B, x1) -> (k3, B, x1, x2); the result is split into
        its real and imaginary parts, (k3, Re/Im, B, x1, x2), and the real
        map along axis 3 applies the k3 weights and gives the contiguous
        grids (B, x1, x2, x3).  The four results are kept in `work` (see
        the module docstring)."""
        a, c = 2 * self.kmax + 1, self.kmax + 1
        M, rest, work = self.grid_size, spec.shape[1:], {} if work is None else work
        g = work["x1"] = np.matmul(spec.reshape(a, -1).T, self._synth12, out=work.get("x1"))
        g = work["x2"] = np.matmul(g.reshape(a, -1).T, self._synth12, out=work.get("x2"))
        parts = g.view(np.float64).reshape(c, -1, 2).transpose(0, 2, 1)
        g = work["parts"] = _copy(parts, work.get("parts"))
        g = work["x3"] = np.matmul(g.reshape(2 * c, -1).T, self._synth3, out=work.get("x3"))
        return g.reshape(*rest, M, M, M)

    def synthesize(self, coeffs: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Real grid values (..., 3, M, M, M) of a field or a stack; stages kept in `work`."""
        work = {} if work is None else work
        spec = work["spec"] = self._spectrum(coeffs, out=work.get("spec"))
        grids = self._to_grid(spec, work)
        return grids.reshape(*coeffs.shape[:-2], *grids.shape[1:])

    def synthesize_with_jacobian(
        self, coeffs: np.ndarray, grad_coeffs: np.ndarray | None = None,
        work: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Grid values of `coeffs` (..., 3, M, M, M) and the Jacobian dv_c/dx_a
        of `grad_coeffs`, default the same field (scattered once),
        (..., 3, 3, M, M, M); leading axes are a stack of fields.  The zero
        half cubes of the field and its 3 derivatives, (P, L, 4, 3), and the
        grids are kept in `work` (see the module docstring)."""
        lead, work = coeffs.shape[:-2], {} if work is None else work
        if "cubes" not in work:
            work["cubes"] = np.zeros((self._cube_size, math.prod(lead), 4, 3),
                                     dtype=np.complex128)
        cubes = work["cubes"]
        self._spectrum(coeffs, out=cubes[:, :, 0])
        dspec = cubes[:, :, :1] if grad_coeffs is None else (
            self._spectrum(grad_coeffs)[:, :, None])
        # wavenumbers innermost: a few long loops instead of many of length 3
        np.multiply(self._ik, dspec.transpose(1, 2, 3, 0), order="C",
                    out=cubes[:, :, 1:].transpose(1, 2, 3, 0))
        grids = self._to_grid(cubes, work)
        M = self.grid_size
        return (grids[:, 0].reshape(*lead, 3, M, M, M),
                grids[:, 1:].reshape(*lead, 3, 3, M, M, M))

    def analyze(self, grid: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Project physical grid values (..., 3, M, M, M) onto the basis
        (Leray + truncation); leading axes are a stack of fields.

        The adjoint of `_to_grid`, one matrix product per stage over every
        field that contracts the leading axis and appends the wavenumber
        axis: the grids, turned to (x3, x1, x2, B), go to (x1, x2, B, k3) by
        the real map along axis 3, then to (x2, B, k3, k1) and (B, k3, k1,
        k2) by the DFTs along axes 1 and 2, and the coefficients are gathered
        from the last, and the four results are kept in `work`.  Each product
        reads the stack as the transposed rows of its left factor (see the
        module docstring), so each field's coefficients do not depend on its
        stack.

        The component of each Fourier amplitude parallel to k is discarded by
        expanding only on the polarization vectors, which realizes the
        orthogonal projection onto divergence-free fields.
        """
        n = self.n_half_modes
        M, lead, work = self.grid_size, grid.shape[:-4], {} if work is None else work
        spec = work["turned"] = _copy(grid.reshape(-1, M, M, M).transpose(3, 1, 2, 0),
                                      work.get("turned"))
        spec = work["k3"] = np.matmul(spec.reshape(M, -1).T, self._proj3, out=work.get("k3"))
        spec = work["k1"] = np.matmul(spec.view(np.complex128).reshape(M, -1).T,
                                      self._proj12, out=work.get("k1"))
        spec = work["k2"] = np.matmul(spec.reshape(M, -1).T, self._proj12, out=work.get("k2"))
        # a coefficient is conj(u . p), u conjugated where the mode sits at
        # -k (sign -1): the same as the gathered value conjugated at +k, dotted
        uhat = spec.reshape(*lead, 3, -1).take(self._gather, axis=-1)
        uhat.imag *= -self._sign[:n]
        # written through its (..., 2, n) view: the sum runs along the modes
        # and the coefficients come out C-contiguous
        coeffs = np.empty((*lead, n, 2), dtype=np.complex128)
        np.einsum("...cn,pcn->...pn", uhat, self._pol_pcn, out=coeffs.swapaxes(-1, -2))
        coeffs /= self._synth_scale
        return coeffs

    def quadrature(self, values: np.ndarray):
        """Integral over the box of scalar grid values (exact for trig
        polynomials of degree < grid_size); of a stack (..., M, M, M), an
        array, each summed as for one field (see `l4_norm`)."""
        if values.ndim == 3:
            return float(values.sum() * (BOX_VOLUME / values.size))
        M3 = self.grid_size ** 3
        sums = values.reshape(-1, M3).sum(axis=1) * (BOX_VOLUME / M3)
        return sums.reshape(values.shape[:-3])

    def l4_norm(self, grid: np.ndarray):
        """|u|_L4 from grid values (3, M, M, M) by exact quadrature of |u|^4;
        for a stack (..., 3, M, M, M), an array of norms of the leading
        shape, each computed as for one field."""
        sq = np.einsum("...cxyz,...cxyz->...xyz", grid, grid)
        if sq.ndim == 3:
            return self.quadrature(sq * sq) ** 0.25
        # one row sum per member over its contiguous squares adds them in the
        # order `quadrature` does; the roots use Python's pow, as above
        # (numpy's vectorized ** 0.25 rounds some of them differently)
        M3 = self.grid_size ** 3
        sq *= sq
        sums = sq.reshape(-1, M3).sum(axis=1) * (BOX_VOLUME / M3)
        return np.array([r ** 0.25 for r in sums.tolist()]).reshape(sq.shape[:-3])


@dataclass(frozen=True)
class SpectralField:
    """Real divergence-free velocity field stored as complex coefficients.

    coeffs[n, p] = a + i*b holds the cos (a) and sin (b) coordinates of
    half-space mode n and polarization p.  Fields are immutable values.
    """

    basis: GalerkinBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.basis.n_half_modes, 2):
            raise ValueError(
                f"coefficient array must have shape {(self.basis.n_half_modes, 2)}"
            )
        if not c.flags.owndata:
            c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # ---- linear algebra ----------------------------------------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.basis, -self.coeffs)


def _check_same_basis(*fields: SpectralField) -> GalerkinBasis:
    basis = fields[0].basis
    for f in fields[1:]:
        if f.basis is not basis and f.basis.kmax != basis.kmax:
            raise ValueError("fields live on different bases")
    return basis


def _on_basis(basis: GalerkinBasis | None, *xs) -> tuple[GalerkinBasis, tuple]:
    """(basis, coefficients) of the fields xs, or of the stacks xs on `basis`."""
    return (basis, xs) if basis else (_check_same_basis(*xs), tuple(x.coeffs for x in xs))


def _copy(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A C-contiguous copy of x, written into `out` when given."""
    if out is None:
        return np.ascontiguousarray(x)
    np.copyto(out, x)
    return out


# ---- construction -------------------------------------------------------


def build_basis(kmax: int) -> GalerkinBasis:
    """The truncated basis, built once per kmax and process and shared by
    every caller; rejects kmax = 0 and kmax above the ceiling on every call,
    and a non-integer kmax with TypeError."""
    return _basis(operator.index(kmax))


_basis = functools.cache(GalerkinBasis)


def zero_field(basis: GalerkinBasis) -> SpectralField:
    return SpectralField(basis, np.zeros((basis.n_half_modes, 2), dtype=np.complex128))


def random_coeffs(basis: GalerkinBasis, normals: np.ndarray, decay: float = 2.0,
                  norm=1.0) -> np.ndarray:
    """Random fields' coefficients, amplitude |k|^-decay per mode, from normal
    draws (..., 2, n, 2) of their cos then sin coordinates; |u|_H = norm
    exactly (a number or an array over the stack) unless norm is None."""
    amp = basis.eigenvalues.astype(np.float64) ** (-decay / 2.0)
    coeffs = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) * amp[:, None]
    if norm is not None:
        h = np.sqrt(h2_coeffs(coeffs))
        if np.any(h == 0.0):
            raise ValueError("degenerate random draw")
        coeffs *= np.expand_dims(norm / h, (-2, -1))
    return coeffs


def random_field(basis: GalerkinBasis, rng: np.random.Generator, decay: float = 2.0,
                 norm: float | None = 1.0) -> SpectralField:
    """A random field (see `random_coeffs`) from normals (2, n, 2) drawn from rng."""
    normals = rng.standard_normal((2, basis.n_half_modes, 2))
    return SpectralField(basis, random_coeffs(basis, normals, decay, norm))


# ---- norms and inner products -------------------------------------------


def _field_sums(x: np.ndarray):
    """Sums over the trailing (n, 2) axes: a float for one field, for a stack
    an array of its leading shape, each entry bit for bit its field's sum."""
    s = x.sum(axis=(-2, -1))
    return float(s) if s.ndim == 0 else s


def h2_coeffs(c: np.ndarray):
    """|u|_H^2 = sum |c|^2 of a coefficient array (Parseval)."""
    return _field_sums(c.real**2 + c.imag**2)


def v2_coeffs(basis: GalerkinBasis, c: np.ndarray):
    """|u|_V^2 = sum |k|^2 |c|^2 of a coefficient array."""
    lam = basis.eigenvalues.astype(np.float64)
    return _field_sums(lam[:, None] * (c.real**2 + c.imag**2))


def inner_coeffs(c1: np.ndarray, c2: np.ndarray):
    """(u, w) = sum Re(c1 * conj(c2)) of two coefficient arrays (Parseval)."""
    return _field_sums(np.real(c1 * np.conj(c2)))


def norm_H(u, basis: GalerkinBasis | None = None):
    """|u|_H = sqrt(int |u|^2 dx)."""
    basis, (c,) = _on_basis(basis, u)
    h = np.sqrt(h2_coeffs(c))
    return float(h) if h.ndim == 0 else h


def norm_V(u, basis: GalerkinBasis | None = None):
    """|u|_V = sqrt(int |grad u|^2 dx) = sqrt(sum |k|^2 |c|^2)."""
    basis, (c,) = _on_basis(basis, u)
    v = np.sqrt(v2_coeffs(basis, c))
    return float(v) if v.ndim == 0 else v


def norm_dual(u: SpectralField) -> float:
    """Dual (V') norm, sqrt(sum |c|^2 / |k|^2); used for H^-1 forcing data."""
    c = u.coeffs
    lam = u.basis.eigenvalues.astype(np.float64)
    return float(np.sqrt(((c.real**2 + c.imag**2) / lam[:, None]).sum()))


def norm_L4(u, basis: GalerkinBasis | None = None, work: dict | None = None):
    """|u|_L4 via exact quadrature of |u(x)|^4 on the physical grid."""
    basis, (c,) = _on_basis(basis, u)
    return basis.l4_norm(basis.synthesize(c, work))


# ---- advection ------------------------------------------------------------


def trilinear_b(u, v, w, basis: GalerkinBasis | None = None, work: dict | None = None):
    """b(u, v, w) = int (u . grad) v . w dx, exact to rounding.

    The integrand is a trig polynomial of degree <= 3*kmax, below the grid's
    exactness threshold, so the skew symmetry b(u, v, v) = 0 and the
    antisymmetry b(u, v, w) = -b(u, w, v) hold to floating-point rounding.
    Of stacks, b per member of their broadcast, each synthesis in `work`.
    """
    basis, (u, v, w) = _on_basis(basis, u, v, w)
    work = {} if work is None else work
    ug, dv = basis.synthesize_with_jacobian(u, v, work=work.setdefault("uv", {}))
    adv = np.einsum("...axyz,...acxyz->...cxyz", ug, dv)
    wg = basis.synthesize(w, work.setdefault("w", {}))
    return basis.quadrature(np.einsum("...cxyz,...cxyz->...xyz", adv, wg))


# ---- serialization --------------------------------------------------------

_HEADER = struct.Struct("<BII")


def field_to_bytes(u: SpectralField) -> bytes:
    """Versioned flat binary record: header byte, kmax, coefficient count,
    then little-endian float64 (re, im) pairs in basis order."""
    payload = np.ascontiguousarray(u.coeffs, dtype="<c16")
    return _HEADER.pack(_FORMAT_VERSION, u.basis.kmax, payload.size) + payload.tobytes()


def field_from_bytes(data: bytes, basis: GalerkinBasis | None = None) -> SpectralField:
    version, kmax, npairs = _HEADER.unpack_from(data, 0)
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported field format version {version}")
    if basis is None:
        basis = build_basis(kmax)
    elif basis.kmax != kmax:
        raise ValueError(f"field was serialized on kmax={kmax}, basis has {basis.kmax}")
    if npairs != basis.n_coeffs:
        raise ValueError("coefficient count does not match the basis")
    coeffs = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    return SpectralField(basis, coeffs.reshape(basis.n_half_modes, 2))
