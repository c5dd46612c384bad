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
0 <= k3 <= kmax.  A mode sits at +k if k3 >= 0, else conjugated at -k; a
k3 = 0 mode also fills -k, as that plane holds both members of each
Hermitian pair.  Each transform is sum-factorized into three 1-D dense
matrix products, one per axis (Deville, Fischer & Mund 2002, sec. 4):
complex exp(i*x*k) along axes 1 and 2, then a real matrix along axis 3 that
maps the [Re, Im] pairs of k3 >= 0 to grid values with weight 2 for k3 > 0.
A derivative d_a is applied in the stage along axis a, as that stage's
matrix times i*k_a, so it needs no half cube or pass of its own.  The half
cubes hold the wavenumbers first and the stack of fields and components
innermost, (k1, k2, k3, B), so each stage is one product over the whole
stack that contracts the leading axis and appends the new one; one copy
splits the complex values into real and imaginary parts for the real map.
The projection runs the adjoint stages the same way, after one copy that
turns the grids to (x3, x1, x2, B), and computes only the half cube it
gathers.  Every product reads the stack as the transposed rows of its left
factor: with OpenBLAS, a product that holds the stack in its right factor
or in the plain rows of a real left factor with 16 or more terms per sum
rounds some rows differently as the stack grows, while read this way each
stacked field is bit for bit its own transform, whatever the stack size or
BLAS thread count.  At these grid sizes (M = 5 to 33, often prime) a
full-grid FFT would spend most of its work on frequencies that are zero or
discarded.  Exactness of quadrature and projection rests on M >= 4*kmax + 1.

`build_basis` builds one basis per kmax and process, in integer array
arithmetic; every caller shares it, so all of its arrays are read-only.  The
stages of a transform keep their results (and a synthesis its products, as
views of them) in a caller-held `work` dict, made on first use, so a caller
that transforms one stack shape over and over (the stepper) allocates them
once; without a dict each call makes its own.

Coefficient-side operations on a stack keep the mode axis innermost, so
each runs as a few long loops rather than many of length 2 or 3: the one
polarization table is C-contiguous (p, c, n), both polarization einsums
run along n, and so do the sign flips, gathers and scatters of `_spectrum`
and `analyze`.  Each einsum still sums over its short axis into a zeroed
output in the same order, so the layout changes no bit, not even the sign
of a zero.

`synthesize_with_jacobian` gives a field's values, bit for bit those of
`synthesize`, and its derivatives from one scatter; B_F (with its L4 norm)
is built on it, and b(u, v, w) takes v's Jacobian from it.  The advection
keeps the convective form u_a d_a u_c, in which every term of an axis mode
such as k = (1, 0, 0) is an exact zero, so B(u, u) of that mode is exactly
0.0.  One field is a stack of one: the quadrature and the L4 norm give
arrays of the leading shape, 0-d for one field, and the norms and the
trilinear form, which also take a stack (..., n, 2) of coefficients on a
`basis`, a float for one field; every entry is bit for bit its field's.
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
        # rows Re, Im of each k3 -> grid values along axis 3, and the same of d3
        synth3, deriv3 = (np.stack([w.real, -w.imag], axis=1).reshape(2 * K + 2, M)
                          for w in (weight, 1j * k[K:, None] * weight))
        proj3 = np.ascontiguousarray(np.conj(root[:, K:]) / M).view(np.float64)
        # the basis is shared (see build_basis), so every array is read-only
        for name, value in (("modes", modes), ("polarizations", pol),
                            ("polarizations_int", pol_int),
                            ("eigenvalues", np.einsum("ni,ni->n", modes, modes)),
                            ("_src", src), ("_dst", dst), ("_sign", sign),
                            ("_gather", gather),
                            # complex, so that no einsum casts it per call
                            ("_pol_pcn", np.ascontiguousarray(pol.transpose(1, 2, 0),
                                                              dtype=np.complex128)),
                            ("_synth12", np.ascontiguousarray(root.T)),
                            ("_deriv12", 1j * k[:, None] * root.T),
                            ("_synth3", synth3), ("_deriv3", deriv3),
                            ("_proj12", np.conj(root) / M), ("_proj3", proj3)):
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

    def _to_grid(self, coeffs: np.ndarray, work: dict | None, jacobian: bool = False) -> tuple:
        """Values (..., 3, M, M, M) of coefficients (..., n, 2), scattered into
        the half cubes work["spec"] (P, L, 3), and with the `jacobian` their
        derivatives (..., 3, 3, M, M, M).  Each stage is one product per block
        over the stack, B its flattened stack and component axes: (k1, k2, k3, B) ->
        (k2, k3, B, x1) gives u and d1 u, -> (k3, B, x1, x2) u, d1 u and d2 u,
        split into (k3, Re/Im, block, B, x1, x2), and the real map gives each
        block and, from u, d3 u as grids (block, B, x1, x2, x3).  The products
        are made as views of their buffers on first use and kept in `work`."""
        work = {} if work is None else work
        work["spec"] = self._spectrum(coeffs, out=work.get("spec"))
        lead = coeffs.shape[:-2]
        if work.get("stages", (None,))[0] != (lead, jacobian):
            a, c, M = 2 * self.kmax + 1, self.kmax + 1, self.grid_size
            s, d = self._synth12, self._deriv12
            spec = work["spec"].reshape(a, -1).T
            x1 = np.empty((1 + jacobian, len(spec), M), dtype=np.complex128)
            u = x1[0].reshape(a, -1).T
            x2 = np.empty((1 + 2 * jacobian, len(u), M), dtype=np.complex128)
            parts = np.empty((c, 2, len(x2), x2[0].size // c))
            grids = np.empty((len(x2) + jacobian, parts.shape[-1], M))
            products = [(spec, s, x1[0]), (u, s, x2[0])]
            split = (parts, x2.view(np.float64).reshape(len(x2), c, -1, 2).transpose(1, 3, 0, 2))
            maps = [(parts.reshape(2 * c, -1).T, self._synth3, grids[:len(x2)].reshape(-1, M))]
            results = (grids[0].reshape(*lead, 3, M, M, M),)
            if jacobian:
                products += [(spec, d, x1[1]), (x1[1].reshape(a, -1).T, s, x2[1]), (u, d, x2[2])]
                maps.append((parts[:, :, 0].reshape(2 * c, -1).T, self._deriv3, grids[-1]))
                # (3, L, 3 M^3) turned to (L, 3, 3 M^3): the derivative axis ahead
                results += (grids[1:].reshape(3, -1, 3 * M**3).transpose(1, 0, 2).reshape(
                    *lead, 3, 3, M, M, M),)
            work["stages"] = (lead, jacobian), products, split, maps, results
        _, products, split, maps, results = work["stages"]
        for x, m, out in products:
            np.matmul(x, m, out=out)
        np.copyto(*split)
        for x, m, out in maps:
            np.matmul(x, m, out=out)
        return results

    def synthesize(self, coeffs: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Real grid values (..., 3, M, M, M) of a field or a stack; stages kept in `work`."""
        return self._to_grid(coeffs, work)[0]

    def synthesize_with_jacobian(self, coeffs: np.ndarray, work: dict | None = None) -> tuple:
        """Grid values (..., 3, M, M, M) of a field or a stack and its Jacobian
        du_c/dx_a, a (..., 3, 3, M, M, M) view.  The values are those of
        `synthesize`, and the stages (see `_to_grid`) are kept in `work`."""
        return self._to_grid(coeffs, work, jacobian=True)

    def analyze(self, grid: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Project physical grid values (..., 3, M, M, M) onto the basis
        (Leray + truncation); leading axes are a stack of fields.  The adjoint
        of `_to_grid`: the grids, turned to (x3, x1, x2, B), go to (x1, x2, B,
        k3) by the real map along axis 3, then to (x2, B, k3, k1) and (B, k3,
        k1, k2) by the DFTs along axes 1 and 2, and the coefficients are
        gathered from the last; the four results are kept in `work`.  The
        component of each Fourier amplitude parallel to k is discarded by
        expanding only on the polarization vectors, which realizes the
        orthogonal projection onto divergence-free fields."""
        n = self.n_half_modes
        M, lead, work = self.grid_size, grid.shape[:-4], {} if work is None else work
        turned = grid.reshape(-1, M, M, M).transpose(3, 1, 2, 0)
        spec = work["turned"] = work["turned"] if "turned" in work else np.empty(turned.shape)
        np.copyto(spec, turned)
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

    def quadrature(self, values: np.ndarray) -> np.ndarray:
        """Integrals over the box of scalar grid values (..., M, M, M), exact
        for trig polynomials of degree < grid_size: an array of the leading
        shape, 0-d for one grid, each summed as for that grid alone."""
        M3 = self.grid_size ** 3
        sums = values.reshape(-1, M3).sum(axis=1) * (BOX_VOLUME / M3)
        return sums.reshape(values.shape[:-3])

    def l4_norm(self, grid: np.ndarray) -> np.ndarray:
        """|u|_L4 from grid values (..., 3, M, M, M) by exact quadrature of
        |u|^4: an array of the leading shape, 0-d for one field, each norm
        computed as for that field alone."""
        sq = np.einsum("...cxyz,...cxyz->...xyz", grid, grid)
        sq *= sq
        r4 = self.quadrature(sq)
        # Python's pow for every root (numpy's vectorized ** 0.25 rounds some
        # of them differently)
        return np.array([r ** 0.25 for r in r4.ravel().tolist()]).reshape(r4.shape)


@dataclass(frozen=True)
class SpectralField:
    """Real divergence-free velocity field stored as complex coefficients.

    coeffs[n, p] = a + i*b holds the cos (a) and sin (b) coordinates of
    half-space mode n and polarization p.  Fields are immutable values.
    """

    basis: GalerkinBasis
    coeffs: np.ndarray = field(repr=False)

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


# ---- construction -------------------------------------------------------


def build_basis(kmax: int) -> GalerkinBasis:
    """The truncated basis, built once per kmax and process and shared by
    every caller; rejects kmax = 0 and kmax above the ceiling on every call,
    and a non-integer kmax with TypeError."""
    return _basis(operator.index(kmax))


_basis = functools.cache(GalerkinBasis)


def zero_field(basis: GalerkinBasis) -> SpectralField:
    return SpectralField(basis, np.zeros((basis.n_half_modes, 2), dtype=np.complex128))


@functools.lru_cache(maxsize=16)
def _amplitudes(basis: GalerkinBasis, decay: float) -> np.ndarray:
    """The read-only column |k|^-decay of random_coeffs, one per (kmax, decay)."""
    amp = (basis.eigenvalues.astype(np.float64) ** (-decay / 2.0))[:, None]
    amp.setflags(write=False)
    return amp


def random_coeffs(basis: GalerkinBasis, normals: np.ndarray, decay: float = 2.0,
                  norm=1.0) -> np.ndarray:
    """Random fields' coefficients, amplitude |k|^-decay per mode, from normal
    draws (..., 2, n, 2) of their cos then sin coordinates; |u|_H = norm
    exactly (a number or an array over the stack) unless norm is None."""
    coeffs = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) * _amplitudes(basis, decay)
    if norm is not None:
        h = np.sqrt(h2_coeffs(coeffs))
        if np.any(h == 0.0):
            raise ValueError("degenerate random draw")
        coeffs *= (norm / h)[..., None, None]
    return coeffs


def random_field(basis: GalerkinBasis, rng: np.random.Generator, decay: float = 2.0,
                 norm: float | None = 1.0) -> SpectralField:
    """A random field (see `random_coeffs`) from normals (2, n, 2) drawn from rng."""
    normals = rng.standard_normal((2, basis.n_half_modes, 2))
    return SpectralField(basis, random_coeffs(basis, normals, decay, norm))


# ---- norms and inner products -------------------------------------------


def _per_field(x):
    """A float for one field's 0-d result, else the array of a stack's."""
    return float(x) if x.ndim == 0 else x


def _field_sums(x: np.ndarray):
    """Sums over the trailing (n, 2) axes: a float for one field, for a stack
    an array of its leading shape, each entry bit for bit its field's sum."""
    return _per_field(x.sum(axis=(-2, -1)))


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
    return _per_field(np.sqrt(h2_coeffs(c)))


def norm_V(u, basis: GalerkinBasis | None = None):
    """|u|_V = sqrt(int |grad u|^2 dx) = sqrt(sum |k|^2 |c|^2)."""
    basis, (c,) = _on_basis(basis, u)
    return _per_field(np.sqrt(v2_coeffs(basis, c)))


def norm_dual(u: SpectralField) -> float:
    """Dual (V') norm, sqrt(sum |c|^2 / |k|^2); used for H^-1 forcing data."""
    c = u.coeffs
    lam = u.basis.eigenvalues.astype(np.float64)
    return float(np.sqrt(((c.real**2 + c.imag**2) / lam[:, None]).sum()))


def norm_L4(u, basis: GalerkinBasis | None = None, work: dict | None = None):
    """|u|_L4 via exact quadrature of |u(x)|^4 on the physical grid."""
    basis, (c,) = _on_basis(basis, u)
    return _per_field(basis.l4_norm(basis.synthesize(c, work)))


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
    ug = basis.synthesize(u, work.setdefault("u", {}))
    _, dv = basis.synthesize_with_jacobian(v, work.setdefault("v", {}))
    adv = np.einsum("...axyz,...acxyz->...cxyz", ug, dv)
    wg = basis.synthesize(w, work.setdefault("w", {}))
    return _per_field(basis.quadrature(np.einsum("...cxyz,...cxyz->...xyz", adv, wg)))


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
