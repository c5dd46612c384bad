import math
import struct

import numpy as np
import pytest

from gmnslab import cutoff as co
from gmnslab import spectral as sp

from conftest import single_mode_field
from oracles import (analyze_reference, basis_reference, grad_direct, inner_H, nonlinear_B,
                     norm_h_oracle, norm_l4_oracle, spectrum_reference, synth_direct,
                     trilinear_oracle)

# single modes on the k3 = 0 plane (stored at both +k and -k in the half
# cube) and with k3 < 0 (stored conjugated at -k)
PLANE_MODES = ((1, 0, 0), (0, 1, 0), (1, -1, 0), (2, -1, 0), (0, 2, 0))
FLIPPED_MODES = ((0, 1, -1), (1, 1, -2), (2, -1, -1))


class TestBasisConstruction:
    def test_mode_counts(self):
        b1 = sp.build_basis(1)
        # one stored mode per +-k pair of the lattice's (2*kmax+1)^3 - 1
        # wavevectors, two polarizations each
        assert 2 * b1.n_half_modes == 26
        assert 2 * b1.n_coeffs == 52
        assert b1.n_half_modes == 13
        b2 = sp.build_basis(2)
        assert 2 * b2.n_half_modes == 124

    def test_rejects_degenerate_kmax(self):
        # rejected on every call, not only on the first
        for _ in range(2):
            with pytest.raises(ValueError):
                sp.build_basis(0)
            with pytest.raises(ValueError):
                sp.build_basis(9)
        with pytest.raises(TypeError):
            sp.build_basis(2.0)

    def test_matches_per_mode_reference(self):
        for kmax in range(1, sp.KMAX_CEILING + 1):
            b = sp.build_basis(kmax)
            modes, pol_int, pol = basis_reference(kmax)
            for got, want in ((b.modes, modes), (b.polarizations_int, pol_int),
                              (b.polarizations, pol)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_built_once_per_process(self):
        assert sp.build_basis(2) is sp.build_basis(2)
        assert sp.build_basis(np.int64(2)) is sp.build_basis(2)

    def test_shared_arrays_read_only(self, basis2):
        names = ("modes", "polarizations", "polarizations_int", "eigenvalues",
                 "_src", "_dst", "_sign", "_gather", "_pol_pcn", "_synth12",
                 "_deriv12", "_synth3", "_deriv3", "_proj12", "_proj3")
        for name in names:
            arr = getattr(basis2, name)
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]

    def test_polarizations_orthogonal_to_mode_exactly(self, basis2):
        # integer cross products: orthogonality in exact integer arithmetic
        dots1 = np.einsum("ni,ni->n", basis2.polarizations_int[:, 0], basis2.modes)
        dots2 = np.einsum("ni,ni->n", basis2.polarizations_int[:, 1], basis2.modes)
        assert np.all(dots1 == 0) and np.all(dots2 == 0)

    def test_polarizations_orthonormal(self, basis2):
        p = basis2.polarizations
        gram = np.einsum("npi,nqi->npq", p, p)
        assert np.abs(gram - np.eye(2)).max() < 1e-14

    def test_eigenvalues_integer_mod_squared(self, basis2):
        assert basis2.eigenvalues.dtype == np.int64
        expected = (basis2.modes**2).sum(axis=1)
        assert np.array_equal(basis2.eigenvalues, expected)
        assert basis2.eigenvalues.min() == 1
        assert basis2.poincare_constant == 1.0

    def test_example_polarizations_span(self, basis1):
        _, idx = single_mode_field(basis1, (1, 0, 0))
        span = basis1.polarizations[idx]
        # both orthogonal to k and spanning the (e2, e3) plane
        assert np.abs(span @ np.array([1.0, 0, 0])).max() < 1e-15
        assert abs(abs(np.linalg.det(np.vstack([span, [1, 0, 0]])))) == pytest.approx(1.0)


class TestNormsAndParseval:
    def test_parseval_batch(self, basis2, rng):
        for _ in range(1000):
            u = sp.random_field(basis2, rng, norm=rng.uniform(0.1, 5.0))
            g = basis2.synthesize(u.coeffs)
            h2 = basis2.quadrature(np.einsum("cxyz,cxyz->xyz", g, g))
            assert h2 == pytest.approx(sp.norm_H(u) ** 2, rel=1e-12)

    def test_norms_zero_field(self, basis2):
        z = sp.zero_field(basis2)
        assert sp.norm_H(z) == sp.norm_V(z) == sp.norm_L4(z) == 0.0

    def test_poincare(self, basis2, rng):
        for _ in range(200):
            u = sp.random_field(basis2, rng, norm=rng.uniform(0.01, 10.0))
            assert sp.norm_H(u) <= sp.norm_V(u) * (1 + 1e-14)

    def test_l4_closed_form_sine_sheet(self, basis1, basis2, basis3, rng):
        # u = (sin x2, 0, 0): int sin^4 over the box is (3/8)*2pi per axis,
        # constant in the others, so |u|_L4^4 = 3 pi^3
        for basis in (basis1, basis2, basis3):
            m = basis.grid_size
            x = 2 * np.pi * np.arange(m) / m
            grid = np.zeros((3, m, m, m))
            grid[0] = np.sin(x)[None, :, None]
            u = sp.SpectralField(basis, basis.analyze(grid))
            assert np.abs(basis.synthesize(u.coeffs) - grid).max() < 1e-13
            assert sp.norm_L4(u) ** 4 == pytest.approx(3 * math.pi**3, rel=1e-12)
            # coefficients -> grid -> coefficients
            w = sp.random_field(basis, rng)
            again = basis.analyze(basis.synthesize(w.coeffs))
            assert np.abs(again - w.coeffs).max() < 1e-13

    def test_l4_against_oracle(self, basis2, basis3, rng):
        for basis in (basis2, basis3):
            for _ in range(10):
                u = sp.random_field(basis, rng, norm=rng.uniform(0.5, 2.0))
                assert sp.norm_L4(u) == pytest.approx(norm_l4_oracle(u), rel=1e-12)
                assert sp.norm_H(u) == pytest.approx(norm_h_oracle(u), rel=1e-12)
            for k in PLANE_MODES + FLIPPED_MODES:
                u, _ = single_mode_field(basis, k, pol=1, coeff=0.8 - 0.6j)
                g = synth_direct(u, basis.grid_size)
                assert np.abs(basis.synthesize(u.coeffs) - g).max() < 1e-14
                assert sp.norm_L4(u) == pytest.approx(norm_l4_oracle(u), rel=1e-12)


class TestTransforms:
    def test_synthesis_and_jacobian_against_oracle(self, basis1, basis2, basis3, rng):
        for basis in (basis1, basis2, basis3):
            for _ in range(3):
                c = sp.random_field(basis, rng)
                values, jac = basis.synthesize_with_jacobian(c.coeffs)
                assert np.abs(values - synth_direct(c, basis.grid_size)).max() < 1e-13
                assert np.abs(jac - grad_direct(c, basis.grid_size)).max() < 1e-13


    @pytest.mark.parametrize("lead", [(), (4, 2)])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_values_equal_synthesize(self, kmax, lead):
        # the values pass through the products of `synthesize` and each
        # derivative through its own: the grids are equal bit for bit, and so
        # is the L4 norm that B_F takes from them
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(30 + kmax)
        c = np.stack([sp.random_field(basis, rng).coeffs
                      for _ in range(math.prod(lead))]).reshape(*lead, -1, 2)
        want = basis.synthesize(c)
        values, jac = basis.synthesize_with_jacobian(c)
        assert values.shape == want.shape and values.tobytes() == want.tobytes()
        assert jac.shape == (*lead, 3, 3) + want.shape[-3:]
        l4 = co.cutoff_advection_coeffs(basis, c, 1.0)[1]
        assert np.float64(l4).tobytes() == np.float64(sp.norm_L4(c, basis)).tobytes()


class TestStackedTransforms:
    # a pair, a kmax-2 tile of the contraction march, a kmax-1 tile and a
    # partial tile
    @pytest.mark.parametrize("lead", [(1, 2), (4, 2), (27, 2), (3, 2)])
    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_stack_equals_each_field_alone(self, kmax, lead):
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(kmax)
        c = np.stack([sp.random_field(basis, rng).coeffs for _ in range(math.prod(lead))])
        c = c.reshape(*lead, *c.shape[1:])
        grid = rng.standard_normal((*lead, 3) + (basis.grid_size,) * 3)
        values, jac = basis.synthesize_with_jacobian(c)
        coeffs = basis.analyze(grid)
        for i in np.ndindex(*lead):
            v1, j1 = basis.synthesize_with_jacobian(c[i])
            assert values[i].tobytes() == v1.tobytes()
            assert jac[i].tobytes() == j1.tobytes()
            assert coeffs[i].tobytes() == basis.analyze(grid[i]).tobytes()

    @pytest.mark.parametrize("kmax", range(1, sp.KMAX_CEILING + 1))
    def test_l4_equals_each_field_alone(self, kmax):
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(kmax)
        grid = rng.standard_normal((4, 2, 3) + (basis.grid_size,) * 3)
        norms = basis.l4_norm(grid)
        assert norms.shape == (4, 2)
        for i in np.ndindex(4, 2):
            assert norms[i].tobytes() == np.float64(basis.l4_norm(grid[i])).tobytes()

    @pytest.mark.parametrize("kmax", range(1, sp.KMAX_CEILING + 1))
    def test_sums_equal_each_field_alone(self, kmax):
        # the solver's ledger columns: a (9, 3) stack, a per-group (9, 1)
        # one broadcast against it and one field broadcast against it
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(kmax)

        def coeffs(*lead):
            shape = (*lead, basis.n_half_modes, 2)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        v, z, f = coeffs(9, 3), coeffs(9, 1), coeffs()
        sums = {"h2": (sp.h2_coeffs(v), lambda c, g: sp.h2_coeffs(c)),
                "v2": (sp.v2_coeffs(basis, v), lambda c, g: sp.v2_coeffs(basis, c)),
                "zv": (sp.inner_coeffs(z, v), lambda c, g: sp.inner_coeffs(z[g, 0], c)),
                "fv": (sp.inner_coeffs(f, v), lambda c, g: sp.inner_coeffs(f, c))}
        for name, (stacked, alone) in sums.items():
            assert stacked.shape == (9, 3), name
            for g, p in np.ndindex(9, 3):
                want = np.float64(alone(v[g, p], g)).tobytes()
                assert stacked[g, p].tobytes() == want, name

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_reused_work_arrays_keep_the_padding(self, kmax):
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(10 + kmax)
        lead = (3, 2)
        work = {}
        for norm in (2.0, 0.5):
            c = np.stack([sp.random_field(basis, rng, norm=norm).coeffs for _ in range(6)])
            c = c.reshape(*lead, *c.shape[1:])
            grid = rng.standard_normal((*lead, 3) + (basis.grid_size,) * 3)
            for got, want in zip(basis.synthesize_with_jacobian(c, work=work),
                                 basis.synthesize_with_jacobian(c)):
                assert got.tobytes() == want.tobytes()
            got = basis.analyze(grid, work)
            assert got.tobytes() == basis.analyze(grid).tobytes()
            # only the scatter targets of the half cubes are ever written
            pad = np.ones(len(work["spec"]), dtype=bool)
            pad[basis._dst] = False
            assert not work["spec"][pad].view(np.float64).any()
            assert not np.signbit(work["spec"][pad].view(np.float64)).any()


def _signed_zeros(rng, x):
    """x with about a fifth of its float64 entries set to -0.0 and a fifth to
    +0.0, and a copy of all zeros with random signs."""
    x = x.copy()
    flat = x.view(np.float64).reshape(-1)
    pick = rng.random(flat.size)
    flat[pick < 0.2] = -0.0
    flat[(pick >= 0.2) & (pick < 0.4)] = 0.0
    zero = np.where(rng.random(flat.size) < 0.5, -0.0, 0.0)
    return x, zero.view(x.dtype).reshape(x.shape)


class TestPolarizationLayout:
    """The mode-innermost polarization contractions against the (n, p, c)
    layout they replaced (`oracles.spectrum_reference`, `analyze_reference`),
    compared as int64 views, so +0.0 and -0.0 count as different."""

    @pytest.mark.parametrize("fields", [1, 2, 3, 8, 27])
    @pytest.mark.parametrize("kmax", range(1, sp.KMAX_CEILING + 1))
    def test_equal_to_reference_bit_for_bit(self, kmax, fields):
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(100 * kmax + fields)
        n, M = basis.n_half_modes, basis.grid_size
        # the layout itself: modes innermost in memory, not only in shape
        assert basis._pol_pcn.flags.c_contiguous
        c = rng.standard_normal((fields, n, 2)) + 1j * rng.standard_normal((fields, n, 2))
        grid = rng.standard_normal((fields, 3, M, M, M))
        for c in _signed_zeros(rng, c):
            got = basis._spectrum(c)
            assert np.array_equal(got.view(np.int64), spectrum_reference(basis, c).view(np.int64))
        for grid in _signed_zeros(rng, grid):
            got = basis.analyze(grid)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64),
                                  analyze_reference(basis, grid).view(np.int64))


class TestTrilinearForm:
    def test_skew_symmetry(self, basis2, rng):
        for _ in range(100):
            u = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 3.0))
            v = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 3.0))
            cap = 1e-12 * sp.norm_V(u) * sp.norm_V(v) ** 2
            assert abs(sp.trilinear_b(u, v, v)) <= cap

    def test_antisymmetry(self, basis2, rng):
        for _ in range(100):
            u, v, w = (sp.random_field(basis2, rng) for _ in range(3))
            cap = 1e-12 * sp.norm_V(u) * sp.norm_V(v) * sp.norm_V(w)
            assert abs(sp.trilinear_b(u, v, w) + sp.trilinear_b(u, w, v)) <= cap

    def test_against_quadrature_oracle(self, basis2, basis3, rng):
        for basis, cases in ((basis2, 20), (basis3, 5)):
            for _ in range(cases):
                u, v, w = (sp.random_field(basis, rng) for _ in range(3))
                got = sp.trilinear_b(u, v, w)
                want = trilinear_oracle(u, v, w)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
            # single-mode triples k + q = p across the k3 = 0 plane
            for k, pu, q, pv, p in (((1, 0, 0), 1, (0, 1, 0), 1, (1, 1, 0)),
                                    ((1, -1, 0), 0, (0, 1, -1), 0, (1, 0, -1)),
                                    ((1, 1, 0), 0, (1, -1, 0), 1, (2, 0, 0)),
                                    ((1, -1, 0), 1, (1, 0, -1), 0, (2, -1, -1))):
                u, _ = single_mode_field(basis, k, pol=pu, coeff=1.0 + 0.3j)
                v, _ = single_mode_field(basis, q, pol=pv, coeff=0.5 - 1.2j)
                w, _ = single_mode_field(basis, p, pol=0, coeff=-0.4 + 0.8j)
                want = trilinear_oracle(u, v, w)
                assert abs(want) > 1e-3
                assert sp.trilinear_b(u, v, w) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_explicit_two_mode_pair(self, basis1):
        u, _ = single_mode_field(basis1, (1, 0, 0), pol=0, coeff=1.0 + 0.3j)
        v, _ = single_mode_field(basis1, (0, 1, 0), pol=1, coeff=0.5 - 1.2j)
        w, _ = single_mode_field(basis1, (1, 1, 0), pol=0, coeff=-0.4 + 0.8j)
        got = sp.trilinear_b(u, v, w)
        want = trilinear_oracle(u, v, w)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_basis_mismatch_rejected(self, basis1, basis2, rng):
        u = sp.random_field(basis1, rng)
        v = sp.random_field(basis2, rng)
        with pytest.raises(ValueError):
            sp.trilinear_b(u, v, v)


class TestProjectedAdvection:
    def test_duality_with_trilinear(self, basis2, basis3, rng):
        # the projection of a degree-2*kmax product must be exact at every kmax
        for basis, cases in ((basis2, 20), (basis3, 5)):
            for _ in range(cases):
                u, v, w = (sp.random_field(basis, rng) for _ in range(3))
                assert inner_H(nonlinear_B(u, v), w) == pytest.approx(
                    sp.trilinear_b(u, v, w), rel=1e-12, abs=1e-14
                )

    def test_energy_conservation_pairing(self, basis2, rng):
        for _ in range(50):
            u, v = (sp.random_field(basis2, rng) for _ in range(2))
            cap = 1e-12 * sp.norm_V(u) * sp.norm_V(v) ** 2
            assert abs(inner_H(nonlinear_B(u, v), v)) <= cap

    def test_single_mode_truncates_to_zero(self, basis1, basis2):
        # u . grad u = 0 for one mode, as u is orthogonal to k, and every term
        # of the convective form is an exact zero: u has no component along
        # an axis mode's k and does not vary across it, each derivative from
        # its own stage matrix; the plane mode's polarization is -e3 and it
        # does not vary along x3 (the k3 = 0 row of the third stage)
        for basis in (basis1, basis2):
            for k, pol in (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, -1, 0), 1)):
                u, _ = single_mode_field(basis, k, pol=pol, coeff=1.0 + 0.5j)
                out = nonlinear_B(u, u)
                assert sp.norm_H(out) == 0.0, (basis.kmax, k)

    def test_linear_in_first_slot_zero(self, basis2, rng):
        v = sp.random_field(basis2, rng)
        out = nonlinear_B(sp.zero_field(basis2), v)
        assert sp.norm_H(out) == 0.0


class TestLadyzhenskayaRatio:
    def test_ratio_finite_and_logged(self, basis2, rng):
        # |u|_L4 / (|u|_H^(1/4) |u|_V^(3/4)); the classical 2^(1/2) bound is
        # stated for Dirichlet boundary conditions, not the torus
        ratios = []
        for _ in range(200):
            u = sp.random_field(basis2, rng, norm=rng.uniform(0.1, 10))
            ratios.append(sp.norm_L4(u) / (sp.norm_H(u) ** 0.25 * sp.norm_V(u) ** 0.75))
        assert all(np.isfinite(ratios))
        # empirical constant on the torus at this truncation; recorded so
        # downstream bounds may rely on it being < 1
        assert max(ratios) < 1.0


class TestSerialization:
    def test_round_trip_bits(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        again = sp.field_from_bytes(sp.field_to_bytes(u))
        assert np.array_equal(again.coeffs, u.coeffs)
        assert again.basis.kmax == basis2.kmax

    def test_payload_is_little_endian_re_im_pairs(self, basis1, rng):
        u = sp.random_field(basis1, rng)
        header = struct.pack("<BII", 1, basis1.kmax, basis1.n_coeffs)
        pairs = b"".join(struct.pack("<dd", c.real, c.imag)
                         for mode in u.coeffs for c in mode)
        assert sp.field_to_bytes(u) == header + pairs

    def test_header_versioned(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        blob = bytearray(sp.field_to_bytes(u))
        assert blob[0] == 1
        blob[0] = 99
        with pytest.raises(ValueError):
            sp.field_from_bytes(bytes(blob))

    def test_basis_mismatch_rejected(self, basis1, basis2, rng):
        u = sp.random_field(basis2, rng)
        with pytest.raises(ValueError):
            sp.field_from_bytes(sp.field_to_bytes(u), basis1)


class TestImmutability:
    def test_coefficients_frozen(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        with pytest.raises(ValueError):
            u.coeffs[0, 0] = 1.0

    def test_arithmetic_returns_new_fields(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        v = sp.random_field(basis2, rng)
        w = u + v
        assert w is not u
        assert np.array_equal(u.coeffs + v.coeffs, w.coeffs)
        assert np.array_equal((2.0 * u).coeffs, 2.0 * u.coeffs)


class TestRandomCoeffs:
    def test_cached_amplitudes_give_the_uncached_formula(self, rng):
        # two decays on one basis, one decay on two bases; a stack and a field
        for kmax, decay in ((2, 2.0), (2, 3.5), (1, 2.0)):
            basis = sp.build_basis(kmax)
            amp = basis.eigenvalues.astype(np.float64) ** (-decay / 2.0)
            for shape, norm in (((3,), rng.uniform(0.5, 2.0, 3)), ((), 1.5)):
                normals = rng.standard_normal((*shape, 2, basis.n_half_modes, 2))
                want = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) * amp[:, None]
                want *= np.expand_dims(norm / np.sqrt(sp.h2_coeffs(want)), (-2, -1))
                for _ in range(2):  # the second call reads the cached column
                    got = sp.random_coeffs(basis, normals, decay, norm)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not sp._amplitudes(basis, decay).flags.writeable
