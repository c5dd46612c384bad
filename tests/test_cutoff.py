import math

import numpy as np
import pytest

from gmnslab import cutoff as co
from gmnslab import spectral as sp

from oracles import (cutoff_advection, cutoff_lipschitz_sides, cutoff_product_bound,
                     gap_tolerance, inner_H, monotonicity_gap, nonlinear_B, trilinear_oracle)


class TestCutoffFactor:
    def test_branch_values(self):
        assert co.cutoff_factor(0.5, 1.0) == 1.0
        assert co.cutoff_factor(2.0, 1.0) == 0.5
        assert co.cutoff_factor(1.0, 1.0) == 1.0  # branch boundary
        assert co.cutoff_factor(0.0, 1.0) == 1.0  # continuous extension

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            co.cutoff_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            co.cutoff_factor(-1.0, 1.0)

    def test_infinite_level_is_identity(self):
        assert co.cutoff_factor(1e12, math.inf) == 1.0

    def test_rescaling_structure_exact(self, rng):
        # F_level(alpha * r) == F_{level/alpha}(r); with power-of-two alpha
        # every intermediate product/quotient is exact, so bit equality holds
        for _ in range(1000):
            r = float(rng.uniform(0.01, 10.0))
            level = float(rng.uniform(0.01, 10.0))
            alpha = 2.0 ** int(rng.integers(-8, 9))
            assert co.cutoff_factor(alpha * r, level) == co.cutoff_factor(
                r, level / alpha
            )


class TestCutoffParams:
    def test_monotonicity_constant(self):
        p = co.CutoffParams(1.0, 1.0)
        assert p.eta == pytest.approx(823543.0 / 8192.0, rel=1e-15)
        assert co.CutoffParams(2.0, 1.0).eta == pytest.approx(p.eta * 256.0)
        assert co.CutoffParams(1.0, 2.0).eta == pytest.approx(p.eta / 128.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            co.CutoffParams(0.0, 1.0)
        with pytest.raises(ValueError):
            co.CutoffParams(1.0, -1.0)


class TestProductBound:
    def test_below_cutoff_passthrough(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        u = u * (0.3 / sp.norm_L4(u))
        assert cutoff_product_bound(u, 1.0) == pytest.approx(0.3, rel=1e-12)

    def test_saturates_at_level(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        u = u * (5.0 / sp.norm_L4(u))
        assert cutoff_product_bound(u, 1.0) <= 1.0
        assert cutoff_product_bound(u, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_field(self, basis2):
        assert cutoff_product_bound(sp.zero_field(basis2), 1.0) == 0.0


class TestLipschitzBound:
    def test_both_below_gives_zero_lhs(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        v = sp.random_field(basis2, rng)
        u = u * (0.4 / sp.norm_L4(u))
        v = v * (0.9 / sp.norm_L4(v))
        lhs, rhs = cutoff_lipschitz_sides(u, v, 1.0)
        assert lhs == 0.0
        assert rhs >= 0.0

    def test_identical_arguments(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        u = u * (2.0 / sp.norm_L4(u))
        lhs, rhs = cutoff_lipschitz_sides(u, u, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_given_norm_gives_the_same_sides(self, basis2, rng):
        for target in (0.5, 3.0):
            u = sp.random_field(basis2, rng)
            u = u * (target / sp.norm_L4(u))
            v = sp.random_field(basis2, rng)
            ru, rv, ruv = sp.norm_L4(u), sp.norm_L4(v), sp.norm_L4(u - v)
            assert co.lipschitz_sides(ru, rv, ruv, 1.0) == cutoff_lipschitz_sides(u, v, 1.0)
            assert co.product_bound(ru, 1.0) == cutoff_product_bound(u, 1.0)

    def test_all_branch_cases(self, basis2, rng):
        level = 1.0
        for case in range(400):
            u = sp.random_field(basis2, rng)
            v = sp.random_field(basis2, rng)
            tu = (0.5, 3.0, 0.5, 3.0)[case % 4]
            tv = (0.5, 3.0, 3.0, 0.5)[case % 4]
            u = u * (tu * rng.uniform(0.2, 1.5) / sp.norm_L4(u))
            v = v * (tv * rng.uniform(0.2, 1.5) / sp.norm_L4(v))
            lhs, rhs = cutoff_lipschitz_sides(u, v, level)
            assert lhs <= rhs + 1e-14


class TestCutoffAdvection:
    def test_energy_pairing_vanishes(self, basis2, rng):
        for _ in range(1000):
            u = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 3.0))
            cap = 1e-12 * sp.norm_V(u) ** 3
            assert abs(inner_H(cutoff_advection(u, 1.0), u)) <= cap

    def test_inactive_below_level(self, basis2, rng):
        u = sp.random_field(basis2, rng)
        u = u * (0.5 / sp.norm_L4(u))
        plain = nonlinear_B(u, u)
        assert np.array_equal(cutoff_advection(u, 1.0).coeffs, plain.coeffs)

    def test_saturated_scaling_law(self, basis2, rng):
        # above the cutoff, B_F(alpha*u) = level * alpha^2 / |alpha u|_L4 * B(u,u)
        level = 1.0
        u = sp.random_field(basis2, rng)
        u = u * (2.0 / sp.norm_L4(u))
        alpha = 3.0
        got = cutoff_advection(alpha * u, level)
        base = nonlinear_B(u, u)
        expected = (level * alpha**2 / sp.norm_L4(alpha * u)) * base.coeffs
        assert np.allclose(got.coeffs, expected, rtol=1e-12, atol=1e-14)


class TestBufferedKernel:
    @pytest.mark.parametrize("lead", [(), (1, 1), (3, 2)])
    def test_reused_work_arrays_equal_fresh_calls(self, basis2, rng, lead):
        work = {}
        level = 1.0
        for norm in (3.0, 0.1, 2.0):
            w = np.stack([sp.random_field(basis2, rng, norm=norm).coeffs
                          for _ in range(math.prod(lead))])
            w = w.reshape(*lead, *w.shape[-2:])
            got = co.cutoff_advection_coeffs(basis2, w, level, work)
            want = co.cutoff_advection_coeffs(basis2, w, level)
            for g, f in zip(got, want):
                assert np.array_equal(g, f)
                assert np.asarray(g).tobytes() == np.asarray(f).tobytes()
            # only the scatter targets of the half cubes are ever written
            cubes = work["spec"]
            pad = np.ones(len(cubes), dtype=bool)
            pad[basis2._dst] = False
            assert not cubes[pad].view(np.float64).any()
            assert not np.signbit(cubes[pad].view(np.float64)).any()

    @pytest.mark.parametrize("per", ["member", "field"])
    def test_level_array_equals_each_members_scalar_call(self, basis2, rng, per):
        # a (2, 3) stack with fields above and below their levels, a zero
        # member (F(0) = 1) and a member without cutoff (level inf); the
        # levels are one per member, or one per field broadcast over groups
        w = np.stack([sp.random_field(basis2, rng, norm=n).coeffs
                      for n in (3.0, 0.1, 2.0, 4.0, 1.0, 0.5)]).reshape(2, 3, -1, 2)
        w[1, 2] = 0.0
        r = basis2.l4_norm(basis2.synthesize(w))
        level = np.array([[0.5, 2.0, math.inf], [0.25, 0.5, 1.0]]) * r.max()
        if per == "field":
            level = level[0]
        out, l4, f = co.cutoff_advection_coeffs(basis2, w, level)
        levels = np.broadcast_to(level, (2, 3))
        assert (f < 1.0).any() and (levels == math.inf).any() and f[1, 2] == 1.0
        for g in range(2):
            for p in range(3):
                want = co.cutoff_advection_coeffs(basis2, w[g, p], levels[g, p])
                assert out[g, p].tobytes() == want[0].tobytes()
                assert l4[g, p] == want[1] and f[g, p] == want[2]
        with pytest.raises(ValueError):
            co.cutoff_advection_coeffs(basis2, w, np.ones(2))


class TestMonotonicityGap:
    def test_equal_arguments_vanish(self, basis2, rng):
        v = sp.random_field(basis2, rng)
        z = sp.random_field(basis2, rng)
        gap = monotonicity_gap(v, v, z, co.CutoffParams(1.0, 1.0))
        assert gap == 0.0

    def test_against_zero_reference(self, basis2, rng):
        # v2 = 0, z = 0: the advection pairing cancels by skew symmetry,
        # leaving (nu/2)|v1|_V^2 + eta |v1|_H^2
        params = co.CutoffParams(1.0, 1.0)
        for _ in range(10):
            v1 = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 2.0))
            zero = sp.zero_field(basis2)
            gap = monotonicity_gap(v1, zero, zero, params)
            want = 0.5 * params.nu * sp.norm_V(v1) ** 2 + params.eta * sp.norm_H(v1) ** 2
            assert gap == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("nv1, nv2", [(0.0, 0.0), (0.3, 2.0), (17.0, 5.5), (1e3, 1e-3)])
    def test_tolerance_is_pinned(self, nv1, nv2):
        # the rounding allowance of the gap, 1e-10 (1 + |v1|_V^2 + |v2|_V^2)
        assert co.tolerance_of_norms(nv1, nv2) == 1e-10 * (1.0 + nv1**2 + nv2**2)

    def test_random_triples_nonnegative(self, basis2, rng):
        params = co.CutoffParams(1.0, 1.0)
        assert params.eta == pytest.approx(100.5301513671875)
        for _ in range(100):
            v1 = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 3.0))
            v2 = sp.random_field(basis2, rng, norm=rng.uniform(0.2, 3.0))
            z = sp.random_field(basis2, rng, norm=rng.uniform(0.0, 2.0))
            gap = monotonicity_gap(v1, v2, z, params)
            assert gap >= -gap_tolerance(v1, v2)

    def test_pairing_against_oracle(self, basis2, rng):
        # cross-check the advection-difference pairing inside the gap with
        # the direct-quadrature oracle
        params = co.CutoffParams(1.0, 1.0)
        v1 = sp.random_field(basis2, rng)
        v2 = sp.random_field(basis2, rng)
        z = sp.random_field(basis2, rng, norm=0.5)
        d = v1 - v2
        got = inner_H(
            cutoff_advection(v1 + z, params.level)
            - cutoff_advection(v2 + z, params.level),
            d,
        )
        w1, w2 = v1 + z, v2 + z
        want = co.cutoff_factor(sp.norm_L4(w1), 1.0) * trilinear_oracle(w1, w1, d)
        want -= co.cutoff_factor(sp.norm_L4(w2), 1.0) * trilinear_oracle(w2, w2, d)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
