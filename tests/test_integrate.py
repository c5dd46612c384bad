import base64
import json
import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmnslab import cli
from gmnslab import experiments as ex
from gmnslab import integrate as it
from gmnslab import noise as nz
from gmnslab import spectral as sp

from conftest import single_mode_field
from oracles import (checkpoint_load, chi_independence_sup, cocycle_apply, cutoff_advection,
                     data_continuity_gap, dissipation_density_reference,
                     doss_sussman_recover, inner_H, recorded, Recording, resume,
                     transform_forward)

QUIET = nz.NoiseSpectrum(amplitude=0.0)
NOISY = nz.NoiseSpectrum(s=1.0, amplitude=0.5)


def make_setup(basis, params, seed=11, t_lo=0.0):
    path = nz.make_path(seed, params.dt_path, t_lo, t_lo + params.t_final,
                        params.noise, basis)
    return path


def transformed_rhs(v, z, params):
    """-nu*A v - B_F(v+z) + chi*z + P f as a field: the stepper's drift
    minus nu*lam*v."""
    g, _, _, _ = it._Stepper(params).drift(v.coeffs, z.coeffs)
    lam = v.basis.eigenvalues.astype(np.float64)[:, None]
    return sp.SpectralField(v.basis, g - params.nu * lam * v.coeffs)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSimParams:
    def test_step_alignment_enforced(self):
        with pytest.raises(ValueError):
            it.SimParams(nu=1.0, level=1.0, dt=1 / 100, dt_path=1 / 64)
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, dt_path=1 / 256)
        assert p.substeps == 4

    def test_non_finite_scalars_rejected(self):
        for field, value in (("nu", math.nan), ("nu", math.inf), ("level", math.nan),
                             ("chi", math.nan), ("chi", math.inf)):
            kw = {"nu": 1.0, "level": 1.0, field: value}
            with pytest.raises(ValueError, match=field):
                it.SimParams(**kw)
        assert it.SimParams(nu=1.0, level=math.inf).level == math.inf

    def test_poincare_constant_checked(self):
        # the smallest Stokes eigenvalue of every basis is 1
        with pytest.raises(ValueError, match="'params.lambda_p'"):
            it.SimParams(nu=1.0, level=1.0, lambda_p=2.0)

    @pytest.mark.parametrize("field, value", [
        ("lambda_p", math.nan), ("nu", True), ("kmax", 2.0), ("kmax", 9), ("dt", 0.0),
        ("t_final", 1 / 512), ("dt_path", 3 / 1024), ("dt_path", 1e-320),
        ("instability_factor", math.inf), ("level", -math.inf)])
    def test_direct_callers_get_the_config_rules(self, field, value):
        # the rules live on SimParams itself, so a direct caller meets each
        # one the config does, named as the config names it
        with pytest.raises(ValueError, match=f"^field 'params.{field}' must be "):
            it.SimParams(**{"nu": 1.0, "level": 1.0, field: value})

    def test_forcing_on_another_kmax_rejected(self, basis2, rng):
        f = sp.random_field(basis2, rng)
        assert it.SimParams(nu=1.0, level=1.0, forcing=f).forcing is f
        with pytest.raises(ValueError, match="^field 'params.forcing' must be "):
            it.SimParams(nu=1.0, level=1.0, forcing=f, kmax=1)
        # the forcing's rule reads kmax, so kmax's own rule comes first
        with pytest.raises(ValueError, match="^field 'params.kmax' must be "):
            it.SimParams(nu=1.0, level=1.0, forcing=f, kmax="x")

    @pytest.mark.parametrize("kmax", [9, 2.0, "2"])
    def test_from_dict_checks_kmax_before_the_forcing(self, basis2, rng, kmax):
        # a bad kmax is named before a basis is built for the forcing
        d = it.SimParams(nu=1.0, level=1.0, forcing=sp.random_field(basis2, rng)).to_dict()
        with pytest.raises(ValueError, match="^field 'params.kmax' must be "):
            it.SimParams.from_dict(dict(d, kmax=kmax))

    def test_dict_round_trip(self, basis2, rng):
        f = sp.random_field(basis2, rng, norm=0.3)
        p = it.SimParams(nu=0.5, level=math.inf, chi=2.0, forcing=f,
                         dt=1 / 128, t_final=2.0, noise=NOISY)
        q = it.SimParams.from_dict(p.to_dict())
        assert q.level == math.inf and q.chi == 2.0
        assert np.array_equal(q.forcing.coeffs, f.coeffs)
        # omitted keys take the dataclass defaults
        short = it.SimParams.from_dict({"nu": 1.0, "level": 1.0, "dt": 1 / 256,
                                        "t_final": 1.0})
        assert short == it.SimParams(nu=1.0, level=1.0)


class TestRhs:
    def test_zero_everything(self, basis2):
        p = it.SimParams(nu=1.0, level=1.0, noise=QUIET)
        z = sp.zero_field(basis2)
        assert sp.norm_H(transformed_rhs(z, z, p)) == 0.0

    def test_single_mode_pure_damping(self, basis1):
        p = it.SimParams(nu=0.9, level=1.0, kmax=1, noise=QUIET)
        v, idx = single_mode_field(basis1, (1, 0, 0), coeff=0.4 + 0.2j)
        out = transformed_rhs(v, sp.zero_field(basis1), p)
        assert np.allclose(out.coeffs[idx, 0], -0.9 * (0.4 + 0.2j), rtol=1e-14)

    def test_duality_term_by_term(self, basis2, rng):
        f = sp.random_field(basis2, rng, norm=0.2)
        p = it.SimParams(nu=1.2, level=1.0, chi=0.7, forcing=f, noise=NOISY)
        for _ in range(10):
            v = sp.random_field(basis2, rng)
            z = sp.random_field(basis2, rng, norm=0.5)
            lhs = inner_H(transformed_rhs(v, z, p), v)
            rhs = (
                -p.nu * sp.norm_V(v) ** 2
                - inner_H(cutoff_advection(v + z, p.level), v)
                + p.chi * inner_H(z, v)
                + inner_H(f, v)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
            # the stepper's B_F is the field API's kernel, bit for bit, on
            # both sides of the cutoff
            for level in (p.level, 0.01):
                q = it.SimParams(nu=p.nu, level=level, noise=NOISY)
                _, bf, _, fac = it._Stepper(q).drift(v.coeffs, z.coeffs)
                assert (fac < 1.0) == (level < p.level)
                assert np.array_equal(bf, cutoff_advection(v + z, level).coeffs)


class TestStepAndSolve:
    def test_exact_heat_decay_single_mode(self, basis1):
        p = it.SimParams(nu=0.7, level=1.0, dt=1 / 16, t_final=2.0, kmax=1,
                         noise=QUIET)
        path = make_setup(basis1, p)
        v0, _ = single_mode_field(basis1, (1, 0, 0), coeff=1.0 - 0.5j)
        traj = it.solve_transformed(v0, path, p)
        got = math.sqrt(traj.ledger.v_H2[-1])
        assert got == pytest.approx(sp.norm_H(v0) * math.exp(-0.7 * 2.0), rel=1e-13)

    def test_zero_data_equilibrium(self, basis2):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 32, t_final=1.0, noise=QUIET)
        path = make_setup(basis2, p)
        traj, rec = recorded(it.solve_transformed, sp.zero_field(basis2), path, p)
        assert np.abs(rec.v).max() == 0.0
        assert traj.ledger.max_residual() == 0.0

    def test_steady_stokes_residual_at_rounding(self, basis1):
        # steady state of the forced single-mode problem: f = nu*A*v0 makes
        # every ledger integrand constant, so trapezoid quadrature is exact
        # and the residual stays at accumulated rounding
        nu = 0.8
        v0, _ = single_mode_field(basis1, (1, 0, 0), coeff=1.0 + 0.25j)
        f = nu * sp.SpectralField(basis1, v0.coeffs * basis1.eigenvalues[:, None])
        p = it.SimParams(nu=nu, level=1.0, forcing=f, dt=1 / 64, t_final=4.0,
                         kmax=1, noise=QUIET)
        path = make_setup(basis1, p)
        traj = it.solve_transformed(v0, path, p)
        assert traj.ledger.max_residual() <= 1e-10

    def test_residual_second_order_refinement(self, basis2, rng):
        x = sp.random_field(basis2, rng, norm=1.0)
        dts = [1 / 32, 1 / 64, 1 / 128]
        path = nz.make_path(5, dts[-1], 0.0, 2.0, NOISY, basis2)
        res = []
        for dt in dts:
            p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=dt, t_final=2.0,
                             noise=NOISY, dt_path=dts[-1])
            traj = it.solve(x, path, p)
            res.append(abs(traj.ledger.residual[-1]))
        ratios = [res[i] / res[i + 1] for i in range(len(res) - 1)]
        assert all(3.2 <= r <= 4.8 for r in ratios), ratios

    def test_pathwise_determinism(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, chi=0.5, dt=1 / 64, t_final=1.0,
                         noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        (a, rec_a), (b, rec_b) = (recorded(it.solve_transformed, x, path, p)
                                  for _ in range(2))
        assert np.array_equal(rec_a.v, rec_b.v)
        assert np.array_equal(a.ledger.residual, b.ledger.residual)

    def test_dissipativity_noise_off(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0, noise=QUIET)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng, norm=2.0)
        traj = it.solve_transformed(x, path, p)
        assert np.all(np.diff(traj.ledger.v_H2) < 0.0)

    def test_solve_holds_no_history(self, basis2, rng):
        # the field arrays a solve returns, its final state, have the same
        # bytes at n and at 4n steps, one field or a stack, and only the
        # ledger grows, within the ledger term of the run budget; observe
        # sees every step, up to the final state
        x = sp.random_field(basis2, rng)
        for xs, groups in ((x, 1), ((x, x), 2)):
            fields, ledgers = [], []
            for steps in (8, 32):
                p = it.SimParams(nu=1.0, level=1.0, chi=0.5, dt=1 / 64, t_final=steps / 64,
                                 noise=NOISY)
                paths = [make_setup(basis2, p, seed=g) for g in range(groups)]
                traj, rec = recorded(it.solve, xs, paths[0] if groups == 1 else paths, p)
                assert [k for k, _, _ in rec] == list(range(steps + 1))
                assert same_bits(rec.v[-1].reshape(traj.v.shape), traj.v)
                assert same_bits(rec.z[-1].reshape(traj.z.shape), traj.z)
                fields.append([a.nbytes for a in (traj.v, traj.z)])
                ledgers.append(sum(c.nbytes for c in vars(traj.ledger).values()))
                n_fields = traj.ledger.v_H2[0].size  # G * P
                assert (ex.member_bytes(p, n_fields) - ex.member_bytes(p, n_fields, False)
                        >= ledgers[-1])
            assert fields[0] == fields[1]
            assert ledgers[1] > 3 * ledgers[0]

    def test_instability_guard_trips(self, basis1):
        v0, _ = single_mode_field(basis1, (1, 0, 0), coeff=1e-3 + 0j)
        f = sp.SpectralField(basis1, v0.coeffs * 1e6)
        p = it.SimParams(nu=1.0, level=1.0, forcing=f, dt=1 / 16, t_final=4.0,
                         kmax=1, noise=QUIET, instability_factor=10.0)
        path = make_setup(basis1, p)
        with pytest.raises(it.InstabilityError):
            it.solve_transformed(v0, path, p)


    def test_non_finite_initial_field_is_not_an_instability(self, basis1):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 16, t_final=0.25, kmax=1,
                         noise=QUIET)
        path = make_setup(basis1, p)
        v0, _ = single_mode_field(basis1, (1, 0, 0), coeff=complex(math.nan, 0.0))
        # ValueError, not InstabilityError (a RuntimeError blaming dt)
        with pytest.raises(ValueError, match="v0"):
            it.solve_transformed(v0, path, p)


class TestCoupledSolve:
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    @pytest.mark.parametrize("chi", [0.0, 1.5])
    def test_equals_separate_solves(self, kmax, chi):
        # |x1|_L4 is above the level and |x2|_L4 below it, so F < 1 for the
        # first field only while each pair shares its group's path; 1, 2
        # and 3 groups, each on its own path
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(100 * kmax + int(chi))
        x1 = sp.random_field(basis, rng, norm=3.0)
        x2 = sp.random_field(basis, rng, norm=0.2)
        level = 0.5 * (sp.norm_L4(x1) + sp.norm_L4(x2))
        p = it.SimParams(nu=2.0, level=level, chi=chi, dt=1 / 64, t_final=0.25,
                         kmax=kmax, noise=NOISY)
        paths = [make_setup(basis, p, seed=10 * kmax + g) for g in range(3)]
        single = [[recorded(it.solve, x, path, p) for x in (x1, x2)] for path in paths]
        for trajs in single:
            # the cutoff acts on the first field only
            assert [t.ledger.cutoff[0] < 1.0 for t, _ in trajs] == [True, False]
        for groups in (1, 2, 3):
            stack, rec = recorded(it.solve, (x1, x2), paths[:groups], p)
            assert stack.v.shape[:2] == rec.v.shape[1:3] == (groups, 2)
            # without the ledger the march and its states are the same
            bare, bare_rec = recorded(it.solve, (x1, x2), paths[:groups], p, ledger=False)
            assert bare.ledger is None
            for got, want in ((bare.v, stack.v), (bare.z, stack.z),
                              (bare_rec.v, rec.v), (bare_rec.z, rec.z)):
                assert same_bits(got, want)
            for g in range(groups):
                for i, (traj, own) in enumerate(single[g]):
                    member = stack.member(g, i)
                    assert np.shares_memory(member.v, stack.v)
                    assert member.t_end == traj.t_end
                    assert np.array_equal(rec.member(g, i)[0], own.member()[0])
                    for got, want in zip((member.v, member.z, *rec.member(g, i)),
                                         (traj.v, traj.z, *own.member())):
                        assert same_bits(got, want)
                    for name, column in vars(traj.ledger).items():
                        assert same_bits(getattr(member.ledger, name), column), name

    def test_one_member_over_its_ceiling_raises(self, basis1, rng):
        # without noise or forcing the zero field stays zero; the large one
        # blows up at this step size, and the stack must not hide that
        p = it.SimParams(nu=1e-3, level=math.inf, dt=0.5, t_final=8.0, kmax=1,
                         noise=QUIET, instability_factor=10.0)
        path = make_setup(basis1, p)
        zero = sp.zero_field(basis1)
        big = sp.random_field(basis1, rng, norm=100.0)
        with pytest.raises(it.InstabilityError) as single:
            it.solve(big, path, p)
        assert single.value.member is None and "member" not in str(single.value)
        _, rec = recorded(it.solve, (zero, zero), [path, path], p, ledger=False)
        assert not rec.v.any()
        with pytest.raises(it.InstabilityError, match="member 0, field 1"):
            it.solve((zero, big), [path], p, ledger=False)


@st.composite
def stack_cases(draw):
    """A small (G, P) stacked solve: kmax, fields (some with F < 1 at the
    start), chi, forcing, noise, path cells per step, t0, ledger,
    and None or one level per field (no cutoff on one field, F < 1 at the
    start on another)."""
    kmax, G, P = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    basis = sp.build_basis(kmax)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = tuple(sp.random_field(basis, rng, norm=draw(st.floats(0.1, 4.0)))
               for _ in range(P))
    levels = sorted(sp.norm_L4(x) for x in xs)
    dt = 1 / 64
    p = it.SimParams(
        nu=draw(st.floats(0.5, 2.0)), level=draw(st.sampled_from(levels)) * 1.001,
        chi=draw(st.sampled_from((0.0, 1.5))), dt=dt,
        dt_path=dt / draw(st.integers(1, 2)), t_final=dt * draw(st.integers(1, 5)),
        kmax=kmax, noise=nz.NoiseSpectrum(amplitude=draw(st.sampled_from((0.0, 0.5)))),
        forcing=sp.random_field(basis, rng, norm=0.5) if draw(st.booleans()) else None)
    t0 = dt * draw(st.integers(-3, 3))
    paths = [nz.make_path(draw(st.integers(0, 2**32 - 1)), p.dt_path, t0, t0 + p.t_final,
                          p.noise, basis) for _ in range(G)]
    levels = None
    if draw(st.booleans()):
        levels = np.array([sp.norm_L4(x) * draw(st.sampled_from((0.5, 2.0))) for x in xs])
        off = draw(st.integers(0, P - 1))
        levels[(off + 1) % P] = 0.5 * sp.norm_L4(xs[(off + 1) % P])
        levels[off] = math.inf
    return xs, paths, p, t0, draw(st.booleans()), levels


class TestStackContract:
    @settings(max_examples=80, deadline=None)
    @given(case=stack_cases())
    def test_each_field_is_its_single_solve(self, case):
        # a field's record does not depend on the stack it marches in: its
        # states at every step, final state and ledger columns are
        # its own solve's, bit for bit, whatever the ledger block of the
        # stack, and at its own level when the stepper holds one level per field
        xs, paths, p, t0, ledger, levels = case
        stack, rec = recorded(it.solve, xs, paths, p, t0=t0, ledger=ledger,
                              stepper=it._Stepper(p, level=levels))
        for g, path in enumerate(paths):
            for i, x in enumerate(xs):
                own = p if levels is None else replace(p, level=float(levels[i]))
                single, single_rec = recorded(it.solve, x, path, own, t0=t0, ledger=ledger)
                member = stack.member(g, i)
                assert member.t_end == single.t_end
                for got, want in zip((member.v, member.z, *rec.member(g, i)),
                                     (single.v, single.z, *single_rec.member())):
                    assert same_bits(got, want)
                if not ledger:
                    assert member.ledger is single.ledger is None
                    continue
                for name, column in vars(single.ledger).items():
                    got = np.ascontiguousarray(getattr(member.ledger, name))
                    assert same_bits(got, column), name


class TestLedgerBlocks:
    @pytest.mark.parametrize("kmax, stack, whole", [(3, None, False), (2, (2, 3), False),
                                                    (3, None, True)],
                             ids=["3-None", "2-stack1", "3-None-whole"])
    def test_columns_equal_each_steps_own_kernels(self, kmax, stack, whole):
        # the ledger is kept in blocks: this run crosses two block
        # boundaries and ends on a partial block, or (whole) its rows fill
        # exactly two blocks, and every column equals the per-step kernels on
        # its own snapshots, bit for bit; the cutoff acts on some steps
        # (|x|_L4 starts above the level)
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(40 + kmax)
        G, P = stack or (1, 1)
        block = it.ledger_block((G, P), basis.n_half_modes)
        n_steps = 2 * block - 1 if whole else 2 * block + block // 2 + 1
        dt = 1 / 64
        p = it.SimParams(nu=1.0, level=0.8, chi=1.0, dt=dt, dt_path=dt / 4,
                         t_final=n_steps * dt, kmax=kmax, noise=NOISY,
                         forcing=sp.random_field(basis, rng, norm=0.5))
        paths = [make_setup(basis, p, seed=20 + g) for g in range(G)]
        xs = tuple(sp.random_field(basis, rng, norm=4.0 / (i + 1)) for i in range(P))
        if stack is None:
            traj, rec = recorded(it.solve, xs[0], paths[0], p)
            got = {name: col[:, None, None] for name, col in vars(traj.ledger).items()}
        else:
            traj, rec = recorded(it.solve, xs, paths, p)
            got = vars(traj.ledger)
        vs, zs = rec.v, rec.z
        assert len(vs) == n_steps + 1
        assert (n_steps + 1) % block == 0 if whole else n_steps % block and n_steps > 2 * block
        assert (got["cutoff"] < 1.0).any()
        stepper = it._Stepper(p)
        want = {name: np.empty((n_steps + 1, G, P)) for name in got if name != "t"}
        pairings = np.empty((3, n_steps + 1, G, P))
        for k, (v, z) in enumerate(zip(vs, zs)):
            _, bf, want["u_L4"][k], want["cutoff"][k] = stepper.drift(v, z)
            u = v + z
            want["v_H2"][k], want["z_H2"][k] = sp.h2_coeffs(v), sp.h2_coeffs(z)
            want["u_H2"][k] = sp.h2_coeffs(u)
            want["v_V2"][k], want["u_V2"][k] = sp.v2_coeffs(basis, v), sp.v2_coeffs(basis, u)
            want["z_L4"][k] = basis.l4_norm(basis.synthesize(z))
            for i, c in enumerate((bf, stepper.f_coeffs, z)):
                pairings[i, k] = sp.inner_coeffs(c, v)
        bf_v, f_v, z_v = pairings
        flux = 2.0 * p.nu * want["v_V2"] + 2.0 * bf_v - 2.0 * f_v - 2.0 * p.chi * z_v
        acc = np.zeros_like(flux)
        acc[1:] = np.cumsum(0.5 * dt * (flux[1:] + flux[:-1]), axis=0)
        want["residual"] = want["v_H2"] - want["v_H2"][0] + acc
        for name, column in want.items():
            assert same_bits(np.ascontiguousarray(got[name]), column), name
        assert same_bits(got["t"].reshape(-1), np.arange(n_steps + 1) * dt)


    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_z_norms_take_one_synthesis_per_block(self, kmax):
        # a ledger of one block and one more row synthesizes z twice, quiet or
        # noisy; zero noise from a zero z gives |z|_L4 = +0.0 on every step,
        # as the synthesis of its zero snapshots does
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(60 + kmax)
        rows = it.ledger_block((1, 1), basis.n_half_modes) + 1
        synthesize, calls = sp.GalerkinBasis.synthesize, []

        def counted(self, *args, **kw):
            calls.append(self.kmax)
            return synthesize(self, *args, **kw)

        runs = {}
        for name, noise in (("quiet", QUIET), ("noisy", NOISY)):
            p = it.SimParams(nu=1.0, level=0.8, chi=0.5, dt=1 / 32, t_final=(rows - 1) / 32,
                             kmax=kmax, noise=noise)
            x = sp.random_field(basis, rng, norm=2.0)
            calls.clear()
            with mock.patch.object(sp.GalerkinBasis, "synthesize", counted):
                runs[name] = recorded(it.solve, x, make_setup(basis, p), p), len(calls)
        ((quiet, quiet_rec), quiet_calls), ((noisy, _), noisy_calls) = runs.values()
        assert quiet_calls == noisy_calls == 2 and len(quiet.ledger.t) == rows
        z_l4 = quiet.ledger.z_L4
        assert same_bits(z_l4, np.zeros(rows))
        quiet_z = quiet_rec.member()[1]
        assert not quiet_z.any()
        assert same_bits(z_l4, np.array([basis.l4_norm(basis.synthesize(z))
                                         for z in quiet_z]))
        assert (noisy.ledger.z_L4 > 0.0).all()


class TestDossSussman:
    def test_noise_off_identity(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.5, noise=QUIET)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        _, rec = recorded(it.solve_transformed, x, path, p)
        v = rec.member()[0]
        assert len(v) == 33 and np.array_equal(doss_sussman_recover(rec), v)

    def test_initial_inversion(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=1 / 64, t_final=0.25,
                         noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        _, rec = recorded(it.solve, x, path, p)
        u0 = rec.v[0] + rec.z[0]
        assert np.abs(u0 - x.coeffs).max() < 1e-15

    def test_round_trip(self, basis2, rng):
        # the recording keeps both layers, so nothing is lost; the
        # subtract-back recovery agrees with the recorded transformed variable
        # to one rounding of the intermediate sum (exact when z = 0, see
        # test_noise_off_identity)
        p = it.SimParams(nu=1.0, level=1.0, chi=0.5, dt=1 / 64, t_final=0.5,
                         noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        _, rec = recorded(it.solve_transformed, x, path, p)
        v_series = transform_forward(rec, doss_sussman_recover(rec))
        v, z = rec.member()
        assert len(v_series) == len(v) == 33
        assert np.all(np.abs(v_series - v) <= 2e-16 * (np.abs(v) + np.abs(z)))


class TestCocycle:
    def test_time_zero_identity(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0, noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        assert cocycle_apply(0.0, path, x, p) is x

    def test_composition_property(self, basis2, rng):
        # the discrete flow inherits the exact shift covariance of z, so the
        # composition property holds down to rounding at any step size
        s, t = 0.5, 0.5
        p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=1 / 64, t_final=1.0,
                         noise=NOISY)
        path = make_setup(basis2, p, seed=23)
        x = sp.random_field(basis2, rng)
        direct = cocycle_apply(s + t, path, x, p)
        y = cocycle_apply(s, path, x, p)
        comp = cocycle_apply(t, nz.shift_path(path, s), y, p)
        scale = max(1.0, sp.norm_H(direct))
        assert sp.norm_H(comp - direct) <= 1e-11 * scale

    def test_decay_noise_free(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0, noise=QUIET)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        norms = [sp.norm_H(cocycle_apply(tt, path, x, p)) for tt in (0.25, 0.5, 1.0)]
        assert norms[0] > norms[1] > norms[2]


class TestChiIndependence:
    def test_equal_shifts_identical(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.5, noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        assert chi_independence_sup(x, path, 1.0, 1.0, p) == 0.0

    def test_degenerate_noise_identical(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.5, noise=QUIET)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        assert chi_independence_sup(x, path, 0.0, 2.0, p) == 0.0

    def test_second_order_refinement(self, basis2, rng):
        x = sp.random_field(basis2, rng, norm=1.0)
        sups = []
        for dt in (1 / 64, 1 / 128, 1 / 256):
            path = nz.make_path(17, dt, 0.0, 1.0, NOISY, basis2)
            p = it.SimParams(nu=1.0, level=1.0, dt=dt, t_final=1.0,
                             noise=NOISY, dt_path=dt)
            sups.append(chi_independence_sup(x, path, 0.0, 1.0, p))
        ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
        assert all(2.8 <= r <= 5.5 for r in ratios), (sups, ratios)


class TestDataContinuity:
    def test_identical_data_zero_gap(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, chi=0.5, dt=1 / 64, t_final=0.5,
                         noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        f = sp.random_field(basis2, rng, norm=0.1)
        sup, int_v2 = data_continuity_gap(x, x, f, f, path, p)
        assert sup == 0.0 and int_v2 == 0.0

    def test_gap_shrinks_with_perturbation(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0, noise=NOISY)
        path = make_setup(basis2, p)
        x = sp.random_field(basis2, rng)
        f = sp.random_field(basis2, rng, norm=0.2)
        dx = sp.random_field(basis2, rng)
        df = sp.random_field(basis2, rng)
        sups, ints = [], []
        for i in range(5):
            eps = 0.5 ** i
            x_n = sp.SpectralField(basis2, x.coeffs + eps * dx.coeffs)
            f_n = sp.SpectralField(basis2, f.coeffs + 0.1 * eps * df.coeffs)
            sup, iv = data_continuity_gap(x, x_n, f, f_n, path, p)
            sups.append(sup)
            ints.append(iv)
        assert all(sups[i] > sups[i + 1] for i in range(4))
        assert all(ints[i] > ints[i + 1] for i in range(4))
        # log the implied exponential-growth constant of the stability bound
        denom = sp.norm_H(dx) ** 2 + 0.01 * sp.norm_dual(df) ** 2
        implied = math.log(max(sups[0] ** 2 / denom, 1e-300)) / (p.level**8 * p.t_final)
        assert math.isfinite(implied)


class TestEnergyInequalities:
    def _run(self, basis2, rng, chi=1.0):
        f = sp.random_field(basis2, rng, norm=0.2)
        p = it.SimParams(nu=1.0, level=1.0, chi=chi, forcing=f, dt=1 / 64,
                         t_final=2.0, noise=NOISY)
        path = make_setup(basis2, p, seed=31)
        x = sp.random_field(basis2, rng)
        traj = it.solve_transformed(x, path, p)
        return p, traj

    def test_running_bound_logged(self, basis2, rng):
        p, traj = self._run(basis2, rng)
        margin = it.apriori_margin(p, traj.ledger)
        assert math.isfinite(margin)  # logged, not asserted: bound is loose

    def test_density_is_the_young_splits(self, basis2, rng):
        # forcing, noise, a finite level and chi > 0: every term of the
        # density is live, each against the paper's constant
        p, traj = self._run(basis2, rng)
        led = traj.ledger
        assert led.z_L4.min() > 0.0 and p.forcing_dual_norm() > 0.0
        got = it.dissipation_forcing_density(p, led)
        np.testing.assert_allclose(got, dissipation_density_reference(p, led), rtol=1e-12)

    def test_pullback_inequality_asserted(self, basis2, rng):
        for chi in (0.0, 1.0):
            p, traj = self._run(basis2, rng, chi=chi)
            margin = it.pullback_inequality_margin(p, traj.ledger)
            scale = 1.0 + traj.ledger.v_H2[0]
            assert margin <= 1e-8 * scale


class TestCheckpoint:
    def test_resume_bit_identical(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=1 / 64, t_final=1.0,
                         noise=NOISY)
        path = make_setup(basis2, p, seed=41)
        x = sp.random_field(basis2, rng)
        full = it.solve(x, path, p)

        half = it.solve(x, path, p, t_final=0.5)
        blob = it.checkpoint_dump(half, path, p)
        start, path2, p2 = checkpoint_load(blob)
        assert start.t_end == half.t_end and start.ledger is None
        assert np.array_equal(start.v, half.v) and np.array_equal(start.z, half.z)
        resumed = resume(start, path2, p2, t_final=1.0)
        assert resumed.t_end == full.t_end == 1.0
        assert np.array_equal(resumed.v, full.v)
        assert np.array_equal(resumed.z, full.z)

    def test_resume_starts_from_the_saved_z(self, basis2, rng, monkeypatch):
        p = it.SimParams(nu=1.0, level=1.0, chi=1.0, dt=1 / 64, t_final=1.0,
                         noise=NOISY)
        path = make_setup(basis2, p, seed=41)
        x = sp.random_field(basis2, rng)
        full = it.solve(x, path, p)
        half = it.solve(x, path, p, t_final=0.5)
        blob = json.loads(it.checkpoint_dump(half, path, p))
        z = sp.field_from_bytes(base64.b64decode(blob["z"]), basis2).coeffs.copy()
        z[0, 0] += 0.25
        blob["z"] = base64.b64encode(sp.field_to_bytes(sp.SpectralField(basis2, z))).decode()
        start, path2, p2 = checkpoint_load(json.dumps(blob))
        assert np.array_equal(start.z, z)
        rec = Recording()
        monkeypatch.setattr(it, "solve_transformed", partial(it.solve_transformed, observe=rec))
        resumed = resume(start, path2, p2, t_final=1.0)
        assert np.array_equal(rec.member()[1][0], z)
        assert not np.array_equal(resumed.z, full.z)

    def test_trajectory_csv_columns(self, basis2, rng, tmp_path):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.25, noise=NOISY)
        path = make_setup(basis2, p)
        traj = it.solve_transformed(sp.random_field(basis2, rng), path, p)
        out = tmp_path / "traj.csv"
        cli._write_csv(str(out), traj.ledger.columns())
        header, *rows = out.read_text().splitlines()
        assert header == "t,H_norm_v,V_norm_v,L4_norm_u,F_N,residual,H_norm_u"
        # one row per solver step, every value to 17 significant digits
        led = traj.ledger
        want = zip(led.t, led.v_H2, led.v_V2, led.u_L4, led.cutoff, led.residual, led.u_H2)
        assert len(rows) == len(led.t) == 17
        for row, (t, vh2, vv2, l4, f, res, uh2) in zip(rows, want):
            cols = (t, math.sqrt(vh2), math.sqrt(vv2), l4, f, res, math.sqrt(uh2))
            assert row == ",".join(f"{float(c):.17g}" for c in cols)
