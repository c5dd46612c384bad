import gc
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmnslab import cutoff as co
from gmnslab import experiments as ex
from gmnslab import integrate as it
from gmnslab import noise as nz
from gmnslab import spectral as sp
from gmnslab.seeding import derive_key, labeled_generator

from oracles import (Recording, absorbing_bound_reference, cutoff_lipschitz_sides,
                     cutoff_product_bound, gap_tolerance, monotonicity_gap,
                     nse_limit_bound_reference, recorded)


class TestClosedFormConstants:
    def test_threshold_reference_value(self):
        # (7/2) * 112^(-1/8), evaluated independently via logarithms
        want = 3.5 * math.exp(-math.log(112.0) / 8.0)
        assert ex.stability_threshold(1.0, 1.0) == pytest.approx(want, rel=1e-14)
        assert ex.stability_threshold(1.0, 1.0) == pytest.approx(1.94051, abs=5e-6)

    def test_threshold_linear_in_level(self):
        base = ex.stability_threshold(1.0, 1.0)
        assert ex.stability_threshold(2.0, 1.0) == pytest.approx(2 * base, rel=1e-14)

    def test_threshold_vanishes_for_large_poincare(self):
        # decays like lambda^(-1/8)
        base = ex.stability_threshold(1.0, 1.0)
        assert ex.stability_threshold(1.0, 1e12) == pytest.approx(
            base * 10.0**-1.5, rel=1e-12
        )
        assert ex.stability_threshold(1.0, 1e80) < 1e-9

    def test_rate_reference_value(self):
        # 4 - 7^7 / (2^12 * 4^7) with integer arithmetic for the fraction
        frac = 823543 / 67108864
        assert ex.contraction_rate(4.0, 1.0, 1.0) == pytest.approx(4.0 - frac, rel=1e-15)
        assert ex.contraction_rate(4.0, 1.0, 1.0) == pytest.approx(3.98773, abs=5e-6)

    def test_rate_positive_iff_above_threshold(self):
        thr = ex.stability_threshold(1.0, 1.0)
        assert ex.contraction_rate(thr * 1.001, 1.0, 1.0) > 0
        assert ex.contraction_rate(thr * 0.999, 1.0, 1.0) < 0


class TestCheckSuites:
    def test_cutoff_lemma_small(self):
        rep = ex.check_cutoff_lemma(n_pairs=400, seed=5)
        assert rep.passed and rep.violations == 0

    def test_trilinear_small(self):
        rep = ex.check_trilinear(n_triples=100, seed=6)
        assert rep.passed

    def test_monotonicity_small(self):
        rep = ex.check_monotonicity(n_triples=40, seed=7)
        assert rep.passed and rep.cases == 40 * 9

    def test_ou_stationarity_small(self):
        rep = ex.check_ou_stationarity(seed=8, n_samples=20_000, mc_fields=2000)
        assert rep.passed
        assert rep.extra["var_analytic"] == pytest.approx(0.25)

    @pytest.mark.parametrize("chi", [0.0, 1.0, 100.0])
    def test_stationary_draws_stack_the_single_samples(self, basis1, chi):
        # the stacked draws of c06's Monte Carlo are, bit for bit, the
        # squared norms of one stationary sample at a time, and leave the
        # generator where those samples leave it
        spectrum = nz.NoiseSpectrum()
        one, stack = labeled_generator(106, "ou-mc"), labeled_generator(106, "ou-mc")
        want = [sp.norm_H(nz.ou_stationary_sample(spectrum, chi, 1.0, basis1, one)) ** 2
                for _ in range(300)]
        got = ex._stationary_h2(spectrum, chi, 1.0, basis1, stack, 300)
        assert got.tolist() == want
        assert one.random(4).tolist() == stack.random(4).tolist()

    def test_shift_covariance_small(self):
        rep = ex.check_shift_covariance(seed=9, n_pairs=25)
        assert rep.passed and rep.worst_margin == pytest.approx(1e-12)


# ---- the suites one case at a time, through the single-field calls ----


def lemma_by_case(kmax, n_pairs, seed, level=1.0, tol=1e-14):
    basis = sp.build_basis(kmax)
    rng = labeled_generator(seed, "cutoff-lemma")
    rows, violations, worst = [], 0, math.inf
    for case in range(n_pairs):
        u = sp.random_field(basis, rng)
        v = sp.random_field(basis, rng)
        lo_u = level * rng.uniform(0.05, 0.95)
        hi_u = level * rng.uniform(1.05, 8.0)
        lo_v = level * rng.uniform(0.05, 0.95)
        hi_v = level * rng.uniform(1.05, 8.0)
        u = u * ((lo_u, hi_u, lo_u, hi_u)[case % 4] / sp.norm_L4(u))
        v = v * ((lo_v, hi_v, hi_v, lo_v)[case % 4] / sp.norm_L4(v))
        prod = cutoff_product_bound(u, level)
        lhs, rhs = cutoff_lipschitz_sides(u, v, level)
        margin = rhs + tol - lhs
        worst = min(worst, margin, level - prod)
        violations += (not 0.0 <= prod <= level) + (lhs > rhs + tol)
        if case < 512 or lhs > rhs + tol:
            rows.append((case, seed, lhs, rhs, margin))
    return rows, worst, n_pairs, violations


def trilinear_by_case(kmax, n_triples, seed, tol=1e-12):
    basis = sp.build_basis(kmax)
    rng = labeled_generator(seed, "trilinear")
    rows, violations, worst = [], 0, math.inf
    for case in range(n_triples):
        u, v, w = (sp.random_field(basis, rng, norm=rng.uniform(0.5, 2.0)) for _ in range(3))
        skew = abs(sp.trilinear_b(u, v, v))
        skew_cap = tol * sp.norm_V(u) * sp.norm_V(v) ** 2
        anti = abs(sp.trilinear_b(u, v, w) + sp.trilinear_b(u, w, v))
        anti_cap = tol * sp.norm_V(u) * sp.norm_V(v) * sp.norm_V(w)
        margin = min(skew_cap - skew, anti_cap - anti)
        worst = min(worst, margin)
        violations += margin < 0
        if case < 512 or margin < 0:
            rows.append((case, seed, skew, skew_cap, margin))
    return rows, worst, n_triples, violations


def monotonicity_by_case(kmax, n_triples, seed, nus, levels):
    basis = sp.build_basis(kmax)
    rows, violations, cases, worst = [], 0, 0, math.inf
    for nu in nus:
        for level in levels:
            rng = labeled_generator(seed, f"monotonicity-{nu}-{level}")
            for case in range(n_triples):
                v1 = sp.random_field(basis, rng, norm=rng.uniform(0.2, 3.0))
                v2 = sp.random_field(basis, rng, norm=rng.uniform(0.2, 3.0))
                z = sp.random_field(basis, rng, norm=rng.uniform(0.0, 2.0))
                gap = monotonicity_gap(v1, v2, z, co.CutoffParams(level, nu))
                tol = gap_tolerance(v1, v2)
                worst = min(worst, gap + tol)
                cases += 1
                violations += gap < -tol
                if case < 64 or gap < -tol:
                    rows.append((cases, seed, gap, -tol, gap + tol))
    return rows, worst, cases, violations


def tile_of(run) -> int:
    """The tile that a suite asks member_tile for, from a run of one case."""
    tiles, member_tile = [], ex.member_tile
    with mock.patch.object(ex, "member_tile",
                           lambda *a, **kw: tiles.append(member_tile(*a, **kw)) or tiles[-1]):
        run(1)
    return tiles[0]


@st.composite
def suite_cases(draw):
    """A suite, kmax, seed and a case count near a multiple of its tile: one
    tile less a case, one or two tiles, or a partial tile after them."""
    suite = draw(st.sampled_from(["lemma", "trilinear", "monotonicity"]))
    kmax, seed = draw(st.integers(1, 3)), draw(st.integers(0, 2**16))
    points = draw(st.sampled_from([((1.0,), (0.5,)), ((0.5, 2.0), (2.0,)),
                                   ((1.0,), (0.5, 1.0, 2.0))]))
    return suite, kmax, seed, points, draw(st.integers(1, 2)), draw(st.sampled_from([-1, 0, 1]))


class TestSuiteTiles:
    @settings(max_examples=30, deadline=None)
    @given(case=suite_cases())
    def test_tiled_suites_equal_their_cases(self, case):
        # every row, the worst margin, the case count and the violations,
        # bit for bit, whether the cases fill whole tiles or end on a partial
        # one; a monotonicity tile may span (nu, level) points
        suite, kmax, seed, (nus, levels), tiles, offset = case
        tiled, by_case = {
            "lemma": (lambda n: ex.check_cutoff_lemma(kmax, n, seed, level=0.7),
                      lambda n: lemma_by_case(kmax, n, seed, level=0.7)),
            "trilinear": (lambda n: ex.check_trilinear(kmax, n, seed),
                          lambda n: trilinear_by_case(kmax, n, seed)),
            "monotonicity": (
                lambda n: ex.check_monotonicity(kmax, n, seed, nus, levels),
                lambda n: monotonicity_by_case(kmax, n, seed, nus, levels)),
        }[suite]
        points = len(nus) * len(levels) if suite == "monotonicity" else 1
        n = max(1, -(-(tiles * tile_of(tiled) + offset) // points))
        rep = tiled(n)
        assert repr((rep.rows, rep.worst_margin, rep.cases, rep.violations)) == repr(by_case(n))

    @pytest.mark.parametrize("suite, n", [("lemma", 513), ("trilinear", 513),
                                          ("monotonicity", 65)])
    def test_row_caps_equal_their_cases(self, suite, n):
        # one case past the cap on the rows kept without a violation
        tiled, by_case = {
            "lemma": (ex.check_cutoff_lemma, lemma_by_case),
            "trilinear": (ex.check_trilinear, trilinear_by_case),
            "monotonicity": (lambda *a: ex.check_monotonicity(*a, (1.0,), (0.5,)),
                             lambda *a: monotonicity_by_case(*a, (1.0,), (0.5,))),
        }[suite]
        rep = tiled(1, n, 11)
        assert len(rep.rows) == n - 1
        assert repr((rep.rows, rep.worst_margin, rep.cases, rep.violations)) == repr(by_case(1, n, 11))

    @settings(max_examples=20, deadline=None)
    @given(kmax=st.integers(1, 3), tile=st.integers(1, 4), tiles=st.integers(2, 3),
           seed=st.integers(0, 2**16))
    def test_bf_stack_on_a_reused_work_dict_equals_single_calls(self, kmax, tile, tiles,
                                                                 seed):
        # tiles of (tile, 2) fields share one work dict, each member at its
        # own level, some above their norm (F = 1) and some below (F < 1)
        basis = sp.build_basis(kmax)
        rng = np.random.default_rng(seed)
        work = {}
        for _ in range(tiles):
            w = np.array([[sp.random_field(basis, rng, norm=rng.uniform(0.2, 3.0)).coeffs
                           for _ in range(2)] for _ in range(tile)])
            level = rng.uniform(0.3, 3.0, size=(tile, 1))
            out, l4, f = co.cutoff_advection_coeffs(basis, w, level, work)
            for i, j in np.ndindex(tile, 2):
                one, r, g = co.cutoff_advection_coeffs(basis, w[i, j], level[i, 0])
                assert out[i, j].tobytes() == one.tobytes()
                assert (l4[i, j], f[i, j]) == (r, g)


class TestTileWork:
    def test_repeated_suite_calls_reuse_their_stages(self):
        # a suite called again, after another suite and another kmax ran,
        # writes into the stage arrays of its first call and reports the same;
        # tiles of one case keep no stages past the call
        runs = [lambda: ex.check_monotonicity(2, 1, 5),
                lambda: ex.check_trilinear(2, 4, 5), lambda: ex.check_cutoff_lemma(1, 3, 5)]
        first = [(r.rows, r.summary()) for r in (run() for run in runs)]
        work = ex._tile_work("monotonicity_gap", 2, 3)
        stages = {name: id(a) for name, a in work.items() if isinstance(a, np.ndarray)}
        assert stages
        again = [(r.rows, r.summary()) for r in (run() for run in runs)]
        assert {name: id(work[name]) for name in stages} == stages
        assert repr(again) == repr(first)
        misses = ex._tile_work.cache_info().misses
        assert ex.check_monotonicity(3, 1, 5, (1.0,), (1.0,)).passed
        assert ex._tile_work.cache_info().misses == misses


class TestContraction:
    def test_identical_data_zero_difference(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=0.5,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        x = sp.random_field(basis2, rng)
        rep = ex.contraction_experiment(p, x, x, ensemble=2, seed=1)
        assert np.all(rep.mean_sq == 0.0)

    def test_single_member_rejected(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=0.5)
        x = sp.random_field(basis2, rng)
        with pytest.raises(ValueError, match="ensemble"):
            ex.contraction_experiment(p, x, x, ensemble=1, seed=1)

    def test_small_ensemble_below_envelope(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 64, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        x1 = sp.random_field(basis2, rng, norm=1.0)
        x2 = sp.random_field(basis2, rng, norm=0.5)
        rep = ex.contraction_experiment(p, x1, x2, ensemble=8, seed=2)
        assert rep.passed
        assert rep.fitted_slope < -rep.rate  # decay beats the envelope rate

    def test_linear_regime_lowest_mode_rate(self, basis1):
        # noise off, tiny single-mode data: the difference decays exactly at
        # the heat rate 2*nu per unit |k|^2 = 1, faster than the envelope
        from conftest import single_mode_field

        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 64, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        x1, _ = single_mode_field(basis1, (1, 0, 0), coeff=1e-4 + 0j)
        x2 = sp.zero_field(basis1)
        rep = ex.contraction_experiment(p, x1, x2, ensemble=2, seed=3)
        assert rep.fitted_slope == pytest.approx(-2 * p.nu, rel=1e-6)
        assert rep.passed

    def test_tiles_equal_member_solves(self, basis2):
        # 7 members in tiles of 4 at kmax 2: the last tile holds 3; F < 1
        # on the first field while |u|_L4 is above the level
        x1 = sp.random_field(basis2, labeled_generator(5, "x1"), norm=3.0)
        x2 = sp.random_field(basis2, labeled_generator(5, "x2"), norm=0.2)
        p = it.SimParams(nu=4.0, level=0.5 * sp.norm_L4(x1), dt=1 / 64, t_final=0.25,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        assert ex.member_tile(basis2, 24, ex.member_bytes(p, 2, ledger=False)) == 4
        rep = ex.contraction_experiment(p, x1, x2, ensemble=7, seed=4, record_every=2)
        sq = []
        for m in range(7):
            path = nz.make_path(derive_key(4, f"member-{m}"), p.dt_path, 0.0,
                                p.t_final, p.noise, basis2)
            (a, rec_a), (_, rec_b) = (recorded(it.solve, x, path, p) for x in (x1, x2))
            assert a.ledger.cutoff[0] < 1.0
            # every second step of 16, the final one among them
            diff = (rec_a.member()[0] - rec_b.member()[0])[::2]
            sq.append((diff.real**2 + diff.imag**2).sum(axis=(1, 2)))
        assert np.array_equal(rep.mean_sq, np.stack(sq).mean(axis=0))

    def test_slope_slower_than_the_rate_fails(self, basis1, monkeypatch):
        # a claimed rate 25% faster than the fitted decay: the slope check
        # fails, since 3 slope_se is under the 20% of the rate that the
        # allowance max(3 slope_se, 5% of the rate) must stay below
        x1 = sp.random_field(basis1, labeled_generator(1, "x1"), norm=1.0)
        x2 = sp.random_field(basis1, labeled_generator(1, "x2"), norm=0.5)
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 64, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        rep = ex.contraction_experiment(p, x1, x2, ensemble=4, seed=2)
        assert rep.extra["slope_ok"]
        rate = -1.25 * rep.fitted_slope
        assert 3.0 * rep.extra["slope_se"] < 0.2 * rate
        monkeypatch.setattr(ex, "contraction_rate", lambda nu, level, lambda_p: rate)
        claimed = ex.contraction_experiment(p, x1, x2, ensemble=4, seed=2)
        assert claimed.fitted_slope == rep.fitted_slope
        assert not claimed.extra["slope_ok"] and not claimed.passed

    def test_tile_path_tables_stay_under_the_ceiling(self, basis1, monkeypatch):
        # fine paths cap the tile so that the path tables its cursors hold
        # together fit the table ceiling; 27 members fit the grid budget
        assert ex.member_tile(basis1, 24, nz.path_table_bytes(16, 1)) == 27
        table = nz.path_table_bytes(2**18, 1)
        assert ex.member_tile(basis1, 24, table) == nz.PATH_TABLE_CEILING // table == 9
        # one table is all it may hold
        assert ex.member_tile(basis1, 24, nz.path_table_bytes(2**21, 1)) == 1
        # with room for 2 tables, 5 members march in tiles of 2, 2 and 1,
        # each tile's tables dropped before the next tile draws its own,
        # with the result of the grid-sized tile of 5
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 64, t_final=0.25, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        x1 = sp.random_field(basis1, labeled_generator(7, "x1"), norm=2.0)
        x2 = sp.random_field(basis1, labeled_generator(7, "x2"), norm=0.5)
        want = ex.contraction_experiment(p, x1, x2, ensemble=5, seed=7)
        seeds = {derive_key(7, f"member-{m}") for m in range(5)}

        def tables():
            return sum(isinstance(o, nz.WienerPath) and o.seed in seeds
                       and o._table is not None for o in gc.get_objects())

        seen, solve = [], it.solve

        def spy(xs, paths, *args, **kw):
            before = tables()
            out = solve(xs, paths, *args, **kw)
            seen.append((len(paths), before, tables()))
            return out

        monkeypatch.setattr(nz, "PATH_TABLE_CEILING", 2 * nz.path_table_bytes(16, 1))
        monkeypatch.setattr(it, "solve", spy)
        got = ex.contraction_experiment(p, x1, x2, ensemble=5, seed=7)
        assert seen == [(2, 0, 2), (2, 0, 2), (1, 0, 1)]
        assert np.array_equal(got.mean_sq, want.mean_sq)

    def test_members_march_in_even_tiles(self, basis1, monkeypatch):
        # 10 members at a tile of 9 march as 5 + 5, not 9 + 1 (a lone member
        # in a stack of its own); each member, its final state and its ledger,
        # is bit for bit the same in the 9 + 1 split; F < 1 on the first field
        p = it.SimParams(nu=4.0, level=0.5, dt=1 / 64, t_final=0.25, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        rng = labeled_generator(9, "even")
        x = np.stack([[sp.random_field(basis1, rng, norm=n).coeffs for n in (2.0, 0.5)]
                      for _ in range(10)])
        paths = [nz.make_path(derive_key(9, f"member-{m}"), p.dt_path, 0.0, p.t_final,
                              p.noise, basis1) for m in range(10)]
        monkeypatch.setattr(ex, "member_tile", lambda basis, grids, nbytes: 9)
        tiles = list(ex._march_tiles(p, x, 9, "member"))
        assert [(m0, len(traj.v)) for m0, traj in tiles] == [(0, 5), (5, 5)]
        fixed = [it.solve(x[a:b], paths[a:b], p) for a, b in ((0, 9), (9, 10))]
        assert fixed[0].ledger.cutoff[:, :, 0].min() < 1.0

        def fields(trajs):
            return [t.member(g, f) for t in trajs for g in range(len(t.v)) for f in range(2)]

        got, want = fields(traj for _, traj in tiles), fields(fixed)
        assert len(got) == len(want) == 20
        for a, b in zip(got, want):
            assert np.array_equal(a.v, b.v) and np.array_equal(a.z, b.z)
            for name, col in vars(a.ledger).items():
                assert np.array_equal(col, getattr(b.ledger, name)), name

    def test_instability_names_the_ensemble_member(self, basis1, monkeypatch):
        # member 3 sits second in the second tile of two; its loud path
        # drives it over the ceiling, and the error must name member 3
        loud = nz.NoiseSpectrum(amplitude=1e12)
        make_path = nz.make_path

        def path_of(seed, dt_path, t_min, t_max, spectrum, basis):
            if seed == derive_key(6, "member-3"):
                spectrum = loud
            return make_path(seed, dt_path, t_min, t_max, spectrum, basis)

        monkeypatch.setattr(ex, "member_tile", lambda basis, grids, nbytes: 2)
        monkeypatch.setattr(ex.nz, "make_path", path_of)
        p = it.SimParams(nu=4.0, level=math.inf, dt=1 / 64, t_final=0.25, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.5), instability_factor=10.0)
        x = sp.random_field(basis1, labeled_generator(6, "x"))
        with pytest.raises(it.InstabilityError, match="member 3, field") as err:
            ex.contraction_experiment(p, x, sp.zero_field(basis1), ensemble=6, seed=6)
        assert err.value.member == 3


@st.composite
def blowup_cases(draw):
    """Which fields of a (G, P) stack start large, at least one, and the
    members per tile of its march."""
    G, P = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    bad = draw(st.lists(st.booleans(), min_size=G * P, max_size=G * P).filter(any))
    return np.array(bad).reshape(G, P), draw(st.integers(1, 3))


class TestInstabilityNames:
    P = it.SimParams(nu=1e-3, level=math.inf, dt=0.5, t_final=8.0, kmax=1,
                     noise=nz.NoiseSpectrum(amplitude=0.0), instability_factor=10.0)

    @settings(max_examples=60, deadline=None)
    @given(case=blowup_cases())
    def test_first_field_past_its_ceiling_is_named(self, case):
        # without noise, forcing or cutoff a zero field stays zero and every
        # large one crosses its ceiling on the same step: the error names the
        # first of them in C order, in a solve of the whole stack and, through
        # the tile loop, as a member of the ensemble (the tile offset added),
        # where each member has its own keyed path, as silent as the shared one
        bad, tile = case
        p, basis = self.P, sp.build_basis(1)
        big = sp.random_field(basis, labeled_generator(0, "big"), norm=100.0)
        x = np.where(bad[..., None, None], big.coeffs, 0.0)
        g, f = np.argwhere(bad)[0]
        path = nz.make_path(0, p.dt_path, 0.0, p.t_final, p.noise, basis)
        with pytest.raises(it.InstabilityError) as err:
            it.solve(x, [path] * len(x), p, ledger=False)
        assert (err.value.member, err.value.field) == (g if bad.size > 1 else None, f)
        with (mock.patch.object(ex, "member_tile", lambda basis, grids, path_steps: tile),
              pytest.raises(it.InstabilityError) as err):
            list(ex._march_tiles(p, x, 0, "member", ledger=False))
        assert (err.value.member, err.value.field) == (g, f)


class TestPullback:
    def test_noise_free_geometric_decay(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        fam = {"one": sp.random_field(basis2, rng, norm=1.0)}
        rep = ex.pullback_absorption(p, [1.0, 2.0, 4.0, 8.0], fam, seed=4)
        radii = rep.radii["one"]
        assert all(radii[i] > radii[i + 1] for i in range(len(radii) - 1))
        assert radii[-1] < 1e-3  # pure decay toward the zero state

    def test_two_families_same_radius(self, basis2, rng):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        fam = {
            "small": sp.random_field(basis2, rng, norm=1.0),
            "large": sp.random_field(basis2, rng, norm=100.0),
        }
        rep = ex.pullback_absorption(p, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0], fam, seed=5)
        assert rep.passed
        assert rep.family_gap <= 1e-6
        assert rep.extra["within_bound"]

    def test_families_equal_their_single_solves(self, basis2, rng):
        # the families of each time march as one group; F < 1 on the large
        # one only, and every radius and energy margin is its own solve's
        p = it.SimParams(nu=1.0, level=2.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        fam = {"small": sp.random_field(basis2, rng, norm=0.2),
               "large": sp.random_field(basis2, rng, norm=10.0)}
        times = [0.5, 1.0]
        rep = ex.pullback_absorption(p, times, fam, seed=8)
        path = nz.make_path(8, p.dt_path, -1.0, p.dt, p.noise, basis2)
        margins = []
        for name, x in fam.items():
            for tm, radius in zip(times, rep.radii[name]):
                traj = it.solve(x, path, p, t0=-tm, t_final=tm)
                assert (traj.ledger.cutoff[0] < 1.0) == (name == "large")
                assert radius == sp.norm_H(traj.v + traj.z, basis2)
                margins.append(it.pullback_inequality_margin(p, traj.ledger))
        assert rep.extra["max_energy_margin"] == max(margins)

    @pytest.mark.parametrize("amplitude", [0.0, 0.5])
    def test_infinite_level_bound_is_finite(self, basis2, rng, amplitude):
        # without the cutoff the bound drops its level^2 |z|_L4^2 term
        p = it.SimParams(nu=1.0, level=math.inf, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=amplitude))
        fam = {"one": sp.random_field(basis2, rng, norm=1.0)}
        rep = ex.pullback_absorption(p, [1.0, 2.0, 4.0, 8.0, 16.0], fam, seed=6)
        assert math.isfinite(rep.absorbing_bound)
        assert rep.extra["within_bound"] and rep.passed

    @pytest.mark.parametrize("level", [1.0, math.inf])
    def test_absorbing_bound_is_the_far_windows(self, basis1, rng, level):
        # kappa11 + kappa12 of the window [-max(times), 0], from one family
        # re-solved over it; z, and so the bound, is every family's
        p = it.SimParams(nu=1.0, level=level, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        fam = {"small": sp.random_field(basis1, rng, norm=1.0),
               "large": sp.random_field(basis1, rng, norm=10.0)}
        times = [0.5, 1.0, 2.0]
        rep = ex.pullback_absorption(p, times, fam, seed=9)
        want = absorbing_bound_reference(p, times, fam["small"], seed=9)
        assert rep.absorbing_bound == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_every_time_must_be_a_multiple_of_dt(self, basis2, rng):
        # the largest time is on the grid; 0.3 is not
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 32, t_final=1.0)
        fam = {"one": sp.random_field(basis2, rng, norm=1.0)}
        with pytest.raises(ValueError, match="multiples of dt"):
            ex.pullback_absorption(p, [1.0, 0.3], fam, seed=7)


class TestNseLimit:
    def test_infinite_level_matches_plain_solver(self, basis2, rng, monkeypatch):
        x = sp.random_field(basis2, rng, norm=2.0)
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        star_rec, solve = Recording(), it.solve
        monkeypatch.setattr(it, "solve", lambda *a, **k: solve(*a, observe=star_rec, **k))
        star = ex.solve_nse(x, p)[0]
        monkeypatch.undo()

        p_inf = replace(p, level=math.inf)
        path = nz.make_path(0, p.dt_path, 0.0, p.t_final, p_inf.noise, basis2)
        modified, rec = recorded(it.solve_transformed, x, path, p_inf)
        assert np.array_equal(star_rec.v, rec.v)
        assert np.array_equal(star.v, modified.v)

    def test_energy_identity_at_galerkin_level(self, basis2, rng):
        x = sp.random_field(basis2, rng, norm=2.0)
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 128, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        star = ex.solve_nse(x, p)[0]
        # plain truncated dynamics keeps the balance up to scheme residual
        assert star.ledger.max_residual() < 5e-3
        assert star.ledger.max_residual() > 0.0

    def test_zero_data_zero_trajectory(self, basis2):
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.5,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        star = ex.solve_nse(sp.zero_field(basis2), p)[0]
        # |v|_H^2 = 0 on every step
        assert np.abs(star.v).max() == 0.0 and not star.ledger.v_H2.any()
        # the sweep scales its cutoff levels by the run's L4 norm, here 0
        with pytest.raises(ValueError, match="no L4 scale"):
            ex.nse_limit_experiment(sp.zero_field(basis2), p)

    def test_sweep_report(self, basis2):
        x = sp.random_field(basis2, labeled_generator(2, "nse-ic"), norm=2.0)
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        rep = ex.nse_limit_experiment(x, p, multipliers=(0.25, 0.5, 1.0, 2.0))
        assert rep.passed
        assert rep.l2_err[-1] == 0.0
        assert all(i <= b for i, b in zip(rep.i_n, rep.i_n_bound))
        # small cutoff levels are genuinely active in this configuration
        assert rep.i_n[0] > 0.0 and rep.int_one_minus_f[0] > 0.0

    @pytest.mark.parametrize("forced", [False, True])
    def test_i_n_bound_is_the_a_priori_bound(self, basis1, rng, forced):
        # (K_T / level^2)^{4/3} at every level, with the forcing's T |f|_V'^2
        # term in K_T when there is one
        x = sp.random_field(basis1, rng, norm=2.0)
        p = it.SimParams(nu=0.5, level=1.0, dt=1 / 64, t_final=0.5, kmax=1,
                         forcing=sp.random_field(basis1, rng, norm=0.5) if forced else None,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        rep = ex.nse_limit_experiment(x, p, multipliers=(0.25, 1.0, 4.0))
        want = [nse_limit_bound_reference(x, p, level) for level in rep.levels]
        assert rep.i_n_bound == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_stacked_levels_equal_single_solves(self, basis2, monkeypatch):
        # the sweep draws one zero-noise path and makes two solves, the
        # unmodified run and one (1, L + 1) stack of the levels and the
        # unmodified run again; each level's stacked record is, bit for bit,
        # a single solve of x at that level on a fresh zero-noise path, and
        # the last field's is the unmodified run's
        x = sp.random_field(basis2, labeled_generator(2, "nse-ic"), norm=2.0)
        p = it.SimParams(nu=1.0, level=1.0, chi=0.5, dt=1 / 64, t_final=0.5,
                         noise=nz.NoiseSpectrum(amplitude=0.5))
        paths, solves = [], []
        make_path, solve_transformed = nz.make_path, it.solve_transformed

        def spy_path(*a):
            paths.append(make_path(*a))
            return paths[-1]

        def spy_solve(v0, path, *a, observe=None, **k):
            rec = Recording()

            def both(*step):
                rec(*step)
                if observe is not None:
                    observe(*step)

            solves.append((path, solve_transformed(v0, path, *a, observe=both, **k), rec))
            return solves[-1][1]

        monkeypatch.setattr(nz, "make_path", spy_path)
        monkeypatch.setattr(it, "solve_transformed", spy_solve)
        rep = ex.nse_limit_experiment(x, p, multipliers=(0.1, 0.3, 1.0, 3.0))
        monkeypatch.undo()
        assert len(paths) == 1 and len(solves) == 2
        assert solves[0][0] is paths[0] and solves[1][0] == [paths[0]]
        (star, star_rec), (stack, rec) = (s[1:] for s in solves)
        assert stack.v.shape[:2] == (1, 5)
        q = replace(p, chi=0.0, noise=replace(p.noise, amplitude=0.0))
        path = nz.make_path(0, q.dt_path, 0.0, q.t_final, q.noise, basis2)
        singles = [recorded(it.solve_transformed, x, path, replace(q, level=level))
                   for level in rep.levels] + [(star, star_rec)]
        for i, (single, single_rec) in enumerate(singles):
            member = stack.member(0, i)
            for got, want in zip((member.v, member.z, *rec.member(0, i)),
                                 (single.v, single.z, *single_rec.member())):
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            for name, column in vars(single.ledger).items():
                got = np.ascontiguousarray(getattr(member.ledger, name))
                assert got.tobytes() == column.tobytes(), name
        assert stack.t_end == star.t_end
        # the cutoff acts on the smaller levels only
        assert (stack.ledger.cutoff[:, 0, :2] < 1.0).any()
        assert (stack.ledger.cutoff[:, 0, 3:] == 1.0).all()

    def test_instability_names_the_level(self, basis2, monkeypatch):
        x = sp.random_field(basis2, labeled_generator(2, "nse-ic"), norm=2.0)
        p = it.SimParams(nu=1.0, level=1.0, dt=1 / 64, t_final=0.25,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        solve_transformed = it.solve_transformed

        def unstable_stack(v0, *a, **k):
            if isinstance(v0, sp.SpectralField):
                return solve_transformed(v0, *a, **k)
            raise it.InstabilityError("|v|_H exceeded", 0, 1)

        monkeypatch.setattr(it, "solve_transformed", unstable_stack)
        with pytest.raises(it.InstabilityError) as err:
            ex.nse_limit_experiment(x, p, multipliers=(0.5, 2.0))
        star = ex.solve_nse(x, p)[0]
        level = 2.0 * float(star.ledger.u_L4.max())
        assert str(err.value) == f"cutoff level {level:.6g}: |v|_H exceeded"


class TestMeasure:
    def test_off_grid_span_raises(self, basis1):
        # burn_in + horizon = 1.3 is not a multiple of dt = 1/32: the solve
        # refuses it before it marches
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        with pytest.raises(ValueError, match="multiple of dt"):
            ex.invariant_measure_sampler(p, {"a": sp.zero_field(basis1)},
                                         burn_in=0.3, horizon=1.0)

    def test_deterministic_decay_collapses_to_zero(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        ics = {"a": sp.random_field(basis2, rng, norm=1.0)}
        rep = ex.invariant_measure_sampler(p, ics, burn_in=4.0, horizon=10.0, seed=6)
        assert rep.averages["u_H2"]["a"] < 1e-10

    def test_two_initial_states_agree(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        ics = {"zero": sp.zero_field(basis2),
               "big": sp.random_field(basis2, rng, norm=10.0)}
        rep = ex.invariant_measure_sampler(p, ics, burn_in=1.25, horizon=15.0, seed=7)
        assert rep.passed

    def test_linear_regime_matches_mode_sum(self, basis1):
        # tiny noise, zero data: the dynamics is the stochastic heat flow up
        # to quadratically small corrections, so the long-run mean energy is
        # the closed-form stationary sum
        amp = 1e-3
        spec = nz.NoiseSpectrum(amplitude=amp)
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=spec)
        ics = {"zero": sp.zero_field(sp.build_basis(1))}
        rep = ex.invariant_measure_sampler(p, ics, burn_in=2.0, horizon=60.0, seed=8)
        want = nz.stationary_mean_H2(spec, 0.0, p.nu, sp.build_basis(1))
        got = rep.averages["u_H2"]["zero"]
        se = rep.stderrs["u_H2"]["zero"]
        assert got == pytest.approx(want, abs=5 * se)

    def test_insufficient_horizon_flagged(self, basis2, rng):
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        ics = {"a": sp.random_field(basis2, rng)}
        with pytest.raises(ex.HorizonError):
            ex.invariant_measure_sampler(p, ics, burn_in=0.5, horizon=1.0, seed=9)

    def test_horizon_under_one_step_per_batch_rejected(self, basis1):
        # 8 steps cannot fill 20 batches: empty batches would give NaN error
        # bars, and a constant series (tau = 0) would pass the horizon check
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.0))
        zero = sp.zero_field(basis1)
        with pytest.raises(ValueError, match="n_batches=20"):
            ex.invariant_measure_sampler(p, {"a": zero, "b": zero}, burn_in=0.0,
                                         horizon=0.25)
        rep = ex.invariant_measure_sampler(p, {"a": zero, "b": zero}, burn_in=0.0,
                                           horizon=20 / 32)
        assert np.isfinite([rep.stderrs[k]["a"] for k in rep.observables]).all()

    def test_states_four_combined_se_apart_fail(self, basis1, monkeypatch):
        # the second state's |u|_H^2 series shifted away from the first's by
        # 4 combined standard errors: their averages then differ by more
        # than the 3 se mixing band, and the run fails
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        ics = {"zero": sp.zero_field(basis1),
               "big": sp.random_field(basis1, labeled_generator(3, "big"), norm=10.0)}
        rep = ex.invariant_measure_sampler(p, ics, burn_in=1.25, horizon=15.0, seed=5)
        assert rep.passed
        avg, se = rep.averages["u_H2"], rep.stderrs["u_H2"]
        shift = math.copysign(4.0 * math.hypot(se["zero"], se["big"]),
                              avg["big"] - avg["zero"])
        march = ex._march_tiles

        def shifted(*args, **kw):
            for m0, traj in march(*args, **kw):
                if m0 <= 1 < m0 + len(traj.v):
                    traj.ledger.u_H2[:, 1 - m0, 0] += shift
                yield m0, traj

        monkeypatch.setattr(ex, "_march_tiles", shifted)
        moved = ex.invariant_measure_sampler(p, ics, burn_in=1.25, horizon=15.0, seed=5)
        assert moved.averages["u_H2"]["big"] == pytest.approx(avg["big"] + shift)
        assert moved.stderrs["u_H2"]["big"] == pytest.approx(se["big"])
        assert not moved.passed

    def test_tiles_equal_state_solves(self, basis1, monkeypatch):
        # three states in one tile, and in tiles of 2 and 1: each state's
        # series is its own solve's, bit for bit
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        ics = {"zero": sp.zero_field(basis1),
               "big": sp.random_field(basis1, labeled_generator(3, "big"), norm=10.0),
               "mid": sp.random_field(basis1, labeled_generator(3, "mid"), norm=3.0)}
        burn_in, horizon = 1.25, 15.0
        q = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=burn_in + horizon, kmax=1,
                         noise=p.noise)
        assert ex.member_tile(basis1, 12, ex.member_bytes(q, 1)) >= 3
        whole = ex.invariant_measure_sampler(p, ics, burn_in, horizon, seed=5)
        monkeypatch.setattr(ex, "member_tile", lambda basis, grids, nbytes: 2)
        tiled = ex.invariant_measure_sampler(p, ics, burn_in, horizon, seed=5)
        assert tiled.summary() == whole.summary()
        for idx, (name, x) in enumerate(ics.items()):
            path = nz.make_path(derive_key(5, f"measure-{idx}"), q.dt_path, 0.0,
                                q.t_final, q.noise, basis1)
            led = it.solve(x, path, q).ledger
            for key in whole.observables:
                vals = getattr(led, key)[led.t >= burn_in - 1e-12]
                assert whole.averages[key][name] == float(vals.mean())

    def test_tile_bytes_count_the_ledgers(self, basis1, monkeypatch):
        # room for two states' path tables but not for their ledgers too:
        # the two states march in tiles of one, with the series of one tile
        p = it.SimParams(nu=4.0, level=1.0, dt=1 / 32, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=1.0))
        ics = {"zero": sp.zero_field(basis1),
               "big": sp.random_field(basis1, labeled_generator(3, "big"), norm=10.0)}
        burn_in, horizon = 1.25, 15.0
        q = replace(p, t_final=burn_in + horizon)
        table, member = ex.member_bytes(q, 1, ledger=False), ex.member_bytes(q, 1)
        whole = ex.invariant_measure_sampler(p, ics, burn_in, horizon, seed=5)
        monkeypatch.setattr(nz, "PATH_TABLE_CEILING", 2 * table + (member - table))
        assert (ex.member_tile(basis1, 12, table), ex.member_tile(basis1, 12, member)) == (2, 1)
        seen, solve = [], it.solve

        def spy(xs, paths, *args, **kw):
            seen.append(len(paths))
            return solve(xs, paths, *args, **kw)

        monkeypatch.setattr(it, "solve", spy)
        tiled = ex.invariant_measure_sampler(p, ics, burn_in, horizon, seed=5)
        assert seen == [1, 1]
        assert tiled.summary() == whole.summary()

    @pytest.mark.parametrize("loud", [1, 2])
    def test_instability_names_the_state(self, basis1, monkeypatch, loud):
        # tiles of 2: state 1 sits second in the first tile, state 2 alone
        # in the second; the loud path's state must be the one named
        make_path = nz.make_path

        def path_of(seed, dt_path, t_min, t_max, spectrum, basis):
            if seed == derive_key(6, f"measure-{loud}"):
                spectrum = nz.NoiseSpectrum(amplitude=1e12)
            return make_path(seed, dt_path, t_min, t_max, spectrum, basis)

        monkeypatch.setattr(ex, "member_tile", lambda basis, grids, nbytes: 2)
        monkeypatch.setattr(ex.nz, "make_path", path_of)
        p = it.SimParams(nu=4.0, level=math.inf, dt=1 / 64, t_final=1.0, kmax=1,
                         noise=nz.NoiseSpectrum(amplitude=0.5), instability_factor=10.0)
        ics = {name: sp.random_field(basis1, labeled_generator(6, name))
               for name in ("a", "b", "c")}
        with pytest.raises(it.InstabilityError, match=f"member {loud}, field 0") as err:
            ex.invariant_measure_sampler(p, ics, burn_in=0.0, horizon=10.0, seed=6)
        assert err.value.member == loud
