import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmnslab import noise as nz
from gmnslab import spectral as sp
from gmnslab.seeding import derive_key, labeled_generator, philox

from oracles import ou_moments, path_from_manifest


@pytest.fixture(scope="module")
def spectrum():
    return nz.NoiseSpectrum(s=1.0, amplitude=1.0)


@pytest.fixture()
def path(basis1, spectrum):
    return nz.make_path(314, 1.0 / 64, 0.0, 8.0, spectrum, basis1)


class TestSpectrum:
    def test_regularity_floor_enforced(self):
        with pytest.raises(ValueError):
            nz.NoiseSpectrum(s=0.5)
        rough = nz.NoiseSpectrum(s=0.5, delta=0.25, allow_rough=True)
        assert rough.s == 0.5

    def test_delta_constraints(self):
        with pytest.raises(ValueError):
            nz.NoiseSpectrum(delta=0.6)
        with pytest.raises(ValueError):
            nz.NoiseSpectrum(s=0.4, delta=0.45, allow_rough=True)
        # delta < 1/2 < s compatible
        nz.NoiseSpectrum(s=0.76, delta=0.49)

    @pytest.mark.parametrize("field", ["amplitude", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"^field 'params.noise.{field}' must be "):
            nz.NoiseSpectrum(**{field: value})
        with pytest.raises(ValueError, match=f"^field 'params.noise.{field}' must be "):
            nz.NoiseSpectrum(**{field: value, "allow_rough": True})

    @pytest.mark.parametrize("kw, field", [
        ({"s": 0.5}, "s"), ({"amplitude": -1.0}, "amplitude"), ({"delta": 0.6}, "delta"),
        ({"delta": 0.0}, "delta"), ({"s": 0.4, "delta": 0.45, "allow_rough": True}, "delta"),
        ({"allow_rough": 1}, "allow_rough")])
    def test_each_rule_names_its_field(self, kw, field):
        with pytest.raises(ValueError, match=f"^field 'params.noise.{field}' must be "):
            nz.NoiseSpectrum(**kw)

    def test_amplitudes_positive_decreasing(self, basis2):
        spec = nz.NoiseSpectrum(s=1.0)
        amp = spec.mode_amplitudes(basis2)
        assert np.all(amp > 0)
        lam = basis2.eigenvalues
        order = np.argsort(lam)
        assert np.all(np.diff(amp[order]) <= 0)
        assert np.allclose(amp, lam.astype(float) ** -1.0)


class TestWienerPath:
    def test_seed_determinism(self, basis1, spectrum):
        a = nz.make_path(7, 1 / 64, 0.0, 2.0, spectrum, basis1)
        b = nz.make_path(7, 1 / 64, 0.0, 2.0, spectrum, basis1)
        assert np.array_equal(a.normals(0, a.steps), b.normals(0, b.steps))
        c = nz.make_path(8, 1 / 64, 0.0, 2.0, spectrum, basis1)
        assert not np.array_equal(a.normals(0, 16), c.normals(0, 16))

    def test_rejects_bad_bounds(self, basis1, spectrum):
        with pytest.raises(ValueError):
            nz.make_path(1, 1 / 64, 0.0, 0.0, spectrum, basis1)
        with pytest.raises(ValueError):
            nz.make_path(1, 1 / 64, 0.0, math.inf, spectrum, basis1)

    def test_table_size_ceiling(self, basis1, spectrum):
        # checked when the path is built, before any draw materializes
        with pytest.raises(ValueError, match="ceiling"):
            nz.make_path(0, 1 / 256, 0.0, 1e9, spectrum, basis1)
        row_bytes = 8 * 4 * basis1.n_half_modes
        assert nz.path_table_bytes(1, basis1.kmax) == row_bytes
        steps = nz.PATH_TABLE_CEILING // row_bytes
        assert nz.make_path(0, 1.0, 0.0, steps, spectrum, basis1).steps == steps
        with pytest.raises(ValueError, match="ceiling"):
            nz.make_path(0, 1.0, 0.0, steps + 1, spectrum, basis1)

    def test_two_sided_window(self, basis1, spectrum):
        p = nz.make_path(1, 1 / 32, -4.0, 2.0, spectrum, basis1)
        assert p.t_min == -4.0 and p.t_max == 2.0
        assert p.index_of(-4.0) == 0 - p.offset == 0
        p.normals(p.index_of(-4.0), 8)

    def test_increment_variance_scales_with_dt(self, basis1, spectrum):
        p = nz.make_path(11, 1 / 128, 0.0, 16.0, spectrum, basis1)
        inc = p.normals(0, p.steps) * math.sqrt(p.dt_path)
        n = inc.size
        var = inc.var()
        se = (1 / 128) * math.sqrt(2.0 / n)
        assert abs(var - 1 / 128) <= 5 * se

    def test_mode_independence(self, basis1, spectrum):
        p = nz.make_path(12, 1 / 64, 0.0, 64.0, spectrum, basis1)
        a = p.normals(0, p.steps)[:, 0]
        b = p.normals(0, p.steps)[:, 5]
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) <= 5.0 / math.sqrt(p.steps)

    def test_column_is_its_keyed_stream(self, path, basis1, spectrum):
        # every column alpha of the table is the whole keyed stream of
        # coordinate alpha, on the path and on a shifted view of it, for
        # tables shorter and longer than one Philox block of 4 words, and on
        # either side of PARALLEL_ROW_CELLS (one drawing thread below it, one
        # per CPU up to FILL_THREADS from it on); no drawing thread is left
        assert nz._fill_threads(nz.PARALLEL_ROW_CELLS - 1) == 1
        for steps in sorted({1, 16, 17, 1024, nz.PARALLEL_ROW_CELLS - 1,
                             nz.PARALLEL_ROW_CELLS}):
            p = nz.make_path(path.seed, path.dt_path, 0.0, steps * path.dt_path,
                             spectrum, basis1)
            assert p.steps == steps
            sh = nz.shift_path(p, path.dt_path)
            n0 = sh.index_of(sh.t_min)
            running = set(threading.enumerate())
            for alpha in range(p.n_coordinates):
                gen = philox(derive_key(p.seed, "wiener-table"), alpha)
                want = gen.standard_normal(steps)
                assert np.array_equal(p.normals(0, steps)[:, alpha], want)
                assert np.array_equal(sh.normals(n0, steps)[:, alpha], want)
            assert set(threading.enumerate()) == running

    def test_fill_independent_of_thread_count(self):
        # more threads than cores, with frequent switches between them:
        # every count fills the table of one thread, and joins its threads
        key = derive_key(5, "wiener-table")
        tables = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 5):
                running = set(threading.enumerate())
                table = np.empty((26, 1500))
                nz._fill_rows(table, key, threads)
                assert set(threading.enumerate()) == running
                tables.append(table)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(tables[0], t) for t in tables[1:])

    def test_fill_error_raised_by_the_caller(self):
        # a row no thread can write fails the fill, on one thread or many,
        # and the threads are joined all the same
        table = np.empty((6, 1500))
        table.setflags(write=False)
        for threads in (1, 3):
            running = set(threading.enumerate())
            with pytest.raises(ValueError):
                nz._fill_rows(table, 0, threads)
            assert set(threading.enumerate()) == running

    def test_off_grid_time_rejected(self, path):
        with pytest.raises(ValueError):
            path.index_of(0.01)

    def test_out_of_window_rejected(self, path):
        with pytest.raises(ValueError):
            path.normals(-1, 1)
        with pytest.raises(ValueError):
            path.normals(path.steps, 1)


class TestShiftMap:
    def test_identity_shift(self, path):
        assert nz.shift_path(path, 0.0) is path

    def test_index_bookkeeping(self, path):
        s = 1.5
        m = int(round(s / path.dt_path))
        sh = nz.shift_path(path, s)
        assert sh.t_min == path.t_min - s
        assert np.array_equal(sh.normals(0, 8), path.normals(m, 8))

    def test_group_property(self, path):
        sh = nz.shift_path(nz.shift_path(path, 2.0), -2.0)
        assert sh.t_min == path.t_min and sh.offset == path.offset
        assert np.array_equal(sh.normals(0, 4), path.normals(0, 4))

    def test_composition_matches_single_shift(self, path):
        a = nz.shift_path(nz.shift_path(path, 0.5), 1.0)
        b = nz.shift_path(path, 1.5)
        assert a.offset == b.offset and a.t_min == b.t_min

    def test_views_share_one_table(self, path, basis1, spectrum):
        # a view that reads before its parent draws the table the parent
        # then reads, and a view of a view shares it too; the draws are
        # those of a path with no views
        m = int(round(1.5 / path.dt_path))
        sh = nz.shift_path(path, 1.5)
        first = sh.normals(0, 8)
        assert np.shares_memory(first, path.normals(m, 8))
        back = nz.shift_path(sh, -1.5)
        assert np.shares_memory(back.normals(0, path.steps), path.normals(0, path.steps))
        alone = nz.make_path(path.seed, path.dt_path, path.t_min, path.t_max,
                             spectrum, basis1)
        assert np.array_equal(first, alone.normals(m, 8))
        assert np.array_equal(path.normals(0, path.steps), alone.normals(0, alone.steps))

    def test_non_multiple_rejected(self, path):
        with pytest.raises(ValueError):
            nz.shift_path(path, 0.013)


class TestManifest:
    def test_round_trip(self, path, basis1):
        again = path_from_manifest(json.loads(json.dumps(path.manifest())), basis1)
        assert np.array_equal(again.normals(0, path.steps), path.normals(0, path.steps))
        assert again.t_min == path.t_min and again.t_max == path.t_max

    def test_round_trip_of_shifted_view(self, path, basis1):
        sh = nz.shift_path(path, 2.0)
        again = path_from_manifest(sh.manifest(), basis1)
        assert again.t_min == sh.t_min
        n0 = sh.index_of(sh.t_min)
        assert np.array_equal(again.normals(n0, 16), sh.normals(n0, 16))


class TestOUEvolution:
    def test_pure_decay_without_noise(self, basis1):
        spec0 = nz.NoiseSpectrum(amplitude=0.0)
        p = nz.make_path(3, 1 / 64, 0.0, 2.0, spec0, basis1)
        c = np.zeros((basis1.n_half_modes, 2), complex)
        c[0, 0] = 1.5 - 0.5j
        out = nz.OUCursor(p, 0.5, 1.0, start=(0.0, c)).advance_to(1.5)
        mu = 1.0 * 1 + 0.5
        want = (1.5 - 0.5j) * math.exp(-mu * 1.5)
        assert out[0, 0] == pytest.approx(want, rel=1e-14)

    def test_transition_matches_scalar_oracle_moments(self, basis1, spectrum):
        # distribution of z at fixed time from fixed start: mean/variance of
        # the exact transition against the scalar OU closed form
        mu, sigma, t = 2.0, 1.0, 0.75
        n = 20_000
        p = nz.make_path(9, t, 0.0, (n + 1) * t, spectrum, basis1)
        draws = p.normals(0, n)[:, 0]
        a = math.exp(-mu * t)
        gain = sigma * math.sqrt((1 - a * a) / (2 * mu))
        z0 = 1.2
        samples = a * z0 + gain * draws
        mean_want, var_want = ou_moments(z0, sigma, mu, t)
        assert samples.mean() == pytest.approx(mean_want, abs=5 * math.sqrt(var_want / n))
        se_var = var_want * math.sqrt(2.0 / n)
        assert samples.var() == pytest.approx(var_want, abs=5 * se_var)

    def test_refining_dt_leaves_marginal_law_unchanged(self, basis1, spectrum):
        # the transition is exact, so two half-steps reproduce the one-step
        # law exactly: same mean factor, same composed variance
        mu, h = 1.7, 0.25
        a1 = math.exp(-mu * h)
        g1_sq = (1 - a1 * a1) / (2 * mu)
        a2 = math.exp(-mu * h / 2)
        g2_sq = (1 - a2 * a2) / (2 * mu)
        assert a2 * a2 == pytest.approx(a1, rel=1e-15)
        assert a2 * a2 * g2_sq + g2_sq == pytest.approx(g1_sq, rel=1e-14)

    def test_zero_amplitude_state_has_no_negative_zero(self, basis1):
        p = nz.make_path(5, 1 / 64, 0.0, 1.0, nz.NoiseSpectrum(amplitude=0.0), basis1)
        z = nz.OUCursor(p, 0.5, 1.0).advance_to(p.t_min).view(np.float64)
        assert not z.any()
        assert not np.signbit(z).any()

    @pytest.mark.parametrize("given_start", [False, True])
    def test_zero_amplitude_advance_stays_positive_zero(self, basis1, given_start):
        # a zero amplitude draws its rows like any other, and a zero gain times
        # a negative draw is -0.0; +0.0 * decay + -0.0 is +0.0, so over 160
        # cells z stays +0.0 in every coordinate, from the stationary start
        # and from a given +0.0 start
        p = nz.make_path(5, 1 / 64, -1.0, 1.5, nz.NoiseSpectrum(amplitude=0.0), basis1)
        assert np.signbit(0.0 * p.normals(0, p.steps)).any()
        zero = np.zeros((basis1.n_half_modes, 2), dtype=complex)
        cursor = nz.OUCursor(p, 0.5, 1.0, start=(p.t_min, zero) if given_start else None)
        for t in (-0.5, 0.0, 1.5):
            z = cursor.advance_to(t).view(np.float64)
            assert not z.any() and not np.signbit(z).any()
        assert round((cursor.time - p.t_min) / p.dt_path) == 160

    def test_advance_returns_read_only_view(self, path):
        cursor = nz.OUCursor(path, 0.5, 1.0)
        for t in (0.0, 1.0):
            z = cursor.advance_to(t)
            assert z.shape == (path.basis.n_half_modes, 2) and not z.flags.writeable
            with pytest.raises(ValueError):
                z[0, 0] = 1.0

    def test_returned_z_unchanged_by_later_advances(self, path):
        cursor = nz.OUCursor(path, 0.5, 1.0)
        seen = [(cursor.advance_to(t), t) for t in (0.0, 0.25, 0.25, 1.0)]
        kept = [z.copy() for z, _ in seen]
        cursor.advance_to(4.0)
        for (z, t), before in zip(seen, kept):
            assert np.array_equal(z, before)
            assert np.array_equal(z, nz.OUCursor(path, 0.5, 1.0).advance_to(t))

    def test_backwards_rejected(self, path):
        cursor = nz.OUCursor(path, 0.0, 1.0)
        cursor.advance_to(1.0)
        with pytest.raises(ValueError):
            cursor.advance_to(0.5)

    def test_damping_parameters_checked(self, path):
        for chi, nu in ((-0.5, 1.0), (0.0, 0.0)):
            with pytest.raises(ValueError, match="chi >= 0 and nu > 0"):
                nz.OUCursor(path, chi, nu)

    def test_stationary_variance_low_mode(self, basis1, spectrum):
        # nu = 1, chi = 1, |k|^2 = 1, sigma = 1: variance 1/4
        stds = nz.stationary_std(spectrum, 1.0, 1.0, basis1)
        assert stds[0] ** 2 == pytest.approx(0.25, rel=1e-15)

    def test_long_run_variance_matches_stationary(self, basis1, spectrum):
        nu, chi = 1.0, 1.0
        mu = nu + chi
        lag = 2.5 / mu
        n = 50_000
        p = nz.make_path(77, lag, 0.0, (n + 1) * lag, spectrum, basis1)
        draws = p.normals(0, n)[:, 0]
        a = math.exp(-mu * lag)
        gain = math.sqrt((1 - a * a) / (2 * mu))
        z = np.empty(n)
        acc = 0.0
        for i in range(n):
            acc = a * acc + gain * draws[i]
            z[i] = acc
        var_true = 1.0 / (2 * mu)
        se = var_true * math.sqrt(2 * (1 + a * a) / (1 - a * a) / n)
        assert z.var() == pytest.approx(var_true, abs=5 * se)


class TestStackedCursor:
    @settings(max_examples=40, deadline=None)
    @given(groups=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           given_start=st.booleans(),
           amplitudes=st.lists(st.sampled_from((0.0, 1.0, 3.0)), min_size=4, max_size=4),
           cells=st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_each_group_is_its_one_path_cursor(self, basis1, groups, seed, given_start,
                                               amplitudes, cells):
        # each group's z is bit for bit a one-path cursor's at every advance,
        # from the stationary start and from a given stack of starts, with and
        # without noise, each path at its own amplitude; a z returned earlier
        # is unchanged by later advances
        paths = [nz.make_path(seed + g, 1 / 64, -0.5, 2.0,
                              nz.NoiseSpectrum(amplitude=amplitudes[g]), basis1)
                 for g in range(groups)]
        start = None
        if given_start:
            z0 = np.random.default_rng(seed).standard_normal((groups, basis1.n_half_modes, 4))
            start = (-0.25, z0.view(np.complex128))
        stacked = nz.OUCursor(paths, 0.5, 1.5, start=start)
        ones = [nz.OUCursor(p, 0.5, 1.5, start=start and (start[0], start[1][g]))
                for g, p in enumerate(paths)]
        t = stacked.time
        seen = []
        for n in cells:
            t += n * paths[0].dt_path
            z = stacked.advance_to(t)
            assert z.shape == (groups, basis1.n_half_modes, 2) and not z.flags.writeable
            for g, one in enumerate(ones):
                want = one.advance_to(t)
                assert np.array_equal(z[g].view(np.float64), want.view(np.float64))
                assert np.array_equal(np.signbit(z[g].view(np.float64)),
                                      np.signbit(want.view(np.float64)))
            seen.append((z, z.copy()))
        for z, before in seen:
            assert np.array_equal(z.view(np.float64), before.view(np.float64))

    def test_lone_path_and_list_of_one(self, path):
        lone = nz.OUCursor(path, 0.5, 1.0).advance_to(1.0)
        stack = nz.OUCursor([path], 0.5, 1.0).advance_to(1.0)
        assert lone.shape == (path.basis.n_half_modes, 2) and stack.shape == (1, *lone.shape)
        assert np.array_equal(stack[0], lone)

    def test_one_start_for_every_path(self, path, basis1, spectrum):
        other = nz.make_path(315, path.dt_path, 0.0, 8.0, spectrum, basis1)
        z0 = np.full((basis1.n_half_modes, 2), 0.5 - 1.0j)
        z = nz.OUCursor([path, other], 0.5, 1.0, start=(0.0, z0)).advance_to(1.0)
        for g, p in enumerate((path, other)):
            assert np.array_equal(z[g], nz.OUCursor(p, 0.5, 1.0, start=(0.0, z0)).advance_to(1.0))

    def test_paths_off_the_shared_grid_rejected(self, path, basis1, spectrum):
        # the window start is t_min; each mismatch is named
        for other, name in (
                (nz.make_path(1, 2 * path.dt_path, 0.0, 8.0, spectrum, basis1), "dt_path"),
                (nz.make_path(1, path.dt_path, -1.0, 8.0, spectrum, basis1), "t_origin"),
                (nz.shift_path(nz.make_path(1, path.dt_path, 0.0, 8.0, spectrum, basis1), 1.0),
                 "t_min"),
                (nz.make_path(1, path.dt_path, 0.0, 8.0, spectrum, sp.build_basis(2)),
                 "basis.kmax")):
            with pytest.raises(ValueError, match=f"must share {name}, not"):
                nz.OUCursor([path, other], 0.5, 1.0)


class TestSeeding:
    def test_philox_is_the_keyed_bit_generator(self):
        # philox(key, stream) draws the bits of a Philox keyed [key, stream]
        for key in (0, 1, 2**63 + 5, 2**64 - 1, derive_key(5, "wiener-table")):
            for stream in (0, 1, 247, 2**64 - 1):
                want = np.random.Philox(key=np.array([key, stream], dtype=np.uint64))
                got = philox(key, stream).bit_generator
                assert repr(got.state) == repr(want.state)
                assert np.array_equal(got.random_raw(9), want.random_raw(9))
        gen = np.random.Generator(np.random.Philox(key=np.array([7, 3], dtype=np.uint64)))
        assert np.array_equal(philox(7, 3).standard_normal(13), gen.standard_normal(13))

    # the fuzz suites' spans, then any lo <= hi whose width is finite
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), label=st.text(max_size=12),
           span=st.sampled_from([(0.05, 0.95), (1.05, 8.0), (0.5, 2.0), (0.2, 3.0), (0.0, 2.0)])
           | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2
                      ).map(sorted).filter(lambda s: math.isfinite(s[1] - s[0])))
    def test_uniform_is_low_plus_width_times_random(self, seed, label, span):
        # the suites draw lo + (hi - lo) * rng.random() for rng.uniform(lo, hi):
        # the same bits, and the same words of the stream consumed
        lo, hi = span
        want, got = labeled_generator(seed, label), labeled_generator(seed, label)
        drawn = np.array([want.uniform(lo, hi) for _ in range(7)])
        assert np.array([lo + (hi - lo) * got.random() for _ in range(7)]).tobytes() \
            == drawn.tobytes()
        assert got.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()


class TestStationarySampling:
    def test_mean_energy_matches_mode_sum(self, basis1, spectrum, rng):
        n = 4000
        vals = np.array([
            sp.norm_H(nz.ou_stationary_sample(spectrum, 0.0, 1.0, basis1, rng)) ** 2
            for _ in range(n)
        ])
        want = nz.stationary_mean_H2(spectrum, 0.0, 1.0, basis1)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert vals.mean() == pytest.approx(want, abs=5 * se)

    def test_energy_decreases_in_damping_shift(self, basis2, spectrum):
        sums = [
            nz.stationary_mean_H2(spectrum, chi, 1.0, basis2)
            for chi in (0.0, 1.0, 10.0, 100.0)
        ]
        assert sums == sorted(sums, reverse=True)
        # large-shift limit: variance -> 0 per mode
        assert nz.stationary_mean_H2(spectrum, 1e9, 1.0, basis2) < 1e-7


class TestShiftCovariance:
    def test_zero_shift_exact(self, path):
        lhs, rhs = nz.ou_shift_covariance_pair(path, 0.0, 2.0, 0.5, 1.0)
        assert np.array_equal(lhs.coeffs, rhs.coeffs)

    def test_shift_exact_bitwise(self, path):
        lhs, rhs = nz.ou_shift_covariance_pair(path, 1.0, 2.0, 0.5, 1.0)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() == 0.0

    def test_composed_shifts(self, path):
        a = nz.shift_path(path, 0.5)
        lhs1, _ = nz.ou_shift_covariance_pair(a, 0.5, 1.0, 0.0, 1.0)
        lhs2, _ = nz.ou_shift_covariance_pair(path, 1.0, 1.0, 0.0, 1.0)
        assert np.array_equal(lhs1.coeffs, lhs2.coeffs)
