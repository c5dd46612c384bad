"""Two-sided seeded Wiener paths and the exactly-sampled OU layer.

The driving noise is a cylindrical Wiener process on the truncated basis with
a spectral amplitude law sigma_k = amplitude * |k|^(-2s): one independent
scalar Brownian motion per real basis coordinate (mode, polarization,
cos/sin), all derived from a single seed through counter-based keyed streams.
A path is a table of standard normal draws on a uniform grid of resolution
dt_path; the time-shift map is a view of the same table with relabeled time
indices, so shifted and unshifted paths consume literally identical draws.
The table's rows are independent counter-based streams, so a long table is
drawn on every available core, each row by the thread that owns it, with the
same bits as on one (Salmon et al., "Parallel random numbers: as easy as 1,
2, 3", SC'11).

The stochastic layer z solves dz + (nu*A + chi*I) z dt = dW.  One object
realizes it: `OUCursor`, which advances z mode-by-mode, of one path or of
every path of a stacked march as one state, with the exact one-step
transition

    z <- exp(-mu*h) z + sigma * sqrt((1 - exp(-2*mu*h)) / (2*mu)) * xi,

mu = nu*|k|^2 + chi, using the path's draws xi, so there is no
time-discretization bias at any resolution.  A cursor starts either from a
given (time, z), such as a checkpoint's, or by default from the stationary
law (per-mode variance sigma^2 / (2*mu)) at the start of the path window,
which replaces an infinite burn-in.  Under the index relabeling of the shift
map that start is invariant, which makes the shift covariance
z(shifted path)(t) = z(path)(t+s) hold bit-exactly rather than
statistically.  `NoiseSpectrum` declares each field's rule beside it
(`rule`), as `integrate.SimParams` and `config.RunConfig` do, and
`check_rules` checks them in field order through `check`, the one refusal
of every config rule (the option table of `config` calls it too): "field
'<name>' must be <what>, got <value!r>".
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .cost import TILE_BYTES
from .seeding import derive_key, labeled_generator, philox, philox_state
from .spectral import GalerkinBasis, SpectralField

# gamma-radonifying regularity floor for the noise spectrum (see NoiseSpectrum).
MIN_REGULARITY = 0.75

# Resource guard: the largest path table (float64 draws) a path may hold.
PATH_TABLE_CEILING = 2**30

# Rows of the path table shorter than this many cells are drawn on one
# thread: below it the threads' start and their turns at the interpreter
# lock cost more than the draws they share (measured on 2 cores: at 17
# cells, contract's rows, 248 rows took 0.56 ms on one thread and 1.5 ms on
# two; at 1,024 cells 6.1 ms against 3.8 ms; at 4,096, 684 rows, 57 ms
# against 34 ms).  At most FILL_THREADS threads draw one table.
PARALLEL_ROW_CELLS = 1024
FILL_THREADS = 4


def path_table_bytes(steps: float, kmax: int) -> float:
    """Bytes of the path table: one float64 per grid cell and real basis
    coordinate, 4 per half-space mode, ((2*kmax+1)^3 - 1) / 2 modes."""
    return 8 * steps * 2 * ((2 * kmax + 1) ** 3 - 1)


def _is_int(x) -> bool:
    """An integer that is not a bool (bool subclasses int in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A finite number that is not a bool."""
    return (isinstance(x, float) or _is_int(x)) and -math.inf < x < math.inf


def rule(valid, what: str, **kw):
    """A dataclass field with its rule: valid(value, obj), and `what` (obj as p)."""
    return field(metadata={"rule": (valid, what)}, **kw)


def check(name: str, value, ctx, valid, what: str) -> None:
    """The one refusal of a bad value: unless valid(value, ctx), ValueError
    "field '<name>' must be <what>, got <value!r>", where `what` may name
    ctx's fields as p."""
    if not valid(value, ctx):
        raise ValueError(f"field '{name}' must be {what.format(p=ctx)}, got {value!r}")


def check_rules(obj, prefix: str = "") -> None:
    """Check obj's field rules in field order, each field named prefix + its name."""
    for f in fields(obj):
        if "rule" in f.metadata:
            check(prefix + f.name, getattr(obj, f.name), obj, *f.metadata["rule"])


# (validator, what it must be) of the rules several parameters follow
POSITIVE = (lambda x, p: _finite(x) and x > 0, "a finite number > 0")
NON_NEGATIVE = (lambda x, p: _finite(x) and x >= 0, "a finite number >= 0")


@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-mode noise amplitudes sigma_k = amplitude * |k|^(-2s).

    s is the regularity exponent of the reproducing-kernel space of the
    noise; s > 3/4 is required for the infinite-dimensional limit to make
    sense and is enforced unless allow_rough is set (at a finite truncation
    any s is computable, so the override exists for exploration).  delta is
    metadata recording the auxiliary exponent of that limit, constrained to
    delta < 1/2 < s at construction; it plays no computational role here.
    """

    s: float = rule(lambda x, p: _finite(x) and (x > MIN_REGULARITY or p.allow_rough),
                    f"a finite number > {MIN_REGULARITY} (any finite number with "
                    "allow_rough true)", default=1.0)
    amplitude: float = rule(*NON_NEGATIVE, default=1.0)
    delta: float = rule(lambda x, p: _finite(x) and 0 < x < 0.5 and x < p.s,
                        "a finite number in (0, 1/2) below s = {p.s!r}", default=0.25)
    allow_rough: bool = rule(lambda x, p: isinstance(x, bool), "true or false",
                             default=False)

    def __post_init__(self):
        check_rules(self, "params.noise.")

    def mode_amplitudes(self, basis: GalerkinBasis) -> np.ndarray:
        """sigma per half-space mode, shape (n_half_modes,)."""
        lam = basis.eigenvalues.astype(np.float64)
        return self.amplitude * lam ** (-self.s)


@dataclass(frozen=True)
class WienerPath:
    """Seeded two-sided increment table on a uniform grid.

    The table holds standard normal draws xi[n, alpha] for grid cells
    [t(n), t(n) + dt_path), one column per real basis coordinate.  It is
    built once, on first access, column by column: column alpha is drawn
    from its own keyed Philox stream, so each draw depends only on (seed,
    alpha, n), whichever thread draws it (see `_fill_rows`).  The
    coordinate order (mode, polarization, cos/sin) is the float64 memory of
    a C-contiguous complex (n_half_modes, 2) coefficient array, so a row is
    a field's coefficients viewed as reals.  `offset`
    implements the time-shift map: draw(n) of a shifted path reads the
    parent table at n + offset, and the valid time window moves accordingly;
    a shifted view shares its parent's table, drawn once by whichever of
    them reads first.
    """

    seed: int
    dt_path: float
    t_origin: float
    steps: int
    spectrum: NoiseSpectrum
    basis: GalerkinBasis
    offset: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.t_origin) and math.isfinite(self.dt_path)):
            raise ValueError("path bounds must be finite")
        if self.dt_path <= 0 or self.steps < 1:
            raise ValueError("need dt_path > 0 and at least one step")
        nbytes = path_table_bytes(self.steps, self.basis.kmax)
        if nbytes > PATH_TABLE_CEILING:
            raise ValueError(
                f"a path table of {self.steps} steps at kmax={self.basis.kmax} needs "
                f"{nbytes / 2**30:.3g} GiB, over the ceiling of {PATH_TABLE_CEILING / 2**30:g} GiB"
            )
        # the table, once drawn; one slot shared with every shifted view
        object.__setattr__(self, "_shared", [None])

    # ---- window bookkeeping -------------------------------------------

    @property
    def n_coordinates(self) -> int:
        return 4 * self.basis.n_half_modes

    @property
    def t_min(self) -> float:
        return self.t_origin + (0 - self.offset) * self.dt_path

    @property
    def t_max(self) -> float:
        return self.t_origin + (self.steps - self.offset) * self.dt_path

    def index_of(self, t: float) -> int:
        """Grid index of time t relative to the (fixed) table origin."""
        n = (t - self.t_origin) / self.dt_path
        n_round = round(n)
        if abs(n - n_round) > 1e-9 * max(1.0, abs(n)):
            raise ValueError(f"time {t} is not on the path grid (dt_path={self.dt_path})")
        return int(n_round)

    def _table_index(self, n: int) -> int:
        j = n + self.offset
        if not 0 <= j < self.steps:
            raise ValueError(
                f"grid index {n} outside the path window [{self.t_min}, {self.t_max}]"
            )
        return j

    # ---- draws ----------------------------------------------------------

    def normals(self, n_start: int, count: int) -> np.ndarray:
        """Standard normal draws for grid cells n_start .. n_start+count-1,
        shape (count, n_coordinates)."""
        j0 = self._table_index(n_start)
        self._table_index(n_start + count - 1)
        return self._full_table()[j0 : j0 + count]

    @property
    def _table(self) -> np.ndarray | None:
        return self._shared[0]

    def _full_table(self) -> np.ndarray:
        """The draws, stored coordinate-major as (n_coordinates, steps) and
        returned as the transposed (steps, n_coordinates) view."""
        if self._table is None:
            table = np.empty((self.n_coordinates, self.steps))
            _fill_rows(table, derive_key(self.seed, "wiener-table"),
                       _fill_threads(self.steps))
            table.setflags(write=False)
            self._shared[0] = table.T
        return self._table

    # ---- manifest -------------------------------------------------------

    def manifest(self) -> dict:
        """Everything needed to regenerate this path exactly on any machine."""
        return {
            "seed": self.seed,
            "dt_path": self.dt_path,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "offset": self.offset,
            "spectrum": asdict(self.spectrum),
            "kmax": self.basis.kmax,
        }


def _fill_threads(row_cells: int) -> int:
    """Threads that draw a table of rows of row_cells cells: one per CPU
    this process may run on, up to FILL_THREADS, for long rows, else one."""
    if row_cells < PARALLEL_ROW_CELLS:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(FILL_THREADS, cpus)


def _fill_rows(table: np.ndarray, key: int, threads: int) -> None:
    """Fill row alpha of `table` with the stream philox(key, alpha).

    Rows go round-robin to `threads` threads, the calling one among them.
    Each thread re-keys its own generator to (key, alpha) with a zero
    counter before each of its rows, so a row's bits do not depend on the
    thread count; the draws run outside the interpreter lock.  The other
    threads are started and joined here, so none outlives the call, and the
    first error of any of them is raised here.
    """
    errors = []

    def fill(first: int) -> None:
        try:
            gen, state = philox(key), philox_state(key)
            bitgen, normal, stream = gen.bit_generator, gen.standard_normal, state["state"]["key"]
            for alpha in range(first, len(table), threads):
                stream[1] = alpha
                bitgen.state = state
                normal(out=table[alpha])
        except Exception as exc:  # a row left undrawn: raised by the caller
            errors.append(exc)

    others = [threading.Thread(target=fill, args=(first,)) for first in range(1, threads)]
    try:
        for t in others:
            t.start()
        fill(0)
    finally:
        for t in others:
            if t.is_alive():
                t.join()
    if errors:
        raise errors[0]


def make_path(
    seed: int,
    dt_path: float,
    t_min: float,
    t_max: float,
    spectrum: NoiseSpectrum,
    basis: GalerkinBasis,
) -> WienerPath:
    """Lazily-materializable increment table covering [t_min, t_max]."""
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or t_min >= t_max:
        raise ValueError("need finite t_min < t_max")
    steps = int(math.ceil(round((t_max - t_min) / dt_path, 9)))
    return WienerPath(seed, dt_path, t_min, steps, spectrum, basis)


def shift_path(path: WienerPath, shift_s: float) -> WienerPath:
    """Time shift: the view reads the parent draws at index n + s/dt_path.

    Only integer multiples of dt_path are accepted; Wiener paths are not
    interpolated.  shift_path(path, 0) is the identity and shifts compose.
    The grid origin stays fixed, so the window moves to
    [t_min - s, t_max - s] while the table start keeps its draws; runs
    anchored at the window start therefore consume identical draws on every
    shifted view.  The view reads the parent's table, not a copy of it.
    """
    m = shift_s / path.dt_path
    m_round = round(m)
    if abs(m - m_round) > 1e-9 * max(1.0, abs(m)):
        raise ValueError("shift must be an integer multiple of dt_path")
    m_round = int(m_round)
    if m_round == 0:
        return path
    view = replace(path, offset=path.offset + m_round)
    object.__setattr__(view, "_shared", path._shared)
    return view


# ---- Ornstein-Uhlenbeck layer ---------------------------------------------


@functools.lru_cache(maxsize=8)
def _ou_rates(spectrum: NoiseSpectrum, chi: float, nu: float, basis: GalerkinBasis):
    """Per-coordinate damping mu = nu*|k|^2 + chi and noise amplitude sigma,
    read-only, in the path table's flat layout, shape (4 * n_half_modes,) each."""
    lam = basis.eigenvalues.astype(np.float64)
    mu, sigma = np.repeat(nu * lam + chi, 4), np.repeat(spectrum.mode_amplitudes(basis), 4)
    mu.flags.writeable = sigma.flags.writeable = False
    return mu, sigma


def stationary_std(spectrum: NoiseSpectrum, chi: float, nu: float, basis: GalerkinBasis):
    """Per-coordinate stationary standard deviation sigma / sqrt(2*mu)."""
    mu, sigma = _ou_rates(spectrum, chi, nu, basis)
    return sigma / np.sqrt(2.0 * mu)


def stationary_mean_H2(spectrum: NoiseSpectrum, chi: float, nu: float, basis: GalerkinBasis) -> float:
    """Closed-form E|z|_H^2 = sum over (modes, polarizations) of
    sigma_k^2 / (2 (nu |k|^2 + chi)); the sum runs over the full lattice.  A
    sum past the float range (nu subnormal, say) reads inf, with no warning."""
    with np.errstate(over="ignore"):
        return float((stationary_std(spectrum, chi, nu, basis) ** 2).sum())


def ou_stationary_sample(
    spectrum: NoiseSpectrum,
    chi: float,
    nu: float,
    basis: GalerkinBasis,
    rng: np.random.Generator,
) -> SpectralField:
    """Draw z from its stationary law (per-mode variance sigma^2/(2*mu))."""
    std = stationary_std(spectrum, chi, nu, basis)
    # + 0.0 turns the -0.0 of a zero amplitude times a negative draw into
    # +0.0, so a zero-noise z is +0.0 in every coordinate and its bytes do
    # not depend on the signs of the draws
    coords = std * rng.standard_normal(std.shape) + 0.0
    return SpectralField(basis, coords.view(np.complex128).reshape(-1, 2))


class OUCursor:
    """Forward-only cursor over the z realization attached to a path, or to
    each of a list of paths that share their grid, window start (t_min) and
    kmax: the one representation of the OU layer.

    With no `start`, each z begins at the window start with the stationary
    draw keyed by its path's seed alone, so shifted views of one path share
    it; combined with the shift-invariant window start this makes the
    realized z a deterministic function of the underlying path.  `start` =
    (time, z coefficients, one for all paths or one per path) begins them
    from a given state instead, such as a checkpoint's.  The state is one
    flat array of the table layout's real coordinates, path after path.
    """

    def __init__(self, paths: WienerPath | list[WienerPath], chi: float, nu: float,
                 start: tuple[float, np.ndarray] | None = None):
        if chi < 0 or nu <= 0:
            raise ValueError("need chi >= 0 and nu > 0")
        lone = isinstance(paths, WienerPath)
        self.paths = [paths] if lone else list(paths)
        self.path = path = self.paths[0]  # the grid every path shares
        for name in ("dt_path", "t_origin", "t_min", "basis.kmax"):
            if len(values := set(map(attrgetter(name), self.paths))) > 1:
                raise ValueError(f"the paths of one cursor must share {name}, not {values}")
        shape = (len(self.paths), path.basis.n_half_modes, 2)
        self._shape = shape[1:] if lone else shape
        if start is None:
            start = (path.t_min, [ou_stationary_sample(p.spectrum, chi, nu, p.basis,
                                                       labeled_generator(p.seed, "ou-init")
                                                       ).coeffs for p in self.paths])
        t0, z0 = start
        z0 = np.array(np.broadcast_to(z0, shape), np.complex128, order="C")
        self._coords = z0.view(np.float64).reshape(-1)
        self._index = path.index_of(t0)
        h, mu = path.dt_path, _ou_rates(path.spectrum, chi, nu, path.basis)[0]
        self._decay = np.tile(np.exp(-mu * h), len(self.paths))
        # a gain per path and coordinate, each path's own spectrum
        sigma = np.stack([_ou_rates(p.spectrum, chi, nu, p.basis)[1] for p in self.paths])
        self._gain = (sigma * np.sqrt(-np.expm1(-2.0 * mu * h) / (2.0 * mu)))[..., None]

    @property
    def time(self) -> float:
        return self.path.t_origin + self._index * self.path.dt_path

    def advance_to(self, t: float) -> np.ndarray:
        """z at time t as a read-only complex view, (n_half_modes, 2) for a
        lone path, else (G, n_half_modes, 2)."""
        n1 = self.path.index_of(t)
        if n1 < self._index:
            raise ValueError("the OU layer cannot run backwards in time")
        if n1 > self._index:
            # gain * draws in the tables' coordinate-major layout, in blocks of
            # TILE_BYTES, then per cell decay * coords + its strided row, each
            # path's two roundings, on a copy: a z returned earlier is a view of
            # the old state.  Zero noise adds +-0.0 to +0.0, so z stays +0.0
            coords, block = self._coords.copy(), max(1, TILE_BYTES // (8 * self._gain.size))
            for n in range(self._index, n1, block):
                cells = min(block, n1 - n)
                steps = np.empty((*self._gain.shape[:2], cells))
                for p, gain, out in zip(self.paths, self._gain, steps):
                    np.multiply(p.normals(n, cells).T, gain, out=out)
                for row in steps.reshape(-1, cells).T:
                    coords *= self._decay
                    coords += row
            self._coords = coords
            self._index = n1
        z = self._coords.view(np.complex128).reshape(self._shape)
        z.setflags(write=False)
        return z


def ou_shift_covariance_pair(
    path: WienerPath, s: float, t: float, chi: float, nu: float
) -> tuple[SpectralField, SpectralField]:
    """(z on the s-shifted path at time t, z on the path at time t+s).

    Both runs are anchored at the same underlying table start and consume
    identical draws, so the two fields agree bit-for-bit.
    """
    lhs = OUCursor(shift_path(path, s), chi, nu).advance_to(t)
    rhs = OUCursor(path, chi, nu).advance_to(t + s)
    return SpectralField(path.basis, lhs), SpectralField(path.basis, rhs)
