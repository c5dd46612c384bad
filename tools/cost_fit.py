"""Measure the resource model's table (`gmnslab.cost.TABLE`) and check it.

    python tools/cost_fit.py [--kmax 1-8] [--check-only]

For each kmax it measures, on this machine with 1 BLAS thread:

- grids: the real M^3 grids a field holds at its peak, the most over
  stacks (1, 1), (1, 2), (4, 2) and (1, 8) of one `cutoff_advection_coeffs`
  call on a new work dict, traced with tracemalloc, rounded up;
- field: the slope of the microseconds per step of `solve` without a
  ledger over stacks of 1 to a tile's fields, one path each, less their
  path cells, through the fixed cost of a step, CALL_US: the intercept of
  that line at kmax 1, where the fields weigh least;
- row: the slope of the microseconds a ledger adds per step, at the same
  stacks;
- cell: the microseconds per path and cell of drawing and advancing an OU
  cursor over the paths of a tile;
- the fuzz suites: the microseconds per pair or triple of each suite over
  two tiles' cases, of a shift pair, and of an OU sample of c06 (the
  difference of 40,000 and 20,000 samples).

It prints the table as `cost.py` holds it (`cost.py` keeps the least of
each entry over three runs of this tool, and at kmax 1 the 50 grids of an
earlier trace, above the 48 this one reads), then, for contract, measure and
check at kmax 1-4 (`--kmax` bounds both), the measured seconds of a run
(`cli.run_experiment` in this process, into a temporary directory) over
the seconds `config.run_budget` predicts for it from the table in `cost.py`.
With --check-only it skips the measuring.  A timing is the best of five;
treat it as +-20% on a shared machine.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from gmnslab import cli, config, cost  # noqa: E402
from gmnslab import cutoff as co  # noqa: E402
from gmnslab import experiments as ex  # noqa: E402
from gmnslab import integrate as it  # noqa: E402
from gmnslab import noise as nz  # noqa: E402
from gmnslab import spectral as sp  # noqa: E402


def best(run, repeats: int = 5) -> float:
    """The least wall seconds of `repeats` calls of run()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


def grids(kmax: int) -> int:
    basis = sp.build_basis(kmax)
    rng = np.random.default_rng(0)
    most = 0.0
    for shape in ((1, 1), (1, 2), (4, 2), (1, 8)):
        w = sp.random_coeffs(basis, rng.standard_normal((*shape, 2, basis.n_half_modes, 2)))
        tracemalloc.start()
        co.cutoff_advection_coeffs(basis, w, 1.0, {})
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        most = max(most, peak / (math.prod(shape) * 8 * basis.grid_size**3))
    return math.ceil(most)


def cell_us(kmax: int, groups: int, cells: int = 1024) -> float:
    """Microseconds per path and cell of drawing `groups` paths and advancing
    their cursor 64 cells a call, as a march of 64 path cells a step does."""
    basis = sp.build_basis(kmax)
    spectrum = nz.NoiseSpectrum()

    def run():
        paths = [nz.make_path(g, 1.0, 0.0, cells, spectrum, basis) for g in range(groups)]
        cursor = nz.OUCursor(paths, 0.0, 1.0)
        for n in range(64, cells + 1, 64):
            cursor.advance_to(float(n))

    return 1e6 * best(run) / (groups * cells)


def step_us(kmax: int, fields: int, ledger: bool, steps: int) -> float:
    """Microseconds per step of a solve of `fields` groups of one field,
    their work dict held across the solves as a march holds it."""
    basis = sp.build_basis(kmax)
    held = sp.stack_work("drift", basis, (fields, 1))
    p = it.SimParams(nu=4.0, level=1.0, dt=1 / 256, t_final=steps / 256, kmax=kmax)
    rng = np.random.default_rng(1)
    x = sp.random_coeffs(basis, rng.standard_normal((fields, 1, 2, basis.n_half_modes, 2)))
    paths = [nz.make_path(m, p.dt_path, 0.0, p.t_final, p.noise, basis) for m in range(fields)]
    for path in paths:
        path.normals(0, 1)  # drawn outside the timing, which `cell` covers
    seconds = best(lambda: it.solve(x, paths, p, ledger=ledger))
    del held
    return 1e6 * seconds / steps


def measure_row(kmax: int, call: float | None = None) -> tuple:
    """The table's row at kmax; with no `call`, CALL_US first, fitted here."""
    basis = sp.build_basis(kmax)
    tile = ex.member_tile(basis, 1.0)
    sizes = np.array(sorted({1, 2, 4, max(2, tile // 2), max(2, tile)}))
    steps = max(16, 256 // 4 ** (kmax - 1))
    cell = cell_us(kmax, max(1, tile))
    plain = np.array([step_us(kmax, n, False, steps) - n * cell for n in sizes])
    kept = np.array([step_us(kmax, n, True, steps) - n * cell for n in sizes])
    if call is None:
        return np.polyfit(sizes, plain, 1)[1]
    # least-squares slopes through (0, call) and through the origin
    field = sizes @ (plain - call) / (sizes @ sizes)
    row = sizes @ (kept - plain) / (sizes @ sizes)
    fuzz = []
    for name, suite in (("cutoff_pairs", ex.check_cutoff_lemma),
                        ("trilinear_triples", ex.check_trilinear),
                        ("monotonicity_triples", ex.check_monotonicity)):
        # two tiles of cases, a monotonicity triple nine of them
        n = 2 * ex.member_tile(basis, cost.FUZZ_FIELDS[name])
        n = max(1, -(-n // 9)) if name == "monotonicity_triples" else n
        fuzz.append(1e6 * best(lambda: suite(kmax, n, 5)) / n)
    return (grids(kmax), field, row, cell, *fuzz)


def predicted_and_measured(raw: dict) -> tuple[float, float, int]:
    cfg = config.resolve_config(raw)
    predicted = config.run_budget(cfg)[-1][2]
    with tempfile.TemporaryDirectory() as tmp:
        cfg.out = tmp
        t0 = time.perf_counter()
        with open(os.devnull, "w") as null:
            stdout, stderr, sys.stdout, sys.stderr = sys.stdout, sys.stderr, null, null
            try:
                code = cli.run_experiment(cfg)
            finally:
                sys.stdout, sys.stderr = stdout, stderr
        return predicted, time.perf_counter() - t0, code


def check_configs(kmax: int) -> list[tuple[str, dict]]:
    """A contract of the default 64 members, a measure of the default two
    states over a horizon long enough for its autocorrelation check (which
    would stop the march early) and a check of a tenth of the default
    counts, each about a second or more at its kmax."""
    steps = max(8, 256 // 4 ** (kmax - 1))
    params = {"kmax": kmax, "dt": 1 / 256, "t_final": steps / 256}
    return [
        ("contract", {"experiment": "contract", "assertion_mode": "exploratory",
                      "params": params}),
        ("measure", {"experiment": "measure", "assertion_mode": "exploratory",
                     "params": params, "options": {"burn_in": 0.0, "horizon": 8.0}}),
        ("check", {"experiment": "check", "assertion_mode": "exploratory",
                   "params": {"kmax": kmax},
                   "options": {"cutoff_pairs": 1000, "trilinear_triples": 100,
                               "monotonicity_triples": 100, "shift_pairs": 10,
                               "ou_samples": 10_000}}),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kmax", type=int, default=8, help="the largest kmax (default 8)")
    parser.add_argument("--check-only", action="store_true",
                        help="only compare runs with the table in cost.py")
    args = parser.parse_args()
    if not args.check_only:
        call = measure_row(1)
        print("TABLE = (")
        for kmax in range(1, args.kmax + 1):
            g, *us = measure_row(kmax, call)
            print(f"    ({g}, " + ", ".join(f"{u:.3g}" for u in us) + "),", flush=True)
        print(f")\nCALL_US = {call:.3g}")
        shift = 1e6 * best(lambda: ex.check_shift_covariance(n_pairs=50)) / 50
        sample = 1e6 * (best(lambda: ex.check_ou_stationarity(n_samples=40_000))
                        - best(lambda: ex.check_ou_stationarity(n_samples=20_000))) / 20_000
        print(f"SHIFT_PAIR_US = {shift:.3g}\nOU_SAMPLE_US = {sample:.3g}")
    print("\nmeasured / predicted seconds (cost.py's table)")
    for kmax in range(1, min(4, args.kmax) + 1):
        for name, raw in check_configs(kmax):
            predicted, measured, code = predicted_and_measured(raw)
            print(f"  kmax {kmax} {name:9s} {measured:7.2f} s / {predicted:7.2f} s = "
                  f"{measured / predicted:.2f}  (exit {code})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
