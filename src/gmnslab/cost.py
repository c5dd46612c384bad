"""The one resource model: the bytes a run holds and the seconds it takes,
from one table by kmax that `tools/cost_fit.py` measures (1 BLAS thread,
2-core VM, the least of three fits).  A field holds `grids` real M^3 grids
at its peak (M = 4*kmax + 1).  Members march, and fuzz cases run, in tiles
of as many as fit TILE_BYTES, at least one; a work dict whose stack fits it
is kept past its call; the OU cursor draws in blocks of it; the run budget
(`config.run_budget`) counts the same bytes and the table's seconds.
"""

# at kmax 2, 4 contract members (2 fields each) and 9 measure states a tile
TILE_BYTES = 2 * 2**20

# a fuzz case's fields: 5 fields' values (3 of a field's 12 grids), 2 fields
# with their Jacobians and 2 values, 2 fields with their Jacobians
FUZZ_FIELDS = {"cutoff_pairs": 1.25, "trilinear_triples": 2.5, "monotonicity_triples": 2.0}

# by kmax 1-8: grids a field, then microseconds of a field-step, a ledger row,
# a member's path cell, a cutoff pair, a trilinear and a monotonicity triple
TABLE = (
    (50, 15.2, 5.77, 1.21, 22.0, 32.6, 326),
    (39, 67.0, 11.7, 5.48, 82.1, 147, 1380),
    (37, 233, 81.8, 12.4, 295, 513, 3840),
    (36, 533, 128, 21.2, 515, 827, 7170),
    (35, 1090, 182, 56.4, 911, 1420, 12500),
    (35, 1700, 356, 76.9, 1400, 2200, 20200),
    (34, 2860, 739, 112, 2260, 3790, 30400),
    (34, 4360, 988, 146, 3160, 5530, 45700),
)
# and of a march tile's step, a shift pair and an OU sample of c06
CALL_US, SHIFT_PAIR_US, OU_SAMPLE_US = 139, 592, 8.04
OU_MC_FIELDS = 10_000  # c06's Monte Carlo stack of stationary draws


def field_bytes(kmax: int) -> int:
    return TABLE[kmax - 1][0] * 8 * (4 * kmax + 1) ** 3


def seconds(kmax: int) -> dict[str, float]:
    """The seconds at kmax by name: the march's, and check's by option."""
    us = (*TABLE[kmax - 1][1:], CALL_US, SHIFT_PAIR_US, OU_SAMPLE_US)
    return dict(zip(("field", "row", "cell", *FUZZ_FIELDS, "call", "shift_pairs",
                     "ou_samples"), (1e-6 * u for u in us)))
