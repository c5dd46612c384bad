"""Refactor oracle: do small runs reproduce a reference revision's bytes?

Exports a reference revision of this repository with `git archive` into a
temporary directory, runs a fixed list of small configurations there, then
re-runs the same configurations from the working tree into the same output
directories.  Each re-run checks its artifacts against the run registry, so a
re-run that exits 7 (registry divergence) produced different bytes.  Prints
each re-run's exit code and the registry's list of changed artifacts, and
exits 1 if any re-run exits 7.  For each changed CSV or JSON artifact it also
prints how far the numbers moved: every numeric CSV column or JSON leaf (a
list of numbers counts as one column, and so do the coefficients of a base64
field payload, such as a checkpoint's v and z) that moved, with its relative
change, max |ref - new| over the column's largest |ref|, and its absolute
change, max |ref - new|, side by side, the largest relative change first.  A column
whose absolute change is below ROUNDING_FLOOR moved at rounding level,
whatever its relative change says: a column that holds rounding error by
construction (an identity that is zero in exact arithmetic), or a tolerance
minus such an error, can move by a large fraction of itself.  Such columns
are listed apart as rounding-level.

    python tools/artifact_oracle.py [--rev HEAD~1]

Nothing is written to `.git` and nothing is fetched.
"""

from __future__ import annotations

import argparse
import ast
import base64
import csv
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXIT_DIVERGENCE = 7

# A column that moves by less than this moved at rounding level: the
# trilinear fuzz report's lhs is a rounding residual (<= 4.6e-18), its margin
# a 7.6e-12 tolerance minus that residual, while the quantities these
# artifacts measure are many orders of magnitude larger than this floor.
ROUNDING_FLOOR = 1e-12

_SMALL = {"kmax": 1, "dt": 1 / 32, "t_final": 0.5}

# The spectral field format: a "<BII" header (format 1, kmax, coefficient
# count), then the coefficients as little-endian complex128 (re, im) pairs.
# Spelled out here, so it does not depend on the tree under test.
_FIELD_HEADER = struct.Struct("<BII")

# A kmax-1 forcing in that format: 13 x 2 coefficients.
_FORCING = base64.b64encode(_FIELD_HEADER.pack(1, 1, 26) + struct.pack(
    "<52d", *(0.25 * math.sin(1.0 + 0.7 * i) for i in range(52)))).decode()

# (name, config); every run is exploratory, so a small ensemble is legal and
# an assertion outcome never decides the exit code
CONFIGS = [
    ("simulate", {"experiment": "simulate", "seed": 11,
                  "params": {"kmax": 2, "dt": 1 / 64, "t_final": 0.5,
                             "noise": {"amplitude": 0.5}}}),
    # 32 path cells per step: rows of 3,072 cells, which the table fill
    # draws on every core, and 96 steps, two ledger blocks of 44 (one field
    # at kmax 2) and a partial one
    ("simulate-substeps", {"experiment": "simulate", "seed": 19,
                           "params": {"kmax": 2, "dt": 1 / 64, "dt_path": 1 / 2048,
                                      "t_final": 1.5, "noise": {"amplitude": 0.5}}}),
    # 88 steps' rows at kmax 2: the ledger ends on a whole second block of 44
    ("simulate-whole-blocks", {"experiment": "simulate", "seed": 26,
                               "params": {"kmax": 2, "dt": 1 / 64, "t_final": 87 / 64,
                                          "noise": {"amplitude": 0.5}}}),
    ("simulate-forcing", {"experiment": "simulate", "seed": 22,
                          "params": dict(_SMALL, forcing=_FORCING,
                                         noise={"amplitude": 0.5})}),
    ("simulate-zero-noise", {"experiment": "simulate", "seed": 12,
                             "params": {"kmax": 2, "dt": 1 / 64, "t_final": 0.5,
                                        "noise": {"amplitude": 0.0}}}),
    ("contract", {"experiment": "contract", "seed": 13, "ensemble": 4,
                  "params": dict(_SMALL, nu=4.0, noise={"amplitude": 0.5})}),
    # kmax 2 marches contraction members in tiles of 4, so 7 members leave a
    # partial last tile; x1's cutoff factor is below 1 on 12 of its 17 steps
    ("contract-tiles", {"experiment": "contract", "seed": 18, "ensemble": 7,
                        "params": {"kmax": 2, "dt": 1 / 32, "t_final": 0.5, "nu": 4.0,
                                   "level": 0.3, "noise": {"amplitude": 0.5}},
                        "options": {"x1": {"norm": 3.0}}}),
    # a stride that does not divide the 16 steps: records 0, 3, ..., 15 and
    # the final step 16
    ("contract-stride", {"experiment": "contract", "seed": 25, "ensemble": 4,
                         "params": dict(_SMALL, nu=4.0, noise={"amplitude": 0.5}),
                         "options": {"record_every": 3}}),
    ("nse-limit", {"experiment": "nse-limit", "seed": 14,
                   "params": dict(_SMALL, dt=1 / 64)}),
    # the levels march as one (1, 4) stack at kmax 2, where stacking pays;
    # F < 1 at the two smaller levels, and F = 1 (runs exact) at the others
    ("nse-limit-stack", {"experiment": "nse-limit", "seed": 21,
                         "params": {"kmax": 2, "dt": 1 / 64, "t_final": 0.5},
                         "options": {"multipliers": [0.1, 0.3, 1.0, 3.0]}}),
    ("pullback", {"experiment": "pullback", "seed": 15,
                  "params": dict(_SMALL, noise={"amplitude": 0.5}),
                  "options": {"pullback_times": [1.0, 2.0, 4.0]}}),
    # zero noise outside simulate-zero-noise and nse-limit: the cursor draws
    # a two-sided path from negative start times, and z must stay +0.0
    ("pullback-zero-noise", {"experiment": "pullback", "seed": 24,
                             "params": dict(_SMALL, noise={"amplitude": 0.0}),
                             "options": {"pullback_times": [0.5, 1.0, 2.0]}}),
    ("measure", {"experiment": "measure", "seed": 16,
                 "params": dict(_SMALL, nu=4.0, noise={"amplitude": 0.5}),
                 "options": {"burn_in": 0.5, "horizon": 20.0}}),
    # three initial states march as one stacked solve of three groups
    ("measure-three", {"experiment": "measure", "seed": 20,
                       "params": dict(_SMALL, nu=4.0, noise={"amplitude": 0.5}),
                       "options": {"burn_in": 0.5, "horizon": 20.0,
                                   "initial_set": {"zero": {"kind": "zero"},
                                                   "big": {"norm": 10.0},
                                                   "mid": {"norm": 3.0}}}}),
    ("check", {"experiment": "check", "seed": 17, "params": {"kmax": 1},
               "options": {"cutoff_pairs": 200, "trilinear_triples": 40,
                           "monotonicity_triples": 10, "ou_samples": 5000,
                           "shift_pairs": 10}}),
    # kmax 2 fuzzes in tiles of at most 7 pairs, 3 triples and 4 monotonicity
    # cases: 37 pairs, 7 triples and 5 x 9 cases each span several tiles of
    # two sizes
    ("check-tiles", {"experiment": "check", "seed": 23, "params": {"kmax": 2},
                     "options": {"cutoff_pairs": 37, "trilinear_triples": 7,
                                 "monotonicity_triples": 5, "ou_samples": 2000,
                                 "shift_pairs": 5}}),
]


def export(rev: str, dest: str) -> None:
    """Unpack the tree of `rev` into dest (git archive, read-only on .git)."""
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run(src: str, command: str, config: str, out: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "gmnslab.cli", command, "--config", config,
         "--out", out],
        env=env, capture_output=True, text=True)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _csv_columns(path: str) -> dict[str, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    columns = {}
    for i, name in enumerate(rows[0] if rows else []):
        try:
            columns[name] = [float(row[i]) for row in rows[1:]]
        except ValueError:
            continue
    return columns


def _field_values(text: str) -> list[float] | None:
    """The (re, im) floats of a base64 field payload in the spectral field
    format (a checkpoint's v and z), or None if text is not one."""
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:
        return None
    if len(data) < _FIELD_HEADER.size:
        return None
    version, _, count = _FIELD_HEADER.unpack_from(data)
    if version != 1 or len(data) != _FIELD_HEADER.size + 16 * count:
        return None
    return list(struct.unpack_from(f"<{2 * count}d", data, _FIELD_HEADER.size))


def _json_columns(node, where: str = "", columns: dict | None = None) -> dict[str, list]:
    columns = {} if columns is None else columns
    values = _field_values(node) if isinstance(node, str) else None
    if values is not None:
        columns[where] = values
    elif _is_number(node):
        columns[where] = [float(node)]
    elif isinstance(node, list) and node and all(_is_number(x) for x in node):
        columns[where] = [float(x) for x in node]
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            _json_columns(child, f"{where}.{key}" if where else str(key), columns)
    return columns


def _columns(path: str) -> dict[str, list]:
    if path.endswith(".csv"):
        return _csv_columns(path)
    with open(path) as fh:
        return _json_columns(json.load(fh))


def divergences(ref_path: str, new_path: str) -> list[tuple[str, float, float, bool]]:
    """(name, max |ref - new| over the column's largest |ref|, max |ref - new|,
    rounding-level) for each numeric column (CSV) or leaf (JSON) of an
    artifact whose values moved; the relative change is inf where a column
    appeared, vanished, changed length or moved off an all-zero reference."""
    ref, new = _columns(ref_path), _columns(new_path)
    moved = []
    for name in sorted(set(ref) | set(new)):
        r, n = ref.get(name), new.get(name)
        if r is None or n is None or len(r) != len(n):
            moved.append((name, math.inf, math.inf, False))
            continue
        diff = max((abs(a - b) for a, b in zip(r, n)), default=0.0)
        scale = max((abs(a) for a in r), default=0.0)
        if diff:
            rel = diff / scale if scale else math.inf
            moved.append((name, rel, diff, diff < ROUNDING_FLOOR))
    return moved


def _describe(moved: list[tuple[str, float, float, bool]]) -> str:
    if not moved:
        return "numbers equal, non-numeric content differs"
    parts = []
    for rounding, label in ((False, "moved"),
                            (True, f"rounding-level (abs < {ROUNDING_FLOOR:g})")):
        columns = sorted((m for m in moved if m[3] == rounding), key=lambda m: -m[1])
        if columns:
            parts.append(f"{label}: " + ", ".join(
                f"'{name}' {rel:.3g} (abs {diff:.3g})" for name, rel, diff, _ in columns))
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="reference revision to export (default: HEAD)")
    args = parser.parse_args(argv)

    diverged = []
    with tempfile.TemporaryDirectory(prefix="artifact-oracle-") as tmp:
        ref = os.path.join(tmp, "ref")
        export(args.rev, ref)
        print(f"reference {args.rev} exported; working tree {REPO}")
        for name, raw in CONFIGS:
            config = os.path.join(tmp, f"{name}.json")
            with open(config, "w") as fh:
                json.dump(dict(raw, assertion_mode="exploratory"), fh)
            out = os.path.join(tmp, "out", name)
            first = run(os.path.join(ref, "src"), raw["experiment"], config, out)
            ref_out = os.path.join(tmp, "ref-out", name)
            if os.path.isdir(out):
                shutil.copytree(out, ref_out)
            again = run(os.path.join(REPO, "src"), raw["experiment"], config, out)
            changed = re.search(r"changed: (\[.*\])", again.stderr)
            print(f"{name:21s} reference exit {first.returncode}, "
                  f"re-run exit {again.returncode}"
                  + (f", changed: {changed.group(1)}" if changed else ""))
            for artifact in ast.literal_eval(changed.group(1)) if changed else []:
                if artifact.endswith((".csv", ".json")):
                    moved = divergences(os.path.join(ref_out, artifact),
                                        os.path.join(out, artifact))
                    print(f"{'':21s}   {artifact}: " + _describe(moved))
            for proc in (first, again):
                if proc.returncode not in (0, EXIT_DIVERGENCE):
                    print(proc.stderr.strip(), file=sys.stderr)
            if again.returncode == EXIT_DIVERGENCE:
                diverged.append(name)
    print(f"diverged: {diverged}" if diverged else "all re-runs byte-identical")
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
