"""Mutation check: does tier-1 fail when a claim's bound is loosened?

Holds a fixed list of mutants, each a (claim, file, old text, new text) that
loosens one bound or swaps one column of the laboratory.  Copies the working
tree's `src/`, `tests/`, `tools/` and `pyproject.toml` into a temporary
directory, then for each mutant in turn replaces its old text by its new
text there, runs tier-1 (`pytest -x -q`) on the copy, prints killed (with
the first failing test id) or survived, and puts the old text back.  A
survivor is a bound that no test can see.

    python tools/mutants.py

Exits 1, before any run, if a mutant's old text does not occur exactly once
in its file (the list is stale), else 0 whatever survives.  Nothing in the
working tree is written.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (claim, file, old text, new text)
MUTANTS = [
    ("a priori bound: the density integral doubled", "src/gmnslab/integrate.py",
     "rhs = ledger.v_H2[0] + _cumtrapz(",
     "rhs = ledger.v_H2[0] + 2.0 * _cumtrapz("),
    ("dissipation density: (2/nu) N^2 |z|_L4^2 as (4/nu)", "src/gmnslab/integrate.py",
     "(2.0 / nu) * lvl2 * ledger.z_L4**2",
     "(4.0 / nu) * lvl2 * ledger.z_L4**2"),
    ("energy ledger: |u|_V^2 taken from v", "src/gmnslab/integrate.py",
     'led["u_V2"][rows] = v2_coeffs(basis, v), v2_coeffs(basis, u)',
     'led["u_V2"][rows] = v2_coeffs(basis, v), v2_coeffs(basis, v)'),
    ("NSE limit: the i_n bound (K_T/N^2)^(4/3) doubled", "src/gmnslab/experiments.py",
     "bounds.append((k_t / level**2) ** (4.0 / 3.0))",
     "bounds.append(2.0 * (k_t / level**2) ** (4.0 / 3.0))"),
    ("contraction: the envelope band 3 se as 30 se", "src/gmnslab/experiments.py",
     "envelope * (1.0 + 1e-12) + 3.0 * stderr",
     "envelope * (1.0 + 1e-12) + 30.0 * stderr"),
    ("contraction: the slope allowance 5% of the rate as 50%",
     "src/gmnslab/experiments.py",
     "max(3.0 * slope_se, 0.05 * abs(rate))",
     "max(3.0 * slope_se, 0.5 * abs(rate))"),
    ("invariant measure: the mixing band x10", "src/gmnslab/experiments.py",
     "if gap > sigma_band * comb:",
     "if gap > 10.0 * sigma_band * comb:"),
    ("pullback absorption: kappa12 doubled", "src/gmnslab/experiments.py",
     "kappa12 = math.sqrt(led.z_H2[-1])",
     "kappa12 = 2.0 * math.sqrt(led.z_H2[-1])"),
    ("OU stationarity: the variance band 5 se as 50 se", "src/gmnslab/experiments.py",
     "ok_var = abs(var_emp - var_true) <= 5.0 * se",
     "ok_var = abs(var_emp - var_true) <= 50.0 * se"),
    ("monotonicity: the gap tolerance 1e-10 as 1e-6", "src/gmnslab/cutoff.py",
     "return 1e-10 * (1.0 + nv1**2 + nv2**2)",
     "return 1e-6 * (1.0 + nv1**2 + nv2**2)"),
    ("params: SimParams' dt > 0 as dt >= 0", "src/gmnslab/integrate.py",
     "dt: float = rule(*POSITIVE, default=1.0 / 256)",
     "dt: float = rule(lambda x, p: _finite(x) and x >= 0, POSITIVE[1], default=1.0 / 256)"),
    ("params: NoiseSpectrum's delta bound 1/2 as 1", "src/gmnslab/noise.py",
     "_finite(x) and 0 < x < 0.5 and x < p.s",
     "_finite(x) and 0 < x < 1.0 and x < p.s"),
    ("options: pullback_times off the dt grid accepted", "src/gmnslab/config.py",
     "and all(math.isfinite(t / p.params.dt)",
     "and all(True or math.isfinite(t / p.params.dt)"),
    ("options: measure's horizon of 20 steps as 1", "src/gmnslab/config.py",
     "x >= MEASURE_BATCHES * p.params.dt",
     "x >= 1 * p.params.dt"),
    ("options: nse-limit's zero initial field accepted without forcing",
     "src/gmnslab/config.py",
     's.get("kind") != "zero" or p.params.forcing is not None',
     'True or p.params.forcing is not None'),
]

COPIED = ("src", "tests", "tools", "pyproject.toml")


def stale(root: str) -> list[str]:
    """The claims whose old text does not occur exactly once in its file."""
    out = []
    for claim, rel, old, _ in MUTANTS:
        with open(os.path.join(root, rel)) as fh:
            count = fh.read().count(old)
        if count != 1:
            out.append(f"{claim}: old text occurs {count} times in {rel}")
    return out


def run_tier1(root: str) -> tuple[bool, str | None]:
    """(passed, first failing test id) of tier-1 on the copy at root."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 0, failed.group(1) if failed else None


def main() -> int:
    problems = stale(REPO)
    if problems:
        print("stale mutant list:\n  " + "\n  ".join(problems))
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(REPO, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        for claim, rel, old, new in MUTANTS:
            path = os.path.join(tmp, rel)
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            try:
                passed, first = run_tier1(tmp)
            finally:
                with open(path, "w") as fh:
                    fh.write(text)
            survived += passed
            print(f"{'survived' if passed else 'killed  '}  {claim}"
                  + ("" if passed else f"  ({first or 'no test id'})"), flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
