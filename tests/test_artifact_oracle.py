import base64
import importlib.util
import json
import os

import numpy as np
import pytest

from gmnslab import spectral as sp
from gmnslab.config import resolve_config

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifact_oracle.py")
_spec = importlib.util.spec_from_file_location("artifact_oracle", _PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def _write_csv(path, columns):
    names = list(columns)
    rows = zip(*columns.values())
    path.write_text(",".join(names) + "\n"
                    + "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows))


class TestDivergences:
    def test_classified_by_absolute_change(self, tmp_path):
        # a tolerance minus a rounding residual (the trilinear report's
        # margin) moves by a large fraction of a tiny value; a value of size
        # 1 that moves by 1e-6 is a real change
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        _write_csv(ref, {"margin": [7.6e-12, 5.0e-12], "value": [1.0, 0.5],
                         "same": [3.0, 4.0]})
        _write_csv(new, {"margin": [7.6e-12 - 3.5e-18, 5.0e-12],
                         "value": [1.0 + 1e-6, 0.5], "same": [3.0, 4.0]})
        moved = {name: (rel, diff, rounding)
                 for name, rel, diff, rounding in oracle.divergences(str(ref), str(new))}
        assert set(moved) == {"margin", "value"}
        rel, diff, rounding = moved["margin"]
        assert rounding and diff == pytest.approx(3.5e-18, rel=1e-3)
        assert rel == pytest.approx(3.5e-18 / 7.6e-12, rel=1e-3)
        rel, diff, rounding = moved["value"]
        assert not rounding and diff == pytest.approx(1e-6, rel=1e-6)
        # each moved column prints its relative and absolute change
        text = oracle._describe(oracle.divergences(str(ref), str(new)))
        assert text.startswith("moved: 'value' 1e-06 (abs 1e-06)")
        assert "rounding-level (abs < 1e-12): 'margin' 4.61e-07 (abs 3.5e-18)" in text

    def test_checkpoint_fields_are_columns(self, tmp_path):
        # a checkpoint's v and z are base64 field payloads: a coefficient of v
        # that moved by one ulp shows as v's column at rounding level, where
        # the bytes alone would read as non-numeric content
        basis = sp.build_basis(1)
        v = sp.random_field(basis, np.random.default_rng(3)).coeffs.copy()
        z = sp.random_field(basis, np.random.default_rng(4))
        paths = []
        for name, re in (("ref", 0.5), ("new", 0.5 + 2**-53)):
            v[5, 1] = complex(re, 0.25)
            text = {"format": 1, "params": {"level": "inf", "forcing": None},
                    "time": 0.5, **{key: base64.b64encode(sp.field_to_bytes(f)).decode()
                                    for key, f in (("v", sp.SpectralField(basis, v.copy())),
                                                   ("z", z))}}
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(text))
        moved = oracle.divergences(*map(str, paths))
        assert [(name, diff, rounding) for name, _, diff, rounding in moved] == [
            ("v", 2**-53, True)]
        assert oracle._describe(moved).startswith("rounding-level (abs < 1e-12): 'v'")
        values = oracle._field_values(json.loads(paths[1].read_text())["v"])
        assert values == v.view(np.float64).ravel().tolist()
        for text in ("inf", "simulate", "@@@", base64.b64encode(b"\x01" * 9).decode()):
            assert oracle._field_values(text) is None


def test_every_config_is_accepted():
    # a tighter config rule must not retire an oracle config: each passes
    # resolve_config as the oracle writes it
    for name, raw in oracle.CONFIGS:
        cfg = resolve_config(json.loads(json.dumps(dict(raw, assertion_mode="exploratory"))))
        assert cfg.experiment == raw["experiment"], name
