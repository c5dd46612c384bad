import base64
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gmnslab
from gmnslab import cli
from gmnslab import spectral as sp
from gmnslab.config import (_OPTIONS, EXPERIMENTS, WORK_CEILING, ConfigError,
                            contract_work, read_config, resolve_config)
from gmnslab.registry import DivergenceError, load_records, register_run
from gmnslab.seeding import labeled_generator


SMALL_SIM = {
    "experiment": "simulate",
    "seed": 7,
    "params": {"nu": 1.0, "level": 1.0, "chi": 0.5, "dt": 1 / 32, "t_final": 0.5,
               "kmax": 1, "noise": {"s": 1.0, "amplitude": 0.5}},
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = resolve_config(read_config(write_config(tmp_path, {"experiment": "simulate"})))
        assert cfg.params.kmax == 2
        assert cfg.params.dt == 1 / 256
        assert cfg.params.chi == 0.0
        assert cfg.params.noise.s == 1.0
        assert cfg.assertion_mode == "strict"

    def test_step_division_rejected_naming_both(self, tmp_path):
        raw = {"experiment": "simulate",
               "params": {"dt": 1 / 256, "dt_path": 1 / 100}}
        with pytest.raises(ConfigError) as err:
            resolve_config(read_config(write_config(tmp_path, raw)))
        assert "dt" in str(err.value) and "dt_path" in str(err.value)

    def test_rough_spectrum_rejected_without_override(self, tmp_path):
        raw = {"experiment": "simulate", "params": {"noise": {"s": 0.5}}}
        with pytest.raises(ConfigError) as err:
            resolve_config(read_config(write_config(tmp_path, raw)))
        assert "0.75" in str(err.value)
        raw["params"]["noise"]["allow_rough"] = True
        cfg = resolve_config(read_config(write_config(tmp_path, raw, "b.json")))
        assert cfg.params.noise.s == 0.5

    def test_threshold_demanded_by_experiment(self, tmp_path):
        raw = {"experiment": "measure", "params": {"nu": 1.0}}
        with pytest.raises(ConfigError) as err:
            resolve_config(read_config(write_config(tmp_path, raw)))
        assert "threshold" in str(err.value)
        raw["assertion_mode"] = "exploratory"
        resolve_config(read_config(write_config(tmp_path, raw, "c.json")))

    def test_unknown_fields_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config(read_config(write_config(
                tmp_path, {"experiment": "check", "bogus": 1})))
        with pytest.raises(ConfigError):
            resolve_config(read_config(write_config(
                tmp_path, {"experiment": "check", "params": {"zeta": 2}}, "d.json")))

    def test_non_finite_params_rejected(self):
        for key in ("nu", "level", "chi"):
            with pytest.raises(ConfigError, match=key):
                resolve_config({"experiment": "simulate", "params": {key: math.nan}})

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config(read_config(str(tmp_path / "nope.json")))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            resolve_config(read_config(str(bad)))

    def test_round_trip_lossless(self):
        cfg = resolve_config({"experiment": "simulate"})
        again = resolve_config(json.loads(json.dumps(cfg.to_dict())))
        assert again.canonical_json() == cfg.canonical_json()

    def test_overridden_config_round_trips(self, tmp_path):
        # --exploratory makes a strict below-threshold contract valid: the
        # overrides are set on the file's fields before they are checked,
        # and the config.json of the run re-parses to the config it ran
        raw = {"experiment": "contract", "seed": 3, "ensemble": 4,
               "params": {"nu": 1.0, "dt": 1 / 32, "t_final": 0.25, "kmax": 1}}
        cfg_file = write_config(tmp_path, raw)
        out = tmp_path / "o"
        assert cli.main(["contract", "--config", cfg_file, "--seed", "5",
                         "--exploratory", "--out", str(out)]) == 0
        ran = resolve_config({**raw, "seed": 5, "assertion_mode": "exploratory"})
        assert resolve_config(read_config(str(out / "config.json"))).canonical_json() == \
            ran.canonical_json()


class TestRunDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg_file = write_config(tmp_path, SMALL_SIM)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.main(["simulate", "--config", cfg_file, "--out", out_a]) == 0
        assert cli.main(["simulate", "--config", cfg_file, "--out", out_b]) == 0
        for name in ("config.json", "summary.json", "trajectory.csv",
                     "path_manifest.json", "checkpoint.json"):
            with open(os.path.join(out_a, name), "rb") as fa, \
                 open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_contract_artifacts_independent_of_blas_threads(self, tmp_path):
        # kmax 2 marches contraction members in tiles of 4, so 7 members
        # leave a partial last tile; OpenBLAS takes its thread count when
        # numpy loads, so each setting runs in its own process
        raw = {"experiment": "contract", "seed": 18, "ensemble": 7,
               "assertion_mode": "exploratory",
               "params": {"kmax": 2, "dt": 1 / 32, "t_final": 0.5, "nu": 4.0,
                          "level": 0.3, "noise": {"amplitude": 0.5}},
               "options": {"x1": {"norm": 3.0}}}
        cfg_file = write_config(tmp_path, raw)
        src = os.path.dirname(os.path.dirname(os.path.abspath(gmnslab.__file__)))
        artifacts = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "gmnslab.cli", "contract",
                            "--config", cfg_file, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            artifacts[threads] = {name: (out / name).read_bytes() for name in
                                  ("config.json", "contraction.csv", "summary.json")}
        assert artifacts["1"] == artifacts["2"]

    def test_seed_changes_outputs(self, tmp_path):
        cfg_file = write_config(tmp_path, SMALL_SIM)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        cli.main(["simulate", "--config", cfg_file, "--out", out_a])
        cli.main(["simulate", "--config", cfg_file, "--seed", "8", "--out", out_b])
        with open(os.path.join(out_a, "trajectory.csv"), "rb") as fa, \
             open(os.path.join(out_b, "trajectory.csv"), "rb") as fb:
            assert fa.read() != fb.read()


class TestRegistry:
    def test_rerun_same_dir_consistent(self, tmp_path):
        cfg_file = write_config(tmp_path, SMALL_SIM)
        out = str(tmp_path / "a")
        assert cli.main(["simulate", "--config", cfg_file, "--out", out]) == 0
        assert cli.main(["simulate", "--config", cfg_file, "--out", out]) == 0
        records = load_records(out)
        assert len(records) == 2
        assert records[0].outputs == records[1].outputs

    def test_divergence_detected(self, tmp_path):
        out = str(tmp_path / "a")
        os.makedirs(out)
        artifact = os.path.join(out, "data.csv")
        with open(artifact, "w") as fh:
            fh.write("a,b\n1,2\n")
        register_run(out, "deadbeef", "simulate", [artifact], True)
        with open(artifact, "w") as fh:
            fh.write("a,b\n1,3\n")
        with pytest.raises(DivergenceError):
            register_run(out, "deadbeef", "simulate", [artifact], True)

    def test_cli_reports_divergence_exit_code(self, tmp_path, monkeypatch):
        cfg_file = write_config(tmp_path, SMALL_SIM)
        out = str(tmp_path / "a")
        assert cli.main(["simulate", "--config", cfg_file, "--out", out]) == 0
        # tamper with a registered hash to force a mismatch on re-run
        reg = os.path.join(out, "registry.jsonl")
        record = json.loads(open(reg).read())
        record["outputs"]["trajectory.csv"] = "0" * 64
        with open(reg, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        assert cli.main(["simulate", "--config", cfg_file, "--out", out]) == cli.EXIT_DIVERGENCE


class TestModesAndExitCodes:
    def test_non_finite_summary_is_an_instability(self, tmp_path, monkeypatch, capsys):
        # strict JSON refuses a NaN: the run exits 4, naming the file, and
        # writes no summary and no registry record
        monkeypatch.setattr(cli.it, "apriori_margin", lambda params, ledger: math.nan)
        out = tmp_path / "a"
        argv = ["simulate", "--config", write_config(tmp_path, SMALL_SIM), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_INSTABILITY
        assert "summary.json" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not (out / "registry.jsonl").exists()

    def test_config_error_exit(self, tmp_path, capsys):
        # forcing payloads of a kmax-1 run: one serialized at kmax 2, one with
        # a NaN coefficient (not an instability), and two that do not decode
        small = {"kmax": 1, "dt": 1 / 32, "t_final": 0.25}
        nan = sp.zero_field(sp.build_basis(1)).coeffs.copy()
        nan[3, 1] = math.nan
        payloads = [sp.field_to_bytes(f) for f in (
            sp.random_field(sp.build_basis(2), np.random.default_rng(5)),
            sp.SpectralField(sp.build_basis(1), nan))]
        forcing = [base64.b64encode(b).decode() for b in payloads] + ["@@@", 3]
        # booleans are not integers; json.dumps writes NaN/Infinity literals
        cases = [
            ({"seed": True}, "'seed'"),
            ({"ensemble": True}, "'ensemble'"),
            ({"threads": True}, "'threads'"),
            ({"params": {"kmax": True}}, "'params.kmax'"),
            ({"params": {"nu": math.nan}}, "'params.nu'"),
            ({"params": {"level": math.inf}}, "'params.level'"),
            ({"params": {"noise": {"amplitude": -math.inf}}}, "'params.noise.amplitude'"),
            ({"params": {"level": "abc"}}, "'params.level'"),
            # finite, but eta = 7^7 level^8 / (2^13 nu^7) overflows, and so does
            # the square the dissipation estimates take
            ({"params": {"level": 1e308}}, "'params.level'"),
            # eta as the contraction rate takes it: level^8 overflows, nu^7
            # underflows to 0 or overflows; the cutoff lemma's |u|^4 overflows
            # with level^8
            *(({"experiment": "contract", "assertion_mode": "exploratory", "ensemble": 2,
                "params": dict(small, **kw)}, name)
              for kw, name in (({"level": 1e100}, "'params.level'"),
                               ({"nu": 1e-60}, "'params.nu'"),
                               ({"nu": 1e50}, "'params.nu'"),
                               # eta = 1.22e308 is finite, 2 eta is not
                               ({"nu": 0.1, "level": 2.43e37}, "'params.nu'"))),
            ({"experiment": "check", "params": {"kmax": 1, "level": 1e100}},
             "'params.level'"),
            # E|z|_H^2 of the stationary OU start is about 8e300 at chi 0: |z|^4
            # in its L4 quadrature and the squared instability ceiling overflow
            # (at level inf, which has no eta)
            ({"params": {"kmax": 2, "nu": 1e-300, "chi": 0.0, "level": "inf"}},
             "'params.nu'"),
            # at nu 1 the amplitude alone drives E|z|_H^2 to inf
            ({"params": {"noise": {"amplitude": 1e200}}}, "'params.noise.amplitude'"),
            ({"params": {"instability_factor": 1e200}}, "'params.instability_factor'"),
            # the stepper's trapezoid of chi z needs chi * dt <= 1/4; here it is 1/2
            ({"params": {"chi": 16.0, "dt": 1 / 32}}, "'params.chi'"),
            ({"params": {"nu": "1"}}, "'params.nu'"),
            ({"params": {"dt": "x"}}, "'params.dt'"),
            ({"params": {"dt_path": 0}}, "'params.dt_path'"),
            # dt / dt_path is inf: refused, not an OverflowError
            ({"params": {"dt_path": 1e-320}}, "'params.dt_path'"),
            ({"params": {"dt": 1 / 32, "dt_path": 3 / 128}}, "'params.dt_path'"),
            ({"params": {"dt": -1}}, "'params.dt'"),
            ({"params": {"dt": 0}}, "'params.dt'"),
            ({"params": {"t_final": 0}}, "'params.t_final'"),
            ({"params": {"dt": 1 / 32, "t_final": 1 / 64}}, "'params.t_final'"),
            ({"params": {"noise": {"s": 0.2}}}, "'params.noise.s'"),
            ({"params": {"noise": {"delta": 0.6}}}, "'params.noise.delta'"),
            ({"params": {"noise": {"delta": 0}}}, "'params.noise.delta'"),
            ({"params": {"noise": {"amplitude": -1}}}, "'params.noise.amplitude'"),
            # delta < s binds once allow_rough lets s fall below 1/2
            ({"params": {"noise": {"s": 0.4, "delta": 0.45, "allow_rough": True}}},
             "'params.noise.delta'"),
            ({"params": []}, "'params'"),
            ({"params": {"noise": []}}, "'params.noise'"),
            ({"params": {"lambda_p": -1}}, "'params.lambda_p'"),
            ({"params": {"lambda_p": 2.0}}, "'params.lambda_p'"),
            *(({"params": dict(small, forcing=f)}, "'params.forcing'") for f in forcing),
            # only a JSON boolean overrides the regularity rule
            ({"params": {"noise": {"s": 0.5, "allow_rough": "false"}}},
             "'params.noise.allow_rough'"),
            ({"params": {"noise": {"s": 0.5, "allow_rough": [1]}}},
             "'params.noise.allow_rough'"),
            ({"experiment": "pullback", "options": {"pullback_times": ["1"]}},
             "'options.pullback_times'"),
            ({"experiment": "pullback", "options": {"pullback_times": 4.0}},
             "'options.pullback_times'"),
            ({"experiment": "measure", "options": {"burn_in": True}}, "'options.burn_in'"),
            ({"experiment": "measure", "options": {"horizon": "x"}}, "'options.horizon'"),
            # 8 steps cannot fill the 20 batches of measure's error bars
            ({"experiment": "measure",
              "params": {"nu": 4.0, "dt": 1 / 32, "kmax": 1, "noise": {"amplitude": 0.0}},
              "options": {"burn_in": 0.0, "horizon": 0.25,
                          "initial_set": {"a": {"kind": "zero"}, "b": {"kind": "zero"}}}},
             "'options.horizon'"),
            # burn_in + horizon = 1.3 is no whole number of steps of dt = 1/32
            ({"experiment": "measure", "assertion_mode": "exploratory",
              "params": {"dt": 1 / 32, "kmax": 1},
              "options": {"burn_in": 0.3, "horizon": 1.0}},
             "'options.burn_in' + 'options.horizon'"),
            # the default horizons 5/nu + 200/nu are off the default dt grid at nu = 3
            ({"experiment": "measure", "params": {"nu": 3.0}},
             "'options.burn_in' + 'options.horizon'"),
            # a subnormal dt puts inf steps in a span: refused, not an OverflowError
            ({"params": {"dt": 1e-320}}, "'params.t_final'"),
            ({"experiment": "pullback", "params": {"dt": 1e-320}},
             "'options.pullback_times'"),
            # and the runs over [0, t_final] march t_final in whole steps too
            ({"params": {"dt": 1 / 32, "t_final": 0.3}}, "'params.t_final'"),
            ({"experiment": "nse-limit", "params": {"dt": 1 / 32, "t_final": 0.3}},
             "'params.t_final'"),
            ({"experiment": "contract", "assertion_mode": "exploratory", "ensemble": 2,
              "params": {"dt": 1 / 32, "t_final": 0.3}}, "'params.t_final'"),
            ({"experiment": "pullback", "options": {"pullback_times": [0.3]}},
             "'options.pullback_times'"),
            ({"experiment": "pullback", "options": {"pullback_times": [1.0, 0.3]}},
             "'options.pullback_times'"),
            ({"experiment": "check", "options": {"cutoff_pairs": "x"}},
             "'options.cutoff_pairs'"),
            ({"experiment": "check", "options": {"trilinear_triples": True}},
             "'options.trilinear_triples'"),
            ({"experiment": "check", "options": {"monotonicity_triples": 0}},
             "'options.monotonicity_triples'"),
            ({"experiment": "check", "options": {"shift_pairs": 2.5}},
             "'options.shift_pairs'"),
            ({"experiment": "check", "options": {"ou_samples": 1e9}},
             "'options.ou_samples'"),
            ({"experiment": "check", "options": {"ou_samples": 1}},
             "'options.ou_samples'"),
            ({"experiment": "check", "options": {"ou_chi": -1.0}}, "'options.ou_chi'"),
            ({"experiment": "check", "options": {"ou_chi": "x"}}, "'options.ou_chi'"),
            ({"options": {"record_every": 0}}, "'options.record_every'"),
            ({"options": {"record_every": True}}, "'options.record_every'"),
            ({"experiment": "contract", "options": {"record_every": 0}},
             "'options.record_every'"),
            ({"experiment": "contract", "options": {"record_every": 2.0}},
             "'options.record_every'"),
            ({"experiment": "contract", "assertion_mode": "exploratory", "ensemble": 1},
             "'ensemble'"),
            ({"options": {"initial": {"norm": "x"}}}, "'options.initial'"),
            ({"options": {"initial": {"decay": "x"}}}, "'options.initial'"),
            ({"options": {"initial": {"norm": -1.0}}}, "'options.initial'"),
            ({"options": {"initial": {"norm": 0}}}, "'options.initial'"),
            ({"options": {"initial": {"decay": True}}}, "'options.initial'"),
            ({"options": {"initial": {"kind": "ones"}}}, "'options.initial'"),
            ({"options": {"initial": {"label": 3}}}, "'options.initial'"),
            ({"options": {"initial": {"nrom": 1.0}}}, "'options.initial'"),
            ({"options": {"initial": []}}, "'options.initial'"),
            ({"experiment": "nse-limit", "options": {"initial": {"norm": -2.0}}},
             "'options.initial'"),
            ({"experiment": "nse-limit", "options": {"multipliers": []}},
             "'options.multipliers'"),
            ({"experiment": "nse-limit", "options": {"multipliers": [-1]}},
             "'options.multipliers'"),
            ({"experiment": "nse-limit", "options": {"multipliers": "ab"}},
             "'options.multipliers'"),
            ({"experiment": "nse-limit", "options": {"multipliers": [1.0, True]}},
             "'options.multipliers'"),
            # the sweep compares each level with the next larger one
            ({"experiment": "nse-limit",
              "options": {"multipliers": [8, 4, 2, 1, 0.5, 0.25]}},
             "'options.multipliers'"),
            ({"experiment": "nse-limit", "options": {"multipliers": [1.0, 1.0]}},
             "'options.multipliers'"),
            # and the pullback decay check each time with the next larger one
            ({"experiment": "pullback", "options": {"pullback_times": [0.5, 0.5]}},
             "'options.pullback_times'"),
            ({"experiment": "contract", "options": {"x1": {"norm": "x"}}}, "'options.x1'"),
            ({"experiment": "contract", "options": {"x2": {"kind": None}}}, "'options.x2'"),
            ({"experiment": "pullback", "options": {"families": {}}}, "'options.families'"),
            ({"experiment": "pullback", "options": {"families": {"a": {"norm": "x"}}}},
             "'options.families'"),
            ({"experiment": "pullback", "options": {"family_tol": -1.0}},
             "'options.family_tol'"),
            ({"experiment": "measure", "options": {"initial_set": []}},
             "'options.initial_set'"),
            ({"experiment": "measure",
              "options": {"initial_set": {"z": {"kind": "zero", "x": 1}}}},
             "'options.initial_set'"),
            # the cutoff levels of nse-limit scale with the L4 norm of the
            # unmodified run, which stays 0 from a zero field without forcing
            ({"experiment": "nse-limit", "options": {"initial": {"kind": "zero"}}},
             "'options.initial'"),
            # options the experiment does not read
            ({"options": {"recrd_every": 4}}, "'options.recrd_every'"),
            ({"options": {"multipliers": [1.0]}}, "'options.multipliers'"),
            # the instability ceiling is instability_factor * max(1, |v0|_H)
            ({"params": {"instability_factor": 0}}, "'params.instability_factor'"),
            ({"params": {"instability_factor": -1}}, "'params.instability_factor'"),
            # the command line's overrides (after the config's fields) are
            # config fields and pass the same rules
            ({"experiment": "contract", "assertion_mode": "exploratory",
              "params": {"nu": 1.0}}, "'params.nu'", "--strict"),
            ({"experiment": "contract", "assertion_mode": "exploratory", "ensemble": 4},
             "'ensemble'", "--strict"),
            ({}, "'seed'", "--seed", "-1"),
            ({}, "'seed'", "--seed", str(2**64)),
        ]
        for i, (fields, name, *flags) in enumerate(cases):
            raw = {"experiment": "simulate", **fields}
            bad = write_config(tmp_path, raw, f"b{i}.json")
            argv = [raw["experiment"], "--config", bad, "--out", str(tmp_path / f"o{i}")]
            assert cli.main(argv + flags) == cli.EXIT_CONFIG
            assert name in capsys.readouterr().err

    def test_path_table_ceiling_exit(self, tmp_path, capsys):
        # a 1e9 horizon needs a multi-TiB path table, and this nse-limit a
        # path table just under 1 GiB but about 4 GiB with the ledgers of
        # its eight fields: rejected at config time, before anything is
        # allocated or written
        cases = [(name, {"params": {"t_final": 1e9}}, "'params.t_final'")
                 for name in ("simulate", "contract", "nse-limit")] + [
            ("nse-limit", {"params": {"kmax": 1, "dt": 1 / 64, "t_final": 40_320}},
             "'params.t_final'"),
            ("pullback", {"options": {"pullback_times": [1.0, 1e9]}},
             "'options.pullback_times'"),
            ("measure", {"options": {"horizon": 1e9}}, "'options.horizon'"),
            ("check", {"options": {"ou_samples": 10**9}}, "'options.ou_samples'"),
        ]
        # a simulate run's 0.99 GiB path table and its ledger (136 B a step
        # against the table's 416 at kmax 1) are over the ceiling together;
        # three quarters of the steps fit
        at_ceiling = {"kmax": 1, "dt": 1 / 256, "t_final": 10_000}
        with pytest.raises(ConfigError, match="'params.t_final'"):
            resolve_config({"experiment": "simulate", "params": at_ceiling})
        assert resolve_config({"experiment": "simulate",
                               "params": {**at_ceiling, "t_final": 7_500}})
        for i, (name, fields, field) in enumerate(cases):
            raw = {"experiment": name, "assertion_mode": "exploratory", **fields}
            bad = write_config(tmp_path, raw, f"{name}-{i}.json")
            out = str(tmp_path / f"{name}-{i}")
            assert cli.main([name, "--config", bad, "--out", out]) == cli.EXIT_CONFIG
            assert field in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_contract_work_ceiling_exit(self, tmp_path, capsys):
        # 1e8 members x 256 steps is rejected at config time, before any
        # member is marched; c08's 64 x 1,024 sits well inside the ceiling
        c08 = {"experiment": "contract", "ensemble": 64,
               "params": {"nu": 4.0, "t_final": 4.0, "dt": 1 / 256}}
        assert 16 * contract_work(resolve_config(c08).params, 64) <= WORK_CEILING
        raw = {"experiment": "contract", "ensemble": 100_000_000,
               "assertion_mode": "exploratory"}
        bad = write_config(tmp_path, raw)
        out = str(tmp_path / "run")
        assert cli.main(["contract", "--config", bad, "--out", out]) == cli.EXIT_CONFIG
        assert "field 'ensemble'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_check_work_ceiling_exit(self, tmp_path, capsys):
        # a fuzz count of 1e9 is rejected at config time, before any case
        # runs, naming its field
        for name in ("cutoff_pairs", "trilinear_triples", "monotonicity_triples",
                     "shift_pairs"):
            raw = {"experiment": "check", "options": {name: 10**9}}
            bad = write_config(tmp_path, raw, f"{name}.json")
            out = str(tmp_path / name)
            assert cli.main(["check", "--config", bad, "--out", out]) == cli.EXIT_CONFIG
            assert f"field 'options.{name}'" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_contract_work_weighs_kmax_and_path_cells(self):
        # the same member-steps pass at kmax 2 with one path cell per step,
        # and fail at kmax 8 or with 2^16 path cells per step
        def contract(ensemble, kmax=2, cells=1, t_final=4.0):
            dt = 1 / 256
            return {"experiment": "contract", "ensemble": ensemble,
                    "assertion_mode": "exploratory",
                    "params": {"nu": 4.0, "t_final": t_final, "dt": dt, "kmax": kmax,
                               "dt_path": dt / cells}}

        assert resolve_config(contract(256)).ensemble == 256
        assert resolve_config(contract(2**15, t_final=1 / 256)).ensemble == 2**15
        for raw in (contract(256, kmax=8), contract(2**15, cells=2**16, t_final=1 / 256)):
            with pytest.raises(ConfigError, match="field 'ensemble'"):
                resolve_config(raw)

    def test_command_config_mismatch(self, tmp_path):
        cfg_file = write_config(tmp_path, SMALL_SIM)
        assert cli.main(["check", "--config", cfg_file]) == cli.EXIT_CONFIG

    def test_strict_failure_nonzero_exploratory_zero(self, tmp_path):
        # a contraction run below threshold: exploratory mode must run and
        # exit 0 while reporting the assertion outcome
        raw = {
            "experiment": "contract",
            "seed": 3,
            "ensemble": 4,
            "assertion_mode": "exploratory",
            "params": {"nu": 1.0, "level": 1.0, "dt": 1 / 32, "t_final": 0.25,
                       "kmax": 1, "noise": {"amplitude": 0.2}},
        }
        cfg_file = write_config(tmp_path, raw)
        out = str(tmp_path / "x")
        assert cli.main(["contract", "--config", cfg_file, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert "passed" in summary

    def test_contract_without_slope_fit_fails(self, tmp_path):
        # 16 steps recorded every 32: the second half of the horizon holds one
        # record time, so there is no slope to check and the run must not pass
        raw = {"experiment": "contract", "seed": 3, "ensemble": 32,
               "params": {"t_final": 0.0625}, "options": {"record_every": 32}}
        cfg_file = write_config(tmp_path, raw)
        out = str(tmp_path / "s")
        assert cli.main(["contract", "--config", cfg_file, "--out", out]) == \
            cli.EXIT_ASSERTION

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=reject)
        assert summary["slope_ok"] is False and summary["passed"] is False
        assert summary["slope_se"] is None

    def test_long_horizon_margins_finite(self, tmp_path):
        # nu lambda T = 720 > 709.78, where e^{nu lambda (t - t0)} overflows:
        # the exponentially weighted energy margins stay finite numbers
        params = {"nu": 4.0, "kmax": 1, "dt": 0.25, "t_final": 180.0}
        runs = [("simulate", {"params": params}, "pullback_margin"),
                ("pullback", {"params": params, "options": {"pullback_times": [10.0, 180.0]}},
                 "max_energy_margin")]

        def reject(literal):
            raise ValueError(f"non-standard JSON literal {literal}")

        for name, fields, key in runs:
            raw = {"experiment": name, "assertion_mode": "exploratory", **fields}
            out = str(tmp_path / name)
            assert cli.main([name, "--config", write_config(tmp_path, raw, f"{name}.json"),
                             "--out", out]) == 0
            with open(os.path.join(out, "summary.json")) as fh:
                assert math.isfinite(json.load(fh, parse_constant=reject)[key])

    def test_instability_exit_code(self, tmp_path):
        raw = {
            "experiment": "simulate",
            "params": {"nu": 1e-6, "level": 1e6, "dt": 0.5, "t_final": 128.0,
                       "kmax": 2, "instability_factor": 2.0,
                       "noise": {"amplitude": 30.0}},
            "options": {"initial": {"norm": 30.0}},
        }
        cfg_file = write_config(tmp_path, raw)
        code = cli.main(["simulate", "--config", cfg_file,
                         "--out", str(tmp_path / "y")])
        assert code == cli.EXIT_INSTABILITY

    def test_horizon_exit_code(self, tmp_path):
        raw = {
            "experiment": "measure",
            "seed": 2,
            "params": {"nu": 4.0, "level": 1.0, "dt": 1 / 32, "t_final": 1.0,
                       "kmax": 1, "noise": {"amplitude": 1.0}},
            "options": {"burn_in": 0.5, "horizon": 1.0,
                        "initial_set": {"zero": {"kind": "zero"}}},
        }
        cfg_file = write_config(tmp_path, raw)
        code = cli.main(["measure", "--config", cfg_file,
                         "--out", str(tmp_path / "z")])
        assert code == cli.EXIT_HORIZON


class TestCheckCommand:
    def test_small_check_run(self, tmp_path):
        raw = {
            "experiment": "check",
            "seed": 1,
            "params": {"kmax": 1},
            "options": {"cutoff_pairs": 200, "trilinear_triples": 40,
                        "monotonicity_triples": 10, "ou_samples": 5000,
                        "shift_pairs": 10},
        }
        cfg_file = write_config(tmp_path, raw)
        out = str(tmp_path / "chk")
        assert cli.main(["check", "--config", cfg_file, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["passed"] is True
        assert len(summary["checks"]) == 5
        assert os.path.exists(os.path.join(out, "fuzz_cutoff_lemma.csv"))


class TestExperimentDefaults:
    def test_threshold_experiments_default_above_threshold(self):
        from gmnslab.experiments import stability_threshold

        for name in ("contract", "measure"):
            cfg = resolve_config({"experiment": name})
            assert cfg.params.nu > stability_threshold(cfg.params.level,
                                                       cfg.params.lambda_p)
        assert resolve_config({"experiment": "simulate"}).params.nu == 1.0

    # every option each command reads, with its default at nu = 2, where the
    # relaxation rate nu lambda_p is 2
    DEFAULTS = {
        "check": {"cutoff_pairs": 10_000, "trilinear_triples": 1000,
                  "monotonicity_triples": 1000, "shift_pairs": 100, "ou_samples": 100_000,
                  "ou_chi": 1.0},
        "simulate": {"record_every": 1, "initial": {}},
        "contract": {"record_every": 4, "x1": {"norm": 1.0}, "x2": {"norm": 0.5}},
        "pullback": {"pullback_times": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                     "families": {"small": {"norm": 1.0}, "large": {"norm": 100.0}},
                     "family_tol": 1e-6},
        "nse-limit": {"initial": {"norm": 2.0}, "multipliers": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]},
        "measure": {"burn_in": 2.5, "horizon": 100.0,
                    "initial_set": {"zero": {"kind": "zero"}, "big": {"norm": 10.0}}},
    }

    @pytest.mark.parametrize("name", sorted(DEFAULTS))
    def test_each_command_reads_its_own_defaults(self, name):
        cfg = resolve_config({"experiment": name, "assertion_mode": "exploratory",
                              "params": {"nu": 2.0}})
        assert set(_OPTIONS[name]) == set(self.DEFAULTS[name])
        for option, default in self.DEFAULTS[name].items():
            assert cfg.option(option) == default, option
        # an option of another command is no option of this one
        for option in {o for row in self.DEFAULTS.values() for o in row} - set(_OPTIONS[name]):
            with pytest.raises(KeyError):
                cfg.option(option)

    def test_every_command_has_a_runner(self):
        assert set(cli._RUNNERS) == set(EXPERIMENTS)


class TestInitialField:
    # a spec passes random_field only the keys it sets; the others take
    # random_field's defaults, and its label keys the generator
    @pytest.mark.parametrize("spec, kw", [
        ({}, {}), ({"norm": 3.0}, {"norm": 3.0}),
        ({"kind": "random", "decay": 1.5, "norm": None}, {"decay": 1.5, "norm": None}),
        ({"label": "other", "decay": -1.0}, {"decay": -1.0})])
    def test_spec_keys_are_random_field_arguments(self, basis1, spec, kw):
        got = cli._initial_field(basis1, spec, 5, "ic")
        want = sp.random_field(basis1, labeled_generator(5, spec.get("label", "ic")), **kw)
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_zero_kind_is_the_zero_field(self, basis1):
        got = cli._initial_field(basis1, {"kind": "zero", "norm": 3.0}, 5, "ic")
        assert not got.coeffs.any()


class TestFuzzReport:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "fuzz.csv"
        cli._write_csv(path, {"case": [0, 1], "seed": [42, 42], "lhs": [1.0, 0.25],
                              "rhs": [2.0, 0.5], "margin": [1.0, 0.25]})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "case,seed,lhs,rhs,margin"
        assert lines[1].startswith("0,42,1,2,1")


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
def test_json_refuses_non_finite_numbers(tmp_path, bad):
    # strict JSON has no NaN or Infinity literals: a summary holding one is
    # refused before its file is opened
    out = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._write_json(str(out), {"margin": bad, "passed": True})
    assert not out.exists()
    cli._write_json(str(out), {"margin": np.float64(0.5), "passed": True})
    assert json.loads(out.read_text()) == {"margin": 0.5, "passed": True}


def test_fuzz_report_lines_end_in_lf(tmp_path):
    # the same line ending as every other CSV artifact
    path = tmp_path / "fuzz.csv"
    cli._write_csv(path, {"case": [0], "seed": [7], "lhs": [1.0], "rhs": [2.0],
                          "margin": [1.0]})
    assert path.read_bytes() == b"case,seed,lhs,rhs,margin\n0,7,1,2,1\n"
