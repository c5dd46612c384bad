"""Property tests of the config boundary: every valid configuration survives
the round trip through its resolved dictionary, and every bad scalar is
rejected with a ConfigError that names its field."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmnslab.config import (_CHECK_CASE_POINTS, _OPTIONS, EXPERIMENTS, WORK_CEILING,
                            ConfigError, check_work, resolve_config)
from gmnslab.experiments import stability_threshold

# every option of every command
OPTIONS = {name for row in _OPTIONS.values() for name in row}

SCALARS = ("nu", "level", "chi", "lambda_p", "dt", "t_final", "dt_path",
           "instability_factor", "noise.s", "noise.amplitude", "noise.delta")


@st.composite
def valid_configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    mode = draw(st.sampled_from(("strict", "exploratory")))
    # strict contract/measure runs demand nu above the stability threshold
    gated = mode == "strict" and experiment in ("contract", "measure")
    finite_level = st.floats(0.01, 100.0)
    level = draw(finite_level if gated
                 else st.one_of(finite_level, st.just("inf"), st.just(math.inf)))
    # the Poincare constant of the basis is 1 at every kmax
    lambda_p = 1.0
    if gated:
        nu = stability_threshold(level, lambda_p) * draw(st.floats(1.01, 10.0))
    else:
        nu = draw(st.floats(0.01, 100.0))
    # exact step ratios: dt = 2^-j, dt_path = dt / m, t_final = n * dt; the
    # sizes keep the path table under its ceiling at every kmax
    dt = 2.0 ** -draw(st.integers(3, 10))
    rough = draw(st.booleans())
    params = {
        "nu": nu, "level": level, "lambda_p": lambda_p, "dt": dt,
        # chi * dt <= 2 / 8, the config's ceiling
        "chi": draw(st.floats(0.0, 2.0)),
        "t_final": dt * draw(st.integers(1, 1024)),
        "kmax": draw(st.integers(1, 8)),
        "instability_factor": draw(st.floats(1.0, 1e9)),
        "noise": {
            "s": draw(st.floats(0.3 if rough else 0.76, 3.0)),
            "amplitude": draw(st.floats(0.0, 10.0)),
            "delta": draw(st.floats(0.01, 0.29)),
            "allow_rough": rough,
        },
    }
    if draw(st.booleans()):
        params["dt_path"] = dt / draw(st.integers(1, 4))
    # contract needs two members for its standard error, 32 when strict;
    # 200 keep its work under the ceiling at every kmax, t_final and dt_path
    min_ensemble = {"contract": 32 if gated else 2}.get(experiment, 1)
    max_ensemble = 200 if experiment == "contract" else 10_000
    # only options the experiment reads: any other exits 2
    options = {}
    if experiment in ("simulate", "contract"):
        options = draw(st.one_of(st.just({}),
                                 st.builds(dict, record_every=st.integers(1, 64))))
    # the default pullback and measure horizons scale with 1/nu and can
    # exceed the path-table ceiling; these keep it like t_final does
    if experiment == "pullback":
        options["pullback_times"] = [dt * n for n in draw(
            st.lists(st.integers(1, 1024), min_size=1, unique=True))]
    if experiment == "measure":
        options["burn_in"] = dt * draw(st.integers(0, 512))
        # measure's error bars need a solver step per batch
        options["horizon"] = dt * draw(st.integers(20, 512))
    return {
        "experiment": experiment,
        "seed": draw(st.integers(0, 2**64 - 1)),
        "ensemble": draw(st.integers(min_ensemble, max_ensemble)),
        "assertion_mode": mode,
        "params": params,
        "options": options,
    }


def _with_field(raw: dict, name: str, value) -> dict:
    params = dict(raw["params"], noise=dict(raw["params"]["noise"]))
    if name.startswith("noise."):
        params["noise"][name.split(".", 1)[1]] = value
    else:
        params[name] = value
    return dict(raw, params=params)


def bad_values(name: str):
    # level = inf means no cutoff and is legal
    non_finite = (math.nan, -math.inf) + (() if name == "level" else (math.inf,))
    bad = [st.sampled_from(non_finite), st.booleans(),
           st.text(max_size=8).filter(lambda s: s != "inf")]
    # and the finite numbers outside each rule's range
    if name == "lambda_p":
        bad.append(st.floats(-10.0, 10.0).filter(lambda x: x != 1.0))
    if name in ("nu", "level", "dt", "dt_path", "instability_factor"):
        bad += [st.sampled_from((0, 0.0, -0.0)),
                st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
                st.integers(max_value=0)]
    if name in ("chi", "noise.amplitude"):
        bad += [st.floats(max_value=-5e-324, allow_infinity=False),
                st.integers(max_value=-1)]
    if name == "noise.delta":
        bad += [st.sampled_from((0, 0.0, -0.0, 0.5)),
                st.floats(max_value=0.0, allow_infinity=False),
                st.floats(min_value=0.5, allow_infinity=False),
                st.integers(max_value=0), st.integers(min_value=1)]
    return st.one_of(bad)


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_valid_config_round_trips(raw):
    cfg = resolve_config(raw)
    again = resolve_config(cfg.to_dict())
    assert again == cfg
    assert again.canonical_json() == cfg.canonical_json()


@settings(max_examples=60, deadline=None)
@given(raw=valid_configs(), data=st.data())
def test_unread_option_rejected_naming_field(raw, data):
    read = _OPTIONS[raw["experiment"]]
    name = data.draw(st.one_of(
        st.sampled_from(sorted(OPTIONS - set(read))),
        st.text(min_size=1, max_size=8).filter(lambda s: s not in OPTIONS)),
        label="option")
    with pytest.raises(ConfigError) as err:
        resolve_config(dict(raw, options=dict(raw["options"], **{name: 1})))
    assert f"'options.{name}'" in str(err.value)


@pytest.mark.parametrize("name", SCALARS)
@settings(max_examples=40, deadline=None)
@given(raw=valid_configs(), data=st.data())
def test_bad_scalar_rejected_naming_field(name, raw, data):
    value = data.draw(bad_values(name), label=name)
    with pytest.raises(ConfigError) as err:
        resolve_config(_with_field(raw, name, value))
    message = str(err.value)
    assert f"'params.{name}'" in message, message


FIELD_SPECS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(("random", "zero")),
    "norm": st.one_of(st.none(), st.floats(1e-6, 1e6)),
    "decay": st.floats(-10.0, 10.0),
    "label": st.text(max_size=8),
})

BAD_SPEC_VALUES = {
    "kind": st.one_of(st.none(), st.text(max_size=8).filter(
        lambda s: s not in ("random", "zero"))),
    "norm": st.one_of(st.booleans(), st.text(max_size=8),
                      st.floats().filter(lambda x: not 0 < x < math.inf)),
    "decay": st.one_of(st.none(), st.booleans(), st.text(max_size=8),
                       st.sampled_from((math.nan, math.inf, -math.inf))),
    "label": st.one_of(st.none(), st.booleans(), st.integers()),
    "nrom": st.floats(1e-6, 1e6),
}


@settings(max_examples=60, deadline=None)
@given(spec=FIELD_SPECS, data=st.data())
def test_initial_field_spec_checked_naming_field(spec, data):
    raw = {"experiment": "simulate", "options": {"initial": spec}}
    assert resolve_config(raw).option("initial") == spec
    key = data.draw(st.sampled_from(sorted(BAD_SPEC_VALUES)), label="key")
    bad = dict(spec, **{key: data.draw(BAD_SPEC_VALUES[key], label=key)})
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "simulate", "options": {"initial": bad}})
    assert "'options.initial'" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(mult=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8,
                    unique=True).map(sorted), data=st.data())
def test_multipliers_checked_naming_field(mult, data):
    raw = {"experiment": "nse-limit", "options": {"multipliers": mult}}
    assert resolve_config(raw).option("multipliers") == mult
    # the levels must grow strictly: a repeated or a descending one is bad
    bad = data.draw(st.one_of(
        st.just([]), st.text(max_size=4),
        st.lists(st.one_of(st.booleans(), st.text(max_size=4),
                           st.floats().filter(lambda x: not 0 < x < math.inf)),
                 min_size=1, max_size=3).map(lambda xs: mult + xs),
        st.just(mult + mult[-1:]), st.just(mult[::-1] + mult[:1])))
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "nse-limit", "options": {"multipliers": bad}})
    assert "'options.multipliers'" in str(err.value)


# Bad values of every other option, each drawn for an experiment that reads
# the option.  None of them is a list of numbers, which some options accept.
NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.lists(st.text(max_size=2), max_size=2), st.just({}))


def bad_ints(least: int):
    # floats are no integers, 2.0 included
    return st.one_of(NOT_A_NUMBER, st.integers(max_value=least - 1), st.floats())


BAD_NON_NEGATIVE = st.one_of(NOT_A_NUMBER, st.integers(max_value=-1),
                             st.floats().filter(lambda x: not 0 <= x < math.inf))
BAD_POSITIVE = st.one_of(NOT_A_NUMBER, st.integers(max_value=0),
                         st.floats().filter(lambda x: not 0 < x < math.inf))


@st.composite
def bad_field_specs(draw):
    spec = draw(FIELD_SPECS)
    key = draw(st.sampled_from(sorted(BAD_SPEC_VALUES)))
    return draw(st.one_of(NOT_A_NUMBER.filter(lambda x: x != {}),
                          st.just(dict(spec, **{key: draw(BAD_SPEC_VALUES[key])}))))


# a non-empty object of specs with one bad entry, or no such object
BAD_SPEC_SETS = st.one_of(NOT_A_NUMBER, st.builds(
    lambda good, bad: {**good, "bad": bad},
    st.dictionaries(st.text(max_size=4).filter(lambda k: k != "bad"), FIELD_SPECS,
                    max_size=2),
    bad_field_specs()))

BAD_OPTIONS = {
    **{name: ("check", bad_ints(1)) for name in
       ("cutoff_pairs", "trilinear_triples", "monotonicity_triples", "shift_pairs")},
    "ou_samples": ("check", bad_ints(2)),
    "ou_chi": ("check", BAD_NON_NEGATIVE),
    "record_every": ("simulate", bad_ints(1)),
    "pullback_times": ("pullback", st.one_of(
        NOT_A_NUMBER, st.lists(BAD_POSITIVE, min_size=1, max_size=3))),
    "family_tol": ("pullback", BAD_NON_NEGATIVE),
    "families": ("pullback", BAD_SPEC_SETS),
    "burn_in": ("measure", BAD_NON_NEGATIVE),
    "horizon": ("measure", BAD_POSITIVE),
    "initial_set": ("measure", BAD_SPEC_SETS),
    "x1": ("contract", bad_field_specs()),
    "x2": ("contract", bad_field_specs()),
}


@pytest.mark.parametrize("name", sorted(BAD_OPTIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_option_rejected_naming_field(name, data):
    experiment, values = BAD_OPTIONS[name]
    value = data.draw(values, label=name)
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": experiment, "options": {name: value}})
    assert f"'options.{name}'" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.integers(1, 4096), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_pullback_times_distinct_naming_field(steps, data):
    # multiples of the default dt = 1/256, so only the repeat is wrong
    times = [n / 256 for n in steps]
    raw = {"experiment": "pullback", "options": {"pullback_times": times}}
    assert resolve_config(raw).option("pullback_times") == times
    twice = data.draw(st.permutations(times + [data.draw(st.sampled_from(times))]))
    with pytest.raises(ConfigError) as err:
        resolve_config({"experiment": "pullback", "options": {"pullback_times": twice}})
    assert "'options.pullback_times'" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(exp=st.integers(3, 10), burn=st.integers(0, 512), steps=st.integers(20, 512),
       off=st.floats(0.01, 0.99), data=st.data())
def test_marched_span_on_the_step_grid_naming_fields(exp, burn, steps, off, data):
    # a run marches its span in whole solver steps: burn_in + horizon for
    # measure, t_final for the runs over [0, t_final].  A span on the dt
    # grid is accepted; one a fraction of a step off it is rejected naming
    # its field(s), whichever term of measure's span is off
    dt = 2.0 ** -exp
    experiment = data.draw(st.sampled_from(("measure", "simulate", "contract",
                                            "nse-limit")), label="experiment")
    raw = {"experiment": experiment, "assertion_mode": "exploratory", "ensemble": 2,
           "params": {"dt": dt, "kmax": 1, "t_final": dt * steps}}
    if experiment == "measure":
        raw["options"] = {"burn_in": dt * burn, "horizon": dt * steps}
        name = data.draw(st.sampled_from(("burn_in", "horizon")), label="off")
        bad = dict(raw, options=dict(raw["options"], **{name: raw["options"][name]
                                                         + off * dt}))
        field = "fields 'options.burn_in' + 'options.horizon'"
    else:
        bad = dict(raw, params=dict(raw["params"], t_final=dt * steps + off * dt))
        field = "field 'params.t_final'"
    resolve_config(raw)
    with pytest.raises(ConfigError) as err:
        resolve_config(bad)
    assert field in str(err.value)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_CHECK_CASE_POINTS)), kmax=st.integers(1, 8),
       data=st.data())
def test_check_work_ceiling_naming_field(name, kmax, data):
    # a fuzz count whose own work is over the ceiling is rejected naming its
    # field; the defaults at every kmax stay under it
    raw = {"experiment": "check", "params": {"kmax": kmax}}
    cfg = resolve_config(raw)
    assert sum(check_work(cfg).values()) <= WORK_CEILING
    per_case = check_work(cfg)[name] / cfg.option(name)
    over = data.draw(st.integers(int(WORK_CEILING / per_case) + 1, 10**12), label=name)
    with pytest.raises(ConfigError) as err:
        resolve_config({**raw, "options": {name: over}})
    assert f"'options.{name}'" in str(err.value)


def test_every_option_rule_has_a_property():
    covered = set(BAD_OPTIONS) | {"initial", "multipliers"}
    assert covered == OPTIONS
