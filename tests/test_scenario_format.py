"""Properties of the scenario text format on random input."""

import math
import re
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab import (
    ParseError,
    RclabError,
    ValidationError,
    build_params,
    builtin_presets,
    parse_scenario,
    save_scenario,
)
from rclab.integrator import StepConfig
from rclab.scenarios import ScenarioSpec

PROPERTY = settings(max_examples=25)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
KIND_FIELDS = {
    "gaussian": {"initial_f_amp": st.floats(min_value=0.0, allow_infinity=False),
                 "initial_f_sigma": positive},
    "sine_plus": {"initial_f_freq": finite, "initial_f_offset": finite},
    "zero": {},
    "equals_rstar": {},
    "constant": {"initial_R_value": positive},
}


@st.composite
def specs(draw, f_kind, r_kind):
    owned = {**KIND_FIELDS[f_kind], **KIND_FIELDS[r_kind]}
    return ScenarioSpec(
        N=draw(st.integers(min_value=1, max_value=10**9)), L=draw(positive),
        center=draw(finite), sigma_star=draw(positive), sigma_K=draw(positive),
        growth_c2=draw(finite), growth_c0=draw(finite), m_const=draw(positive),
        initial_f_kind=f_kind, initial_R_kind=r_kind,
        **{name: draw(owned[name]) if name in owned else None
           for name in ("initial_f_amp", "initial_f_sigma", "initial_f_freq",
                        "initial_f_offset", "initial_R_value")},
        dt=draw(positive), T_final=draw(positive),
        scheme=draw(st.sampled_from(["semi", "implicit"])), fp_tol=draw(positive),
        fp_maxit=draw(st.integers(min_value=1, max_value=10**9)),
        enforce_mu0=draw(st.booleans()),
    )


@pytest.mark.parametrize("r_kind", ["equals_rstar", "constant"])
@pytest.mark.parametrize("f_kind", ["gaussian", "sine_plus", "zero"])
def test_valid_specs_round_trip(f_kind, r_kind):
    @PROPERTY
    @given(specs(f_kind, r_kind))
    def check(spec):
        text = save_scenario(spec)
        assert parse_scenario(text) == spec
        assert save_scenario(parse_scenario(text)) == text

    check()


def test_spec_values_are_checked_as_in_text():
    example1 = builtin_presets()["example1"]
    with pytest.raises(ValidationError) as err:
        save_scenario(replace(example1, initial_f_kind="zero"))
    assert err.value.field == "initial_f.amp"
    with pytest.raises(ValidationError) as err:
        save_scenario(replace(example1, scheme=["semi"]))
    assert err.value.field == "scheme"


@pytest.mark.parametrize("line, field", [("N = \u0663", "N"), ("fp_maxit = 2_00", "fp_maxit")])
def test_numbers_must_be_ascii_decimal(line, field):
    """int and float alone read Arabic-Indic 3 as 3 and 2_00 as 200."""
    lines = [ln for ln in save_scenario(builtin_presets()["example1"]).splitlines()
             if not ln.startswith(f"{field} =")]
    with pytest.raises(ParseError) as err:
        parse_scenario("\n".join([*lines, line]))
    assert err.value.field == field


@pytest.mark.parametrize("change", [{"N": "40"}, {"dt": "0.4"}, {"N": 40.0}, {"N": True},
                                    {"enforce_mu0": "yes"}])
def test_spec_field_types_are_checked(change):
    with pytest.raises(ValidationError) as err:
        build_params(replace(builtin_presets()["example1"], **change))
    assert err.value.field == next(iter(change))


def _refusal(build) -> str | None:
    """The message of the ValidationError that build raises, or None if it succeeds."""
    try:
        build()
    except ValidationError as err:
        return str(err)  # names the field
    return None


@settings(max_examples=200)
@given(st.sampled_from(["dt", "fp_tol", "fp_maxit", "enforce_mu0"]),
       st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.floats(), st.integers(),
                 st.sampled_from([math.inf, -math.inf, math.nan, 0, -1, 10**400, Decimal("0.1"),
                                  Fraction(1, 10), np.float32(0.1), np.float32("inf"),
                                  np.int64(3)])))
def test_a_spec_and_a_step_config_judge_a_setting_alike(name, value):
    example1 = builtin_presets()["example1"]
    assert (_refusal(lambda: replace(example1, **{name: value}))
            == _refusal(lambda: StepConfig(**{"dt": 0.1, name: value})))


@pytest.mark.parametrize("change, field", [
    ({"center": float("inf")}, "center"),
    ({"fp_maxit": 0}, "fp_maxit"),
    ({"initial_f_amp": -1.0}, "initial_f.amp"),
    ({"initial_f_sigma": 0.0}, "initial_f.sigma"),
    ({"initial_R_kind": "constant", "initial_R_value": 0.0}, "initial_R.value"),
])
def test_spec_values_are_range_checked(change, field):
    with pytest.raises(ValidationError) as err:
        build_params(replace(builtin_presets()["example1"], **change))
    assert err.value.field == field


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, np.float32("inf")])
@pytest.mark.parametrize("name, key, preset", [
    ("growth_c2", "growth.c2", "example1"),
    ("growth_c0", "growth.c0", "example1"),
    ("initial_f_amp", "initial_f.amp", "example1"),
    ("initial_f_sigma", "initial_f.sigma", "example1"),
    ("initial_f_freq", "initial_f.freq", "example2"),
    ("initial_f_offset", "initial_f.offset", "example2"),
    ("initial_R_value", "initial_R.value", "example2"),
])
def test_non_finite_values_are_refused_naming_the_field(name, key, preset, value):
    # save_scenario would write them, and parse_scenario refuse the text; an int
    # too large for a float would overflow in build_params
    spec = builtin_presets()[preset]
    for build in (lambda: ScenarioSpec(**{**asdict(spec), name: value}),
                  lambda: replace(spec, **{name: value})):
        with pytest.raises(ValidationError, match="must be finite") as err:
            build()
        assert err.value.field == key


def test_overflowing_number_in_text_is_refused_naming_its_key():
    text = save_scenario(builtin_presets()["example1"])
    assert "growth.c2 = -2.0\n" in text
    with pytest.raises(ValidationError, match="must be finite") as err:
        parse_scenario(text.replace("growth.c2 = -2.0\n", "growth.c2 = 1e400\n"))
    assert err.value.field == "growth.c2"


PRESET_LINES = [save_scenario(spec).splitlines() for spec in builtin_presets().values()]
KEYS = sorted({line.partition(" =")[0] for lines in PRESET_LINES for line in lines}
              | {"initial_f.freq", "initial_f.offset", "initial_f.amp", "initial_R.value"})
values = st.one_of(
    st.sampled_from(["", "nan", "-inf", "1e400", "-1", "0", "1.5", "true", "gaussian",
                     "sine_plus", "zero", "constant", "equals_rstar", "implicit", "x"]),
    st.text(max_size=8),
)
edits = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 40)),
    st.tuples(st.just("duplicate"), st.integers(0, 40)),
    st.tuples(st.just("value"), st.integers(0, 40), values),
    st.tuples(st.just("insert"), st.integers(0, 40),
              st.tuples(st.sampled_from(KEYS) | st.text(max_size=8), values)),
    st.tuples(st.just("junk"), st.integers(0, 40), st.text(max_size=12)),
)


def apply(lines, edit):
    lines = list(lines)
    i = edit[1] % (len(lines) + 1)
    if edit[0] == "drop" and i < len(lines):
        del lines[i]
    elif edit[0] == "duplicate" and i < len(lines):
        lines.insert(i, lines[i])
    elif edit[0] == "value" and i < len(lines):
        lines[i] = f"{lines[i].partition(' =')[0]} = {edit[2]}"
    elif edit[0] == "insert":
        lines.insert(i, f"{edit[2][0]} = {edit[2][1]}")
    elif edit[0] == "junk":
        lines.insert(i, edit[2])
    return lines


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(PRESET_LINES), st.lists(edits, min_size=1, max_size=3))
def test_edited_preset_text_fails_only_with_a_located_rclab_error(lines, edit_list):
    for edit in edit_list:
        lines = apply(lines, edit)
    try:
        parse_scenario("\n".join(lines) + "\n")
    except RclabError as err:
        assert getattr(err, "field", None) is not None or getattr(err, "line", None) is not None


def test_readme_scenario_block_is_example1():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.M | re.S)
    [block] = [b for b in blocks if b.startswith("N = ")]
    assert parse_scenario(block) == builtin_presets()["example1"]
