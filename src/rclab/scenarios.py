"""Scenario construction: trait-space descriptions to model instances.

A scenario discretizes a continuous trait interval of length L into N
midpoint cells of width h = L/N, with Gaussian resource supply and
consumption kernel

    Rstar(y) = exp(-y^2 / (2 sigma_star^2)) / (sqrt(2 pi) sigma_star)
    K(x, y)  = exp(-(x-y)^2 / (2 sigma_K^2)) / (sqrt(2 pi) sigma_K)

a quadratic growth profile a(x) = c2 x^2 + c0, constant resource
relaxation, and one of a few initial-data shapes. Scenarios round-trip
through a flat `key = value` text format.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError
from .model import ModelParams, Scheme, State, _check_state, _setting

# field naming one of a fixed set of choices -> {choice: the optional fields
# that choice requires and owns}
_CHOICES = {
    "scheme": dict.fromkeys((scheme.value for scheme in Scheme), ()),
    "initial_f_kind": {
        "gaussian": ("initial_f_amp", "initial_f_sigma"),
        "sine_plus": ("initial_f_freq", "initial_f_offset"),
        "zero": (),
    },
    "initial_R_kind": {"equals_rstar": (), "constant": ("initial_R_value",)},
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one simulation scenario. Building one (also by
    `dataclasses.replace`) checks it, and raises ValidationError naming the field."""

    N: int
    L: float
    center: float
    sigma_star: float
    sigma_K: float
    growth_c2: float
    growth_c0: float
    m_const: float
    initial_f_kind: str
    initial_f_amp: float | None
    initial_f_sigma: float | None
    initial_f_freq: float | None
    initial_f_offset: float | None
    initial_R_kind: str
    initial_R_value: float | None
    dt: float
    T_final: float
    scheme: str
    fp_tol: float
    fp_maxit: int
    enforce_mu0: bool

    def __post_init__(self):
        _validate_spec(self)


def trait_grid(spec: ScenarioSpec) -> np.ndarray:
    """Midpoint trait coordinates; exactly reflection-symmetric for center 0."""
    h = spec.L / spec.N
    return spec.center + (np.arange(1, spec.N + 1) - (spec.N + 1) / 2) * h


def build_params(spec: ScenarioSpec) -> tuple[ModelParams, State]:
    """Instantiate the model and initial state described by `spec`.

    Building the model checks the standing assumptions, and the state check of
    `validate_params` the initial state, without its constants. K is built in one
    buffer and handed over read-only, so the model keeps it uncopied. No SVD of K is
    taken (`solve_esd` certifies f_unique).
    """
    x = trait_grid(spec)
    y = x
    h = spec.L / spec.N
    Rstar = np.exp(-(y**2) / (2 * spec.sigma_star**2)) / (
        math.sqrt(2 * math.pi) * spec.sigma_star
    )
    # exp(-(x_j - y_k)^2 / (2 sigma_K^2)) / (sqrt(2 pi) sigma_K), each step in place
    K = np.subtract.outer(x, y)
    np.square(K, out=K)
    np.negative(K, out=K)
    np.divide(K, 2 * spec.sigma_K**2, out=K)
    np.exp(K, out=K)
    np.divide(K, math.sqrt(2 * math.pi) * spec.sigma_K, out=K)
    K.flags.writeable = False  # so ModelParams keeps it uncopied
    a = spec.growth_c2 * x**2 + spec.growth_c0
    m = np.full(spec.N, spec.m_const)
    params = ModelParams(N=spec.N, h=h, a=a, K=K, m=m, Rstar=Rstar)

    if spec.initial_f_kind == "gaussian":
        f0 = spec.initial_f_amp * np.exp(-(x**2) / (2 * spec.initial_f_sigma**2))
    elif spec.initial_f_kind == "sine_plus":
        f0 = np.sin(spec.initial_f_freq * x) + spec.initial_f_offset
    else:
        f0 = np.zeros(spec.N)
    if spec.initial_R_kind == "equals_rstar":
        R0 = Rstar.copy()
    else:
        R0 = np.full(spec.N, spec.initial_R_value)
    state0 = State(f=f0, R=R0)

    _check_state(params, state0, "initial")
    return params, state0


def builtin_presets() -> dict[str, ScenarioSpec]:
    """Named ready-made scenarios.

    example1: Gaussian supply/kernel with a(0) = 0.5 > 0; an initially
    unimodal population splits into two peaks and approaches a dimorphic
    stable distribution.
    example2: the same habitat with a(x) = -2 x^2 <= 0 and oscillatory
    initial data; the population goes extinct and resources recover.
    n1-closedform: single-trait instance with unit coefficients whose
    stable distribution is known in closed form (f = 1, R = 1/2).
    """
    inv_sqrt2pi = 1.0 / math.sqrt(2.0 * math.pi)
    example1 = ScenarioSpec(
        N=40, L=2.0, center=0.0, sigma_star=0.1, sigma_K=0.2,
        growth_c2=-2.0, growth_c0=0.5, m_const=1.0,
        initial_f_kind="gaussian", initial_f_amp=5.0 * inv_sqrt2pi,
        initial_f_sigma=1.0, initial_f_freq=None, initial_f_offset=None,
        initial_R_kind="equals_rstar", initial_R_value=None,
        dt=0.4, T_final=3000.0, scheme=Scheme.SEMI_IMPLICIT.value,
        fp_tol=1e-12, fp_maxit=200, enforce_mu0=False,
    )
    # extinction is fast for the species but the resource recovery tail is
    # algebraic; T_final sits in the asymptotic regime for verification
    example2 = replace(
        example1,
        growth_c0=0.0,
        initial_f_kind="sine_plus", initial_f_amp=None, initial_f_sigma=None,
        initial_f_freq=100.0, initial_f_offset=1.0,
        initial_R_kind="constant", initial_R_value=1.0,
        T_final=2000.0,
    )
    n1 = ScenarioSpec(
        N=1, L=1.0, center=0.0, sigma_star=inv_sqrt2pi, sigma_K=inv_sqrt2pi,
        growth_c2=0.0, growth_c0=0.5, m_const=1.0,
        initial_f_kind="gaussian", initial_f_amp=1.0, initial_f_sigma=1.0,
        initial_f_freq=None, initial_f_offset=None,
        initial_R_kind="constant", initial_R_value=1.0,
        dt=0.1, T_final=60.0, scheme=Scheme.FULLY_IMPLICIT.value,
        fp_tol=1e-12, fp_maxit=200, enforce_mu0=False,
    )
    return {"example1": example1, "example2": example2, "n1-closedform": n1}


# ---------------------------------------------------------------------------
# text format: one `key = value` line per set field, in field order; the key is
# the field name with its group dotted (growth_c2 -> growth.c2)


def _key(name: str) -> str:
    return re.sub(r"^(growth|initial_f|initial_R)_", r"\1.", name)


# annotation text (annotations are postponed here) -> (the spelling the text
# format accepts, its conversion, the message for other text). Digits are ASCII
# only: int and float alone would also read other Unicode digits and underscores.
_TYPES = {
    "int": (r"[+-]?[0-9]+", int, "not an integer: {!r}"),
    "float": (r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", float, "not a number: {!r}"),
    "str": (r".*", str, ""),
    "bool": (r"true|false", "true".__eq__, "expected true/false, got {!r}"),
}
_FIELDS = {_key(field.name): field for field in fields(ScenarioSpec)}
_OPTIONAL = {name for choices in _CHOICES.values()
             for name in chain.from_iterable(choices.values())}
_POSITIVE = {"N", "L", "sigma_star", "sigma_K", "m_const", "initial_f_sigma", "initial_R_value",
             "dt", "T_final", "fp_tol", "fp_maxit"}


def load_scenario(path: str | os.PathLike) -> ScenarioSpec:
    """Read and parse the scenario file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read scenario file {os.fspath(path)!r}: {err}") from err
    return parse_scenario(text)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text in the flat `key = value` format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ParseError(f"unknown key '{key}'", line=lineno, field=key)
        if key in raw:
            raise ParseError(f"duplicate key '{key}'", line=lineno, field=key)
        if not value:
            raise ParseError("missing value", line=lineno, field=key)
        raw[key] = value

    for key, field in _FIELDS.items():
        if field.name not in _OPTIONAL and key not in raw:
            raise ValidationError(key, "required key is missing")

    values: dict[str, object] = dict.fromkeys(_OPTIONAL)
    for key, value in raw.items():
        field = _FIELDS[key]
        pattern, convert, message = _TYPES[field.type.removesuffix(" | None")]
        if not re.fullmatch(pattern, value):
            raise ParseError(message.format(value), field=key)
        values[field.name] = convert(value)

    return ScenarioSpec(**values)


def _validate_spec(spec: ScenarioSpec) -> None:
    for key, field in _FIELDS.items():
        value = getattr(spec, field.name)
        if not (value is None and field.name in _OPTIONAL):  # _CHOICES judges an unset one
            _setting(key, value, field.type.removesuffix(" | None"), field.name in _POSITIVE)
    for name, choices in _CHOICES.items():
        choice = getattr(spec, name)
        if choice not in tuple(choices):  # by ==, so an unhashable value is reported too
            raise ValidationError(_key(name), f"must be one of {tuple(choices)}")
        for owned in choices[choice]:
            if getattr(spec, owned) is None:
                raise ValidationError(_key(owned), f"required for {_key(name)} = {choice}")
        for other in chain.from_iterable(choices.values()):
            if other not in choices[choice] and getattr(spec, other) is not None:
                raise ValidationError(_key(other), f"not allowed for {_key(name)} = {choice}")
    if spec.initial_f_kind == "gaussian" and spec.initial_f_amp < 0:  # 0 is an amplitude
        raise ValidationError("initial_f.amp", "must be nonnegative")


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # for a float, the shortest text that reads back to it


def save_scenario(spec: ScenarioSpec) -> str:
    """Serialize to the canonical text form: each set field, in field order."""
    return "".join(
        f"{key} = {_fmt(getattr(spec, field.name))}\n"
        for key, field in _FIELDS.items()
        if getattr(spec, field.name) is not None
    )
