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
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .esd import check_K_nonsingular
from .model import ModelParams, State, validate_params

_F_KINDS = ("gaussian", "sine_plus", "zero")
_R_KINDS = ("equals_rstar", "constant")
_SCHEMES = ("semi", "implicit")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one simulation scenario."""

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


def trait_grid(spec: ScenarioSpec) -> np.ndarray:
    """Midpoint trait coordinates; exactly reflection-symmetric for center 0."""
    h = spec.L / spec.N
    return spec.center + (np.arange(1, spec.N + 1) - (spec.N + 1) / 2) * h


def build_params(spec: ScenarioSpec) -> tuple[ModelParams, State]:
    """Instantiate the model and initial state described by `spec`.

    The result is validated before returning; a near-singular consumption
    matrix triggers a warning (solves remain possible, uniqueness of the
    species vector is then only numerical).
    """
    _validate_spec(spec)
    x = trait_grid(spec)
    y = x
    h = spec.L / spec.N
    Rstar = np.exp(-(y**2) / (2 * spec.sigma_star**2)) / (
        math.sqrt(2 * math.pi) * spec.sigma_star
    )
    K = np.exp(-((x[:, None] - y[None, :]) ** 2) / (2 * spec.sigma_K**2)) / (
        math.sqrt(2 * math.pi) * spec.sigma_K
    )
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

    validate_params(params, state0)
    nonsingular, cond = check_K_nonsingular(params)
    if not nonsingular:
        warnings.warn(
            f"consumption matrix is numerically near-singular "
            f"(condition estimate {cond:.3e})",
            stacklevel=2,
        )
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
        dt=0.4, T_final=3000.0, scheme="semi",
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
        dt=0.1, T_final=60.0, scheme="implicit",
        fp_tol=1e-12, fp_maxit=200, enforce_mu0=False,
    )
    return {"example1": example1, "example2": example2, "n1-closedform": n1}


# ---------------------------------------------------------------------------
# text format

_INT_FIELDS = {"N": "N", "fp_maxit": "fp_maxit"}
_FLOAT_FIELDS = {
    "L": "L", "center": "center", "sigma_star": "sigma_star", "sigma_K": "sigma_K",
    "growth.c2": "growth_c2", "growth.c0": "growth_c0", "m_const": "m_const",
    "initial_f.amp": "initial_f_amp", "initial_f.sigma": "initial_f_sigma",
    "initial_f.freq": "initial_f_freq", "initial_f.offset": "initial_f_offset",
    "initial_R.value": "initial_R_value", "dt": "dt", "T_final": "T_final",
    "fp_tol": "fp_tol",
}
_STR_FIELDS = {
    "initial_f.kind": "initial_f_kind", "initial_R.kind": "initial_R_kind",
    "scheme": "scheme",
}
_BOOL_FIELDS = {"enforce_mu0": "enforce_mu0"}
_ALL_KEYS = set(_INT_FIELDS) | set(_FLOAT_FIELDS) | set(_STR_FIELDS) | set(_BOOL_FIELDS)

_REQUIRED = [
    "N", "L", "center", "sigma_star", "sigma_K", "growth.c2", "growth.c0",
    "m_const", "initial_f.kind", "initial_R.kind", "dt", "T_final", "scheme",
    "fp_tol", "fp_maxit", "enforce_mu0",
]

_F_KIND_FIELDS = {
    "gaussian": ("initial_f.amp", "initial_f.sigma"),
    "sine_plus": ("initial_f.freq", "initial_f.offset"),
    "zero": (),
}
_R_KIND_FIELDS = {"equals_rstar": (), "constant": ("initial_R.value",)}


def load_scenario(path: str | os.PathLike) -> ScenarioSpec:
    """Read and parse the scenario file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read scenario file: {err}") from err
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
        if key not in _ALL_KEYS:
            raise ParseError(f"unknown key '{key}'", line=lineno, field=key)
        if key in raw:
            raise ParseError(f"duplicate key '{key}'", line=lineno, field=key)
        if not value:
            raise ParseError("missing value", line=lineno, field=key)
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ValidationError(key, "required key is missing")

    values: dict[str, object] = {}
    for key, attr in _INT_FIELDS.items():
        if key in raw:
            try:
                values[attr] = int(raw[key])
            except ValueError as err:
                raise ParseError(f"not an integer: {raw[key]!r}", field=key) from err
    for key, attr in _FLOAT_FIELDS.items():
        if key in raw:
            try:
                values[attr] = float(raw[key])
            except ValueError as err:
                raise ParseError(f"not a number: {raw[key]!r}", field=key) from err
            if not math.isfinite(values[attr]):
                raise ValidationError(key, "must be finite")
    for key, attr in _STR_FIELDS.items():
        if key in raw:
            values[attr] = raw[key]
    for key, attr in _BOOL_FIELDS.items():
        if key in raw:
            if raw[key] not in ("true", "false"):
                raise ParseError(f"expected true/false, got {raw[key]!r}", field=key)
            values[attr] = raw[key] == "true"

    f_kind = values.get("initial_f_kind")
    if f_kind not in _F_KINDS:
        raise ValidationError("initial_f.kind", f"must be one of {_F_KINDS}")
    r_kind = values.get("initial_R_kind")
    if r_kind not in _R_KINDS:
        raise ValidationError("initial_R.kind", f"must be one of {_R_KINDS}")
    for key in _F_KIND_FIELDS[f_kind]:
        if key not in raw:
            raise ValidationError(key, f"required for initial_f.kind = {f_kind}")
    for kind, fields in _F_KIND_FIELDS.items():
        for key in fields:
            if kind != f_kind and key in raw and key not in _F_KIND_FIELDS[f_kind]:
                raise ValidationError(key, f"not allowed for initial_f.kind = {f_kind}")
    for key in _R_KIND_FIELDS[r_kind]:
        if key not in raw:
            raise ValidationError(key, f"required for initial_R.kind = {r_kind}")
    if r_kind == "equals_rstar" and "initial_R.value" in raw:
        raise ValidationError("initial_R.value", "not allowed for initial_R.kind = equals_rstar")

    spec = ScenarioSpec(
        N=values["N"], L=values["L"], center=values["center"],
        sigma_star=values["sigma_star"], sigma_K=values["sigma_K"],
        growth_c2=values["growth_c2"], growth_c0=values["growth_c0"],
        m_const=values["m_const"],
        initial_f_kind=f_kind,
        initial_f_amp=values.get("initial_f_amp"),
        initial_f_sigma=values.get("initial_f_sigma"),
        initial_f_freq=values.get("initial_f_freq"),
        initial_f_offset=values.get("initial_f_offset"),
        initial_R_kind=r_kind,
        initial_R_value=values.get("initial_R_value"),
        dt=values["dt"], T_final=values["T_final"], scheme=values["scheme"],
        fp_tol=values["fp_tol"], fp_maxit=values["fp_maxit"],
        enforce_mu0=values["enforce_mu0"],
    )
    _validate_spec(spec)
    return spec


def _validate_spec(spec: ScenarioSpec) -> None:
    if spec.N < 1:
        raise ValidationError("N", "must be a positive integer")
    for key, val in (("L", spec.L), ("sigma_star", spec.sigma_star),
                     ("sigma_K", spec.sigma_K), ("m_const", spec.m_const),
                     ("dt", spec.dt), ("T_final", spec.T_final),
                     ("fp_tol", spec.fp_tol)):
        if not (val > 0 and math.isfinite(val)):
            raise ValidationError(key, "must be positive and finite")
    if not math.isfinite(spec.center):
        raise ValidationError("center", "must be finite")
    if spec.fp_maxit < 1:
        raise ValidationError("fp_maxit", "must be at least 1")
    if spec.scheme not in _SCHEMES:
        raise ValidationError("scheme", f"must be one of {_SCHEMES}")
    if spec.initial_f_kind not in _F_KINDS:
        raise ValidationError("initial_f.kind", f"must be one of {_F_KINDS}")
    if spec.initial_R_kind not in _R_KINDS:
        raise ValidationError("initial_R.kind", f"must be one of {_R_KINDS}")
    if spec.initial_f_kind == "gaussian":
        if spec.initial_f_amp is None or spec.initial_f_amp < 0:
            raise ValidationError("initial_f.amp", "must be nonnegative")
        if spec.initial_f_sigma is None or spec.initial_f_sigma <= 0:
            raise ValidationError("initial_f.sigma", "must be positive")
    if spec.initial_f_kind == "sine_plus":
        if spec.initial_f_freq is None:
            raise ValidationError("initial_f.freq", "required")
        if spec.initial_f_offset is None:
            raise ValidationError("initial_f.offset", "required")
    if spec.initial_R_kind == "constant":
        if spec.initial_R_value is None or spec.initial_R_value <= 0:
            raise ValidationError("initial_R.value", "must be positive")


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_scenario(spec: ScenarioSpec) -> str:
    """Serialize to the canonical text form (stable key order, repr floats)."""
    _validate_spec(spec)
    lines = [
        ("N", spec.N), ("L", spec.L), ("center", spec.center),
        ("sigma_star", spec.sigma_star), ("sigma_K", spec.sigma_K),
        ("growth.c2", spec.growth_c2), ("growth.c0", spec.growth_c0),
        ("m_const", spec.m_const),
        ("initial_f.kind", spec.initial_f_kind),
    ]
    if spec.initial_f_kind == "gaussian":
        lines += [("initial_f.amp", spec.initial_f_amp),
                  ("initial_f.sigma", spec.initial_f_sigma)]
    elif spec.initial_f_kind == "sine_plus":
        lines += [("initial_f.freq", spec.initial_f_freq),
                  ("initial_f.offset", spec.initial_f_offset)]
    lines.append(("initial_R.kind", spec.initial_R_kind))
    if spec.initial_R_kind == "constant":
        lines.append(("initial_R.value", spec.initial_R_value))
    lines += [
        ("dt", spec.dt), ("T_final", spec.T_final), ("scheme", spec.scheme),
        ("fp_tol", spec.fp_tol), ("fp_maxit", spec.fp_maxit),
        ("enforce_mu0", spec.enforce_mu0),
    ]
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in lines)
