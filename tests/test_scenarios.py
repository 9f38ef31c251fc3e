"""Scenario construction, presets, and the text format round trip."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rclab import (
    AssumptionViolation,
    ParseError,
    ValidationError,
    build_params,
    builtin_presets,
    load_scenario,
    parse_scenario,
    save_scenario,
    solve_esd,
    trait_grid,
    validate_params,
)
from rclab.scenarios import ScenarioSpec
from dataclasses import replace


def build_without_warning(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return build_params(spec)


class TestPresets:
    def test_required_presets_exist(self):
        presets = builtin_presets()
        assert {"example1", "example2", "n1-closedform"} <= set(presets)

    def test_example1_data(self):
        spec = builtin_presets()["example1"]
        assert spec.sigma_star == 0.1 and spec.sigma_K == 0.2
        assert spec.N == 40 and spec.dt == 0.4
        assert (spec.growth_c2, spec.growth_c0) == (-2.0, 0.5)
        params, state0 = build_without_warning(spec)
        x = trait_grid(spec)
        assert params.h == pytest.approx(2.0 / 40, rel=1e-15)
        # kernel and supply match the Gaussian formulas at sample nodes
        j, k = 3, 17
        expected_K = math.exp(-((x[j] - x[k]) ** 2) / (2 * 0.2**2)) / (
            math.sqrt(2 * math.pi) * 0.2
        )
        assert params.K[j, k] == pytest.approx(expected_K, rel=1e-15)
        expected_R = math.exp(-(x[k] ** 2) / (2 * 0.1**2)) / (
            math.sqrt(2 * math.pi) * 0.1
        )
        assert params.Rstar[k] == pytest.approx(expected_R, rel=1e-15)
        assert params.a == pytest.approx(-2 * x**2 + 0.5, rel=1e-15)
        assert state0.f == pytest.approx(
            5 / math.sqrt(2 * math.pi) * np.exp(-(x**2) / 2), rel=1e-15
        )
        assert np.array_equal(state0.R, params.Rstar)
        assert np.all(params.m == 1.0)

    def test_example2_data(self):
        spec = builtin_presets()["example2"]
        assert (spec.growth_c2, spec.growth_c0) == (-2.0, 0.0)
        params, state0 = build_without_warning(spec)
        x = trait_grid(spec)
        assert params.a == pytest.approx(-2 * x**2, rel=1e-15)
        assert state0.f == pytest.approx(np.sin(100 * x) + 1.0, rel=1e-14)
        assert np.array_equal(state0.R, np.ones(40))

    def test_n1_preset_matches_closed_form(self):
        spec = builtin_presets()["n1-closedform"]
        params, state0 = build_params(spec)
        assert params.N == 1 and params.h == 1.0
        assert params.a == pytest.approx([0.5], abs=1e-14)
        assert params.K[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert params.Rstar == pytest.approx([1.0], rel=1e-14)
        esd = solve_esd(params)
        assert esd.f_tilde == pytest.approx([1.0], abs=1e-10)
        assert esd.R_tilde == pytest.approx([0.5], abs=1e-10)

    def test_every_preset_validates(self):
        import warnings
        for name, spec in builtin_presets().items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                params, state0 = build_params(spec)
            validate_params(params, state0)


class TestGrid:
    def test_grid_is_exactly_symmetric(self):
        spec = builtin_presets()["example1"]
        x = trait_grid(spec)
        assert np.array_equal(x, -x[::-1])

    def test_kernel_reflection_symmetry(self, example1):
        params, _ = example1
        assert np.array_equal(params.K, params.K[::-1, ::-1])
        assert np.array_equal(params.Rstar, params.Rstar[::-1])
        assert np.array_equal(params.a, params.a[::-1])

    def test_midpoint_rule_matches_gaussian_convolution(self, example1):
        spec = builtin_presets()["example1"]
        params, _ = example1
        x = trait_grid(spec)
        var = spec.sigma_K**2 + spec.sigma_star**2
        exact = np.exp(-(x**2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        quad = params.h * params.K @ params.Rstar
        assert np.max(np.abs(quad - exact)) <= 1e-3

    def test_esd_is_reflection_symmetric(self, example1_esd):
        f = example1_esd.f_tilde
        assert np.max(np.abs(f - f[::-1])) <= 1e-6


class TestTextFormat:
    def test_presets_round_trip_byte_identical(self):
        for spec in builtin_presets().values():
            text = save_scenario(spec)
            again = save_scenario(parse_scenario(text))
            assert again == text

    def test_save_load_preserves_spec(self):
        spec = builtin_presets()["example2"]
        assert parse_scenario(save_scenario(spec)) == spec

    def test_comments_and_blank_lines_ignored(self):
        text = save_scenario(builtin_presets()["n1-closedform"])
        noisy = "# header comment\n\n" + text.replace(
            "dt = 0.1", "dt = 0.1   # stable step"
        )
        assert parse_scenario(noisy) == builtin_presets()["n1-closedform"]

    def test_negative_N_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"]).replace(
            "N = 1", "N = -3"
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "N"

    def test_unknown_key_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"]) + "mystery = 1\n"
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_duplicate_key_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"])
        with pytest.raises(ParseError, match="duplicate"):
            parse_scenario(text + "dt = 0.2\n")

    def test_missing_required_key_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"])
        pruned = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("m_const")
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(pruned)
        assert err.value.field == "m_const"

    def test_kind_inconsistent_field_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"])
        with pytest.raises(ValidationError):
            parse_scenario(text + "initial_f.freq = 3\n")

    def test_malformed_number_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"]).replace(
            "dt = 0.1", "dt = fast"
        )
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("N 40\n")

    def test_bad_bool_rejected(self):
        text = save_scenario(builtin_presets()["n1-closedform"]).replace(
            "enforce_mu0 = false", "enforce_mu0 = maybe"
        )
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(save_scenario(builtin_presets()["example1"]), encoding="utf-8")
        assert load_scenario(path) == builtin_presets()["example1"]
        assert load_scenario(str(path)) == builtin_presets()["example1"]

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("no_such_file.txt")


class TestBuilder:
    def test_excessive_growth_rejected(self):
        spec = replace(builtin_presets()["example1"], growth_c0=3.0)
        with pytest.raises(AssumptionViolation):
            build_params(spec)

    def test_wide_kernel_esd_is_certified_unique(self):
        # a very wide kernel flattens the rows of K, which is singular to
        # working precision; growth_c0 = 0 keeps the net-rate assumption
        # satisfiable. Every trait goes extinct, so the ESD f = 0 is unique
        # whatever K's rank, and the solve does not warn
        spec = replace(builtin_presets()["example1"], sigma_K=5.0, growth_c0=0.0)
        params, _ = build_without_warning(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            esd = solve_esd(params)
        assert not np.any(esd.f_tilde)
        assert esd.f_unique

    def test_builds_without_an_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("build_params took an SVD of K")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        params, _ = build_without_warning(replace(builtin_presets()["example1"], N=640))
        assert params.K.shape == (640, 640)

    def test_solve_esd_takes_no_svd_of_K(self, monkeypatch):
        # the uniqueness certificate looks at the rows of K on the support only
        params, _ = build_without_warning(replace(builtin_presets()["example1"], N=640))
        svd = np.linalg.svd

        def small_svd(a, *args, **kwargs):
            assert a.shape[0] < params.N, f"solve_esd took an SVD of a {a.shape} matrix"
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", small_svd)
        assert solve_esd(params).f_unique

    def test_validate_params_does_not_scan_K(self, monkeypatch):
        # the model checked K, and took its maximum, when it was built; the initial
        # state is what is left
        params, state0 = build_without_warning(replace(builtin_presets()["example1"], N=640))

        def vector_only(scan):
            def scan_a_vector(x, *args, **kwargs):
                assert np.ndim(x) < 2, f"validate_params scanned a {np.shape(x)} array"
                return scan(x, *args, **kwargs)
            return scan_a_vector

        class Maximum:  # np.maximum, whose reduce takes no matrix
            __call__ = staticmethod(np.maximum)
            reduce = staticmethod(vector_only(np.maximum.reduce))

        for name in ("isfinite", "max", "amax"):
            monkeypatch.setattr(np, name, vector_only(getattr(np, name)))
        monkeypatch.setattr(np, "maximum", Maximum())
        constants = validate_params(params, state0)
        assert constants.gamma > 0
        assert constants.K_M == float(np.asarray(params.K).max())

    @settings(max_examples=40)
    @given(st.integers(1, 700), st.floats(0.01, 10.0), st.floats(-3.0, 3.0),
           st.floats(0.01, 5.0))
    def test_K_has_the_bits_of_its_one_expression(self, N, L, center, sigma_K):
        # a = -1 keeps every net rate negative, and a wide supply keeps Rstar > 0
        spec = replace(builtin_presets()["example1"], N=N, L=L, center=center,
                       sigma_K=sigma_K, sigma_star=5.0, growth_c2=0.0, growth_c0=-1.0)
        params, _ = build_params(spec)
        x = trait_grid(spec)
        K = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * sigma_K**2)) / (
            math.sqrt(2 * math.pi) * sigma_K)
        assert np.array_equal(params.K.view(np.uint64), K.view(np.uint64))
        assert params.K.flags.owndata and not params.K.flags.writeable

    def test_an_unknown_scheme_is_refused_naming_the_schemes(self):
        with pytest.raises(ValidationError,
                           match=re.escape("must be one of ('semi', 'implicit')")) as err:
            replace(builtin_presets()["example1"], scheme="leapfrog")
        assert err.value.field == "scheme"

    def test_zero_initial_species(self):
        spec = replace(
            builtin_presets()["n1-closedform"],
            initial_f_kind="zero", initial_f_amp=None, initial_f_sigma=None,
        )
        _params, state0 = build_params(spec)
        assert np.array_equal(state0.f, np.zeros(1))

    def test_spec_validation_direct(self):
        with pytest.raises(ValidationError) as err:
            replace(builtin_presets()["example1"], dt=-1.0)  # building the spec checks it
        assert err.value.field == "dt"
        with pytest.raises(ValidationError):
            save_scenario(replace(builtin_presets()["example1"], scheme="leapfrog"))
