"""solve_esd and verify_esd reject unusable inputs up front, naming the argument."""

import numpy as np
import pytest

from helpers import n1_instance
from rclab import DimensionMismatch, ValidationError, solve_esd, verify_esd


@pytest.mark.parametrize("f_init", [[np.nan], [np.inf]])
def test_nonfinite_start_rejected(f_init):
    params, _ = n1_instance()
    with pytest.raises(ValidationError, match="'f_init'"):
        solve_esd(params, f_init=np.array(f_init))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, "1", "x", True])
@pytest.mark.parametrize("solver", [
    solve_esd, lambda params, tol: verify_esd(params, np.ones(1), np.ones(1), tol=tol),
], ids=["solve_esd", "verify_esd"])
def test_tol_must_be_positive_and_finite(solver, tol):
    params, _ = n1_instance()
    with pytest.raises(ValidationError, match="'tol'"):
        solver(params, tol=tol)


@pytest.mark.parametrize("maxit", ["x", True, 2.0])
def test_maxit_must_be_an_int(maxit):
    params, _ = n1_instance()
    with pytest.raises(ValidationError, match="'maxit'"):
        solve_esd(params, maxit=maxit)


@pytest.mark.parametrize("f,R", [(np.ones(2), np.ones(1)), (np.ones(1), np.ones(2))])
def test_verify_esd_checks_the_shapes_of_f_and_R(f, R):
    params, _ = n1_instance()
    with pytest.raises(DimensionMismatch, match="expected shape"):
        verify_esd(params, f, R, tol=1e-8)
