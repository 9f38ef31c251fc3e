"""solve_esd rejects unusable inputs up front, naming the argument."""

import numpy as np
import pytest

from helpers import n1_instance
from rclab import ValidationError, solve_esd


@pytest.mark.parametrize("f_init", [[np.nan], [np.inf]])
def test_nonfinite_start_rejected(f_init):
    params, _ = n1_instance()
    with pytest.raises(ValidationError, match="'f_init'"):
        solve_esd(params, f_init=np.array(f_init))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_tol_must_be_positive_and_finite(tol):
    params, _ = n1_instance()
    with pytest.raises(ValidationError, match="'tol'"):
        solve_esd(params, tol=tol)
