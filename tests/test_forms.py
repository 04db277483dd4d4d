"""The dense Laguerre form: one Laguerre parameter per form, a fixed shape."""

import numpy as np
import pytest

from diracpl.basis import PhysicalParams
from diracpl.forms import LaguerreForm
from diracpl.solution import solve

# The four residual-grid base configurations: (A, mu, kappa, eps).
GRID_BASES = {
    "a": (3.0, -2.0, 1, 1),
    "b": (1.0, -1.5, -3, 1),
    "c": (1.0, 2.0, -1, 1),
    "eps-minus": (2.0, 0.5, -1, -1),
}


def test_adding_forms_with_different_nu_raises():
    f = LaguerreForm(0.5, 1.0, [[0.0, 0.0, 1.0]])
    g = LaguerreForm(0.5, 2.0, [[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="different Laguerre parameters"):
        f + g


def test_adding_forms_with_non_integer_power_offset_raises():
    f = LaguerreForm(0.5, 1.0, [[1.0]])
    with pytest.raises(ValueError, match="not an integer"):
        f + f.shifted(0.5)


@pytest.mark.parametrize("label", sorted(GRID_BASES))
def test_shapes_do_not_depend_on_roundoff_in_mu(label):
    # terms that cancel in exact arithmetic must not change the form's size:
    # the shapes at mu and one ulp to either side agree
    A, mu, kappa, eps = GRID_BASES[label]

    def shapes(mu_value):
        sol = solve(PhysicalParams(A=A, mu=mu_value, kappa=kappa, eps=eps), N=80)
        forms = [sol.form_plus, sol.form_minus, *sol.d_dr_forms["+"], *sol.d_dr_forms["-"]]
        return [f.coef.shape for f in forms]

    reference = shapes(mu)
    for direction in (-np.inf, np.inf):
        assert shapes(float(np.nextafter(mu, direction))) == reference
