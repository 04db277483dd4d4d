"""Shared parameter sets and builders for the test suite.

The sets cover all three representations, both signs of beta and rho, and
both |rho| branches of the a/b recursions."""

import numpy as np
import pytest

from diracpl.basis import PhysicalParams, derived_params, select_representation
from diracpl.forms import LaguerreForm

# (label, physical kwargs, select_representation kwargs)
PARAM_SETS = [
    ("a_rho2", dict(A=3.0, mu=-2.0, kappa=1), dict(omega=1.0)),
    ("a_rho_small", dict(A=3.0, mu=-2.0, kappa=1), dict(omega=1.5)),
    ("a_neg_beta", dict(A=-2.0, mu=3.0, kappa=-3), dict()),
    ("b_rho2", dict(A=1.0, mu=3.0, kappa=2), dict()),
    ("b_rho_small", dict(A=1.0, mu=3.0, kappa=2), dict(omega=0.5)),
    ("b_pos_beta", dict(A=1.0, mu=-1.5, kappa=-3), dict()),
    ("c_rho_minus", dict(A=1.0, mu=2.0, kappa=-1), dict()),
    ("c_rho_plus", dict(A=-1.0, mu=2.0, kappa=-1), dict()),
    ("c_requested", dict(A=2.0, mu=3.0, kappa=1), dict(rep="c")),
]

CASE_IDS = [c[0] for c in PARAM_SETS]


def build_case(label):
    phys_kw, sel_kw = next((p, s) for (name, p, s) in PARAM_SETS if name == label)
    phys = PhysicalParams(**phys_kw)
    basis = select_representation(phys, **sel_kw)
    return phys, basis


@pytest.fixture(params=CASE_IDS)
def case(request):
    phys, basis = build_case(request.param)
    return phys, basis, derived_params(basis, phys)


def add_forms(*forms):
    """The sum of single forms on one Laguerre parameter with integer power
    offsets, added left to right, each pair aligned on its lower power."""
    total = forms[0]
    for form in forms[1:]:
        low, high = sorted((total, form), key=lambda f: f.power)
        k = round(high.power - low.power)
        (lr, lc), (hr, hc) = low.coef.shape, high.coef.shape
        out = np.zeros((max(lr, k + hr), max(lc, hc)))
        out[:lr, :lc] += low.coef
        out[k:k + hr, :hc] += high.coef
        total = LaguerreForm(low.power, total.nu, out)
    return total


def r_window(basis, num=25, lo=0.05, hi=20.0):
    """Radial probe grid spanning omega*r in [lo, hi]."""
    return np.geomspace(lo, hi, num) / basis.omega
