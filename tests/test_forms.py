"""The dense Laguerre form: one Laguerre parameter per form, a fixed shape."""

import sys

import numpy as np
import pytest

import diracpl
from diracpl import forms
from diracpl.basis import PhysicalParams
from diracpl.cli import main
from diracpl.forms import LaguerreForm, integrate_product
from diracpl.orthopoly import laguerre_functions
from diracpl.quadrature import RadialMeasure
from diracpl.solution import solve

# The four residual-grid base configurations: (A, mu, kappa, eps).
GRID_BASES = {
    "a": (3.0, -2.0, 1, 1),
    "b": (1.0, -1.5, -3, 1),
    "c": (1.0, 2.0, -1, 1),
    "eps-minus": (2.0, 0.5, -1, -1),
}


@pytest.mark.parametrize("label", sorted(GRID_BASES))
def test_shapes_do_not_depend_on_roundoff_in_mu(label):
    # terms that cancel in exact arithmetic must not change the form's size:
    # the shapes at mu and one ulp to either side agree
    A, mu, kappa, eps = GRID_BASES[label]

    def shapes(mu_value):
        sol = solve(PhysicalParams(A=A, mu=mu_value, kappa=kappa, eps=eps), N=80)
        forms = [sol.form_plus, sol.form_minus, *sol.d_dr_forms.values(),
                 *sol.d2_dr2_forms.values()]
        return [f.coef.shape for f in forms]

    reference = shapes(mu)
    for direction in (-np.inf, np.inf):
        assert shapes(float(np.nextafter(mu, direction))) == reference


# ---------------------------------------------------------------------------
# Laguerre tables kept at rule nodes

MEASURE = RadialMeasure(beta=1.5, omega=0.7)


def _form(nu, cols, rows=2, power=0.25, seed=0):
    coef = np.random.default_rng(seed).standard_normal((rows, cols))
    return LaguerreForm(power, nu, coef)


def _untabled(fa, fb, extra_power=0.0):
    """integrate_product with fresh laguerre_functions values for both forms."""
    rest = fa.power + fb.power + extra_power - 1.0 + 1.0 / MEASURE.beta
    order = forms.quadrature_order(fa.poly_degree + fb.poly_degree)
    rule = forms._cached_rule(order, rest + (fa.nu + fb.nu) / 2.0)
    fa_x, fb_x = (f._stripped_on(laguerre_functions(f.coef.shape[-1] - 1, f.nu, rule.nodes),
                                 rule.nodes) for f in (fa, fb))
    return MEASURE.jacobian_prefactor * np.dot(rule.weights * rule.nodes ** rest, fa_x * fb_x)


@pytest.fixture
def tables(monkeypatch):
    fresh = forms._RuleTables(forms.TABLE_BYTES)
    monkeypatch.setattr(forms, "_TABLES", fresh)
    return fresh


def _assert_tables_consistent(tables):
    held = list(tables._tables.values())
    assert tables.nbytes == sum(t.nbytes for t in held) <= tables.max_bytes


def test_table_extends_to_a_higher_degree_bit_for_bit(tables):
    # both forms have degree 30, so every product takes the same rule
    low, high = _form(1.5, 4, rows=28, seed=1), _form(1.5, 30, seed=2)
    values = [integrate_product(low, low, MEASURE),
              integrate_product(low, high, MEASURE),
              integrate_product(high, low, MEASURE)]
    assert values == [_untabled(low, low), _untabled(low, high), _untabled(high, low)]
    (table,) = tables._tables.values()
    order = forms.quadrature_order(60)
    nodes = forms._cached_rule(order, 0.5 - 1.0 + 1.0 / MEASURE.beta + 1.5).nodes
    assert np.array_equal(table, laguerre_functions(29, 1.5, nodes))
    assert np.array_equal(table[:4], laguerre_functions(3, 1.5, nodes))


def test_two_nu_on_one_rule_keep_separate_tables(tables):
    # the rule exponent holds (nu_a + nu_b)/2, so the second product keeps the
    # pair of parameters: its nu = 2 table is refilled to more columns (fb and
    # fc share the degree 15, so both products take one order)
    fa, fb, fc = _form(0.5, 12, seed=3), _form(2.0, 9, rows=8, seed=4), _form(2.0, 15, seed=5)
    assert integrate_product(fa, fb, MEASURE) == _untabled(fa, fb)
    assert integrate_product(fa, fc, MEASURE) == _untabled(fa, fc)
    assert sorted(key[2] for key in tables._tables) == [0.5, 2.0]


def test_values_hold_after_eviction(monkeypatch):
    tables = forms._RuleTables(max_bytes=3 * 12 * 20 * 8)  # three 12-column order-20 tables
    monkeypatch.setattr(forms, "_TABLES", tables)
    family = [_form(nu, 12, seed=i) for i, nu in enumerate((0.5, 1.0, 1.5, 2.0, 2.5))]
    assert forms.quadrature_order(2 * family[0].poly_degree) == 20
    for _ in range(2):
        for fa in family:
            assert integrate_product(fa, fa, MEASURE) == _untabled(fa, fa)
            _assert_tables_consistent(tables)
    assert len(tables._tables) == 3
    # a hit makes a table the most recent, so the next fill evicts another one
    a, b, c, d = family[:4]
    for f in (a, b, c, a, d):
        integrate_product(f, f, MEASURE)
    assert [key[2] for key in tables._tables] == [c.nu, a.nu, d.nu]


def test_table_bytes_stay_within_the_bound_over_fresh_rules(tables):
    fa = _form(1.0, 40, seed=5)
    for i in range(200):
        extra = 0.01 * (i + 1)  # a new rule exponent, so a new rule, each time
        assert (integrate_product(fa, fa, MEASURE, extra_power=extra)
                == _untabled(fa, fa, extra))
        _assert_tables_consistent(tables)
    assert tables.nbytes > forms.TABLE_BYTES // 2


def test_order_is_not_an_argument():
    # the order follows from the degree; a fourth positional argument is refused
    # rather than read as extra_power, and an extra_power that leaves the
    # envelope without an integrable weight is refused by name
    fa = _form(1.0, 5)
    with pytest.raises(TypeError):
        integrate_product(fa, fa, MEASURE, 40)
    with pytest.raises(ValueError, match="is not integrable"):
        integrate_product(fa, fa, MEASURE, extra_power=-5.0)


def test_repeated_verify_computes_no_laguerre_values_in_integrals(tmp_path, monkeypatch,
                                                                  capsys, tables):
    modules = [m for name, m in sys.modules.items() if name.startswith(diracpl.__name__)]
    original = forms.integrate_product
    depth, inside = [0], []

    def counted(*args, **kwargs):
        inside.append(depth[0] > 0)
        return laguerre_functions(*args, **kwargs)

    def integral(*args, **kwargs):
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    wrappers = {"laguerre_functions": (laguerre_functions, counted),
                "integrate_product": (original, integral)}
    for module in modules:
        for name, (fn, wrapper) in wrappers.items():
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, wrapper)
    argv = ["verify", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "40",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert any(inside)
    inside.clear()
    assert main(argv) == 0
    assert inside and not any(inside)


# ---------------------------------------------------------------------------
# batches

def test_batch_integral_is_the_gram_of_its_entries(tables):
    rng = np.random.default_rng(9)
    fa = LaguerreForm(0.25, 1.5, rng.standard_normal((4, 2, 9)))
    fb = LaguerreForm(1.25, 1.5, rng.standard_normal((3, 2, 7)))
    gram = integrate_product(fa, fb, MEASURE)
    pairwise = np.array([[integrate_product(LaguerreForm(fa.power, fa.nu, a),
                                            LaguerreForm(fb.power, fb.nu, b), MEASURE)
                          for b in fb.coef] for a in fa.coef])
    assert gram.shape == (4, 3)
    assert np.max(np.abs(gram - pairwise)) <= 1e-14 * np.max(np.abs(pairwise))
    row = integrate_product(fa, LaguerreForm(fb.power, fb.nu, fb.coef[1]), MEASURE)
    assert row.shape == (4,) and np.allclose(row, gram[:, 1], rtol=1e-14, atol=0.0)
    assert len(tables._tables) == 1  # one Laguerre table serves every pair
