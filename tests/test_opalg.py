"""Normal-ordered operator algebra: rewrite rules, brackets, model fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from opalg_helpers import derivation_order, reference_product, substitute_phi_unit

from stratakit import opalg
from stratakit.opalg import (
    DiffOp,
    build_model,
    commutator,
    dt,
    dtheta,
    one,
    phi,
    rr,
    tvar,
)


def test_leibniz_rule():
    assert dt() * tvar() == tvar() * dt() + one()


def test_radial_field_differentiates_phi():
    assert rr() * phi(0) == phi(0) * rr() + phi(1)


def test_euler_square():
    lhs = (tvar() * dt()) ** 2
    rhs = tvar() * dt() + tvar(2) * dt() ** 2
    assert lhs == rhs


def test_phi_symbols_commute():
    assert commutator(phi(2), phi(5)).is_zero
    assert commutator(tvar(), phi(1)).is_zero
    assert commutator(dt(), phi(3)).is_zero
    assert commutator(dtheta(), phi(0)).is_zero


def test_commuting_generator_pairs():
    for a, b in [(dt(), rr()), (dt(), dtheta()), (rr(), dtheta()), (rr(), tvar())]:
        assert commutator(a, b).is_zero


class TestModel:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_basic_bracket(self, k):
        m = build_model(k)
        assert commutator(m.X1, m.X2) == k * (tvar(k - 1) * rr())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_radial_field_commutes_with_both(self, k):
        m = build_model(k)
        assert commutator(m.R, m.X1).is_zero
        assert commutator(m.R, m.X2).is_zero

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_x2_m_bracket(self, k):
        m = build_model(k)
        assert commutator(m.X2, m.M) == -(tvar(k) * rr())

    def test_m_x2_bracket_is_tk_R_not_R(self):
        # the reversed bracket carries the t^k factor: it is not the plain
        # radial field, which would contradict [X2, M] = -t^k R
        m = build_model(2)
        assert commutator(m.M, m.X2) == tvar(2) * rr()
        assert commutator(m.M, m.X2) != rr()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_m_x1_bracket(self, k):
        m = build_model(k)
        assert commutator(m.M, m.X1) == Fraction(-1, k) * m.X1

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            build_model(1)


class TestAdCalculus:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ad_m_power_rescales_x1(self, k):
        m = build_model(k)
        ad = m.X1
        for ell in range(11):
            assert ad == (Fraction(-1, k) ** ell) * m.X1
            ad = commutator(m.M, ad)

    def test_double_ad_x1_on_x2(self):
        m = build_model(2)
        assert commutator(m.X1, commutator(m.X1, m.X2)) == 2 * rr()


# small random operators keep hypothesis products cheap
_coeffs = st.integers(min_value=-3, max_value=3)
_keys = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(
        lambda v: tuple(sorted(v))
    ),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)
_ops = st.dictionaries(_keys, _coeffs, min_size=1, max_size=3).map(DiffOp)


@given(_ops, _ops, _ops)
@settings(max_examples=60, deadline=None)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_ops, _ops, _ops)
@settings(max_examples=60, deadline=None)
def test_jacobi_identity(a, b, c):
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.is_zero


@given(_ops, _ops, _ops)
@settings(max_examples=40, deadline=None)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(_ops, _ops)
@settings(max_examples=60, deadline=None)
def test_product_coefficients_are_fractions(a, b):
    assert all(type(c) is Fraction for c in (a * b).terms.values())


# non-unit denominators and signs, so that the integer-numerator kernels must
# scale, cancel and reduce
_rational_ops = st.dictionaries(
    _keys,
    st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool),
    min_size=1,
    max_size=4,
).map(DiffOp)


def _exact_terms(op):
    return all(type(c) is Fraction and c != 0 for c in op.terms.values())


@given(_rational_ops, _rational_ops)
@settings(max_examples=120, deadline=None)
def test_product_and_commutator_match_fraction_reference(a, b):
    ab, ba = reference_product(a, b), reference_product(b, a)
    assert a * b == ab and _exact_terms(a * b)
    assert commutator(a, b) == ab - ba and _exact_terms(commutator(a, b))


def test_kernels_match_reference_on_mixed_operators_that_cancel():
    # every generator, denominators 2..15, and terms that cancel in the sums
    a = (
        Fraction(3, 4) * tvar(2) * phi(1) * dt() * rr() ** 2
        + Fraction(-5, 6) * phi(0) * phi(2) * rr() * dtheta()
        + Fraction(7, 15) * tvar() * dt() ** 2
    )
    b = (
        Fraction(2, 9) * tvar(3) * phi(0) * rr()
        + Fraction(-1, 10) * dt() * dtheta()
        + Fraction(4, 7) * phi(3)
    )
    for left, right in ((a, b), (b, a), (a, a), (a + b, a - b), (a, -a)):
        product, bracket = left * right, commutator(left, right)
        assert product == reference_product(left, right) and _exact_terms(product)
        expected = reference_product(left, right) - reference_product(right, left)
        assert bracket == expected and _exact_terms(bracket)
    assert commutator(a, a).is_zero and (a * -a + a * a).is_zero
    # [Dt/3, 3/4 t^2 phi^(1)] keeps only its normal-ordering correction
    bracket = commutator(Fraction(1, 3) * dt(), Fraction(3, 4) * tvar(2) * phi(1))
    assert bracket == Fraction(1, 2) * tvar() * phi(1)


@given(_ops, _ops)
@settings(max_examples=60, deadline=None)
def test_commutator_lowers_derivation_order(a, b):
    bound = derivation_order(a) + derivation_order(b) - 1
    c = commutator(a, b)
    if not c.is_zero:
        assert derivation_order(c) <= bound


def test_derivation_order_bound_on_model_fields():
    m = build_model(3)
    assert derivation_order(commutator(m.X1, m.X2)) == 1
    assert derivation_order(commutator(m.X2, m.M)) == 1


def test_monomial_report_form():
    # the form in which a failed residual's offending_monomials are listed
    assert opalg._render_key((2, (1,), 2, 1, 0)) == "t^2 φ^(1) ∂t^2 R"
    assert opalg._render_key((1, (0, 3), 1, 2, 2)) == "t φ^(0) φ^(3) ∂t R^2 ∂θ^2"
    assert opalg._render_key((0, (), 0, 0, 0)) == "1"


def test_phi_unit_substitution_collapses():
    op = phi(0) * rr() ** 2 + phi(1) * dt() + phi(0) * phi(0) * tvar()
    collapsed = substitute_phi_unit(op)
    assert collapsed == rr() ** 2 + tvar()


def test_scalar_and_pow_edges():
    assert (dt() ** 0) == one()
    with pytest.raises(ValueError):
        dt() ** -1
    with pytest.raises(ValueError):
        phi(-1)
