"""Exact coefficient engines: oracles, boundary identities, serialization."""

import json
import operator
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import exactalg, geometry, opalg
from stratakit.exactalg import (
    CoeffTable,
    a_table_generating,
    a_table_recurrence,
    bernoulli_generator,
    coeff_table_to_json,
    matrix_inverse_coeffs,
)
from stratakit.localize import _delta_candidates, binomial, stirling_B


def divide_t_by_expm1(order: int) -> list[Fraction]:
    """Independent oracle: long-divide the series t by (e^t - 1).

    Solves sum_i q_i * f_(m-i) = [m == 1] for the quotient q, with
    f_m = 1/m! the coefficients of e^t - 1 (f_0 = 0).
    """
    f = [Fraction(0)] + [Fraction(1, factorial(m)) for m in range(1, order + 2)]
    q = []
    for m in range(order + 1):
        rhs = Fraction(1 if m + 1 == 1 else 0)
        acc = sum((q[i] * f[m + 1 - i] for i in range(m)), Fraction(0))
        q.append((rhs - acc) / f[1])
    return q


def read_table_json(text: str) -> tuple[int, str, dict]:
    """(jmax, provenance, entries) of a table file, read with json and Fraction alone."""
    doc = json.loads(text)
    entries = {}
    for key, value in doc["entries"]:
        j, jp = key.split("/")
        entries[(int(j), int(jp))] = Fraction(value)
    return doc["jmax"], doc["provenance"], entries


def reference_a_table(jmax: int) -> dict:
    """The a[j][j'] entries by back-substitution with one Fraction operation at a time."""
    entries = {(0, 0): Fraction(1)}
    for j in range(1, jmax + 1):
        row = [Fraction(0)] * (j + 1)
        row[0] = Fraction(-1) ** j
        for ell in range(j - 1, -1, -1):
            acc = entries[(j - 1, ell)]
            for s in range(2, j - ell + 1):
                acc -= row[ell + s] / factorial(s)
            row[ell + 1] = acc
        for jp in range(j + 1):
            entries[(j, jp)] = row[jp]
    return entries


def truncated_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The generating route's former kernel: a * b truncated at order len(a) - 1,
    both lists re-split into integer numerators on every call."""
    den_a, ints_a = exactalg._numerators(a)
    den_b, ints_b = exactalg._numerators(b)
    out = [0] * len(a)
    for i, x in enumerate(ints_a):
        for j, y in enumerate(ints_b[: len(a) - i]):
            if y:
                out[i + j] += x * y
    return [Fraction(n, den_a * den_b) for n in out]


def chained_product_table(jmax: int) -> dict:
    """The generating route's former loop: a[j][j'] read off the Fraction list
    of g^(j+1), the next power its truncated product with g."""
    g = list(bernoulli_generator(jmax))
    entries, gpow = {}, g
    for j in range(jmax + 1):
        for jp in range(j + 1):
            entries[(j, jp)] = gpow[j - jp]
        if j < jmax:
            gpow = truncated_product(gpow, g)
    return entries


class TestBernoulliGenerator:
    def test_order_four_against_long_division_oracle(self):
        expected = divide_t_by_expm1(4)
        assert expected == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        ]
        assert list(bernoulli_generator(4)) == expected

    def test_order_zero(self):
        assert bernoulli_generator(0) == (Fraction(1),)

    def test_coefficient_is_bernoulli_over_factorial(self):
        # B_6 = 1/42
        assert bernoulli_generator(6)[6] == Fraction(1, 42) / factorial(6)

    def test_matches_matrix_inverse_head(self):
        assert bernoulli_generator(1)[1] == matrix_inverse_coeffs(1)[1] == Fraction(-1, 2)

    def test_matches_the_per_order_loop_through_sixty(self):
        # the closed form summed afresh at every m: binomials and powers recomputed
        def per_order(order):
            out = []
            for m in range(order + 1):
                den = lcm(*range(1, m + 2))
                num = sum(den // (k + 1) * sum((-1) ** j * comb(k, j) * j**m for j in range(k + 1))
                          for k in range(m + 1))
                out.append(Fraction(num, den * factorial(m)))
            return tuple(out)

        assert bernoulli_generator.__wrapped__(60) == per_order(60)
        assert bernoulli_generator.__wrapped__(1) == per_order(1)

    def test_printed_bernoulli_numbers_to_order_forty(self):
        g = bernoulli_generator(40)
        printed = {
            2: Fraction(1, 6),
            4: Fraction(-1, 30),
            12: Fraction(-691, 2730),
            20: Fraction(-174611, 330),
        }
        for m, b_m in printed.items():
            assert g[m] * factorial(m) == b_m
        assert all(g[m] == 0 for m in range(3, 41, 2))


class TestCoeffTable:
    def test_jmax_one(self):
        t = a_table_recurrence(1)
        assert t.entry(0, 0) == 1
        assert t.entry(1, 0) == -1
        assert t.entry(1, 1) == 1

    def test_row_two_back_substitution(self):
        # hand solve: a22 = 1, then a21 + a22/2 = a10 = -1
        t = a_table_recurrence(2)
        assert t.entry(2, 1) == Fraction(-3, 2)
        assert t.entry(2, 2) == 1

    def test_defining_relation_recheck(self):
        assert a_table_recurrence(12).check_recurrence()

    def test_boundary_identities(self):
        t = a_table_recurrence(15)
        for j in range(16):
            assert t.entry(j, j) == 1
            assert t.entry(j, 0) == Fraction(-1) ** j

    @pytest.mark.parametrize("jmax", [0, 1, 5, 12])
    def test_dual_construction_agreement(self, jmax):
        tr = a_table_recurrence(jmax)
        tg = a_table_generating(jmax)
        assert tr.entries == tg.entries

    def test_routes_agree_entry_by_entry_at_forty(self):
        # the generating route's integer-numerator products against the closed form
        tr, tg = a_table_recurrence(40), a_table_generating(40)
        assert tg.entries.keys() == tr.entries.keys()
        for key, value in tr.entries.items():
            assert type(tg.entries[key]) is Fraction and tg.entries[key] == value

    def test_recurrence_matches_fraction_reference_at_sixty(self):
        # the closed form against back-substitution in Fractions, entry by entry
        table = a_table_recurrence(60)
        expected = reference_a_table(60)
        assert table.entries.keys() == expected.keys()
        for key, value in expected.items():
            assert type(table.entries[key]) is Fraction and table.entries[key] == value

    @given(st.data(), st.fractions().filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_check_recurrence_rejects_a_planted_entry(self, data, delta):
        # a[j][j'] enters the relation of row j (as the s = 1 term for l = j' - 1), and
        # a[j][0] is pinned to (-1)^j, so every entry of the triangle is drawn
        jmax = 12
        j = data.draw(st.integers(min_value=0, max_value=jmax))
        jp = data.draw(st.integers(min_value=0, max_value=j))
        for build in (a_table_recurrence, a_table_generating):
            table = build(jmax)
            entries = dict(table.entries)
            entries[(j, jp)] += delta
            assert table.check_recurrence()
            assert not CoeffTable(jmax, entries, table.provenance).check_recurrence()

    @pytest.mark.parametrize("jmax", [0, 1, 2, 40, 120])
    def test_generating_rows_match_the_chained_fraction_products(self, jmax):
        table = a_table_generating(jmax)
        expected = chained_product_table(jmax)
        assert table.entries == expected
        assert all(type(v) is Fraction for v in table.entries.values())
        # each row is canonical: the reduced integer form of the expected Fractions
        for j, (den, ints) in enumerate(table.rows):
            assert den > 0 and len(ints) == j + 1
            assert [Fraction(n, den) for n in ints] == [expected[(j, jp)] for jp in range(j + 1)]
            assert den == lcm(*(expected[(j, jp)].denominator for jp in range(j + 1)))

    @pytest.mark.parametrize("build", [a_table_recurrence, a_table_generating])
    def test_table_rebuilt_from_its_view_is_equal(self, build):
        t = build(30)
        u = CoeffTable(t.jmax, t.entries, t.provenance)
        assert u.rows == t.rows and u.entries == t.entries
        assert (u.jmax, u.provenance) == (t.jmax, t.provenance)
        assert all(u.entry(j, jp) == t.entry(j, jp) == t.entries[(j, jp)]
                   for j in range(31) for jp in range(j + 1))

    def test_view_is_built_once(self):
        t = a_table_recurrence(6)
        assert t.entries is t.entries

    def test_generating_entry(self):
        assert a_table_generating(2).entry(2, 1) == Fraction(-3, 2)

    def test_fields_cannot_be_reassigned(self):
        t = a_table_recurrence(2)
        for name, value in (("jmax", 3), ("entries", {}), ("provenance", "x"), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(t, name, value)
        with pytest.raises(AttributeError):
            del t.jmax
        assert (t.jmax, t.provenance) == (2, "recurrence")

    def test_equal_tables_are_distinct_keys(self):
        # localize caches its operators per table object, so tables hash by identity
        a, b = a_table_recurrence(3), a_table_recurrence(3)
        assert a.entries == b.entries and a != b
        assert len({a: 1, b: 2}) == 2
        assert CoeffTable(jmax=3, entries=a.entries, provenance="p").entries is a.entries
        assert all(a_table_generating(j).entry(j, j) == 1 for j in range(8))
        assert all(a_table_generating(j).entry(j, 0) == Fraction(-1) ** j for j in range(8))

    @given(st.integers(min_value=0, max_value=14), st.data())
    @settings(max_examples=25, deadline=None)
    def test_entry_matches_table(self, j, data):
        jp = data.draw(st.integers(min_value=0, max_value=j))
        assert a_table_generating(j).entry(j, jp) == a_table_recurrence(j).entry(j, jp)

    def test_out_of_triangle_rejected(self):
        t = a_table_recurrence(3)
        with pytest.raises(KeyError):
            t.entry(2, 3)


class TestMatrixInverseCoeffs:
    def test_printed_head_values(self):
        c = matrix_inverse_coeffs(2)
        assert c[0] == 1
        assert c[1] == Fraction(-1, 2)

    def test_c2_against_explicit_3x3_inverse(self):
        # oracle: solve the 3x3 band system [[1,1/2,1/6],[0,1,1/2],[0,0,1]] c = e1
        c2 = Fraction(1)
        c1 = -Fraction(1, 2) * c2
        c0_row = -(Fraction(1, 2) * c1 + Fraction(1, 6) * c2)
        assert matrix_inverse_coeffs(2)[2] == c0_row == Fraction(1, 12)

    def test_convolution_identity(self):
        c = matrix_inverse_coeffs(12)
        for m in range(13):
            acc = sum(
                (c[m - h] / factorial(h + 1) for h in range(m + 1)), Fraction(0)
            )
            assert acc == (1 if m == 0 else 0)

    def test_equals_bernoulli_generator(self):
        assert matrix_inverse_coeffs(40) == list(bernoulli_generator(40))

    def test_integer_solve_equals_the_fraction_loop_through_m120(self):
        # oracle: the convolution identity solved one Fraction division at a time
        coeffs = [Fraction(1)]
        for m in range(1, 121):
            acc = Fraction(0)
            for h in range(1, m + 1):
                acc += coeffs[m - h] / factorial(h + 1)
            coeffs.append(-acc)
        assert matrix_inverse_coeffs(120) == coeffs


# the closed forms from here to TestDeltaClosedForm live in localize, beside
# the operator checks that compare against them


class TestBinomial:
    def test_integer_top_is_pascal(self):
        assert [binomial(5, n) for n in range(7)] == [1, 5, 10, 10, 5, 1, 0]

    def test_negative_half_is_central_binomial_ratio(self):
        # C(-1/2, n) = (-1)^n C(2n, n) / 4^n
        for n in range(10):
            assert binomial(Fraction(-1, 2), n) == Fraction((-1) ** n * comb(2 * n, n), 4**n)

    def test_float_and_negative_order_refused(self):
        with pytest.raises(TypeError):
            binomial(0.5, 0)
        with pytest.raises(ValueError):
            binomial(Fraction(1, 3), -1)


class TestStirling:
    def test_small_closed_form(self):
        assert stirling_B(2, 1) == 1
        assert stirling_B(2, 2) == 1
        assert stirling_B(3, 2) == 3

    def test_column_one(self):
        assert all(stirling_B(j, 1) == 1 for j in range(1, 12))

    def test_against_operator_expansion(self):
        # oracle: expand (t Dt)^2 symbolically
        expansion = (opalg.tvar() * opalg.dt()) ** 2
        assert expansion.terms[(1, (), 1, 0, 0)] == stirling_B(2, 1)
        assert expansion.terms[(2, (), 2, 0, 0)] == stirling_B(2, 2)

    @given(
        st.integers(min_value=1, max_value=12),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_printed_forms_agree(self, j, data):
        ell = data.draw(st.integers(min_value=1, max_value=j))
        alt = sum(
            (
                Fraction((-1) ** m * (ell - m) ** j, factorial(m) * factorial(ell - m))
                for m in range(ell)
            ),
            Fraction(0),
        )
        assert stirling_B(j, ell) == alt

    def test_positive_integers(self):
        for j in range(1, 10):
            for ell in range(1, j + 1):
                b = stirling_B(j, ell)
                assert b.denominator == 1 and b >= 1


def printed_delta(ell, k, convention):
    """The printed candidate sum_{h=1}^{l} (+-1/k)^h/h!, read from the index-aligned list."""
    return _delta_candidates(ell + 1, k)[convention][ell]


class TestDeltaClosedForm:
    def test_empty_sum(self):
        assert printed_delta(0, 2, "positive") == 0
        assert printed_delta(0, 2, "alternating") == 0

    def test_alternating_first_term(self):
        assert printed_delta(1, 2, "alternating") == Fraction(-1, 2)

    def test_positive_two_terms_bounded(self):
        v = printed_delta(2, 2, "positive")
        assert v == Fraction(5, 8)
        assert v <= 1

    def test_positive_bounded_by_one_everywhere(self):
        for k in (2, 3, 5):
            assert all(v <= 1 for v in _delta_candidates(12, k)["positive"])

    def test_running_sums_match_direct_sums(self):
        for k in (2, 3, 5):
            candidates = _delta_candidates(8, k)
            for convention, sign in (("positive", 1), ("alternating", -1)):
                base = Fraction(sign, k)
                direct = [
                    sum((base**h / factorial(h) for h in range(1, ell + 1)), Fraction(0))
                    for ell in range(9)
                ]
                assert candidates[convention] == direct[:8]
                assert candidates[convention + "-shifted"] == direct[1:]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        t = a_table_recurrence(14)
        assert read_table_json(coeff_table_to_json(t)) == (t.jmax, t.provenance, t.entries)

    def test_round_trip_large_numerators(self):
        t = a_table_recurrence(40)
        assert read_table_json(coeff_table_to_json(t))[2] == t.entries

    def test_schema_shape(self):
        doc = json.loads(coeff_table_to_json(a_table_recurrence(2)))
        assert doc["jmax"] == 2
        assert ["0/0", "1/1"] in doc["entries"]
        assert ["2/1", "-3/2"] in doc["entries"]


class TestExactnessGuard:
    """Every exact container refuses a float coefficient instead of rounding it."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: opalg.DiffOp({(0, (), 1, 0, 0): 0.5}),
            lambda: geometry.PhasePoly({(1, 0, 0, 0, 0, 0): 0.5}),
            lambda: opalg.dt().scale(0.5),
            lambda: geometry.var("t").scale(0.5),
        ],
        ids=["DiffOp", "PhasePoly", "DiffOp.scale", "PhasePoly.scale"],
    )
    def test_float_coefficient_refused(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                             ids=["add", "sub", "mul"])
    @pytest.mark.parametrize(
        "left, right",
        [
            (geometry.var("t"), 0.5),
            (0.5, geometry.var("t")),
            (opalg.tvar(), 0.5),
            (0.5, opalg.tvar()),
            (geometry.var("t"), opalg.tvar()),
            (opalg.tvar(), geometry.var("t")),
        ],
        ids=["PhasePoly-float", "float-PhasePoly", "DiffOp-float", "float-DiffOp",
             "PhasePoly-DiffOp", "DiffOp-PhasePoly"],
    )
    def test_float_or_other_class_operand_refused(self, left, right, op):
        # no float is rounded in, and a PhasePoly never holds DiffOp keys
        with pytest.raises(TypeError):
            op(left, right)

    def test_exact_inputs_pass_through(self):
        half = Fraction(1, 2)
        assert exactalg.exact(half) is half
        assert exactalg.exact(3) == Fraction(3)
        assert exactalg.fmt_fraction(Fraction(3)) == "3/1"
