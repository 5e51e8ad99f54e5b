"""Localizers, localized powers, and the bracket identity verifications."""

from fractions import Fraction
from math import factorial

import pytest
from opalg_helpers import substitute_phi_unit

from stratakit import exactalg, localize, opalg
from stratakit.exactalg import bound_scan_a
from stratakit.localize import (
    build_N,
    build_Rp_phi,
    extract_delta,
    verify_gamma_expansion,
    verify_localizer_bracket,
    verify_stirling_identity,
    verify_x2_bracket,
)
from stratakit.opalg import build_model, commutator, one, phi, rr

TABLE = exactalg.a_table_recurrence(40)


def _direct_N(j, k, table):
    """N_j = sum a[j][j'] M^j'/j'! built from opalg products, with no memo."""
    m = build_model(k).M
    op = opalg.zero()
    for jp in range(j + 1):
        op = op + (table.entry(j, jp) / factorial(jp)) * m ** jp
    return op


class TestLocalizerConstruction:
    def test_n0_is_identity(self):
        assert build_N(0, 2, TABLE).op == one()

    def test_n1(self):
        m = build_model(2).M
        assert build_N(1, 2, TABLE).op == m - one()

    def test_n2(self):
        m = build_model(3).M
        expected = one() - Fraction(3, 2) * m + Fraction(1, 2) * (m * m)
        assert build_N(2, 3, TABLE).op == expected

    def test_table_too_small_rejected(self):
        small = exactalg.a_table_recurrence(2)
        with pytest.raises(ValueError):
            build_N(5, 2, table=small)

    def test_memo_keeps_tables_apart(self):
        base = exactalg.a_table_recurrence(4)
        entries = dict(base.entries)
        entries[(3, 1)] += 1
        perturbed = exactalg.CoeffTable(4, entries, base.provenance)
        changed = build_N(3, 2, perturbed).op
        assert changed == _direct_N(3, 2, perturbed)
        assert changed != _direct_N(3, 2, base)
        assert build_N(3, 2, TABLE).op == _direct_N(3, 2, base)

    def test_adding_to_a_returned_localizer_leaves_the_next_one_intact(self):
        expected = _direct_N(4, 3, TABLE)
        op = build_N(4, 3, TABLE).op
        op += opalg.tvar()
        assert op != expected
        assert build_N(4, 3, TABLE).op == expected


class TestLocalizedPower:
    def test_p0_is_phi(self):
        assert build_Rp_phi(0, 2, TABLE) == phi(0)

    def test_p1_expansion(self):
        m = build_model(2).M
        expected = phi(0) * rr() + phi(1) * (m - one())
        assert build_Rp_phi(1, 2, TABLE) == expected

    @pytest.mark.parametrize("p", [0, 1, 3, 6])
    def test_collapses_to_plain_power_where_cutoff_is_one(self, p):
        op = substitute_phi_unit(build_Rp_phi(p, 2, TABLE))
        assert op == rr() ** p

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_direct_product_sum(self, k):
        table = exactalg.a_table_recurrence(6)
        for p in range(7):
            parts = [build_N(j, k, table).op for j in range(p + 1)]
            expected = opalg.zero()
            for j in range(p + 1):
                expected = expected + phi(j) * _direct_N(j, k, table) * rr() ** (p - j)
            assert localize._localized(parts, p) == expected
            assert build_Rp_phi(p, k, table) == localize._localized(parts, p)


class TestX2LocalizerBracket:
    def test_j1_by_hand(self):
        m = build_model(2)
        n1 = build_N(1, 2, TABLE).op
        assert commutator(m.X2, n1) == -(opalg.tvar(2) * rr())

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_residual_through_j10(self, k):
        report = verify_localizer_bracket(10, k, TABLE)
        assert report["pass"]
        assert all(c["residual_terms"] == 0 for c in report["cases"])

    def test_report_shape(self):
        report = verify_localizer_bracket(3, 2, TABLE)
        assert report["identity"] == "x2-localizer-bracket"
        assert [c["j"] for c in report["cases"]] == [1, 2, 3]


class TestX2LocalizedPowerBracket:
    def test_p0_single_bracket(self):
        m = build_model(3)
        lhs = commutator(m.X2, phi(0))
        assert lhs == opalg.tvar(3) * phi(1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_zero_residual_through_p10(self, k):
        report = verify_x2_bracket(10, k, TABLE)
        assert report["pass"]

    def test_bracket_is_single_phi_term(self):
        # telescoping leaves only the phi^(p+1) N_p term: no monomial of the
        # bracket contains a phi derivative of order <= p
        k, p = 2, 5
        m = build_model(k)
        bracket = commutator(m.X2, build_Rp_phi(p, k, TABLE))
        for (_, phis, _, _, _) in bracket.terms:
            assert phis == (p + 1,)


class TestDeltaExtraction:
    def test_p1_bracket_by_hand(self):
        m = build_model(2)
        bracket = commutator(m.X1, build_Rp_phi(1, 2, TABLE))
        assert bracket == Fraction(1, 2) * (phi(1) * opalg.dt())

    def test_leading_delta_is_minus_one_over_k(self):
        for k in (2, 3, 5):
            report = extract_delta(3, k, TABLE)
            assert Fraction(report["delta"][0]) == Fraction(-1, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_structural_pass_and_p_independence(self, k):
        report = extract_delta(8, k, TABLE)
        assert report["pass"]
        assert report["delta_p_independent"]
        assert all(c["residual_terms"] == 0 for c in report["cases"])

    def test_hand_derived_head_values(self):
        # independent oracle: delta_0 = -1/k, delta_1 = 1/(2k) + 1/(2k^2),
        # delta_2 = -1/(3k) - 1/(2k^2) - 1/(6k^3), derived by expanding the
        # bracket polynomials over the localizer basis by hand
        for k in (2, 3, 4):
            got = [Fraction(v) for v in extract_delta(4, k, TABLE)["delta"]]
            assert got[0] == Fraction(-1, k)
            assert got[1] == Fraction(1, 2 * k) + Fraction(1, 2 * k * k)
            assert got[2] == (
                Fraction(-1, 3 * k) - Fraction(1, 2 * k * k) - Fraction(1, 6 * k ** 3)
            )

    def test_bounded_by_one(self):
        assert extract_delta(8, 2, TABLE)["delta_abs_le_1"]

    def test_planted_basis_coefficient_fails_structural_check(self, monkeypatch):
        # X1 N_1 carries 1/2 t Dt^2 at k = 2, off the pivot Dt; 5/6 there in
        # block 2 leaves delta_0 (5/6 - 1/2) = -1/6 t phi^(2) Dt^2 in the p = 2
        # residual and nothing else moves.  The blocks are the only list handed
        # to _localized that is all zero on a valid table.
        real = localize._localized

        def planted(parts, q):
            if q == 2 and all(part.is_zero for part in parts):
                slip = opalg.DiffOp({(1, (), 2, 0, 0): Fraction(-1, 2) * Fraction(1, 3)})
                parts = [*parts[:2], parts[2] + slip, *parts[3:]]
            return real(parts, q)

        monkeypatch.setattr(localize, "_localized", planted)
        report = extract_delta(4, 2, TABLE)
        failed = [c for c in report["cases"] if not c["pass"]]
        assert [c["p"] for c in failed] == [2]
        assert failed[0]["residual_terms"] == 1
        assert failed[0]["offending_monomials"] == ["-1/6 * t φ^(2) ∂t^2"]
        assert report["delta_p_independent"] and report["closed_form"]["matches"]
        assert report["pass"] is False

    def test_bracket_off_its_relabelling_fails_p_independence(self, monkeypatch):
        # phi^(1) added to every bracket whose right operand carries a phi: the
        # [X1, N_j] carry none, so delta and every block stay exact and only the
        # level-p brackets formed in the algebra move off their relabelling
        real = localize.commutator

        def planted(a, b):
            out = real(a, b)
            return out + phi(1) if any(key[1] for key in b.terms) else out

        monkeypatch.setattr(localize, "commutator", planted)
        report = extract_delta(4, 2, TABLE)
        assert report["delta_p_independent"] is False and report["pass"] is False
        assert all(c["pass"] for c in report["cases"])
        assert report["closed_form"]["matches"] and report["delta_abs_le_1"]

    def test_neither_printed_convention_matches(self):
        report = extract_delta(6, 2, TABLE)
        comparison = report["convention_comparison"]
        assert not comparison["positive"]["matches"]
        assert not comparison["alternating"]["matches"]
        # the shifted alternating form reproduces delta_0 only
        assert comparison["alternating-shifted"]["first_mismatch"] == 1

    def test_central_binomial_pattern_for_k2(self):
        # at k = 2 the extracted values are alternating central-binomial
        # ratios: |delta_l| = C(2l+2, l+1)/4^(l+1)
        from math import comb

        got = [Fraction(v) for v in extract_delta(6, 2, TABLE)["delta"]]
        for ell, value in enumerate(got):
            expected = Fraction(comb(2 * ell + 2, ell + 1), 4 ** (ell + 1))
            assert abs(value) == expected
            assert (value < 0) == (ell % 2 == 0)


class TestGammaExpansion:
    def test_j1_single_term(self):
        for k in (2, 3):
            report = verify_gamma_expansion(1, k, TABLE)
            assert [Fraction(v) for v in report["gamma"]] == [Fraction(-1, k)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_exact_expansion_through_j8(self, k):
        report = verify_gamma_expansion(8, k, TABLE)
        assert report["pass"]
        assert report["gamma_j_independent"]

    @pytest.mark.parametrize("ell", [1, 4, 7])
    def test_planted_diagonal_entry_fails_scalar_identity(self, ell):
        # left minus right of the scalar identity is gamma_(j-l) (1 - a[l][l])
        entries = dict(TABLE.entries)
        entries[(ell, ell)] = Fraction(2)
        table = exactalg.CoeffTable(TABLE.jmax, entries, TABLE.provenance)
        report = verify_gamma_expansion(8, 2, table)
        failed = [c["j"] for c in report["cases"] if not c["scalar_identity"]]
        assert failed == list(range(ell + 1, 9))
        assert report["pass"] is False

    @pytest.mark.parametrize("k", [2, 3])
    def test_gamma_reproduces_operator_delta(self, k):
        gamma = [Fraction(v) for v in verify_gamma_expansion(7, k, TABLE)["gamma"]]
        delta = [Fraction(v) for v in extract_delta(7, k, TABLE)["delta"]]
        assert gamma == delta


class TestStirlingIdentity:
    def test_j2(self):
        report = verify_stirling_identity(2)
        assert report["pass"]

    def test_j3_row(self):
        expansion = (opalg.tvar() * opalg.dt()) ** 3
        assert expansion.terms[(1, (), 1, 0, 0)] == 1
        assert expansion.terms[(2, (), 2, 0, 0)] == 3
        assert expansion.terms[(3, (), 3, 0, 0)] == 1

    def test_through_j15(self):
        report = verify_stirling_identity(15)
        assert report["pass"]
        assert all(c["row_positive_integers"] for c in report["cases"])

    def test_factorial_row_sum_rate_bounded(self):
        report = verify_stirling_identity(15)
        assert all(c["factorial_row_sum_rate"] < 4.0 for c in report["cases"])


class TestBoundScan:
    def test_row_two_max(self):
        scan = bound_scan_a(4, TABLE)
        row2 = next(e for e in scan["per_j_max"] if e["j"] == 2)
        assert row2["max_abs"] == "3/2"

    def test_row_zero(self):
        scan = bound_scan_a(2, TABLE)
        assert scan["per_j_max"][0]["max_abs"] == "1/1"

    def test_rate_bounded_by_four_through_40(self):
        scan = bound_scan_a(40, TABLE)
        assert 0 < scan["c_min_empirical"] <= 4.0

    def test_rejects_tiny_jmax(self):
        with pytest.raises(ValueError):
            bound_scan_a(1, TABLE)

    def test_fails_on_fast_growth(self):
        base = exactalg.a_table_recurrence(2)
        entries = dict(base.entries)
        entries[(2, 1)] = Fraction(100)
        table = exactalg.CoeffTable(2, entries, base.provenance)
        scan = bound_scan_a(2, table)
        assert scan["c_min_empirical"] == pytest.approx(10.0)
        assert scan["pass"] is False


@pytest.mark.parametrize("k", [2, 3])
def test_phi_unit_collapse_is_consistent_on_both_sides(k):
    # substituting phi == 1 must collapse the verified identities coherently
    m = build_model(k)
    p = 4
    lhs = substitute_phi_unit(commutator(m.X2, build_Rp_phi(p, k, TABLE)))
    rhs = substitute_phi_unit(opalg.tvar(k) * phi(p + 1) * build_N(p, k, TABLE).op)
    assert lhs.is_zero and rhs.is_zero
    lhs1 = substitute_phi_unit(commutator(m.X1, build_Rp_phi(p, k, TABLE)))
    assert lhs1.is_zero
