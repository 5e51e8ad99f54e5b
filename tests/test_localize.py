"""Localizers, localized powers, and the bracket identity verifications."""

from fractions import Fraction
from math import factorial

import pytest
from opalg_helpers import build_Rp_phi, substitute_phi_unit

from stratakit import exactalg, localize, opalg
from stratakit.exactalg import bound_scan_a
from stratakit.localize import (
    build_N,
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

    def test_every_k_and_the_stirling_check_read_one_euler_chain(self, monkeypatch):
        # once N_j is built through j = 12 at k = 2, neither N_j at k = 3 nor
        # the Stirling check through 12 forms a product: both read its powers
        table = exactalg.a_table_recurrence(12)
        for j in range(13):
            build_N(j, 2, table)
        products, real = [], opalg._product
        monkeypatch.setattr(opalg, "_product", lambda *args: products.append(args) or real(*args))
        localizers = [build_N(j, 3, table).op for j in range(13)]
        stirling = verify_stirling_identity(12)
        assert products == []
        assert stirling["pass"]
        assert localizers == [_direct_N(j, 3, table) for j in range(13)]

    def test_one_unit_in_a_cached_numerator_fails_both_x2_checks(self):
        # N_3 moved by 1/den on its t^3 Dt^3 monomial: [X2, N_3] and t^k N_3 R
        # move, so the bracket checks at j = 3, 4 and every p >= 3 fail
        table = exactalg.a_table_recurrence(6)
        k, j = 2, 3
        n3 = build_N(j, k, table).op
        key = (3, (), 3, 0, 0)
        try:
            planted = opalg.DiffOp._over(n3.den, {**n3.nums, key: n3.nums[key] + 1})
            localize._N_OPS[(k, table, j)] = planted
            assert build_N(j, k, table).op - n3 == opalg.DiffOp({key: Fraction(1, n3.den)})
            x2 = verify_x2_bracket(6, k, table)
            localizer = verify_localizer_bracket(6, k, table)
        finally:
            localize._N_OPS.clear()
        for report, index, failing in ((x2, "p", [3, 4, 5, 6]), (localizer, "j", [3, 4])):
            assert report["pass"] is False
            assert [c[index] for c in report["cases"] if not c["pass"]] == failing
            assert all((c["residual_terms"] > 0) != c["pass"] for c in report["cases"])
        assert verify_x2_bracket(6, k, table)["pass"]


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

    @pytest.mark.parametrize("k", [2, 3, 1000])
    def test_matches_direct_product_sum(self, k):
        table = exactalg.a_table_recurrence(6)
        for p in range(7):
            parts = [build_N(j, k, table).op for j in range(p + 1)]
            expected = opalg.zero()
            for j in range(p + 1):
                expected = expected + phi(j) * _direct_N(j, k, table) * rr() ** (p - j)
            assert localize._localized(parts, p) == expected
            assert build_Rp_phi(p, k, table) == localize._localized(parts, p)
            # a part that carries its own R keeps it: the relabelling adds p - j
            assert localize._localized([n * rr() for n in parts], p) == expected * rr()


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


def _planted(jmax, key, shift):
    table = exactalg.a_table_recurrence(jmax)
    entries = dict(table.entries)
    entries[key] += shift
    return exactalg.CoeffTable(jmax, entries, table.provenance)


PLANTED_ENTRIES = [((3, 1), Fraction(1, 7)), ((2, 2), 1), ((5, 0), Fraction(-2, 3))]
# (6, 4) and (0, 0) join the X2 bracket tests, and (0, 0) the gamma test too:
# of row 0 the gamma expansion reads only the diagonal check's a[0][0]
X2_PLANTED_ENTRIES = [*PLANTED_ENTRIES, ((6, 4), Fraction(3, 5)), ((0, 0), Fraction(1, 2))]


def _x2_report_oracle(pmax, k, table):
    """verify_x2_bracket with one commutator over the whole of R^p_phi per level."""
    m = build_model(k)
    cases = []
    for p in range(pmax + 1):
        residual = commutator(m.X2, build_Rp_phi(p, k, table)) - (
            opalg.tvar(k) * phi(p + 1) * build_N(p, k, table).op
        )
        cases.append({"p": p, **localize._residual_case(residual)})
    return {
        "identity": "x2-localized-power-bracket",
        "statement": "[X2, R^p_phi] - t^k phi^(p+1) N_p == 0",
        "k": k,
        "pmax": pmax,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


class TestX2LocalizedPowerBracket:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_whole_operand_bracket_is_the_single_term_through_p12(self, k):
        # the bracket over the whole of R^p_phi is t^k phi^(p+1) N_p, p + 1
        # monomials, and the relabelled report is the whole-operand one
        table = exactalg.a_table_recurrence(12)
        m, tk = build_model(k), opalg.tvar(k)
        for p in range(13):
            bracket = commutator(m.X2, build_Rp_phi(p, k, table))
            assert bracket == tk * phi(p + 1) * build_N(p, k, table).op
            assert len(bracket) == p + 1
        report = verify_x2_bracket(12, k, table)
        assert report == _x2_report_oracle(12, k, table) and report["pass"]

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("key, shift", [(None, 0), *X2_PLANTED_ENTRIES])
    @pytest.mark.parametrize("pmax", [0, 1, 4, 10])
    def test_planted_entry_reports_equal_the_whole_operand_loop(self, k, key, shift, pmax):
        # a planted a[i][c] moves t^k N_i R, so res_(i+1), and [X2, N_i] too unless
        # c = 0 (a constant commutes with X2): every level from i (c > 0) or i + 1 fails
        table = exactalg.a_table_recurrence(10) if key is None else _planted(10, key, shift)
        first = pmax + 1 if key is None else key[0] + (key[1] == 0)
        report = verify_x2_bracket(pmax, k, table)
        assert report == _x2_report_oracle(pmax, k, table)
        assert [c["p"] for c in report["cases"] if not c["pass"]] == list(range(first, pmax + 1))
        assert any("offending_monomials" in c for c in report["cases"]) is not report["pass"]
        m, tk = build_model(k), opalg.tvar(k)
        localizer = verify_localizer_bracket(max(pmax, 1), k, table)
        for case in localizer["cases"]:
            j = case["j"]
            residual = commutator(m.X2, build_N(j, k, table).op) + (
                tk * build_N(j - 1, k, table).op * m.R
            )
            assert case == {"j": j, **localize._residual_case(residual)}

    def test_planted_generator_bracket_fails_the_x2_check_alone(self, monkeypatch):
        # [X2, phi^(2)] gains t phi^(3): the defect t phi^(3) N_2 R^(p-2) is each
        # level's whole residual from p = 2 on, and no per-j residual reads a phi
        real = localize.commutator
        m = build_model(2)

        def planted(a, b):
            out = real(a, b)
            return out + opalg.tvar() * phi(3) if a == m.X2 and b == phi(2) else out

        monkeypatch.setattr(localize, "commutator", planted)
        table = exactalg.a_table_recurrence(6)
        report = verify_x2_bracket(6, 2, table)
        assert report["pass"] is False
        assert [c["p"] for c in report["cases"] if not c["pass"]] == [2, 3, 4, 5, 6]
        defect = opalg.tvar() * phi(3) * build_N(2, 2, table).op
        for case in report["cases"][2:]:
            expected = localize._residual_case(defect * rr() ** (case["p"] - 2))
            assert case == {"p": case["p"], **expected}
        assert verify_localizer_bracket(6, 2, table)["pass"]

    @pytest.mark.parametrize("k", [2, 3])
    def test_x2_that_does_not_commute_with_r_fails_every_level_from_1(self, monkeypatch, k):
        # X2 + phi^(0): phi^(0) commutes with every phi^(j) and N_j, so each g_j
        # and res_j is zero, but [X2, R] = -phi^(1) adds sum_j phi^(j) N_j [X2, R^(p-j)]
        # to the whole bracket from p = 1 on
        real = localize.build_model
        monkeypatch.setattr(
            localize, "build_model", lambda k: real(k)._replace(X2=real(k).X2 + phi(0))
        )
        table = exactalg.a_table_recurrence(6)
        m, tk = localize.build_model(k), opalg.tvar(k)
        assert commutator(m.X2, m.R) == -phi(1)
        report = verify_x2_bracket(6, k, table)
        assert report["pass"] is False
        assert [c["p"] for c in report["cases"] if not c["pass"]] == [1, 2, 3, 4, 5, 6]
        for case in report["cases"]:
            p = case["p"]
            residual = commutator(m.X2, build_Rp_phi(p, k, table)) - (
                tk * phi(p + 1) * build_N(p, k, table).op
            )
            assert case == {"p": p, **localize._residual_case(residual)}
        assert verify_localizer_bracket(6, k, table)["pass"]

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


def _p_independent_oracle(pmax, k, table):
    """extract_delta's delta_p_independent with one commutator over the whole of
    R^p_phi per level; ``localize.commutator`` and ``localize.build_model`` are
    read at call time, so a planted commutator or model reaches it."""
    x1 = localize.build_model(k).X1
    brackets = [localize.commutator(x1, build_N(j, k, table).op) for j in range(pmax + 1)]
    return all(
        localize.commutator(x1, build_Rp_phi(p, k, table)) == localize._localized(brackets, p)
        for p in range(1, pmax + 1)
    )


class TestDeltaExtraction:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_whole_operand_bracket_is_the_relabelling_through_p12(self, k):
        # X1 commutes with R and every phi^(j), so the bracket over the whole of
        # R^p_phi is the relabelled sum_j phi^(j) [X1, N_j] R^(p-j)
        table = exactalg.a_table_recurrence(12)
        m = build_model(k)
        assert commutator(m.X1, m.R).is_zero
        assert all(commutator(m.X1, phi(j)).is_zero for j in range(13))
        brackets = [commutator(m.X1, build_N(j, k, table).op) for j in range(13)]
        for p in range(13):
            bracket = commutator(m.X1, build_Rp_phi(p, k, table))
            assert bracket == localize._localized(brackets, p)
        assert extract_delta(12, k, table)["delta_p_independent"] is True

    def test_x1_that_differentiates_phi_fails_p_independence(self, monkeypatch):
        # X1 = Dt + R: [X1, R] = 0 but [X1, phi^(j)] = phi^(j+1), so the whole
        # bracket gains sum_j phi^(j+1) N_j R^(p-j) off the relabelling
        real = localize.build_model
        monkeypatch.setattr(localize, "build_model", lambda k: real(k)._replace(X1=opalg.dt() + rr()))
        table = exactalg.a_table_recurrence(6)
        report = extract_delta(6, 2, table)
        assert report["delta_p_independent"] is _p_independent_oracle(6, 2, table) is False
        assert report["pass"] is False

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("key, shift", [(None, 0), *PLANTED_ENTRIES])
    def test_p_independence_equals_the_whole_operand_loop(self, k, key, shift):
        table = exactalg.a_table_recurrence(10) if key is None else _planted(10, key, shift)
        report = extract_delta(10, k, table)
        assert report["delta_p_independent"] is _p_independent_oracle(10, k, table) is True
        assert report["pass"] is (key is None)

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
        assert _p_independent_oracle(4, 2, TABLE) is False
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


def _gamma_report_oracle(jmax, k, table):
    """verify_gamma_expansion with one Fraction operation per step."""
    gamma_by_j, cases = {}, []
    for j in range(1, jmax + 1):
        coeffs = [Fraction(0)] * j  # -[X1, N_j] / X1 over the basis M^s/s!
        for jp in range(1, j + 1):
            for ell in range(1, jp + 1):
                coeffs[jp - ell] += table.entry(j, jp) * Fraction(-1, k) ** ell / factorial(ell)
        gamma = [Fraction(0)] * (j + 1)
        for s in range(j - 1, -1, -1):
            acc = coeffs[s]
            for sp in range(s + 1, j):
                acc -= gamma[j - sp] * table.entry(sp, s)
            gamma[j - s] = acc
        gamma_by_j[j] = gamma[1:]
        ok = all(gamma[j - ell] * (1 - table.entry(ell, ell)) == 0 for ell in range(j))
        cases.append({"j": j, "scalar_identity": ok, "pass": ok})
    reference = gamma_by_j[jmax]
    independent = all(gamma_by_j[j] == reference[:j] for j in range(1, jmax + 1))
    return {
        "identity": "x1-bracket-gamma-expansion",
        "statement": "sum a[j][j'] (-1/k)^l M^(j'-l)/(l! (j'-l)!) == sum gamma_(j-s) N_s",
        "k": k,
        "jmax": jmax,
        "cases": cases,
        "gamma": [exactalg.fmt_fraction(g) for g in reference],
        "gamma_j_independent": independent,
        "pass": independent and all(c["pass"] for c in cases),
    }


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

    @pytest.mark.parametrize("ell", [1, 4, 7, 0])
    def test_planted_diagonal_entry_fails_scalar_identity(self, ell):
        # left minus right of the scalar identity is gamma_(j-l) (1 - a[l][l])
        entries = dict(TABLE.entries)
        entries[(ell, ell)] = Fraction(2)
        table = exactalg.CoeffTable(TABLE.jmax, entries, TABLE.provenance)
        report = verify_gamma_expansion(8, 2, table)
        failed = [c["j"] for c in report["cases"] if not c["scalar_identity"]]
        assert failed == list(range(ell + 1, 9))
        assert report["pass"] is False

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("key, shift", [(None, 0), *PLANTED_ENTRIES, ((0, 0), Fraction(1, 2))])
    def test_integer_back_substitution_equals_the_fraction_loop(self, k, key, shift):
        table = TABLE if key is None else _planted(12, key, shift)
        report = verify_gamma_expansion(12, k, table)
        assert report == _gamma_report_oracle(12, k, table)
        assert report["pass"] is (key is None)

    @pytest.mark.parametrize("k", [2, 3])
    def test_non_integer_q_entry_fails_j_independence(self, k):
        # a[4][2] + 1/5 makes q[4][2] = a[4][2] 4!/2! gain 12/5: no integer, so
        # it stays a Fraction through the back-substitution of rows j >= 4
        table = _planted(10, (4, 2), Fraction(1, 5))
        den, ints = table.rows[4]
        assert ints[2] * 12 % den
        report = verify_gamma_expansion(10, k, table)
        assert report["gamma_j_independent"] is False and report["pass"] is False
        assert report == _gamma_report_oracle(10, k, table)

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
