"""Every boolean that feeds a ``pass`` can be false: one planted fault per flag.

Each row names a flag and runs the check that reports it, with or without
a planted fault (a table entry, a closed form or a kernel result).  The clean
run must report the flag and the check's ``pass`` as true, and the planted
run both as false.  A walk over the reports of ``report-all --quick`` fails
on any boolean key that no row names.
"""

import json
from fractions import Fraction

import pytest

from stratakit import cli, cutoff, exactalg, geometry, localize, opalg


def _table(jmax, key, shift):
    table = exactalg.a_table_recurrence(jmax)
    entries = dict(table.entries)
    entries[key] += shift
    return exactalg.CoeffTable(jmax, entries, table.provenance)


def _gamma_j_independent(plant, monkeypatch, tmp_path):
    # an off-diagonal entry moves the gamma of rows j >= 3 only
    report = localize.verify_gamma_expansion(8, 2, _table(8, (3, 1), Fraction(plant, 7)))
    return report, report


def _delta_abs_le_1(plant, monkeypatch, tmp_path):
    report = localize.extract_delta(8, 2, _table(8, (2, 1), 100 * plant))
    return report, report


def _delta_p_independent(plant, monkeypatch, tmp_path):
    # phi^(1) added to every bracket whose right operand carries a phi: the
    # [X1, N_j] carry none, so delta and every block stay exact
    real = localize.commutator

    def planted(a, b):
        out = real(a, b)
        return out + opalg.phi(1) if any(key[1] for key in b.nums) else out

    if plant:
        monkeypatch.setattr(localize, "commutator", planted)
    report = localize.extract_delta(4, 2, exactalg.a_table_recurrence(4))
    return report, report


def _row_positive_integers(plant, monkeypatch, tmp_path):
    # B[3][2] = 3 planted as 5/2, in both the expected operator and the row
    closed = localize.stirling_B
    if plant:
        monkeypatch.setattr(
            localize, "stirling_B",
            lambda j, ell: Fraction(5, 2) if (j, ell) == (3, 2) else closed(j, ell),
        )
    report = localize.verify_stirling_identity(4)
    return report["cases"][2], report


def _cli_report(argv, plant, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "-o", str(out)]) == plant
    report = json.loads(out.read_text())
    return report, report


def _norm_x_monotone(plant, monkeypatch, tmp_path):
    # the fifth step halves x once; every other step is the true RK4 step
    step, calls = geometry._rk4_step, []

    def planted(y, *args):
        calls.append(None)
        y = step(y, *args)
        return (y[0] / 2, y[1] / 2, y[2], y[3]) if len(calls) == 5 else y

    if plant:
        monkeypatch.setattr(geometry, "_rk4_step", planted)
    return _cli_report(["flow", "--t-end", "0.1"], plant, tmp_path)


def _uniform_within_factor_2(plant, monkeypatch, tmp_path):
    # the first band (N = 4, k = 1) reads a constant 100 times its own
    check_band = cutoff.derivative_bound_check
    seen = []

    def planted(band):
        check = check_band(band)
        seen.append(band)
        if len(seen) == 1:
            check = {**check, "C_measured": 100 * check["C_measured"]}
        return check

    if plant:
        monkeypatch.setattr(cutoff, "derivative_bound_check", planted)
    report = cutoff.bound_check_grid(1, 2, 64)
    return report, report


def _gamma_reproduces_delta(plant, monkeypatch, tmp_path):
    # the gamma kernel's last value, gamma_6, off by 1/7; its own checks still pass
    expand = localize.verify_gamma_expansion

    def planted(jmax, k, table):
        report = expand(jmax, k, table)
        *head, last = report["gamma"]
        return {**report, "gamma": [*head, exactalg.fmt_fraction(Fraction(last) + Fraction(1, 7))]}

    if plant:
        monkeypatch.setattr(localize, "verify_gamma_expansion", planted)
    return _cli_report(["verify", "--k", "2", "--jmax", "6", "--pmax", "6"], plant, tmp_path)


def _bernoulli_identity(plant, monkeypatch, tmp_path):
    # the band inverse's last coefficient, c_8, off by 1; the printed head is unchanged
    solve = exactalg.matrix_inverse_coeffs

    def planted(m_max):
        coeffs = solve(m_max)
        coeffs[-1] += 1
        return coeffs

    if plant:
        monkeypatch.setattr(exactalg, "matrix_inverse_coeffs", planted)
    return _cli_report(["coeffs", "--jmax", "8"], plant, tmp_path)


def _generating_entry_moved(plant, monkeypatch, tmp_path):
    # a[3][1] of the generating route's table off by 1/7: the routes disagree,
    # and the relation fails on that table at rows 3 and 4
    build = exactalg.a_table_generating

    def planted(jmax):
        table = build(jmax)
        entries = {**table.entries, (3, 1): table.entries[(3, 1)] + Fraction(1, 7)}
        return exactalg.CoeffTable(jmax, entries, table.provenance)

    if plant:
        monkeypatch.setattr(exactalg, "a_table_generating", planted)
    return _cli_report(["coeffs", "--jmax", "8"], plant, tmp_path)


def _bernoulli_coefficient_moved(plant, monkeypatch, tmp_path):
    # B_4/4! off by 1/7 in the series the generating route reads, and there
    # alone: that route's table leaves the closed form from row 3 on
    build, series = exactalg.a_table_generating, exactalg.bernoulli_generator

    def moved(order):
        return tuple(c + Fraction(1, 7) if m == 4 else c for m, c in enumerate(series(order)))

    def planted(jmax):
        with monkeypatch.context() as patch:
            patch.setattr(exactalg, "bernoulli_generator", moved)
            return build(jmax)

    if plant:
        monkeypatch.setattr(exactalg, "a_table_generating", planted)
    return _cli_report(["coeffs", "--jmax", "8"], plant, tmp_path)


def _closed_form_matches(plant, monkeypatch, tmp_path):
    # the closed form C(-1/k, l+1) at l = 2 off by 1/7; the extracted delta are untouched
    closed = localize.binomial
    if plant:
        monkeypatch.setattr(
            localize, "binomial",
            lambda a, n: closed(a, n) + (Fraction(1, 7) if n == 3 else 0),
        )
    report = localize.extract_delta(6, 2, exactalg.a_table_recurrence(6))
    return report["closed_form"], report


def _scalar_identity(plant, monkeypatch, tmp_path):
    # the diagonal entry a[2][2] = 2: row j = 3 reads gamma_1 (1 - a[2][2]) != 0
    report = localize.verify_gamma_expansion(6, 2, _table(6, (2, 2), plant))
    return report["cases"][2], report


# (test id, flag, fault); a flag may have more than one row
FAULTS = [
    ("gamma_j_independent", "gamma_j_independent", _gamma_j_independent),
    ("delta_abs_le_1", "delta_abs_le_1", _delta_abs_le_1),
    ("delta_p_independent", "delta_p_independent", _delta_p_independent),
    ("row_positive_integers", "row_positive_integers", _row_positive_integers),
    ("norm_x_monotone", "norm_x_monotone", _norm_x_monotone),
    ("uniform_within_factor_2", "uniform_within_factor_2", _uniform_within_factor_2),
    ("gamma_reproduces_delta", "gamma_reproduces_delta", _gamma_reproduces_delta),
    ("bernoulli_identity", "bernoulli_identity", _bernoulli_identity),
    ("dual_route_agree", "dual_route_agree", _generating_entry_moved),
    ("recurrence_holds", "recurrence_holds", _generating_entry_moved),
    ("dual_route_agree-bernoulli-coefficient", "dual_route_agree", _bernoulli_coefficient_moved),
    ("matches", "matches", _closed_form_matches),
    ("scalar_identity", "scalar_identity", _scalar_identity),
]


@pytest.mark.parametrize("flag, fault", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_planted_fault_makes_the_flag_and_pass_false(flag, fault, monkeypatch, tmp_path):
    holder, report = fault(0, monkeypatch, tmp_path)
    assert holder[flag] is True and report["pass"] is True
    holder, report = fault(1, monkeypatch, tmp_path)
    assert holder[flag] is False and report["pass"] is False


def _boolean_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, bool):
                yield key
            yield from _boolean_keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _boolean_keys(value)


def test_every_boolean_of_report_all_has_a_fault_row(tmp_path, capsys):
    # ``pass`` is what each row checks beside its flag; the summary's section
    # flags are the sections' own ``pass``
    assert cli.main(["report-all", "--quick", "--outdir", str(tmp_path)]) == 0
    seen = set()
    for path in sorted(tmp_path.glob("*.json")):
        if path.name != "summary.json":
            seen.update(_boolean_keys(json.loads(path.read_text())))
    assert "scalar_identity" in seen and "norm_x_monotone" in seen
    assert sorted(seen - {"pass"} - {row[1] for row in FAULTS}) == []
