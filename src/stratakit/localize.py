"""Localizer operators and machine verification of their bracket identities.

Builds the localizers N_j (polynomials in M = (t/k) d/dt with the triangular
coefficients a[j][j']) and the localized powers

    R^p_phi = sum_{j=0}^{p} phi^(j) N_j R^(p-j)

(each N_j once per (k, table row); R^p_phi and its shifted families by
relabelling the keys of the N_j), then verifies, as exact zero-residual
identities in the free operator algebra:

* the telescoping bracket [X2, N_j] = -t^k N_{j-1} R,
* the single-term bracket [X2, R^p_phi] = t^k phi^(p+1) N_p,
* the expansion [X1, R^p_phi] = -X1 sum_l delta_l R^(p-l-1)_phi^(l+1),
  where the delta_l are *extracted* from the bracket (they are the unique
  coefficients making the expansion exact) and then compared against the
  printed closed-form candidates,
* the scalar expansion of the X1-bracket polynomial over the N_s basis
  (the gamma coefficients), and
* the Stirling identity (t d/dt)^j = sum_l B[j][l] t^l (d/dt)^l.

Each verifier returns a JSON-ready report dict: status, parameters, residual
term counts, and any extracted rational values rendered as "num/den" strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import exactalg, opalg
from .exactalg import CoeffTable, fmt_fraction
from .opalg import DiffOp, build_model, commutator

__all__ = [
    "LocalizerN",
    "build_N",
    "build_Rp_phi",
    "verify_localizer_bracket",
    "verify_x2_bracket",
    "extract_delta",
    "verify_gamma_expansion",
    "verify_stirling_identity",
    "bound_scan_a",
]

_MAX_REPORTED_MONOMIALS = 20


def _residual_case(residual: DiffOp) -> dict:
    case = {"residual_terms": len(residual), "pass": residual.is_zero}
    if not residual.is_zero:
        keys = sorted(residual.terms)[:_MAX_REPORTED_MONOMIALS]
        case["offending_monomials"] = [
            f"{fmt_fraction(residual.terms[k])} * {opalg._render_key(k)}" for k in keys
        ]
    return case


# every caller reads .op, but perfbench/traced_cli.py reads .j and .k of build_N results
@dataclass(frozen=True)
class LocalizerN:
    """N_j = sum_{j'} a[j][j'] M^{j'}/j'! for one fixed degeneracy order k."""

    j: int
    k: int
    op: DiffOp


_M_POWERS: dict[int, list[DiffOp]] = {}  # k -> [M^0, M^1, ...]
_N_OPS: dict[tuple, DiffOp] = {}  # (k, row j of the table) -> N_j


def build_N(j: int, k: int, table: CoeffTable) -> LocalizerN:
    """Assemble the localizer N_j from a validated coefficient table."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if table.jmax < j:
        raise ValueError(f"coefficient table too small: jmax={table.jmax} < j={j}")
    key = (k, table.row(j))
    if key not in _N_OPS:
        powers = _M_POWERS.setdefault(k, [opalg.one()])
        while len(powers) <= j:
            powers.append(powers[-1] * build_model(k).M)
        terms = ((a_j_jp / factorial(jp)) * powers[jp] for jp, a_j_jp in enumerate(key[1]))
        _N_OPS[key] = sum(terms, opalg.zero())
    return LocalizerN(j=j, k=k, op=_N_OPS[key])


def _localized(parts: list[DiffOp], q: int, m: int) -> DiffOp:
    """sum_{j<=q} phi^(j+m) parts[j] R^(q-j); parts free of phi and R just get relabelled."""
    terms = {}
    for j in range(q + 1):
        for (a, _, b, _, d), c in parts[j].terms.items():
            terms[(a, (j + m,), b, q - j, d)] = c
    return DiffOp._of(terms)


def build_Rp_phi(p: int, k: int, table: CoeffTable) -> DiffOp:
    """R^p_phi = sum_j phi^(j) N_j R^(p-j)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return _localized([build_N(j, k, table).op for j in range(p + 1)], p, 0)


def verify_localizer_bracket(jmax: int, k: int, table: CoeffTable) -> dict:
    """Check [X2, N_j] + t^k N_{j-1} R == 0 exactly for 1 <= j <= jmax."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    model = build_model(k)
    tk = opalg.tvar(k)
    cases = []
    for j in range(1, jmax + 1):
        previous = build_N(j - 1, k, table).op
        residual = commutator(model.X2, build_N(j, k, table).op) + tk * previous * model.R
        cases.append({"j": j, **_residual_case(residual)})
    return {
        "identity": "x2-localizer-bracket",
        "statement": "[X2, N_j] + t^k N_(j-1) R == 0",
        "k": k,
        "jmax": jmax,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def verify_x2_bracket(pmax: int, k: int, table: CoeffTable) -> dict:
    """Check [X2, R^p_phi] - t^k phi^(p+1) N_p == 0 exactly for p <= pmax."""
    if pmax < 0:
        raise ValueError("pmax must be >= 0")
    model = build_model(k)
    tk = opalg.tvar(k)
    cases = []
    for p in range(pmax + 1):
        rp = build_Rp_phi(p, k, table)
        np_op = build_N(p, k, table).op
        residual = commutator(model.X2, rp) - tk * opalg.phi(p + 1) * np_op
        cases.append({"p": p, **_residual_case(residual)})
    return {
        "identity": "x2-localized-power-bracket",
        "statement": "[X2, R^p_phi] - t^k phi^(p+1) N_p == 0",
        "k": k,
        "pmax": pmax,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def _delta_candidates(count: int, k: int) -> dict[str, list[Fraction]]:
    """The printed closed-form candidates, index-aligned and shifted by one."""
    out = {}
    for convention in ("positive", "alternating"):
        aligned = [exactalg.delta_closed_form(ell, k, convention) for ell in range(count)]
        shifted = [exactalg.delta_closed_form(ell + 1, k, convention) for ell in range(count)]
        out[convention] = aligned
        out[convention + "-shifted"] = shifted
    return out


def _compare_candidate(extracted: list[Fraction], candidate: list[Fraction]) -> dict:
    first_mismatch = None
    for idx, (a, b) in enumerate(zip(extracted, candidate)):
        if a != b:
            first_mismatch = idx
            break
    return {
        "values": [fmt_fraction(v) for v in candidate],
        "matches": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }


def extract_delta(pmax: int, k: int, table: CoeffTable) -> dict:
    """Solve [X1, R^p_phi] = -X1 sum_l delta_l R^(p-l-1)_phi^(l+1) for delta.

    The basis operators X1 R^(p-l-1)_phi^(l+1) hit the pivot monomials
    phi^(l+1) Dt R^(p-l-1) unitriangularly, so the delta_l are extracted by
    forward substitution; the full residual is then required to vanish
    exactly (the structural claim), the extracted values must not depend on
    p, and |delta_l| <= 1 is checked.  The comparison against both printed
    closed-form conventions (at both index alignments) is recorded — it is
    documentation, not a pass criterion, because the printed forms disagree
    with each other.
    """
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    model = build_model(k)
    cases = []
    deltas_by_p: dict[int, list[Fraction]] = {}
    # X1 = Dt commutes with phi and R: X1 R^q_phi^(m) is built from the X1 N_j
    x1_localizers = [model.X1 * build_N(j, k, table).op for j in range(pmax)]
    for p in range(1, pmax + 1):
        residual = commutator(model.X1, build_Rp_phi(p, k, table))
        deltas: list[Fraction] = []
        for ell in range(p):
            pivot = (0, (ell + 1,), 1, p - ell - 1, 0)
            delta_ell = -residual.terms.get(pivot, Fraction(0))
            deltas.append(delta_ell)
            if delta_ell:
                basis = _localized(x1_localizers, p - ell - 1, ell + 1)
                residual = residual + delta_ell * basis
        deltas_by_p[p] = deltas
        cases.append({"p": p, **_residual_case(residual)})
    reference = deltas_by_p[pmax]
    p_independent = all(
        deltas_by_p[p] == reference[:p] for p in range(1, pmax + 1)
    )
    bounded = all(abs(d) <= 1 for d in reference)
    comparison = {
        name: _compare_candidate(reference, values)
        for name, values in _delta_candidates(len(reference), k).items()
    }
    structural = all(c["pass"] for c in cases)
    return {
        "identity": "x1-localized-power-bracket",
        "statement": "[X1, R^p_phi] + X1 sum_l delta_l R^(p-l-1)_phi^(l+1) == 0",
        "k": k,
        "pmax": pmax,
        "cases": cases,
        "delta": [fmt_fraction(d) for d in reference],
        "delta_p_independent": p_independent,
        "delta_abs_le_1": bounded,
        "convention_comparison": comparison,
        "pass": structural and p_independent and bounded,
    }


def _x1_bracket_poly(j: int, k: int, table: CoeffTable) -> list[Fraction]:
    """Coefficients (in M^s) of -[X1, N_j] stripped of its left X1 factor."""
    coeffs = [Fraction(0)] * j
    for jp in range(1, j + 1):
        a_j_jp = table.entry(j, jp)
        if a_j_jp == 0:
            continue
        for ell in range(1, jp + 1):
            s = jp - ell
            a_h = Fraction(-1, k) ** ell / factorial(ell)
            coeffs[s] += a_j_jp * a_h / factorial(s)
    return coeffs


def verify_gamma_expansion(jmax: int, k: int, table: CoeffTable) -> dict:
    """Expand the scalar X1-bracket polynomial over the localizer basis.

    For each j the degree-(j-1) polynomial sum a[j][j'] (-1/k)^l M^(j'-l)/..
    is written as sum_{s<j} gamma_{j-s} N_s(M); the N_s are unitriangular in
    degree so the gamma are unique.  Checks: the gamma do not depend on j,
    they satisfy the equivalent per-(j,l) scalar identity
    sum_h a[j][l+h] (-1/k)^h/h! = sum_h delta_(j-l-h) a[l+h-1][l] with
    delta_m = gamma_(m+1).  ``cli.run_verify`` checks that they reproduce the
    operator-extracted delta.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    gamma_by_j: dict[int, list[Fraction]] = {}
    cases = []
    for j in range(1, jmax + 1):
        coeffs = _x1_bracket_poly(j, k, table)
        gamma = [Fraction(0)] * (j + 1)  # gamma[m] for m = 1..j
        for s in range(j - 1, -1, -1):
            acc = coeffs[s] * factorial(s)
            for sp in range(s + 1, j):
                acc -= gamma[j - sp] * table.entry(sp, s)
            gamma[j - s] = acc
        gamma_by_j[j] = gamma[1:]
        # per-(j, l) scalar identity with delta_m = gamma_(m+1)
        identity_ok = True
        for ell in range(1, j):
            lhs = sum(
                (
                    table.entry(j, ell + h) * Fraction(-1, k) ** h / factorial(h)
                    for h in range(1, j - ell + 1)
                ),
                Fraction(0),
            )
            rhs = sum(
                (
                    gamma[j - ell - h + 1] * table.entry(ell + h - 1, ell)
                    for h in range(1, j - ell + 1)
                ),
                Fraction(0),
            )
            if lhs != rhs:
                identity_ok = False
                break
        cases.append({"j": j, "scalar_identity": identity_ok, "pass": identity_ok})
    reference = gamma_by_j[jmax]
    j_independent = all(
        gamma_by_j[j] == reference[:j] for j in range(1, jmax + 1)
    )
    return {
        "identity": "x1-bracket-gamma-expansion",
        "statement": "sum a[j][j'] (-1/k)^l M^(j'-l)/(l! (j'-l)!) == sum gamma_(j-s) N_s",
        "k": k,
        "jmax": jmax,
        "cases": cases,
        "gamma": [fmt_fraction(g) for g in reference],
        "gamma_j_independent": j_independent,
        "pass": j_independent and all(c["pass"] for c in cases),
    }


def verify_stirling_identity(jmax: int) -> dict:
    """Match the (t d/dt)^j expansion against the closed-form Stirling row."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    euler = opalg.tvar() * opalg.dt()
    cases = []
    power = opalg.one()
    for j in range(1, jmax + 1):
        power = power * euler
        expected = DiffOp(
            {
                (ell, (), ell, 0, 0): exactalg.stirling_B(j, ell)
                for ell in range(1, j + 1)
            }
        )
        residual = power - expected
        case = {"j": j, **_residual_case(residual)}
        row = [exactalg.stirling_B(j, ell) for ell in range(1, j + 1)]
        case["row_positive_integers"] = all(
            b >= 1 and b.denominator == 1 for b in row
        )
        row_sum = sum((b / factorial(ell + 1) for ell, b in enumerate(row)), Fraction(0))
        case["factorial_row_sum_rate"] = float(row_sum) ** (1.0 / j)
        case["pass"] = case["pass"] and case["row_positive_integers"]
        cases.append(case)
    return {
        "identity": "euler-power-stirling-expansion",
        "statement": "(t Dt)^j == sum_l B[j][l] t^l Dt^l",
        "jmax": jmax,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def bound_scan_a(jmax: int, table: CoeffTable) -> dict:
    """Empirical exponential-growth scan of the coefficient table.

    Returns the least c with max_l |a[j][l]| <= c^j over 2 <= j <= jmax,
    together with the per-j sequence m_j^(1/j), and passes when c <= 4.  The
    sequence need not be monotone.
    """
    if jmax < 2:
        raise ValueError("jmax must be >= 2")
    per_j = []
    c_min = 0.0
    for j in range(jmax + 1):
        m_j = max(abs(table.entry(j, jp)) for jp in range(j + 1))
        rate = float(m_j) ** (1.0 / j) if j >= 1 else float(m_j)
        per_j.append({"j": j, "max_abs": fmt_fraction(m_j), "rate": rate})
        if j >= 2:
            c_min = max(c_min, rate)
    return {
        "identity": "coefficient-growth-scan",
        "jmax": jmax,
        "c_min_empirical": c_min,
        "per_j_max": per_j,
        "pass": c_min <= 4.0,
    }
