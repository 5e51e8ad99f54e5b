"""Localizer operators and machine verification of their bracket identities.

Builds the localizers N_j (polynomials in M = (t/k) d/dt with the triangular
coefficients a[j][j']) and the localized powers

    R^p_phi = sum_{j=0}^{p} phi^(j) N_j R^(p-j)

(each N_j once per (k, table, j), as one linear combination of the memoised
powers of M; R^p_phi by relabelling the keys of the N_j), then verifies, as
exact zero-residual identities in the free operator algebra:

* the telescoping bracket [X2, N_j] = -t^k N_{j-1} R,
* the single-term bracket [X2, R^p_phi] = t^k phi^(p+1) N_p,
* the expansion [X1, R^p_phi] = -X1 sum_l delta_l R^(p-l-1)_phi^(l+1):
  X1 commutes with phi and R, so every level relabels the same blocks
  phi^(j) B_j R^(p-j), one per localizer, and each delta_l is read once, from
  the Dt coefficient of block l+1.  Each block is one linear combination of
  [X1, N_j] and the X1 N_(j-l-1).  Like N_j, it is formed in one integer
  pass (``opalg._linear``), not by a chain of ``+``.  The relabelling is
  checked against the bracket formed in the algebra at every level, and the
  delta_l are required to equal the binomial closed form C(-1/k, l+1) and
  compared against the printed closed-form candidates,
* the scalar expansion of the X1-bracket polynomial over the N_s basis
  (the gamma coefficients), and
* the Stirling identity (t d/dt)^j = sum_l B[j][l] t^l (d/dt)^l.

The closed forms these checks compare against (C(a, n), the Stirling numbers
B[j][l], the printed delta candidates) live here; the coefficient table and
its own checks, the growth scan included, live in :mod:`stratakit.exactalg`.

Each verifier returns a JSON-ready report dict: status, parameters, residual
term counts, and any extracted rational values rendered as "num/den" strings.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from . import opalg
from .exactalg import CoeffTable, exact, fmt_fraction
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
    "binomial",
    "stirling_B",
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
class LocalizerN(namedtuple("LocalizerN", "j k op")):
    """N_j = sum_{j'} a[j][j'] M^{j'}/j'! for one fixed degeneracy order k.

    A named tuple, not a dataclass, so ``verify`` never imports ``dataclasses``.
    """

    __slots__ = ()


_M_POWERS: dict[int, list[DiffOp]] = {}  # k -> [M^0, M^1, ...]
_N_OPS: dict[tuple, DiffOp] = {}  # (k, table, j) -> N_j; holding the table keeps its id unique


def build_N(j: int, k: int, table: CoeffTable) -> LocalizerN:
    """Assemble the localizer N_j from a validated coefficient table."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if table.jmax < j:
        raise ValueError(f"coefficient table too small: jmax={table.jmax} < j={j}")
    key = (k, table, j)
    if key not in _N_OPS:
        powers = _M_POWERS.setdefault(k, [opalg.one()])
        while len(powers) <= j:
            powers.append(powers[-1] * build_model(k).M)
        _N_OPS[key] = opalg._linear(
            (table.entry(j, jp) / factorial(jp), powers[jp]) for jp in range(j + 1)
        )
    return LocalizerN(j=j, k=k, op=_N_OPS[key])


def _localized(parts: list[DiffOp], q: int) -> DiffOp:
    """sum_{j<=q} phi^(j) parts[j] R^(q-j); parts free of phi and R just get relabelled."""
    terms = {}
    for j in range(q + 1):
        for (a, _, b, _, d), c in parts[j].terms.items():
            terms[(a, (j,), b, q - j, d)] = c
    return DiffOp._of(terms)


def build_Rp_phi(p: int, k: int, table: CoeffTable) -> DiffOp:
    """R^p_phi = sum_j phi^(j) N_j R^(p-j)."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return _localized([build_N(j, k, table).op for j in range(p + 1)], p)


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


def binomial(a, n: int) -> Fraction:
    """Generalised binomial coefficient C(a, n) = a (a-1) ... (a-n+1) / n! for exact a."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, acc = exact(a), Fraction(1)
    for i in range(n):
        acc *= a - i
    return acc / factorial(n)


def stirling_B(j: int, ell: int) -> Fraction:
    """Stirling number of the second kind B[j][l] in closed form.

    B[j][l] = sum_{m=0}^{l-1} (-1)^m (l-m)^(j-1) / (m! (l-m-1)!); the values
    are positive integers (returned as Fractions with denominator 1).
    """
    if j < 1 or not 1 <= ell <= j:
        raise ValueError("need j >= 1 and 1 <= ell <= j")
    acc = Fraction(0)
    for m in range(ell):
        term = Fraction((ell - m) ** (j - 1), factorial(m) * factorial(ell - m - 1))
        acc += -term if m % 2 else term
    return acc


def _delta_candidates(count: int, k: int) -> dict[str, list[Fraction]]:
    """The printed candidates sum_{h=1}^{l} (+-1/k)^h/h!, index-aligned (l < count)
    and shifted by one (l = 1..count), both read off one running sum per sign."""
    out = {}
    for convention, base in (("positive", Fraction(1, k)), ("alternating", Fraction(-1, k))):
        sums, term = [Fraction(0)], Fraction(1)
        for h in range(1, count + 1):
            term = term * base / h
            sums.append(sums[-1] + term)
        out[convention] = sums[:count]
        out[convention + "-shifted"] = sums[1:]
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
    """Read the delta_l of [X1, R^p_phi] = -X1 sum_l delta_l R^(p-l-1)_phi^(l+1).

    X1 = Dt commutes with phi and R, so level p of the identity is
    sum_j phi^(j) B_j R^(p-j) with B_j = [X1, N_j] + X1 sum_(l<j) delta_l N_(j-l-1),
    and no B_j depends on p.  The pivot of delta_(j-1) is X1 N_0 = Dt in
    block j, so delta_(j-1) is read once, as minus the Dt coefficient of B_j
    before that term joins it.  Each level's residual sum_j phi^(j) B_j R^(p-j)
    is then required to vanish exactly (the structural claim), and
    ``delta_p_independent`` checks the relabelling the argument rests on: at
    every level the bracket [X1, R^p_phi] formed in the algebra equals
    sum_j phi^(j) [X1, N_j] R^(p-j).  |delta_l| <= 1 is checked, and the
    delta_l must equal the binomial closed form C(-1/k, l+1) under
    ``closed_form``.  The comparison against both printed closed-form
    conventions (at both index alignments) is recorded — it is documentation,
    not a pass criterion, because the printed forms disagree with each other
    and with the extracted values.
    """
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    x1 = build_model(k).X1
    localizers = [build_N(j, k, table).op for j in range(pmax + 1)]
    brackets = [commutator(x1, n) for n in localizers]
    x1_localizers = [x1 * n for n in localizers[:pmax]]
    delta: list[Fraction] = []
    blocks = brackets[:1]
    for j in range(1, pmax + 1):
        block = opalg._linear(
            [(1, brackets[j]), *((d, x1_localizers[j - 1 - ell]) for ell, d in enumerate(delta))]
        )
        delta.append(-block.terms.get((0, (), 1, 0, 0), Fraction(0)))  # the Dt coefficient
        blocks.append(block + delta[-1] * x1_localizers[0])
    cases = [{"p": p, **_residual_case(_localized(blocks, p))} for p in range(1, pmax + 1)]
    p_independent = all(
        commutator(x1, build_Rp_phi(p, k, table)) == _localized(brackets, p)
        for p in range(1, pmax + 1)
    )
    bounded = all(abs(d) <= 1 for d in delta)
    comparison = {
        name: _compare_candidate(delta, values)
        for name, values in _delta_candidates(len(delta), k).items()
    }
    # delta_l = C(-1/k, l+1): sum_l delta_l z^(l+1) = (1+z)^(-1/k) - 1
    closed = [binomial(Fraction(-1, k), ell + 1) for ell in range(len(delta))]
    matches = closed == delta
    structural = all(c["pass"] for c in cases)
    return {
        "identity": "x1-localized-power-bracket",
        "statement": "[X1, R^p_phi] + X1 sum_l delta_l R^(p-l-1)_phi^(l+1) == 0",
        "k": k,
        "pmax": pmax,
        "cases": cases,
        "delta": [fmt_fraction(d) for d in delta],
        "delta_p_independent": p_independent,
        "delta_abs_le_1": bounded,
        "convention_comparison": comparison,
        "closed_form": {
            "statement": "delta_l = C(-1/k, l+1)",
            "values": [fmt_fraction(v) for v in closed],
            "matches": matches,
        },
        "pass": structural and p_independent and bounded and matches,
    }


def _x1_bracket_poly(j: int, k: int, table: CoeffTable) -> list[Fraction]:
    """-[X1, N_j] without its left X1 factor, over the basis M^s/s! of a[j][s]."""
    coeffs = [Fraction(0)] * j
    for jp in range(1, j + 1):
        a_j_jp = table.entry(j, jp)
        if a_j_jp == 0:
            continue
        for ell in range(1, jp + 1):
            s = jp - ell
            a_h = Fraction(-1, k) ** ell / factorial(ell)
            coeffs[s] += a_j_jp * a_h
    return coeffs


def verify_gamma_expansion(jmax: int, k: int, table: CoeffTable) -> dict:
    """Expand the scalar X1-bracket polynomial over the localizer basis.

    For each j the degree-(j-1) polynomial sum a[j][j'] (-1/k)^l M^(j'-l)/..
    is written as sum_{s<j} gamma_{j-s} N_s(M) by back-substitution; the N_s
    are unitriangular in degree so the gamma are unique.  Checks: the gamma
    do not depend on j, and the per-(j,l) scalar identity
    sum_h a[j][l+h] (-1/k)^h/h! = sum_h gamma_(j-l-h+1) a[l+h-1][l].  Its left
    side is what the step s = l solves for gamma_(j-l), and its right side is
    gamma_(j-l) a[l][l] plus what that step subtracts, so it is checked as
    gamma_(j-l) (1 - a[l][l]) == 0: it fails only on a diagonal entry other
    than 1.  ``cli.run_verify`` checks that the gamma reproduce the
    operator-extracted delta (delta_m = gamma_(m+1)).
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    gamma_by_j: dict[int, list[Fraction]] = {}
    cases = []
    for j in range(1, jmax + 1):
        coeffs = _x1_bracket_poly(j, k, table)
        gamma = [Fraction(0)] * (j + 1)  # gamma[m] for m = 1..j
        for s in range(j - 1, -1, -1):
            acc = coeffs[s]
            for sp in range(s + 1, j):
                acc -= gamma[j - sp] * table.entry(sp, s)
            gamma[j - s] = acc
        gamma_by_j[j] = gamma[1:]
        identity_ok = all(gamma[j - ell] * (1 - table.entry(ell, ell)) == 0 for ell in range(1, j))
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
                (ell, (), ell, 0, 0): stirling_B(j, ell)
                for ell in range(1, j + 1)
            }
        )
        residual = power - expected
        case = {"j": j, **_residual_case(residual)}
        row = [stirling_B(j, ell) for ell in range(1, j + 1)]
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

