"""Localizer operators and machine verification of their bracket identities.

Builds the localizers N_j (polynomials in M = (t/k) d/dt with the triangular
coefficients a[j][j'], each once per (k, table, j), as one linear combination
of the memoised powers of M), then verifies, as exact zero-residual
identities in the free operator algebra, with R^p_phi = sum_j phi^(j) N_j R^(p-j):

* the telescoping bracket [X2, N_j] = -t^k N_{j-1} R, its residual res_j
  formed once per (k, table, j),
* the single-term bracket [X2, R^p_phi] = t^k phi^(p+1) N_p: its residual is
  the res_j relabelled plus the generator defects [X2, phi^(j)] - t^k phi^(j+1)
  and, were [X2, R] nonzero, the terms it adds, so no check builds R^p_phi
  on the model or forms [X2, N_j] twice,
* the expansion [X1, R^p_phi] = -X1 sum_l delta_l R^(p-l-1)_phi^(l+1):
  X1 commutes with R and every phi^(j) (``delta_p_independent`` checks these
  generator brackets, as the X2 check checks [X2, phi^(j)]), so every level
  relabels the same blocks phi^(j) B_j R^(p-j), one per localizer, and each
  delta_l is read once, from the Dt coefficient of block l+1.  Each block is
  one linear combination of [X1, N_j] and the X1 N_(j-l-1).  Like N_j, it is
  formed in one pass over the operators' integer numerators
  (``DiffOp._linear``), not by a chain of ``+``.  The delta_l must equal the
  binomial closed form C(-1/k, l+1) and are compared against the printed
  candidates,
* the scalar expansion of the X1-bracket polynomial over the N_s basis
  (the gamma coefficients, back-substituted on integers), and
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
from math import comb, factorial, lcm, perm
from operator import mul

from . import exact, fmt_fraction, opalg
from .exactalg import CoeffTable
from .opalg import DiffOp, build_model, commutator

__all__ = [
    "LocalizerN",
    "build_N",
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
        terms = residual.terms
        case["offending_monomials"] = [
            f"{fmt_fraction(terms[k])} * {opalg._render_key(k)}"
            for k in sorted(terms)[:_MAX_REPORTED_MONOMIALS]
        ]
    return case


# every caller reads .op, but perfbench/traced_cli.py reads .j and .k of build_N results
class LocalizerN(namedtuple("LocalizerN", "j k op")):
    """N_j = sum_{j'} a[j][j'] M^{j'}/j'! for one fixed degeneracy order k.

    A named tuple, not a dataclass, so ``verify`` never imports ``dataclasses``.
    """

    __slots__ = ()


_M_POWERS: dict[int, list[DiffOp]] = {}  # k -> [M^0, M^1, ...]
_N_OPS: dict[tuple, DiffOp] = {}  # (k, table, j) -> N_j and (k, table, j, "X2") -> res_j


def build_N(j: int, k: int, table: CoeffTable) -> LocalizerN:
    """Assemble the localizer N_j from a validated coefficient table."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if table.jmax < j:
        raise ValueError(f"coefficient table too small: jmax={table.jmax} < j={j}")
    key = (k, table, j)  # holding the table keeps its id unique
    if key not in _N_OPS:
        powers, m = _M_POWERS.setdefault(k, [opalg.one()]), build_model(k).M
        while len(powers) <= j:
            powers.append(powers[-1] * m)
        den, ints = table.rows[j]  # a[j][j'] / j'! = ints[j'] / (den j'!)
        _N_OPS[key] = DiffOp._combine(
            (n, den * factorial(jp), powers[jp]) for jp, n in enumerate(ints)
        )
    return LocalizerN(j=j, k=k, op=_N_OPS[key])


def _localized(parts: list[DiffOp], q: int) -> DiffOp:
    """sum_{j<=q} phi^(j) parts[j] R^(q-j) for phi-free parts: each monomial gets phi^(j)
    and q - j more powers of R, its numerator brought to the lcm of the parts' denominators."""
    den = lcm(*(part.den for part in parts[: q + 1]))
    nums = {}
    for j in range(q + 1):
        factor = den // parts[j].den
        for (a, _, b, r, d), n in parts[j].nums.items():
            nums[(a, (j,), b, r + q - j, d)] = n * factor
    return DiffOp._over(den, nums)


def _x2_residual(j: int, model: opalg.ModelOps, table: CoeffTable) -> DiffOp:
    """res_j = [X2, N_j] + t^k N_(j-1) R (res_0 = [X2, N_0]), formed once per (k, table, j)."""
    k = model.k
    key = (k, table, j, "X2")
    if key not in _N_OPS:
        res = commutator(model.X2, build_N(j, k, table).op)
        _N_OPS[key] = res + opalg.tvar(k) * build_N(j - 1, k, table).op * model.R if j else res
    return _N_OPS[key]


def verify_localizer_bracket(jmax: int, k: int, table: CoeffTable) -> dict:
    """Check [X2, N_j] + t^k N_{j-1} R == 0 exactly for 1 <= j <= jmax."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    model = build_model(k)
    cases = [{"j": j, **_residual_case(_x2_residual(j, model, table))} for j in range(1, jmax + 1)]
    return {
        "identity": "x2-localizer-bracket",
        "statement": "[X2, N_j] + t^k N_(j-1) R == 0",
        "k": k,
        "jmax": jmax,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def verify_x2_bracket(pmax: int, k: int, table: CoeffTable) -> dict:
    """Check [X2, R^p_phi] - t^k phi^(p+1) N_p == 0 exactly for p <= pmax.

    By the Leibniz rule, with [X2, N_j] = res_j - t^k N_(j-1) R and
    [X2, phi^(j)] = t^k phi^(j+1) + g_j, the t^k terms telescope to t^k phi^(p+1) N_p:
    the residual is G_p = sum_(j<=p) (phi^(j) res_j + g_j N_j) R^(p-j) + e_p, a
    relabelling of the ``_x2_residual`` plus the generator defects g_j, checked, not
    assumed.  e_p = sum_j phi^(j) N_j [X2, R^(p-j)] = e_(p-1) R + R^(p-1)_phi [X2, R]
    (e_0 = 0) is zero on the model, where [X2, R] is formed once and found zero.
    """
    if pmax < 0:
        raise ValueError("pmax must be >= 0")
    model, tk = build_model(k), opalg.tvar(k)
    x2_r = commutator(model.X2, model.R)
    residuals, localizers, defects, cases = [], [], opalg.zero(), []
    for p in range(pmax + 1):
        residuals.append(_x2_residual(p, model, table))
        localizers.append(build_N(p, k, table).op)
        g = commutator(model.X2, opalg.phi(p)) - tk * opalg.phi(p + 1)
        defects = defects * model.R + g * localizers[p]
        if p and not x2_r.is_zero:
            defects = defects + _localized(localizers, p - 1) * x2_r
        cases.append({"p": p, **_residual_case(_localized(residuals, p) + defects)})
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

    B[j][l] = sum_{m=0}^{l-1} (-1)^m (l-m)^(j-1) / (m! (l-m-1)!), summed as the
    integer sum_m (-1)^m C(l-1, m) (l-m)^(j-1) and divided once by (l-1)!; the
    values are positive integers (returned as Fractions with denominator 1).
    """
    if j < 1 or not 1 <= ell <= j:
        raise ValueError("need j >= 1 and 1 <= ell <= j")
    total = sum((-1) ** m * comb(ell - 1, m) * (ell - m) ** (j - 1) for m in range(ell))
    return Fraction(total, factorial(ell - 1))


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

    If X1 commutes with R and every phi^(j), the Leibniz rule gives
    [X1, R^p_phi] = sum_j phi^(j) [X1, N_j] R^(p-j), so level p of the identity
    is sum_j phi^(j) B_j R^(p-j) with B_j = [X1, N_j] + X1 sum_(l<j) delta_l N_(j-l-1),
    and no B_j depends on p.  The pivot of delta_(j-1) is X1 N_0 = Dt in
    block j, so delta_(j-1) is read once, as minus the Dt coefficient of B_j
    before that term joins it.  Each level's residual sum_j phi^(j) B_j R^(p-j)
    is then required to vanish exactly (the structural claim), and
    ``delta_p_independent`` checks the hypotheses of that relabelling exactly:
    [X1, R] = 0 and [X1, phi^(j)] = 0 for every j <= pmax.
    |delta_l| <= 1 is checked, and the delta_l must equal the binomial closed
    form C(-1/k, l+1) under ``closed_form``.  The comparison against both
    printed closed-form conventions (at both index alignments) is recorded —
    it is documentation, not a pass criterion, because the printed forms
    disagree with each other and with the extracted values.
    """
    if pmax < 1:
        raise ValueError("pmax must be >= 1")
    model = build_model(k)
    x1 = model.X1
    localizers = [build_N(j, k, table).op for j in range(pmax + 1)]
    brackets = [commutator(x1, n) for n in localizers]
    x1_localizers = [x1 * n for n in localizers[:pmax]]
    delta: list[Fraction] = []
    blocks = brackets[:1]
    for j in range(1, pmax + 1):
        block = DiffOp._linear(
            [(1, brackets[j]), *((d, x1_localizers[j - 1 - ell]) for ell, d in enumerate(delta))]
        )
        # minus the Dt coefficient
        delta.append(Fraction(-block.nums.get((0, (), 1, 0, 0), 0), block.den))
        blocks.append(block + delta[-1] * x1_localizers[0])
    cases = [{"p": p, **_residual_case(_localized(blocks, p))} for p in range(1, pmax + 1)]
    # the relabelling's hypotheses: X1 commutes with R and with every phi^(j) it labels
    p_independent = commutator(x1, model.R).is_zero and all(
        commutator(x1, opalg.phi(j)).is_zero for j in range(pmax + 1)
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


def verify_gamma_expansion(jmax: int, k: int, table: CoeffTable) -> dict:
    """Expand the scalar X1-bracket polynomial over the localizer basis.

    For each j the degree-(j-1) polynomial sum a[j][j'] (-1/k)^l M^(j'-l)/..
    is written as sum_{s<j} gamma_{j-s} N_s(M) by back-substitution; the N_s
    are unitriangular in degree so the gamma are unique.  Checks: the gamma
    do not depend on j, and the per-(j,l) scalar identity (0 <= l < j)
    sum_h a[j][l+h] (-1/k)^h/h! = sum_h gamma_(j-l-h+1) a[l+h-1][l].  Its left
    side is what the step s = l solves for gamma_(j-l), and its right side is
    gamma_(j-l) a[l][l] plus what that step subtracts, so it is checked as
    gamma_(j-l) (1 - a[l][l]) == 0: it fails only on a diagonal entry other
    than 1.  ``cli.run_verify`` checks that the gamma reproduce the
    operator-extracted delta (delta_m = gamma_(m+1)).

    The back-substitution runs on z[s] = j! k^j gamma_(j-s) / s!.  With
    q[r][c] = a[r][c] r!/c!, step s reads

        z[s] = k^s sum_(m>s) (-1)^(m-s) C(m, s) k^(j-m) q[j][m]
               - sum_(s<r<j) z[r] q[r][s].

    A valid table's q are the integer coefficients of prod_(1<=i<=r) (M - i),
    so every z is an integer and each gamma is one Fraction; a q that is not
    an integer stays an exact Fraction, so a planted table expands exactly.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    q, diagonal_one = [], []
    for r, (den, ints) in enumerate(table.rows[: jmax + 1]):
        row = []
        for c, n in enumerate(ints):
            v = n * perm(r, r - c)
            whole, rest = divmod(v, den)
            row.append(Fraction(v, den) if rest else whole)
        q.append(row)
        diagonal_one.append(ints[r] == den)
    columns = [[q[r][c] for r in range(c, jmax + 1)] for c in range(jmax + 1)]
    # signed[s][m - s] = (-1)^(m-s) C(m, s)
    signed = [[(-1) ** (m - s) * comb(m, s) for m in range(s, jmax + 1)] for s in range(jmax + 1)]
    gamma_by_j: dict[int, list[Fraction]] = {}
    cases = []
    for j in range(1, jmax + 1):
        weighted = [k ** (j - m) * v for m, v in enumerate(q[j])]  # k^(j-m) q[j][m]
        z = [0] * j
        for s in range(j - 1, -1, -1):
            head = sum(map(mul, signed[s][1:], weighted[s + 1:]))
            z[s] = k ** s * head - sum(map(mul, z[s + 1:], columns[s][1:]))
        scale = factorial(j) * k ** j
        gamma = [Fraction(z[j - m] * factorial(j - m), scale) for m in range(1, j + 1)]
        gamma_by_j[j] = gamma
        identity_ok = all(diagonal_one[ell] or not gamma[j - ell - 1] for ell in range(j))
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
        row = [stirling_B(j, ell) for ell in range(1, j + 1)]
        expected = DiffOp({(ell, (), ell, 0, 0): b for ell, b in enumerate(row, 1)})
        case = {"j": j, **_residual_case(power - expected)}
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

