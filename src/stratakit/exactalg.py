"""Exact rational coefficient engines and the package's shared sparse core.

Everything here is computed over the rationals (stdlib ``fractions.Fraction``,
which keeps values in lowest terms with positive denominator) — no floating
point.  Values enter through the package's ``exact`` coercer, which refuses
floats.  ``SparseTerms`` is the one integer-numerator core of every
exact sparse polynomial: integer numerators over one reduced denominator,
with their linear arithmetic, the base of both ``opalg.DiffOp`` and
``geometry.PhasePoly``, which add only their products.  ``_linear`` is the
one combination routine: sums, differences, scalings and every weighted sum
of operators (the localizers N_j among them) run through it.
The module also owns the coefficient layer and every check that reads only
its data: the Bernoulli generating series t/(e^t - 1) from the closed form
of B_m, the triangular localizer-coefficient table a[j][j'] with its two
independent construction routes (the closed form N_j(M) = C(M-1, j) vs.
powers of that series), the relation that characterises it, the growth scan
of its entries, and the convolution inverse of the factorial band matrix
(the one routine here that inverts it).  The closed forms that only the
operator layer compares against (C(a, n), Stirling numbers, the delta
candidates) live in :mod:`stratakit.localize`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm
from operator import mul

from . import exact, fmt_fraction

__all__ = [
    "SparseTerms",
    "CoeffTable",
    "bernoulli_generator",
    "a_table_recurrence",
    "a_table_generating",
    "matrix_inverse_coeffs",
    "bound_scan_a",
    "coeff_table_to_json",
]


def _numerators(values) -> tuple[int, list[int]]:
    """(den, ints): exact values as integer numerators over the lcm of their denominators."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


class SparseTerms:
    """Finite sum of monomial keys with nonzero exact rational coefficients.

    Stored as ``den``, one positive integer denominator, and ``nums``, a dict
    from monomial key to nonzero integer numerator, reduced so that
    gcd(den, *nums) = 1.  The form is canonical, so equality is structural.
    ``terms`` is a fresh dict of the coefficients as Fractions, for reports.
    A subclass adds its own product and sets ``_UNIT_KEY``, the key of the
    constant monomial 1.  Values are immutable once built: every operation
    returns a fresh instance.
    """

    __slots__ = ("den", "nums")

    def __init__(self, terms: dict | None = None):
        values = {}
        for key, coeff in (terms or {}).items():
            c = exact(coeff)
            if c:
                values[tuple(key)] = c
        # over the lcm of the reduced denominators, gcd(den, *nums) is already 1
        self.den, nums = _numerators(values.values())
        self.nums = dict(zip(values, nums))

    @classmethod
    def _over(cls, den: int, nums: dict):
        """Take ownership of integer numerators over den > 0: drop zeros, reduce by the gcd."""
        nums = {key: n for key, n in nums.items() if n}
        g = gcd(den, *nums.values()) if nums else den
        result = cls.__new__(cls)
        result.den = den // g
        result.nums = {key: n // g for key, n in nums.items()} if g > 1 else nums
        return result

    @classmethod
    def _linear(cls, pairs):
        """sum c * op over exact (c, op) pairs, in one pass over integer numerators
        brought to the lcm of the parts' denominators."""
        parts = []
        for c, op in pairs:
            c = exact(c)
            if c and op.nums:
                parts.append((c.numerator, c.denominator * op.den, op.nums))
        den = lcm(*(part[1] for part in parts))
        out: dict = {}
        for num, part_den, nums in parts:
            factor = num * (den // part_den)
            for key, n in nums.items():
                out[key] = out.get(key, 0) + factor * n
        return cls._over(den, out)

    @property
    def terms(self) -> dict:
        return {key: Fraction(n, self.den) for key, n in self.nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._linear(((1, self), (1, other)))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._linear(((1, self), (-1, other)))

    def __neg__(self):
        return self._linear(((-1, self),))

    def scale(self, factor):
        return self._linear(((factor, self),))

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __pow__(self, exponent: int):
        """Repeated product from the subclass's unit monomial ``_UNIT_KEY``."""
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self._over(1, {self._UNIT_KEY: 1})
        for _ in range(exponent):
            result = result * self
        return result


@cache
def bernoulli_generator(order: int) -> tuple[Fraction, ...]:
    """Coefficients B_m/m! of t/(e^t - 1) through t^order.

    B_m = sum_{k<=m} 1/(k+1) sum_{j<=k} (-1)^j C(k, j) j^m (so B_1 = -1/2), with
    integer sums over lcm(1, ..., m+1).  The signed binomials are built once,
    and each j^m from j^(m-1) by one product.  No series is inverted, so this
    route shares no step with ``matrix_inverse_coeffs``.  Cached: ``coeffs``
    needs the same series twice, and a tuple cannot be changed by a caller.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    signed = [[(-1) ** j * comb(k, j) for j in range(k + 1)] for k in range(order + 1)]
    powers = [1] * (order + 1)  # j^m, with 0^0 = 1
    den = fact = 1
    out = []
    for m in range(order + 1):
        if m:
            powers = [p * j for j, p in enumerate(powers)]
            fact *= m
        den = lcm(den, m + 1)
        num = sum(den // (k + 1) * sum(map(mul, signed[k], powers)) for k in range(m + 1))
        out.append(Fraction(num, den * fact))
    return tuple(out)


class CoeffTable:
    """Triangular table of the localizer coefficients a[j][j'], 0 <= j' <= j.

    Row j is held as ``rows[j] = (den, ints)``: the integer numerators of
    a[j][0..j] over one positive denominator, reduced so that
    gcd(den, *ints) = 1, so equal rows are equal tuples.  ``entries`` (a dict
    keyed by (j, j'), built on first use, or the dict the table was made
    from) and ``entry`` are Fraction views for reports.  Plain data, hashed
    and compared by identity; its fields cannot be reassigned.  Not a
    dataclass, so the cutoff path never imports ``dataclasses``.  Boundary
    values are a[j][j] = 1 and a[j][0] = (-1)^j; successive rows are linked
    by the factorial convolution sum_{s=1}^{j-l} a[j][l+s]/s! = a[j-1][l].
    """

    __slots__ = ("jmax", "rows", "provenance", "_entries")

    def __init__(self, jmax: int, entries: dict, provenance: str):
        rows = [_numerators(entries[(j, jp)] for jp in range(j + 1)) for j in range(jmax + 1)]
        self._set(jmax, rows, provenance, entries)

    @classmethod
    def _of_rows(cls, rows: list, provenance: str) -> "CoeffTable":
        """A table from reduced (den, ints) rows, its Fraction view built on first use."""
        table = cls.__new__(cls)
        table._set(len(rows) - 1, rows, provenance, None)
        return table

    def _set(self, jmax, rows, provenance, entries):
        rows = tuple((den, tuple(ints)) for den, ints in rows)
        for name, value in zip(self.__slots__, (jmax, rows, provenance, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @property
    def entries(self) -> dict:
        if self._entries is None:
            view = {(j, jp): Fraction(n, den)
                    for j, (den, ints) in enumerate(self.rows) for jp, n in enumerate(ints)}
            object.__setattr__(self, "_entries", view)
        return self._entries

    def entry(self, j: int, jprime: int) -> Fraction:
        if not 0 <= jprime <= j <= self.jmax:
            raise KeyError(f"entry ({j}, {jprime}) outside triangle jmax={self.jmax}")
        den, ints = self.rows[j]
        return Fraction(ints[jprime], den)

    def check_recurrence(self) -> bool:
        """Whether this is the one table with a[j][0] = (-1)^j and the defining relation.

        The relations of row j are unit triangular in a[j][1..j], so with the
        pin on a[j][0] they determine the table from a[0][0] = 1.  Each is
        checked on the rows' integer numerators as
        sum_s ints[l+s] n!/s! * den(j-1) = ints(j-1)[l] den n!  (n = j - l).
        """
        rows = self.rows
        if any(ints[0] != (-1) ** j * den for j, (den, ints) in enumerate(rows)):
            return False
        # falling[n] = [n!/s! for s = 1..n], its first entry n!
        falling = [[]]
        for n in range(1, self.jmax + 1):
            falling.append([n * f for f in falling[-1]] + [1])
        for j in range(1, self.jmax + 1):
            (prev_den, prev), (den, ints) = rows[j - 1], rows[j]
            for ell in range(j):
                weights = falling[j - ell]
                lhs = sum(map(mul, ints[ell + 1:], weights))
                if lhs * prev_den != prev[ell] * den * weights[0]:
                    return False
        return True


def a_table_recurrence(jmax: int) -> CoeffTable:
    """Build the a[j][j'] table from its closed form N_j(M) = C(M-1, j).

    C(M-1, j) = prod_{i<=j} (M - i) / j!, so row j is the integer numerators
    p_j[j'] j'! over j!, with p_j the integer coefficients of
    prod_{i<=j} (M - i).  Pascal's rule C(M, j) - C(M-1, j) = C(M-1, j-1) is
    the defining relation N_j(M+1) - N_j(M) = N_(j-1)(M), and
    N_j(0) = C(-1, j) = (-1)^j, so this is the unique table that
    ``check_recurrence`` accepts.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    rows = []
    poly, facts = [1], [1]  # p_j, lowest degree first, and 0!, ..., j!
    for j in range(jmax + 1):
        if j:
            poly = [lo - j * hi for lo, hi in zip([0] + poly, poly + [0])]
            facts.append(facts[-1] * j)
        ints = list(map(mul, poly, facts))
        g = gcd(facts[j], *ints)
        rows.append((facts[j] // g, [n // g for n in ints]))
    # labelled by the relation it solves uniquely; table files carry this label
    return CoeffTable._of_rows(rows, provenance="recurrence")


def a_table_generating(jmax: int) -> CoeffTable:
    """Build the same table from powers of the Bernoulli generating series.

    a[j][j'] is the coefficient of t^(j-j') in [t/(e^t-1)]^(j+1); the Taylor
    1/(j-j')! normalization is already part of the series coefficient.  The
    series is taken from the closed form in ``bernoulli_generator`` and split
    once into integer numerators, so this route solves no triangular system.
    Each power g^(j+1), truncated at t^jmax, is carried as (den, ints): row j
    is its head through t^j, and one gcd over the power, taken head first,
    reduces both the row and the power before the next product by g.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    g_den, g_ints = _numerators(bernoulli_generator(jmax))
    g_rev = g_ints[::-1]
    den, ints = g_den, g_ints  # g^(j+1) for the current j
    rows = []
    for j in range(jmax + 1):
        head = gcd(den, *ints[: j + 1])
        rows.append((den // head, [n // head for n in ints[j::-1]]))
        if j < jmax:
            common = gcd(head, *ints[j + 1:])
            ints = [n // common for n in ints]
            # coefficient m of the product: sum_(i<=m) ints[i] g[m - i], map stopping at i = m
            ints = [sum(map(mul, ints, g_rev[jmax - m:])) for m in range(jmax + 1)]
            den = den // common * g_den
    return CoeffTable._of_rows(rows, provenance="generating-function")


def matrix_inverse_coeffs(m_max: int) -> list[Fraction]:
    """First row (c_0..c_m_max) of the inverse factorial band matrix.

    The unit upper-triangular Toeplitz matrix with 1/(m+1)! on band m has a
    Toeplitz inverse determined by its first row, solved here from the
    convolution identity sum_{i+h=m} c_i/(h+1)! = [m == 0].  Times (m+1)!, the
    identity at m >= 1 is sum_{i<=m} C(m+1, i) b_i/(i+1)! = 0 in
    b_i = i! (i+1)! c_i, so b_m = -sum_{i<m} C(m+1, i) (m!/(i+1)!) b_i: integers
    from b_0 = 1, with no division, since i + 1 <= m.  Each c_m is built once,
    as b_m over m! (m+1)!.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    b = [1]
    for m in range(1, m_max + 1):
        b.append(-sum(comb(m + 1, i) * perm(m, m - 1 - i) * b[i] for i in range(m)))
    return [Fraction(n, factorial(m) * factorial(m + 1)) for m, n in enumerate(b)]


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
        den, ints = table.rows[j]
        m_j = Fraction(max(map(abs, ints)), den)
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


def coeff_table_to_json(table: CoeffTable) -> str:
    """Serialize to the documented JSON schema; round-trips bit-exactly."""
    items = [
        [f"{j}/{jp}", fmt_fraction(table.entries[(j, jp)])]
        for j in range(table.jmax + 1)
        for jp in range(j + 1)
    ]
    doc = {"jmax": table.jmax, "provenance": table.provenance, "entries": items}
    return json.dumps(doc, indent=2)
