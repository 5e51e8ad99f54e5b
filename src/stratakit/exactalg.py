"""Exact rational coefficient engines and the package's shared exact core.

Everything here is computed over the rationals (stdlib ``fractions.Fraction``,
which keeps values in lowest terms with positive denominator) — no floating
point.  The shared exact core used by every other module is ``exact`` (the
strict coercer that refuses floats), ``fmt_fraction`` (the one ``"num/den"``
report form) and ``SparseTerms``, the one integer-numerator core of every
exact sparse polynomial: integer numerators over one reduced denominator,
with their linear arithmetic, the base of both ``opalg.DiffOp`` and
``geometry.PhasePoly``, which add only their products.
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

__all__ = [
    "exact",
    "fmt_fraction",
    "SparseTerms",
    "CoeffTable",
    "bernoulli_generator",
    "a_table_recurrence",
    "a_table_generating",
    "matrix_inverse_coeffs",
    "bound_scan_a",
    "coeff_table_to_json",
]


def exact(x) -> Fraction:
    """Coerce an exact number (Fraction or int) to a Fraction; floats raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def fmt_fraction(q: Fraction) -> str:
    """The report form of a rational: always "num/den", "1/1" included."""
    return f"{q.numerator}/{q.denominator}"


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

    Plain data, hashed and compared by identity; its fields cannot be
    reassigned.  Not a dataclass, so the cutoff path never imports
    ``dataclasses``.  Boundary values are a[j][j] = 1 and a[j][0] = (-1)^j;
    successive rows are linked by the factorial convolution
    sum_{s=1}^{j-l} a[j][l+s]/s! = a[j-1][l].
    """

    __slots__ = ("jmax", "entries", "provenance")

    def __init__(self, jmax: int, entries: dict, provenance: str):
        for name, value in (("jmax", jmax), ("entries", entries), ("provenance", provenance)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def entry(self, j: int, jprime: int) -> Fraction:
        if not 0 <= jprime <= j <= self.jmax:
            raise KeyError(f"entry ({j}, {jprime}) outside triangle jmax={self.jmax}")
        return self.entries[(j, jprime)]

    def check_recurrence(self) -> bool:
        """Whether this is the one table with a[j][0] = (-1)^j and the defining relation.

        The relations of row j are unit triangular in a[j][1..j], so with the
        pin on a[j][0] they determine the table from a[0][0] = 1.  Each is
        checked as sum_s ints[l+s] n!/s! = a[j-1][l] den n! (n = j - l) on
        row j's integer numerators.
        """
        if any(self.entry(j, 0) != (-1) ** j for j in range(self.jmax + 1)):
            return False
        for j in range(1, self.jmax + 1):
            den, ints = _numerators(self.entry(j, jp) for jp in range(j + 1))
            for ell in range(j):
                lhs = 0
                for s in range(1, j - ell + 1):
                    lhs = lhs * s + ints[ell + s]
                prev = self.entry(j - 1, ell)
                if lhs * prev.denominator != prev.numerator * den * factorial(j - ell):
                    return False
        return True


def a_table_recurrence(jmax: int) -> CoeffTable:
    """Build the a[j][j'] table from its closed form N_j(M) = C(M-1, j).

    C(M-1, j) = prod_{i<=j} (M - i) / j!, so a[j][j'] = p_j[j'] j'!/j! with
    p_j the integer coefficients of prod_{i<=j} (M - i).  Pascal's rule
    C(M, j) - C(M-1, j) = C(M-1, j-1) is the defining relation
    N_j(M+1) - N_j(M) = N_(j-1)(M), and N_j(0) = C(-1, j) = (-1)^j, so this
    is the unique table that ``check_recurrence`` accepts.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    entries: dict = {}
    poly = [1]  # p_j, lowest degree first
    for j in range(jmax + 1):
        if j:
            poly = [lo - j * hi for lo, hi in zip([0] + poly, poly + [0])]
        fj = factorial(j)
        for jp, c in enumerate(poly):
            entries[(j, jp)] = Fraction(c * factorial(jp), fj)
    # labelled by the relation it solves uniquely; table files carry this label
    return CoeffTable(jmax=jmax, entries=entries, provenance="recurrence")


def _truncated_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Coefficients of a * b, truncated at their common order len(a) - 1.

    Both lists are scaled to integer numerators, so the products accumulate
    as ints over den(a) den(b) and each output Fraction is built once.
    """
    den_a, ints_a = _numerators(a)
    den_b, ints_b = _numerators(b)
    out = [0] * len(a)
    for i, x in enumerate(ints_a):
        for j, y in enumerate(ints_b[: len(a) - i]):
            if y:
                out[i + j] += x * y
    return [Fraction(n, den_a * den_b) for n in out]


def a_table_generating(jmax: int) -> CoeffTable:
    """Build the same table from powers of the Bernoulli generating series.

    a[j][j'] is the coefficient of t^(j-j') in [t/(e^t-1)]^(j+1); the Taylor
    1/(j-j')! normalization is already part of the series coefficient.  The
    series is taken from the closed form in ``bernoulli_generator``, so this
    route solves no triangular system, and its powers are formed by truncated
    products of coefficient lists.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    g = list(bernoulli_generator(jmax))
    entries: dict = {}
    gpow = g  # g^(j+1) for current j
    for j in range(jmax + 1):
        for jp in range(j + 1):
            entries[(j, jp)] = gpow[j - jp]
        if j < jmax:
            gpow = _truncated_product(gpow, g)
    return CoeffTable(jmax=jmax, entries=entries, provenance="generating-function")


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


def coeff_table_to_json(table: CoeffTable) -> str:
    """Serialize to the documented JSON schema; round-trips bit-exactly."""
    items = [
        [f"{j}/{jp}", fmt_fraction(table.entries[(j, jp)])]
        for j in range(table.jmax + 1)
        for jp in range(j + 1)
    ]
    doc = {"jmax": table.jmax, "provenance": table.provenance, "entries": items}
    return json.dumps(doc, indent=2)
