"""Nested band geometry and iterated-box-convolution cutoff functions.

A band family shrinks the master interval (r1, r2) by the gap schedule
d_k = (r2 - r1)/(4 k^2), one gap per side per level, leaving log2(N) nested
bands with derivative budgets N_k = N / 2^(k-1).  The level-k cutoff is the
indicator of a band convolved with N_k box kernels of equal width: it is 1
on band k, supported in band k-1 (the gap d_k hosts the transition), and its
derivatives up to order N_k are exactly evaluable.

All transition analysis reduces to cardinal B-splines on unit knots: a
transition ramp of n equal boxes of width w satisfies

    sup |phi^(l)| = w^(-l) * sup |B_n^(l-1)|,   1 <= l <= n,

where B_n is the n-fold convolution of the unit box.  Derivative values are
computed from the truncated-power representation

    B_n^(j)(y) = (1/(n-j-1)!) sum_s (-1)^s C(n, s) (y - s)_+^(n-j-1),

whose numerator is a pure integer for rational y — evaluation and sign
queries are exact at any size.  One search, ``_sup_batch``, serves every
order.  By total positivity B_n^(j+1) has exactly j+1 sign changes, one at
each local maximum of |B_n^(j)|.  The search counts the sign changes of its
integer knot values (from Eulerian numbers); when there are j+1, every
local maximum lies in a unit bracket the search sees, and the count is kept
as that certificate.  Brackets are visited by decreasing tangent-line
estimate, with a Newton search inside each.  The reported "sup" is the
exact spline value at the rational abscissa where the search ended, so it
is a lower bound on the true supremum, not an enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exactalg import fmt_fraction

__all__ = [
    "Band",
    "BandFamily",
    "EhrenpreisCutoff",
    "build_bands",
    "build_cutoff",
    "bspline_derivative_sup",
    "derivative_bound_check",
    "bound_check_grid",
    "recursion_product",
    "write_cutoff_samples_csv",
]

def _log_frac(q: Fraction) -> float:
    if q.denominator < 1 << 53:
        return math.log(q.numerator) - math.log(q.denominator)
    # the logs of two huge integers would cancel ~1e-13 of accuracy; the log
    # of their quotient, brought near 1 by a power of two, keeps it
    shift = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log(q / Fraction(2) ** shift) + shift * math.log(2)


def _sci_from_log(log_value: float) -> str:
    if log_value == float("-inf"):
        return "0"
    log10 = log_value / math.log(10.0)
    exp = math.floor(log10)
    mant = 10.0 ** (log10 - exp)
    return f"{mant:.6f}e{exp:+d}"


# -- band geometry --------------------------------------------------------------


@dataclass(frozen=True)
class Band:
    k: int
    lo: Fraction
    hi: Fraction
    d: Fraction
    budget: int


@dataclass(frozen=True)
class BandFamily:
    r1: Fraction
    r2: Fraction
    n: int
    bands: tuple

    def band(self, k: int) -> Band:
        """Band k for 1 <= k <= levels; k = 0 is the master interval."""
        if k == 0:
            return Band(k=0, lo=self.r1, hi=self.r2, d=Fraction(0), budget=self.n)
        if not 1 <= k <= len(self.bands):
            raise ValueError(f"band index {k} outside 1..{len(self.bands)}")
        return self.bands[k - 1]

    @property
    def levels(self) -> int:
        return len(self.bands)


def build_bands(r1, r2, n: int) -> BandFamily:
    """Band family with gaps d_k = (r2 - r1)/(4 k^2) and budgets N/2^(k-1)."""
    lo, hi = Fraction(r1), Fraction(r2)  # a float enters as its exact binary value
    if not lo < hi:
        raise ValueError("need r1 < r2")
    if n < 4 or n & (n - 1):
        raise ValueError("N must be a power of 2, N >= 4")
    levels = n.bit_length() - 1
    span = hi - lo
    bands = []
    cur_lo, cur_hi = lo, hi
    for k in range(1, levels + 1):
        d = span / (4 * k * k)
        cur_lo = cur_lo + d
        cur_hi = cur_hi - d
        if not cur_lo < cur_hi:
            raise ValueError("band family collapsed (should be impossible)")
        bands.append(Band(k=k, lo=cur_lo, hi=cur_hi, d=d, budget=n >> (k - 1)))
    return BandFamily(r1=lo, r2=hi, n=n, bands=tuple(bands))


# -- cardinal B-spline engine ----------------------------------------------------


def _next_eulerian_row(prev: list[int], m: int) -> list[int]:
    """Row m of the Eulerian triangle from row m-1 (row m has m entries)."""
    width = max(m, 1)
    row = [0] * width
    # A(m, k) = A(m, m-1-k): compute the left half, mirror the rest
    for j in range((width + 1) // 2):
        left = prev[j] if j < len(prev) else 0
        diag = prev[j - 1] if 0 <= j - 1 < len(prev) else 0
        row[j] = row[width - 1 - j] = (j + 1) * left + (m - j) * diag
    return row


def _knot_differences(n: int, j: int, eulerian_row: list[int]) -> list[int]:
    """Knot values h(i), 0 <= i <= n//2 + 1, of the j-fold backward difference of B_(q-1).

    With q = n - j >= 2, h is scaled by (q-2)!; ``eulerian_row`` must be row
    q-2 of the triangle, so (q-2)! B_(q-1)(i) = A(q-2, i-1).  h gives the
    integer knot values of both g = B_n^(j+1) and f = B_n^(j):

        (q-2)! g(i) = h(i) - h(i-1),    (q-1)! f(i) = i (q-2)! g(i) + n h(i-1),

    the second from the recurrence (q-1) B_q(x) = x B_(q-1)(x) +
    (q-x) B_(q-1)(x-1) differenced j times.  B_n^(j)(n - y) = (-1)^j B_n^(j)(y)
    gives the knots past n//2 + 1.  At q = 2, g is piecewise constant and
    h(i) - h(i-1) is its value on [i, i+1), for i >= 1.
    """
    size = n // 2 + 2
    # B_1 is the unit box: its one knot value is 1 at the left end
    h = ([0] + eulerian_row if n - j > 2 else [1]) + [0] * size
    del h[size:]
    for _ in range(j):  # a backward difference at i reads only i - 1
        for i in range(size - 1, 0, -1):
            h[i] -= h[i - 1]
    return h


_COMB_ROWS: dict = {}


def _comb_row(n: int) -> list[int]:
    if n not in _COMB_ROWS:
        row = [1] * (n + 1)
        for s in range(1, n + 1):
            row[s] = row[s - 1] * (n - s + 1) // s
        _COMB_ROWS[n] = row
    return _COMB_ROWS[n]


def _deriv_numerators(n: int, j: int, p: int, q_den: int, orders: int = 1) -> list[int]:
    """Integer numerators of B_n^(j), ..., B_n^(j+orders-1) at p/q_den.

    Order j+m has its numerator over (n-j-m-1)! * q_den^(n-j-m-1); one pass
    of the truncated-power sum gives all of them.
    """
    low = n - j - orders  # degree of the highest order asked for
    acc = [0] * orders
    if p <= 0:
        return acc
    binom = _comb_row(n)
    for s in range(min(p // q_den, n) + 1):
        base = p - s * q_den
        c = -binom[s] if s % 2 else binom[s]
        if base == 0:  # (y - s)_+^0 is 1 at y = s; higher powers vanish
            if low == 0:
                acc[-1] += c
            continue
        term = c * base ** low
        acc[-1] += term
        for m in range(orders - 2, -1, -1):
            term *= base  # a short factor: far cheaper than a second c * power
            acc[m] += term
    return acc


def _eval_deriv(n: int, j: int, y: Fraction) -> Fraction:
    """Exact value of B_n^(j) at a rational point (unit knots on [0, n])."""
    if y <= 0 or y >= n:
        return Fraction(0)
    deg = n - j - 1
    [num] = _deriv_numerators(n, j, y.numerator, y.denominator)
    return Fraction(num, factorial(deg) * y.denominator ** deg)


def _cdf(n: int, y: Fraction) -> Fraction:
    """Transition ramp B_n^(-1) = integral of B_n: the smoothed unit step, at knot scale."""
    return Fraction(1) if y >= n else _eval_deriv(n, -1, y)


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in [lo, hi], lo <= hi (continued fractions)."""
    whole = lo.numerator // lo.denominator
    if whole == lo:
        return lo
    if whole + 1 <= hi:
        return Fraction(whole + 1)
    return whole + 1 / _simplest_in(1 / (hi - whole), 1 / (lo - whole))


def _sup_search(n: int, j: int, h: list[int]):
    """Largest |f|, f = B_n^(j), from the knot values h of ``_knot_differences``.

    For q = n - j <= 2, f is piecewise linear or constant (its knot values
    are g of order n-2), so the largest knot value is the sup.  Otherwise,
    by total positivity g has exactly j+1 sign changes in (0, n), so the
    local maxima of |f| are the zeros of g; the sign changes of g's knot
    values bracket them.  By symmetry only the left half is searched.
    Brackets are visited by decreasing tangent-line estimate, and a Newton
    iteration on g inside each one stops once its quadratic model predicts
    a relative rise of at most ``tol``.  Each iterate is the simplest
    rational within the distance over which |f| drops by at most ``tol``
    from its peak, so its exact evaluation stays cheap; floats only choose
    abscissae.  Returns (sup, argmax, sign changes of g's knot values),
    with a knot as argmax and None as the count where q <= 2.
    """
    q = n - j

    def g_num(i: int) -> int:  # (q-2)! g(i)
        return h[i] - h[i - 1] if i else h[0]

    def f_num(i: int) -> int:  # (q-1)! f(i)
        return i * g_num(i) + n * h[i - 1] if i else 0

    if q <= 2:
        nums = f_num if q == 2 else g_num  # both scaled by 0! = 1! = 1
        top = max(range(1, n // 2 + 1), key=lambda i: abs(nums(i)))
        return Fraction(abs(nums(top))), Fraction(top), None
    # relative; far below the double rounding of the reported log, so a
    # log_sup differs from that of the true sup by at most that rounding
    tol = 1e-20
    scale = factorial(q - 1)
    # the right half mirrors the left, with one more change at the centre
    # when g is odd about n/2 (j even)
    signs = [v > 0 for v in map(g_num, range(n // 2 + 1)) if v]
    sign_changes = 2 * sum(a != b for a, b in zip(signs, signs[1:])) + (j % 2 == 0)
    best, best_x = Fraction(0), Fraction(0)
    for i in range(1, n // 2 + 1):  # a zero of g at a knot is a critical point there
        if g_num(i) == 0 and abs(f_num(i)) > best * scale:
            best, best_x = Fraction(abs(f_num(i)), scale), Fraction(i)
    brackets = []
    for i in range((n + 1) // 2):
        fa, fb = f_num(i), f_num(i + 1)
        ga, gb = (q - 1) * g_num(i), (q - 1) * g_num(i + 1)  # f' on f's scale
        if (ga > 0 > gb) or (ga < 0 < gb):
            # the tangents at i and i+1 meet at height peak / |ga - gb|
            peak = abs(ga * fb - gb * fa - ga * gb)
            if peak:  # ranked by the log of the estimate; the stop test is exact
                brackets.append((math.log(peak) - math.log(abs(ga - gb)), i, (fa, fb, ga, gb), peak))
    brackets.sort(reverse=True)
    for _, i, ends, peak in brackets:
        if Fraction(peak, abs(ends[2] - ends[3]) * scale) <= best:
            break
        # start at the argmax of the cubic Hermite interpolant of the four knot data
        fa, fb, ga, gb = (v / max(map(abs, ends)) for v in ends)
        a, b = 6 * (fa - fb) + 3 * (ga + gb), 6 * (fb - fa) - 4 * ga - 2 * gb
        t_lo, t_hi, t = 0.0, 1.0, 0.5
        while t_lo < t < t_hi:
            if ((a * t + b) * t + ga > 0) == (ga > 0):
                t_lo = t
            else:
                t_hi = t
            t = (t_lo + t_hi) / 2
        lo, hi = Fraction(i), Fraction(i + 1)
        # |f| drops by at most tol within reach = sqrt(2 tol |f / f''|) of its
        # peak; the secant of f' over the bracket estimates f'' at the start
        reach = Fraction(math.sqrt(2 * tol * (peak / (ends[2] - ends[3]) ** 2)))
        target = lo + Fraction(t)
        while True:
            x = _simplest_in(target - reach, target + reach)
            if not lo < x < hi:
                x = (lo + hi) / 2
            den = x.denominator
            fx, gx, hx = _deriv_numerators(n, j, x.numerator, den, 3)
            value = Fraction(abs(fx), scale * den ** (q - 1))
            if value > best:
                best, best_x = value, x
            if gx == 0:
                break
            if (gx > 0) == (ends[2] > 0):
                lo = x
            else:
                hi = x
            if hi - lo <= reach:
                break
            curvature = hx * fx
            if curvature >= 0:  # |f| is not concave here: bisect
                target = (lo + hi) / 2
                continue
            rise = gx * gx * (q - 1) / (2 * (q - 2) * -curvature)
            if rise <= tol or value * (1 + Fraction(rise)) <= best:
                break
            ratio = -fx / (hx * (q - 1) * (q - 2) * den * den)  # |f / f''|
            reach = min(reach, Fraction(math.sqrt(2 * tol * ratio)))
            target = x - Fraction(gx / (hx * (q - 2) * den))  # Newton step on g
    return best, best_x, sign_changes


_BSUP_CACHE: dict = {}


def _sup_batch(n: int, j_values) -> None:
    """Fill the sup cache for derivative orders of B_n: one search for every order.

    Orders are served by decreasing j, so one upward walk of the Eulerian
    recurrence, keeping a single row in memory, gives each order the row
    its knot numerators come from; the entry keeps the sign-change count of
    g = B_n^(j+1) beside the sup.
    """
    row = [1]
    m = 0
    for j in sorted({j for j in j_values if (n, j) not in _BSUP_CACHE}, reverse=True):
        q = n - j
        while m < q - 2:
            m += 1
            row = _next_eulerian_row(row, m)
        sup, arg, sign_changes = _sup_search(n, j, _knot_differences(n, min(j, n - 2), row))
        _BSUP_CACHE[(n, j)] = {
            "n": n,
            "j": j,
            "sup": sup,
            "argmax": arg,
            "log_sup": _log_frac(sup) if sup else float("-inf"),
            "sign_changes": sign_changes,
        }


def bspline_derivative_sup(n: int, j: int) -> dict:
    """sup |B_n^(j)| for the cardinal B-spline of n >= 2 unit boxes, 0 <= j <= n-1.

    Returns "sup", the exact Fraction value of |B_n^(j)| at the rational
    abscissa "argmax" where the search ended; it is a lower bound on the
    true supremum, not an enclosure.  Also returns its natural log and
    "sign_changes", the number of sign changes of the knot values of
    B_n^(j+1), which total positivity fixes at j+1 and which certifies that
    every local maximum was bracketed; it is None for j >= n-2, where the
    sup is a knot value.
    """
    if n < 2 or not 0 <= j <= n - 1:
        raise ValueError("need n >= 2 and 0 <= j <= n-1")
    _sup_batch(n, [j])
    return _BSUP_CACHE[(n, j)]


# -- cutoff functions -------------------------------------------------------------


@dataclass(frozen=True)
class EhrenpreisCutoff:
    """Indicator smoothed by its budget's worth of equal box kernels.

    Identically 1 on [plateau_lo, plateau_hi], supported in
    [support_lo, support_hi], with transition width budget * box_width on
    each side.  Derivatives up to the budget exist and evaluate exactly.
    """

    band_index: int
    budget: int
    plateau_lo: Fraction
    plateau_hi: Fraction
    box_width: Fraction
    gap: Fraction

    @property
    def transition(self) -> Fraction:
        return self.budget * self.box_width

    @property
    def support_lo(self) -> Fraction:
        return self.plateau_lo - self.transition

    @property
    def support_hi(self) -> Fraction:
        return self.plateau_hi + self.transition

    def _knot_coord(self, r) -> tuple[Fraction, int]:
        """Map r to (ramp coordinate y in knot units, side sign)."""
        fr = Fraction(r)
        mid = (self.plateau_lo + self.plateau_hi) / 2
        if fr <= mid:
            return (fr - self.support_lo) / self.box_width, +1
        return (self.support_hi - fr) / self.box_width, -1

    def value(self, r):
        """phi(r); exact Fraction for exact input, float passthrough otherwise."""
        y, _side = self._knot_coord(r)
        out = _cdf(self.budget, y)
        return float(out) if isinstance(r, float) else out

    def derivative_value(self, r, ell: int):
        """phi^(l)(r) evaluated exactly from the spline representation."""
        if ell < 0:
            raise ValueError("derivative order must be >= 0")
        if ell == 0:
            return self.value(r)
        if ell > self.budget:
            raise ValueError(f"derivative order {ell} exceeds budget {self.budget}")
        y, side = self._knot_coord(r)
        if y <= 0 or y >= self.budget:
            return 0.0 if isinstance(r, float) else Fraction(0)
        base = _eval_deriv(self.budget, ell - 1, y)
        scaled = base / self.box_width ** ell
        if side < 0 and ell % 2 == 1:
            scaled = -scaled
        return float(scaled) if isinstance(r, float) else scaled


def build_cutoff(family: BandFamily, k: int) -> EhrenpreisCutoff:
    """Level-k cutoff: 1 on band k, supported in band k-1, transition d_k.

    The budget N_k box kernels have width d_k / N_k so the transition fills
    the gap between consecutive bands exactly.
    """
    if not 1 <= k <= family.levels:
        raise ValueError(f"band index {k} outside 1..{family.levels}")
    band = family.band(k)
    return EhrenpreisCutoff(
        band_index=k,
        budget=band.budget,
        plateau_lo=band.lo,
        plateau_hi=band.hi,
        box_width=band.d / band.budget,
        gap=band.d,
    )


# -- derivative growth bounds -----------------------------------------------------


def _ell_ladder(budget: int) -> list[int]:
    dense_cap = 64 if budget <= 256 else 32
    if budget <= dense_cap:
        return list(range(budget + 1))
    ells = list(range(dense_cap + 1))
    v = dense_cap
    while v < budget:
        v = min(budget, max(v + 1, v * 3 // 2))
        ells.append(v)
    return ells


def derivative_bound_check(cutoff: EhrenpreisCutoff) -> dict:
    """Least C with sup |phi^(l)| <= (C/d)^(l+1) N^l over the checked orders.

    For budgets above the dense cap the order set is thinned to a geometric
    ladder (always including the top order); the bound constant is extremely
    insensitive to ladder gaps because C enters at the (l+1)-th root.
    """
    n = cutoff.budget
    d = cutoff.gap
    log_d = _log_frac(d)
    log_n = math.log(n)
    log_w = _log_frac(cutoff.box_width)
    ells = _ell_ladder(n)
    _sup_batch(n, [ell - 1 for ell in ells if ell >= 1])
    profile = []
    c_measured = 0.0
    # |B_n^(j)| <= 2^j: B_n^(j) is the j-th backward difference of B_(n-j),
    # which lies in [0, 1]
    difference_bound_ok = True
    # B_n^(l) has exactly l sign changes, so every local maximum of
    # |B_n^(l-1)| was bracketed when its knot values show all l of them
    counted_ok = True
    for ell in ells:
        if ell == 0:
            log_sup = 0.0
        else:
            info = bspline_derivative_sup(n, ell - 1)
            log_sup = info["log_sup"] - ell * log_w
            difference_bound_ok = difference_bound_ok and info["sup"] <= 2 ** (ell - 1)
            counted_ok = counted_ok and info["sign_changes"] in (None, ell)
        log_c = log_d + (log_sup - ell * log_n) / (ell + 1)
        c_ell = math.exp(log_c)
        c_measured = max(c_measured, c_ell)
        profile.append(
            {
                "ell": ell,
                "log_sup": log_sup,
                "sup": _sci_from_log(log_sup),
                "bound_c": c_ell,
            }
        )
    return {
        "band": cutoff.band_index,
        "budget": n,
        "gap": fmt_fraction(d),
        "checked_orders": ells,
        "order_policy": "full" if len(ells) == n + 1 else "thinned-ladder",
        "profile": profile,
        "C_measured": c_measured,
        "pass": (math.isfinite(c_measured) and c_measured > 0 and difference_bound_ok
                 and counted_ok),
    }


def bound_check_grid(r1, r2, n_values, kmax: int = 8) -> dict:
    """Bound constants across a grid of (N, band) pairs for fixed (r1, r2).

    Uniformity claim: a single constant works for every band — measuring the
    largest-budget band alone calibrates it, in that no (N, k) pair on the
    grid demands more than twice that single-band value.  (Small budgets
    need much *less*, so the downward spread is wide by design; what must
    not happen is any band needing substantially more.)
    """
    entries = []
    reference = None
    for n in sorted(n_values):
        family = build_bands(r1, r2, n)
        for k in range(1, min(kmax, family.levels) + 1):
            check = derivative_bound_check(build_cutoff(family, k))
            entries.append(
                {"N": n, "k": k, "budget": check["budget"], "C_measured": check["C_measured"]}
            )
            if n == max(n_values) and k == 1:
                reference = check["C_measured"]
    cs = [e["C_measured"] for e in entries]
    uniform_ok = max(cs) <= 2.0 * reference
    return {
        "r1": str(Fraction(r1)),
        "r2": str(Fraction(r2)),
        "entries": entries,
        "C_uniform": max(cs),
        "single_band_reference": reference,
        "spread_ratio": max(cs) / min(cs),
        "uniform_within_factor_2": uniform_ok,
        "pass": uniform_ok,
    }


def recursion_product(n: int, c: float) -> dict:
    """Log of the telescoped localization product and its per-N exponential rate.

    log P = sum_k [ N_k log C + (N/2^k + 1) log(k^2 / 2^k) ],  N_k = N/2^(k-1),
    over k = 1..log2(N); per_N_rate = log P / N certifies the exponential
    bound numerically when it converges as N doubles.
    """
    if n < 4 or n & (n - 1):
        raise ValueError("N must be a power of 2, N >= 4")
    if c <= 0:
        raise ValueError("C must be positive")
    levels = n.bit_length() - 1
    log_c = math.log(c)
    total = 0.0
    factors = []
    for k in range(1, levels + 1):
        n_k = n >> (k - 1)
        log_base = math.log(k * k) - k * math.log(2.0)
        contribution = n_k * log_c + (n // (1 << k) + 1) * log_base
        factors.append({"k": k, "log_factor": contribution, "base_negative": log_base < 0})
        total += contribution
    return {
        "N": n,
        "C": c,
        "log_product": total,
        "per_N_rate": total / n,
        "factors": factors,
    }


def write_cutoff_samples_csv(cutoff: EhrenpreisCutoff, stream) -> None:
    """Sampled profile (r, phi, phi', phi'') at 201 points across the support, for plotting."""
    lo = float(cutoff.support_lo)
    hi = float(cutoff.support_hi)
    margin = 0.05 * (hi - lo)
    stream.write("r,phi,dphi,d2phi\n")
    top = min(2, cutoff.budget)
    for i in range(201):
        r = lo - margin + (hi - lo + 2 * margin) * i / 200
        phi_v = cutoff.value(r)
        d1 = cutoff.derivative_value(r, 1)
        d2 = cutoff.derivative_value(r, 2) if top >= 2 else 0.0
        stream.write(f"{r:.17g},{phi_v:.17g},{d1:.17g},{d2:.17g}\n")
