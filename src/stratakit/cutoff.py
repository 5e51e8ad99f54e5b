"""Nested band geometry and iterated-box-convolution cutoff functions.

The bands shrink the interval (r1, r2) by the gap schedule
d_k = (r2 - r1)/(4 k^2), one gap per side per level, leaving log2(N) nested
bands with derivative budgets N_k = N / 2^(k-1).  The level-k cutoff is the
indicator of band k convolved with N_k box kernels of width d_k / N_k: it is
1 on band k, supported in band k-1 (the gap d_k hosts the transition), and
its derivatives up to order N_k are exactly evaluable.

All transition analysis reduces to cardinal B-splines on unit knots: a
transition ramp of n equal boxes of width w satisfies

    sup |phi^(l)| = w^(-l) * sup |B_n^(l-1)|,   1 <= l <= n,

where B_n is the n-fold convolution of the unit box.  Derivative values are
computed from the truncated-power representation

    B_n^(j)(y) = (1/(n-j-1)!) sum_s (-1)^s C(n, s) (y - s)_+^(n-j-1),

whose numerator is an integer for rational y, so evaluation is exact at any
size.  ``_deriv_nums`` is the layer's one spline evaluator: the top-order
check compares its integer pair with the binomial, and the samples CSV
rounds its pairs.  The suprema need no search.  B_n^(j) is the j-th
backward difference of B_(n-j),

    B_n^(j)(y) = sum_i (-1)^i C(j, i) B_(n-j)(y - i),

and the translates B_(n-j)(y - i) are non-negative with sum 1, so
|B_n^(j)| <= C(j, floor(j/2)).  The bound is attained at j = n-1, where
B_n^(n-1) is piecewise constant with values +-C(n-1, i).  Orders 0 and N
set every band's constant (README has the proof), so the bound check
reports those two orders: order 0 exactly, order N at its attained bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, lcm

from . import exact, fmt_fraction

__all__ = [
    "Band",
    "build_bands",
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
    log10 = log_value / math.log(10.0)
    exp = math.floor(log10)
    mant = 10.0 ** (log10 - exp)
    return f"{mant:.6f}e{exp:+d}"


# -- cardinal B-spline engine ----------------------------------------------------


def _deriv_nums(n: int, j: int, y: Fraction, count: int) -> list[tuple[int, int]]:
    """(num, den) of B_n^(j), B_n^(j-1), ..., B_n^(j-count+1) at a rational point.

    At y = p/q the truncated-power sum of B_n^(i) has an integer numerator
    over (n-i-1)! q^(n-i-1); 0 ** 0 == 1 gives (y - s)_+^0 = 1 at the knot
    y = s.  The orders share their bases p - s q: each base is raised to the
    lowest degree n-j-1 once, then multiplied by itself once per further order.
    C(n, s) is carried through the loop, which reads only s <= floor(y).  B_n
    is symmetric about n/2, so past it the sum runs at n - y, the shorter side:
    B_n^(i)(y) = (-1)^i B_n^(i)(n - y), and the ramp is 1 - B_n^(-1)(n - y).
    The pairs are not reduced.
    """
    if y <= 0 or y >= n:
        return [(0, 1)] * count
    deg = n - j - 1
    # at a knot the piecewise-constant order n-1 takes its right-hand value, which
    # the mirror would turn into the left-hand one
    if 2 * y > n and (deg or y.denominator > 1):
        mirror = _deriv_nums(n, j, n - y, count)
        return [(den - num if i > j else -num if (j - i) % 2 else num, den)
                for i, (num, den) in enumerate(mirror)]
    p, q = y.numerator, y.denominator
    binom = 1
    nums = [0] * count
    for s in range(min(p // q, n) + 1):
        base = p - s * q
        power = (-binom if s % 2 else binom) * base ** deg
        nums[0] += power
        for i in range(1, count):
            power *= base
            nums[i] += power
        binom = binom * (n - s) // (s + 1)
    return [(num, factorial(deg + i) * q ** (deg + i)) for i, num in enumerate(nums)]


# -- bands and their cutoffs ------------------------------------------------------


class Band(namedtuple("Band", "k lo hi d budget")):
    """Band k = [lo, hi] with gap d and budget N_k: the geometry of its cutoff phi_k.

    phi_k is the indicator of [lo, hi] smoothed by ``budget`` boxes of width
    ``box_width``: identically 1 on the band, supported in
    [support_lo, support_hi] (band k-1), with a transition of width d on each
    side.  At r its order l >= 1 is B_N^(l-1)(y) / w^l, negated for odd l on
    the right side, with y the knot coordinate (r - support_lo)/w, or
    (support_hi - r)/w right of the band's midpoint; order 0 is the ramp
    B_N^(-1)(y).  ``write_cutoff_samples_csv`` evaluates them so.  A named
    tuple (int k and budget, Fraction lo, hi and d), not a dataclass, so the
    cutoff path never imports ``dataclasses``.
    """

    __slots__ = ()

    @property
    def box_width(self) -> Fraction:
        return self.d / self.budget

    @property
    def support_lo(self) -> Fraction:
        return self.lo - self.d

    @property
    def support_hi(self) -> Fraction:
        return self.hi + self.d


# the largest family: a bound check's time about quadruples per doubling of N
# (--N 65536 --grid took 1.6 s, and 7.0 s at 131072 with the cap lifted)
_MAX_N = 1 << 16
# the largest family whose samples CSV is written: its time grows about
# fivefold per doubling of N (on a shared 2-vCPU VM, a median 1.4 s over three
# runs at N = 1024, and 7.7-9.4 s in two runs at 2048)
_MAX_SAMPLES_N = 1 << 11


def build_bands(r1, r2, n: int) -> tuple[Band, ...]:
    """Bands k = 1..log2(N) with gaps d_k = (r2 - r1)/(4 k^2) and budgets N/2^(k-1)."""
    lo, hi = exact(r1), exact(r2)
    if not lo < hi:
        raise ValueError("need r1 < r2")
    if n < 4 or n & (n - 1):
        raise ValueError("N must be a power of 2, N >= 4")
    if n > _MAX_N:
        raise ValueError(f"N = {n} exceeds the cap of {_MAX_N}")
    span = hi - lo
    bands = []
    for k in range(1, n.bit_length()):
        d = span / (4 * k * k)
        # each side moves in by sum d_k < (pi^2/24) span < span/2, so lo < hi
        lo, hi = lo + d, hi - d
        bands.append(Band(k=k, lo=lo, hi=hi, d=d, budget=n >> (k - 1)))
    return tuple(bands)


# -- derivative growth bounds -----------------------------------------------------


def derivative_bound_check(band: Band) -> dict:
    """Least C with sup |phi^(l)| <= (C/d)^(l+1) N^l at every order l = 0..N.

    Order 0 has sup phi = 1; order l >= 1 has the proved bound
    sup |B_N^(l-1)| <= C(l-1, floor((l-1)/2)).  Orders 0 and N set the
    constant (README has the proof), so C_measured is the larger of theirs,
    max(d, (d C(N-1, floor((N-1)/2)))^(1/(N+1))), evaluated in floats: the
    closed form rounded to nearest, not an upper bound (the exact enclosure
    is an open ROADMAP item).  The top order's bound is attained, and
    ``pass`` requires that value, the spline's integer pair at the centre of
    a piece, to equal the binomial.
    """
    n = band.budget
    log_d = _log_frac(band.d)
    log_n = math.log(n)
    log_w = _log_frac(band.box_width)
    profile = []
    for ell in (0, n):
        log_sup = math.log(comb(ell - 1, (ell - 1) // 2)) - ell * log_w if ell else 0.0
        log_c = log_d + (log_sup - ell * log_n) / (ell + 1)
        profile.append(
            {
                "ell": ell,
                "log_sup_bound": log_sup,
                "sup_bound": _sci_from_log(log_sup),
                "bound_c": math.exp(log_c),
            }
        )
    c_measured = max(e["bound_c"] for e in profile)
    mid = (n - 1) // 2
    # B_N^(N-1) is +-C(N-1, i) on the piece (i, i+1)
    num, den = _deriv_nums(n, n - 1, Fraction(2 * mid + 1, 2), 1)[0]
    top_ok = abs(num) == comb(n - 1, mid) * den
    return {
        "band": band.k,
        "budget": n,
        "gap": fmt_fraction(band.d),
        "checked_orders": [0, n],
        "profile": profile,
        "C_measured": c_measured,
        "pass": math.isfinite(c_measured) and c_measured > 0 and top_ok,
    }


def bound_check_grid(r1, r2, n: int, kmax: int = 8) -> dict:
    """Bound constants of bands k <= kmax of the families 4, 16, 64, ... below N
    and of N itself, for fixed (r1, r2).

    Uniformity claim: a single constant works for every band — the
    largest-budget band's C_measured calibrates it, in that no (N, k) pair on
    the grid needs more than twice that single-band value.  (Small budgets
    need much *less*, so the downward spread is wide by design; what must
    not happen is any band needing substantially more.)  ``pass`` requires
    that uniformity and every band's own ``pass``, its top-order check.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    sizes = [1 << e for e in range(2, n.bit_length() - 1, 2)] + [n]
    # every family is built, so an invalid N is refused, before any band is checked
    families = [build_bands(r1, r2, size)[:kmax] for size in sizes]
    entries, bands_ok = [], True
    for size, bands in zip(sizes, families):
        for band in bands:
            check = derivative_bound_check(band)
            bands_ok = bands_ok and check["pass"]
            entries.append({"N": size, "k": band.k, "budget": band.budget,
                            "C_measured": check["C_measured"]})
    cs = [e["C_measured"] for e in entries]
    reference = cs[-len(families[-1])]  # band 1 of N
    uniform_ok = max(cs) <= 2.0 * reference
    return {
        "r1": str(Fraction(r1)),
        "r2": str(Fraction(r2)),
        "entries": entries,
        "C_uniform": max(cs),
        "single_band_reference": reference,
        "spread_ratio": max(cs) / min(cs),
        "uniform_within_factor_2": uniform_ok,
        "pass": uniform_ok and bands_ok,
    }


def recursion_product(n: int, c: float) -> dict:
    """Log of the telescoped localization product and its per-N exponential rate.

    log P = sum_k [ N_k log C + (N/2^k + 1) log(k^2 / 2^k) ],  N_k = N/2^(k-1),
    over k = 1..log2(N).  per_N_rate = log P / N, a float estimate and no
    certificate, tends to L(C) = 2 log(C/2) + 2 sum_k 2^(-k) log k (L(2) ~ 1.0157);
    the runner's doubling-gap gate fails only for C above ~38 (ROADMAP item 3).
    """
    if n < 4 or n & (n - 1):
        raise ValueError("N must be a power of 2, N >= 4")
    if c <= 0:
        raise ValueError("C must be positive")
    levels = n.bit_length() - 1
    log_c = math.log(c)
    total = 0.0
    for k in range(1, levels + 1):
        n_k = n >> (k - 1)
        log_base = math.log(k * k) - k * math.log(2.0)
        total += n_k * log_c + (n // (1 << k) + 1) * log_base
    return {"N": n, "C": c, "log_product": total, "per_N_rate": total / n}


def write_cutoff_samples_csv(band: Band, stream) -> None:
    """Sampled profile (r, phi, phi', phi'') at 201 points across the support, for plotting.

    The points r_i = lo - m + (hi - lo + 2m) i/200, m = (hi - lo)/20, are
    exact rationals, held as integer numerators over c, the lcm of the
    denominators of the start, the step and both support ends.  Each point's
    knot coordinate is one reduced Fraction, read from the nearer support end
    as ``Band`` describes, and one ``_deriv_nums`` call gives its three
    orders.  Each value is rounded to a float once, by int true division of
    its (num, den) pair, which is correctly rounded, as ``float`` of the
    exact Fraction is.
    """
    n, w = band.budget, band.box_width
    lo, hi = band.support_lo, band.support_hi
    margin = (hi - lo) / 20
    start, step = lo - margin, (hi - lo + 2 * margin) / 200
    c = lcm(start.denominator, step.denominator, lo.denominator, hi.denominator)
    first, step, left, right = (v.numerator * (c // v.denominator) for v in (start, step, lo, hi))
    stream.write("r,phi,dphi,d2phi\n")
    for i in range(201):
        r = first + i * step
        side = 1 if 2 * r <= left + right else -1  # the band's midpoint is the support's
        y = Fraction((r - left if side > 0 else right - r) * w.denominator, c * w.numerator)
        row = [r / c]
        for ell, (num, den) in enumerate(_deriv_nums(n, 1, y, 3)[::-1]):
            if ell == 0 and y >= n:  # the ramp is 1 past the transition
                num = den = 1
            sign = side if ell % 2 else 1
            row.append(sign * num * w.denominator ** ell / (den * w.numerator ** ell))
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")
