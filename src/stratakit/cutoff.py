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
queries are exact at any size.  One dispatcher, ``_sup_batch``, picks the
search: critical-point isolation for small budgets, and for large ones an
exact-evaluation grid search seeded by the knot values (from Eulerian
numbers), then dyadic/parabolic polish.  Either way the reported "sup" is
the exact spline value at a rational abscissa the search reached, so it is
a lower bound on the true supremum: critical-point isolation reports the
value at the midpoint of its last bisection bracket, not at the critical
point itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .exactalg import fmt_fraction

__all__ = [
    "Band",
    "BandFamily",
    "EhrenpreisCutoff",
    "build_bands",
    "build_cutoff",
    "build_cutoff_pair",
    "bspline_derivative_sup",
    "derivative_bound_check",
    "bound_check_grid",
    "recursion_product",
    "write_cutoff_samples_csv",
]

# budgets up to this size get critical-point isolation; larger ones
# use the knot-seeded grid search (validated against the exact path)
EXACT_SUP_CAP = 32


def _log_frac(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


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


def _knot_numerators_from_row(n: int, j: int, eulerian_row: list[int]) -> list[int]:
    """Integer knot values of B_n^(j) scaled by (q-1)!, q = n - j.

    B_q(i) = A(q-1, i-1)/(q-1)! feeds the j-fold alternating-binomial
    difference; ``eulerian_row`` must be row q-1 of the triangle.
    """
    q = n - j
    half = n // 2
    base = [0] * (q + 1)
    for i in range(1, q):
        base[i] = eulerian_row[i - 1]
    nums = [0] * (n + 1)
    for r in range(j + 1):
        c = comb(j, r) if r % 2 == 0 else -comb(j, r)
        for i in range(1, min(q, half - r + 1)):
            if base[i]:
                nums[i + r] += c * base[i]
    # B_n^(j)(n - y) = (-1)^j B_n^(j)(y): the right half mirrors the left
    for i in range(half + 1, n + 1):
        nums[i] = nums[n - i] if j % 2 == 0 else -nums[n - i]
    return nums


_COMB_ROWS: dict = {}


def _comb_row(n: int) -> list[int]:
    if n not in _COMB_ROWS:
        row = [1] * (n + 1)
        for s in range(1, n + 1):
            row[s] = row[s - 1] * (n - s + 1) // s
        _COMB_ROWS[n] = row
    return _COMB_ROWS[n]


def _deriv_numerator(n: int, j: int, p: int, q_den: int) -> int:
    """Integer numerator of B_n^(j)(p/q_den) over (n-j-1)! * q_den^(n-j-1)."""
    deg = n - j - 1
    if p <= 0:
        return 0
    top = min(p // q_den, n)
    binom = _comb_row(n)
    acc = 0
    for s in range(top + 1):
        base = p - s * q_den
        if base == 0 and deg > 0:
            continue
        term = binom[s] * base ** deg
        acc += -term if s % 2 else term
    return acc


def _eval_deriv(n: int, j: int, y: Fraction) -> Fraction:
    """Exact value of B_n^(j) at a rational point (unit knots on [0, n])."""
    if y <= 0 or y >= n:
        return Fraction(0)
    deg = n - j - 1
    num = _deriv_numerator(n, j, y.numerator, y.denominator)
    return Fraction(num, factorial(deg) * y.denominator ** deg)


def _cdf(n: int, y: Fraction) -> Fraction:
    """Transition ramp B_n^(-1) = integral of B_n: the smoothed unit step, at knot scale."""
    return Fraction(1) if y >= n else _eval_deriv(n, -1, y)


def _sup_const_piece(n: int) -> tuple[Fraction, Fraction]:
    # top derivative is piecewise constant with values (-1)^i C(n-1, i)
    i0 = (n - 1) // 2
    return Fraction(comb(n - 1, i0)), Fraction(2 * i0 + 1, 2)


def _sup_exact(n: int, j: int) -> tuple[Fraction, Fraction]:
    """Largest |B_n^(j)| found via critical-point isolation.

    Each sign change of the next derivative is bisected 60 times and the
    value is taken at the midpoint of the last bracket, so the result is the
    exact value at that abscissa and a lower bound on the supremum.
    """
    q = n - j
    best = Fraction(0)
    best_x = Fraction(1)
    samples_per_interval = 2 * q + 3

    def consider(x: Fraction):
        nonlocal best, best_x
        v = abs(_eval_deriv(n, j, x))
        if v > best:
            best, best_x = v, x

    deg_next = n - j - 2  # degree of the derivative spline pieces

    def dsign(x: Fraction) -> int:
        num = _deriv_numerator(n, j + 1, x.numerator, x.denominator)
        return (num > 0) - (num < 0)

    for i in range(1, n):
        consider(Fraction(i))
    for i in range(n):
        xs = [Fraction(i * samples_per_interval + s, samples_per_interval)
              for s in range(1, samples_per_interval)]
        for x in xs:
            consider(x)
        if deg_next < 0:
            continue
        pts = [Fraction(i)] + xs + [Fraction(i + 1)]
        signs = [dsign(x) for x in pts]
        for a, b, sa, sb in zip(pts, pts[1:], signs, signs[1:]):
            if sa == 0 or sa * sb >= 0:
                continue
            lo, hi = a, b
            for _ in range(60):
                mid = (lo + hi) / 2
                sm = dsign(mid)
                if sm == 0:
                    lo = hi = mid
                    break
                if sm == sa:
                    lo = mid
                else:
                    hi = mid
            consider((lo + hi) / 2)
    return best, best_x


def _parabola_vertex(x0: Fraction, h: Fraction, vm: Fraction, v0: Fraction, vp: Fraction):
    """Vertex abscissa of the parabola through three exact samples.

    The offset is computed on value *ratios* in float (safe for any
    magnitude) and snapped to a dyadic rational so later exact evaluations
    at the vertex stay cheap.
    """
    if v0 == 0:
        return None
    rm, rp = float(vm / v0), float(vp / v0)
    denom = rm - 2.0 + rp
    if denom == 0.0 or not math.isfinite(denom):
        return None
    offset = (rm - rp) / (2.0 * denom)
    if not abs(offset) <= 1.0:
        return None
    snapped = Fraction(round(offset * 65536), 65536)
    return x0 + snapped * h


def _sup_grid_from_knots(n: int, j: int, nums: list[int]) -> tuple[Fraction, Fraction]:
    """Supremum search seeded by exact (scaled-integer) knot values.

    Low piece degree means knot-to-knot oscillation, so every interval is
    swept on a quarter-knot grid; a near-Gaussian profile that the knot grid
    undersamples is swept on quarter-knot windows around its largest knot
    values.  Either sweep is refined on a sixteenth grid around its champion
    and polished.  A profile the knot grid resolves only gets parabolic
    polishing in its championship windows.  All candidate evaluations are
    exact: knot values (integer abscissae) come from ``nums``, and each
    abscissa is evaluated at most once per call.
    """
    q = n - j
    best = Fraction(0)
    best_x = Fraction(1)
    scale = factorial(q - 1)
    values: dict = {}

    def value(x: Fraction) -> Fraction:
        v = values.get(x)
        if v is None:
            if x.denominator == 1 and 0 <= x <= n:
                v = Fraction(nums[x.numerator], scale)
            else:
                v = _eval_deriv(n, j, x)
            values[x] = v
        return v

    def consider(x: Fraction):
        nonlocal best, best_x
        if x <= 0 or x >= n:
            return
        v = abs(value(x))
        if v > best:
            best, best_x = v, x

    def polish(x0: Fraction, h: Fraction, rounds: int = 1):
        for _ in range(rounds):
            vm = value(x0 - h)
            v0 = value(x0)
            vp = value(x0 + h)
            sign = -1 if v0 < 0 else 1
            vertex = _parabola_vertex(x0, h, sign * vm, sign * v0, sign * vp)
            if vertex is None:
                return
            consider(vertex)
            x0, h = vertex, h / 8

    # local oscillation wavelength of the derivative spline, in knot units
    wavelength = math.pi * math.sqrt(n / 12.0) / math.sqrt(max(j, 1))
    peak = max(abs(v) for v in nums)

    if q <= 64 or wavelength < 3.0:
        if q <= 64:
            quarters = range(1, 4 * n)
        else:
            windows = [i for i in range(n + 1) if abs(nums[i]) >= peak // 2][:8]
            quarters = [4 * i + s for i in windows for s in range(-4, 5)]
        for num in quarters:
            consider(Fraction(num, 4))
        center = best_x
        for s in range(-4, 5):
            consider(center + Fraction(s, 16))
        polish(best_x, Fraction(1, 16))
        return best, best_x

    # knot-resolved regime: parabolic polishing around the champion knots
    windows = [i for i in range(n + 1) if abs(nums[i]) >= peak * 49 // 50][:4]
    rounds = 2 if q <= 256 else 1
    for i in windows:
        consider(Fraction(i))
        polish(Fraction(i), Fraction(1), rounds)
    return best, best_x


_BSUP_CACHE: dict = {}


def _cache_sup(n: int, j: int, sup: Fraction, arg: Fraction, mode: str) -> dict:
    entry = {
        "n": n,
        "j": j,
        "sup": sup,
        "argmax": arg,
        "log_sup": _log_frac(sup) if sup else float("-inf"),
        "mode": mode,
    }
    _BSUP_CACHE[(n, j)] = entry
    return entry


def _sup_batch(n: int, j_values) -> None:
    """Fill the sup cache for derivative orders of B_n; the one search dispatcher.

    Orders are served by decreasing j, so one upward walk of the Eulerian
    recurrence, keeping a single row in memory, gives each grid order the
    row of its piece degree to seed the search with knot values.
    """
    mode = "exact" if n <= EXACT_SUP_CAP else "grid"
    row = [1]
    m = 0
    for j in sorted({j for j in j_values if (n, j) not in _BSUP_CACHE}, reverse=True):
        q = n - j
        if q == 1:
            sup, arg = _sup_const_piece(n)
        elif mode == "exact":
            sup, arg = _sup_exact(n, j)
        else:
            while m < q - 1:
                m += 1
                row = _next_eulerian_row(row, m)
            sup, arg = _sup_grid_from_knots(n, j, _knot_numerators_from_row(n, j, row))
        _cache_sup(n, j, sup, arg, mode)


def bspline_derivative_sup(n: int, j: int) -> dict:
    """sup |B_n^(j)| for the cardinal B-spline of n unit boxes, 0 <= j <= n-1.

    Returns "sup", the exact Fraction value of |B_n^(j)| at the rational
    abscissa "argmax" where the search ended; it is a lower bound on the
    true supremum, not an enclosure.  Also returns its natural log and which
    search mode ran.
    """
    if not 0 <= j <= n - 1:
        raise ValueError("need 0 <= j <= n-1")
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
    twin: bool = False

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

    def derivative_sup(self, ell: int) -> dict:
        """Largest |phi^(l)| found (exact, a lower bound on the sup) and its abscissa."""
        if ell == 0:
            return {"sup": Fraction(1), "log_sup": 0.0, "argmax_r": self.plateau_lo, "mode": "plateau"}
        if not 1 <= ell <= self.budget:
            raise ValueError(f"derivative order {ell} outside 1..{self.budget}")
        info = bspline_derivative_sup(self.budget, ell - 1)
        sup = info["sup"] / self.box_width ** ell
        argmax_r = self.support_lo + info["argmax"] * self.box_width
        return {
            "sup": sup,
            "log_sup": info["log_sup"] - ell * _log_frac(self.box_width),
            "argmax_r": argmax_r,
            "mode": info["mode"],
        }


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


def build_cutoff_pair(family: BandFamily, k: int) -> tuple[EhrenpreisCutoff, EhrenpreisCutoff]:
    """The doubled family (phi_k, twin): the gap d_k is split into half-gaps.

    phi_k rises across the inner half-gap, the twin across the outer one, so
    the twin is identically 1 on the support of phi_k while both stay
    supported in band k-1 and obey the same derivative budget.
    """
    if not 1 <= k <= family.levels:
        raise ValueError(f"band index {k} outside 1..{family.levels}")
    band = family.band(k)
    half = band.d / 2
    w = half / band.budget
    phi = EhrenpreisCutoff(
        band_index=k,
        budget=band.budget,
        plateau_lo=band.lo,
        plateau_hi=band.hi,
        box_width=w,
        gap=band.d,
    )
    twin = EhrenpreisCutoff(
        band_index=k,
        budget=band.budget,
        plateau_lo=band.lo - half,
        plateau_hi=band.hi + half,
        box_width=w,
        gap=band.d,
        twin=True,
    )
    return phi, twin


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
    weak_ok = True
    # |B_n^(j)| <= 2^j: B_n^(j) is the j-th backward difference of B_(n-j),
    # which lies in [0, 1]
    difference_bound_ok = True
    for ell in ells:
        if ell == 0:
            log_sup = 0.0
        else:
            info = bspline_derivative_sup(n, ell - 1)
            sup_mode = info["mode"]
            log_sup = info["log_sup"] - ell * log_w
            difference_bound_ok = difference_bound_ok and info["sup"] <= 2 ** (ell - 1)
        log_c = log_d + (log_sup - ell * log_n) / (ell + 1)
        c_ell = math.exp(log_c)
        c_measured = max(c_measured, c_ell)
        # corrected weak form: sup <= (C'/d)^(l+1) l! e^N, via N^l <= l! e^N
        if ell * log_n > math.lgamma(ell + 1) + n + 1e-9:
            weak_ok = False
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
        "sup_mode": sup_mode,
        "profile": profile,
        "C_measured": c_measured,
        "weak_form_ok": weak_ok,
        "pass": math.isfinite(c_measured) and c_measured > 0 and difference_bound_ok,
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


def write_cutoff_samples_csv(cutoff: EhrenpreisCutoff, stream, n_samples: int = 200) -> None:
    """Sampled profile (r, phi, phi', phi'') across the support, for plotting."""
    lo = float(cutoff.support_lo)
    hi = float(cutoff.support_hi)
    margin = 0.05 * (hi - lo)
    stream.write("r,phi,dphi,d2phi\n")
    top = min(2, cutoff.budget)
    for i in range(n_samples + 1):
        r = lo - margin + (hi - lo + 2 * margin) * i / n_samples
        phi_v = cutoff.value(r)
        d1 = cutoff.derivative_value(r, 1)
        d2 = cutoff.derivative_value(r, 2) if top >= 2 else 0.0
        stream.write(f"{r:.17g},{phi_v:.17g},{d1:.17g},{d2:.17g}\n")
