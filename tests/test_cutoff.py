"""Band geometry, iterated-box cutoffs, derivative bounds, product rate."""

import io
import math
import tracemalloc
from fractions import Fraction

import pytest

from stratakit.cutoff import (
    Band,
    build_bands,
    bound_check_grid,
    derivative_bound_check,
    recursion_product,
    write_cutoff_samples_csv,
)
from stratakit import cli, exact
from stratakit import cutoff as co


def _eval_derivs(n, j, y, count):
    """Exact values of B_n^(j), B_n^(j-1), ..., B_n^(j-count+1): the Fraction view
    of the kernel ``_deriv_nums``."""
    return [Fraction(num, den) for num, den in co._deriv_nums(n, j, y, count)]


def _knot_coord(cut, r):
    """Map an exact r to (ramp coordinate y in knot units, side sign)."""
    fr = exact(r)
    mid = (cut.lo + cut.hi) / 2
    if fr <= mid:
        return (fr - cut.support_lo) / cut.box_width, +1
    return (cut.support_hi - fr) / cut.box_width, -1


def _derivatives(cut, r, lo, hi):
    """[phi^(lo)(r), ..., phi^(hi)(r)] exactly, from one shared spline sum: the
    oracle the samples CSV is checked against.

    Order l >= 1 is B_N^(l-1) at the knot coordinate over w^l, negated for odd
    l on the right side.  Order 0 is the ramp B_N^(-1), the integral of B_N:
    the smoothed unit step at knot scale.  A float r raises TypeError.
    """
    if lo < 0:
        raise ValueError("derivative order must be >= 0")
    if hi > cut.budget:
        raise ValueError(f"derivative order {hi} exceeds budget {cut.budget}")
    y, side = _knot_coord(cut, r)
    values = _eval_derivs(cut.budget, hi - 1, y, hi - lo + 1)[::-1]
    out = []
    for ell, value in zip(range(lo, hi + 1), values):
        if ell == 0 and y >= cut.budget:
            value = Fraction(1)
        out.append((side if ell % 2 else 1) * value / cut.box_width ** ell)
    return out


def _phi(cut, r, ell=0):
    """phi^(l)(r) alone, exactly: one order of ``_derivatives``."""
    return _derivatives(cut, r, ell, ell)[0]


class TestBandGeometry:
    def test_gap_schedule_exact(self):
        bands = build_bands(0, 1, 16)
        assert [b.d for b in bands] == [
            Fraction(1, 4),
            Fraction(1, 16),
            Fraction(1, 36),
            Fraction(1, 64),
        ]

    def test_gap_scales_with_span(self):
        bands = build_bands(1, 3, 8)
        assert bands[0].d == Fraction(1, 2)
        assert bands[1].d == Fraction(1, 8)

    def test_n4_two_bands_budgets(self):
        bands = build_bands(1, 2, 4)
        assert len(bands) == 2
        assert [b.budget for b in bands] == [4, 2]

    def test_budgets_halve(self):
        bands = build_bands(0, 1, 64)
        assert [b.budget for b in bands] == [64, 32, 16, 8, 4, 2]

    def test_nesting_strict(self):
        prev_lo, prev_hi = Fraction(0), Fraction(1)
        for b in build_bands(0, 1, 32):
            assert prev_lo < b.lo < b.hi < prev_hi
            assert b.lo == prev_lo + b.d and b.hi == prev_hi - b.d
            prev_lo, prev_hi = b.lo, b.hi

    def test_total_shrinkage_partial_sums(self):
        # sum d_k -> (pi^2/24)(r2 - r1), always below the span; the tail
        # beyond K bands is under 1/(4K)
        bands = build_bands(0, 1, 1024)
        total = sum((b.d for b in bands), Fraction(0))
        assert total < Fraction(1)
        gap_to_limit = math.pi ** 2 / 24 - float(total)
        assert 0 < gap_to_limit < 1 / (4 * len(bands))

    def test_band_fields_properties_and_value_semantics(self):
        band = Band(1, Fraction(5, 4), Fraction(7, 4), Fraction(1, 4), 8)
        assert band == Band(k=1, lo=Fraction(5, 4), hi=Fraction(7, 4), d=Fraction(1, 4), budget=8)
        assert hash(band) == hash(build_bands(1, 2, 8)[0]) and band == build_bands(1, 2, 8)[0]
        assert band != Band(2, band.lo, band.hi, band.d, band.budget)
        assert (band.k, band.lo, band.hi, band.d, band.budget) == (
            1, Fraction(5, 4), Fraction(7, 4), Fraction(1, 4), 8
        )
        assert band.box_width == Fraction(1, 32)
        assert (band.support_lo, band.support_hi) == (Fraction(1), Fraction(2))

    def test_band_is_immutable(self):
        band = build_bands(1, 2, 8)[0]
        for name in ("k", "lo", "hi", "d", "budget", "extra"):
            with pytest.raises(AttributeError):
                setattr(band, name, 0)
        assert band.budget == 8

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_bands(0, 1, 12)
        with pytest.raises(ValueError):
            build_bands(0, 1, 2)
        with pytest.raises(ValueError):
            build_bands(1, 1, 8)

    def test_rejects_float_endpoints(self):
        # 0.1 would enter as its binary value, not 1/10
        with pytest.raises(TypeError):
            build_bands(0.1, 2, 4)


class TestCutoffShape:
    def test_plateau_is_band_support_is_outer_band(self):
        outer = (Fraction(0), Fraction(1))
        for band in build_bands(0, 1, 16)[:2]:
            assert _phi(band, band.lo) == _phi(band, band.hi) == 1
            assert (band.support_lo, band.support_hi) == outer
            assert band.box_width * band.budget == band.d
            outer = (band.lo, band.hi)

    def test_plateau_value_one(self):
        cut = build_bands(0, 1, 8)[0]
        for r in (cut.lo, (cut.lo + cut.hi) / 2, cut.hi):
            assert _phi(cut, r) == 1

    def test_vanishes_outside_support(self):
        cut = build_bands(0, 1, 8)[0]
        assert _phi(cut, cut.support_lo) == 0
        assert _phi(cut, cut.support_hi) == 0
        assert _phi(cut, cut.support_lo - Fraction(1, 100)) == 0

    def test_bounded_by_one(self):
        cut = build_bands(0, 1, 8)[1]
        for i in range(301):
            r = Fraction(i, 300)
            assert 0 <= _phi(cut, r) <= 1

    def test_mid_transition_value(self):
        cut = build_bands(0, 1, 16)[0]
        mid = cut.lo - cut.d / 2
        assert _phi(cut, mid) == Fraction(1, 2)  # symmetric ramp

    def test_float_input_rejected(self):
        cut = build_bands(0, 1, 8)[0]
        with pytest.raises(TypeError):
            _phi(cut, 0.5)
        assert isinstance(_phi(cut, Fraction(1, 2)), Fraction)

    def test_base_is_one_on_support_of_next_level(self):
        phi1, phi2 = build_bands(0, 1, 16)[:2]
        assert phi1.lo <= phi2.support_lo
        assert phi2.support_hi <= phi1.hi
        assert _phi(phi1, phi2.support_lo) == 1


class TestBsplineSups:
    def test_hat_function(self):
        assert _eval_derivs(2, 0, Fraction(1), 1)[0] == 1 == math.comb(0, 0)

    def test_quadratic_peak(self):
        assert _eval_derivs(3, 0, Fraction(3, 2), 1)[0] == Fraction(3, 4)

    def test_top_derivative_central_binomial(self):
        # piecewise-constant top derivative has values +-C(n-1, i)
        assert abs(_eval_derivs(6, 5, Fraction(5, 2), 1)[0]) == 10  # C(5, 2)

    @pytest.mark.parametrize("n", [8, 16])
    def test_sup_dominates_exact_scan(self, n):
        # C(j, floor(j/2)) against an exact reference: every 1/64 point of (0, n)
        for j in range(n):
            scan = max(abs(_eval_derivs(n, j, Fraction(i, 64), 1)[0]) for i in range(1, 64 * n))
            bound = math.comb(j, j // 2)
            assert bound >= scan
            assert (bound == scan) or j < n - 1

    def test_sup_is_attained_value(self):
        # the bound is attained for j >= n - 2: at a knot where B_n^(n-2) is
        # piecewise linear, inside a piece where B_n^(n-1) is constant
        n = 12
        assert abs(_eval_derivs(n, n - 2, Fraction(6), 1)[0]) == math.comb(n - 2, 5)
        assert abs(_eval_derivs(n, n - 1, Fraction(11, 2), 1)[0]) == math.comb(n - 1, 5)

    @pytest.mark.parametrize("n", [2, 4, 5, 8])
    def test_mirrored_half_matches_the_full_sum(self, n):
        # the kernel's integer pairs against the truncated-power sum over every s <= y,
        # order -1 the ramp, 0 ** 0 == 1 at a knot; the points cover y < n/2, y = n/2,
        # y > n/2 and every knot
        def full_sum(i, y):
            deg = n - i - 1
            acc = sum((-1) ** s * math.comb(n, s) * (y - s) ** deg for s in range(n + 1) if s <= y)
            return acc / math.factorial(deg)

        for y in (Fraction(i, 6) for i in range(1, 6 * n)):
            for j in range(n):
                orders = list(range(j, -2, -1))
                pairs = co._deriv_nums(n, j, y, len(orders))
                assert all(den > 0 for _, den in pairs)
                values = [Fraction(num, den) for num, den in pairs]
                assert values == [full_sum(i, y) for i in orders]
                assert _eval_derivs(n, j, y, 1) == [full_sum(j, y)]
        # off the support every order, the ramp included, reads (0, 1)
        for y in (Fraction(-1, 4), Fraction(0), Fraction(n), Fraction(4 * n + 1, 4)):
            for j in range(n):
                assert co._deriv_nums(n, j, y, j + 2) == [(0, 1)] * (j + 2)

    def test_bad_order_rejected(self):
        cut = build_bands(0, 1, 8)[0]
        with pytest.raises(ValueError):
            _phi(cut, cut.lo - cut.d / 2, cut.budget + 1)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_cdf_matches_direct_alternating_sum(self, n):
        def direct(y):
            if y <= 0:
                return Fraction(0)
            if y >= n:
                return Fraction(1)
            acc = sum((-1) ** s * math.comb(n, s) * (y - s) ** n for s in range(n + 1) if y > s)
            return acc / math.factorial(n)

        # unit boxes, support from 0: value(y) is the ramp at knot coordinate y
        ramp = Band(k=1, lo=Fraction(n), hi=Fraction(4 * n), d=Fraction(n), budget=n)
        points = [Fraction(-3, 2), Fraction(0), Fraction(n), Fraction(2 * n + 1, 2)]
        points += [Fraction(i, 7) for i in range(1, 7 * n)]
        for y in points:
            assert _phi(ramp, y) == direct(y)


def _peak(cut):
    """B_n at its argmax n/2 over the box width: the exact sup of phi'."""
    return _eval_derivs(cut.budget, 0, Fraction(cut.budget, 2), 1)[0] / cut.box_width


class TestDerivativeValues:
    def test_first_derivative_sup_at_most_budget_over_gap(self):
        cut = build_bands(0, 1, 16)[0]
        assert _peak(cut) <= Fraction(cut.budget) / cut.d

    def test_derivative_antisymmetry_across_sides(self):
        cut = build_bands(0, 1, 8)[0]
        left = cut.lo - cut.d / 2
        right = cut.hi + cut.d / 2
        assert _phi(cut, left, 1) == -_phi(cut, right, 1)
        assert _phi(cut, left, 2) == _phi(cut, right, 2)

    def test_derivative_zero_on_plateau_and_outside(self):
        cut = build_bands(0, 1, 8)[0]
        mid = (cut.lo + cut.hi) / 2
        assert _phi(cut, mid, 1) == 0
        assert _phi(cut, cut.support_lo - 1, 1) == 0

    def test_finite_differences_agree(self):
        # FD probes of the exact evaluator around the argmax of phi'
        cut = build_bands(0, 1, 16)[1]  # budget 8
        center = cut.support_lo + cut.d / 2
        w = cut.box_width
        delta = w / 2000
        worst = 0
        for i in range(-500, 501):
            r = center + i * (w / 2000)
            fd = (_phi(cut, r + delta) - _phi(cut, r - delta)) / (2 * delta)
            exact = _phi(cut, r, 1)
            worst = max(worst, abs(fd - exact))
        assert worst / _peak(cut) < 1e-6

    def test_fd_sup_estimate_matches_reported_sup(self):
        cut = build_bands(0, 1, 16)[1]
        center = cut.support_lo + cut.d / 2
        sup = _peak(cut)
        w = cut.box_width
        delta = w / 4000
        fd_max = max(
            abs(_phi(cut, center + i * (w / 1000) + delta) - _phi(cut, center + i * (w / 1000) - delta))
            / (2 * delta)
            for i in range(-500, 501)
        )
        assert abs(fd_max - sup) / sup < 1e-6


class TestBoundCheck:
    def test_small_budget_full_policy(self):
        report = derivative_bound_check(build_bands(0, 1, 16)[0])
        assert report["checked_orders"] == [0, 16]
        assert [e["ell"] for e in report["profile"]] == report["checked_orders"]
        assert report["pass"]

    def test_order_zero_forces_c_at_least_gap(self):
        report = derivative_bound_check(build_bands(0, 1, 16)[0])
        c0 = next(e for e in report["profile"] if e["ell"] == 0)
        assert c0["bound_c"] == pytest.approx(0.25)

    def test_bound_holds_pointwise(self):
        # (C/d)^(l+1) N^l with the certified C dominates exact values of phi^(l)
        cut = build_bands(0, 1, 32)[0]
        report = derivative_bound_check(cut)
        c = report["C_measured"] * (1 + 1e-12)
        d = float(cut.d)
        points = [cut.support_lo + cut.d * Fraction(i, 40) for i in range(1, 40)]
        for ell in range(cut.budget + 1):
            bound = (ell + 1) * (math.log(c) - math.log(d)) + ell * math.log(cut.budget)
            for r in points:
                value = abs(_phi(cut, r, ell))
                assert not value or math.log(value) <= bound + 1e-9

    def test_every_order_checked_large_budget(self):
        report = derivative_bound_check(build_bands(0, 1, 128)[0])
        assert report["checked_orders"] == [0, 128]
        assert report["pass"]

    def test_top_order_gate_fails_on_planted_value(self, monkeypatch):
        # B_8^(7) is +-C(7, 3) = +-35 on (3, 4); a planted 36 there must fail the check
        cut = build_bands(0, 1, 8)[0]
        assert derivative_bound_check(cut)["pass"]
        real = co._deriv_nums

        def planted(n, j, y, count):
            if (n, j, y, count) == (8, 7, Fraction(7, 2), 1):
                return [(36, 1)]
            return real(n, j, y, count)

        monkeypatch.setattr(co, "_deriv_nums", planted)
        assert derivative_bound_check(cut)["pass"] is False

    def test_grid_fails_on_a_kernel_that_fails_every_top_order(self, monkeypatch, tmp_path):
        # B_N^(N-1) planted as 0 fails each band's top-order check, while
        # C_measured and the uniformity scan never read that value
        real = co._deriv_nums

        def planted(n, j, y, count):
            return [(0, 1)] * count if j == n - 1 else real(n, j, y, count)

        monkeypatch.setattr(co, "_deriv_nums", planted)
        grid = bound_check_grid(1, 2, 64)
        assert grid["uniform_within_factor_2"]
        assert grid["pass"] is False
        assert cli.main(["cutoff", "--N", "64", "--grid", "-o", str(tmp_path / "g.json")]) == 1

    def test_uniformity_grid_small(self):
        grid = bound_check_grid(0, 1, 64, kmax=8)
        assert grid["pass"]
        assert grid["C_uniform"] <= 2.0 * grid["single_band_reference"]

    def test_large_grid_keeps_no_binomial_rows(self):
        # the rows C(N_k, s) of the eight bands at N = 16384, the grid's
        # largest family, held 33.9 MiB; the spline sum carries one binomial
        # at a time
        tracemalloc.start()
        try:
            assert bound_check_grid(1, 2, 16384)["pass"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "n, sizes", [(4, [4]), (8, [4, 8]), (64, [4, 16, 64]), (128, [4, 16, 64, 128])]
    )
    def test_grid_is_powers_of_four_below_n_then_n(self, n, sizes):
        entries = bound_check_grid(1, 2, n, kmax=1)["entries"]
        assert [e["N"] for e in entries] == sizes

    @pytest.mark.parametrize("n", [12, 2, 1 << 17])
    def test_grid_refuses_n_before_any_band_is_checked(self, monkeypatch, n):
        def unreachable(band):
            raise AssertionError(f"band {band.k} of N = {band.budget} checked")

        monkeypatch.setattr(co, "derivative_bound_check", unreachable)
        with pytest.raises(ValueError, match="power of 2|exceeds the cap"):
            bound_check_grid(1, 2, n)

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_grid_rejects_nonpositive_kmax(self, kmax):
        # bands[:-1] would silently drop the last band
        with pytest.raises(ValueError):
            bound_check_grid(0, 1, 16, kmax=kmax)


class TestRecursionProduct:
    def test_n4_hand_value(self):
        out = recursion_product(4, 10.0)
        assert out["log_product"] == pytest.approx(6 * math.log(10) - 3 * math.log(2))

    def test_rate_converges_under_doubling(self):
        rates = {n: recursion_product(1 << n, 10.0)["per_N_rate"] for n in (10, 11, 12, 13, 14)}
        assert abs(rates[13] - rates[14]) <= 1e-3
        assert abs(rates[14] - rates[10]) / abs(rates[14]) < 0.01

    def test_doubling_gaps_shrink_beyond_64(self):
        # the rate converges geometrically: successive-doubling gaps are
        # non-increasing (the rate itself climbs toward its limit for C > 1)
        rates = [recursion_product(1 << n, 10.0)["per_N_rate"] for n in range(6, 15)]
        gaps = [abs(b - a) for a, b in zip(rates, rates[1:])]
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            recursion_product(12, 1.0)
        with pytest.raises(ValueError):
            recursion_product(8, 0.0)


def test_samples_csv_rows_round_exact_values():
    # the band cutoff --N 64 writes: line 3 must read float(r_1) =
    # 0.95550000000000002, where a float abscissa gives 0.9554999999999999
    cut = build_bands(1, 2, 64)[0]
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    rows = buf.getvalue().splitlines()[1:]
    lo, hi = cut.support_lo, cut.support_hi
    margin = (hi - lo) / 20
    assert len(rows) == 201
    for i, row in enumerate(rows):
        r = lo - margin + (hi - lo + 2 * margin) * Fraction(i, 200)
        exact = (r, _phi(cut, r), _phi(cut, r, 1), _phi(cut, r, 2))
        assert [float(c) for c in row.split(",")] == [float(v) for v in exact]


def test_samples_csv_shape():
    cut = build_bands(0, 1, 8)[0]
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "r,phi,dphi,d2phi"
    assert len(lines) == 202
    values = [float(c) for c in lines[100].split(",")]
    assert 0.0 <= values[1] <= 1.0


@pytest.mark.parametrize(
    "n, r1, r2",
    [(4, 1, 2), (16, 1, 2), (64, 1, 2), (256, 1, 2), (64, Fraction(1, 3), Fraction(7, 5))],
    ids=["4", "16", "64", "256", "64-r1-1_3-r2-7_5"],
)
def test_samples_csv_rows_match_the_exact_oracle_text(n, r1, r2):
    # the per-row loop the integer rounding replaced: the exact derivatives, then
    # float of each exact value, compared as text, so a -0 cannot pass as 0; the
    # radii 1/3 and 7/5 put denominators 3 and 1875 on the points, which 200 does
    # not divide
    cut = build_bands(r1, r2, n)[0]
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    rows = buf.getvalue().splitlines()[1:]
    lo, hi = cut.support_lo, cut.support_hi
    margin = (hi - lo) / 20
    for i, row in enumerate(rows):
        r = lo - margin + (hi - lo + 2 * margin) * Fraction(i, 200)
        exact = (r, *_derivatives(cut, r, 0, 2))
        assert row == ",".join(f"{float(v):.17g}" for v in exact)
    assert len(rows) == 201


def test_samples_csv_right_side_exact_zero_prints_zero():
    # r = 1.5055 lies right of the band's midpoint, on the plateau: phi' is an
    # exact 0 that the right side negates, and must still print as 0, not -0
    cut = build_bands(1, 2, 64)[0]
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    row = buf.getvalue().splitlines()[1 + 101]
    assert _knot_coord(cut, Fraction(30110, 20000))[1] == -1
    assert row == "1.5055000000000001,1,0,0"
