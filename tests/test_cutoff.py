"""Band geometry, iterated-box cutoffs, derivative bounds, product rate."""

import io
import math
from fractions import Fraction

import pytest

from stratakit.cutoff import (
    build_bands,
    build_cutoff,
    bound_check_grid,
    derivative_bound_check,
    recursion_product,
    write_cutoff_samples_csv,
)
from stratakit import cutoff as co


class TestBandGeometry:
    def test_gap_schedule_exact(self):
        fam = build_bands(0, 1, 16)
        assert [b.d for b in fam.bands] == [
            Fraction(1, 4),
            Fraction(1, 16),
            Fraction(1, 36),
            Fraction(1, 64),
        ]

    def test_gap_scales_with_span(self):
        fam = build_bands(1, 3, 8)
        assert fam.bands[0].d == Fraction(1, 2)
        assert fam.bands[1].d == Fraction(1, 8)

    def test_n4_two_bands_budgets(self):
        fam = build_bands(1, 2, 4)
        assert fam.levels == 2
        assert [b.budget for b in fam.bands] == [4, 2]

    def test_budgets_halve(self):
        fam = build_bands(0, 1, 64)
        assert [b.budget for b in fam.bands] == [64, 32, 16, 8, 4, 2]

    def test_nesting_strict(self):
        fam = build_bands(0, 1, 32)
        prev = fam.band(0)
        for b in fam.bands:
            assert prev.lo < b.lo < b.hi < prev.hi
            assert b.lo == prev.lo + b.d and b.hi == prev.hi - b.d
            prev = b

    def test_total_shrinkage_partial_sums(self):
        # sum d_k -> (pi^2/24)(r2 - r1), always below the span; the tail
        # beyond K bands is under 1/(4K)
        fam = build_bands(0, 1, 1024)
        total = sum((b.d for b in fam.bands), Fraction(0))
        assert total < Fraction(1)
        gap_to_limit = math.pi ** 2 / 24 - float(total)
        assert 0 < gap_to_limit < 1 / (4 * fam.levels)

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
        fam = build_bands(0, 1, 16)
        for k in (1, 2):
            cut = build_cutoff(fam, k)
            band, outer = fam.band(k), fam.band(k - 1)
            assert (cut.plateau_lo, cut.plateau_hi) == (band.lo, band.hi)
            assert (cut.support_lo, cut.support_hi) == (outer.lo, outer.hi)
            assert cut.box_width * cut.budget == band.d

    def test_plateau_value_one(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        for r in (cut.plateau_lo, (cut.plateau_lo + cut.plateau_hi) / 2, cut.plateau_hi):
            assert cut.value(r) == 1

    def test_vanishes_outside_support(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        assert cut.value(cut.support_lo) == 0
        assert cut.value(cut.support_hi) == 0
        assert cut.value(cut.support_lo - Fraction(1, 100)) == 0

    def test_bounded_by_one(self):
        cut = build_cutoff(build_bands(0, 1, 8), 2)
        for i in range(301):
            r = Fraction(i, 300)
            assert 0 <= cut.value(r) <= 1

    def test_mid_transition_value(self):
        cut = build_cutoff(build_bands(0, 1, 16), 1)
        mid = cut.plateau_lo - cut.gap / 2
        assert cut.value(mid) == Fraction(1, 2)  # symmetric ramp

    def test_float_input_rejected(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        with pytest.raises(TypeError):
            cut.value(0.5)
        assert isinstance(cut.value(Fraction(1, 2)), Fraction)

    def test_base_is_one_on_support_of_next_level(self):
        fam = build_bands(0, 1, 16)
        phi1 = build_cutoff(fam, 1)
        phi2 = build_cutoff(fam, 2)
        assert phi1.plateau_lo <= phi2.support_lo
        assert phi2.support_hi <= phi1.plateau_hi
        assert phi1.value(phi2.support_lo) == 1


class TestBsplineSups:
    def test_hat_function(self):
        assert co._eval_deriv(2, 0, Fraction(1)) == 1 == math.comb(0, 0)

    def test_quadratic_peak(self):
        assert co._eval_deriv(3, 0, Fraction(3, 2)) == Fraction(3, 4)

    def test_top_derivative_central_binomial(self):
        # piecewise-constant top derivative has values +-C(n-1, i)
        assert abs(co._eval_deriv(6, 5, Fraction(5, 2))) == 10  # C(5, 2)

    @pytest.mark.parametrize("n", [8, 16])
    def test_sup_dominates_exact_scan(self, n):
        # C(j, floor(j/2)) against an exact reference: every 1/64 point of (0, n)
        for j in range(n):
            scan = max(abs(co._eval_deriv(n, j, Fraction(i, 64))) for i in range(1, 64 * n))
            bound = math.comb(j, j // 2)
            assert bound >= scan
            assert (bound == scan) or j < n - 1

    def test_sup_is_attained_value(self):
        # the bound is attained for j >= n - 2: at a knot where B_n^(n-2) is
        # piecewise linear, inside a piece where B_n^(n-1) is constant
        n = 12
        assert abs(co._eval_deriv(n, n - 2, Fraction(6))) == math.comb(n - 2, 5)
        assert abs(co._eval_deriv(n, n - 1, Fraction(11, 2))) == math.comb(n - 1, 5)

    def test_bad_order_rejected(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        with pytest.raises(ValueError):
            cut.derivative_value(cut.plateau_lo - cut.gap / 2, cut.budget + 1)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_cdf_matches_direct_alternating_sum(self, n):
        def direct(y):
            if y <= 0:
                return Fraction(0)
            if y >= n:
                return Fraction(1)
            acc = sum((-1) ** s * math.comb(n, s) * (y - s) ** n for s in range(n + 1) if y > s)
            return acc / math.factorial(n)

        points = [Fraction(-3, 2), Fraction(0), Fraction(n), Fraction(2 * n + 1, 2)]
        points += [Fraction(i, 7) for i in range(1, 7 * n)]
        for y in points:
            assert co._cdf(n, y) == direct(y)


def _peak(cut):
    """B_n at its argmax n/2 over the box width: the exact sup of phi'."""
    return co._eval_deriv(cut.budget, 0, Fraction(cut.budget, 2)) / cut.box_width


class TestDerivativeValues:
    def test_first_derivative_sup_at_most_budget_over_gap(self):
        cut = build_cutoff(build_bands(0, 1, 16), 1)
        assert _peak(cut) <= Fraction(cut.budget) / cut.gap

    def test_derivative_antisymmetry_across_sides(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        left = cut.plateau_lo - cut.gap / 2
        right = cut.plateau_hi + cut.gap / 2
        assert cut.derivative_value(left, 1) == -cut.derivative_value(right, 1)
        assert cut.derivative_value(left, 2) == cut.derivative_value(right, 2)

    def test_derivative_zero_on_plateau_and_outside(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        mid = (cut.plateau_lo + cut.plateau_hi) / 2
        assert cut.derivative_value(mid, 1) == 0
        assert cut.derivative_value(cut.support_lo - 1, 1) == 0

    def test_finite_differences_agree(self):
        # FD probes of the exact evaluator around the argmax of phi'
        cut = build_cutoff(build_bands(0, 1, 16), 2)  # budget 8
        center = cut.support_lo + cut.gap / 2
        w = cut.box_width
        delta = w / 2000
        worst = 0
        for i in range(-500, 501):
            r = center + i * (w / 2000)
            fd = (cut.value(r + delta) - cut.value(r - delta)) / (2 * delta)
            exact = cut.derivative_value(r, 1)
            worst = max(worst, abs(fd - exact))
        assert worst / _peak(cut) < 1e-6

    def test_fd_sup_estimate_matches_reported_sup(self):
        cut = build_cutoff(build_bands(0, 1, 16), 2)
        center = cut.support_lo + cut.gap / 2
        sup = _peak(cut)
        w = cut.box_width
        delta = w / 4000
        fd_max = max(
            abs(cut.value(center + i * (w / 1000) + delta) - cut.value(center + i * (w / 1000) - delta))
            / (2 * delta)
            for i in range(-500, 501)
        )
        assert abs(fd_max - sup) / sup < 1e-6


class TestBoundCheck:
    def test_small_budget_full_policy(self):
        fam = build_bands(0, 1, 16)
        report = derivative_bound_check(build_cutoff(fam, 1))
        assert report["checked_orders"] == list(range(17))
        assert [e["ell"] for e in report["profile"]] == report["checked_orders"]
        assert report["pass"]

    def test_order_zero_forces_c_at_least_gap(self):
        fam = build_bands(0, 1, 16)
        report = derivative_bound_check(build_cutoff(fam, 1))
        c0 = next(e for e in report["profile"] if e["ell"] == 0)
        assert c0["bound_c"] == pytest.approx(0.25)

    def test_bound_holds_pointwise(self):
        # (C/d)^(l+1) N^l with the certified C dominates exact values of phi^(l)
        fam = build_bands(0, 1, 32)
        cut = build_cutoff(fam, 1)
        report = derivative_bound_check(cut)
        c = report["C_measured"] * (1 + 1e-12)
        d = float(cut.gap)
        points = [cut.support_lo + cut.gap * Fraction(i, 40) for i in range(1, 40)]
        for ell in report["checked_orders"]:
            bound = (ell + 1) * (math.log(c) - math.log(d)) + ell * math.log(cut.budget)
            for r in points:
                value = abs(cut.derivative_value(r, ell))
                assert not value or math.log(value) <= bound + 1e-9

    def test_every_order_checked_large_budget(self):
        fam = build_bands(0, 1, 128)
        report = derivative_bound_check(build_cutoff(fam, 1))
        assert report["checked_orders"] == list(range(129))
        assert report["pass"]

    def test_top_order_gate_fails_on_planted_value(self, monkeypatch):
        # B_8^(7) is +-C(7, 3) = +-35 on (3, 4); a planted 36 there must fail the check
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        assert derivative_bound_check(cut)["pass"]
        real = co._eval_deriv

        def planted(n, j, y):
            return Fraction(36) if (n, j, y) == (8, 7, Fraction(7, 2)) else real(n, j, y)

        monkeypatch.setattr(co, "_eval_deriv", planted)
        assert derivative_bound_check(cut)["pass"] is False

    def test_uniformity_grid_small(self):
        grid = bound_check_grid(0, 1, [4, 16, 64], kmax=8)
        assert grid["pass"]
        assert grid["C_uniform"] <= 2.0 * grid["single_band_reference"]


class TestRecursionProduct:
    def test_n4_hand_value(self):
        out = recursion_product(4, 10.0)
        assert out["log_product"] == pytest.approx(6 * math.log(10) - 3 * math.log(2))

    def test_factors_negative_beyond_k4(self):
        # k^2 < 2^k holds at k = 1 and for every k >= 5
        out = recursion_product(1 << 6, 1.0)  # C = 1 isolates the k-part
        for f in out["factors"]:
            assert f["base_negative"] == (f["k"] >= 5 or f["k"] == 1)

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
    cut = build_cutoff(build_bands(1, 2, 64), 1)
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    rows = buf.getvalue().splitlines()[1:]
    lo, hi = cut.support_lo, cut.support_hi
    margin = (hi - lo) / 20
    assert len(rows) == 201
    for i, row in enumerate(rows):
        r = lo - margin + (hi - lo + 2 * margin) * Fraction(i, 200)
        exact = (r, cut.value(r), cut.derivative_value(r, 1), cut.derivative_value(r, 2))
        assert [float(c) for c in row.split(",")] == [float(v) for v in exact]


def test_samples_csv_shape():
    cut = build_cutoff(build_bands(0, 1, 8), 1)
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "r,phi,dphi,d2phi"
    assert len(lines) == 202
    values = [float(c) for c in lines[100].split(",")]
    assert 0.0 <= values[1] <= 1.0
