"""Band geometry, iterated-box cutoffs, derivative bounds, product rate."""

import io
import math
from fractions import Fraction

import pytest

from stratakit.cutoff import (
    build_bands,
    build_cutoff,
    build_cutoff_pair,
    bound_check_grid,
    bspline_derivative_sup,
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

    def test_float_input_gives_float(self):
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        assert isinstance(cut.value(0.5), float)
        assert isinstance(cut.value(Fraction(1, 2)), Fraction)

    def test_twin_is_one_on_support_of_base(self):
        fam = build_bands(0, 1, 16)
        phi, twin = build_cutoff_pair(fam, 2)
        assert twin.value(phi.support_lo) == 1
        assert twin.value(phi.support_hi) == 1
        band1 = fam.band(1)
        assert (twin.support_lo, twin.support_hi) == (band1.lo, band1.hi)

    def test_base_is_one_on_support_of_next_level(self):
        fam = build_bands(0, 1, 16)
        phi1, _ = build_cutoff_pair(fam, 1)
        phi2, _ = build_cutoff_pair(fam, 2)
        assert phi1.plateau_lo <= phi2.support_lo
        assert phi2.support_hi <= phi1.plateau_hi
        assert phi1.value(phi2.support_lo) == 1


class TestBsplineSups:
    def test_hat_function(self):
        info = bspline_derivative_sup(2, 0)
        assert info["sup"] == 1 and info["argmax"] == 1

    def test_quadratic_peak(self):
        info = bspline_derivative_sup(3, 0)
        assert info["sup"] == Fraction(3, 4)
        assert info["argmax"] == Fraction(3, 2)

    def test_top_derivative_central_binomial(self):
        # piecewise-constant top derivative has values +-C(n-1, i)
        info = bspline_derivative_sup(6, 5)
        assert info["sup"] == 10  # C(5, 2)

    def test_grid_matches_exact_path(self):
        for n in (8, 16, 32):
            rows = {0: [1]}
            for m in range(1, n):
                rows[m] = co._next_eulerian_row(rows[m - 1], m)
            for j in range(n):
                exact = co._sup_exact(n, j)[0]
                nums = co._knot_numerators_from_row(n, j, rows[n - j - 1])
                grid = co._sup_grid_from_knots(n, j, nums)[0]
                assert abs(float((grid - exact) / exact)) < 1e-5

    def test_sup_is_attained_value(self):
        info = bspline_derivative_sup(12, 4)
        assert abs(co._eval_deriv(12, 4, info["argmax"])) == info["sup"]

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            bspline_derivative_sup(4, 4)

    def test_eulerian_rows_match_explicit_sum(self):
        row = [1]
        for m in range(1, 41):
            row = co._next_eulerian_row(row, m)
            assert row == [
                sum((-1) ** i * math.comb(m + 1, i) * (k + 1 - i) ** m for i in range(k + 2))
                for k in range(m)
            ]

    @pytest.mark.parametrize("n", [65, 128])
    def test_knot_numerators_match_direct_evaluation(self, n):
        # odd and even j on odd and even n exercise both mirror signs
        js = sorted({0, 1, 2, 3, 40, 41, n - 66, n - 65, n - 3, n - 2, n - 1} & set(range(n)))
        rows = {0: [1]}
        for m in range(1, n):
            rows[m] = co._next_eulerian_row(rows[m - 1], m)
        for j in js:
            nums = co._knot_numerators_from_row(n, j, rows[n - j - 1])
            assert nums == [co._deriv_numerator(n, j, i, 1) for i in range(n + 1)]

    @pytest.mark.parametrize(
        "n, j, argmax, log_sup",
        [
            (256, 1, Fraction(64683229, 524288), -4.480381833738647),  # two-round polish
            (256, 150, Fraction(128), 64.69193969978818),  # window sweep
            (128, 40, Fraction(64), 3.990050758828829),
        ],
    )
    def test_grid_sup_pinned(self, monkeypatch, n, j, argmax, log_sup):
        monkeypatch.setattr(co, "_BSUP_CACHE", {})
        info = bspline_derivative_sup(n, j)
        assert info["argmax"] == argmax
        assert info["log_sup"] == log_sup
        assert abs(co._eval_deriv(n, j, argmax)) == info["sup"]

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

    @pytest.mark.parametrize("n, mode", [(4, "exact"), (32, "exact"), (33, "grid"), (64, "grid")])
    def test_mode_follows_budget_for_every_order(self, monkeypatch, n, mode):
        monkeypatch.setattr(co, "_BSUP_CACHE", {})
        for j in (0, n // 2, n - 2, n - 1):  # n - 1 is the piecewise-constant order
            assert bspline_derivative_sup(n, j)["mode"] == mode

    @pytest.mark.parametrize("n", [48, 80])
    def test_batch_matches_single_order_calls(self, monkeypatch, n):
        orders = [5, n - 1, 5, n // 2, 0, n - 1, n - 10]
        monkeypatch.setattr(co, "_BSUP_CACHE", {})
        co._sup_batch(n, orders)
        batched = co._BSUP_CACHE
        monkeypatch.setattr(co, "_BSUP_CACHE", {})
        singles = {(n, j): bspline_derivative_sup(n, j) for j in orders}
        assert batched == singles


class TestDerivativeValues:
    def test_first_derivative_sup_at_most_budget_over_gap(self):
        cut = build_cutoff(build_bands(0, 1, 16), 1)
        sup = cut.derivative_sup(1)["sup"]
        assert sup <= Fraction(cut.budget) / cut.gap

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
        # FD probes of the exact evaluator around the reported argmax
        cut = build_cutoff(build_bands(0, 1, 16), 2)  # budget 8
        info = cut.derivative_sup(1)
        center = float(info["argmax_r"])
        w = float(cut.box_width)
        delta = w / 2000.0
        worst = 0.0
        for i in range(-500, 501):
            r = center + i * (w / 2000.0)
            fd = (cut.value(r + delta) - cut.value(r - delta)) / (2 * delta)
            exact = cut.derivative_value(r, 1)
            worst = max(worst, abs(fd - exact))
        assert worst / float(info["sup"]) < 1e-6

    def test_fd_sup_estimate_matches_reported_sup(self):
        cut = build_cutoff(build_bands(0, 1, 16), 2)
        info = cut.derivative_sup(1)
        center = float(info["argmax_r"])
        w = float(cut.box_width)
        delta = w / 4000.0
        fd_max = max(
            abs(cut.value(center + i * (w / 1000.0) + delta) - cut.value(center + i * (w / 1000.0) - delta))
            / (2 * delta)
            for i in range(-500, 501)
        )
        assert abs(fd_max - float(info["sup"])) / float(info["sup"]) < 1e-6


class TestBoundCheck:
    def test_small_budget_full_policy(self):
        fam = build_bands(0, 1, 16)
        report = derivative_bound_check(build_cutoff(fam, 1))
        assert report["order_policy"] == "full"
        assert report["checked_orders"] == list(range(17))
        assert report["pass"]

    def test_order_zero_forces_c_at_least_gap(self):
        fam = build_bands(0, 1, 16)
        report = derivative_bound_check(build_cutoff(fam, 1))
        c0 = next(e for e in report["profile"] if e["ell"] == 0)
        assert c0["bound_c"] == pytest.approx(0.25)

    def test_bound_holds_pointwise(self):
        # (C/d)^(l+1) N^l with the measured C really dominates each sup
        fam = build_bands(0, 1, 32)
        cut = build_cutoff(fam, 1)
        report = derivative_bound_check(cut)
        c = report["C_measured"] * (1 + 1e-12)
        d = float(cut.gap)
        for ell in report["checked_orders"]:
            if ell == 0:
                sup = 1.0
                assert sup <= c / d
            else:
                log_sup = cut.derivative_sup(ell)["log_sup"]
                bound = (ell + 1) * (math.log(c) - math.log(d)) + ell * math.log(cut.budget)
                assert log_sup <= bound + 1e-9

    def test_thinned_policy_large_budget(self):
        fam = build_bands(0, 1, 128)
        report = derivative_bound_check(build_cutoff(fam, 1))
        assert report["order_policy"] == "thinned-ladder"
        assert report["checked_orders"][-1] == 128
        assert report["pass"]

    def test_difference_bound_gates_pass(self, monkeypatch):
        # |B_n^(j)| <= 2^j; a planted sup just above it must fail the check
        monkeypatch.setattr(co, "_BSUP_CACHE", {})
        cut = build_cutoff(build_bands(0, 1, 8), 1)
        assert derivative_bound_check(cut)["pass"]
        entry = co._BSUP_CACHE[(8, 3)]
        co._BSUP_CACHE[(8, 3)] = dict(entry, sup=Fraction(2 ** 3) + Fraction(1, 10 ** 9))
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


def test_samples_csv_shape():
    cut = build_cutoff(build_bands(0, 1, 8), 1)
    buf = io.StringIO()
    write_cutoff_samples_csv(cut, buf, n_samples=40)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "r,phi,dphi,d2phi"
    assert len(lines) == 42
    values = [float(c) for c in lines[20].split(",")]
    assert 0.0 <= values[1] <= 1.0
