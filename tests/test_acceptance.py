"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Nothing here is tunable: depths, tolerances, and runtime
budgets are pinned.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from stratakit import cutoff as co
from stratakit import exactalg, geometry, localize


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def table40():
    return exactalg.a_table_recurrence(40)


def test_criterion_01_coefficient_dual_oracle(table40):
    start = time.perf_counter()
    generating = exactalg.a_table_generating(40)
    agree = all(
        table40.entry(j, jp) == generating.entry(j, jp)
        for j in range(41)
        for jp in range(j + 1)
    )
    elapsed = time.perf_counter() - start
    ok = agree and elapsed < 5.0
    report(1, "coefficient dual-oracle j<=40", ok, f"{elapsed:.2f}s")


def test_criterion_02_bernoulli_identity():
    inverse = exactalg.matrix_inverse_coeffs(20)
    series = exactalg.bernoulli_generator(20)
    ok = (
        inverse == list(series)
        and inverse[0] == 1
        and inverse[1] == Fraction(-1, 2)
    )
    report(2, "factorial-band inverse equals Bernoulli series", ok)


def test_criterion_03_localizer_bracket_zero_residual(table40):
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4, 5):
        result = localize.verify_localizer_bracket(12, k, table40)
        ok = ok and result["pass"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, "[X2, N_j] telescoping j<=12, k in 2..5", ok, f"{elapsed:.2f}s")


def test_criterion_04_x2_localized_power_zero_residual(table40):
    ok = all(
        localize.verify_x2_bracket(12, k, table40)["pass"] for k in (2, 3, 4, 5)
    )
    report(4, "[X2, R^p_phi] single-term form p<=12, k in 2..5", ok)


def test_criterion_05_x1_bracket_structural(table40):
    ok = True
    for k in (2, 3, 4, 5):
        result = localize.extract_delta(10, k, table40)
        recorded = set(result["convention_comparison"]) == {
            "positive",
            "alternating",
            "positive-shifted",
            "alternating-shifted",
        }
        ok = (
            ok
            and result["pass"]
            and result["delta_p_independent"]
            and result["delta_abs_le_1"]
            and recorded
        )
    report(5, "[X1, R^p_phi] span membership p<=10, delta bounded", ok)


def test_criterion_06_stirling_identity():
    result = localize.verify_stirling_identity(15)
    report(6, "(t Dt)^j Stirling expansion j<=15", result["pass"])


def test_criterion_07_coefficient_growth(table40):
    scan = exactalg.bound_scan_a(40, table40)
    rates = [e["rate"] for e in scan["per_j_max"] if e["j"] >= 2]
    ok = max(rates) <= 4.0
    report(7, "coefficient growth rate <= 4 for j in 2..40", ok, f"max={max(rates):.3f}")


def test_criterion_08_symplectic_dichotomy():
    rng = random.Random(20260401)
    params = geometry.ModelParams(2)
    ok = True
    for _ in range(100):
        p1 = geometry.sample_sigma1(rng, params)
        out1 = geometry.symplectic_rank(geometry.StratumLabel.SIGMA1, p1, params)
        p2 = geometry.sample_sigma2(rng, params)
        out2 = geometry.symplectic_rank(geometry.StratumLabel.SIGMA2, p2, params)
        exact = all(isinstance(v, Fraction) for v in (*p1.components(), *p2.components()))
        ok = ok and exact and not out1["degenerate"] and out2["degenerate"]
    report(8, "symplectic dichotomy on 100+100 exact stratum points", ok)


def test_criterion_09_flow_conservation():
    mu, a, b = Fraction(1, 2), 1.0, 2.0
    x0, xi0 = (1.2, 0.0), (-0.96, 0.48)

    start = time.perf_counter()
    traj = geometry.integrate(x0, xi0, mu, a, b, t_end=50.0, h=1e-3)
    run_one = time.perf_counter() - start
    assert abs(geometry._monitors(traj.states[0], float(mu))["x_A_xi"]) < 1e-15
    start = time.perf_counter()
    traj_half = geometry.integrate(x0, xi0, mu, a, b, t_end=50.0, h=5e-4)
    run_two = time.perf_counter() - start

    ratio_xi = traj.drift_x_xi / max(traj_half.drift_x_xi, 1e-300)
    ratio_a = traj.drift_x_A_xi / max(traj_half.drift_x_A_xi, 1e-300)
    ok = (
        traj.drift_x_xi <= 1e-8
        and traj.drift_x_A_xi <= 1e-8
        and ratio_xi >= 12.0
        and ratio_a >= 12.0
        and traj.xi_closed_form_max_rel_dev <= 1e-6
        and traj.norm_x_monotone
        and traj.max_norm_x <= b + 1e-9
        and run_one < 10.0
        and run_two < 10.0
    )
    detail = (
        f"drift={traj.drift_x_xi:.2e}, halving x{ratio_xi:.1f}, "
        f"closed-form dev={traj.xi_closed_form_max_rel_dev:.2e}, "
        f"{run_one:.1f}s/{run_two:.1f}s"
    )
    report(9, "flow conservation and spiral confinement", ok, detail)


@pytest.fixture(scope="module")
def bound_grid():
    return co.bound_check_grid(1, 2, [4, 16, 64, 256, 1024], kmax=8)


def test_criterion_10_cutoff_bounds(bound_grid):
    geometry_ok = True
    prev_lo, prev_hi = Fraction(1), Fraction(2)
    for band in co.build_bands(1, 2, 1024):
        geometry_ok = (
            geometry_ok
            and band.d == Fraction(1, 4 * band.k * band.k)
            and band.lo == prev_lo + band.d
            and band.hi == prev_hi - band.d
            and prev_lo < band.lo < band.hi < prev_hi
        )
        prev_lo, prev_hi = band.lo, band.hi

    ok = geometry_ok and bound_grid["pass"] and math.isfinite(bound_grid["C_uniform"])
    detail = (
        f"C_uniform={bound_grid['C_uniform']:.4f}, "
        f"reference={bound_grid['single_band_reference']:.4f}"
    )
    report(10, "cutoff derivative bounds uniform over N<=2^10, k<=8", ok, detail)


# C_measured per (N, band) on the acceptance grid, recorded from the earlier
# sup searches; the certified per-order bounds reproduce every one of them
PINNED_C = {
    (4, 1): 0.9440875112949019,
    (4, 2): 0.39685026299204984,
    (16, 1): 1.5438922036509644,
    (16, 2): 1.0908675094401188,
    (16, 3): 0.6083643418932059,
    (16, 4): 0.25000000000000006,
    (64, 1): 1.8495951074302222,
    (64, 2): 1.661183672980905,
    (64, 3): 1.3567038636412188,
    (64, 4): 0.9351396085574598,
    (64, 5): 0.49593441964128293,
    (64, 6): 0.19078570709222198,
    (256, 1): 1.955582785881046,
    (256, 2): 1.897118198343818,
    (256, 3): 1.788117336881554,
    (256, 4): 1.592844615710398,
    (256, 5): 1.2775714819884734,
    (256, 6): 0.8545649207063806,
    (256, 7): 0.4334839645459555,
    (256, 8): 0.15749013123685912,
    (1024, 1): 1.987426305294174,
    (1024, 2): 1.9709563201512883,
    (1024, 3): 1.9389347750268415,
    (1024, 4): 1.8768400329741488,
    (1024, 5): 1.7602319457973772,
    (1024, 6): 1.554179636282,
    (1024, 7): 1.2279867344554156,
    (1024, 8): 0.8016428025634608,
}


def test_grid_constants_pinned(bound_grid):
    measured = {(e["N"], e["k"]): e["C_measured"] for e in bound_grid["entries"]}
    assert measured == PINNED_C


def _every_order_constant(band):
    """The largest per-order constant over every order l = 0..N, one order at a time."""
    n = band.budget
    log_d, log_n, log_w = co._log_frac(band.d), math.log(n), co._log_frac(band.box_width)
    c = 0.0
    for ell in range(n + 1):
        log_sup = math.log(math.comb(ell - 1, (ell - 1) // 2)) - ell * log_w if ell else 0.0
        c = max(c, math.exp(log_d + (log_sup - ell * log_n) / (ell + 1)))
    return c


def test_two_orders_give_the_every_order_constant():
    # orders 0 and N set every band's C (README has the proof): the loop over
    # all N + 1 orders reproduces C_measured bit for bit
    bands = [co.build_bands(1, 2, n)[k - 1] for n, k in PINNED_C]
    bands += [b for e in range(2, 11) for b in co.build_bands(0, 1, 1 << e)[:8]]
    for band in bands:
        assert co.derivative_bound_check(band)["C_measured"] == _every_order_constant(band)


def test_criterion_11_recursion_product_convergence(bound_grid):
    # evaluated at the constant the bound actually certifies: the measured
    # uniform C from the derivative checks
    c = bound_grid["C_uniform"]
    rates = {e: co.recursion_product(1 << e, c)["per_N_rate"] for e in (12, 13, 14)}
    gap_one = abs(rates[13] - rates[12])
    gap_two = abs(rates[14] - rates[13])
    ok = gap_one <= 1e-3 and gap_two <= 1e-3
    report(
        11,
        "localization product rate Cauchy-converges",
        ok,
        f"C={c:.4f}, gaps {gap_one:.2e}, {gap_two:.2e}",
    )
