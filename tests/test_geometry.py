"""Strata classification, Poisson bracket calculus, and the spiral flow."""

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit.geometry import (
    Covector,
    ModelParams,
    PhasePoly,
    StepSizeError,
    StratumLabel,
    _leaf_rhs,
    _monitors,
    char_function,
    classify,
    classify_detailed,
    integrate,
    log_spiral_fit,
    make_flow_state,
    poisson_bracket,
    sample_sigma1,
    sample_sigma2,
    symplectic_rank,
    var,
    write_trajectory_csv,
)

CLOSED = ModelParams(variant="closed", k=2)
SPIRAL = ModelParams(variant="spiral", k=2, mu=0.5, a=1.0, b=2.0)


def exact_cov(t, x, tau, xi):
    return Covector(
        t=Fraction(t),
        x=(Fraction(x[0]), Fraction(x[1])),
        tau=Fraction(tau),
        xi=(Fraction(xi[0]), Fraction(xi[1])),
    )


# -- polynomials and brackets --------------------------------------------------

_exponents = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(6)])
_polys = st.dictionaries(
    _exponents, st.integers(min_value=-3, max_value=3), min_size=1, max_size=3
).map(PhasePoly)


def test_canonical_pair():
    assert poisson_bracket(var("tau"), var("t")) == PhasePoly.const(1)
    assert poisson_bracket(var("xi1"), var("x1")) == PhasePoly.const(1)
    assert poisson_bracket(var("xi1"), var("x2")).is_zero


def test_bracket_of_tau_with_char_function():
    # {tau, f2} = k t^(k-1) <x, xi> under the stated bracket formula
    f2 = char_function(CLOSED)
    br = poisson_bracket(var("tau"), f2)
    radial = var("x1") * var("xi1") + var("x2") * var("xi2")
    assert br == 2 * (var("t") * radial)
    # vanishes at t = 0, nonzero on the depth-one stratum
    assert br.eval((0, 1, 0, 0, 2, 0)) == 0
    assert br.eval((1, 1, 0, 0, 1, -1)) == 2


@given(_polys)
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry(f):
    assert poisson_bracket(f, f).is_zero


@given(_polys, _polys)
@settings(max_examples=30, deadline=None)
def test_bracket_skew(f, g):
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)


@given(_polys, _polys, _polys)
@settings(max_examples=30, deadline=None)
def test_bracket_bilinear(f, g, h):
    assert poisson_bracket(f + g, h) == poisson_bracket(f, h) + poisson_bracket(g, h)


@given(_polys, _polys, _polys)
@settings(max_examples=30, deadline=None)
def test_bracket_leibniz(f, g, h):
    assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)


@given(_polys, _polys, _polys)
@settings(max_examples=20, deadline=None)
def test_bracket_jacobi(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero


# -- classification --------------------------------------------------------------


class TestClassify:
    def test_depth_two_example(self):
        assert classify(exact_cov(0, (1, 0), 0, (2, 0)), CLOSED) is StratumLabel.SIGMA2

    def test_depth_one_example(self):
        assert classify(exact_cov(1, (1, 0), 0, (1, -1)), CLOSED) is StratumLabel.SIGMA1

    def test_nonzero_tau_is_noncharacteristic(self):
        for params in (CLOSED, SPIRAL):
            c = Covector(t=0.0, x=(1.0, 0.0), tau=1.0, xi=(2.0, 0.0))
            assert classify(c, params) is StratumLabel.NONCHARACTERISTIC

    def test_zero_covector_rejected(self):
        with pytest.raises(ValueError):
            classify(exact_cov(0, (1, 1), 0, (0, 0)), CLOSED)

    def test_near_zero_covector_is_zero_section(self):
        c = Covector(t=0.0, x=(1.0, 0.0), tau=0.0, xi=(1e-30, 0.0))
        assert classify(c, CLOSED, tol=1e-12) is StratumLabel.ZERO_SECTION

    def test_characteristic_but_off_strata(self):
        # tau = 0 but the characteristic polynomial does not vanish
        c = exact_cov(1, (1, 0), 0, (1, 1))
        assert classify(c, CLOSED) is StratumLabel.NONCHARACTERISTIC

    @given(
        st.integers(min_value=-5, max_value=5).filter(lambda n: n != 0),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, num, den):
        lam = Fraction(num, den)
        rng = random.Random(num * 17 + den)
        for sampler in (sample_sigma1, sample_sigma2):
            c = sampler(rng, CLOSED)
            scaled = Covector(
                t=c.t, x=c.x, tau=lam * c.tau, xi=(lam * c.xi[0], lam * c.xi[1])
            )
            assert classify(scaled, CLOSED) is classify(c, CLOSED)

    def test_union_of_strata_is_characteristic_set(self):
        rng = random.Random(11)
        f2 = char_function(CLOSED)
        hits = 0
        for _ in range(400):
            if rng.random() < 0.5:
                c = (sample_sigma1 if rng.random() < 0.5 else sample_sigma2)(rng, CLOSED)
            else:
                c = exact_cov(
                    rng.randint(-2, 2),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    rng.randint(-1, 1),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                if c.tau == 0 and c.xi == (0, 0):
                    continue
            label = classify(c, CLOSED)
            on_char = c.tau == 0 and f2.eval(c.components()) == 0
            assert on_char == (label in (StratumLabel.SIGMA1, StratumLabel.SIGMA2))
            hits += on_char
        assert hits > 100  # the samplers guarantee characteristic coverage

    def test_spiral_ambiguous_origin_flagged(self):
        c = exact_cov(0, (0, 0), 0, (1, 0))
        label, flags = classify_detailed(c, SPIRAL)
        assert label is StratumLabel.SIGMA2
        assert flags["ambiguous"]

    def test_spiral_sigma2_not_flagged(self):
        rng = random.Random(3)
        c = sample_sigma2(rng, SPIRAL)
        label, flags = classify_detailed(c, SPIRAL)
        assert label is StratumLabel.SIGMA2
        assert not flags["ambiguous"]


class TestModelParams:
    def test_closed_ok(self):
        assert ModelParams(variant="closed", k=3).k == 3

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(variant="closed", k=1)

    def test_spiral_needs_annulus(self):
        with pytest.raises(ValueError):
            ModelParams(variant="spiral", k=2, mu=1.0, a=2.0, b=1.0)
        with pytest.raises(ValueError):
            ModelParams(variant="spiral", k=2, mu=-1.0, a=1.0, b=2.0)
        assert ModelParams(variant="spiral", k=2, mu=0, a=1.0, b=2.0).mu == 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelParams(variant="torus", k=2)


# -- symplectic rank -------------------------------------------------------------


class TestSymplecticRank:
    def test_depth_one_point_nondegenerate(self):
        point = exact_cov(1, (1, 0), 0, (1, -1))
        out = symplectic_rank(StratumLabel.SIGMA1, point, CLOSED)
        assert not out["degenerate"]
        assert out["rank"] == 2
        assert out["bracket_matrix"][0][1] == 2

    def test_depth_two_point_degenerate(self):
        point = exact_cov(0, (1, 0), 0, (2, 0))
        out = symplectic_rank(StratumLabel.SIGMA2, point, CLOSED)
        assert out["degenerate"]
        assert out["rank"] < 3

    def test_matrix_antisymmetry(self):
        rng = random.Random(5)
        point = sample_sigma2(rng, CLOSED)
        out = symplectic_rank(StratumLabel.SIGMA2, point, CLOSED)
        m = out["bracket_matrix"]
        n = len(m)
        for i in range(n):
            for j in range(n):
                assert m[i][j] == -m[j][i]

    def test_off_stratum_point_rejected(self):
        point = exact_cov(1, (1, 0), 0, (1, -1))  # depth one
        with pytest.raises(ValueError):
            symplectic_rank(StratumLabel.SIGMA2, point, CLOSED)

    def test_float_point_rejected(self):
        point = Covector(t=1.0, x=(1.0, 0.0), tau=0.0, xi=(1.0, -1.0))
        with pytest.raises(ValueError, match="exact"):
            symplectic_rank(StratumLabel.SIGMA1, point, CLOSED)

    @pytest.mark.parametrize("params", [CLOSED, SPIRAL])
    def test_exact_dichotomy_on_random_samples(self, params):
        rng = random.Random(23)
        for _ in range(25):
            p1 = sample_sigma1(rng, params)
            assert not symplectic_rank(StratumLabel.SIGMA1, p1, params)["degenerate"]
            p2 = sample_sigma2(rng, params)
            assert symplectic_rank(StratumLabel.SIGMA2, p2, params)["degenerate"]


# -- Hamilton flow ---------------------------------------------------------------


def leaf_rhs(s, params):
    """The flow right side at a start state, split into its x and xi parts."""
    rhs = _leaf_rhs((*s.x, *s.xi), float(params.mu), params.a * params.a, params.b * params.b)
    return {"x_dot": rhs[0:2], "xi_dot": rhs[2:4]}


class TestHamiltonRhs:
    def test_stationary_on_inner_circle(self):
        s = make_flow_state((1.0, 0.0), (0.5, 0.5), SPIRAL)
        out = leaf_rhs(s, SPIRAL)
        assert out["x_dot"] == (0.0, 0.0)
        assert out["xi_dot"] == (0.0, 0.0)

    def test_stationary_on_outer_circle(self):
        s = make_flow_state((0.0, 2.0), (0.5, 0.5), SPIRAL)
        out = leaf_rhs(s, SPIRAL)
        assert out["x_dot"] == (0.0, 0.0)

    def test_radius_grows_inside_annulus(self):
        s = make_flow_state((1.3, 0.2), (0.1, 0.7), SPIRAL)
        out = leaf_rhs(s, SPIRAL)
        x1, x2 = s.x
        d_r2 = 2 * (x1 * out["x_dot"][0] + x2 * out["x_dot"][1])
        r2 = x1 * x1 + x2 * x2
        g = (r2 - SPIRAL.a ** 2) * (SPIRAL.b ** 2 - r2)
        assert d_r2 == pytest.approx(2 * g * SPIRAL.mu * r2)
        assert d_r2 > 0

    def test_huge_ring_raises_value_error(self):
        # squaring 1e200 overflows a float: the flow must refuse, not raise OverflowError
        params = ModelParams(variant="spiral", k=2, mu=0.5, a=1e200, b=1e201)
        with pytest.raises(ValueError):
            integrate(make_flow_state((2e200, 0), (1, 0), params), params, t_end=0.01, h=1e-3)


def initial_leaf_state():
    # <x0, A xi0> = 0 with <x0, xi0> != 0: a genuine depth-two leaf projection
    x0 = (1.2, 0.0)
    xi0 = (-0.96, 0.48)
    s0 = make_flow_state(x0, xi0, SPIRAL)
    assert abs(s0.monitors["x_A_xi"]) < 1e-15
    return s0


class TestIntegrate:
    def test_conservation_short_run(self):
        traj = integrate(initial_leaf_state(), SPIRAL, t_end=5.0, h=1e-3)
        assert traj.drift_x_xi < 1e-9
        assert traj.drift_x_A_xi < 1e-9

    def test_halving_step_reduces_drift_fourth_order(self):
        s0 = initial_leaf_state()
        coarse = integrate(s0, SPIRAL, t_end=5.0, h=4e-3)
        fine = integrate(s0, SPIRAL, t_end=5.0, h=2e-3)
        assert coarse.drift_x_xi / fine.drift_x_xi > 12.0

    def test_closed_form_xi_agrees(self):
        traj = integrate(initial_leaf_state(), SPIRAL, t_end=10.0, h=1e-3)
        assert traj.xi_closed_form_max_rel_dev < 1e-8

    def test_closed_form_deviation_is_the_actual_error(self):
        # the reference must not share the integrator's error: the reported
        # deviation at a coarse step matches the difference from a 16x finer run
        s0 = initial_leaf_state()
        coarse = integrate(s0, SPIRAL, t_end=4.0, h=0.04)
        fine = integrate(s0, SPIRAL, t_end=4.0, h=0.0025)
        actual = max(
            math.hypot(c[2] - f[2], c[3] - f[3]) / math.hypot(f[2], f[3])
            for c, f in zip(coarse.states, fine.states[::16])
        )
        assert coarse.xi_closed_form_max_rel_dev == pytest.approx(actual, rel=0.05)

    def test_state_frozen_from(self):
        # b^2 - |x|^2 reaches the float floor near t = 3.1; later steps repeat the state
        traj = integrate(initial_leaf_state(), SPIRAL, t_end=5.0, h=1e-3)
        assert traj.state_frozen_from == 3108 * 1e-3
        assert traj.states[3108][:2] == traj.states[-1][:2]
        assert traj.states[3107][:2] != traj.states[3108][:2]
        assert integrate(initial_leaf_state(), SPIRAL, t_end=2.0, h=1e-3).state_frozen_from is None

    def test_closed_leaf_at_mu_zero(self):
        # t_end = 6 exceeds one period 2 pi / (g1 g2)(|x0|^2) = 5.578 of the circle
        params = ModelParams(variant="spiral", k=2, mu=0, a=1.0, b=2.0)
        s0 = make_flow_state((1.2, 0.0), (-0.96, 0.48), params)
        coarse = integrate(s0, params, t_end=6.0, h=0.02)
        fine = integrate(s0, params, t_end=6.0, h=0.01)
        assert coarse.xi_closed_form_max_rel_dev / fine.xi_closed_form_max_rel_dev > 12.0
        for traj in (coarse, fine):
            assert traj.drift_x_xi <= 1e-8
            assert traj.drift_x_A_xi <= 1e-8
            assert traj.norm_x_monotone
            assert traj.state_frozen_from is None

    def test_radius_monotone_and_confined(self):
        traj = integrate(initial_leaf_state(), SPIRAL, t_end=20.0, h=1e-3)
        assert traj.norm_x_monotone
        assert traj.max_norm_x <= SPIRAL.b + 1e-9

    def test_richardson_rejects_coarse_step(self):
        with pytest.raises(StepSizeError):
            integrate(initial_leaf_state(), SPIRAL, t_end=2.0, h=0.5, richardson_tol=1e-12)

    def test_richardson_accepts_fine_step(self):
        traj = integrate(initial_leaf_state(), SPIRAL, t_end=0.5, h=1e-3, richardson_tol=1e-9)
        assert len(traj.states) == 501

    @pytest.mark.parametrize(
        "x0, mu, t_end, h",
        [
            ((1.5, 0.0), 100, 1.0, 1e-2),  # the state overflows to NaN and stays so
        ],
    )
    def test_diverging_flow_raises(self, x0, mu, t_end, h):
        params = ModelParams(variant="spiral", k=2, mu=mu, a=1.0, b=2.0)
        s0 = make_flow_state(x0, (-0.96, 0.48), params)
        with pytest.raises(ValueError, match="diverged"):
            integrate(s0, params, t_end=t_end, h=h)

    @pytest.mark.parametrize("x0", [(1e200, 0.0), (3.0, 0.0), (1.0, 0.0), (0.0, 2.0), (0.0, 0.0)])
    def test_start_outside_open_ring_rejected(self, x0):
        s0 = make_flow_state(x0, (-0.96, 0.48), SPIRAL)
        with pytest.raises(ValueError, match="open ring"):
            integrate(s0, SPIRAL, t_end=0.01, h=1e-3)

    def test_zero_xi0_rejected(self):
        s0 = make_flow_state((1.2, 0.0), (0.0, 0.0), SPIRAL)
        with pytest.raises(ValueError, match="xi0"):
            integrate(s0, SPIRAL, t_end=0.01, h=1e-3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            integrate(initial_leaf_state(), SPIRAL, t_end=0.0, h=1e-3)
        with pytest.raises(ValueError):
            integrate(initial_leaf_state(), SPIRAL, t_end=1.0, h=-1e-3)
        with pytest.raises(ValueError):
            integrate(initial_leaf_state(), CLOSED, t_end=1.0, h=1e-3)
        with pytest.raises(ValueError):
            integrate(initial_leaf_state(), SPIRAL, t_end=0.1, h=0.3)  # rounds to zero steps
        with pytest.raises(ValueError, match="whole number"):
            integrate(initial_leaf_state(), SPIRAL, t_end=0.0015, h=1e-3)
        with pytest.raises(ValueError, match="richardson_tol"):
            integrate(initial_leaf_state(), SPIRAL, t_end=0.01, h=1e-3, richardson_tol=0.0)

    def test_step_count_capped(self):
        # 10^9 and 10^6 + 1 whole steps are refused before any state is built
        with pytest.raises(ValueError, match="cap"):
            integrate(initial_leaf_state(), SPIRAL, t_end=1000.0, h=1e-6)
        with pytest.raises(ValueError, match="cap"):
            integrate(initial_leaf_state(), SPIRAL, t_end=1.000001, h=1e-6)


@pytest.mark.parametrize("mu, t_end", [(0.5, 5.0), (0, 6.0), (0.5, 1.0)])
def test_one_pass_bookkeeping_matches_the_states(mu, t_end):
    # the running values taken in the step loop equal the ones recomputed from the stored rows
    params = ModelParams(variant="spiral", k=2, mu=mu, a=1.0, b=2.0)
    traj = integrate(make_flow_state((1.2, 0.0), (-0.96, 0.48), params), params, t_end, h=1e-3)
    rows = [_monitors(y, float(mu)) for y in traj.states]
    assert len(rows) == round(t_end / 1e-3) + 1
    assert traj.drift_x_xi == max(abs(m["x_dot_xi"] - rows[0]["x_dot_xi"]) for m in rows)
    assert traj.drift_x_A_xi == max(abs(m["x_A_xi"] - rows[0]["x_A_xi"]) for m in rows)
    norms = [m["norm_x"] for m in rows]
    assert traj.norm_x_monotone == all(q >= p - 1e-12 for p, q in zip(norms, norms[1:]))
    assert traj.max_norm_x == max(norms)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    times = [float(line.split(",", 1)[0]) for line in buf.getvalue().splitlines()[1:]]
    assert times == [i * 1e-3 for i in range(len(rows))]


def test_log_spiral_pitch_matches_mu():
    traj = integrate(initial_leaf_state(), SPIRAL, t_end=20.0, h=1e-3)
    fit = log_spiral_fit(traj)
    assert fit["slope"] == pytest.approx(SPIRAL.mu, abs=1e-6)
    assert fit["max_residual"] < 1e-3


def test_trajectory_csv_format():
    traj = integrate(initial_leaf_state(), SPIRAL, t_end=0.01, h=1e-3)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x"
    assert len(lines) == 1 + len(traj.states)
    # 17 significant digits reproduce the doubles bit-exactly
    cells = lines[2].split(",")
    assert float(cells[1]) == traj.states[1][0]
    assert float(cells[7]) == _monitors(traj.states[1], SPIRAL.mu)["norm_x"]


def test_monitors_recomputed_from_state():
    s = make_flow_state((0.6, 0.8), (1.0, 2.0), SPIRAL)
    assert s.monitors["norm_x"] == pytest.approx(1.0)
    assert s.monitors["x_dot_xi"] == pytest.approx(0.6 + 1.6)
    mu = SPIRAL.mu
    a_xi = (mu * 1.0 + 2.0, -1.0 + mu * 2.0)
    assert s.monitors["x_A_xi"] == pytest.approx(0.6 * a_xi[0] + 0.8 * a_xi[1])
