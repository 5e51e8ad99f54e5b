"""Strata classification, Poisson bracket calculus, and the Hamilton flow."""

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratakit import cli, geometry
from stratakit.geometry import (
    Covector,
    ModelParams,
    PhasePoly,
    StratumLabel,
    _leaf_rhs,
    _leaf_taus,
    _monitors,
    _rk4_step,
    bracket_matrix,
    char_function,
    classify_detailed,
    integrate,
    poisson_bracket,
    sample_sigma1,
    sample_sigma2,
    symplectic_rank,
    var,
    write_trajectory_csv,
)

# the flow's pitch and ring: mu = 1/2 between the circles |x| = 1 and |x| = 2
MU, A, B = Fraction(1, 2), 1.0, 2.0
CLOSED = ModelParams(2)  # mu = 0: the closed-leaf model
SPIRAL = ModelParams(2, MU)


def exact_cov(t, x, tau, xi):
    return Covector(
        t=Fraction(t),
        x=(Fraction(x[0]), Fraction(x[1])),
        tau=Fraction(tau),
        xi=(Fraction(xi[0]), Fraction(xi[1])),
    )


# -- polynomials and brackets --------------------------------------------------

_exponents = st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(6)])
# rational coefficients, so products, derivatives and cancellations meet denominators
_polys = st.dictionaries(
    _exponents,
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    min_size=1,
    max_size=3,
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


_points = st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=5) for _ in range(6)])


@given(_polys, _polys, _points)
@settings(max_examples=30, deadline=None)
def test_eval_respects_products_and_differences(f, g, point):
    value = (f * g).eval(point)
    assert value == f.eval(point) * g.eval(point) and type(value) is Fraction
    assert (f - g).eval(point) == f.eval(point) - g.eval(point)
    assert PhasePoly().eval(point) == 0 and type(PhasePoly().eval(point)) is Fraction


@given(_polys, _points)
@settings(max_examples=30, deadline=None)
def test_eval_matches_the_fraction_sum(f, point):
    # each term's coefficient times its monomial, all in Fractions
    expected = Fraction(0)
    for key, c in f.terms.items():
        expected += c * math.prod(v ** e for v, e in zip(point, key))
    assert f.eval(point) == expected


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
        assert classify_detailed(exact_cov(0, (1, 0), 0, (2, 0)), CLOSED)[0] is StratumLabel.SIGMA2

    def test_depth_one_example(self):
        assert classify_detailed(exact_cov(1, (1, 0), 0, (1, -1)), CLOSED)[0] is StratumLabel.SIGMA1

    def test_nonzero_tau_is_noncharacteristic(self):
        for params in (CLOSED, SPIRAL):
            c = exact_cov(0, (1, 0), 1, (2, 0))
            assert classify_detailed(c, params)[0] is StratumLabel.NONCHARACTERISTIC

    def test_zero_covector_rejected(self):
        with pytest.raises(ValueError):
            classify_detailed(exact_cov(0, (1, 1), 0, (0, 0)), CLOSED)

    def test_characteristic_but_off_strata(self):
        # tau = 0 but the characteristic polynomial does not vanish
        c = exact_cov(1, (1, 0), 0, (1, 1))
        assert classify_detailed(c, CLOSED)[0] is StratumLabel.NONCHARACTERISTIC

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
            assert classify_detailed(scaled, CLOSED)[0] is classify_detailed(c, CLOSED)[0]

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
            label = classify_detailed(c, CLOSED)[0]
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

    def test_closed_model_flags_the_origin(self):
        # mu = 0 is the same family: the Sigma2 point at x = 0 has <x, xi> = 0 too
        label, flags = classify_detailed(exact_cov(0, (0, 0), 0, (1, 0)), CLOSED)
        assert label is StratumLabel.SIGMA2
        assert flags["ambiguous"]


class TestModelParams:
    def test_closed_ok(self):
        assert ModelParams(3).k == 3
        assert ModelParams(3).mu == 0
        assert ModelParams._fields == ("k", "mu")

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1)

    def test_spiral_needs_annulus(self):
        # the model checks the pitch; the flow, which lives in the ring, checks a < b
        with pytest.raises(ValueError, match="ring"):
            integrate(X0, XI0, 1, 2.0, 1.0, t_end=0.01, h=1e-3)
        with pytest.raises(ValueError):
            ModelParams(2, -1)
        assert ModelParams(2, 0).mu == 0

    def test_float_mu_rejected(self):
        # mu enters the exact strata: 0.1 would be its binary value, not 1/10
        with pytest.raises(TypeError):
            ModelParams(2, 0.1)
        assert ModelParams(2, 1).mu == Fraction(1)


class TestRecords:
    def test_equal_models_hash_equal_and_share_the_caches(self):
        assert ModelParams(2) == ModelParams(2, 0) == ModelParams(k=2, mu=Fraction(0))
        assert hash(ModelParams(2)) == hash(ModelParams(2, 0))
        assert ModelParams(2) != ModelParams(3) and ModelParams(2) != SPIRAL
        assert char_function(ModelParams(2)) is char_function(ModelParams(2, 0))
        assert (bracket_matrix(StratumLabel.SIGMA1, ModelParams(2))
                is bracket_matrix(StratumLabel.SIGMA1, ModelParams(2, 0)))

    def test_keyword_covector_coerces_to_fractions(self):
        cov = Covector(t=1, x=(2, Fraction(1, 3)), tau=0, xi=(-1, 5))
        assert cov == exact_cov(1, (2, Fraction(1, 3)), 0, (-1, 5))
        assert cov._fields == ("t", "x", "tau", "xi")
        assert type(cov.x) is type(cov.xi) is tuple
        assert all(type(c) is Fraction for c in cov.components())

    @pytest.mark.parametrize("which", ["params", "covector", "trajectory"])
    def test_fields_cannot_be_assigned(self, which):
        record = {
            "params": lambda: SPIRAL,
            "covector": lambda: exact_cov(0, (1, 0), 0, (2, 0)),
            "trajectory": lambda: integrate(X0, XI0, MU, A, B, t_end=0.01, h=1e-3),
        }[which]()
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


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
        with pytest.raises(TypeError, match="exact"):
            Covector(t=1.0, x=(1.0, 0.0), tau=0.0, xi=(1.0, -1.0))

    @pytest.mark.parametrize("params", [CLOSED, SPIRAL])
    def test_sigma1_label_is_degenerate_at_x_zero(self, params):
        # x = 0 lies outside the paper's ring: F vanishes there, so the point
        # is labelled Sigma1, but the bracket matrix is singular
        point = exact_cov(1, (0, 0), 0, (1, 0))
        assert classify_detailed(point, params)[0] is StratumLabel.SIGMA1
        assert symplectic_rank(StratumLabel.SIGMA1, point, params)["degenerate"]

    @pytest.mark.parametrize("params", [CLOSED, SPIRAL])
    def test_sigma1_rank_two_needs_x_nonzero(self, params):
        # {tau, F} = k t^(k-1) <x, xi> and, with T = t^k + mu,
        # |x|^2 |xi|^2 = <x, xi>^2 + (F - T <x, xi>)^2: on F = 0 with xi != 0
        # the bracket vanishes exactly when x = 0
        t, x1, x2, xi1, xi2 = (var(n) for n in ("t", "x1", "x2", "xi1", "xi2"))
        f = char_function(params)
        radial = x1 * xi1 + x2 * xi2
        twist = t ** params.k + PhasePoly.const(params.mu)
        assert poisson_bracket(var("tau"), f) == t ** (params.k - 1) * radial * params.k
        norms = (x1 * x1 + x2 * x2) * (xi1 * xi1 + xi2 * xi2)
        assert norms == radial * radial + (f - twist * radial) ** 2

    @pytest.mark.parametrize("params", [CLOSED, SPIRAL, ModelParams(2, 3)])
    def test_exact_dichotomy_on_random_samples(self, params):
        rng = random.Random(23)
        for _ in range(25):
            p1 = sample_sigma1(rng, params)
            assert not symplectic_rank(StratumLabel.SIGMA1, p1, params)["degenerate"]
            p2 = sample_sigma2(rng, params)
            assert symplectic_rank(StratumLabel.SIGMA2, p2, params)["degenerate"]


    @pytest.mark.parametrize("params", [ModelParams(2), ModelParams(3), SPIRAL],
                             ids=["k2", "k3", "k2-mu-half"])
    def test_matrix_matches_per_entry_eval_on_report_all_points(self, params):
        # the points of report-all's geometry suite (seed 20260401, 100 of each
        # stratum, drawn in its order); every entry against PhasePoly.eval
        rng = random.Random(20260401)
        for _ in range(100):
            for label, sample in ((StratumLabel.SIGMA1, sample_sigma1),
                                  (StratumLabel.SIGMA2, sample_sigma2)):
                point = sample(rng, params)
                out = symplectic_rank(label, point, params)
                expected = [[entry.eval(point.components()) for entry in row]
                            for row in bracket_matrix(label, params)]
                assert out["bracket_matrix"] == expected
                assert all(type(v) is Fraction for row in out["bracket_matrix"] for v in row)
                assert out["rank"] == _exact_rank(expected)

    def test_empty_entry_evaluates_to_zero(self):
        point = geometry._numerators((Fraction(1, 3), 2, Fraction(-5, 7), 0, 1, Fraction(1, 2)))
        assert PhasePoly()._at(*point) == (0, 1)
        assert PhasePoly.const(Fraction(3, 4))._at(*point) == (3, 4)


def _exact_rank(matrix):
    """Rank by Fraction elimination: the oracle for ``symplectic_rank``, which
    reads the rank of its antisymmetric matrices off their entries."""
    m = [row[:] for row in matrix]
    n = len(m)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        for r in range(n):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestExactRank:
    # the bracket matrices of Sigma1 and Sigma2 never need a row eliminated
    @pytest.mark.parametrize("rows, rank", [
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 2),  # row 2 is twice row 1: eliminated to zero
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 3),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
    ], ids=["rank-2", "full-rank", "zero"])
    def test_rank(self, rows, rank):
        matrix = [[Fraction(v) for v in row] for row in rows]
        assert _exact_rank(matrix) == rank
        assert matrix == [[Fraction(v) for v in row] for row in rows]  # works on a copy


class TestBracketMatrix:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 2)])
    def test_sigma1_holds_tau_f(self, k, mu):
        # {tau, F} = k t^(k-1) <x, xi>, {F, tau} its negative, zeros on the diagonal
        t, x1, x2, xi1, xi2 = (var(n) for n in ("t", "x1", "x2", "xi1", "xi2"))
        tau_f = t ** (k - 1) * (x1 * xi1 + x2 * xi2) * k
        matrix = bracket_matrix(StratumLabel.SIGMA1, ModelParams(k, mu))
        assert matrix == ((PhasePoly(), tau_f), (-tau_f, PhasePoly()))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 2)])
    def test_sigma2_is_constant(self, k, mu):
        rows = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        expected = tuple(tuple(PhasePoly.const(c) for c in row) for row in rows)
        assert bracket_matrix(StratumLabel.SIGMA2, ModelParams(k, mu)) == expected

    def test_cache_is_keyed_by_the_model(self):
        assert (bracket_matrix(StratumLabel.SIGMA1, ModelParams(3))
                != bracket_matrix(StratumLabel.SIGMA1, ModelParams(2)))
        assert char_function(ModelParams(2, MU)) != char_function(CLOSED)
        with pytest.raises(ValueError):
            bracket_matrix(StratumLabel.NONCHARACTERISTIC, CLOSED)

    def test_brackets_built_once_per_suite(self, monkeypatch):
        # 2^2 brackets on Sigma1 and 3^2 on Sigma2, not n^2 per sample point
        calls = []
        bracket = geometry.poisson_bracket

        def counted(f, g):
            calls.append(1)
            return bracket(f, g)

        monkeypatch.setattr(geometry, "poisson_bracket", counted)
        bracket_matrix.cache_clear()
        report = cli.run_geometry_suite(2, 20260401, 100)
        assert report["pass"]
        assert len(calls) <= 13


# -- Hamilton flow ---------------------------------------------------------------


def leaf_rhs(x, xi):
    """The flow right side at (x, xi), split into its x and xi parts."""
    rhs = _leaf_rhs((*x, *xi), float(MU), A * A, B * B)
    return {"x_dot": rhs[0:2], "xi_dot": rhs[2:4]}


class TestHamiltonRhs:
    def test_stationary_on_inner_circle(self):
        out = leaf_rhs((1.0, 0.0), (0.5, 0.5))
        assert out["x_dot"] == (0.0, 0.0)
        assert out["xi_dot"] == (0.0, 0.0)

    def test_stationary_on_outer_circle(self):
        out = leaf_rhs((0.0, 2.0), (0.5, 0.5))
        assert out["x_dot"] == (0.0, 0.0)

    def test_radius_grows_inside_annulus(self):
        x1, x2 = 1.3, 0.2
        out = leaf_rhs((x1, x2), (0.1, 0.7))
        d_r2 = 2 * (x1 * out["x_dot"][0] + x2 * out["x_dot"][1])
        r2 = x1 * x1 + x2 * x2
        g = (r2 - A ** 2) * (B ** 2 - r2)
        assert d_r2 == pytest.approx(2 * g * MU * r2)
        assert d_r2 > 0

    def test_huge_ring_raises_value_error(self):
        # squaring 1e200 overflows a float: the flow must refuse, not raise OverflowError
        with pytest.raises(ValueError):
            integrate((2e200, 0), (1, 0), MU, 1e200, 1e201, t_end=0.01, h=1e-3)


# <x0, A xi0> = 0 with <x0, xi0> != 0: a genuine depth-two leaf projection
X0, XI0 = (1.2, 0.0), (-0.96, 0.48)


def full_rows(traj):
    """The n_steps + 1 rows of a trajectory: the stored states, then the frozen tail."""
    return traj.states + [traj.states[-1]] * (traj.n_steps + 1 - len(traj.states))


class TestIntegrate:
    def test_conservation_short_run(self):
        traj = integrate(X0, XI0, MU, A, B, t_end=5.0, h=1e-3)
        assert (traj.mu, traj.a, traj.b) == (0.5, A, B)
        assert traj.states[0] == (*X0, *XI0)
        assert abs(_monitors(traj.states[0], traj.mu)["x_A_xi"]) < 1e-15
        assert traj.drift_x_xi < 1e-9
        assert traj.drift_x_A_xi < 1e-9

    def test_halving_step_reduces_drift_fourth_order(self):
        coarse = integrate(X0, XI0, MU, A, B, t_end=5.0, h=4e-3)
        fine = integrate(X0, XI0, MU, A, B, t_end=5.0, h=2e-3)
        assert coarse.drift_x_xi / fine.drift_x_xi > 12.0

    def test_closed_form_xi_agrees(self):
        traj = integrate(X0, XI0, MU, A, B, t_end=10.0, h=1e-3)
        assert traj.xi_closed_form_max_rel_dev < 1e-8

    def test_closed_form_deviation_is_the_actual_error(self):
        # the reference must not share the integrator's error: the reported
        # deviation at a coarse step matches the difference from a 16x finer run
        coarse = integrate(X0, XI0, MU, A, B, t_end=4.0, h=0.04)
        fine = integrate(X0, XI0, MU, A, B, t_end=4.0, h=0.0025)
        actual = max(
            math.hypot(c[2] - f[2], c[3] - f[3]) / math.hypot(f[2], f[3])
            for c, f in zip(full_rows(coarse), full_rows(fine)[::16], strict=True)
        )
        assert coarse.xi_closed_form_max_rel_dev == pytest.approx(actual, rel=0.05)

    def test_state_frozen_from(self):
        # b^2 - |x|^2 reaches the float floor near t = 3.1; later steps repeat the state
        traj = integrate(X0, XI0, MU, A, B, t_end=5.0, h=1e-3)
        assert traj.state_frozen_from == 3108 * 1e-3
        assert traj.states[3108][:2] == traj.states[-1][:2]
        assert traj.states[3107][:2] != traj.states[3108][:2]
        assert integrate(X0, XI0, MU, A, B, t_end=2.0, h=1e-3).state_frozen_from is None

    @pytest.mark.parametrize("richardson_tol, calls_per_step", [(None, 1), (1e-6, 3)])
    def test_no_step_after_the_freeze(self, monkeypatch, richardson_tol, calls_per_step):
        # the default orbit: step 3109 returns its input bit for bit, so no later step is taken
        calls = []

        def counted(*args):
            calls.append(None)
            return _rk4_step(*args)

        monkeypatch.setattr(geometry, "_rk4_step", counted)
        traj = integrate(X0, XI0, MU, A, B, t_end=50.0, h=1e-3, richardson_tol=richardson_tol)
        assert len(calls) == calls_per_step * 3109
        # only the computed states are stored: one per RK4 step taken, the frozen one last
        assert (len(traj.states), traj.n_steps) == (3110, 50000)
        assert len(traj.states) - 1 == len(calls) // calls_per_step
        rows = full_rows(traj)
        assert len(rows) == 50001
        assert traj.state_frozen_from == 3108 * 1e-3
        assert all(row is traj.states[3109] for row in rows[3109:])

    def test_closed_leaf_at_mu_zero(self):
        # t_end = 6 exceeds one period 2 pi / (g1 g2)(|x0|^2) = 5.578 of the circle
        coarse = integrate(X0, XI0, 0, A, B, t_end=6.0, h=0.02)
        fine = integrate(X0, XI0, 0, A, B, t_end=6.0, h=0.01)
        assert coarse.xi_closed_form_max_rel_dev / fine.xi_closed_form_max_rel_dev > 12.0
        for traj in (coarse, fine):
            assert traj.drift_x_xi <= 1e-8
            assert traj.drift_x_A_xi <= 1e-8
            assert traj.norm_x_monotone
            assert traj.state_frozen_from is None

    def test_radius_monotone_and_confined(self):
        traj = integrate(X0, XI0, MU, A, B, t_end=20.0, h=1e-3)
        assert traj.norm_x_monotone
        assert traj.max_norm_x <= B + 1e-9

    def test_richardson_rejects_coarse_step(self):
        with pytest.raises(ValueError, match="Richardson deviation"):
            integrate(X0, XI0, MU, A, B, t_end=2.0, h=0.5, richardson_tol=1e-12)

    def test_richardson_accepts_fine_step(self):
        traj = integrate(X0, XI0, MU, A, B, t_end=0.5, h=1e-3, richardson_tol=1e-9)
        assert len(traj.states) == 501

    @pytest.mark.parametrize(
        "x0, mu, t_end, h",
        [
            ((1.5, 0.0), 100, 1.0, 1e-2),  # the state overflows to NaN and stays so
        ],
    )
    def test_diverging_flow_raises(self, x0, mu, t_end, h):
        with pytest.raises(ValueError, match="diverged"):
            integrate(x0, XI0, mu, A, B, t_end=t_end, h=h)

    @pytest.mark.parametrize("x0", [(1e200, 0.0), (3.0, 0.0), (1.0, 0.0), (0.0, 2.0), (0.0, 0.0)])
    def test_start_outside_open_ring_rejected(self, x0):
        with pytest.raises(ValueError, match="open ring"):
            integrate(x0, XI0, MU, A, B, t_end=0.01, h=1e-3)

    def test_zero_xi0_rejected(self):
        with pytest.raises(ValueError, match="xi0"):
            integrate(X0, (0.0, 0.0), MU, A, B, t_end=0.01, h=1e-3)

    def test_frozen_first_step_rejected(self):
        # at h = 1e-20 the first step returns the start bit for bit: a vacuous pass
        with pytest.raises(ValueError, match="first step"):
            integrate((1.2, 0.7), XI0, MU, A, B, t_end=1e-17, h=1e-20)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            integrate(X0, XI0, MU, A, B, t_end=0.0, h=1e-3)
        with pytest.raises(ValueError):
            integrate(X0, XI0, MU, A, B, t_end=1.0, h=-1e-3)
        with pytest.raises(ValueError):
            integrate(X0, XI0, MU, A, B, t_end=0.1, h=0.3)  # rounds to zero steps
        with pytest.raises(ValueError, match="whole number"):
            integrate(X0, XI0, MU, A, B, t_end=0.0015, h=1e-3)
        with pytest.raises(ValueError, match="richardson_tol"):
            integrate(X0, XI0, MU, A, B, t_end=0.01, h=1e-3, richardson_tol=0.0)

    def test_ring_and_pitch_checked(self):
        # 0 < a < b and mu >= 0, nan failing each comparison
        for mu, a, b in [(MU, 2.0, 1.0), (MU, 1.0, 1.0), (MU, 0.0, 2.0), (MU, -1.0, 2.0),
                         (MU, 1.0, math.nan), (-1, A, B), (math.nan, A, B)]:
            with pytest.raises(ValueError, match="ring|mu"):
                integrate(X0, XI0, mu, a, b, t_end=0.01, h=1e-3)

    def test_step_count_capped(self):
        # 10^9 and 10^6 + 1 whole steps are refused before any state is built
        with pytest.raises(ValueError, match="cap"):
            integrate(X0, XI0, MU, A, B, t_end=1000.0, h=1e-6)
        with pytest.raises(ValueError, match="cap"):
            integrate(X0, XI0, MU, A, B, t_end=1.000001, h=1e-6)


@pytest.mark.parametrize("mu, t_end", [(0.5, 5.0), (0, 6.0), (0.5, 1.0)])
def test_one_pass_bookkeeping_matches_the_states(mu, t_end):
    # the running values taken in the step loop equal the ones recomputed from the stored rows
    traj = integrate(X0, XI0, mu, A, B, t_end, h=1e-3)
    rows = [_monitors(y, float(mu)) for y in full_rows(traj)]
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
    traj = integrate(X0, XI0, MU, A, B, t_end=20.0, h=1e-3)
    fit = traj.log_spiral_fit
    assert fit["slope"] == pytest.approx(MU, abs=1e-6)
    assert fit["max_residual"] < 1e-3


def reference_csv(traj):
    """The per-row CSV writer, run on every one of the n_steps + 1 rows."""
    lines = ["time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x\n"]
    for i, y in enumerate(full_rows(traj)):
        m = _monitors(y, traj.mu)
        row = (i * traj.h, *y, m["x_dot_xi"], m["x_A_xi"], m["norm_x"])
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def reference_fit(traj):
    """The separate pass of the log-spiral fit, run on every one of the n_steps + 1 rows."""
    a, b = traj.a, traj.b
    lo, hi = a + 0.1 * (b - a), b - 0.1 * (b - a)
    rows = full_rows(traj)
    theta, prev_angle = 0.0, math.atan2(rows[0][1], rows[0][0])
    angles, logs = [], []
    for x1, x2, _, _ in rows:
        angle = math.atan2(x2, x1)
        d = angle - prev_angle
        while d <= -math.pi:
            d += 2 * math.pi
        while d > math.pi:
            d -= 2 * math.pi
        theta += d
        prev_angle = angle
        r = math.hypot(x1, x2)
        if lo <= r <= hi:
            angles.append(theta)
            logs.append(math.log(r))
    n = len(angles)
    if n < 2:
        return None
    mean_a = sum(angles) / n
    mean_l = sum(logs) / n
    sxx = sum((av - mean_a) ** 2 for av in angles)
    if sxx == 0:
        return None
    sxy = sum((av - mean_a) * (lv - mean_l) for av, lv in zip(angles, logs))
    slope = sxy / sxx
    intercept = mean_l - slope * mean_a
    residual = max(abs(lv - (slope * av + intercept)) for av, lv in zip(angles, logs))
    return {"slope": slope, "intercept": intercept, "max_residual": residual, "points": n}


def reference_leaf_taus(mu, s0, a2, b2, h, n_steps):
    """The leaf parameter tau at every one of the n_steps times, by Newton's method at each."""
    if mu == 0:
        yield from ((s0 - a2) * (b2 - s0) * step * h for step in range(1, n_steps + 1))
        return
    ring = b2 - a2
    v = 0.0
    for step in range(1, n_steps + 1):
        while True:
            ds = -(b2 - s0) * math.expm1(-v)
            log_s = math.log1p(ds / s0)
            two_mu_t = (-log_s / (a2 * b2) + math.log1p(ds / (s0 - a2)) / (a2 * ring)
                        + v / (b2 * ring))
            dv = (2.0 * mu * step * h - two_mu_t) * (s0 + ds) * (s0 + ds - a2)
            if not dv > 0 or v + dv == v:
                break
            v += dv
        yield log_s / (2.0 * mu)


def reference_closed_dev(traj):
    """The largest relative deviation of xi from the explicit leaf, taken row by row."""
    x1, x2, z1, z2 = traj.states[0]
    s0 = x1 * x1 + x2 * x2
    a2, b2 = traj.a * traj.a, traj.b * traj.b
    taus = reference_leaf_taus(traj.mu, s0, a2, b2, traj.h, traj.n_steps)
    dev = 0.0
    for y, tau in zip(full_rows(traj)[1:], taus, strict=True):
        damp, c, s = math.exp(-traj.mu * tau), math.cos(tau), math.sin(tau)
        off = math.hypot(damp * (c * z1 - s * z2) - y[2], damp * (s * z1 + c * z2) - y[3])
        dev = max(dev, off / max(math.hypot(y[2], y[3]), 1e-300))
    return dev


def test_leaf_stops_once_tau_saturates(monkeypatch):
    # on the default orbit expm1(-v) reaches -1.0 at row 3504, so the leaf evaluates
    # 3504 of the 50,000 rows; the reference's tau last changes at row 3370
    rows = []

    def counted(*args):
        for tau in _leaf_taus(*args):
            rows.append(tau)
            yield tau

    monkeypatch.setattr(geometry, "_leaf_taus", counted)
    traj = integrate(X0, XI0, MU, A, B, t_end=50.0, h=1e-3)
    assert len(rows) == 3504
    reference = list(reference_leaf_taus(0.5, X0[0] * X0[0], A * A, B * B, 1e-3, 50000))
    assert rows == reference[:3504]
    assert set(reference[3369:]) == {rows[-1]} and reference[3368] != rows[-1]
    assert traj.xi_closed_form_max_rel_dev == reference_closed_dev(traj)


def freeze_after(monkeypatch, n):
    """Make every RK4 step after the n-th return its input, freezing the orbit mid-ring."""
    calls = []

    def step(y, *args):
        calls.append(None)
        return _rk4_step(y, *args) if len(calls) <= n else y

    monkeypatch.setattr(geometry, "_rk4_step", step)


@pytest.mark.parametrize(
    "x0, mu, t_end, richardson_tol, frozen_after",
    [
        (X0, 0.5, 5.0, None, None),  # the default orbit, frozen at |x| = b from step 3109
        (X0, 0, 6.0, None, None),  # a closed leaf: never frozen
        ((1.2, 0.7), 0.5, 20.0, 1e-6, None),
        (X0, 0.5, 1.0, None, 300),  # frozen mid-ring: the frozen row is in the fit's window
        (X0, 0.5, 8.0, None, 300),  # frozen in the window, tau saturated before t_end
        # the frozen row last in the CSV's first 256-row block, first in the second, and after it
        (X0, 0.5, 1.0, None, 254),
        (X0, 0.5, 1.0, None, 255),
        (X0, 0.5, 1.0, None, 256),
    ],
)
def test_tail_rows_match_the_per_row_oracle(monkeypatch, x0, mu, t_end, richardson_tol,
                                            frozen_after):
    # the stored states and one formatted tail give the bytes and the fit of every row
    if frozen_after is not None:
        freeze_after(monkeypatch, frozen_after)
    traj = integrate(x0, XI0, mu, A, B, t_end, h=1e-3, richardson_tol=richardson_tol)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    assert buf.getvalue() == reference_csv(traj)
    assert traj.log_spiral_fit == reference_fit(traj)
    assert traj.log_spiral_fit is not None
    assert traj.xi_closed_form_max_rel_dev == reference_closed_dev(traj)


def test_fit_is_none_when_every_window_angle_is_equal():
    # at h = 1.5e-17 the steps move xi but never x, so the slope is 0 / 0
    traj = integrate((1.2, 0.7), XI0, MU, A, B, t_end=1.5e-14, h=1.5e-17)
    assert len({y[:2] for y in traj.states}) == 1
    assert len({y[2:] for y in traj.states}) > 1
    assert traj.log_spiral_fit is None


def test_trajectory_csv_format():
    traj = integrate(X0, XI0, MU, A, B, t_end=0.01, h=1e-3)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x"
    assert len(lines) == 1 + len(traj.states)
    # 17 significant digits reproduce the doubles bit-exactly
    cells = lines[2].split(",")
    assert float(cells[1]) == traj.states[1][0]
    assert float(cells[7]) == _monitors(traj.states[1], traj.mu)["norm_x"]


def test_monitors_recomputed_from_state():
    traj = integrate((0.9, 1.2), (1, 2), MU, A, B, t_end=1e-3, h=1e-3)
    assert traj.states[0] == (0.9, 1.2, 1.0, 2.0)
    monitors = _monitors(traj.states[0], float(MU))
    assert monitors["norm_x"] == pytest.approx(1.5)
    assert monitors["x_dot_xi"] == pytest.approx(0.9 + 2.4)
    a_xi = (MU * 1.0 + 2.0, -1.0 + MU * 2.0)
    assert monitors["x_A_xi"] == pytest.approx(0.9 * a_xi[0] + 1.2 * a_xi[1])
