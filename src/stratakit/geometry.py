"""Phase-space strata, Poisson brackets, and the Hamilton flow on the leaves.

The cotangent variables are (t, x1, x2; tau, xi1, xi2).  The model is one
family in the degree k >= 2 and the pitch mu >= 0, with characteristic
function x1 xi2 - x2 xi1 + (t^k + mu) <x, xi>.  The depth-one stratum is
symplectic of codimension 2; the depth-two stratum {tau = t = 0,
<x, A xi> = 0}, A = [[mu, 1], [-1, mu]], has codimension 3 and is not.
Modulated by the ring factors g1 = |x|^2 - a^2, g2 = b^2 - |x|^2, its
Hamilton leaves are closed circles at mu = 0 (the paper's case) and
logarithmic spirals between the circles |x| = a and |x| = b for mu > 0.

Stratum membership, Poisson brackets, and the bracket-matrix rank test run
in exact rational arithmetic: a ``Covector`` holds Fractions only (a float
component raises TypeError), so every zero test is exact.  The bracket
polynomials are built once per model and only evaluated per point.  The flow
integrator is a fixed-step classical Runge-Kutta scheme that keeps each
state it computes as a plain (x1, x2, xi1, xi2) tuple and, in the same pass,
takes the conserved-quantity monitors, a check of every step against the
explicit leaf, an optional Richardson step check and the log-spiral fit.
Once a step returns its state bit for bit (the orbit is frozen) it stops
stepping and storing; it refuses runs of more than 10^6 steps.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import cache

from .exactalg import SparseTerms, exact

__all__ = [
    "PhasePoly",
    "StratumLabel",
    "ModelParams",
    "Covector",
    "Trajectory",
    "StepSizeError",
    "var",
    "poisson_bracket",
    "char_function",
    "bracket_matrix",
    "classify_detailed",
    "symplectic_rank",
    "integrate",
    "write_trajectory_csv",
    "sample_sigma1",
    "sample_sigma2",
]

_VARS = ("t", "x1", "x2", "tau", "xi1", "xi2")
_VAR_INDEX = {name: i for i, name in enumerate(_VARS)}
# canonical pairs (position-like, momentum-like) for the symplectic structure
_PAIRS = ((1, 4), (2, 5), (0, 3))

_ZERO6 = (0, 0, 0, 0, 0, 0)


class PhasePoly(SparseTerms):
    """Polynomial on phase space with exact rational coefficients.

    Keys are exponent 6-tuples over ``_VARS``; addition, negation, scaling,
    powers and equality come from ``SparseTerms``.
    """

    __slots__ = ()
    _UNIT_KEY = _ZERO6

    @staticmethod
    def const(c) -> "PhasePoly":
        return PhasePoly({_ZERO6: c})

    def __mul__(self, other) -> "PhasePoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                acc = out.get(key, Fraction(0)) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return self._of(out)

    def diff(self, name: str) -> "PhasePoly":
        idx = _VAR_INDEX[name]
        out: dict = {}
        for key, coeff in self.terms.items():
            e = key[idx]
            if e == 0:
                continue
            down = key[:idx] + (e - 1,) + key[idx + 1:]
            out[down] = out.get(down, Fraction(0)) + coeff * e
        return self._of(out)

    def eval(self, point) -> Fraction:
        """Evaluate exactly at (t, x1, x2, tau, xi1, xi2)."""
        values = tuple(point)
        acc = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, key):
                if e:
                    term = term * v ** e
            acc += term
        return acc


def var(name: str) -> PhasePoly:
    key = [0] * 6
    key[_VAR_INDEX[name]] = 1
    return PhasePoly({tuple(key): 1})


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical bracket sum_i (df/dxi_i dg/dx_i - df/dx_i dg/dxi_i).

    The (t, tau) pair enters the same way, so {tau, t} = 1 exactly.
    """
    out = PhasePoly()
    for x_idx, p_idx in _PAIRS:
        x_name, p_name = _VARS[x_idx], _VARS[p_idx]
        out = out + f.diff(p_name) * g.diff(x_name) - f.diff(x_name) * g.diff(p_name)
    return out


class StratumLabel(Enum):
    NONCHARACTERISTIC = "Noncharacteristic"
    SIGMA1 = "Sigma1"
    SIGMA2 = "Sigma2"


class ModelParams(namedtuple("ModelParams", "k mu")):
    """The model of degree k with the rotation-dilation matrix [[mu, 1], [-1, mu]];
    mu = 0 is the paper's model, whose depth-two leaves are closed.  A named
    tuple, not a dataclass, so ``flow`` and ``classify`` never import
    ``dataclasses``; equal models hash equal, so the per-model caches hit."""

    __slots__ = ()

    def __new__(cls, k: int, mu=0):
        if k < 2:
            raise ValueError("k must be >= 2")
        # mu enters the exact strata, so it is coerced by ``exact`` (a float raises TypeError)
        mu = exact(mu)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got mu = {mu}")
        return super().__new__(cls, k, mu)


class Covector(namedtuple("Covector", "t x tau xi")):
    """A phase-space point (t, x; tau, xi) with x, xi in the plane.

    The strata are algebraic sets, so membership is a question of exact
    zeros: every component is coerced by ``exact`` (a float raises TypeError).
    """

    __slots__ = ()

    def __new__(cls, t, x, tau, xi):
        x1, x2 = x
        xi1, xi2 = xi
        return super().__new__(cls, exact(t), (exact(x1), exact(x2)),
                               exact(tau), (exact(xi1), exact(xi2)))

    def components(self) -> tuple:
        return (self.t, self.x[0], self.x[1], self.tau, self.xi[0], self.xi[1])


def _twisted(twist: PhasePoly) -> PhasePoly:
    """x1 xi2 - x2 xi1 + twist <x, xi>: F with twist t^k + mu, <x, A xi> with twist mu."""
    x1, x2, xi1, xi2 = var("x1"), var("x2"), var("xi1"), var("xi2")
    return x1 * xi2 - x2 * xi1 + twist * (x1 * xi1 + x2 * xi2)


@cache
def char_function(params: ModelParams) -> PhasePoly:
    """Principal characteristic polynomial of the angular field (tau excluded)."""
    return _twisted(var("t") ** params.k + PhasePoly.const(params.mu))


@cache
def bracket_matrix(label: StratumLabel, params: ModelParams) -> tuple:
    """{F_i, F_j} over the stratum's defining polynomials: (tau, F) on Sigma1 and
    (tau, t, <x, A xi>) on Sigma2.  It depends on the model only, so it is built
    once per (label, params), and ``symplectic_rank`` evaluates it per point."""
    if label is StratumLabel.SIGMA1:
        funcs = (var("tau"), char_function(params))
    elif label is StratumLabel.SIGMA2:
        funcs = (var("tau"), var("t"), _twisted(PhasePoly.const(params.mu)))
    else:
        raise ValueError(f"no defining-function system for {label}")
    return tuple(tuple(poisson_bracket(fi, fj) for fj in funcs) for fi in funcs)


def classify_detailed(cov: Covector, params: ModelParams) -> tuple[StratumLabel, dict]:
    """Classify a covector by exact zero tests and report classification metadata.

    The one flag, ``ambiguous``, marks points with tau = t = 0,
    <x, A xi> = 0 but <x, xi> = 0 as well (possible only where x vanishes):
    they satisfy the characteristic equations yet belong to no printed
    stratum, so they are bucketed with the depth-two stratum and flagged.
    At x = 0 with t != 0 (and tau = 0, xi != 0) the characteristic function
    vanishes, so the point is labelled Sigma1, but its bracket matrix is
    singular there: {tau, F} = k t^(k-1) <x, xi>, and with
    T = t^k + mu the identity |x|^2 |xi|^2 = <x, xi>^2 + (F - T <x, xi>)^2
    shows that on F = 0 the bracket vanishes exactly when x = 0.  x = 0 lies
    outside the ring the paper works in, so Sigma1's rank 2 is claimed for
    x != 0 only.  The characteristic polynomial is built once per model.
    """
    if cov.tau == 0 and cov.xi == (0, 0):
        raise ValueError("zero covector cannot be classified")
    flags = {"ambiguous": False}
    if cov.tau != 0 or char_function(params).eval(cov.components()) != 0:
        return StratumLabel.NONCHARACTERISTIC, flags
    if cov.t != 0:
        return StratumLabel.SIGMA1, flags
    flags["ambiguous"] = cov.x[0] * cov.xi[0] + cov.x[1] * cov.xi[1] == 0
    return StratumLabel.SIGMA2, flags


def _exact_rank(matrix: list[list[Fraction]]) -> int:
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


def symplectic_rank(stratum: StratumLabel, point: Covector, params: ModelParams) -> dict:
    """The stratum's bracket matrix at a point on it.

    A point that ``classify_detailed`` puts on another stratum raises
    ValueError.  Returns the cached ``bracket_matrix`` evaluated at the point,
    its rank, and ``degenerate`` (true iff the matrix is singular: the stratum
    fails the symplectic codimension test there).  The point is rational, so
    all of it is exact; an antisymmetric matrix of odd size is always singular,
    which is how the codimension-3 stratum always reports degenerate.
    """
    observed = classify_detailed(point, params)[0]
    if observed is not stratum:
        raise ValueError(f"point classifies as {observed.value}, not {stratum.value}")
    comps = point.components()
    matrix = [[entry.eval(comps) for entry in row] for row in bracket_matrix(stratum, params)]
    rank = _exact_rank(matrix)
    return {"bracket_matrix": matrix, "rank": rank, "degenerate": rank < len(matrix)}


# -- Hamilton flow ------------------------------------------------------------


_MAX_STEPS = 10**6  # 20 times the default run: a mu = 0 orbit never freezes, so keeps every row


class StepSizeError(ValueError):
    """Raised when the Richardson half-step comparison rejects the step size."""


def _monitors(u, mu) -> dict:
    """Pairings and norms of the state u = (x1, x2, xi1, xi2)."""
    x1, x2, xi1, xi2 = u
    a_xi = (mu * xi1 + xi2, -xi1 + mu * xi2)
    return {
        "x_dot_xi": x1 * xi1 + x2 * xi2,
        "x_A_xi": x1 * a_xi[0] + x2 * a_xi[1],
        "norm_x": math.hypot(x1, x2),
        "norm_xi": math.hypot(xi1, xi2),
    }


def _leaf_rhs(u, mu, a2, b2):
    """Flow right side x' = g1 g2 A^T x, xi' = -g1 g2 A xi on (x1, x2, xi1, xi2)."""
    x1, x2, xi1, xi2 = u
    r2 = x1 * x1 + x2 * x2
    g = (r2 - a2) * (b2 - r2)
    return (
        g * (mu * x1 - x2),
        g * (x1 + mu * x2),
        -g * (mu * xi1 + xi2),
        -g * (-xi1 + mu * xi2),
    )


class Trajectory(namedtuple("Trajectory", "mu a b h states n_steps drift_x_xi drift_x_A_xi "
                             "xi_closed_form_max_rel_dev norm_x_monotone max_norm_x "
                             "state_frozen_from log_spiral_fit")):
    """``states`` holds the computed tuples (x1, x2, xi1, xi2), row i at time i h;
    rows len(states)..n_steps repeat ``states[-1]``, the frozen state.
    ``state_frozen_from`` and ``log_spiral_fit`` may be None (see ``integrate``)."""

    __slots__ = ()


def _rk4_step(y, h, mu, a2, b2):
    """One classical Runge-Kutta step of the state y = (x1, x2, xi1, xi2)."""
    x1, x2, z1, z2 = y
    half, w = 0.5 * h, h / 6.0
    p1, p2, p3, p4 = _leaf_rhs(y, mu, a2, b2)
    u = (x1 + half * p1, x2 + half * p2, z1 + half * p3, z2 + half * p4)
    q1, q2, q3, q4 = _leaf_rhs(u, mu, a2, b2)
    u = (x1 + half * q1, x2 + half * q2, z1 + half * q3, z2 + half * q4)
    r1, r2, r3, r4 = _leaf_rhs(u, mu, a2, b2)
    u = (x1 + h * r1, x2 + h * r2, z1 + h * r3, z2 + h * r4)
    s1, s2, s3, s4 = _leaf_rhs(u, mu, a2, b2)
    return (x1 + w * (p1 + 2.0 * q1 + 2.0 * r1 + s1), x2 + w * (p2 + 2.0 * q2 + 2.0 * r2 + s2),
            z1 + w * (p3 + 2.0 * q3 + 2.0 * r3 + s3), z2 + w * (p4 + 2.0 * q4 + 2.0 * r4 + s4))


def _leaf_taus(mu, s0, a2, b2, h, n_steps):
    """Leaf parameter tau = integral of g1 g2 dt at t = h, 2h, ..., n_steps h.

    The leaf through |x0|^2 = s0 has s = s0 e^(2 mu tau), so t(s) is explicit
    by partial fractions.  Newton's method inverts it in the variable
    v = -ln((b^2 - s)/(b^2 - s0)), where 2 mu t(v) is concave with slope
    1/(s (s - a^2)): from the previous time's root the iterates rise
    monotonically and stay in the ring however close s gets to b^2.  They
    stop once a step no longer moves v forward.  Once expm1(-v) is -1.0 it
    stays so as v grows, so tau is fixed and the generator stops.  At mu = 0
    the leaf is a circle.
    """
    if mu == 0:
        yield from ((s0 - a2) * (b2 - s0) * step * h for step in range(1, n_steps + 1))
        return
    ring = b2 - a2
    v = 0.0
    for step in range(1, n_steps + 1):
        while True:
            e = math.expm1(-v)
            ds = -(b2 - s0) * e  # s - s0
            log_s = math.log1p(ds / s0)  # ln(s/s0) = 2 mu tau
            two_mu_t = (-log_s / (a2 * b2) + math.log1p(ds / (s0 - a2)) / (a2 * ring)
                        + v / (b2 * ring))
            dv = (2.0 * mu * step * h - two_mu_t) * (s0 + ds) * (s0 + ds - a2)
            if not dv > 0 or v + dv == v:
                break
            v += dv
        yield log_s / (2.0 * mu)
        if e == -1.0:
            return


def integrate(
    x0,
    xi0,
    mu,
    a: float,
    b: float,
    t_end: float,
    h: float,
    richardson_tol: float | None = None,
) -> Trajectory:
    """Fixed-step 4th-order integration of the Hamilton system of pitch
    mu >= 0 from (x0, xi0), taken as floats, with x0 in the open ring
    a < |x0| < b.

    One pass over the steps keeps each state it computes as a plain tuple
    (x1, x2, xi1, xi2) and updates the running drifts of <x, xi> and
    <x, A xi>, the monotonicity and maximum of |x|, the deviation of xi from
    the explicit leaf xi = e^(-mu tau) R(tau) xi0 (R the counter-clockwise
    rotation, tau from ``_leaf_taus``, which never reads the integrated
    state; xi and the gated pairings fix x) and the fit of log |x| against
    the unwound angle of x over the rows a tenth of the ring width from both
    circles, whose slope approximates the exact pitch mu (None if undefined).
    A step is a function of the state alone, so once one returns its input
    bit for bit the orbit is frozen: later steps are neither computed nor
    stored, and once tau is fixed too the loop ends.  ``state_frozen_from`` is
    the time of the last step that changed the state (by float !=), None if
    the final step did.  With ``richardson_tol`` set, each step is compared
    against two half steps and a deviation beyond the tolerance raises
    StepSizeError.  A negative mu, a ring without 0 < a < b, an ``h`` that
    does not divide ``t_end`` into a whole number of steps, more than
    ``_MAX_STEPS`` steps, a zero xi0 or a frozen first step (both vacuous)
    and a diverging flow raise ValueError.
    """
    if not mu >= 0:
        raise ValueError(f"need mu >= 0, got mu = {mu}")
    if not 0 < a < b:
        raise ValueError(f"need a ring 0 < a < b, got a = {a}, b = {b}")
    if h <= 0 or t_end <= 0:
        raise ValueError("need h > 0 and t_end > 0")
    if richardson_tol is not None and not richardson_tol > 0:
        raise ValueError("richardson_tol must be > 0")
    steps = t_end / h
    n_steps = round(steps) if math.isfinite(steps) else 0
    if not (n_steps >= 1 and abs(steps - n_steps) <= 1e-9 * steps):
        raise ValueError(f"h must divide t_end into a whole number of steps, not {steps:.6g}")
    if n_steps > _MAX_STEPS:
        raise ValueError(f"t_end / h = {n_steps} steps exceeds the cap of {_MAX_STEPS}")
    y = (float(x0[0]), float(x0[1]), float(xi0[0]), float(xi0[1]))
    # squares by multiplication: a huge value gives inf here, not OverflowError
    a2, b2 = a * a, b * b
    s_start = y[0] * y[0] + y[1] * y[1]
    if not a2 < s_start < b2:
        raise ValueError(f"x0 must lie in the open ring a < |x0| < b, but |x0|^2 = {s_start!r}"
                         f" with a^2 = {a2!r}, b^2 = {b2!r}")
    if y[2] == 0 and y[3] == 0:
        raise ValueError("xi0 = 0 gives a constant flow: every monitor passes vacuously")
    mu = float(mu)

    states = [y]
    m = _monitors(y, mu)
    dot0, a_dot0 = m["x_dot_xi"], m["x_A_xi"]
    # the start's own terms: 0.0, or nan for an overflowed monitor, as max() over every row gives
    drift, a_drift = abs(dot0 - dot0), abs(a_dot0 - a_dot0)
    norm_x = max_norm_x = m["norm_x"]
    monotone, closed_dev, last_change, frozen = True, 0.0, 0, False
    xi0 = y[2:]
    lo, hi = a + 0.1 * (b - a), b - 0.1 * (b - a)
    theta, angle = 0.0, math.atan2(y[1], y[0])
    angles, logs = ([theta], [math.log(norm_x)]) if lo <= norm_x <= hi else ([], [])
    leaf = _leaf_taus(mu, s_start, a2, b2, h, n_steps)
    for step in range(1, n_steps + 1):
        moved = next(leaf, None)  # None once tau is fixed
        if moved is not None:
            tau = moved
        if not frozen:
            y_next = _rk4_step(y, h, mu, a2, b2)
            if richardson_tol is not None:
                half = _rk4_step(_rk4_step(y, 0.5 * h, mu, a2, b2), 0.5 * h, mu, a2, b2)
                err = max(abs(half[i] - y_next[i]) for i in range(4))
                if err > richardson_tol:
                    raise StepSizeError(
                        f"step {step}: Richardson deviation {err:.3e} exceeds {richardson_tol:.3e}"
                    )
            if y_next != y:
                last_change = step
            # bits, not ==, since -0.0 == 0.0: a step that flips a zero's sign is not a fixed point
            frozen = y_next == y and struct.pack("4d", *y_next) == struct.pack("4d", *y)
            if frozen and step == 1:
                raise ValueError(f"at h = {h!r} the first step returns the start bit for bit")
            y = y_next
            if not all(map(math.isfinite, y)):
                raise ValueError(f"the flow diverged: the state at step {step} is {y!r}")
            states.append(y)
            # max(m, v) keeps m unless v > m, as max() over every row does
            m = _monitors(y, mu)
            drift = max(drift, abs(m["x_dot_xi"] - dot0))
            a_drift = max(a_drift, abs(m["x_A_xi"] - a_dot0))
            monotone = monotone and m["norm_x"] >= norm_x - 1e-12
            norm_x = m["norm_x"]
            max_norm_x = max(max_norm_x, norm_x)
            prev_angle, angle = angle, math.atan2(y[1], y[0])
            d = angle - prev_angle
            while d <= -math.pi:
                d += 2 * math.pi
            while d > math.pi:
                d -= 2 * math.pi
            theta += d
        # the window test runs per row, so a frozen row counts once per step it stands for
        if lo <= norm_x <= hi:
            angles.append(theta)
            logs.append(math.log(norm_x))
        damp, c, s = math.exp(-mu * tau), math.cos(tau), math.sin(tau)
        off = math.hypot(damp * (c * xi0[0] - s * xi0[1]) - y[2],
                         damp * (s * xi0[0] + c * xi0[1]) - y[3])
        closed_dev = max(closed_dev, off / max(m["norm_xi"], 1e-300))
        if frozen and moved is None:
            # every later row repeats this one
            if lo <= norm_x <= hi:
                rest = n_steps - step
                angles.extend([theta] * rest)
                logs.extend([math.log(norm_x)] * rest)
            break
    return Trajectory(
        mu=mu,
        a=a,
        b=b,
        h=h,
        states=states,
        n_steps=n_steps,
        drift_x_xi=drift,
        drift_x_A_xi=a_drift,
        xi_closed_form_max_rel_dev=closed_dev,
        norm_x_monotone=monotone,
        max_norm_x=max_norm_x,
        state_frozen_from=None if last_change == n_steps else last_change * h,
        log_spiral_fit=_line_fit(angles, logs),
    )


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """Trajectory table: a mandatory header, then one row per step in 17-digit floats."""
    stream.write("time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x\n")
    for i, y in enumerate(traj.states):
        m = _monitors(y, traj.mu)
        columns = ",".join(f"{v:.17g}" for v in (*y, m["x_dot_xi"], m["x_A_xi"], m["norm_x"]))
        stream.write(f"{i * traj.h:.17g},{columns}\n")
    for i in range(len(traj.states), traj.n_steps + 1):
        stream.write(f"{i * traj.h:.17g},{columns}\n")


def _line_fit(angles, logs) -> dict | None:
    """Least-squares line through the points (angles[i], logs[i]); None with
    fewer than two points or a single angle, where the slope is undefined."""
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


# -- exact stratum samplers ----------------------------------------------------


def _nonzero_fraction(rng) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.randint(1, 6))


def sample_sigma1(rng, params: ModelParams) -> Covector:
    """Random exact-rational covector on the depth-one stratum.

    Writes xi = alpha x + beta x_perp and solves the characteristic equation
    for beta, which keeps every value rational.
    """
    t = _nonzero_fraction(rng)
    x = (_nonzero_fraction(rng), _nonzero_fraction(rng))
    alpha = _nonzero_fraction(rng)
    beta = -(t ** params.k + params.mu) * alpha
    x_perp = (-x[1], x[0])
    xi = (alpha * x[0] + beta * x_perp[0], alpha * x[1] + beta * x_perp[1])
    return Covector(t=t, x=x, tau=Fraction(0), xi=xi)


def sample_sigma2(rng, params: ModelParams) -> Covector:
    """Random exact-rational covector on the depth-two stratum (t = 0).

    xi = alpha (x - mu x_perp) / (1 + mu^2) has <x, xi> = alpha |x|^2 / (1 + mu^2),
    which is nonzero, and x1 xi2 - x2 xi1 = -mu <x, xi>, so <x, A xi> = 0.
    At mu = 0 it is alpha x.
    """
    x = (_nonzero_fraction(rng), _nonzero_fraction(rng))
    alpha = _nonzero_fraction(rng)
    mu = params.mu
    x_perp = (-x[1], x[0])
    xi = (
        alpha * (x[0] - mu * x_perp[0]) / (1 + mu * mu),
        alpha * (x[1] - mu * x_perp[1]) / (1 + mu * mu),
    )
    return Covector(t=Fraction(0), x=x, tau=Fraction(0), xi=xi)
