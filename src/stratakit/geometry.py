"""Phase-space strata, Poisson brackets, and the spiral Hamilton flow.

The cotangent variables are (t, x1, x2; tau, xi1, xi2).  Two model variants
are supported:

* ``closed``  — characteristic function x1 xi2 - x2 xi1 + t^k <x, xi>;
  the depth-one stratum is symplectic of codimension 2, the depth-two
  stratum (t = 0) is not.
* ``spiral``  — characteristic function x1 xi2 - x2 xi1 + (mu + t^k) <x, xi>
  modulated by the annulus factors g1 = |x|^2 - a^2, g2 = b^2 - |x|^2; the
  depth-two stratum has codimension 3 and its Hamilton leaves are
  logarithmic spirals between the circles |x| = a and |x| = b.

Stratum membership, Poisson brackets, and the bracket-matrix rank test are
all available in exact rational arithmetic (`fractions.Fraction` inputs stay
exact end to end); classification of float covectors uses a relative
tolerance.  The flow integrator is a fixed-step classical Runge-Kutta scheme
that keeps each state as a plain (x1, x2, xi1, xi2) tuple and, in the same
pass, takes the conserved-quantity monitors, a check of every step against
the explicit leaf, and an optional Richardson step check; it refuses runs of
more than 10^6 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from enum import Enum

from .exactalg import SparseTerms

__all__ = [
    "PhasePoly",
    "StratumLabel",
    "ModelParams",
    "Covector",
    "FlowState",
    "Trajectory",
    "StepSizeError",
    "var",
    "poisson_bracket",
    "char_function",
    "stratum_defining_functions",
    "classify",
    "classify_detailed",
    "symplectic_rank",
    "make_flow_state",
    "integrate",
    "write_trajectory_csv",
    "log_spiral_fit",
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

    def eval(self, point) -> Fraction | float:
        """Evaluate at (t, x1, x2, tau, xi1, xi2); exact for exact inputs."""
        values = tuple(point)
        acc = None
        for key, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, key):
                if e:
                    term = term * v ** e
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0) if not any(isinstance(v, float) for v in values) else 0.0
        return acc

    def __repr__(self):
        def mono(key):
            return " ".join(
                f"{n}^{e}" if e > 1 else n for n, e in zip(_VARS, key) if e
            ) or "1"

        return " + ".join(f"{c} {mono(k)}" for k, c in sorted(self.terms.items()))


def var(name: str) -> PhasePoly:
    key = [0] * 6
    key[_VAR_INDEX[name]] = 1
    return PhasePoly({tuple(key): 1})


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """Canonical bracket sum_i (df/dxi_i dg/dx_i - df/dx_i dg/dxi_i).

    The (t, tau) pair enters the same way, so {tau, t} = 1 exactly.
    """
    out = PhasePoly()
    for xi_idx, mom_idx in ((pair[0], pair[1]) for pair in _PAIRS):
        x_name, p_name = _VARS[xi_idx], _VARS[mom_idx]
        out = out + f.diff(p_name) * g.diff(x_name) - f.diff(x_name) * g.diff(p_name)
    return out


class StratumLabel(Enum):
    NONCHARACTERISTIC = "Noncharacteristic"
    SIGMA1 = "Sigma1"
    SIGMA2 = "Sigma2"
    SIGMA_TOP = "SigmaTop"
    ZERO_SECTION = "ZeroSection"


@dataclass(frozen=True)
class ModelParams:
    """Model selector: ``closed`` for the plain t^k twist, ``spiral`` for the
    annulus model with the rotation-dilation matrix [[mu, 1], [-1, mu]]."""

    variant: str
    k: int
    mu: float | Fraction | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.variant not in ("closed", "spiral"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.variant == "spiral":
            if self.mu is None or self.mu < 0:
                raise ValueError(f"spiral variant requires mu >= 0, got mu = {self.mu}")
            if self.a is None or self.b is None or not 0 < self.a < self.b:
                raise ValueError(f"spiral variant requires 0 < a < b, got {self.a}, {self.b}")


@dataclass(frozen=True)
class Covector:
    """A phase-space point (t, x; tau, xi) with x, xi in the plane."""

    t: float | Fraction
    x: tuple
    tau: float | Fraction
    xi: tuple

    def components(self) -> tuple:
        return (self.t, self.x[0], self.x[1], self.tau, self.xi[0], self.xi[1])

    def is_exact(self) -> bool:
        return all(
            isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            for v in self.components()
        )


def char_function(params: ModelParams) -> PhasePoly:
    """Principal characteristic polynomial of the angular field (tau excluded)."""
    x1, x2 = var("x1"), var("x2")
    xi1, xi2 = var("xi1"), var("xi2")
    t = var("t")
    angular = x1 * xi2 - x2 * xi1
    radial = x1 * xi1 + x2 * xi2
    twist = t ** params.k
    if params.variant == "spiral":
        twist = twist + PhasePoly.const(Fraction(params.mu))
    return angular + twist * radial


def stratum_defining_functions(label: StratumLabel, params: ModelParams) -> list[PhasePoly]:
    """Defining polynomials whose pairwise brackets feed the rank test."""
    tau = var("tau")
    if label is StratumLabel.SIGMA1:
        return [tau, char_function(params)]
    if label is StratumLabel.SIGMA2:
        x1, x2 = var("x1"), var("x2")
        xi1, xi2 = var("xi1"), var("xi2")
        if params.variant == "closed":
            third = x1 * xi2 - x2 * xi1
        else:
            third = x1 * xi2 - x2 * xi1 + Fraction(params.mu) * (x1 * xi1 + x2 * xi2)
        return [tau, var("t"), third]
    raise ValueError(f"no defining-function system for {label}")


def _is_zero(value, tol, scale) -> bool:
    if isinstance(value, (int, Fraction)):
        return value == 0
    return abs(value) <= tol * max(1.0, scale)


def classify_detailed(
    cov: Covector, params: ModelParams, tol: float = 1e-12
) -> tuple[StratumLabel, dict]:
    """Classify a covector and report classification metadata.

    Exact (Fraction/int) inputs are classified with exact zero tests; float
    inputs use ``tol`` relative to the covector magnitude.  The flag
    ``ambiguous`` marks spiral points with tau = t = 0, <x, A xi> = 0 but
    <x, xi> = 0 as well (possible only where x vanishes): they satisfy the
    characteristic equations yet belong to no printed stratum, so they are
    bucketed with the depth-two stratum and flagged.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    exact = cov.is_exact()
    comps = cov.components()
    cov_scale = 0.0 if exact else max(abs(float(cov.tau)), abs(float(cov.xi[0])), abs(float(cov.xi[1])))
    if cov.tau == 0 and cov.xi[0] == 0 and cov.xi[1] == 0:
        raise ValueError("zero covector cannot be classified")
    flags = {"exact": exact, "ambiguous": False}

    if not _is_zero(cov.tau, tol, cov_scale):
        return StratumLabel.NONCHARACTERISTIC, flags
    if _is_zero(cov.xi[0], tol, cov_scale) and _is_zero(cov.xi[1], tol, cov_scale):
        # covector degenerates to the zero section (deepest stratum)
        return StratumLabel.ZERO_SECTION, flags

    x_scale = 1.0 if exact else max(abs(float(cov.x[0])), abs(float(cov.x[1])), 1.0)
    f2 = char_function(params).eval(comps)
    if not _is_zero(f2, tol, cov_scale * x_scale):
        return StratumLabel.NONCHARACTERISTIC, flags
    if not _is_zero(cov.t, tol, 1.0):
        return StratumLabel.SIGMA1, flags
    if params.variant == "spiral":
        radial = cov.x[0] * cov.xi[0] + cov.x[1] * cov.xi[1]
        if _is_zero(radial, tol, cov_scale * x_scale):
            flags["ambiguous"] = True
    return StratumLabel.SIGMA2, flags


def classify(cov: Covector, params: ModelParams, tol: float = 1e-12) -> StratumLabel:
    return classify_detailed(cov, params, tol)[0]


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
    """Bracket matrix of the stratum's defining functions at a point on it.

    Returns the matrix {F_i, F_j}(point), its rank, and ``degenerate`` (true
    iff the matrix is singular, i.e. the stratum fails the symplectic
    codimension test there).  The point must be exact (rational), which
    makes the whole computation exact; the rank of an odd-size antisymmetric
    matrix is necessarily deficient, which is how the codimension-3 stratum
    always reports degenerate.
    """
    if not point.is_exact():
        raise ValueError("the rank test needs an exact (rational) point")
    observed = classify(point, params)
    if observed is not stratum:
        raise ValueError(f"point classifies as {observed.value}, not {stratum.value}")
    funcs = stratum_defining_functions(stratum, params)
    comps = point.components()
    size = len(funcs)
    matrix = [[poisson_bracket(fi, fj).eval(comps) for fj in funcs] for fi in funcs]
    rank = _exact_rank(matrix)
    return {
        "bracket_matrix": matrix,
        "rank": rank,
        "degenerate": rank < size,
    }


# -- Hamilton flow ------------------------------------------------------------


_MAX_STEPS = 10**6  # 20 times the default run; each state is a tuple kept in memory


class StepSizeError(RuntimeError):
    """Raised when the Richardson half-step comparison rejects the step size."""


@dataclass(frozen=True)
class FlowState:
    """The start of a flow: x and xi as floats, with their monitors."""

    x: tuple[float, float]
    xi: tuple[float, float]
    monitors: dict = field(compare=False)


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


def make_flow_state(x, xi, params: ModelParams) -> FlowState:
    if params.variant != "spiral":
        raise ValueError("flow states belong to the spiral variant")
    x, xi = (float(x[0]), float(x[1])), (float(xi[0]), float(xi[1]))
    return FlowState(x=x, xi=xi, monitors=_monitors((*x, *xi), float(params.mu)))


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


@dataclass
class Trajectory:
    """``states`` holds the n_steps + 1 tuples (x1, x2, xi1, xi2); row i is at time i h."""

    params: ModelParams
    h: float
    states: list
    drift_x_xi: float
    drift_x_A_xi: float
    xi_closed_form_max_rel_dev: float
    norm_x_monotone: bool
    max_norm_x: float
    state_frozen_from: float | None


def _rk4_step(y, h, mu, a2, b2):
    k1 = _leaf_rhs(y, mu, a2, b2)
    k2 = _leaf_rhs(tuple(y[i] + 0.5 * h * k1[i] for i in range(4)), mu, a2, b2)
    k3 = _leaf_rhs(tuple(y[i] + 0.5 * h * k2[i] for i in range(4)), mu, a2, b2)
    k4 = _leaf_rhs(tuple(y[i] + h * k3[i] for i in range(4)), mu, a2, b2)
    return tuple(
        y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4)
    )


def _leaf_taus(mu, s0, a2, b2, h, n_steps):
    """Leaf parameter tau = integral of g1 g2 dt at t = h, 2h, ..., n_steps h.

    The leaf through |x0|^2 = s0 has s = s0 e^(2 mu tau), so t(s) is explicit
    by partial fractions.  Newton's method inverts it in the variable
    v = -ln((b^2 - s)/(b^2 - s0)), where 2 mu t(v) is concave with slope
    1/(s (s - a^2)): from the previous time's root the iterates rise
    monotonically and stay in the ring however close s gets to b^2.  They
    stop once a step no longer moves v forward.  At mu = 0 the leaf is a
    circle.
    """
    if mu == 0:
        yield from ((s0 - a2) * (b2 - s0) * step * h for step in range(1, n_steps + 1))
        return
    ring = b2 - a2
    v = 0.0
    for step in range(1, n_steps + 1):
        while True:
            ds = -(b2 - s0) * math.expm1(-v)  # s - s0
            log_s = math.log1p(ds / s0)  # ln(s/s0) = 2 mu tau
            two_mu_t = (-log_s / (a2 * b2) + math.log1p(ds / (s0 - a2)) / (a2 * ring)
                        + v / (b2 * ring))
            dv = (2.0 * mu * step * h - two_mu_t) * (s0 + ds) * (s0 + ds - a2)
            if not dv > 0 or v + dv == v:
                break
            v += dv
        yield log_s / (2.0 * mu)


def integrate(
    s0: FlowState,
    params: ModelParams,
    t_end: float,
    h: float,
    richardson_tol: float | None = None,
) -> Trajectory:
    """Fixed-step 4th-order integration of the spiral Hamilton system from a
    start in the open ring a < |x0| < b.

    One pass over the steps keeps each state as a plain tuple (x1, x2, xi1,
    xi2) and updates the running drifts of <x, xi> and <x, A xi>, the
    monotonicity and maximum of |x|, and the deviation of xi from the
    explicit leaf xi = e^(-mu tau) R(tau) xi0 (R the counter-clockwise
    rotation, tau from ``_leaf_taus``, which never reads the integrated
    state); xi and the gated pairings fix x.  ``state_frozen_from`` is the
    time of the last step that changed the state, None if the final step
    did.  With ``richardson_tol`` set, each step is compared against two half
    steps and a deviation beyond the tolerance raises StepSizeError.  An
    ``h`` that does not divide ``t_end`` into a whole number of steps, more
    than ``_MAX_STEPS`` steps, a zero xi0 and a diverging flow raise
    ValueError.
    """
    if params.variant != "spiral":
        raise ValueError("the Hamilton system belongs to the spiral variant")
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
    # squares by multiplication: a huge value gives inf here, not OverflowError
    a2, b2 = params.a * params.a, params.b * params.b
    s_start = s0.x[0] * s0.x[0] + s0.x[1] * s0.x[1]
    if not a2 < s_start < b2:
        raise ValueError(f"x0 must lie in the open ring a < |x0| < b, but |x0|^2 = {s_start!r}"
                         f" with a^2 = {a2!r}, b^2 = {b2!r}")
    if s0.xi[0] == 0 and s0.xi[1] == 0:
        raise ValueError("xi0 = 0 gives a constant flow: every monitor passes vacuously")
    mu = float(params.mu)

    y = (*s0.x, *s0.xi)
    states = [y]
    first = _monitors(y, mu)
    dot0, a_dot0 = first["x_dot_xi"], first["x_A_xi"]
    # the start's own terms: 0.0, or nan for an overflowed monitor, as max() over every row gives
    drift, a_drift = abs(dot0 - dot0), abs(a_dot0 - a_dot0)
    norm_x = max_norm_x = first["norm_x"]
    monotone, closed_dev, last_change = True, 0.0, 0
    xi0 = s0.xi
    for step, tau in enumerate(_leaf_taus(mu, s_start, a2, b2, h, n_steps), 1):
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
        damp, c, s = math.exp(-mu * tau), math.cos(tau), math.sin(tau)
        off = math.hypot(damp * (c * xi0[0] - s * xi0[1]) - y[2],
                         damp * (s * xi0[0] + c * xi0[1]) - y[3])
        closed_dev = max(closed_dev, off / max(m["norm_xi"], 1e-300))
    return Trajectory(
        params=params,
        h=h,
        states=states,
        drift_x_xi=drift,
        drift_x_A_xi=a_drift,
        xi_closed_form_max_rel_dev=closed_dev,
        norm_x_monotone=monotone,
        max_norm_x=max_norm_x,
        state_frozen_from=None if last_change == n_steps else last_change * h,
    )


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """Trajectory table with a mandatory header and 17-significant-digit floats."""
    mu = float(traj.params.mu)
    stream.write("time,x1,x2,xi1,xi2,dot_x_xi,x_A_xi,norm_x\n")
    for i, y in enumerate(traj.states):
        m = _monitors(y, mu)
        row = (i * traj.h, *y, m["x_dot_xi"], m["x_A_xi"], m["norm_x"])
        stream.write(",".join(f"{v:.17g}" for v in row) + "\n")


def log_spiral_fit(traj: Trajectory) -> dict:
    """Least-squares fit of log |x| against the unwound winding angle.

    Restricted to the mid-annulus segment (a tenth of the ring width away
    from both circles); for the spiral model the pitch d log|x| / d theta
    equals mu identically, so the fit slope approximates mu and the residual
    measures integration error only.
    """
    a, b = traj.params.a, traj.params.b
    lo, hi = a + 0.1 * (b - a), b - 0.1 * (b - a)
    theta = 0.0
    prev_angle = math.atan2(traj.states[0][1], traj.states[0][0])
    angles, logs = [], []
    for x1, x2, _, _ in traj.states:
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
        raise ValueError("trajectory has no mid-annulus segment to fit")
    mean_a = sum(angles) / n
    mean_l = sum(logs) / n
    sxx = sum((av - mean_a) ** 2 for av in angles)
    sxy = sum((av - mean_a) * (lv - mean_l) for av, lv in zip(angles, logs))
    slope = sxy / sxx
    intercept = mean_l - slope * mean_a
    residual = max(abs(lv - (slope * av + intercept)) for av, lv in zip(angles, logs))
    return {"slope": slope, "intercept": intercept, "max_residual": residual, "points": n}


# -- exact stratum samplers ----------------------------------------------------


def _nonzero_fraction(rng, span: int = 6) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-span, span)
    return Fraction(num, rng.randint(1, span))


def sample_sigma1(rng, params: ModelParams) -> Covector:
    """Random exact-rational covector on the depth-one stratum.

    Writes xi = alpha x + beta x_perp and solves the characteristic equation
    for beta, which keeps every value rational.
    """
    t = _nonzero_fraction(rng)
    x = (_nonzero_fraction(rng), _nonzero_fraction(rng))
    alpha = _nonzero_fraction(rng)
    twist = t ** params.k
    if params.variant == "spiral":
        twist += Fraction(params.mu)
    beta = -twist * alpha
    x_perp = (-x[1], x[0])
    xi = (alpha * x[0] + beta * x_perp[0], alpha * x[1] + beta * x_perp[1])
    return Covector(t=t, x=x, tau=Fraction(0), xi=xi)


def sample_sigma2(rng, params: ModelParams) -> Covector:
    """Random exact-rational covector on the depth-two stratum (t = 0)."""
    x = (_nonzero_fraction(rng), _nonzero_fraction(rng))
    alpha = _nonzero_fraction(rng)
    if params.variant == "closed":
        xi = (alpha * x[0], alpha * x[1])
    else:
        mu = Fraction(params.mu)
        det = mu * mu + 1
        x_perp = (-x[1], x[0])
        # xi = A^(-1) (beta x_perp) makes <x, A xi> = 0 with <x, xi> != 0
        xi = (
            alpha * (mu * x_perp[0] - x[0]) / det,
            alpha * (mu * x_perp[1] - x[1]) / det,
        )
    return Covector(t=Fraction(0), x=x, tau=Fraction(0), xi=xi)
