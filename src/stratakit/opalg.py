"""Normal-ordered noncommutative algebra of differential operators.

Operators live in the variables (t, r, theta) with exact rational
coefficients and a family of formal cutoff symbols phi^(j).  The monomial
basis is normal ordered: multiplication operators (powers of t, phi symbols)
to the left of all derivations, derivations ordered Dt^b R^c Dtheta^d where
R = r*d/dr is the Euler radial field.  The complete commutation table is

    [Dt, t]        = 1
    [R, phi^(j)]   = phi^(j+1)
    everything else commutes.

phi is a formal symbol family, not a concrete function: the only rule the
bracket computations need is that R differentiates phi.  That turns every
operator identity checked downstream into a decidable identity in a free
algebra.

A monomial key is the tuple (t_pow, phis, dt_pow, r_pow, dth_pow) where
``phis`` is the sorted tuple of phi derivative orders appearing as factors.
DiffOp values are immutable once built; all operations are pure functions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm

from .exactalg import SparseTerms, _numerators, exact

__all__ = [
    "DiffOp",
    "ModelOps",
    "zero",
    "one",
    "tvar",
    "dt",
    "rr",
    "dtheta",
    "phi",
    "commutator",
    "build_model",
]

Key = tuple  # (t_pow, phis, dt_pow, r_pow, dth_pow)

_ZERO_KEY: Key = (0, (), 0, 0, 0)


@lru_cache(maxsize=None)
def _phi_derive(phis: tuple, times: int) -> tuple:
    """Distribution of R^times acting on a product of phi symbols.

    Returns a tuple of (multiset, integer multiplicity) pairs: R acts as a
    derivation sending phi^(j) to phi^(j+1).
    """
    current = {phis: 1}
    for _ in range(times):
        nxt: dict = {}
        for ms, mult in current.items():
            for pos in range(len(ms)):
                bumped = tuple(sorted(ms[:pos] + (ms[pos] + 1,) + ms[pos + 1:]))
                nxt[bumped] = nxt.get(bumped, 0) + mult
        current = nxt
        if not current:
            break
    return tuple(current.items())


class DiffOp(SparseTerms):
    """Finite rational combination of normal-ordered monomials.

    Addition, negation, scaling, powers and equality come from ``SparseTerms``.
    """

    __slots__ = ()
    _UNIT_KEY = _ZERO_KEY

    def __mul__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, DiffOp):
            return NotImplemented
        return DiffOp._over(*_product(_split(self), _split(other), 0))


def _split(op: DiffOp) -> tuple[int, list]:
    """(den, [(key, numerator), ...]): op's coefficients as integers over their lcm."""
    den, ints = _numerators(op.terms.values())
    return den, list(zip(op.terms, ints))


@lru_cache(maxsize=None)
def _r_moves(f1: tuple, f2: tuple, r1: int) -> tuple:
    """f1 R^r1 f2 as (i2, weight, phis) terms phis R^(r1 - i2), the i2 = 0 term first.

    ``phis`` is the sorted product of f1 with the i2-th derivative of f2.  A
    phi-free f2 passes R^r1 unchanged, so it has only the i2 = 0 term.
    """
    if not f2:
        return ((0, 1, f1),)
    return tuple(
        (i2, comb(r1, i2) * mult, tuple(sorted(f1 + ms)) if f1 else ms)
        for i2 in range(r1 + 1)
        for ms, mult in _phi_derive(f2, i2)
    )


def _product(left: tuple, right: tuple, first: int) -> tuple[int, dict]:
    """Normal-ordered left * right, both in ``_split`` form, as integer numerators
    over den(left) den(right).

    Each pair of monomials expands over i (Dt^b1 moved across t^a2) and i2
    (R^r1 moved across the phi factors of the right monomial); the terms with
    i + i2 < ``first`` are skipped.  ``first = 0`` gives the whole product;
    ``first = 1`` drops the i = i2 = 0 term, the commuting product, which is
    the same in both orders and cancels in a commutator.  A left monomial
    with neither Dt nor R, and a right one with neither t nor phi, have only
    that term, so ``first = 1`` skips them whole.
    """
    den_l, left_items = left
    den_r, right_items = right
    if first:
        right_items = [item for item in right_items if item[0][0] or item[0][1]]
    out: dict = {}
    for (a1, f1, b1, r1, d1), n1 in left_items:
        if first and not (b1 or r1):
            continue
        for (a2, f2, b2, r2, d2), n2 in right_items:
            base = n1 * n2
            moves = _r_moves(f1, f2, r1)
            r_pow, d_pow = r1 + r2, d1 + d2
            # move Dt^b1 across t^a2, and R^r1 across the phi factors f2
            for i in range(min(b1, a2) + 1):
                # perm is the falling factorial a2^(i)
                ct = base * comb(b1, i) * perm(a2, i) if i else base
                t_pow = a1 + a2 - i
                dt_pow = b1 - i + b2
                for i2, weight, phis in moves[1:] if first > i else moves:
                    key = (t_pow, phis, dt_pow, r_pow - i2, d_pow)
                    out[key] = out.get(key, 0) + ct * weight
    return den_l * den_r, out


def _linear(pairs) -> DiffOp:
    """sum c * op over exact (c, op) pairs, as integer numerators over one lcm.

    Each output coefficient becomes a Fraction once, where a chain of ``+``
    would reduce a fresh Fraction at every step.
    """
    parts = []
    for c, op in pairs:
        c = exact(c)
        if c and op.terms:
            den, items = _split(op)
            parts.append((c.numerator, c.denominator * den, items))
    den = lcm(*(part[1] for part in parts))
    out: dict = {}
    for num, part_den, items in parts:
        factor = num * (den // part_den)
        for key, n in items:
            out[key] = out.get(key, 0) + factor * n
    return DiffOp._over(den, out)


# -- generators ---------------------------------------------------------------


def zero() -> DiffOp:
    return DiffOp()


def one() -> DiffOp:
    return DiffOp({_ZERO_KEY: Fraction(1)})


def tvar(power: int = 1) -> DiffOp:
    if power < 0:
        raise ValueError("t powers must be >= 0")
    return DiffOp({(power, (), 0, 0, 0): Fraction(1)})


def dt() -> DiffOp:
    return DiffOp({(0, (), 1, 0, 0): Fraction(1)})


def rr() -> DiffOp:
    return DiffOp({(0, (), 0, 1, 0): Fraction(1)})


def dtheta() -> DiffOp:
    return DiffOp({(0, (), 0, 0, 1): Fraction(1)})


def phi(j: int) -> DiffOp:
    if j < 0:
        raise ValueError("phi derivative order must be >= 0")
    return DiffOp({(0, (j,), 0, 0, 0): Fraction(1)})


# -- bracket calculus -----------------------------------------------------------


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] from the normal-ordering corrections of a b and b a alone."""
    a, b = _split(a), _split(b)
    den, out = _product(a, b, 1)
    for key, n in _product(b, a, 1)[1].items():
        out[key] = out.get(key, 0) - n
    return DiffOp._over(den, out)


class ModelOps(namedtuple("ModelOps", "k X1 X2 R M")):
    """The model vector fields for a fixed degeneracy order k.

    All fields are real derivations: X1 = d/dt, X2 = d/dtheta + t^k R,
    R = r d/dr, and the auxiliary field M = (t/k) d/dt whose bracket with X2
    reproduces -t^k R.  A named tuple, not a dataclass, so ``verify`` never
    imports ``dataclasses``.
    """

    __slots__ = ()


def build_model(k: int) -> ModelOps:
    if k < 2:
        raise ValueError("the model requires k >= 2")
    return ModelOps(
        k=k,
        X1=dt(),
        X2=dtheta() + tvar(k) * rr(),
        R=rr(),
        M=Fraction(1, k) * (tvar() * dt()),
    )


# -- report form ---------------------------------------------------------------


def _render_key(key: Key) -> str:
    """One monomial as the ``offending_monomials`` of a failed residual list it."""
    a, phis, b, r, d = key
    pieces = []
    if a:
        pieces.append("t" if a == 1 else f"t^{a}")
    for j in phis:
        pieces.append(f"φ^({j})")
    if b:
        pieces.append("∂t" if b == 1 else f"∂t^{b}")
    if r:
        pieces.append("R" if r == 1 else f"R^{r}")
    if d:
        pieces.append("∂θ" if d == 1 else f"∂θ^{d}")
    return " ".join(pieces) if pieces else "1"

