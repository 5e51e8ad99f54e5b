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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

from .exactalg import SparseTerms
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
    "render",
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
        out: dict = {}
        for k1, c1 in self.terms.items():
            a1, f1, b1, r1, d1 = k1
            for k2, c2 in other.terms.items():
                a2, f2, b2, r2, d2 = k2
                base = c1 * c2  # the one Fraction factor: every multiplier below is an int
                # move Dt^b1 across t^a2, and R^r1 across the phi factors f2
                for i in range(min(b1, a2) + 1):
                    ct = comb(b1, i) * perm(a2, i)  # perm is the falling factorial a2^(i)
                    t_pow = a1 + a2 - i
                    dt_left = b1 - i
                    for i2 in range(r1 + 1):
                        cr = ct * comb(r1, i2)
                        for ms, mult in _phi_derive(f2, i2):
                            key = (
                                t_pow,
                                tuple(sorted(f1 + ms)),
                                dt_left + b2,
                                r1 - i2 + r2,
                                d1 + d2,
                            )
                            acc = out.get(key, Fraction(0)) + base * (cr * mult)
                            if acc:
                                out[key] = acc
                            else:
                                out.pop(key, None)
        return self._of(out)

    def __repr__(self) -> str:
        return f"DiffOp({render(self)})"


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
    return a * b - b * a


@dataclass(frozen=True)
class ModelOps:
    """The model vector fields for a fixed degeneracy order k.

    All fields are real derivations: X1 = d/dt, X2 = d/dtheta + t^k R,
    R = r d/dr, and the auxiliary field M = (t/k) d/dt whose bracket with X2
    reproduces -t^k R.
    """

    k: int
    X1: DiffOp
    X2: DiffOp
    R: DiffOp
    M: DiffOp


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


# -- rendering -----------------------------------------------------------------


def _render_key(key: Key) -> str:
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


def render(op: DiffOp) -> str:
    """Canonical human-readable form: monomials sorted, exact coefficients."""
    if op.is_zero:
        return "0"
    parts = []
    for key in sorted(op.terms):
        coeff = op.terms[key]
        body = _render_key(key)
        if coeff == 1 and body != "1":
            parts.append(body)
        elif coeff == -1 and body != "1":
            parts.append(f"- {body}" if not parts else f"-{body}")
        elif body == "1":
            parts.append(str(coeff))
        else:
            parts.append(f"{coeff} {body}")
    rendered = " + ".join(parts)
    return rendered.replace("+ -", "- ")
