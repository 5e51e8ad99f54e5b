"""DiffOp evaluations and operands that only the tests need."""

from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

from stratakit import localize
from stratakit.opalg import DiffOp


def derivation_order(op: DiffOp) -> int:
    """Highest total derivation degree (Dt, R, Dtheta powers combined)."""
    if not op.terms:
        return 0
    return max(k[2] + k[3] + k[4] for k in op.terms)


def substitute_phi_unit(op: DiffOp) -> DiffOp:
    """Evaluate on the region where the cutoff is identically 1.

    phi^(0) is replaced by 1 and every phi^(j) with j > 0 by 0, so a
    localized power collapses to the plain power it localizes.
    """
    out: dict = {}
    for (a, phis, b, r, d), coeff in op.terms.items():
        if any(j > 0 for j in phis):
            continue
        key = (a, (), b, r, d)
        out[key] = out.get(key, Fraction(0)) + coeff
    return DiffOp(out)


def leibniz(phis: tuple, times: int) -> dict:
    """R^times on the product of phi^(j), j in phis, by the multinomial Leibniz rule.

    The sum runs over every split e_1 + ... + e_m = times, each weighted by
    times! / (e_1! ... e_m!) and landing on the sorted multiset of j_l + e_l;
    a phi-free product is a constant, which R^times kills for times >= 1.
    """
    out: dict = {}
    for split in product(range(times + 1), repeat=len(phis)):
        if sum(split) != times:
            continue
        weight = factorial(times)
        for e in split:
            weight //= factorial(e)
        ms = tuple(sorted(j + e for j, e in zip(phis, split)))
        out[ms] = out.get(ms, 0) + weight
    return out


def reference_product(left: DiffOp, right: DiffOp) -> DiffOp:
    """left * right with one Fraction product per coefficient pair: the oracle for the kernel."""
    out: dict = {}
    for (a1, f1, b1, r1, d1), c1 in left.terms.items():
        for (a2, f2, b2, r2, d2), c2 in right.terms.items():
            for i in range(min(b1, a2) + 1):
                ct = comb(b1, i) * perm(a2, i)
                for i2 in range(r1 + 1):
                    for ms, mult in leibniz(f2, i2).items():
                        phis = tuple(sorted(f1 + ms))
                        key = (a1 + a2 - i, phis, b1 - i + b2, r1 - i2 + r2, d1 + d2)
                        out[key] = out.get(key, Fraction(0)) + c1 * c2 * (ct * comb(r1, i2) * mult)
    return DiffOp(out)


def build_Rp_phi(p: int, k: int, table) -> DiffOp:
    """R^p_phi = sum_j phi^(j) N_j R^(p-j): the whole operand the bracket oracles act on."""
    if p < 0:
        raise ValueError("p must be >= 0")
    return localize._localized([localize.build_N(j, k, table).op for j in range(p + 1)], p)
