"""DiffOp evaluations that only the tests need."""

from fractions import Fraction

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
