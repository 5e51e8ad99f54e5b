"""stratakit: exact verification toolkit for degenerate sum-of-squares models.

The package machine-checks the algebra and geometry attached to the model
operator P = X1^2 + X2^2 with X1 = d/dt and X2 = d/dtheta + t^k r d/dr:

* :mod:`stratakit.exactalg`  — ``SparseTerms`` (the one integer-numerator form
  of ``DiffOp`` and ``PhasePoly``), rational series and coefficient engines
* :mod:`stratakit.opalg`     — normal-ordered differential operator algebra
* :mod:`stratakit.localize`  — localizer operators and bracket identities
* :mod:`stratakit.geometry`  — strata, Poisson brackets, Hamilton flows
* :mod:`stratakit.cutoff`    — nested cutoff families and derivative bounds
* :mod:`stratakit.cli`       — verification suites as a command line tool

Everything symbolic is exact (arbitrary-precision rationals; a float given to
an exact layer raises TypeError); floating point appears only in the flow
integrator, in logarithmic bound bookkeeping and in rounded CSV samples.
The two helpers every layer shares live here, so a layer that needs no
coefficient code loads none: ``exact``, the strict coercer, and
``fmt_fraction``, the one report form of a rational.
"""

from fractions import Fraction

__version__ = "0.1.0"

__all__ = ["exact", "fmt_fraction", "exactalg", "opalg", "localize", "geometry", "cutoff", "cli"]


def exact(x) -> Fraction:
    """Coerce an exact number (Fraction or int) to a Fraction; floats raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def fmt_fraction(q: Fraction) -> str:
    """The report form of a rational: always "num/den", "1/1" included."""
    return f"{q.numerator}/{q.denominator}"
