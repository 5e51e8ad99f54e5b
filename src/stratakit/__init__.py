"""stratakit: exact verification toolkit for degenerate sum-of-squares models.

The package machine-checks the algebra and geometry attached to the model
operator P = X1^2 + X2^2 with X1 = d/dt and X2 = d/dtheta + t^k r d/dr:

* :mod:`stratakit.exactalg`  — the shared exact core (``exact``, ``fmt_fraction``,
  ``SparseTerms``, the one integer-numerator form of ``DiffOp`` and
  ``PhasePoly``), rational series and coefficient engines
* :mod:`stratakit.opalg`     — normal-ordered differential operator algebra
* :mod:`stratakit.localize`  — localizer operators and bracket identities
* :mod:`stratakit.geometry`  — strata, Poisson brackets, Hamilton flows
* :mod:`stratakit.cutoff`    — nested cutoff families and derivative bounds
* :mod:`stratakit.cli`       — verification suites as a command line tool

Everything symbolic is exact (arbitrary-precision rationals; a float given to
an exact layer raises TypeError); floating point appears only in the flow
integrator, in logarithmic bound bookkeeping and in rounded CSV samples.
"""

__version__ = "0.1.0"

__all__ = ["exactalg", "opalg", "localize", "geometry", "cutoff", "cli"]
