"""The three exception classes of the package, and what catches each one.

* SpecgapError: base of every error raised on purpose.  ``cli.main``
  catches it and exits with code 2, so a caller never has to catch bare
  exceptions from third-party code.
* InputError (also a ValueError): an argument violates a documented
  precondition (domain, shape, range, a malformed spec or file, a couple
  that fails admissibility where it is required).  Nothing in the package
  catches it; it reaches the caller, or exit code 2.
* ConvergenceError: an eigensolver route, or the Laplacian's closed form,
  refused its eigenpairs (no convergence, a residual above tolerance, or an
  inertia count that could not show that ARPACK skipped no eigenvalue,
  above the dense cap), or the package ran out of memory building an
  operator or computing its eigenpairs.  It reaches the caller, or exit
  code 2.
"""


class SpecgapError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpecgapError, ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class ConvergenceError(SpecgapError):
    """An eigensolver did not converge, exceeded its residual tolerance, may
    have skipped an eigenvalue, or ran out of memory; or building an
    operator ran out of memory."""
