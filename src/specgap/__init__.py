"""specgap: universal upper bounds on the next eigenvalue of a spectrum,
plus the finite-dimensional machinery to verify the inequalities behind them.

The package root exports nothing but ``__version__``, so that importing it
loads no numpy; import from the modules:

* :mod:`specgap.couples`    admissible weight couples (f, g);
* :mod:`specgap.bounds`     the bound registry and solver kernels;
* :mod:`specgap.abstract`   commutator inequality verification on matrices;
* :mod:`specgap.operators`  spectrum prefixes, box spectra and
                            finite-difference operators;
* :mod:`specgap.eigensolve` dense and ARPACK symmetric eigensolvers;
* :mod:`specgap.cli`        the batch command line front end, which imports
                            each module only in the commands that run it.
"""

__version__ = "0.1.0"
