"""specgap: universal upper bounds on the next eigenvalue of a spectrum,
plus the finite-dimensional machinery to verify the inequalities behind them.

The public surface mirrors the module layout:

* :mod:`specgap.couples`    admissible weight couples (f, g);
* :mod:`specgap.bounds`     the bound registry and solver kernels;
* :mod:`specgap.abstract`   commutator inequality verification on matrices;
* :mod:`specgap.operators`  box spectra and finite-difference operators;
* :mod:`specgap.eigensolve` dense and ARPACK symmetric eigensolvers;
* :mod:`specgap.cli`        the batch command line front end.
"""

from .bounds import (
    REGISTRY,
    SpectrumPrefix,
    chain_compare,
    check_general_poly,
    compute_bound,
    registry_names,
    verify_margins,
)
from .couples import (
    FunctionCouple,
    check_membership,
    check_necessary_differentiable,
)
from .abstract import (
    OperatorTriple,
    moment_inequality_check,
    random_instance,
    verify_corollary,
    verify_theorem,
)
from .operators import (
    box_spectrum,
    fd_clamped_plate,
    fd_laplacian,
    kohn_fd,
)

__version__ = "0.1.0"
