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
    CHAIN,
    EUCLIDEAN,
    HEISENBERG,
    REGISTRY,
    BoundResult,
    SpectrumPrefix,
    chain_compare,
    check_general_poly,
    compute_bound,
    kohn_constant_c1,
    kohn_constant_c2,
    margin_at,
    registry_names,
    solve_largest_root_bound,
    solve_monotone_bound,
    solve_quadratic_bound,
    verify_margins,
)
from .couples import (
    FunctionCouple,
    MembershipReport,
    check_membership,
    check_necessary_differentiable,
    evaluate,
    parse_couple_spec,
)
from .abstract import (
    OperatorTriple,
    TheoremReport,
    commutator,
    moment_inequality_check,
    random_instance,
    verify_corollary,
    verify_theorem,
)
from .operators import (
    DiscreteOperator,
    KohnOperator,
    box_spectrum,
    fd_clamped_plate,
    fd_laplacian,
    kohn_fd,
    operator_power_spectrum,
)
from .eigensolve import EigResult, dense_symmetric_eig, smallest_eigs

__version__ = "0.1.0"
