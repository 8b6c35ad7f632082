"""Exact models of the two half-spin representations of so(2n).

Two constructions of the same pair of 2**(n-1)-dimensional modules:

- the shape model (`diagram`, `quiver`, `spinrep`): basis states are
  strict partitions with a sign, operators move boxes and rows;
- the wedge model (`clifford`): an exterior algebra on n generators with
  creation/annihilation operators and the full Clifford algebra.

`oracle` proves, by exact rational linear algebra at small rank, that the
two models agree operator by operator; `cli` exposes everything on the
command line.  All arithmetic is exact: a coefficient is stored as an int
when it is integral and as a fractions.Fraction only when it is not
(`spinrep.exact`), and there is not a single floating-point tolerance in
the package.
"""

from .diagram import (
    Sign,
    enumerate_diagrams,
    enumerate_diagrams_by_boxes,
    conjugate,
    endpoints,
    fock_index,
)
from .quiver import (
    RankContext,
    StringInterval,
    string_dim_vector,
    a_sets,
    dim_vector,
    weight_u,
    state_u,
)
from .spinrep import (
    SpinVector,
    apply_E,
    apply_F,
    apply_H,
    kappa,
    geometric_a,
    geometric_b,
    weight_eps,
)
from .clifford import (
    FockVector,
    CliffordElement,
    create,
    annihilate,
    act,
    embed_generator,
    fock_weight,
    phi,
)
from .oracle import (
    ExactMatrix,
    IndexedBasis,
    spin_basis,
    fock_basis,
    operator_matrix,
    run_suites,
    all_pass,
    SUITES,
    SUITE_NAMES,
    check_dinfty,
)

__version__ = "0.1.0"
