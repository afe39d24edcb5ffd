"""Universal adjacency spectra of power graphs on Z_n, D_n and Q_n.

The package builds (proper) power graphs and their complements for the
cyclic, dihedral and dicyclic families, decomposes them as joins of
blocks of disjoint cliques over the cyclic-subgroup poset, and computes the
spectrum of U = alpha*A + beta*D + gamma*I + eta*J both structurally
(block eigenpairs plus a quotient matrix) and by brute force, with
closed-form evaluators as a third cross-check.
"""

from .closedforms import (
    cyclic_prime_power_spectrum,
    cyclic_two_prime_case2_charpoly,
    cyclic_two_prime_complement_eta0,
    cyclic_two_prime_quotient,
    dicyclic_repeated_eigenvalue,
    dihedral_prime_power_proper,
    quaternion8_complement_spectrum,
)
from .groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    complement_graph,
    cyclic_subgroup,
    delete_identity,
    edge_lines,
    element_label,
    mul,
    power_graph_oracle,
)
from .joinstruct import (
    JoinBlock,
    JoinStructure,
    StructureValidationError,
    Variant,
    build_join,
    divisor_graph,
    validate_structure,
    variant_graph,
)
from .numtheory import (
    divisors,
    factorize,
    is_prime,
    prime_power,
    totient,
)
from .spectra import (
    PRESETS,
    Basis,
    Eigenspace,
    Spectrum,
    UndefinedUniversalMatrixError,
    UniversalParams,
    VerificationReport,
    charpoly_exact,
    charpoly_roots,
    complement_params,
    dense_eigen,
    hjoin_spectrum,
    integer_form,
    multiset_gap,
    normalized_laplacian_charpoly_at,
    quotient_matrix,
    sample_params,
    universal_matrix,
    verify_eigenpairs,
)

__version__ = "0.1.0"
