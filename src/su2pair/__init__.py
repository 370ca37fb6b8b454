"""Two-qubit SU(2)xSU(2) Hamiltonian toolkit.

Closed-form eigensystems (separable and constrained-entangled cases),
quartic secular equations, pure-state and thermal concurrence, partition
functions and purity, all verified against a dense numerical oracle, plus
the Bernal-stacked bilayer graphene specialization.
"""

from .entanglement import (
    BlochPair,
    bloch_vectors,
    concurrence_closed_form_arrays,
    eigenstate_bloch_closed_form,
    eigenstate_concurrence_closed_form,
    pure_concurrence,
)
from .errors import (
    CaseReductionError,
    ConcurrenceDomainError,
    ConstraintError,
    DegenerateBranchError,
    DensityMatrixError,
    FactorizationError,
    InputFormatError,
    InvariantViolation,
    NonHermitianError,
)
from .graphene import (
    GrapheneParams,
    GridSpec,
    band_grid,
    build_ab_hamiltonian,
    concurrence_grid,
    default_grid,
    find_dirac_point,
    map_to_su2su2,
    structure_factor,
    thermal_concurrence_curve,
    thermal_death_temperature,
)
from .hamiltonian import (
    Branch,
    CaseKind,
    Classification,
    CoefficientSet,
    DerivedCoefficients,
    classify,
    derive,
    derive_arrays,
    fano_compose,
    fano_decompose,
    rotate_set,
    traceless,
)
from .oracle import (
    SpectralDecomposition,
    eig_hermitian,
    mat_func,
    von_neumann_entropy,
    wootters_concurrence,
)
from .pauli import kron, partial_trace, pauli, pauli_word
from .quartic import solve_quartic
from .solver import (
    Eigensystem,
    SolveMethod,
    Su2Factor,
    factor_dyadic,
    secular_coefficients,
    solve,
    solve_entangled,
    solve_separable,
)
from .thermo import (
    EnsembleBranch,
    ThermalConcurrenceResult,
    ThermalReport,
    partition_entangled,
    partition_separable,
    purity,
    thermal_concurrence,
    thermal_report,
    thermal_state,
    thermal_state_from_eigensystem,
    thermal_sweep,
)

__version__ = "0.1.0"
