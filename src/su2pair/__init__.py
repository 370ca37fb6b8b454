"""Two-qubit SU(2)xSU(2) Hamiltonian toolkit.

Closed-form eigensystems (separable and constrained-entangled cases),
quartic secular equations, pure-state concurrence, and thermal sweeps of
the partition function, purity and concurrence, all verified against a
dense numerical oracle, plus the Bernal-stacked bilayer graphene
specialization.
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
    concurrence_grid,
    default_grid,
    find_dirac_point,
    map_to_su2su2,
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
)
from .oracle import (
    SpectralDecomposition,
    eig_hermitian,
    wootters_concurrence,
)
from .pauli import pauli, pauli_word
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
    thermal_concurrence,
    thermal_report,
    thermal_state,
    thermal_sweep,
)

# The public names, one group per module; tests/test_surface.py pins them.
__all__ = [
    # entanglement
    "BlochPair", "bloch_vectors", "concurrence_closed_form_arrays",
    "eigenstate_bloch_closed_form", "eigenstate_concurrence_closed_form",
    "pure_concurrence",
    # errors
    "ConcurrenceDomainError", "ConstraintError", "DegenerateBranchError",
    "DensityMatrixError", "FactorizationError", "InputFormatError",
    "InvariantViolation", "NonHermitianError",
    # graphene
    "GrapheneParams", "GridSpec", "band_grid", "concurrence_grid",
    "default_grid", "find_dirac_point", "map_to_su2su2",
    "thermal_death_temperature",
    # hamiltonian
    "Branch", "CaseKind", "Classification", "CoefficientSet",
    "DerivedCoefficients", "classify", "derive", "derive_arrays",
    "fano_compose", "fano_decompose", "rotate_set",
    # oracle
    "SpectralDecomposition", "eig_hermitian", "wootters_concurrence",
    # pauli
    "pauli", "pauli_word",
    # quartic
    "solve_quartic",
    # solver
    "Eigensystem", "SolveMethod", "Su2Factor", "factor_dyadic",
    "secular_coefficients", "solve", "solve_entangled", "solve_separable",
    # thermo
    "EnsembleBranch", "ThermalConcurrenceResult", "ThermalReport",
    "thermal_concurrence", "thermal_report", "thermal_state",
    "thermal_sweep",
]

__version__ = "0.1.0"
