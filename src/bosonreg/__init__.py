"""Finite-rank qubit-register model of the quantized harmonic oscillator.

One qubit per site; the single-occupancy keys 2**n serve as oscillator
levels.  The package provides the exact single-site operator algebra, sparse
register states with CNOT/transpose gates and circuits, the bosonic ladder
and observable operators with their gate decompositions, coherent states
with free evolution, and an independent dense-oracle cross-check suite.
"""

from .bosonic import (
    PhysParams,
    RegisterOperator,
    b_lower,
    b_raise,
    bosonic_identity,
    bosonic_projector,
    check_transbosonic,
    circuit_as_operator,
    embed,
    gate_decomposition,
    hamiltonian,
    is_bosonic_state,
    ladder,
    momentum,
    number_state,
    position,
    project,
    register_block,
)
from .checks import (
    CRITERION_NAMES,
    MUTATIONS,
    CriterionResult,
    VerifyConfig,
    run_criteria,
)
from .coherent import (
    CoherentSpec,
    CoherentState,
    Trajectory,
    coherent_series,
    displacement_apply,
    displacement_generator_gateform,
    evolve,
    expectation,
    number_distribution,
    trajectory,
)
from .errors import (
    BosonRegError,
    EnergyScaleError,
    NotBosonicError,
    PhaseOverflowError,
    RankMismatchError,
    RankTooLargeError,
    TruncationRiskError,
    ZeroVectorError,
)
from .fock import FockOperatorSet, build_fock, intertwine_check
from .gates import (
    Circuit,
    CircuitPair,
    CircuitTerm,
    apply_circuit,
    circuit_to_matrix,
    cnot,
    conjugated_cnot_matrix,
    local,
    transpose_theta,
)
from .qubit import (
    PRODUCT_TABLE,
    PhaseTransform,
    ScaledSiteOp,
    SiteOp,
    op_matrix,
    op_product,
    phase_conjugate,
)
from .register import (
    EventuallyPeriodicSequence,
    RegisterState,
    SequenceClass,
    computational_map,
    continuum_map,
)

__version__ = "0.1.0"
