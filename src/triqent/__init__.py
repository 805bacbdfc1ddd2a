"""triqent: entanglement measures, canonical forms and classification
for three-qubit quantum states, pure and mixed."""

from .classify import (
    Certificate,
    MixedVerdict,
    PureClassification,
    SubtypeLabel,
    classify_mixed,
    classify_pure,
)
from .errors import (
    AmbiguousNearThresholdError,
    MixedStateUnsupportedError,
    NoConvergenceError,
    NoOracleError,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    NumericalDegeneracyError,
    ParamOutOfDomainError,
    QubitNotPresentError,
    StateFileError,
    StateTypeError,
    TriqentError,
    WrongDimensionError,
)
from .families import (
    FAMILIES,
    SWEEPABLE,
    FamilySpec,
    SweepRow,
    default_grid,
    ghz,
    ghz_like,
    ghz_noise,
    ghz_w_mix,
    make_state,
    oracle,
    rho_epsilon,
    rho_zero,
    sigma_b,
    sweep,
    w_canonical,
    w_prime,
    w_state,
)
from .gsd import GsdForm, GsdPattern, classify_gsd_pattern, from_gsd_coefficients, gsd
from .linalg import svd_2x2
from .measures import (
    MeasureSet,
    additive_measure,
    concurrence_2q,
    eta3_multiplicative,
    measure_set,
    negativity,
    q_multiplicative,
    three_tangle,
    tripartite_negativity,
    von_neumann_entropy,
)
from .states import (
    QUBITS,
    DensityMatrix,
    PureState,
    apply_local_unitary,
    partial_trace,
    partial_transpose,
    sample_haar_pure,
    sample_hs_mixed,
    to_density,
    transpose_qubit,
)

__version__ = "0.1.0"
