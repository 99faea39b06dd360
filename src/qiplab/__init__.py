"""Toolkit for simulating and optimizing small interactive proof protocols
with unentangled (measure-and-prepare) provers.
"""

from .errors import (
    BudgetError,
    ConditioningError,
    ContractError,
    DecompositionError,
    LayoutError,
    NumericsError,
    QipLabError,
    ResolutionError,
    ValidationError,
)
from .qmath import (
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    born_probability,
    hermitian_eig,
    partial_transpose,
)
from .channels import (
    ChoiMatrix,
    EbChannel,
    KrausChannel,
    adjoint_apply,
    apply_kraus,
    check_eb_ppt,
    choi,
    eb_from_separable_choi,
)
from .protocol import (
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    MeasurementFamily,
    ProtocolSpec,
    RawUnentangledStrategy,
    acceptance_probability,
    canonicalize_prover,
    chsh_protocol,
    joint_response_operators,
    postselected_acceptance,
    public_coin_protocol,
    run_interaction,
    verifier_message_distribution,
)

__version__ = "0.1.0"
