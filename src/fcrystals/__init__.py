"""Exact arithmetic for filtered modules with semilinear Frobenius and
Verschiebung over truncated Witt rings, realizations of explicitly presented
1-motives, and the component-level combinatorics of simplicial Picard data.
"""

from .blocks import (
    AbelianBlock,
    LatticeData,
    TorusData,
    abelian_from_ap,
    lattice_block,
    tate,
    torus_block,
)
from .errors import (
    DomainError,
    FCrystalsError,
    IncompatibleRingsError,
    InternalError,
    InvalidActionError,
    InvalidExtensionDataError,
    InvalidSimplicialError,
    InvalidTraceError,
    MalformedInputError,
    PrecisionError,
    ShapeError,
    SingularFrobeniusError,
    UnsupportedCharacteristicError,
    UnsupportedInputError,
)
from .intmat import smith_normal_form
from .onemotive import (
    MotiveCrystal,
    MotiveReport,
    OneMotiveSpec,
    PairingMatrix,
    assemble,
    cartier_dual,
    dual_witness,
    pair,
    tdr_dimension,
    torsion_height,
    verify_motive,
)
from .semilinear import (
    FilteredFModule,
    SlopeProfile,
    VerifyReport,
    direct_sum,
    newton_slopes,
    tensor,
    twisted_dual,
    verify,
)
from .simplicial import (
    DivisorPresentation,
    H1Ledger,
    PicardSkeleton,
    SimplicialComponents,
    cocharacter_group,
    component_complex,
    div0_lattice,
    h1_weight_ledger,
    picard_skeleton,
)
from .witt import (
    RingParams,
    WittElem,
    default_modulus,
    dp_exp,
    dp_log,
    frobenius,
    frobenius_inverse,
    teichmuller,
    with_precision,
)

__version__ = "0.1.0"
