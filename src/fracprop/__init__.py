"""fracprop: band-limited spectral multiplier operators exp(i*beta*|xi|^alpha).

Evolution of sampled signals, verification of the defining scale-doubling and
group identities, and recovery of (alpha, beta) from sampled radial symbols.
"""

from .errors import (
    BandConfigError,
    BranchInconsistencyError,
    DegenerateSymbolError,
    DomainError,
    FracpropError,
    GridMismatchError,
    IdentificationError,
    InconsistentPairError,
    InsufficientDataError,
    InvalidInputError,
    ModelMismatchError,
    SymbolRangeError,
    UnwrapResolutionError,
)
from .grids import (
    BandSpec,
    SampledSignal,
    SpatialGrid,
    Spectrum,
    band_project,
    forward_transform,
    gaussian_packet,
    inner_product,
    inverse_transform,
    load_signal_csv,
    random_band_signal,
    save_signal_csv,
)
from .symbols import (
    ClosedForm,
    ContinuityReport,
    Tabulated,
    band_sup_distance,
    continuity_modulus,
    dilate,
    evaluate,
    load_symbol_csv,
    save_symbol_csv,
    tabulate,
)
from .operators import (
    apply,
    conjugated_apply,
    dilate_signal,
    probe_operator_distance,
    translate,
)
from .semistability import (
    SemistabilityReport,
    SemistablePair,
    canonical_pair,
    check_order,
    check_semistable,
)
from .identification import (
    IdentificationResult,
    branch_integers,
    identify,
    unwrap_phase,
)
from .exponents import PhaseTerm, ProductVerdict, classify_product, sample_oracle
from .groups import GroupSpec, check_group_law, check_scaling, member, recover_beta
from .verify import run_verification

__version__ = "0.1.0"
