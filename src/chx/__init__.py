"""Exact Dirichlet characters over Z, L(1, chi) evaluation by several
routes, character-sum maxima, and extremal-family searches."""

from .character import (
    DirichletCharacter,
    RootOfUnity,
    all_characters,
    character_from_components,
    character_from_id,
    character_from_index,
    kronecker_character,
    order_k_characters,
    order_witness,
    principal_character,
    product_character,
    psi_q,
)
from .charsum import (
    BridgeRecord,
    HalfSumCheck,
    MsumRecord,
    bridge_bounds,
    half_sum_check,
    max_partial_sum,
)
from .errors import ConstraintError, ResourceError
from .families import (
    CensusRecord,
    OrderKFamilySpec,
    PigeonholeResult,
    PipelineResult,
    QuadTwistSpec,
    SignatureDiscriminants,
    TwistedFamily,
    TwistedMember,
    count_fundamental_discriminants,
    extremal_pipeline,
    family_size,
    generate_family,
    pigeonhole_search,
    pigeonhole_with_retry,
    psi_tilde,
    random_l1_baseline,
    signature_discriminants,
    signature_of,
    twisted_family,
)
from .lfunction import (
    LValue,
    PrimeSumSpec,
    digamma_weights,
    gauss_sum,
    l1_afe,
    l1_exact,
    l1_exact_batch,
    l1_series_oracle,
    l1_truncated_euler,
    prime_sum,
)
from .moments import (
    MomentRecord,
    MomentSpec,
    QuadFamilySpec,
    b_coefficient,
    b_identity_check,
    b_product_inequality_check,
    diagonal_terms,
    empirical_moment,
)
from .ntheory import (
    Factorization,
    PrimeTable,
    factor,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    sieve_primes,
    smallest_primitive_root,
    squarefree_mask,
)
from .report import (
    REFERENCE_CONSTANTS,
    EvalRecord,
    RunManifest,
    canonical_json,
    evaluate_character,
)
from .verify import SUITE_NAMES, CheckResult, SuiteResult, run_suites

__version__ = "0.1.0"
