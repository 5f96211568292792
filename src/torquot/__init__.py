"""Exact rational-homotopy invariants of linear torus actions on sphere products."""

from .actions import (
    CircleActionSpheres,
    NormalizedActionS3,
    TorusActionS3,
    circle_euler_data,
    differential_rows,
    is_effective,
    is_free,
    is_free_circle,
    normalize,
)
from .cdga import (
    FreeCDGA,
    Generator,
    HomotopyProfile,
    Monomial,
    Polynomial,
    check_elliptic_constraints,
    chi_pi,
)
from .classify import (
    ClassificationResult,
    SphereFactorization,
    canonical_quotient_model,
    classify_s1_quotient,
    classify_t2_quotient,
    enumerate_profiles,
    epsilon_invariant,
    lemma64_substitution,
    max_almost_free_rank,
    max_effective_rank,
    profile_to_models,
    quotient_model,
    slice_invariants,
    square_class_isomorphic,
)
from .cli import cli_main
from .errors import (
    ClassificationViolation,
    FreenessViolation,
    InputFormatError,
    PreconditionError,
)
from .exact import (
    det2,
    is_rational_square,
    unimodular_complement,
)
from .harness import (
    CampaignReport,
    GridSpec,
    run_profile_campaign,
    run_t2_campaign,
)
from .quadforms import BinaryQuadraticForm

__version__ = "0.1.0"
