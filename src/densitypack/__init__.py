"""Exact packing densities of two-gap difference families.

A two-gap family S(a, b, k, m) forbids the differences {i*a + j*b} with
0 <= i <= k, 0 <= j <= m, not both zero.  This package computes the exact
optimal density mu(M) of sets avoiding such difference sets (maximum mean
cycle over the avoidance automaton, with an independent periodic-set
search as a cross check), evaluates the closed-form candidate density
delta, and machine-checks every counting step of the matching upper-bound
argument in the regimes where it is a theorem.
"""

from .errors import (
    DensityPackError,
    InternalError,
    InvalidInput,
    LemmaViolation,
    NotInBand,
    ResourceLimit,
    UnsupportedRegime,
    WindowTooShort,
)
from .family import (
    CanonicalParams,
    DensityBreakdown,
    DifferenceSet,
    RawParams,
    as_difference_set,
    canonicalize,
    conjectured_density,
    defect,
    difference_set_of,
    forbidden_differences,
    has_averaging_slack,
    two_gap_set,
)
from .oracle import (
    ExactDensity,
    PeriodicSet,
    Window,
    best_periodic_density,
    check_periodic_avoiding,
    enumerate_avoiding_windows,
    mu_exact,
    window_avoids,
)
from .profile import (
    CertifyResult,
    Profile,
    VerificationReport,
    check_counting_identities,
    check_dichotomy,
    check_main_inequality,
    delta_certificate,
    haralambis_certify,
    profile,
)
from .mappings import (
    ChainPartition,
    GapDecomposition,
    ImageAssignment,
    Trajectory,
    build_chain_partition,
    check_k1_machinery,
    check_m1_machinery,
    gap_decompose,
    image_pair,
    k1_image,
    k1_trajectory,
    m1_trajectory,
    verify_k1_mapping,
    verify_m1_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "DensityPackError",
    "InternalError",
    "InvalidInput",
    "LemmaViolation",
    "NotInBand",
    "ResourceLimit",
    "UnsupportedRegime",
    "WindowTooShort",
    "CanonicalParams",
    "DensityBreakdown",
    "DifferenceSet",
    "RawParams",
    "as_difference_set",
    "canonicalize",
    "conjectured_density",
    "defect",
    "difference_set_of",
    "forbidden_differences",
    "has_averaging_slack",
    "two_gap_set",
    "ExactDensity",
    "PeriodicSet",
    "Window",
    "best_periodic_density",
    "check_periodic_avoiding",
    "enumerate_avoiding_windows",
    "mu_exact",
    "window_avoids",
    "CertifyResult",
    "Profile",
    "VerificationReport",
    "check_counting_identities",
    "check_dichotomy",
    "check_main_inequality",
    "delta_certificate",
    "haralambis_certify",
    "profile",
    "ChainPartition",
    "GapDecomposition",
    "ImageAssignment",
    "Trajectory",
    "build_chain_partition",
    "check_k1_machinery",
    "check_m1_machinery",
    "gap_decompose",
    "image_pair",
    "k1_image",
    "k1_trajectory",
    "m1_trajectory",
    "verify_k1_mapping",
    "verify_m1_inequality",
    "__version__",
]
