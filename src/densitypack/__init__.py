"""Exact packing densities of two-gap difference families.

A two-gap family S(a, b, k, m) forbids the differences {i*a + j*b} with
0 <= i <= k, 0 <= j <= m, not both zero.  This package computes the exact
optimal density mu(M) of sets avoiding such difference sets (maximum mean
cycle over the avoidance automaton, with an independent periodic-set
search as a cross check), evaluates the closed-form candidate density
delta, and machine-checks every counting step of the matching upper-bound
argument in the regimes where it is a theorem.
"""

import os as _os
import sys as _sys

# When numpy loads, OpenBLAS starts a worker thread per extra core, and each
# spins for about 0.1 s before it sleeps.  The package calls no BLAS routine
# (tests/test_source.py checks that), so numpy loads with a one-thread pool,
# unless the caller imported numpy first or set OPENBLAS_NUM_THREADS.  The
# variable is removed again, so os.environ and child processes are untouched.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

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
    check_k1_machinery,
    check_m1_machinery,
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
    "CertifyResult",
    "Profile",
    "VerificationReport",
    "check_counting_identities",
    "check_dichotomy",
    "check_main_inequality",
    "delta_certificate",
    "haralambis_certify",
    "profile",
    "check_k1_machinery",
    "check_m1_machinery",
    "verify_k1_mapping",
    "verify_m1_inequality",
    "__version__",
]
