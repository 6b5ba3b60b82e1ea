"""Exception hierarchy shared across the package.

Each class carries its CLI exit code and stderr label: InvalidInput (and its
subclasses) exit 2, ResourceLimit exits 3, InternalError exits 4, and a
LemmaViolation or any failed verification exits 1.
"""

from __future__ import annotations


class DensityPackError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1
    label = "error"


class InvalidInput(DensityPackError):
    """Malformed or out-of-domain arguments (exit code 2)."""

    exit_code = 2


class WindowTooShort(InvalidInput):
    """A window shorter than the span the operation needs to inspect."""


class NotInBand(InvalidInput):
    """An element that is not in any inter-gap band of the given window."""


class UnsupportedRegime(InvalidInput):
    """Operation restricted to k = 1 or m = 1; caller must opt in elsewhere."""


class ResourceLimit(DensityPackError):
    """A configured state/window/enumeration cap would be exceeded (exit 3)."""

    exit_code = 3


class InternalError(DensityPackError):
    """A computed result failed its own check: a bug, not bad input (exit 4).

    Raised instead of `assert` so that the check survives `python -O`.
    """

    exit_code = 4
    label = "internal error"


class LemmaViolation(DensityPackError):
    """A machine-checked counting argument failed on a concrete window.

    These are first-class, test-visible errors: `check` names the violated
    property (e.g. "image-outside-holes", "degree-bound", "witness-missing")
    and `detail` pins down the offending element or pair so a failure is
    reproducible from the message alone.
    """

    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}")
