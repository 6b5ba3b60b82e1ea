"""Two-gap set families: parameters, difference sets, closed-form density.

A two-gap set with parameters (a, b, k, m), all positive, is

    S = {0, a, 2a, ..., ka, ka + b, ka + 2b, ..., ka + mb},

i.e. k gaps of length a followed by m gaps of length b.  Packing translates
of S at maximal density is equivalent to finding the maximal density mu(M)
of an integer set that avoids the positive differences

    M = {i*a + j*b : 0 <= i <= k, 0 <= j <= m, i + j > 0}.

All densities are exact rationals (fractions.Fraction); nothing here ever
rounds.  Parameters are canonicalized before any formula applies: divide
out g = gcd(a, b) (scaling M by g scales positions, not density) and, if
a < b, reflect the set, which swaps (a, k) with (b, m).  Canonical thus
means gcd(a, b) = 1 and a >= b.

The closed-form candidate density is driven by the Euclidean division

    a - b = d*(k + m + 1) + r,    0 <= r <= k + m,

together with the two window lengths

    n1 = k*a + (m+1)*b,    n2 = (k+1)*a + m*b:

    delta = (b + k*d) / n1         if 0 <= r <= m      (r = 0: ZeroDefect,
    delta = (a - m*(d+1)) / n2     if m+1 <= r <= k+m    else LowRemainder)

When r = 0 the first branch collapses to 1/(k+m+1) because then
n1 = (k+m+1)*(b + k*d); this is checked at construction.  The two cases
are glued by exact cross-identities, also checked at construction (a
failure raises InternalError):

    (b + k*d)*n2 - (b + (k+1)*d)*n1 = b*r
    (a - m*(d+1))*n1 - (a - (m+1)*(d+1))*n2 = a*(k+m+1-r)

The value delta is the true optimum when r = 0 (trivial) and when k = 1 or
m = 1 (theorem); for k, m >= 2 with r >= 1 it is conjectural, and the
oracle can only confirm it instance by instance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import InternalError, InvalidInput

__all__ = [
    "RawParams",
    "CanonicalParams",
    "DifferenceSet",
    "DensityBreakdown",
    "as_difference_set",
    "as_int",
    "as_positive_int",
    "as_bool",
    "as_fraction",
    "canonicalize",
    "two_gap_set",
    "forbidden_differences",
    "defect",
    "conjectured_density",
    "has_averaging_slack",
    "require_type",
]


def as_int(value, name: str) -> int:
    """`value` as a Python int: anything `operator.index` accepts, such as a
    numpy int, except a bool.  A bool, a float, a Fraction or a string is
    InvalidInput, never truncated or parsed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def as_positive_int(value, name: str) -> int:
    """`value` read by `as_int`; below 1 it is InvalidInput."""
    value = as_int(value, name)
    if value < 1:
        raise InvalidInput(f"{name} must be >= 1, got {value}")
    return value


def as_bool(value, name: str) -> bool:
    """`value` as a Python bool: a bool or a numpy bool.  Anything else,
    an int or None included, is InvalidInput, never read for its truth."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise InvalidInput(f"{name} must be a bool, got {value!r}")


def as_fraction(value, name: str) -> Fraction:
    """`value` as a Fraction: a Fraction, or an integer read by `as_int`.  A
    bool, a float or a string is InvalidInput, never rounded or parsed."""
    try:
        return value if isinstance(value, Fraction) else Fraction(as_int(value, name))
    except InvalidInput:
        raise InvalidInput(f"{name} must be a Fraction or an integer, got {value!r}") from None


def require_type(value, kinds: type | tuple[type, ...], name: str):
    """`value` itself when it is an instance of `kinds`; anything else is
    InvalidInput, where reading its fields would raise AttributeError."""
    if not isinstance(value, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        raise InvalidInput(
            f"{name} must be a {' or '.join(k.__name__ for k in kinds)}, got {value!r}"
        )
    return value


def _store_positive_ints(obj, names: tuple[str, ...]) -> None:
    """Read each named field of a frozen dataclass with `as_positive_int`
    and store the Python int back."""
    for name in names:
        object.__setattr__(obj, name, as_positive_int(getattr(obj, name), name))


@dataclass(frozen=True, slots=True)
class RawParams:
    """User-supplied family parameters, before canonicalization, each read
    by `as_positive_int`."""

    a: int
    b: int
    k: int
    m: int

    def __post_init__(self):
        _store_positive_ints(self, ("a", "b", "k", "m"))


@dataclass(frozen=True, slots=True)
class CanonicalParams:
    """Parameters with gcd(a, b) = 1 and a >= b.

    `g` is the gcd divided out of the raw pair and `swapped` records whether
    the reflection (a, k) <-> (b, m) was applied.  The five integers are
    read by `as_positive_int` and `swapped` by `as_bool`.
    Only `canonicalize` should normally construct these.
    """

    a: int
    b: int
    k: int
    m: int
    g: int = 1
    swapped: bool = False

    def __post_init__(self):
        _store_positive_ints(self, ("a", "b", "k", "m", "g"))
        object.__setattr__(self, "swapped", as_bool(self.swapped, "swapped"))
        if self.a < self.b:
            raise InvalidInput(f"canonical params need a >= b, got a={self.a} < b={self.b}")
        if math.gcd(self.a, self.b) != 1:
            raise InvalidInput(f"canonical params need gcd(a, b) = 1, got ({self.a}, {self.b})")

    @property
    def n1(self) -> int:
        return self.k * self.a + (self.m + 1) * self.b

    @property
    def n2(self) -> int:
        return (self.k + 1) * self.a + self.m * self.b

    @property
    def weight(self) -> int:
        """Largest forbidden difference, k*a + m*b."""
        return self.k * self.a + self.m * self.b


@dataclass(frozen=True, slots=True)
class DifferenceSet:
    """A finite set of forbidden positive differences, strictly increasing
    Python ints (`as_difference_set` reads other integer types into one).
    Any iterable of them is stored as a tuple."""

    elements: tuple[int, ...]

    def __post_init__(self):
        try:
            e = tuple(self.elements)
        except TypeError:
            raise InvalidInput(f"differences must be iterable, got {self.elements!r}") from None
        if not e:
            raise InvalidInput("difference set must be nonempty")
        ints = all(isinstance(d, int) and not isinstance(d, bool) for d in e)
        if not ints or sorted(set(e)) != list(e) or e[0] < 1:
            raise InvalidInput(f"differences must be positive and strictly increasing, got {e}")
        object.__setattr__(self, "elements", e)

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def as_difference_set(distances: DifferenceSet | Iterable[int]) -> DifferenceSet:
    """Coerce an iterable of integer distances into a validated DifferenceSet.

    Each value is read by `as_int`: a numpy int is accepted, and a bool, a
    float, a Fraction or a string is InvalidInput.
    """
    if isinstance(distances, DifferenceSet):
        return distances
    try:
        elems = sorted({as_int(d, "distance") for d in distances})
    except (TypeError, InvalidInput) as exc:
        raise InvalidInput(f"cannot read distances from {distances!r}") from exc
    return DifferenceSet(tuple(elems))


@dataclass(frozen=True, slots=True)
class DensityBreakdown:
    """The closed-form density of a canonical family, with its provenance.

    case_tag is "ZeroDefect" (r = 0), "LowRemainder" (1 <= r <= m) or
    "HighRemainder" (m+1 <= r <= k+m); theorem_status is "ProvedTrivial",
    "ProvedTheorem" (k = 1 or m = 1) or "Conjectured".
    """

    d: int
    r: int
    n1: int
    n2: int
    case_tag: str
    delta: Fraction
    theorem_status: str


def canonicalize(p: RawParams) -> CanonicalParams:
    """Divide out gcd(a, b), then reflect so that a >= b.

    Both transforms preserve the packing density: scaling all of M by g
    scales an optimal avoiding set the same way, and reflecting S reverses
    signs of differences, leaving the set of |differences| unchanged.
    """
    require_type(p, RawParams, "params")
    g = math.gcd(p.a, p.b)
    a, b, k, m = p.a // g, p.b // g, p.k, p.m
    swapped = a < b
    if swapped:
        a, b, k, m = b, a, m, k
    return CanonicalParams(a=a, b=b, k=k, m=m, g=g, swapped=swapped)


def two_gap_set(p: CanonicalParams) -> tuple[int, ...]:
    """The k+m+1 elements of S = {0, a, ..., ka, ka+b, ..., ka+mb}."""
    require_type(p, CanonicalParams, "params")
    head = [i * p.a for i in range(p.k + 1)]
    tail = [p.k * p.a + j * p.b for j in range(1, p.m + 1)]
    return tuple(head + tail)


def forbidden_differences(p: CanonicalParams | RawParams) -> DifferenceSet:
    """M = {i*a + j*b : 0 <= i <= k, 0 <= j <= m, i + j > 0}.

    Raw parameters give the family's own differences, before the gcd is
    divided out or the reflection applied.
    """
    require_type(p, (CanonicalParams, RawParams), "params")
    out = {
        i * p.a + j * p.b
        for i in range(p.k + 1)
        for j in range(p.m + 1)
        if i + j > 0
    }
    return DifferenceSet(tuple(sorted(out)))


def defect(p: CanonicalParams) -> tuple[int, int]:
    """Euclidean division a - b = d*(k+m+1) + r with 0 <= r <= k+m."""
    require_type(p, CanonicalParams, "params")
    return divmod(p.a - p.b, p.k + p.m + 1)


def conjectured_density(p: CanonicalParams) -> DensityBreakdown:
    """Closed-form candidate density delta of a canonical family.

    Only valid for canonical parameters: with gcd(a, b) = g > 1 the same
    formula applied to the unscaled pair gives a wrong answer (positions
    scale by g but density does not).
    """
    require_type(p, CanonicalParams, "params")
    a, b, k, m = p.a, p.b, p.k, p.m
    d, r = defect(p)
    n1, n2 = p.n1, p.n2

    # Exact glue between the two branches; failure here is an arithmetic bug.
    if (b + k * d) * n2 - (b + (k + 1) * d) * n1 != b * r:
        raise InternalError(f"first branch-glue identity fails for {p}")
    if (a - m * (d + 1)) * n1 - (a - (m + 1) * (d + 1)) * n2 != a * (k + m + 1 - r):
        raise InternalError(f"second branch-glue identity fails for {p}")

    if r <= m:
        delta = Fraction(b + k * d, n1)
        case = "ZeroDefect" if r == 0 else "LowRemainder"
        if r == 0 and (n1 != (k + m + 1) * (b + k * d) or delta != Fraction(1, k + m + 1)):
            raise InternalError(f"r = 0 does not collapse delta to 1/(k+m+1) for {p}")
    else:
        delta = Fraction(a - m * (d + 1), n2)
        case = "HighRemainder"

    if r == 0:
        status = "ProvedTrivial"
    elif k == 1 or m == 1:
        status = "ProvedTheorem"
    else:
        status = "Conjectured"

    if not 0 < delta <= 1:
        raise InternalError(f"delta = {delta} outside (0, 1] for {p}")
    return DensityBreakdown(
        d=d, r=r, n1=n1, n2=n2, case_tag=case, delta=delta, theorem_status=status
    )


def has_averaging_slack(k: int, m: int, r: int) -> bool:
    """Whether the two-window averaging bound closes with strict slack.

    For 1 <= r <= m the condition is k + m > k*r; for m+1 <= r <= k+m it is
    k + m > m*(k+m+1-r).  It holds for every admissible r when k = 1 or
    m = 1.  r = 0 is rejected: that case is settled directly and the
    condition is not formulated for it.  k, m and r are read by `as_int`.
    """
    k, m, r = as_int(k, "k"), as_int(m, "m"), as_int(r, "r")
    if k < 1 or m < 1:
        raise InvalidInput(f"k and m must be positive, got k={k}, m={m}")
    if r == 0:
        raise InvalidInput("r = 0 has no averaging condition; it is settled directly")
    if not 1 <= r <= k + m:
        raise InvalidInput(f"r must lie in [1, k+m] = [1, {k + m}], got {r}")
    if r <= m:
        return k + m > k * r
    return k + m > m * (k + m + 1 - r)
