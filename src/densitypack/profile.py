"""Window profiles and exhaustive verification of the counting arguments.

For a canonical family (a, b, k, m) and an M-avoiding window A containing
0, the upper-bound argument tracks three auxiliary sets, all determined by
A restricted to [0, n2):

  empty_translates  offsets alpha in [1, b-1] whose translate alpha + S
                    misses A entirely ("I");
  band_parts[i]     elements of A strictly inside the i-th inter-gap band
                    (i*a + b, (i+1)*a), for 0 <= i < k ("T_i");
  top_holes         positions of [k*a + (m+1)*b, (k+1)*a + m*b) missing
                    from A ("U").

Two exact counting identities hold for every avoiding window containing 0
(each translate alpha + S is a chain of forbidden differences, so it meets
A at most once, and [0, n1) splits into the b translates, the k bands, and
k landmark positions i*a + b that are themselves forbidden):

    |A intersect [0, n1)| = b - |I| + |T|
    |A intersect [0, n2)| = a - |U| - |I| + |T|

On top of the identities sit three checks, each quantified over every
avoiding window of [0, n2) containing 0:

  * the band-count inequality (k+m)|T| <= (k+m)|I| + k|U|, proved for
    k = 1 or m = 1 and otherwise conjectural (opt in via allow_conjecture,
    a bool read by `as_bool`);
  * a two-branch dichotomy bounding one of the two prefix counts by the
    matching closed-form numerator (requires r >= 1);
  * the short-prefix certificate (Haralambis): if every avoiding window
    containing 0 has |A intersect [0, n)| <= delta*n for some candidate n,
    then mu(M) <= delta.  Candidates here are {n1, n2}.  A counterexample
    window refutes only the certificate attempt, never the bound itself.

All comparisons against rational bounds are exact; windows of length n2
suffice because every quantity above only reads positions below n2
(extending a window rightward never changes its profile, a fact the tests
exercise with randomized extensions).

The exhaustive checks share one enumeration.  `scan_windows` walks a
family's avoiding windows once, in lexicographic order: each chunk that
`oracle.avoiding_mask_chunks` yields becomes one `WindowBatch`, which goes
to every requested check, so the chunk bound is the scan's one bound.
A batch holds int64 masks and arrays derived from them, never Window
objects; a Window is built only for a reported counterexample (and by the
`mappings` harnesses for the rows they re-check one by one).  I is one
int64 bit mask per window, built from the masks by a shift per element of
S.  The counting checks here are array predicates over the batch's |I|,
|T|, |U| and prefix counts; the m = 1 / k = 1 harnesses in `mappings` plug
into the same scan as array filters backed by per-window reference code,
which read their trajectories' offsets from the I masks.  Each
check reports its first failing window, which is its
lexicographically-first counterexample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInput, UnsupportedRegime, WindowTooShort
from .family import (
    CanonicalParams,
    DifferenceSet,
    as_bool,
    as_difference_set,
    as_fraction,
    as_int,
    conjectured_density,
    defect,
    forbidden_differences,
    require_type,
    two_gap_set,
)
from .oracle import DEFAULT_ENUM_CAP, Window, avoiding_mask_chunks, check_enum_length
from .oracle import enumerate_avoiding_windows  # noqa: F401  (bench/tracer.py wraps it here)

__all__ = [
    "Profile",
    "VerificationReport",
    "CertifyResult",
    "profile",
    "check_counting_identities",
    "check_main_inequality",
    "check_dichotomy",
    "haralambis_certify",
    "delta_certificate",
]


@dataclass(frozen=True, slots=True)
class Profile:
    """The auxiliary sets (I, T_0..T_{k-1}, U) of one window."""

    empty_translates: frozenset[int]
    band_parts: tuple[frozenset[int], ...]
    top_holes: frozenset[int]

    @property
    def band_all(self) -> frozenset[int]:
        return frozenset().union(*self.band_parts)

    @property
    def sizes(self) -> tuple[int, int, int]:
        """(|I|, |T|, |U|)."""
        return (
            len(self.empty_translates),
            sum(len(p) for p in self.band_parts),
            len(self.top_holes),
        )


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one exhaustive check over enumerated windows."""

    params: CanonicalParams
    windows_checked: int
    passed: bool
    counterexample: Window | None
    detail: str | None


@dataclass(frozen=True, slots=True)
class CertifyResult:
    """Outcome of a short-prefix certificate attempt for mu(M) <= delta."""

    certified: bool
    windows_checked: int
    counterexample: Window | None


def _span(lo: int, hi: int) -> int:
    """Bitmask of the positions lo <= x < hi."""
    return ((1 << max(hi - lo, 0)) - 1) << lo


def _members(mask: int) -> frozenset[int]:
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


# Every window of a family reads the same masks; build them once per family.
@functools.cache
def _profile_masks(p: CanonicalParams) -> tuple[int, tuple[int, ...], int]:
    """(S, bands, top) as bitmasks: alpha is an empty translate of A iff
    A & (S << alpha) == 0, T_i = A & bands[i], and U = top minus A."""
    s_mask = sum(1 << s for s in two_gap_set(p))
    bands = tuple(_span(i * p.a + p.b + 1, (i + 1) * p.a) for i in range(p.k))
    return s_mask, bands, _span(p.n1, p.n2)


def profile(window: Window, p: CanonicalParams) -> Profile:
    """Compute (I, T_i, U) for an M-avoiding window containing 0.

    The window must cover [0, n2); longer windows are fine, the extra
    positions are never read.
    """
    window = require_type(window, Window, "window")
    return _profile(window, require_type(p, CanonicalParams, "params"))


# The m = 1 / k = 1 checks of one window each ask for its profile in turn.
@functools.lru_cache(maxsize=1)
def _profile(window: Window, p: CanonicalParams) -> Profile:
    if window.length < p.n2:
        raise WindowTooShort(
            f"profile needs window length >= n2 = {p.n2}, got {window.length}"
        )
    mask = window.mask
    s_mask, bands, top = _profile_masks(p)
    return Profile(
        empty_translates=frozenset(
            alpha for alpha in range(1, p.b) if mask & (s_mask << alpha) == 0
        ),
        band_parts=tuple(_members(mask & band) for band in bands),
        top_holes=_members(top & ~mask),
    )


def check_counting_identities(window: Window, p: CanonicalParams) -> bool:
    """Both exact prefix-count identities for one avoiding window with 0."""
    prof = profile(window, p)
    n_i, n_t, n_u = prof.sizes
    return (
        window.count_below(p.n1) == p.b - n_i + n_t
        and window.count_below(p.n2) == p.a - n_u - n_i + n_t
    )


# ──────────────────────────────────────────────────────────────────────────
# one scan over the windows, checks as predicates
# ──────────────────────────────────────────────────────────────────────────


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks, out=np.empty(len(masks), dtype=np.int64))


class WindowBatch:
    """One chunk of a family's avoiding windows of [0, n2) containing 0, as
    `avoiding_mask_chunks` yields it (a lexicographically contiguous run of
    at most `oracle._CHUNK_WINDOWS` int64 masks), with int64 arrays derived
    from them, one entry per window: `i_mask`, I as a bit mask (bit x set
    iff offset x is an empty translate), |I|, |T|, |U| and the prefix counts
    |A intersect [0, n1)|, |A intersect [0, n2)|.  `window` builds the
    Window of one row on demand."""

    __slots__ = ("length", "masks", "i_mask", "n_i", "n_t", "n_u", "below_n1", "below_n2")

    def __init__(self, p: CanonicalParams, masks: np.ndarray):
        _, bands, top = _profile_masks(p)
        self.length = p.n2
        self.masks = masks
        # x + S misses A iff bit x of A >> s is clear for every s in S, and
        # 0 is in S: I is the complement of their union, within [1, b).
        hit = masks.copy()
        for s in two_gap_set(p)[1:]:
            hit |= masks >> s
        np.invert(hit, out=hit)
        hit &= _span(1, p.b)
        self.i_mask = hit
        self.n_i = _popcount(hit)
        self.n_t = _popcount(masks & sum(bands))
        self.n_u = _popcount(~masks & top)
        self.below_n1 = _popcount(masks & _span(0, p.n1))
        self.below_n2 = _popcount(masks)

    def __len__(self) -> int:
        return len(self.masks)

    def window(self, row: int) -> Window:
        """The Window of one row."""
        return Window(self.length, int(self.masks[row]))

    def sizes(self, row: int) -> tuple[int, int, int]:
        """(|I|, |T|, |U|) of one window, as Python ints."""
        return int(self.n_i[row]), int(self.n_t[row]), int(self.n_u[row])


# A window check maps a batch to None, or to (row, detail) for its first
# failing window.
WindowCheck = Callable[[WindowBatch], "tuple[int, str] | None"]


def _first(fails: np.ndarray) -> int | None:
    return int(np.argmax(fails)) if fails.any() else None


def _first_failures(
    M: DifferenceSet, length: int, make_batch: Callable, checks: dict[str, Callable], enum_cap: int
) -> dict[str, tuple[int, Window | None, str | None]]:
    """Run every check over one enumeration of the M-avoiding windows of
    [0, length) containing 0, each chunk of it as make_batch(masks), and
    give each check's (windows_checked, counterexample, detail).

    A check stops at its first failing window: the counterexample is the
    lexicographically-first one and windows_checked is its index + 1.  A
    passing check counts every window.  The scan ends once all have failed.
    """
    failed: dict[str, tuple[int, Window, str | None]] = {}
    total = 0
    for masks in avoiding_mask_chunks(M, length, cap=enum_cap):
        batch = make_batch(masks)
        for name, check in checks.items():
            if name not in failed and (hit := check(batch)) is not None:
                row, detail = hit
                failed[name] = (total + row + 1, Window(length, int(masks[row])), detail)
        total += len(masks)
        if len(failed) == len(checks):
            break
    return {name: failed.get(name, (total, None, None)) for name in checks}


def scan_windows(
    p: CanonicalParams,
    checks: dict[str, WindowCheck],
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> dict[str, VerificationReport]:
    """Run every check over one enumeration of the avoiding windows of
    [0, n2) containing 0, one `WindowBatch` per chunk of the enumeration,
    and report each as `check_main_inequality` does (`_first_failures`).
    """
    found = _first_failures(
        forbidden_differences(p), p.n2, functools.partial(WindowBatch, p), checks, enum_cap
    )
    return {
        name: VerificationReport(p, count, window is None, window, detail)
        for name, (count, window, detail) in found.items()
    }


def _scan_one(p: CanonicalParams, check: WindowCheck, enum_cap: int) -> VerificationReport:
    """The report of one check, from a scan of its own."""
    return scan_windows(p, {"check": check}, enum_cap=enum_cap)["check"]


def identities_check(p: CanonicalParams) -> WindowCheck:
    """Both counting identities, as a window check."""

    def check(batch: WindowBatch):
        n_i, n_t, n_u = batch.n_i, batch.n_t, batch.n_u
        row = _first(
            (batch.below_n1 != p.b - n_i + n_t) | (batch.below_n2 != p.a - n_u - n_i + n_t)
        )
        return None if row is None else (row, "a counting identity failed")

    return check


def main_inequality_check(p: CanonicalParams) -> WindowCheck:
    """(k+m)|T| <= (k+m)|I| + k|U|, as a window check."""
    k, m = p.k, p.m

    def check(batch: WindowBatch):
        row = _first((k + m) * batch.n_t > (k + m) * batch.n_i + k * batch.n_u)
        if row is None:
            return None
        n_i, n_t, n_u = batch.sizes(row)
        lhs, rhs = (k + m) * n_t, (k + m) * n_i + k * n_u
        return row, f"({k}+{m})*{n_t} = {lhs} > {rhs} = ({k}+{m})*{n_i} + {k}*{n_u}"

    return check


def dichotomy_check(p: CanonicalParams) -> WindowCheck:
    """The two-bound dichotomy of `check_dichotomy`, as a window check."""
    d, r = defect(p)
    if r == 0:
        raise InvalidInput("r = 0: the dichotomy is not formulated for zero remainder")
    a, b, k, m = p.a, p.b, p.k, p.m
    if r <= m:
        bound1, bound2 = b + k * d, b + (k + 1) * d
    else:
        bound1, bound2 = a - (m + 1) * (d + 1), a - m * (d + 1)

    def check(batch: WindowBatch):
        first = b - batch.n_i + batch.n_t
        second = first + a - b - batch.n_u
        row = _first((first > bound1) & (second > bound2))
        if row is None:
            return None
        return row, f"both {int(first[row])} > {bound1} and {int(second[row])} > {bound2}"

    return check


def _certificate(candidates: Iterable[int], delta: Fraction, detail: str | None):
    """The short-prefix certificate as a check of a chunk of masks: a
    window fails when its count |A intersect [0, n)| exceeds delta*n at
    every candidate n.

    For an integer count, count*den > num*n iff count > floor(num*n/den);
    a count never exceeds n, so clamping the floor to n keeps it in int64.
    """
    bounds = [(_span(0, n), min(n * delta.numerator // delta.denominator, n)) for n in candidates]

    def check(masks: np.ndarray):
        fails = [_popcount(masks & span) > bound for span, bound in bounds]
        row = _first(np.logical_and.reduce(fails))
        return None if row is None else (row, detail)

    return check


def certificate_check(p: CanonicalParams, delta: Fraction) -> WindowCheck:
    """`delta_certificate` as a window check: a failing window defeats both
    candidates n1 and n2 at `delta`, the family's closed form, which the
    caller has already computed."""
    check = _certificate((p.n1, p.n2), delta, f"window defeats both candidates n1={p.n1}, n2={p.n2}")
    return lambda batch: check(batch.masks)


def _require_proved(p: CanonicalParams, allow_conjecture: bool) -> None:
    """The gate of the library's conjecture-bearing checks: `p` must be
    CanonicalParams, and k, m >= 2 needs allow_conjecture=True (a bool)."""
    require_type(p, CanonicalParams, "params")
    if not as_bool(allow_conjecture, "allow_conjecture") and p.k >= 2 and p.m >= 2:
        raise UnsupportedRegime(
            f"k = {p.k}, m = {p.m}: this check is conjectural there; "
            "pass allow_conjecture=True to probe it anyway"
        )


def check_main_inequality(
    p: CanonicalParams,
    *,
    allow_conjecture: bool = False,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """(k+m)|T| <= (k+m)|I| + k|U| over every avoiding window with 0.

    Proved for k = 1 or m = 1; for k, m >= 2 the run must be requested with
    allow_conjecture=True, and a counterexample would refute only this
    inequality, not any established result.
    """
    _require_proved(p, allow_conjecture)
    return _scan_one(p, main_inequality_check(p), enum_cap)


def check_dichotomy(
    p: CanonicalParams,
    *,
    allow_conjecture: bool = False,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> VerificationReport:
    """Every avoiding window satisfies one of the two prefix-count bounds.

    With d, r from the defect division and r >= 1, either

        b - |I| + |T|       <=  b + k*d        (1 <= r <= m)
                                a - (m+1)*(d+1)  (m+1 <= r <= k+m)
    or
        a - |U| - |I| + |T| <=  b + (k+1)*d    (1 <= r <= m)
                                a - m*(d+1)      (m+1 <= r <= k+m)

    By the counting identities the left sides are the two prefix counts, so
    this is the dichotomy behind the closed-form bound.  r = 0 is rejected:
    no dichotomy is formulated there.
    """
    _require_proved(p, allow_conjecture)
    return _scan_one(p, dichotomy_check(p), enum_cap)


def haralambis_certify(
    distances: DifferenceSet | Iterable[int],
    delta: Fraction | int,
    candidates: Iterable[int],
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> CertifyResult:
    """Certify mu(M) <= delta from short prefixes.

    If every M-avoiding window containing 0 satisfies
    |A intersect [0, n)| <= delta * n for at least one candidate n, then
    mu(M) <= delta (normalize any avoiding set to contain 0; its density is
    bounded by prefix averages).  A window defeating all candidates only
    means the certificate fails at these candidates; it proves nothing
    about mu(M).  The returned counterexample is the first one in the
    lexicographic enumeration order.

    Comparisons are exact: count * delta.den <= delta.num * n.  Candidates
    that are not positive integers (each is read by `as_int`, so a bool or
    a float is refused, never truncated), a `delta` that is not a positive
    Fraction or integer (read by `as_fraction`) and an `enum_cap` below 1
    are InvalidInput; a largest candidate above `enum_cap` is ResourceLimit.
    """
    M = as_difference_set(distances)
    try:
        cand = sorted({as_int(n, "candidate") for n in candidates})
    except (TypeError, InvalidInput):
        cand = []  # not integers: reported with the other bad candidate lists
    if not cand or cand[0] < 1:
        raise InvalidInput(f"candidates must be positive integers, got {candidates!r}")
    if (delta := as_fraction(delta, "delta")) <= 0:
        raise InvalidInput(f"delta must be a positive Fraction, got {delta!r}")
    check_enum_length(cand[-1], enum_cap)  # before the span masks, which grow with it
    checks = {"certificate": _certificate(cand, delta, None)}
    found = _first_failures(M, cand[-1], lambda masks: masks, checks, enum_cap)["certificate"]
    count, window, _ = found
    return CertifyResult(certified=window is None, windows_checked=count, counterexample=window)


def delta_certificate(p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP) -> CertifyResult:
    """haralambis_certify at the family's own delta with candidates {n1, n2}."""
    delta = conjectured_density(p).delta
    return haralambis_certify(forbidden_differences(p), delta, (p.n1, p.n2), enum_cap=enum_cap)
