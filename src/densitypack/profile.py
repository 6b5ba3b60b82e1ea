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
    k = 1 or m = 1 and otherwise conjectural (opt in via allow_conjecture);
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
family's avoiding windows once, in lexicographic order and in bounded
batches (`WindowBatch`), and hands every batch to each requested check.
A batch holds int64 masks and arrays derived from them, never Window
objects; a Window is built only for a reported counterexample (and by the
`mappings` harnesses for the rows they re-check one by one).  The counting
checks here are array predicates over the batch's |I|, |T|, |U| and
prefix counts; the m = 1 / k = 1 harnesses in `mappings` plug into the
same scan as array filters backed by per-window reference code.  Each
check reports its first failing window, which is its
lexicographically-first counterexample.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidInput, UnsupportedRegime, WindowTooShort
from .family import (
    CanonicalParams,
    DifferenceSet,
    as_difference_set,
    conjectured_density,
    defect,
    forbidden_differences,
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
        out: frozenset[int] = frozenset()
        for part in self.band_parts:
            out |= part
        return out

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


# The m = 1 / k = 1 checks of one window each ask for its profile in turn.
@functools.lru_cache(maxsize=1)
def profile(window: Window, p: CanonicalParams) -> Profile:
    """Compute (I, T_i, U) for an M-avoiding window containing 0.

    The window must cover [0, n2); longer windows are fine, the extra
    positions are never read.
    """
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
    return np.bitwise_count(masks).astype(np.int64)


# Windows per WindowBatch: bounds the arrays a scan holds at once.
_BATCH_WINDOWS = 1 << 16


class WindowBatch:
    """A lexicographically contiguous run of a family's avoiding windows of
    [0, n2) containing 0, as int64 masks only, with arrays derived from
    them: per window |I|, |T|, |U| and the prefix counts
    |A intersect [0, n1)|, |A intersect [0, n2)| (int64, one entry per
    window), and `in_i[x]`, the bool row of windows for which offset x is an
    empty translate (`in_i[0]` is all False: 0 is never in I).  `window`
    builds the Window of one row on demand."""

    __slots__ = ("length", "masks", "in_i", "n_i", "n_t", "n_u", "below_n1", "below_n2")

    def __init__(self, p: CanonicalParams, masks: np.ndarray):
        s_mask, bands, top = _profile_masks(p)
        self.length = p.n2
        self.masks = masks
        self.in_i = np.zeros((p.b, len(masks)), dtype=bool)
        for alpha in range(1, p.b):
            self.in_i[alpha] = (masks & (s_mask << alpha)) == 0
        self.n_i = self.in_i.sum(axis=0, dtype=np.int64)
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


def _window_batches(p: CanonicalParams, enum_cap: int) -> Iterator[WindowBatch]:
    """The family's avoiding windows of [0, n2) containing 0, from one
    enumeration, in batches of at most _BATCH_WINDOWS masks."""
    for masks in avoiding_mask_chunks(forbidden_differences(p), p.n2, cap=enum_cap):
        for start in range(0, len(masks), _BATCH_WINDOWS):
            yield WindowBatch(p, masks[start : start + _BATCH_WINDOWS])


def scan_windows(
    p: CanonicalParams,
    checks: dict[str, WindowCheck],
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> dict[str, VerificationReport]:
    """Run every check over one enumeration of the avoiding windows of
    [0, n2) containing 0, and report each as `check_main_inequality` does.

    A check stops at its first failing window: the counterexample is the
    lexicographically-first one and windows_checked is its index + 1.  A
    passing check counts every window.  The scan ends once all have failed.
    """
    failed: dict[str, tuple[int, Window, str]] = {}
    total = 0
    for batch in _window_batches(p, enum_cap):
        for name, check in checks.items():
            if name not in failed and (hit := check(batch)) is not None:
                row, detail = hit
                failed[name] = (total + row + 1, batch.window(row), detail)
        total += len(batch)
        if len(failed) == len(checks):
            break
    reports = {}
    for name in checks:
        count, window, detail = failed.get(name, (total, None, None))
        reports[name] = VerificationReport(
            params=p,
            windows_checked=count,
            passed=window is None,
            counterexample=window,
            detail=detail,
        )
    return reports


def _scan_one(p: CanonicalParams, check: WindowCheck, enum_cap: int) -> VerificationReport:
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


def _defeats_all(masks: np.ndarray, candidates: list[int], delta: Fraction) -> np.ndarray:
    """Which windows have |A intersect [0, n)| > delta*n at every candidate n.

    For an integer count, count*den > num*n iff count > floor(num*n/den);
    a count never exceeds n, so clamping the floor to n keeps it in int64.
    """
    defeated = np.ones(len(masks), dtype=bool)
    for n in candidates:
        bound = min(n * delta.numerator // delta.denominator, n)
        defeated &= _popcount(masks & _span(0, n)) > bound
    return defeated


def certificate_check(p: CanonicalParams) -> WindowCheck:
    """`delta_certificate` as a window check: a failing window defeats both
    candidates n1 and n2 at the family's delta."""
    delta = conjectured_density(p).delta
    candidates = sorted({p.n1, p.n2})
    detail = f"window defeats both candidates n1={p.n1}, n2={p.n2}"

    def check(batch: WindowBatch):
        row = _first(_defeats_all(batch.masks, candidates, delta))
        return None if row is None else (row, detail)

    return check


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
    if p.k >= 2 and p.m >= 2 and not allow_conjecture:
        raise UnsupportedRegime(
            f"k = {p.k}, m = {p.m}: the inequality is conjectural there; "
            "pass allow_conjecture=True to probe it anyway"
        )
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
    if p.k >= 2 and p.m >= 2 and not allow_conjecture:
        raise UnsupportedRegime(
            f"k = {p.k}, m = {p.m}: conjectural regime; pass allow_conjecture=True"
        )
    return _scan_one(p, dichotomy_check(p), enum_cap)


def haralambis_certify(
    distances: DifferenceSet | Iterable[int],
    delta: Fraction,
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
    that are not positive integers (a float is not truncated) and an
    `enum_cap` below 1 are InvalidInput; a largest candidate above
    `enum_cap` is ResourceLimit.
    """
    M = as_difference_set(distances)
    try:
        cand = sorted({operator.index(n) for n in candidates})
    except TypeError:
        cand = []  # not integers: reported with the other bad candidate lists
    if not cand or cand[0] < 1:
        raise InvalidInput(f"candidates must be positive integers, got {candidates!r}")
    if not isinstance(delta, Fraction) or delta <= 0:
        raise InvalidInput(f"delta must be a positive Fraction, got {delta!r}")
    length = cand[-1]
    check_enum_length(length, enum_cap)
    count = 0
    for masks in avoiding_mask_chunks(M, length, cap=enum_cap):
        row = _first(_defeats_all(masks, cand, delta))
        if row is not None:
            return CertifyResult(
                certified=False,
                windows_checked=count + row + 1,
                counterexample=Window(length, int(masks[row])),
            )
        count += len(masks)
    return CertifyResult(certified=True, windows_checked=count, counterexample=None)


def delta_certificate(p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP) -> CertifyResult:
    """haralambis_certify at the family's own delta with candidates {n1, n2}."""
    breakdown = conjectured_density(p)
    return haralambis_certify(
        forbidden_differences(p), breakdown.delta, (p.n1, p.n2), enum_cap=enum_cap
    )
