"""Exact optimal-density oracle for difference-avoiding integer sets.

Given a finite set M of forbidden positive differences, mu(M) is the
maximal (upper) density of a set A of integers with (A - A) disjoint from
M.  This module computes mu(M) exactly by the standard reduction to a
maximum mean cycle:

  * vertices are the M-avoiding 0/1 windows of length L = max(M), as
    keys whose bit L-1 is the oldest position and bit 0 the newest;
  * appending a position leads from key k to (k << 1) mod 2**L, plus 1 for
    a set position, allowed iff key bit d-1 is clear for every d in M; so
    k's predecessors are among k >> 1 and k >> 1 | 2**(L-1);
  * edge weight is the appended bit.

Every periodic avoiding set walks a cycle of this graph with mean equal to
its density, and conversely any cycle unrolls into a periodic avoiding set,
so mu(M) is the maximum cycle mean.  The graph is strongly connected (the
all-zero window reaches and is reached by every state), every state has an
out-edge (appending 0) and an in-edge, and the optimum is a fraction with
denominator at most the state count.

One solver path computes it, in int64 numpy arrays throughout: the graph is
built level by level in key order, each edge read off the last level by
position, a value p/q is proposed, and a longest-walk potential for the
reweighted graph w' = q*w - p certifies it.  The potential converging, and
satisfying every edge, proves mu <= p/q; a cycle of its tight edges proves
mu >= p/q and is the periodic witness.  A caller that already holds a
likely value (the closed form delta) passes it as the candidate, which is
certified first.  Without one, the first proposal is the best cycle mean of
the greedy policy that appends 1 wherever allowed: a real cycle's mean, so
a lower bound, and nearly always mu itself.  A potential that diverges
finds cycles of strict raises, real cycles with means above the value, and
the best of those means is the next proposal (cycle improvement, as in
Dasdan 2004); a caller's candidate with no tight cycle is above mu and
gives way to the greedy proposal.  Every way, the same value is proved on
the same graph, so the witness is the same.

The path solves a batch of graphs at once (`mu_exact_many`, which `sweep`
uses): the graphs are laid end to end as segments of one union graph, each
with its own value, so one potential, one edge check and one tight-cycle
search serve them all.  `mu_exact` is a batch of one, on the graph's own
arrays.

A second, entirely independent route -- exhaustive search over periodic sets
of bounded period -- lives in `best_periodic_density` and exists to
cross-examine the mean-cycle answer in tests.

Window enumeration (`avoiding_mask_chunks`) shares the graph build's
level-by-level construction and yields int64 masks in bounded chunks, in
lexicographic order; `enumerate_avoiding_windows` wraps it as Windows.

Resource guards: max(M) must stay within a window cap (default 22), the
admissible-state count within a state cap (default 2**22, set only by the
DENSITYPACK_MAX_STATES environment variable; the graph build checks each
level's size against it before allocating the level), and window enumeration
length within an enumeration cap (default 49).  Masks are int64, so no
window may be longer than 63 positions.  Exceeding any raises
ResourceLimit; a cap below 1 would refuse everything and is InvalidInput.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalError, InvalidInput, ResourceLimit
from .family import (
    DifferenceSet,
    _store_positive_ints,
    as_bool,
    as_difference_set,
    as_fraction,
    as_int,
    require_type,
)

__all__ = [
    "Window",
    "PeriodicSet",
    "ExactDensity",
    "DEFAULT_WINDOW_CAP",
    "DEFAULT_ENUM_CAP",
    "DEFAULT_STATE_CAP",
    "STATE_CAP_ENV",
    "check_enum_length",
    "mu_exact",
    "mu_exact_many",
    "best_periodic_density",
    "check_periodic_avoiding",
    "enumerate_avoiding_windows",
]

DEFAULT_WINDOW_CAP = 22
# The largest n2 at which every proved family's `verify --level full` ran
# within 60 s on a 2-vCPU machine; the README has the measurements.
DEFAULT_ENUM_CAP = 49
DEFAULT_STATE_CAP = 1 << 22
STATE_CAP_ENV = "DENSITYPACK_MAX_STATES"
# For a union of N states a potential stays below (N + 2*log2 N)*den, with
# den at most the largest segment's state count, so under 2**61 while N is
# at most this limit: the solver's int64 arithmetic cannot overflow.  A
# union is one graph within it, or a batch within _BATCH_STATES.
_INT64_STATE_LIMIT = 1 << 30
# A batch of `mu_exact_many` closes before its union would pass this many
# states; a graph this large is a batch of its own.
_BATCH_STATES = 1 << 12
# Window masks are int64, so positions 0..62.
_MASK_BITS = 63
# Largest mask array `avoiding_mask_chunks` yields.  Each chunk is also one
# `profile.WindowBatch`, so this is the one bound on a window scan's memory.
_CHUNK_WINDOWS = 1 << 16


@dataclass(frozen=True, slots=True)
class Window:
    """A finite 0/1 window over positions [0, length).  Bit i <=> i in the set.
    Both fields are read by `as_int` and stored as Python ints; `x in window`
    reads x by `as_int` too, so a bool or a non-integer is never in it."""

    length: int
    mask: int

    def __post_init__(self):
        _store_positive_ints(self, ("length",))
        object.__setattr__(self, "mask", as_int(self.mask, "mask"))
        if self.mask < 0 or self.mask >> self.length:
            raise InvalidInput("window mask has bits outside [0, length)")

    @classmethod
    def from_members(cls, length: int, members: Iterable[int]) -> "Window":
        """The window of `length` whose set positions are `members`, each
        read by `as_int` before its range is checked."""
        length, mask = as_int(length, "length"), 0
        try:
            members = iter(members)
        except TypeError:
            raise InvalidInput(f"cannot read members from {members!r}") from None
        for x in members:
            x = as_int(x, "member")
            if not 0 <= x < length:
                raise InvalidInput(f"member {x} outside [0, {length})")
            mask |= 1 << x
        return cls(length, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if self.mask >> i & 1)

    def __contains__(self, x: object) -> bool:
        try:
            x = as_int(x, "position")
        except InvalidInput:
            return False
        return 0 <= x < self.length and bool(self.mask >> x & 1)

    def count_below(self, n: int) -> int:
        """|A intersect [0, n)|, n read by `as_int`; a prefix n <= 0 counts 0."""
        n = min(max(as_int(n, "prefix length"), 0), self.length)
        return (self.mask & ((1 << n) - 1)).bit_count()

    def __repr__(self) -> str:  # keep pytest failure output readable
        return f"Window({self.length}, {{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True, slots=True)
class PeriodicSet:
    """The periodic set {x + t*period : x in residues, t in Z}.  The period
    and each residue are read by `as_int` and stored as Python ints."""

    period: int
    residues: tuple[int, ...]

    def __post_init__(self):
        _store_positive_ints(self, ("period",))
        try:
            residues = tuple(as_int(x, "residue") for x in self.residues)
        except TypeError:
            raise InvalidInput(f"cannot read residues from {self.residues!r}") from None
        increasing = sorted(set(residues)) == list(residues)
        if not increasing or not all(0 <= x < self.period for x in residues):
            raise InvalidInput(
                f"residues must be strictly increasing in [0, period), got {self.residues}"
            )
        object.__setattr__(self, "residues", residues)

    def density(self) -> Fraction:
        return Fraction(len(self.residues), self.period)


@dataclass(frozen=True, slots=True)
class ExactDensity:
    """mu(M) with a periodic witness attaining it."""

    value: Fraction
    witness: PeriodicSet
    states_explored: int
    method: str


def check_periodic_avoiding(s: PeriodicSet, distances: DifferenceSet | Iterable[int]) -> bool:
    """Whether the periodic set avoids every difference in M (checked mod period)."""
    M = as_difference_set(distances)
    residues = set(require_type(s, PeriodicSet, "periodic set").residues)
    for d in M:
        dm = d % s.period
        if any((x + dm) % s.period in residues for x in residues):
            return False
    return True


def _check_mask_bits(n: int) -> None:
    if n > _MASK_BITS:
        raise ResourceLimit(f"window length {n} exceeds the {_MASK_BITS} bits of an int64 mask")


def check_enum_length(n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise what enumerating the windows of length n under `cap` would
    raise before it starts: InvalidInput when n or the cap is not an
    integer (read by `as_int`) or is below 1, ResourceLimit above the cap
    or the 63 bits of an int64 mask."""
    n, cap = as_int(n, "window length"), as_int(cap, "enumeration cap")
    if n < 1:
        raise InvalidInput(f"window length must be >= 1, got {n}")
    if cap < 1:
        raise InvalidInput(f"enumeration cap must be >= 1, got {cap}")
    if n > cap:
        raise ResourceLimit(f"window length {n} exceeds enumeration cap {cap}")
    _check_mask_bits(n)


def _extend(states: np.ndarray, t: int, with_t: np.ndarray) -> np.ndarray:
    """One level of windows: each entry is followed by itself with bit t set
    where `with_t` allows it (excluding a position sorts first).  The
    enumeration sets position t; the graph build shifts its keys left and
    sets bit 0, the newest position.  The (entry, extension) pairs and their
    keep-mask fill preallocated (n, 2) arrays, row-major, so reading the
    kept entries gives that order."""
    n = len(states)
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:, 0] = states
    pairs[:, 1] = states | (1 << t)
    keep = np.empty((n, 2), dtype=bool)
    keep[:, 0] = True
    keep[:, 1] = with_t
    return pairs[keep]


def avoiding_mask_chunks(
    distances: DifferenceSet | Iterable[int],
    n: int,
    require_zero: bool = True,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[np.ndarray]:
    """Every M-avoiding bitmask over [0, n), as int64 arrays of at most
    _CHUNK_WINDOWS masks each.

    Concatenated, the arrays hold each mask once, in lexicographic order of
    the bit string b_0 b_1 ... b_{n-1} (excluding a position sorts first),
    so the first failing row of a check is its lexicographically-first
    counterexample.  Prefixes are extended one position per level; a run
    longer than the chunk is split in two and the halves are finished one
    after the other, so memory stays within about n chunks whatever the
    total count.  `require_zero` is read by `as_bool`.
    """
    M = as_difference_set(distances)
    check_enum_length(n, cap)
    # conflicts[t]: the earlier positions t - d that forbid setting position t.
    conflicts = [sum(1 << (t - d) for d in M if d <= t) for t in range(n)]
    start = int(as_bool(require_zero, "require_zero"))
    todo = [(start, np.array([start], dtype=np.int64))]  # (next position, prefixes)
    while todo:
        t, states = todo.pop()
        if len(states) > _CHUNK_WINDOWS:
            half = len(states) // 2
            todo += [(t, states[half:]), (t, states[:half])]
        elif t == n:
            yield states
        else:
            todo.append((t + 1, _extend(states, t, (states & conflicts[t]) == 0)))


def enumerate_avoiding_windows(
    distances: DifferenceSet | Iterable[int],
    n: int,
    require_zero: bool = True,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[Window]:
    """Yield every M-avoiding window over [0, n), each exactly once.

    Order is lexicographic by bit pattern, so reported counterexamples are
    reproducible minima.  n is limited by `cap` because the count grows
    exponentially.
    """
    for masks in avoiding_mask_chunks(distances, n, require_zero, cap=cap):
        for mask in masks.tolist():
            yield Window(n, mask)


# ──────────────────────────────────────────────────────────────────────────
# mean-cycle oracle
# ──────────────────────────────────────────────────────────────────────────


def _state_cap() -> int:
    """The state cap: the environment, else the default.  A cap below 1
    would refuse every graph, so it is invalid input."""
    if (env := os.environ.get(STATE_CAP_ENV)) is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(env)
    except ValueError as exc:
        raise InvalidInput(f"{STATE_CAP_ENV} must be an integer, got {env!r}") from exc
    if cap < 1:
        raise InvalidInput(f"{STATE_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_state_count(count: int, cap: int) -> None:
    if count > cap:
        raise ResourceLimit(
            f"admissible state count exceeds cap {cap} "
            f"(set {STATE_CAP_ENV} to raise it)"
        )
    if count > _INT64_STATE_LIMIT:
        raise ResourceLimit(
            f"admissible state count exceeds {_INT64_STATE_LIMIT}, "
            "beyond which the solvers' int64 arithmetic could overflow"
        )


def _build_state_graph(M: DifferenceSet, cap: int):
    """Avoiding windows of length L = max(M) and their shift edges.

    Returns (keys, succ0, succ1, first, last).  Built newest bit last, the
    keys increase, in the window order of `avoiding_mask_chunks` (state 0 is
    the all-zero window).  Appending a 0 moves state i to succ0[i], and
    appending a 1 moves it to succ1[i], or succ1[i] = -1 when that would
    create a difference in M.  v's in-edges come from first[v], keys[v] >> 1,
    and last[v], the same with the oldest bit set where that window exists
    and v's newest bit is 0, else first[v] again: as L is in M, a window
    whose oldest position is set cannot append a 1.  Each level's size is
    checked against the cap before the level is allocated, so a refused
    graph never holds more windows than the cap.
    """
    # Every edge is read off the last level.  Let P be the p keys before it,
    # w its `with_t`, top = 2**(L-1) and C = sum of 2**(L-1-d) for d in M
    # below L.  (A) keys[:p] == P: a window whose oldest position is empty
    # avoids M exactly when its newer positions do.  (B) keys[p:] == top |
    # P[ok], ok = (P & C) == 0.  P[i] extended by 0 lands at c0[i] = i + (ones
    # of w before i), by 1 right after, so shifting out the oldest position
    # gives succ0 = c0 followed by c0[ok], and succ1 = succ0 + 1 where a 1
    # may be appended.  first[v] is the P[i] that v extends, state i by (A),
    # and last[v] the top-half state whose succ0 is v.  succ0, succ1 and
    # first are checked against the keys by checks that -O keeps.
    L = M.max_element
    _check_mask_bits(L)
    # Key bit d - 1 lies at distance d from the next position appended.
    # Position t conflicts only with such bits below t; a full window's
    # next position conflicts with them all.
    conflicts = sum(1 << (d - 1) for d in M)
    # No position below min(M) has a conflict, so the first t0 levels hold
    # every window; the loop still runs once, for the last level's with_t.
    t0 = min(M.elements[0], L - 1)
    _check_state_count(1 << t0, cap)
    keys = np.arange(1 << t0, dtype=np.int64)
    for t in range(t0, L):
        with_t = (keys & (conflicts & ((1 << t) - 1))) == 0
        _check_state_count(len(keys) + int(np.count_nonzero(with_t)), cap)
        keys <<= 1
        keys = _extend(keys, 0, with_t)

    p, n = len(with_t), len(keys)
    # Allocated before any temporary, so that none leaves a hole below
    # them; each is scratch until filled.  mode="wrap": see `_potential`.
    succ0, succ1, first, last = (np.empty(n, dtype=np.int64) for _ in range(4))
    c0 = succ0[:p]  # the exclusive cumsum of 1 + w
    np.copyto(c0, with_t)
    c0 += 1
    np.cumsum(c0, out=c0)
    c0 -= 1
    c0 -= with_t
    del with_t
    np.bitwise_and(keys[:p], sum(1 << (L - 1 - d) for d in M if d < L), out=last[:p])
    np.compress(last[:p] == 0, c0, out=succ0[p:])
    np.left_shift(keys, 1, out=first)
    first &= (1 << L) - 1
    if (np.take(keys, succ0, out=last, mode="wrap") != first).any():
        raise InternalError("a window's 0-edge does not lead to its shift")
    first |= 1
    can_append = np.bitwise_and(keys, conflicts, out=last) == 0
    succ1.fill(-1)
    np.add(succ0, 1, out=succ1, where=can_append)
    if ((np.take(keys, succ1, out=last, mode="wrap") != first) & can_append).any():
        raise InternalError("a window's 1-edge does not lead to its shift")
    del can_append
    # first[v] + 1 counts the windows up to v whose newest position is empty.
    np.bitwise_and(keys, 1, out=first)
    first ^= 1
    np.cumsum(first, out=first)
    first -= 1
    # keys[first] == keys >> 1 iff (keys[first] << 1) ^ keys is 0 or 1.
    np.take(keys, first, out=last, mode="wrap")
    last <<= 1
    last ^= keys
    last >>= 1
    if last.any():
        raise InternalError("a window has no shift predecessor")
    np.copyto(last, first)
    last[succ0[p:]] = np.arange(p, n)
    return keys, succ0, succ1, first, last


def _cycle_mean(put_step, bits, land, buf, on_cycle):
    """The cycles of a functional graph that are not fixed points, as three
    int64 arrays, one entry per cycle: its least state, its weight (the sum
    of bits[v] & 1 over its states v) and its length; all empty when every
    cycle is a fixed point.  `put_step(out)` writes the graph's step into
    the int64 array out, before and after land is squared, so a caller that
    can rebuild the step need not hold it.  land and buf (int64) and
    on_cycle (bool), of the state count, are scratch; beside them it
    allocates only arrays of the c states on cycles that are not fixed
    points.

    Pointer doubling in two phases, each stopping once done.  First land,
    the step, is squared, land = step^(2^r), alternating with buf, until
    its image stops shrinking.  The images are nested, as step^(2^(r+1))
    maps through step^(2^r).  Once one, S, is as large as the one before,
    step^(2^r) maps S onto itself, so it permutes S and S holds only cycle
    states; each cycle state is the image of the state 2^r steps behind
    it, so S holds them all, and the stop is exact.  The fixed points are
    unmarked, and the c states left are numbered by a `cumsum` rank.  On
    them low[u], the least rank among u and its next 2^r - 1 successors, is
    squared until it stops changing: then low[u] <= low[step^(2^r) u]
    around every orbit, so low is constant on it; the orbit's runs of 2^r
    steps cover u's cycle, so low[u] is the cycle's least rank.  Each
    cycle's length and weight are tallied over those labels.
    """
    put_step(land)
    hop, spare, count = land, buf, len(land)
    while True:
        on_cycle.fill(False)
        on_cycle[hop] = True
        count, before = np.count_nonzero(on_cycle), count
        if count == before:
            break
        np.take(hop, hop, out=spare, mode="wrap")
        hop, spare = spare, hop
    # land takes the step again, and buf v - step[v], which is 0 at the
    # fixed points, then the ranks (a cumsum of bools would allocate a
    # cast copy).
    put_step(land)
    buf.fill(1)
    np.cumsum(buf, out=buf)
    buf -= 1
    buf -= land
    np.logical_and(on_cycle, buf, out=on_cycle)
    np.copyto(buf, on_cycle)
    np.cumsum(buf, out=buf)
    buf -= 1
    hop, ones = buf[land[on_cycle]], (bits[on_cycle] & 1) == 1
    low, buf = np.arange(len(hop)), np.empty(len(hop), dtype=np.int64)
    while True:
        np.take(low, hop, out=buf, mode="wrap")
        if not (buf < low).any():
            break
        np.minimum(low, buf, out=low)
        np.take(hop, hop, out=buf, mode="wrap")
        hop, buf = buf, hop
    del hop, buf
    length = np.bincount(low)
    total, least = np.bincount(low[ones], minlength=len(length)), np.flatnonzero(length)
    return np.flatnonzero(on_cycle)[least], total[least], length[least]


def _greedy_cycle_mean(succ0, succ1) -> Fraction:
    """The best cycle mean of the greedy policy, which appends 1 wherever
    allowed: the mean of a real cycle, so at most mu, and in practice
    nearly always mu itself.

    The policy is the functional graph max(succ0, succ1), as succ1 is
    succ0 + 1 or -1, and state u's edge appends the bit succ1[u] >= 0.  It
    has no fixed points, so `_cycle_mean` sees all its cycles: state 0 can
    always append a 1, and the all-ones window, the only other state that
    could lead to itself, is a state only when M = {L}, where it cannot
    append one.  Beside the graph it holds two int64 arrays and two bool
    arrays of the state count.
    """
    n = len(succ0)
    scratch = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
    _, total, length = _cycle_mean(
        lambda out: np.maximum(succ0, succ1, out=out), succ1 >= 0, *scratch
    )
    return max(map(Fraction, total.tolist(), length.tolist()))


def _potential(keys, first, last, values, offsets) -> np.ndarray | list:
    """The longest-walk potential of a union of graphs, segment j (states
    offsets[j] to offsets[j + 1]) for w' = den*w - num with values[j] =
    num/den: the fixpoint of pi <- max(pi, relax(pi)) from 0, which exists
    exactly when no cycle has positive w'-weight, i.e. when mu <= value on
    every segment.  Each state v is relaxed over its in-edges from first[v]
    and last[v] (`_build_state_graph`), both weighted by its newest bit,
    keys[v] & 1, and no edge leaves a segment, so each segment's pi is the
    one its graph alone would reach.  The caller checks every out-edge
    against the result, so the certificate stays sound whatever is relaxed
    here.

    Beside the graph it holds four int64 arrays of the state count, pi, the
    weights w2 and the two gathers pi[first] and pi[last], and one bool
    array of raises; every pass reuses them.  The gathers use mode="wrap",
    as the default mode="raise" buffers its output; first and last are in
    range.

    A value below mu makes pi diverge.  After the first log2 n passes, each
    raised state remembers the in-edge of its last strict raise, in `pred`,
    allocated then with one more bool array; a state not raised since then
    is a fixed point of `pred`.  Every log2 n passes `_cycle_mean` reads
    the cycles of `pred` that are not fixed points, weighing each state by
    its newest bit, in the two gathers and the raises, which are free until
    the next pass, so nothing of the state count is released or allocated
    for it.  A cycle of those edges has positive w'-weight: each raise on
    it used a value of its source no larger than the current one, and the
    raise that followed the cycle's latest raise used a strictly smaller
    one.  So each is a real cycle of its segment's graph with mean above
    that segment's value.  Once there is one, a list is returned in place
    of pi: the best such mean of each segment, or None for a segment with
    no cycle.  No cycle of raises is a fixed point, so none is missed: a
    strict raise of v uses the in-edge from first[v] or from last[v], and
    neither is v.  first[v] == v only for a segment's state 0, the all-zero
    key, whose edge to itself has weight w' = -num < 0 and so never
    strictly raises it: when pi[first] >= pi[last] state 0 is not raised at
    all, and otherwise its raise uses last[0], the key with only its oldest
    bit set.  last[v] == v never holds: last[v] differs from first[v] only
    where v's newest bit is 0, and there it is the top-half key (key >> 1)
    | top, which equals v's key only when that is all ones, whose newest
    bit is 1.  While those edges form no cycle they form a forest whose
    roots, the fixed points, have not been raised since tracking began, so
    every potential is at most (n + log2 n)*den after a check, den the
    largest of the values' denominators, and grows by at most den per pass
    until the next one: a potential that diverges must close a cycle, and
    one past that bound without a cycle is InternalError.
    """
    n = len(keys)
    w2 = keys & 1
    for start, stop, value in zip(offsets, offsets[1:], values):
        w2[start:stop] *= value.denominator
        w2[start:stop] -= value.numerator
    den = max(value.denominator for value in values)
    rounds = n.bit_length()

    pi = np.zeros(n, dtype=np.int64)
    pi_first, pi_last = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    raised = np.empty(n, dtype=bool)
    pred = from_first = None
    for step in itertools.count(1):
        np.take(pi, first, out=pi_first, mode="wrap")
        np.take(pi, last, out=pi_last, mode="wrap")
        # Most potentials settle within a few passes, so raises are tracked
        # only after the first `rounds`; the cycle argument holds for the
        # raises of any run of consecutive passes.
        tracking = step > rounds
        if tracking:
            if pred is None:
                pred = np.arange(n)  # a fixed point: not raised since tracking began
                from_first = np.empty(n, dtype=bool)
            np.greater_equal(pi_first, pi_last, out=from_first)
        best = np.maximum(pi_first, pi_last, out=pi_first)
        best += w2
        np.greater(best, pi, out=raised)
        if not raised.any():
            return pi
        np.maximum(pi, best, out=pi)
        if tracking:
            # pi_last is free again: it holds each state's better in-edge.
            np.copyto(pi_last, last)
            np.copyto(pi_last, first, where=from_first)
            np.copyto(pred, pi_last, where=raised)
            if step % rounds == 0:
                # The gathers and the raises are free until the next pass.
                least, total, length = _cycle_mean(
                    lambda out: np.copyto(out, pred), keys, pi_first, pi_last, raised
                )
                if len(least):
                    means = [None] * len(values)
                    segment = np.searchsorted(offsets, least, side="right") - 1
                    for j, mean in zip(segment.tolist(), map(Fraction, total.tolist(), length.tolist())):
                        means[j] = mean if means[j] is None else max(means[j], mean)
                    return means
                if pi.max() > (n + rounds) * den:
                    raise InternalError(
                        f"potential for {', '.join(map(str, values))} "
                        "passed its bound without a cycle"
                    )


def _tight_cycle(keys, succ0, succ1, pi, values, offsets) -> list:
    """Certify that mu = values[j] on each segment j of a union (states
    offsets[j] to offsets[j + 1]) and return, for each, an optimal cycle's
    appended bits, or None when that segment has no such cycle: its value
    is above its mu.

    With w' = den*w - num the claim is that the maximum cycle mean becomes
    0.  `pi` is the converged longest-walk potential of `_potential`, so no
    cycle has positive w'-weight, and pi[u] + w' <= pi[v] on every edge,
    which is checked explicitly on the out-edges succ0 and succ1, found
    apart from the in-edges `_potential` relaxed: this proves mu <= value.
    Every cycle of tight edges (pi[u] + w' = pi[v]) telescopes to w'-weight
    0, so the first one a depth-first search meets attains value: that
    proves mu >= value and is the witness, read as each state's newest bit,
    keys[v] & 1.  No edge leaves a segment, so each segment's search starts
    from its own first state and the edge check runs on the whole union.

    Beside the graph and pi it holds one int64 array of the state count,
    the slack of one edge kind at a time, and the two bool arrays of tight
    edges.
    """
    segments = list(zip(offsets, offsets[1:], values))
    slack = pi[succ0]
    slack -= pi
    for start, stop, value in segments:
        slack[start:stop] += value.numerator
    if slack.min() < 0:
        raise InternalError("potential violates an edge")
    tight0 = slack == 0
    # succ1 = -1 (no edge) gathers pi[n - 1]; its slack is set to 1, which
    # is neither violated nor tight.
    np.take(pi, succ1, out=slack, mode="wrap")
    slack -= pi
    for start, stop, value in segments:
        slack[start:stop] += value.numerator - value.denominator
    np.copyto(slack, 1, where=succ1 < 0)
    if slack.min() < 0:
        raise InternalError("potential violates an edge")
    tight1 = slack == 0
    del slack

    def tight_out(v: int) -> Iterator[int]:
        # index order: succ0[v] < succ1[v], as a window with its newest
        # position excluded sorts first.  `item` reads Python scalars
        # without making numpy ones.
        if tight0.item(v):
            yield succ0.item(v)
        if tight1.item(v):
            yield succ1.item(v)

    color = bytearray(len(keys))  # 0 new, 1 on the path, 2 done

    def first_cycle(roots: range) -> list[int] | None:
        for root in roots:
            if color[root]:
                continue
            color[root] = 1
            path, todo = [root], [tight_out(root)]
            while todo:
                u = next(todo[-1], None)
                if u is None:
                    color[path.pop()] = 2
                    todo.pop()
                elif color[u] == 1:
                    cycle = path[path.index(u) :]
                    cycle = cycle[1:] + cycle[:1]
                    return [keys.item(v) & 1 for v in cycle]
                elif color[u] == 0:
                    color[u] = 1
                    path.append(u)
                    todo.append(tight_out(u))
        return None

    return [first_cycle(range(start, stop)) for start, stop, _ in segments]


def _union(graphs):
    """The graphs of a batch laid end to end, with the offsets of their
    segments: the keys as they are, and the edge arrays with each graph's
    indices moved past the states before it (succ1's -1, no edge, stays).
    A batch of one is its own arrays, not a copy."""
    offsets = [0, *itertools.accumulate(len(keys) for keys, *_ in graphs)]
    if len(graphs) == 1:
        return graphs[0], offsets
    keys, succ0, succ1, first, last = map(np.concatenate, zip(*graphs))
    shift = np.repeat(offsets[:-1], np.diff(offsets))
    for edges in (succ0, first, last):
        edges += shift
    np.add(succ1, shift, out=succ1, where=succ1 >= 0)
    return (keys, succ0, succ1, first, last), offsets


def _solve(graphs, candidates) -> list[tuple[Fraction, list[int]]]:
    """mu and an optimal cycle's appended bits for each state graph of a
    batch, as `mu_exact` describes, with each graph's candidate (None for
    none).  Each round runs one potential over the union of the graphs not
    yet proved.  If it diverges, a graph with a cycle of raises takes that
    cycle's mean as its next value, and the others run again.  If it
    converges, a graph with a tight cycle is proved, a caller's candidate
    without one gives way to its graph's greedy value, and those run again.
    """
    values, from_caller = [], []
    for (keys, succ0, succ1, _, _), candidate in zip(graphs, candidates):
        # mu lies in (0, 1] with denominator at most the state count, so no
        # other candidate is tried; that also keeps the potential within int64.
        tried = candidate is not None and 0 < candidate <= 1 and candidate.denominator <= len(keys)
        values.append(candidate if tried else _greedy_cycle_mean(succ0, succ1))
        from_caller.append(tried)
    proved = [None] * len(graphs)
    todo = list(range(len(graphs)))
    while todo:
        (keys, succ0, succ1, first, last), offsets = _union([graphs[i] for i in todo])
        pi_or_means = _potential(keys, first, last, [values[i] for i in todo], offsets)
        if isinstance(pi_or_means, list):
            for i, mean in zip(todo, pi_or_means):
                if mean is None:
                    continue
                if mean <= values[i]:
                    raise InternalError(f"cycle of raises has mean {mean}, not above {values[i]}")
                values[i], from_caller[i] = mean, False
            continue
        cycles = _tight_cycle(keys, succ0, succ1, pi_or_means, [values[i] for i in todo], offsets)
        del pi_or_means  # not held through the greedy stage and the next potential
        again = []
        for i, bits in zip(todo, cycles):
            if bits is not None:
                proved[i] = bits
            elif from_caller[i]:
                values[i], from_caller[i] = _greedy_cycle_mean(graphs[i][1], graphs[i][2]), False
                again.append(i)
            else:
                raise InternalError(f"no cycle attains the proposed {values[i]}: mu is below it")
        todo = again
    return list(zip(values, proved))


def mu_exact_many(
    pairs: Iterable[tuple[DifferenceSet | Iterable[int], Fraction | int | None]],
    *,
    max_window: int = DEFAULT_WINDOW_CAP,
) -> Iterator[ExactDensity | ResourceLimit]:
    """`mu_exact(distances, max_window=max_window, candidate=candidate)` for
    each (distances, candidate) pair, yielded in order: its ExactDensity,
    or the ResourceLimit that it would raise.  Other errors are raised.

    The graphs are built one by one and solved in batches: a batch closes
    when the next graph would take its states past _BATCH_STATES, so a
    graph that large is a batch of its own, and the results of a batch are
    yielded once it is solved.  A batch holds its graphs and one union copy
    of them (`_union`), 80 bytes per state, beside the solver's arrays of
    the union, so memory is bounded by the larger of _BATCH_STATES and the
    largest graph, not by the number of graphs.
    """
    batch, states = [], 0
    for distances, candidate in pairs:
        M = as_difference_set(distances)
        max_window = as_int(max_window, "window cap")
        if max_window < 1:
            raise InvalidInput(f"window cap must be >= 1, got {max_window}")
        candidate = None if candidate is None else as_fraction(candidate, "candidate")
        try:
            if M.max_element > max_window:
                raise ResourceLimit(f"max(M) = {M.max_element} exceeds window cap {max_window}")
            graph = _build_state_graph(M, _state_cap())
            entry, size = (M, candidate, graph), len(graph[0])
        except ResourceLimit as exc:
            entry, size = exc, 0
        if states and states + size > _BATCH_STATES:
            yield from _finish(batch)
            batch, states = [], 0
        batch.append(entry)
        states += size
    yield from _finish(batch)


def _finish(batch) -> Iterator[ExactDensity | ResourceLimit]:
    """Solve a batch of `mu_exact_many` and check each witness."""
    built = [entry for entry in batch if not isinstance(entry, ResourceLimit)]
    solved = iter(_solve([graph for _, _, graph in built], [c for _, c, _ in built]))
    for entry in batch:
        if isinstance(entry, ResourceLimit):
            yield entry
            continue
        M, _, (keys, *_) = entry
        value, bits = next(solved)
        witness = PeriodicSet(
            period=len(bits), residues=tuple(t for t, bit in enumerate(bits) if bit)
        )
        if witness.density() != value:
            raise InternalError(f"witness density {witness.density()} != mu = {value}")
        if not check_periodic_avoiding(witness, M):
            raise InternalError(f"witness {witness} does not avoid {tuple(M)}")
        yield ExactDensity(
            value=value, witness=witness, states_explored=len(keys), method="PolicyIteration"
        )


def mu_exact(
    distances: DifferenceSet | Iterable[int],
    *,
    max_window: int = DEFAULT_WINDOW_CAP,
    candidate: Fraction | int | None = None,
) -> ExactDensity:
    """Exact mu(M) with a periodic witness.

    One loop proposes and proves the value.  It starts from the given
    `candidate` (such as the closed form delta of M's family) or, without
    one, from the greedy policy's best cycle mean (`_greedy_cycle_mean`).
    The integer potential of `_potential` either converges, and then the
    tight cycle of `_tight_cycle` proves the value and is the witness, or
    diverges and returns the best mean among its cycles of raises, all
    above the value, which is tried next.  A candidate outside (0, 1], or
    with a denominator above the state count, cannot be mu and is not
    tried; a candidate with no tight cycle is above mu, and the loop
    restarts from the greedy value.  Each value after the first is a real
    cycle's mean, so the values rise through finitely many cycle means to
    mu.  The witness depends only on the graph and the proved value, so the
    result is the same whichever value was proposed, and `method` is
    "PolicyIteration", the name this certified pipeline has always
    reported, which keeps the output unchanged.  It is a batch of one of
    `mu_exact_many`: a union of one segment, the graph's own arrays.

    Raises ResourceLimit when max(M) exceeds `max_window` or the admissible
    state count exceeds the state cap (DENSITYPACK_MAX_STATES, default
    2**22), InvalidInput when `max_window` is not an integer (read by
    `as_int`), `candidate` not a Fraction or integer (`as_fraction`), or
    either cap below 1, and InternalError when a cycle's mean does not rise
    above the value it refuted, when a value taken from a cycle has no
    tight cycle, or when the witness fails its check.
    """
    (out,) = mu_exact_many([(distances, candidate)], max_window=max_window)
    if isinstance(out, ResourceLimit):
        raise out
    return out


def best_periodic_density(
    distances: DifferenceSet | Iterable[int], max_period: int
) -> ExactDensity:
    """Best density over periodic avoiding sets with period <= max_period.

    Independent of the mean-cycle machinery: for each period p this is a
    branch-and-bound maximum independent set in the circulant graph on Z_p
    with connection set M mod p.  Any d divisible by p empties that period.
    Always a lower bound for mu(M); equality is a property the tests probe,
    not something this function assumes.  `max_period` is read by `as_int`.
    """
    M = as_difference_set(distances)
    max_period = as_int(max_period, "max_period")
    if max_period < 1:
        raise InvalidInput(f"max_period must be >= 1, got {max_period}")
    best = Fraction(0)
    best_set: PeriodicSet | None = None
    for p in range(1, max_period + 1):
        if any(d % p == 0 for d in M):
            continue
        blocked_by = []
        for x in range(p):
            bl = 0
            for d in M:
                bl |= 1 << ((x + d) % p)
                bl |= 1 << ((x - d) % p)
            blocked_by.append(bl)

        best_cnt = 0
        best_res: tuple[int, ...] = ()

        # Every nonempty avoiding residue set has a rotation through 0.
        def rec(pos: int, chosen: tuple[int, ...], blocked: int) -> None:
            nonlocal best_cnt, best_res
            if len(chosen) + (p - pos) <= best_cnt:
                return
            if pos == p:
                best_cnt, best_res = len(chosen), chosen
                return
            if not blocked >> pos & 1:
                rec(pos + 1, chosen + (pos,), blocked | blocked_by[pos])
            rec(pos + 1, chosen, blocked)

        rec(1, (0,), blocked_by[0])
        if best_cnt and Fraction(best_cnt, p) > best:
            best = Fraction(best_cnt, p)
            best_set = PeriodicSet(period=p, residues=best_res)
    if best_set is None:
        raise InvalidInput(
            f"every period up to {max_period} divides some element of {tuple(M)}"
        )
    if not check_periodic_avoiding(best_set, M):
        raise InternalError(f"periodic set {best_set} does not avoid {tuple(M)}")
    return ExactDensity(
        value=best, witness=best_set, states_explored=max_period, method="PeriodicSearch"
    )
