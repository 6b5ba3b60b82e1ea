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

This is the subgraph of the binary de Bruijn graph induced by the avoiding
windows.  A window's two successors, 2k and 2k + 1 (mod 2**L), are adjacent
in key order, so the graph keeps one out-edge array, the 0-successor, and
one bool per state for whether the 1-successor, the next state, exists.

Every periodic avoiding set walks a cycle of this graph with mean equal to
its density, and conversely any cycle unrolls into a periodic avoiding set,
so mu(M) is the maximum cycle mean.  The graph is strongly connected (the
all-zero window reaches and is reached by every state), every state has an
out-edge (appending 0) and an in-edge, and the optimum is a fraction with
denominator at most the state count.

One solver path computes it, in int64 numpy arrays throughout but for the
first levels of fewer than _SMALL_LEVEL keys, which are Python ints: the
windows are built level by level in key order, up to the last level before
the full windows; the graph, keys and edges, is laid out once from that
level, each edge read off it by position; a value p/q is proposed, and a
longest-walk potential for the reweighted graph w' = q*w - p certifies it.
The potential converging, and satisfying every edge, proves mu <= p/q; a cycle
of its tight edges proves mu >= p/q and is the periodic witness.  A caller
that already holds a likely value (the closed form delta) passes it as the
candidate, which is certified first.  Without one, the first proposal is
the Cantor-Gordon bound kappa(M) (`_kappa_set`), a closed form over M that
needs no graph: the density of an M-avoiding Bohr set, so a lower bound,
and nearly always mu itself.  A potential that diverges finds cycles of
strict raises, real cycles with means above the value, and the best of
those means is the next proposal (cycle improvement, as in Dasdan 2004); a
caller's candidate with no tight cycle is above mu and gives way to kappa.
Every way, the same value is proved on the same graph, so the witness is
the same.

The path solves a batch of graphs at once (`mu_exact_many`, which `sweep`
uses): a batch holds only the last level of each M, and its graphs are laid
end to end once, as segments of one union graph, their edges read off and
checked in one pass over the union; then every round runs one potential,
one edge check and one tight-cycle search over the whole union, each
segment at its own value, until every segment is proved.  A refused M
closes its batch.  `mu_exact` is a batch of one.

A second, entirely independent route -- exhaustive search over periodic sets
of bounded period -- lives in `best_periodic_density` and exists to
cross-examine the mean-cycle answer in tests.

Window enumeration (`avoiding_mask_chunks`) extends prefixes one position
per level, the levels of fewer than _SMALL_LEVEL prefixes in Python ints and
the rest in int64 arrays (`_extend`), and yields int64 masks in bounded
chunks, in lexicographic order; `enumerate_avoiding_windows` wraps it as
Windows.

Resource guards: max(M) must stay within a window cap (default 22), the
admissible-state count within a state cap (default 2**22, set only by the
DENSITYPACK_MAX_STATES environment variable; each level's size, and the
graph's, is checked against it before it is allocated), and window
enumeration length within an enumeration cap (default 49).  Masks are
int64, so no window may be longer than 63 positions.  Exceeding any raises
ResourceLimit; a cap below 1 would refuse everything and is InvalidInput.
"""

from __future__ import annotations

import bisect
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
    as_positive_int,
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
# For a union of N states a potential stays below (N + 3*log2 N + 128)*den
# (`_potential`: 128 bounds the 2**r its jump may add, as max(M) <= 63),
# with den at most the largest segment's state count (a caller's candidate
# or a cycle's mean) or at most 2*max(M) <= 126 (kappa), so under 2**61
# while N is at most this limit: the solver's int64 arithmetic cannot
# overflow.  A union is one graph within it, or a batch within
# _BATCH_STATES.
_INT64_STATE_LIMIT = 1 << 30
# A batch of `mu_exact_many` closes before its union would pass this many
# states; a graph this large is a batch of its own.
_BATCH_STATES = 1 << 12
# Window masks are int64, so positions 0..62.
_MASK_BITS = 63
# Largest mask array `avoiding_mask_chunks` yields.  Each chunk is also one
# `profile.WindowBatch`, so this is the one bound on a window scan's memory.
_CHUNK_WINDOWS = 1 << 16
# A level of fewer prefixes than this is extended in Python ints: its few
# entries cost less than the numpy calls of a level.
_SMALL_LEVEL = 64


@dataclass(frozen=True, slots=True)
class Window:
    """A finite 0/1 window over positions [0, length).  Bit i <=> i in the set.
    The length is read by `as_positive_int` and the mask by `as_int`, and
    both are stored as Python ints; `x in window` reads x by `as_int`, so a
    bool or a non-integer is never in it."""

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
    is read by `as_positive_int` and each residue by `as_int`, and all are
    stored as Python ints."""

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
    raise before it starts: InvalidInput when n, then the cap, is not an
    integer of at least 1 (read by `as_positive_int`), ResourceLimit above
    the cap or the 63 bits of an int64 mask."""
    n, cap = as_positive_int(n, "window length"), as_positive_int(cap, "enumeration cap")
    if n > cap:
        raise ResourceLimit(f"window length {n} exceeds enumeration cap {cap}")
    _check_mask_bits(n)


def _conflict_masks(M: DifferenceSet, n: int) -> list[int]:
    """For each position t < n, the mask c_t of the earlier positions
    t - d, d in M, that forbid setting t: c_t = c_{t-1} << 1 | (t in M)
    from c_{-1} = 0, as a position at distance d from t - 1 is at distance
    d + 1 from t."""
    members, masks, c = set(M), [], 0
    for t in range(n):
        c = c << 1 | (t in members)
        masks.append(c)
    return masks


def _extend(states: np.ndarray, t: int, with_t: np.ndarray) -> np.ndarray:
    """One level of the window enumeration: each prefix is followed by
    itself with position t set where `with_t` allows it (excluding a
    position sorts first).  The (entry, extension) pairs and their
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
    counterexample.  Prefixes are extended one position per level, as
    Python ints while the run holds fewer than _SMALL_LEVEL of them (a
    family's first levels, where a numpy call costs more than the level's
    work), then as one int64 array by `_extend`.  A run longer than the
    chunk is split in two and the halves are finished one after the other,
    so memory stays within about n chunks whatever the total count.
    `require_zero` is read by `as_bool`.
    """
    M = as_difference_set(distances)
    check_enum_length(n, cap)
    conflicts = _conflict_masks(M, n)
    t = start = int(as_bool(require_zero, "require_zero"))
    run = [start]
    while t < n and len(run) < _SMALL_LEVEL:
        c, bit, level = conflicts[t], 1 << t, []
        for x in run:
            level.append(x)
            if not x & c:
                level.append(x | bit)
        run, t = level, t + 1
    todo = [(t, np.array(run, dtype=np.int64))]  # (next position, prefixes)
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


def _last_level(M: DifferenceSet, cap: int):
    """The last level of M's state graph: (P, with_t, n), P the sorted
    M-avoiding keys of length L - 1, L = max(M), with_t whether each can
    take a newest 1, and n = len(P) + count(with_t) the graph's state count.

    The levels grow by the oldest bit: the keys of length t + 1 are those of
    length t, whose bit t is clear, followed by each key whose bit t may be
    set with bit t set, so every level is sorted.  Levels of fewer than
    _SMALL_LEVEL keys are built in Python ints, as in `avoiding_mask_chunks`,
    and the rest in int64 arrays.  Each level's size, and then n, is checked
    against the cap before the level is built, so a refused graph never
    holds more windows than the cap.
    """
    L = M.max_element
    _check_mask_bits(L)
    # No window of at most min(M) positions holds a difference in M, so the
    # first level, of length t, holds every key.
    t = min(M.elements[0], L - 1)
    _check_state_count(1 << t, cap)
    conflicts = _conflict_masks(M, L - 1)
    if 1 << t >= _SMALL_LEVEL:
        P = np.arange(1 << t, dtype=np.int64)
    else:
        P = list(range(1 << t))
        while t < L - 1 and len(P) < _SMALL_LEVEL:
            c, bit = conflicts[t], 1 << t
            top = [x | bit for x in P if not x & c]
            _check_state_count(len(P) + len(top), cap)
            P += top
            t += 1
        P = np.array(P, dtype=np.int64)
    for t in range(t, L - 1):
        # Bit t, the new oldest position, lies at distance d from bit t - d.
        ok = (P & conflicts[t]) == 0
        _check_state_count(len(P) + int(np.count_nonzero(ok)), cap)
        top = P[ok]
        top |= 1 << t
        P = np.concatenate([P, top])
    # A newest 1 lies at distance d from key bit d - 1.
    with_t = (P & sum(1 << (d - 1) for d in M if d < L)) == 0
    n = len(P) + int(np.count_nonzero(with_t))
    _check_state_count(n, cap)
    return P, with_t, n


def _lay_out(Ms, levels):
    """The state graphs of the difference sets `Ms`, from their last levels
    (`_last_level`), laid end to end as segments of one union graph:
    ((keys, succ0, can1, first, last), offsets), segment j the states
    offsets[j] to offsets[j + 1].  `levels` is emptied once the keys are
    laid out.

    Segment j is M's graph with every index moved past the states before
    it.  Its keys increase, in the window order of `avoiding_mask_chunks`
    (its state 0 is the all-zero window).  Appending a 0 moves state i to
    succ0[i].  Where the bool can1[i] holds, appending a 1 is allowed and
    moves it to succ0[i] + 1; elsewhere it would create a difference in M.
    v's in-edges come from first[v], keys[v] >> 1, and last[v], the same
    with the oldest bit set where that window exists and v's newest bit is
    0, else first[v] again: as L is in M, a window whose oldest position is
    set cannot append a 1.
    """
    # A segment's keys are P, the windows whose oldest position, bit L - 1,
    # is empty, followed by P[i] | 2**(L-1) for the i with ok[i] = (P[i] &
    # C) == 0, C = sum of 2**(L-1-d) for d in M below L.  Two facts
    # follow.  (1) keys[v] >> 1 is v's parent P[i], state i: so first
    # repeats each i 1 + w[i] times, w = with_t.  (2) The children of P[i]
    # are adjacent, its 0-child at c0[i] = i + (ones of w before i) and its
    # 1-child right after: so the two successors of a window are adjacent
    # states, and shifting out the oldest position gives succ0 = c0
    # followed by c0[ok].  last[v] is the top-half state whose succ0 is v.
    # Over the union, c0 and first count the states of the segments before
    # too; constants of one segment apply to its slice.  Both edges and
    # first are checked against the keys by checks that -O keeps.
    offsets = [0, *itertools.accumulate(n for _, _, n in levels)]
    sizes = [len(P) for P, _, _ in levels]
    starts = [0, *itertools.accumulate(sizes)]
    reps = np.concatenate([with_t for _, with_t, _ in levels]) + 1
    c0 = np.cumsum(reps)
    c0 -= reps  # the exclusive cumsum
    parents = np.arange(starts[-1])
    for start, stop, offset in zip(starts[1:], starts[2:], offsets[1:]):
        parents[start:stop] += offset - start
    first = np.repeat(parents, reps)
    del reps, parents
    key_parts, succ0_parts = [], []
    for M, (P, _, _), start, stop in zip(Ms, levels, starts, starts[1:]):
        L = M.max_element
        ok = (P & sum(1 << (L - 1 - d) for d in M if d < L)) == 0
        top = P[ok]
        top |= 1 << (L - 1)
        key_parts += [P, top]
        succ0_parts += [c0[start:stop], c0[start:stop][ok]]
    del P, ok, top
    levels.clear()
    keys = np.concatenate(key_parts)
    del key_parts
    succ0 = np.concatenate(succ0_parts)
    del succ0_parts, c0
    segments = list(zip(Ms, offsets, offsets[1:]))
    # last is the checks' scratch until it is filled.  mode="wrap": see
    # `_potential`.
    last = np.empty(len(keys), dtype=np.int64)
    for M, start, stop in segments:
        np.bitwise_and(keys[start:stop], sum(1 << (d - 1) for d in M), out=last[start:stop])
    can1 = last == 0
    for bit, exists in ((0, True), (1, can1)):
        # keys[1:] gathered at succ0 is keys at succ0 + 1.  The gathered
        # key equals (2*keys + bit) mod 2**L iff the two agree mod 2**L,
        # as both lie in [0, 2**L).
        np.take(keys[bit:], succ0, out=last, mode="wrap")
        last -= keys
        last -= keys
        for M, start, stop in segments:
            last[start:stop] &= (1 << M.max_element) - 1
        if ((last != bit) & exists).any():
            raise InternalError(f"a window's {bit}-edge does not lead to its shift")
    # keys[first] == keys >> 1 iff (keys[first] << 1) ^ keys is 0 or 1.
    np.take(keys, first, out=last, mode="wrap")
    last <<= 1
    last ^= keys
    if (last > 1).any():
        raise InternalError("a window has no shift predecessor")
    np.copyto(last, first)
    for start, stop, p in zip(offsets, offsets[1:], sizes):
        last[succ0[start + p : stop]] = np.arange(start + p, stop)
    return (keys, succ0, can1, first, last), offsets


def _build_state_graph(M: DifferenceSet, cap: int):
    """Avoiding windows of length L = max(M) and their shift edges, as
    (keys, succ0, can1, first, last): a union of one segment (`_lay_out`)."""
    graph, _ = _lay_out([M], [_last_level(M, cap)])
    return graph


def _cycle_mean(step, bits, land, buf, on_cycle) -> list:
    """The cycles of a functional graph that are not fixed points, as a
    list of (least state, weight, length) in Python ints, one per cycle in
    the order of their least states; the weight is the sum of bits[v] & 1
    over its states v.  The list is empty when every cycle is a fixed
    point.  step (int64) is the graph's step, which is read and not
    written; land and buf (int64) and on_cycle (bool), of the state count,
    are scratch.  Beside them it allocates only the indices of the c states
    on cycles that are not fixed points, and the list.

    First land, the step, is squared, land = step^(2^r), alternating with
    buf, until its image stops shrinking.  The images are nested, as
    step^(2^(r+1)) maps through step^(2^r).  Once one, S, is as large as
    the one before, step^(2^r) maps S onto itself, so it permutes S and S
    holds only cycle states; each cycle state is the image of the state 2^r
    steps behind it, so S holds them all, and the stop is exact.  The fixed
    points are unmarked.  Then one walk, through memoryviews, visits the c
    states left in index order: from each one still marked it follows the
    step once around its cycle, clearing the marks and summing the newest
    bits, so the state it starts from is the cycle's least.
    """
    np.copyto(land, step)
    hop, spare, count = land, buf, len(land)
    while True:
        on_cycle.fill(False)
        on_cycle[hop] = True
        count, before = np.count_nonzero(on_cycle), count
        if count == before:
            break
        np.take(hop, hop, out=spare, mode="wrap")
        hop, spare = spare, hop
    # buf takes v - step[v], which is 0 at the fixed points.
    buf.fill(1)
    np.cumsum(buf, out=buf)
    buf -= 1
    buf -= step
    np.logical_and(on_cycle, buf, out=on_cycle)
    marked, succ, bit = memoryview(on_cycle), memoryview(step), memoryview(bits)
    cycles = []
    for least in np.flatnonzero(on_cycle).tolist():
        v, total, length = least, 0, 0
        while marked[v]:
            marked[v] = False
            total += bit[v] & 1
            length += 1
            v = succ[v]
        if length:
            cycles.append((least, total, length))
    return cycles


def _weigh(keys, values, offsets, out) -> None:
    """Write w' = den*w - num, w the newest bit keys & 1, into `out`, each
    segment j (states offsets[j] to offsets[j + 1]) at values[j] = num/den."""
    np.bitwise_and(keys, 1, out=out)
    for start, stop, value in zip(offsets, offsets[1:], values):
        out[start:stop] *= value.denominator
        out[start:stop] -= value.numerator


def _potential(keys, first, last, values, offsets) -> np.ndarray | list:
    """The longest-walk potential of a union of graphs, segment j (states
    offsets[j] to offsets[j + 1]) for w' = den*w - num with values[j] =
    num/den: the fixpoint of pi <- max(pi, relax(pi)) from 0, which exists
    exactly when no cycle has positive w'-weight, i.e. when mu <= value on
    every segment.  Each state v is relaxed over its in-edges from first[v]
    and last[v] (`_lay_out`), both weighted by its newest bit,
    keys[v] & 1, and no edge leaves a segment, so each segment's pi is the
    one its graph alone would reach.  The caller checks every out-edge
    against the result, so the certificate stays sound whatever is relaxed
    here.

    The pass count follows the length of the longest walk, so after pass
    2, if it raised anything, one jump carries pi along the chains of
    `last` in-edges by pointer doubling: with anc = last and S = w2, the
    weights w', each of r rounds sets pi <- max(pi, S + pi[anc]), then
    S <- S + S[anc] and anc <- anc[anc], so round j reads the walk of 2**j
    `last` edges into each state and, through the rounds before it, every
    shorter one.  r is the least with 2**r > 2*m, m the bit length of the
    union's largest key: r <= 7, as m <= 63.  Every value written is pi at
    a real state plus the weight of a real walk from it, so where the
    fixpoint pi* exists pi stays at most pi* (pi*[u] + w' <= pi*[v] on
    every edge); the iteration is monotone and inflationary, so from any
    start between 0 and pi* it reaches pi* itself, and the result is the
    same fixpoint, bytewise, that the passes alone reach.  A potential
    that settles in two passes never jumps.

    Beside the graph it holds four int64 arrays of the state count, pi, the
    weights w2 and the two gathers pi[first] and pi[last], and one bool
    array of raises; every pass reuses them, and the jump borrows them: the
    gather of pi[last] holds anc, that of pi[first] is its scratch, and w2
    holds S and is written again afterwards.  The gathers use mode="wrap",
    as the default mode="raise" buffers its output; first, last and anc
    are in range.

    A value below mu makes pi diverge.  After the first 2*log2 n passes,
    each raised state remembers the in-edge of its last strict raise, in
    `pred`, allocated then with one more bool array; a state not raised
    since then is a fixed point of `pred`.  From pass 3*log2 n on, every
    log2 n passes, `_cycle_mean` reads the cycles of `pred`, its step, that
    are not fixed points, by walking each once, weighing each state by its
    newest bit; its scratch is the two gathers and the raises, which are
    free until the next pass, so nothing of the state count is released or
    allocated for it.  A cycle's least state, bisected into `offsets`, names
    its segment.  A cycle of those edges has positive w'-weight: each raise
    on it used a value of its source no larger than the current one, and the
    raise that followed the cycle's latest raise used a strictly smaller
    one.  So each is a real cycle of its segment's graph with mean above
    that segment's value.  Once there is one, a list is returned in place of
    pi: the best such mean of each segment, or None for a segment with no
    cycle.  No cycle of raises is a fixed point, so none is missed: a strict
    raise of v uses the in-edge from first[v] or from last[v], and neither
    is v.  first[v] == v only for a segment's state 0, the all-zero key,
    whose edge to itself has weight w' = -num < 0 and so never strictly
    raises it: when pi[first] >= pi[last] state 0 is not raised at all, and
    otherwise its raise uses last[0], the key with only its oldest bit set.
    last[v] == v never holds: last[v] differs from first[v] only where v's
    newest bit is 0, and there it is the top-half key (key >> 1) | top,
    which equals v's key only when that is all ones, whose newest bit is 1.
    While those edges form no cycle they form a forest whose roots, the
    fixed points, have not been raised since tracking began.  A pass raises
    the largest potential by at most den, den the largest of the values'
    denominators (each a caller's candidate, kappa(M) or a cycle's mean;
    _INT64_STATE_LIMIT bounds it), as no weight w' exceeds it, and round j
    of the jump by at most 2**j*den, a walk of 2**j edges: pi is at most
    2*den after pass 2 and (2**r + 1)*den after the jump, which comes before
    tracking starts (2 < 2*log2 n + 1).  So a root is at most
    (2*log2 n + 2**r)*den, and each of the fewer than n edges on the way
    from a root to a state adds at most den: every potential is at most
    (n + 2*log2 n + 2**r)*den after a check, and grows by at most den per
    pass until the next one.  A potential that diverges must close a cycle,
    and one past that bound without a cycle is InternalError.

    Tracking starts late because most potentials converge early, and a
    converging run pays for every tracked pass and search.  The unions of
    `sweep` settled in 22 to 29 passes without the jump and settle in 3
    with it, so none of them reaches its first search.
    """
    n = len(keys)
    w2 = np.empty(n, dtype=np.int64)
    _weigh(keys, values, offsets, w2)
    den = max(value.denominator for value in values)
    rounds = n.bit_length()
    doublings = (2 * int(keys.max()).bit_length()).bit_length()

    pi = np.zeros(n, dtype=np.int64)
    pi_first, pi_last = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    raised = np.empty(n, dtype=bool)
    pred = from_first = None
    for step in itertools.count(1):
        np.take(pi, first, out=pi_first, mode="wrap")
        np.take(pi, last, out=pi_last, mode="wrap")
        # Raises are tracked only after the first 2*rounds passes; the
        # cycle argument holds for the raises of any run of consecutive
        # passes.
        tracking = step > 2 * rounds
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
        if step == 2:
            # The jump: in round j, anc is 2**j `last` edges back and S the
            # walk's weight.
            anc, spare = pi_last, pi_first
            np.copyto(anc, last)
            for _ in range(doublings):
                np.take(pi, anc, out=spare, mode="wrap")
                spare += w2
                np.maximum(pi, spare, out=pi)
                np.take(w2, anc, out=spare, mode="wrap")
                w2 += spare
                np.take(anc, anc, out=spare, mode="wrap")
                anc, spare = spare, anc
            _weigh(keys, values, offsets, w2)
        if tracking:
            # pi_last is free again: it holds each state's better in-edge.
            np.copyto(pi_last, last)
            np.copyto(pi_last, first, where=from_first)
            np.copyto(pred, pi_last, where=raised)
            if step % rounds == 0:
                # The gathers and the raises are free until the next pass.
                if cycles := _cycle_mean(pred, keys, pi_first, pi_last, raised):
                    means = [None] * len(values)
                    for least, total, length in cycles:
                        j, mean = bisect.bisect_right(offsets, least) - 1, Fraction(total, length)
                        means[j] = mean if means[j] is None else max(means[j], mean)
                    return means
                if pi.max() > (n + 2 * rounds + (1 << doublings)) * den:
                    raise InternalError(
                        f"potential for {', '.join(map(str, values))} "
                        "passed its bound without a cycle"
                    )


def _tight_cycle(keys, succ0, can1, pi, values, offsets) -> list:
    """Certify that mu = values[j] on each segment j of a union (states
    offsets[j] to offsets[j + 1]) and return, for each, an optimal cycle's
    appended bits, or None when that segment has no such cycle: its value
    is above its mu.

    With w' = den*w - num the claim is that the maximum cycle mean becomes
    0.  `pi` is the converged longest-walk potential of `_potential`, so no
    cycle has positive w'-weight, and pi[u] + w' <= pi[v] on every edge.
    One rule checks this on both edge kinds, the out-edges to succ0[u]
    (bit 0) and, where can1[u], to succ0[u] + 1 (bit 1), found apart from
    the in-edges `_potential` relaxed and weighted from `values`: the slack
    pi[v] - pi[u] + num - bit*den is at least 0, and a 1-edge that is not
    allowed has slack 1.  This proves mu <= value.  Every cycle of tight
    edges (slack 0) telescopes to w'-weight 0, so the first one a
    depth-first search meets attains value: that proves mu >= value and is
    the witness, read as each state's newest bit, keys[v] & 1.  No edge
    leaves a segment, so each segment's search starts from its own first
    state and the edge check runs on the whole union.

    Beside the graph and pi it holds one int64 array of the state count,
    the slack of one edge kind at a time, the two bool arrays of tight
    edges, tight0 and tight1, with tight0 turned in place into the uint8
    code = tight0 | tight1 << 1, and the search's bytearray of colours.
    The search reads code, succ0 and keys through memoryviews, which index
    to Python ints, and keeps an explicit stack of states, each with the
    edges it has left to try: the 0-edge, whose successor comes first in
    index order, before the 1-edge, and roots in index order.
    """
    segments = list(zip(offsets, offsets[1:], values))
    slack, tight = np.empty_like(pi), []
    for bit, exists in ((0, True), (1, can1)):
        # pi[1:] gathered at succ0 is pi at succ0 + 1.  Where no 1-edge is
        # allowed, that is another state's, or wraps; its slack is set to
        # 1, which is neither violated nor tight.
        np.take(pi[bit:], succ0, out=slack, mode="wrap")
        slack -= pi
        for start, stop, value in segments:
            slack[start:stop] += value.numerator - bit * value.denominator
        np.copyto(slack, 1, where=np.logical_not(exists))
        if slack.min() < 0:
            raise InternalError("potential violates an edge")
        tight.append(slack == 0)
    tight0, tight1 = tight
    del slack, tight
    # code = tight0 | tight1 << 1, written over tight0's bytes.
    code = tight0.view(np.uint8)
    code += tight1
    code += tight1
    del tight0, tight1

    code, succ, key = memoryview(code), memoryview(succ0), memoryview(keys)
    color = bytearray(len(keys))  # 0 new, 1 on the path, 2 done

    def first_cycle(roots: range) -> list[int] | None:
        for root in roots:
            if color[root]:
                continue
            color[root] = 1
            # v is the state on top of the path, edges the out-edges it has
            # left to try (bit 0 the 0-edge, bit 1 the 1-edge); path and
            # left hold the states below it, each with its edges left.
            path, left = [], []
            v, edges = root, code[root]
            while True:
                if edges:
                    if edges & 1:
                        rest, u = edges - 1, succ[v]
                    else:
                        rest, u = 0, succ[v] + 1
                    if color[u] == 0:
                        color[u] = 1
                        path.append(v)
                        left.append(rest)
                        v, edges = u, code[u]
                    elif color[u] == 1:
                        path.append(v)
                        cycle = path[path.index(u) :]
                        cycle = cycle[1:] + cycle[:1]
                        return [key[w] & 1 for w in cycle]
                    else:
                        edges = rest
                else:
                    color[v] = 2
                    if not path:
                        break
                    v, edges = path.pop(), left.pop()
        return None

    return [first_cycle(range(start, stop)) for start, stop, _ in segments]


def _kappa_set(M: DifferenceSet) -> PeriodicSet:
    """The Bohr set {n : n*c mod q < v} at the first maximiser (q, c) of
    the Cantor-Gordon bound kappa(M) = max over x of min over d in M of
    ||d*x||, ||.|| the distance to the nearest integer: an M-avoiding set
    of density kappa(M), so kappa(M) <= mu(M) (Cantor & Gordon 1973).

    min over d of ||d*x|| is piecewise linear with slopes +-d, so it peaks
    where one ||d*x|| peaks, at x = c/(2d), or where a rising piece of d_i
    meets a falling piece of d_j, at x = c/(d_i + d_j): every maximum lies
    at some x = c/q with q = d_i + d_j, i = j included, and 1 <= c < q.
    There the bound is v/q, v the least of min(d*c mod q, q - d*c mod q)
    over M.  As ||d*(q - c)/q|| = ||d*c/q||, each c above q/2 has the
    bound of q - c, which is smaller and comes first, so the least
    maximising c of each q is at most q/2: only 1 <= c <= q/2 is searched,
    and the first maximiser in (q, c) order is the same.  Every such (q, c)
    is evaluated in one numpy expression, and the first maximiser is
    taken.  The argmax over the doubles v/q is exact: division is
    correctly rounded, so equal fractions give equal doubles, and two
    different fractions with q <= 2*max(M) <= 126 differ by at least
    1/126**2.

    The set avoids M: the residues n*c mod q of two members lie in [0, v),
    so their difference e has ||e*c/q|| < v/q, and e is not in M.  With
    g = gcd(c, q), n*c mod q runs over the multiples of g, each g times per
    period q, and v is one of them, as d*c mod q and q are; so the set has
    exactly v residues mod q, the (q/g, c/g, v/g) Bohr set repeated, and
    its density is exactly v/q.
    """
    # Not np.unique, whose first call imports numpy.ma.
    sums = np.array(sorted({i + j for i in M for j in M}))
    q = np.repeat(sums, sums // 2)
    c = np.arange(1, len(q) + 1) - np.searchsorted(q, q)  # 1 up to q // 2 for each q
    r = np.multiply.outer(tuple(M), c) % q
    v = np.minimum(r, q - r).min(axis=0)
    best = int(np.argmax(v / q))
    q, c, v = int(q[best]), int(c[best]), int(v[best])
    return PeriodicSet(q, tuple(n for n in range(q) if n * c % q < v))


def _solve(keys, succ0, can1, first, last, offsets, batch) -> list[tuple[Fraction, list[int]]]:
    """mu and an optimal cycle's appended bits for each segment of a union
    graph (`_lay_out`), as `mu_exact` describes: the segment from offsets[j]
    to offsets[j + 1] is the graph of batch[j] = (M, candidate), the
    candidate None for none.  Each segment starts at its candidate, if that
    is tried, else at kappa(M) (`_kappa_set`), and each round runs one
    potential over the whole union, every segment at its current value.
    If it diverges, a segment with a cycle of raises takes that cycle's
    mean as its next value.  If it converges and every segment has a tight
    cycle, the batch is proved.  Otherwise a caller's candidate without one
    gives way to kappa(M), and the whole union runs again.  kappa is
    computed only for a segment that needs a start, so a batch whose
    candidates are all proved computes none.  kappa and a cycle's mean are
    both at most mu, so a value taken from either that has no tight cycle
    is InternalError.

    A segment proved in one round and run again is proved again, at the
    same value, by the same cycle: no edge leaves a segment, so its pi is
    the same least fixpoint whatever the other segments hold, and its
    depth-first search, from its own first state over its own tight edges,
    meets the same cycle first.
    """
    values, from_caller = [], []
    for (M, candidate), start, stop in zip(batch, offsets, offsets[1:]):
        # mu lies in (0, 1] with denominator at most the state count, so no
        # other candidate is tried; that also keeps the potential within int64.
        tried = candidate is not None and 0 < candidate <= 1 and candidate.denominator <= stop - start
        values.append(candidate if tried else _kappa_set(M).density())
        from_caller.append(tried)
    while True:
        pi_or_means = _potential(keys, first, last, values, offsets)
        if isinstance(pi_or_means, list):
            for i, mean in enumerate(pi_or_means):
                if mean is not None:
                    if mean <= values[i]:
                        raise InternalError(f"cycle of raises has mean {mean}, not above {values[i]}")
                    values[i], from_caller[i] = mean, False
            continue
        cycles = _tight_cycle(keys, succ0, can1, pi_or_means, values, offsets)
        del pi_or_means  # not held through the next potential
        if None not in cycles:
            return list(zip(values, cycles))
        for i in [i for i, bits in enumerate(cycles) if bits is None]:
            if not from_caller[i]:
                raise InternalError(f"no cycle attains the proposed {values[i]}: mu is below it")
            values[i], from_caller[i] = _kappa_set(batch[i][0]).density(), False


def mu_exact_many(
    pairs: Iterable[tuple[DifferenceSet | Iterable[int], Fraction | int | None]],
    *,
    max_window: int = DEFAULT_WINDOW_CAP,
) -> Iterator[ExactDensity | ResourceLimit]:
    """`mu_exact(distances, max_window=max_window, candidate=candidate)` for
    each (distances, candidate) pair, yielded in order: its ExactDensity,
    or the ResourceLimit that it would raise.  Other errors are raised.
    The window cap and the state cap are read once, on the first `next`,
    before any pair.

    Each M's level loop runs in turn (`_last_level`), and the graphs are
    solved in batches: a batch closes when the next graph's state count,
    known from its last level, would take the batch past _BATCH_STATES, so
    a graph that large is a batch of its own, or when an M is refused,
    whose ResourceLimit follows the batch's results.  The results of a
    batch are yielded once it is solved.  Until then a batch holds only
    the last level of each graph, 9 bytes per window of length max(M) - 1
    (the keys and with_t), and the next graph's last level is held while
    the batch it closes is solved.  The batch is laid out once
    (`_lay_out`), as one union of 33 bytes per state, which alone is held
    beside the solver's arrays; so memory is bounded by the larger of
    _BATCH_STATES and the largest graph, not by the number of graphs.
    """
    max_window = as_positive_int(max_window, "window cap")
    cap = _state_cap()
    batch, levels, states = [], [], 0
    for distances, candidate in pairs:
        M = as_difference_set(distances)
        candidate = None if candidate is None else as_fraction(candidate, "candidate")
        try:
            if M.max_element > max_window:
                raise ResourceLimit(f"max(M) = {M.max_element} exceeds window cap {max_window}")
            level = _last_level(M, cap)
        except ResourceLimit as exc:
            yield from _finish(batch, levels)
            yield exc
            batch, levels, states = [], [], 0
            continue
        if states + level[2] > _BATCH_STATES:
            yield from _finish(batch, levels)
            batch, levels, states = [], [], 0
        batch.append((M, candidate))
        levels.append(level)
        states += level[2]
        del level  # `levels` alone holds it, which `_lay_out` empties
    yield from _finish(batch, levels)


def _finish(batch, levels) -> Iterator[ExactDensity]:
    """Solve a batch of `mu_exact_many`, its (M, candidate) pairs and the
    last levels of their graphs, which may be empty, and check each
    witness.  The graphs are laid end to end once (`_lay_out`), which
    empties the list of levels, so the union alone is held while they are
    solved."""
    if not batch:
        return
    union, offsets = _lay_out([M for M, _ in batch], levels)
    solved = _solve(*union, offsets, batch)
    for (M, _), (value, bits), start, stop in zip(batch, solved, offsets, offsets[1:]):
        witness = PeriodicSet(
            period=len(bits), residues=tuple(t for t, bit in enumerate(bits) if bit)
        )
        if witness.density() != value:
            raise InternalError(f"witness density {witness.density()} != mu = {value}")
        if not check_periodic_avoiding(witness, M):
            raise InternalError(f"witness {witness} does not avoid {tuple(M)}")
        yield ExactDensity(
            value=value, witness=witness, states_explored=stop - start, method="PolicyIteration"
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
    one, from the Cantor-Gordon bound kappa(M) <= mu, the density of the
    M-avoiding Bohr set of `_kappa_set`.  The integer potential of
    `_potential` either converges, and then the tight cycle of
    `_tight_cycle` proves the value and is the witness, or diverges and
    returns the best mean among its cycles of raises, all above the value,
    which is tried next.  A candidate outside (0, 1], or with a denominator
    above the state count, cannot be mu and is not tried; a candidate with
    no tight cycle is above mu, and the loop restarts from kappa.  Every
    other value is a real cycle's mean above the value before it, so the
    values rise through finitely many cycle means to mu.  The witness
    depends only on the graph and the proved value, so the result is the
    same whichever value was proposed, and `method` is "PolicyIteration",
    the name this certified pipeline has always reported, which keeps the
    output unchanged.  It is a batch of one of
    `mu_exact_many`: a union of one segment.

    Raises ResourceLimit when max(M) exceeds `max_window` or the admissible
    state count exceeds the state cap (DENSITYPACK_MAX_STATES, default
    2**22), InvalidInput when `max_window` is not an integer of at least 1
    (read by `as_positive_int`), `candidate` not a Fraction or integer
    (`as_fraction`), or the state cap below 1, and InternalError when a
    cycle's mean does not rise above the value it refuted, when kappa or a
    value taken from a cycle has no tight cycle, or when the witness fails
    its check.
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
    not something this function assumes.  `max_period` is read by
    `as_positive_int`.
    """
    M = as_difference_set(distances)
    max_period = as_positive_int(max_period, "max_period")
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
