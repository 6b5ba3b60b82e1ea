"""Exact optimal-density oracle for difference-avoiding integer sets.

Given a finite set M of forbidden positive differences, mu(M) is the
maximal (upper) density of a set A of integers with (A - A) disjoint from
M.  This module computes mu(M) exactly by the standard reduction to a
maximum mean cycle:

  * vertices are the M-avoiding 0/1 windows of length L = max(M)
    (bit j of a state is membership of the j-th oldest position);
  * appending a new position shifts the window by one; appending a set
    position is allowed iff no earlier position at distance d in M is set,
    which is a single AND against a precomputed conflict mask since all
    d <= L;
  * edge weight is the appended bit.

Every periodic avoiding set walks a cycle of this graph with mean equal to
its density, and conversely any cycle unrolls into a periodic avoiding set,
so mu(M) is the maximum cycle mean.  The graph is strongly connected (the
all-zero window reaches and is reached by every state), every state has an
out-edge (appending 0) and an in-edge, and the optimum is a fraction with
denominator at most the state count.

One solver path computes it, in int64 numpy arrays throughout: the graph
is built level by level as window masks with two successor arrays, a value
p/q is proposed, and a longest-walk potential for the reweighted graph
w' = q*w - p certifies it.  The potential converging, and satisfying every
edge, proves mu <= p/q; a cycle of its tight edges proves mu >= p/q and is
the periodic witness.  A caller that already holds a likely value (the
closed form delta) passes it as the candidate, which is certified first.
Without one, the first proposal is the best cycle mean of the greedy
policy that appends 1 wherever allowed: a real cycle's mean, so a lower
bound, and nearly always mu itself.  Howard policy iteration proposes the
value only when that first proposal is refuted (the potential diverges,
or no tight cycle exists).  Every way, the same value is proved on the
same graph, so the witness is the same.

A second, entirely independent route -- exhaustive search over periodic sets
of bounded period -- lives in `best_periodic_density` and exists to
cross-examine the mean-cycle answer in tests.

Window enumeration (`avoiding_mask_chunks`) shares the graph build's
level-by-level construction and yields int64 masks in bounded chunks, in
lexicographic order; `enumerate_avoiding_windows` wraps it as Windows.

Resource guards: max(M) must stay within a window cap (default 22), the
admissible-state count within a state cap (default 2**22, set only by the
DENSITYPACK_MAX_STATES environment variable), and window enumeration
length within an enumeration cap (default 49).  Masks are int64, so no
window may be longer than 63 positions.  Exceeding any raises
ResourceLimit; a cap below 1 would refuse everything and is InvalidInput.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InternalError, InvalidInput, ResourceLimit
from .family import DifferenceSet, as_difference_set

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
# The solvers' int64 magnitudes stay below about n**2 for n states.
_INT64_STATE_LIMIT = 1 << 30
_POLICY_ITERATION_CAP = 100_000
# Window masks are int64, so positions 0..62.
_MASK_BITS = 63
# Largest mask array `avoiding_mask_chunks` yields: bounds enumeration memory.
_CHUNK_WINDOWS = 1 << 16


@dataclass(frozen=True, slots=True)
class Window:
    """A finite 0/1 window over positions [0, length).  Bit i <=> i in the set."""

    length: int
    mask: int

    def __post_init__(self):
        if self.length < 1:
            raise InvalidInput(f"window length must be >= 1, got {self.length}")
        if self.mask < 0 or self.mask >> self.length:
            raise InvalidInput("window mask has bits outside [0, length)")

    @classmethod
    def from_members(cls, length: int, members: Iterable[int]) -> "Window":
        mask = 0
        for x in members:
            if not 0 <= x < length:
                raise InvalidInput(f"member {x} outside [0, {length})")
            mask |= 1 << x
        return cls(length, mask)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if self.mask >> i & 1)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and 0 <= x < self.length and bool(self.mask >> x & 1)

    def count_below(self, n: int) -> int:
        """|A intersect [0, n)| for n up to the window length."""
        n = min(n, self.length)
        return (self.mask & ((1 << n) - 1)).bit_count()

    def __repr__(self) -> str:  # keep pytest failure output readable
        return f"Window({self.length}, {{{', '.join(map(str, self.members()))}}})"


@dataclass(frozen=True, slots=True)
class PeriodicSet:
    """The periodic set {x + t*period : x in residues, t in Z}."""

    period: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise InvalidInput(f"period must be >= 1, got {self.period}")
        prev = -1
        for x in self.residues:
            if not isinstance(x, int) or not 0 <= x < self.period or x <= prev:
                raise InvalidInput(
                    f"residues must be strictly increasing in [0, period), got {self.residues}"
                )
            prev = x

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
    residues = set(s.residues)
    for d in M:
        dm = d % s.period
        if any((x + dm) % s.period in residues for x in residues):
            return False
    return True


def _conflict_masks(M: DifferenceSet, n: int) -> list[int]:
    """masks[t] has bit t-d for each d in M with d <= t: earlier positions
    that forbid setting position t."""
    masks = [0] * n
    for t in range(n):
        cm = 0
        for d in M:
            if d > t:
                break
            cm |= 1 << (t - d)
        masks[t] = cm
    return masks


def _check_mask_bits(n: int) -> None:
    if n > _MASK_BITS:
        raise ResourceLimit(f"window length {n} exceeds the {_MASK_BITS} bits of an int64 mask")


def check_enum_length(n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    """Raise what enumerating the windows of length n under `cap` would
    raise before it starts: InvalidInput for n < 1 or a cap below 1,
    ResourceLimit above the cap or the 63 bits of an int64 mask."""
    if n < 1:
        raise InvalidInput(f"window length must be >= 1, got {n}")
    if cap < 1:
        raise InvalidInput(f"enumeration cap must be >= 1, got {cap}")
    if n > cap:
        raise ResourceLimit(f"window length {n} exceeds enumeration cap {cap}")
    _check_mask_bits(n)


def _extend(states: np.ndarray, t: int, conflict: int) -> np.ndarray:
    """One enumeration level: each window is followed by its extension with
    position t, if that avoids M (excluding a position sorts first)."""
    with_t = (states & conflict) == 0
    pairs = np.stack([states, states | (1 << t)], axis=1)
    return pairs[np.stack([np.ones_like(with_t), with_t], axis=1)]


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
    total count.
    """
    M = as_difference_set(distances)
    check_enum_length(n, cap)
    conflicts = _conflict_masks(M, n)
    start = int(require_zero)
    todo = [(start, np.array([start], dtype=np.int64))]  # (next position, prefixes)
    while todo:
        t, states = todo.pop()
        if len(states) > _CHUNK_WINDOWS:
            half = len(states) // 2
            todo += [(t, states[half:]), (t, states[:half])]
        elif t == n:
            yield states
        else:
            todo.append((t + 1, _extend(states, t, conflicts[t])))


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

    Returns (states, succ0, succ1): `states` holds the window masks in the
    lexicographic order of `avoiding_mask_chunks` (so the all-zero window is
    state 0), appending a 0 moves state i to succ0[i], and appending a 1
    moves it to succ1[i], or succ1[i] = -1 when that would create a
    difference in M.  Windows are extended one position per level; level
    sizes never decrease, so checking each level against the cap stops the
    build before a level beyond it is extended.
    """
    L = M.max_element
    _check_mask_bits(L)
    conflicts = _conflict_masks(M, L)
    states = np.zeros(1, dtype=np.int64)
    for t in range(L):
        states = _extend(states, t, conflicts[t])
        _check_state_count(len(states), cap)

    order = np.argsort(states)
    by_value = states[order]
    # Appending position p conflicts with p - d, i.e. bit L - d of the old window.
    append_conflicts = sum(1 << (L - d) for d in M)
    shifted = states >> 1
    succ0 = order[np.searchsorted(by_value, shifted)]
    succ1 = np.full(len(states), -1, dtype=np.int64)
    can_append = (states & append_conflicts) == 0
    succ1[can_append] = order[np.searchsorted(by_value, shifted[can_append] | (1 << (L - 1)))]
    return states, succ0, succ1


def _evaluate(succ, choice):
    """Cycle gains of a policy: each state's walk on `succ` ends in a cycle.

    Pointer doubling: after log2 n squarings, land[v] is on v's terminal
    cycle and low[u] is the smallest state of u's cycle for every cycle
    state u; that smallest state is the walk's root.  Returns (root, p, q),
    where p/q is the reduced mean of the root's cycle, whose edge weights
    are `choice`.
    """
    n = len(succ)
    land, low = succ, np.arange(n)
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[land])
        land = land[land]
    root = low[land]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[land] = True
    length = np.bincount(root[on_cycle], minlength=n)[root]
    total = np.bincount(root[on_cycle & choice], minlength=n)[root]
    common = np.gcd(total, length)
    return root, total // common, length // common


def _best_gain(root, p, q) -> Fraction:
    """The largest cycle mean of an evaluated policy."""
    roots = np.flatnonzero(root == np.arange(len(root)))
    return max(Fraction(int(p[r]), int(q[r])) for r in roots)


def _greedy_cycle_mean(succ0, succ1) -> Fraction:
    """The best cycle mean of the greedy policy, which appends 1 wherever
    allowed: policy iteration's starting point.  It is the mean of a real
    cycle, so at most mu, and in practice it is nearly always mu itself."""
    choice = succ1 >= 0
    return _best_gain(*_evaluate(np.where(choice, succ1, succ0), choice))


def _policy_iteration(succ0, succ1) -> Fraction:
    """Howard policy iteration for the maximum cycle mean, exact in int64.

    A policy picks one out-edge per state, starting from the greedy policy
    of `_greedy_cycle_mean`.  Evaluation (`_evaluate`) works on the policy's
    functional graph by pointer doubling: every state's walk ends in a cycle
    whose smallest state is its root, and its gain is the cycle's reduced
    mean p/q.  Its bias is the sum of w*q - p along the walk to the root.
    States with equal gains share q, so biases compare as integers, and
    gains compare by cross-multiplication.  Improvement is the usual
    two-stage one (gain first, then bias), switching only on strict
    improvement and to the first best edge, so it terminates.  Returns the
    best gain, which `_tight_cycle` then certifies.  `mu_exact` runs it only
    after the greedy proposal (or a caller's candidate) is refuted.
    """
    n = len(succ0)
    index = np.arange(n)
    has1 = succ1 >= 0
    succ1_or_0 = np.where(has1, succ1, succ0)
    rounds = (n - 1).bit_length()  # 2**rounds >= n covers every walk to a cycle

    choice = has1.copy()
    for _ in range(_POLICY_ITERATION_CAP):
        succ = np.where(choice, succ1, succ0)
        weight = choice.astype(np.int64)
        root, p, q = _evaluate(succ, choice)

        is_root = root == index
        bias = np.where(is_root, 0, weight * q - p)
        hop = np.where(is_root, index, succ)
        for _ in range(rounds):
            bias = bias + bias[hop]
            hop = hop[hop]

        p0, q0, p1, q1 = p[succ0], q[succ0], p[succ1_or_0], q[succ1_or_0]
        gain1_higher = has1 & (p1 * q0 > p0 * q1)
        best_p = np.where(gain1_higher, p1, p0)
        best_q = np.where(gain1_higher, q1, q0)
        gain_up = best_p * q > p * best_q
        val0 = np.where((p0 == p) & (q0 == q), bias[succ0] - p, bias)
        val1 = np.where(has1 & (p1 == p) & (q1 == q), bias[succ1_or_0] + q - p, bias)
        bias0_up = val0 > bias
        bias1_up = val1 > np.maximum(val0, bias)
        changed = gain_up | bias0_up | bias1_up
        if not changed.any():
            return _best_gain(root, p, q)
        choice = np.where(gain_up, gain1_higher, np.where(bias0_up | bias1_up, bias1_up, choice))
    raise InternalError("policy iteration failed to converge")


def _has_cycle(parent: np.ndarray) -> bool:
    """Whether the walk v, parent[v], parent[parent[v]], ... loops for some v,
    where parent[v] = len(parent) ends a walk.  Pointer doubling, as in
    `_evaluate`: after log2 n squarings every walk has either
    reached the end or is on its cycle."""
    n = len(parent)
    hop = np.append(parent, n)
    for _ in range(n.bit_length()):
        hop = hop[hop]
    return bool((hop[:n] != n).any())


def _potential(succ0, succ1, value: Fraction) -> np.ndarray | None:
    """The longest-walk potential for w' = den*w - num: the fixpoint of
    pi <- max(pi, relax(pi)) from 0, which exists exactly when no cycle has
    positive w'-weight, i.e. when mu <= value.

    A value below mu makes pi diverge.  After the first log2 n passes, each
    raised state remembers the in-edge of its last strict raise.  A cycle of
    those edges has positive w'-weight: each raise on it used a value of its
    source no larger than the current one, and the raise that followed the
    cycle's latest raise used a strictly smaller one.  Finding such a cycle
    ends the passes at once instead of after n + 1.  Returns None when pi
    diverges: the value is below mu.
    """
    n = len(succ0)
    num, den = value.numerator, value.denominator
    # A window's predecessors differ only in the position shifted out, so it
    # has one or two in-edges, both weighted by its newest bit; first[v] and
    # last[v] are their sources (the same one twice if there is one).  The
    # caller checks every edge against the result, so the certificate stays
    # sound whatever is relaxed here.
    ones = np.flatnonzero(succ1 >= 0)
    src = np.concatenate([np.arange(n), ones])
    dst = np.concatenate([succ0, succ1[ones]])
    first, last = np.full(n, n), np.full(n, -1)
    np.minimum.at(first, dst, src)
    np.maximum.at(last, dst, src)
    if last.min() < 0:
        raise InternalError("a window has no shift predecessor")
    newest = np.zeros(n, dtype=np.int64)
    newest[succ1[ones]] = 1
    w2 = newest * den - num
    rounds = n.bit_length()

    pi = np.zeros(n, dtype=np.int64)
    pred = np.full(n, n, dtype=np.int64)  # n: not raised since tracking began
    for step in range(1, n + 2):
        pi_first, pi_last = pi[first], pi[last]
        best = np.maximum(pi_first, pi_last) + w2
        raised = best > pi
        if not raised.any():
            return pi
        # Most potentials settle within a few passes, so raises are tracked
        # only after the first `rounds`; the cycle argument holds for the
        # raises of any run of consecutive passes.
        if step > rounds:
            np.copyto(pred, np.where(pi_first >= pi_last, first, last), where=raised)
            if step % rounds == 0 and _has_cycle(pred):
                break
        np.copyto(pi, best, where=raised)
    return None


def _tight_cycle(states, succ0, succ1, pi, value: Fraction, L: int) -> list[int] | None:
    """Certify that mu(M) = value and return an optimal cycle's appended bits.

    With w' = den*w - num the claim is that the maximum cycle mean becomes
    0.  `pi` is the converged longest-walk potential of `_potential`, so no
    cycle has positive w'-weight, and pi[u] + w' <= pi[v] on every edge,
    which is checked explicitly: this proves mu <= value.  Every cycle of
    tight edges (pi[u] + w' = pi[v]) telescopes to w'-weight 0, so the first
    one a depth-first search meets attains value: that proves mu >= value
    and is the witness.  Returns None when there is no such cycle: the
    value is above mu.
    """
    n = len(states)
    num, den = value.numerator, value.denominator
    has1 = succ1 >= 0
    slack0 = pi[succ0] - pi + num
    slack1 = np.where(has1, pi[succ1] - pi - den + num, 0)
    if slack0.min() < 0 or slack1.min() < 0:
        raise InternalError("potential violates an edge")
    tight0 = slack0 == 0
    tight1 = has1 & (slack1 == 0)

    def tight_out(v: int) -> Iterator[int]:
        # index order: succ0[v] < succ1[v], as a window with its newest
        # position excluded sorts first.  `item` reads Python scalars
        # without making numpy ones.
        if tight0.item(v):
            yield succ0.item(v)
        if tight1.item(v):
            yield succ1.item(v)

    color = bytearray(n)  # 0 new, 1 on the path, 2 done
    for root in range(n):
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
                return [int(states[v]) >> (L - 1) & 1 for v in cycle]
            elif color[u] == 0:
                color[u] = 1
                path.append(u)
                todo.append(tight_out(u))
    return None


def mu_exact(
    distances: DifferenceSet | Iterable[int],
    *,
    max_window: int = DEFAULT_WINDOW_CAP,
    candidate: Fraction | None = None,
) -> ExactDensity:
    """Exact mu(M) with a periodic witness.

    A value is proved by the integer potential of `_potential` and the
    tight cycle of `_tight_cycle`, which is also the witness.  The first
    value tried is the given `candidate` (such as the closed form delta of
    M's family) or, without one, the greedy policy's best cycle mean
    (`_greedy_cycle_mean`); policy iteration proposes the value only after
    that first one is refuted.  A candidate outside (0, 1], or with a
    denominator above the state count, cannot be mu and is not tried.  The
    witness depends only on the graph and the proved value, so the result
    is the same whichever value was proposed, and `method` is
    "PolicyIteration", the name of this certified pipeline.  Raises
    ResourceLimit when max(M) exceeds `max_window` or the admissible state
    count exceeds the state cap (DENSITYPACK_MAX_STATES, default 2**22),
    InvalidInput when `max_window` or the state cap is below 1, and
    InternalError if policy iteration's value or the witness fails its
    check.
    """
    M = as_difference_set(distances)
    L = M.max_element
    if max_window < 1:
        raise InvalidInput(f"window cap must be >= 1, got {max_window}")
    if L > max_window:
        raise ResourceLimit(f"max(M) = {L} exceeds window cap {max_window}")

    states, succ0, succ1 = _build_state_graph(M, _state_cap())
    if candidate is None:
        candidate = _greedy_cycle_mean(succ0, succ1)
    value, bits = candidate, None
    # mu lies in (0, 1] with denominator at most the state count, so no
    # other candidate is tried; that also keeps the potential within int64.
    if 0 < candidate <= 1 and candidate.denominator <= len(states):
        pi = _potential(succ0, succ1, candidate)
        if pi is not None:
            bits = _tight_cycle(states, succ0, succ1, pi, candidate, L)
    if bits is None:
        value = _policy_iteration(succ0, succ1)
        pi = _potential(succ0, succ1, value)
        if pi is None:
            raise InternalError(f"potential diverges: mu exceeds the proposed {value}")
        bits = _tight_cycle(states, succ0, succ1, pi, value, L)
        if bits is None:
            raise InternalError(f"no cycle attains the proposed {value}: mu is below it")

    witness = PeriodicSet(
        period=len(bits), residues=tuple(t for t, bit in enumerate(bits) if bit)
    )
    if witness.density() != value:
        raise InternalError(f"witness density {witness.density()} != mu = {value}")
    if not check_periodic_avoiding(witness, M):
        raise InternalError(f"witness {witness} does not avoid {tuple(M)}")
    return ExactDensity(
        value=value, witness=witness, states_explored=len(states), method="PolicyIteration"
    )


def best_periodic_density(
    distances: DifferenceSet | Iterable[int], max_period: int
) -> ExactDensity:
    """Best density over periodic avoiding sets with period <= max_period.

    Independent of the mean-cycle machinery: for each period p this is a
    branch-and-bound maximum independent set in the circulant graph on Z_p
    with connection set M mod p.  Any d divisible by p empties that period.
    Always a lower bound for mu(M); equality is a property the tests probe,
    not something this function assumes.
    """
    M = as_difference_set(distances)
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
