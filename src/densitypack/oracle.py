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
is built level by level as window masks with two successor arrays, Howard
policy iteration proposes a value p/q, and a longest-walk potential for the
reweighted graph w' = q*w - p certifies it.  The potential converging, and
satisfying every edge, proves mu <= p/q; a cycle of its tight edges proves
mu >= p/q and is the periodic witness.  Karp's recurrence over the same
arrays is kept as the reference proposer (method "karp"); its value goes
through the same certificate, so both methods return identical results.

A third, entirely independent route -- exhaustive search over periodic sets
of bounded period -- lives in `best_periodic_density` and exists to
cross-examine the mean-cycle answer in tests.

Resource guards: max(M) must stay within a window cap (default 22), the
admissible-state count within a state cap (default 2**22, overridable via
the DENSITYPACK_MAX_STATES environment variable), and window enumeration
length within an enumeration cap (default 26).  Exceeding any raises
ResourceLimit.
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
    "mu_exact",
    "best_periodic_density",
    "check_periodic_avoiding",
    "enumerate_avoiding_windows",
    "max_prefix_weight",
    "window_avoids",
]

DEFAULT_WINDOW_CAP = 22
DEFAULT_ENUM_CAP = 26
DEFAULT_STATE_CAP = 1 << 22
STATE_CAP_ENV = "DENSITYPACK_MAX_STATES"
# The solvers' int64 magnitudes stay below about n**2 for n states.
_INT64_STATE_LIMIT = 1 << 30
_POLICY_ITERATION_CAP = 100_000


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


def window_avoids(window: Window, distances: DifferenceSet | Iterable[int]) -> bool:
    """Whether no two members of the window differ by an element of M."""
    M = as_difference_set(distances)
    return all(window.mask & (window.mask >> d) == 0 for d in M)


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


def _iter_avoiding_masks(M: DifferenceSet, n: int, require_zero: bool) -> Iterator[int]:
    """All M-avoiding bitmasks over [0, n), in lexicographic order of the
    bit string b_0 b_1 ... b_{n-1} (excluding a position sorts first)."""
    conflicts = _conflict_masks(M, n)

    def rec(pos: int, mask: int) -> Iterator[int]:
        if pos == n:
            yield mask
            return
        yield from rec(pos + 1, mask)
        if mask & conflicts[pos] == 0:
            yield from rec(pos + 1, mask | (1 << pos))

    start_mask = 1 if require_zero else 0
    yield from rec(1 if require_zero else 0, start_mask)


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
    M = as_difference_set(distances)
    if n < 1:
        raise InvalidInput(f"window length must be >= 1, got {n}")
    if n > cap:
        raise ResourceLimit(f"window length {n} exceeds enumeration cap {cap}")
    for mask in _iter_avoiding_masks(M, n, require_zero):
        yield Window(n, mask)


def max_prefix_weight(
    distances: DifferenceSet | Iterable[int],
    n: int,
    require_zero: bool = True,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> int:
    """max |A intersect [0, n)| over M-avoiding A (0 in A if require_zero).

    Depth-first with include-first ordering and the trivial remaining-slots
    bound, which prunes hard once a good set is known.
    """
    M = as_difference_set(distances)
    if n < 1:
        raise InvalidInput(f"window length must be >= 1, got {n}")
    if n > cap:
        raise ResourceLimit(f"window length {n} exceeds enumeration cap {cap}")
    conflicts = _conflict_masks(M, n)
    best = 0

    def rec(pos: int, mask: int, cnt: int) -> None:
        nonlocal best
        if cnt + (n - pos) <= best:
            return
        if pos == n:
            best = cnt
            return
        if mask & conflicts[pos] == 0:
            rec(pos + 1, mask | (1 << pos), cnt + 1)
        rec(pos + 1, mask, cnt)

    if require_zero:
        rec(1, 1, 1)
    else:
        rec(0, 0, 0)
    return best


# ──────────────────────────────────────────────────────────────────────────
# mean-cycle oracle
# ──────────────────────────────────────────────────────────────────────────


def _state_cap(max_states: int | None) -> int:
    if max_states is not None:
        return max_states
    env = os.environ.get(STATE_CAP_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInput(f"{STATE_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_STATE_CAP


def _check_state_count(count: int, cap: int) -> None:
    if count > cap:
        raise ResourceLimit(
            f"admissible state count exceeds cap {cap} "
            f"(set {STATE_CAP_ENV} or max_states to raise it)"
        )
    if count > _INT64_STATE_LIMIT:
        raise ResourceLimit(
            f"admissible state count exceeds {_INT64_STATE_LIMIT}, "
            "beyond which the solvers' int64 arithmetic could overflow"
        )


def _build_state_graph(M: DifferenceSet, cap: int):
    """Avoiding windows of length L = max(M) and their shift edges.

    Returns (states, succ0, succ1): `states` holds the window masks in the
    lexicographic order of `_iter_avoiding_masks` (so the all-zero window is
    state 0), appending a 0 moves state i to succ0[i], and appending a 1
    moves it to succ1[i], or succ1[i] = -1 when that would create a
    difference in M.  Windows are extended one position per level; level
    sizes never decrease, so checking each level against the cap stops the
    build before a level beyond it is extended.
    """
    L = M.max_element
    conflicts = _conflict_masks(M, L)
    states = np.zeros(1, dtype=np.int64)
    for t in range(L):
        with_t = (states & conflicts[t]) == 0
        # Each window is followed by its extension with position t, if any:
        # excluding a position sorts first.
        pairs = np.stack([states, states | (1 << t)], axis=1)
        states = pairs[np.stack([np.ones_like(with_t), with_t], axis=1)]
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


def _in_edges(succ0, succ1):
    """The edges grouped by destination, for pull-style relaxation.

    Returns (src, wgt, starts): src and wgt list each edge's source and
    weight sorted by destination, and the edges into v start at starts[v].
    """
    n = len(succ0)
    ones = np.flatnonzero(succ1 >= 0)
    src = np.concatenate([np.arange(n), ones])
    dst = np.concatenate([succ0, succ1[ones]])
    wgt = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(len(ones), dtype=np.int64)])
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=n)
    if counts.min() == 0:
        raise InternalError("a window has no shift predecessor")
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return src[order], wgt[order], starts


def _karp_max_mean(succ0, succ1) -> Fraction:
    """Maximum cycle mean by Karp's recurrence, exact in int64.

    The reference solver.  F_i(v) = max weight of an i-edge walk from the
    all-zero window (state 0) to v; the answer is
    max_v min_j (F_n(v) - F_j(v)) / (n - j).  Runs two relaxation sweeps to
    keep memory at O(V): one to obtain F_n, one re-deriving each F_j while
    maintaining the running minimum ratio per vertex by cross-multiplication.
    """
    n = len(succ0)
    src, wgt, starts = _in_edges(succ0, succ1)

    NEG = np.int64(-(1 << 50))
    NEG_THRESH = NEG // 2

    def relax(F):
        return np.maximum.reduceat(F[src] + wgt, starts)

    F = np.full(n, NEG, dtype=np.int64)
    F[0] = 0
    for _ in range(n):
        F = relax(F)
    F_final = F
    if F_final.min() <= NEG_THRESH:
        raise InternalError("state graph is not strongly connected")

    best_num = np.ones(n, dtype=np.int64)
    best_den = np.zeros(n, dtype=np.int64)  # num/den = +infinity until first hit
    G = np.full(n, NEG, dtype=np.int64)
    G[0] = 0
    for j in range(n):
        if j > 0:
            G = relax(G)
        valid = G > NEG_THRESH
        num = np.where(valid, F_final - G, 0)
        den = n - j
        better = valid & (num * best_den < best_num * den)
        best_num = np.where(better, num, best_num)
        best_den = np.where(better, den, best_den)
    if best_den.min() == 0:
        raise InternalError("Karp's recurrence left a state without a ratio")

    return max(Fraction(int(a), int(b)) for a, b in zip(best_num, best_den))


def _policy_iteration(succ0, succ1) -> Fraction:
    """Howard policy iteration for the maximum cycle mean, exact in int64.

    A policy picks one out-edge per state, starting greedily from the
    weight-1 edge where there is one.  Evaluation works on the policy's
    functional graph by pointer doubling: every state's walk ends in a cycle
    whose smallest state is its root, its gain is the cycle's reduced mean
    p/q, and its bias is the sum of w*q - p along the walk to the root.
    States with equal gains share q, so biases compare as integers, and
    gains compare by cross-multiplication.  Improvement is the usual
    two-stage one (gain first, then bias), switching only on strict
    improvement and to the first best edge, so it terminates.  Returns the
    best gain, which `_tight_cycle` then certifies.
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

        # after `rounds` doublings, land[v] is on v's terminal cycle and
        # low[u] is the smallest state of u's cycle for every cycle state u
        land, low = succ, index
        for _ in range(rounds):
            low = np.minimum(low, low[land])
            land = land[land]
        root = low[land]
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[land] = True
        length = np.bincount(root[on_cycle], minlength=n)[root]
        total = np.bincount(root[on_cycle & choice], minlength=n)[root]
        common = np.gcd(total, length)
        p, q = total // common, length // common

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
            return max(Fraction(int(p[r]), int(q[r])) for r in np.flatnonzero(is_root))
        choice = np.where(gain_up, gain1_higher, np.where(bias0_up | bias1_up, bias1_up, choice))
    raise InternalError("policy iteration failed to converge")


def _tight_cycle(states, succ0, succ1, value: Fraction, L: int) -> list[int]:
    """Certify that mu(M) = value and return an optimal cycle's appended bits.

    With w' = den*w - num the claim is that the maximum cycle mean becomes
    0.  The longest-walk potential pi (fixpoint of pi <- max(pi, relax(pi))
    from 0) converges exactly when no cycle has positive w'-weight, and then
    pi[u] + w' <= pi[v] on every edge, which is checked explicitly: this
    proves mu <= value.  Every cycle of tight edges (pi[u] + w' = pi[v])
    telescopes to w'-weight 0, so the first one a depth-first search meets
    attains value: that proves mu >= value and is the witness.
    """
    n = len(states)
    num, den = value.numerator, value.denominator
    src, wgt, starts = _in_edges(succ0, succ1)
    w2 = wgt * den - num

    pi = np.zeros(n, dtype=np.int64)
    for _ in range(n + 1):
        nxt = np.maximum(pi, np.maximum.reduceat(pi[src] + w2, starts))
        if np.array_equal(nxt, pi):
            break
        pi = nxt
    else:
        raise InternalError(f"potential diverges: mu exceeds the proposed {value}")

    has1 = succ1 >= 0
    slack0 = pi[succ0] - pi + num
    slack1 = np.where(has1, pi[succ1] - pi - den + num, 0)
    if slack0.min() < 0 or slack1.min() < 0:
        raise InternalError("potential violates an edge")
    # adjacency in index order: succ0[v] < succ1[v], as a window with its
    # newest position excluded sorts first
    tight0 = (slack0 == 0).tolist()
    tight1 = (has1 & (slack1 == 0)).tolist()
    s0, s1 = succ0.tolist(), succ1.tolist()
    adj = [
        ([s0[v]] if tight0[v] else []) + ([s1[v]] if tight1[v] else []) for v in range(n)
    ]

    color = bytearray(n)  # 0 new, 1 on the path, 2 done
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        path, todo = [root], [iter(adj[root])]
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
                todo.append(iter(adj[u]))
    raise InternalError(f"no cycle attains the proposed {value}: mu is below it")


def mu_exact(
    distances: DifferenceSet | Iterable[int],
    *,
    max_window: int = DEFAULT_WINDOW_CAP,
    max_states: int | None = None,
    method: str = "auto",
) -> ExactDensity:
    """Exact mu(M) with a periodic witness.

    method "auto" or "policy" proposes the value by int64 policy iteration;
    "karp" uses Karp's recurrence, the slower reference solver.  Either way
    the value is certified and the witness extracted by the same integer
    potential, so both methods return identical values and witnesses.
    Raises ResourceLimit when max(M) exceeds `max_window` or the admissible
    state count exceeds the state cap, and InternalError if a proposed value
    or witness fails its check.
    """
    M = as_difference_set(distances)
    L = M.max_element
    if L > max_window:
        raise ResourceLimit(f"max(M) = {L} exceeds window cap {max_window}")
    if method not in ("auto", "karp", "policy"):
        raise InvalidInput(f"unknown method {method!r}")

    states, succ0, succ1 = _build_state_graph(M, _state_cap(max_states))
    if method == "karp":
        value = _karp_max_mean(succ0, succ1)
        method_name = "Karp"
    else:
        value = _policy_iteration(succ0, succ1)
        method_name = "PolicyIteration"
    bits = _tight_cycle(states, succ0, succ1, value, L)

    witness = PeriodicSet(
        period=len(bits), residues=tuple(t for t, bit in enumerate(bits) if bit)
    )
    if witness.density() != value:
        raise InternalError(f"witness density {witness.density()} != mu = {value}")
    if not check_periodic_avoiding(witness, M):
        raise InternalError(f"witness {witness} does not avoid {tuple(M)}")
    return ExactDensity(
        value=value, witness=witness, states_explored=len(states), method=method_name
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
