"""Shared test utilities: instance generators and independent brute forces.

The brute-force routines here deliberately use a different algorithm from
the package (itertools subset filtering instead of recursive pruning) so
that agreement between the two is meaningful.  The `reference_` routines
are the oracle's earlier stages (searched edges, a numpy-only level loop,
allocate-per-pass solvers, fixed-round pointer doubling, a
generator-driven tight-cycle search) and the mapping harnesses' earlier
array filters (one set of bool rows per walk, pairs compared per chunk),
which the current stages must match exactly; `jacobi_potential` is the
potential with nothing but its relaxation passes.
"""

from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from densitypack import CanonicalParams, InternalError, LemmaViolation, oracle
from densitypack.mappings import _k1_blocks, _k1_steps, _k1_union, _m1_walk, _mask, gap_decompose


# One integer-like value of each kind an integer argument may receive: only
# the numpy int is an integer; the bool, float, Fraction and str are not.
INTEGER_LIKE = [True, np.int64(3), 1.5, Fraction(3), "3"]
# Values that a truth test would read, but that a Boolean argument refuses.
NOT_BOOLS = [1, 2, 8, np.int64(1), None, "no"]


def canonical_instances(
    *,
    max_weight: int | None = None,
    max_n2: int | None = None,
    proved_only: bool = False,
    max_a: int = 60,
    include_equal: bool = False,
):
    """Yield canonical families in lexicographic (a, b, k, m) order.

    Canonical means gcd(a, b) = 1 and b < a; include_equal adds the
    degenerate a = b = 1 family.  Filters: canonical weight k*a + m*b at
    most max_weight, window length n2 at most max_n2, and (optionally) the
    proved regime k = 1 or m = 1.
    """
    assert max_weight is not None or max_n2 is not None, "need a size bound"

    def fits(p: CanonicalParams) -> bool:
        if max_weight is not None and p.weight > max_weight:
            return False
        if max_n2 is not None and p.n2 > max_n2:
            return False
        return True

    for a in range(1, max_a + 1):
        for b in range(1, a + 1):
            if b == a and not (include_equal and a == 1):
                continue
            if math.gcd(a, b) != 1:
                continue
            k = 1
            while fits(CanonicalParams(a=a, b=b, k=k, m=1)):
                m = 1
                while fits(p := CanonicalParams(a=a, b=b, k=k, m=m)):
                    if not proved_only or k == 1 or m == 1:
                        yield p
                    m += 1
                k += 1


def record_potentials(monkeypatch) -> list:
    """Record each value `oracle._potential` is run for and what it
    returned for it: "pi" when the potential converged, else the improved
    value, a cycle's mean, or None for a segment of a diverging union that
    has no cycle of raises.  A run over a union of segments records one
    entry per segment, in order; a single graph is a union of one, so one
    run per `mu_exact` means the first value tried was proved."""
    runs = []
    potential = oracle._potential

    def run(keys, first, last, values, offsets):
        out = potential(keys, first, last, values, offsets)
        runs.extend(zip(values, out if isinstance(out, list) else ["pi"] * len(values)))
        return out

    monkeypatch.setattr(oracle, "_potential", run)
    return runs


def reference_state_graph(M):
    """`oracle._build_state_graph` as it was before its edges were read off
    the last level: the same level loop, then every edge a `searchsorted`
    over the sorted keys.  It returns (keys, succ0, succ1, first, last),
    with the 1-edge searched apart from the 0-edge: succ1[i] is the state
    appending a 1 leads to, or -1 where that would create a difference in
    M."""
    L = max(M)
    keys = np.zeros(1, dtype=np.int64)
    for t in range(L):
        with_t = (keys & sum(1 << (d - 1) for d in M if d <= t)) == 0
        keys = oracle._extend(keys << 1, 0, with_t)
    top = 1 << (L - 1)
    shifted = (keys << 1) & (2 * top - 1)
    succ0 = np.searchsorted(keys, shifted)
    succ1 = np.full(len(keys), -1, dtype=np.int64)
    can_append = (keys & sum(1 << (d - 1) for d in M)) == 0
    succ1[can_append] = np.searchsorted(keys, shifted[can_append] | 1)
    older = keys >> 1
    first = np.searchsorted(keys, older)
    assert (keys[first] == older).all()
    last = np.searchsorted(keys, older | top)
    has_last = (keys.take(last, mode="clip") == older | top) & ((keys & 1) == 0)
    last = np.where(has_last, last, first)
    return keys, succ0, succ1, first, last


def reference_last_level(M, cap: int):
    """`oracle._last_level` as it was before its small levels were built in
    Python ints: every level an int64 array, from `np.arange` of the first,
    each level's size checked against the cap before it is concatenated."""
    L = M.max_element
    oracle._check_mask_bits(L)
    t0 = min(M.elements[0], L - 1)
    oracle._check_state_count(1 << t0, cap)
    P = np.arange(1 << t0, dtype=np.int64)
    conflicts = oracle._conflict_masks(M, L - 1)
    for t in range(t0, L - 1):
        ok = (P & conflicts[t]) == 0
        oracle._check_state_count(len(P) + int(np.count_nonzero(ok)), cap)
        top = P[ok]
        top |= 1 << t
        P = np.concatenate([P, top])
    with_t = (P & sum(1 << (d - 1) for d in M if d < L)) == 0
    n = len(P) + int(np.count_nonzero(with_t))
    oracle._check_state_count(n, cap)
    return P, with_t, n


def reference_cycle_mean(step, ones) -> Fraction | None:
    """`oracle._cycle_mean` as it was written for the greedy stage before
    its buffers were reused: a fixed number of squarings, each allocating
    new arrays, and each cycle's length and count of ones tallied in two
    `bincount` arrays of the state count.  The cycles that are fixed points
    of `step` are left out; None when every cycle is one."""
    n = len(step)
    land, low = step, np.arange(n)
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low[land])
        land = land[land]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[land] = True
    on_cycle &= step != np.arange(n)
    length = np.bincount(low[on_cycle], minlength=n)
    total = np.bincount(low[on_cycle & ones], minlength=n)
    means = [Fraction(int(total[r]), int(length[r])) for r in np.flatnonzero(length)]
    return max(means, default=None)


def reference_kappa(M) -> Fraction:
    """The Cantor-Gordon bound kappa(M) = max over x of min over d in M of
    ||d*x|| by brute force in Fractions, over every x = c/q with
    q <= 3*max(M): a maximum lies at some q = d_i + d_j <= 2*max(M)."""
    return max(
        min(Fraction(min(d * c % q, -d * c % q), q) for d in M)
        for q in range(1, 3 * max(M) + 1)
        for c in range(q)
    )


def reference_potential(keys, first, last, value: Fraction):
    """`oracle._potential` as it was before its buffers were reused: every
    pass allocates pi[first], pi[last], their maximum, the weighted maximum
    and the raised mask, and `pred` and the newest bits are allocated up
    front.  After pass 2, if it raised anything, pi jumps along the chains
    of `last` in-edges: r rounds of pi <- max(pi, S + pi[anc]), S <- S +
    S[anc], anc <- anc[anc] from anc = last and S = w', r the least with
    2**r > 2*m, m the bit length of the largest key, each round allocating
    its arrays.  Raises are tracked from the same pass, after the first
    2*log2 n, and a diverging potential returns the best mean among the
    cycles of `pred` that are not fixed points, by `reference_cycle_mean`."""
    n = len(keys)
    num, den = value.numerator, value.denominator
    newest = keys & 1
    w2 = newest * den - num
    rounds = n.bit_length()
    doublings = (2 * int(keys.max()).bit_length()).bit_length()

    pi = np.zeros(n, dtype=np.int64)
    pred = np.arange(n)
    for step in itertools.count(1):
        pi_first, pi_last = pi[first], pi[last]
        best = np.maximum(pi_first, pi_last) + w2
        raised = best > pi
        if not raised.any():
            return pi
        np.copyto(pi, best, where=raised)
        if step == 2:
            anc, S = last, w2
            for _ in range(doublings):
                pi = np.maximum(pi, S + pi[anc])
                S, anc = S + S[anc], anc[anc]
        if step > 2 * rounds:
            np.copyto(pred, np.where(pi_first >= pi_last, first, last), where=raised)
            if step % rounds == 0:
                if (mean := reference_cycle_mean(pred, newest == 1)) is not None:
                    return mean
                if pi.max() > (n + 2 * rounds + 2**doublings) * den:
                    raise InternalError(f"potential for {value} passed its bound without a cycle")


def jacobi_potential(keys, first, last, values, offsets):
    """The longest-walk potential of a union of graphs (`oracle._potential`)
    by plain Jacobi passes from 0 and nothing else: pi <- max(pi,
    max(pi[first], pi[last]) + w'), each segment j weighted at values[j],
    until a pass changes nothing.  The least fixpoint, where it exists, is
    reached within n passes, n the state count, as no longest walk repeats
    a state; None when it is not."""
    w2 = np.concatenate(
        [
            (keys[start:stop] & 1) * value.denominator - value.numerator
            for start, stop, value in zip(offsets, offsets[1:], values)
        ]
    )
    pi = np.zeros(len(keys), dtype=np.int64)
    for _ in range(len(keys) + 1):
        relaxed = np.maximum(pi, np.maximum(pi[first], pi[last]) + w2)
        if np.array_equal(relaxed, pi):
            return pi
        pi = relaxed
    return None


def reference_tight_cycle(keys, succ0, can1, pi, values, offsets) -> list:
    """`oracle._tight_cycle` as it was before its search ran over flat
    arrays: the same edge check, then a depth-first search that makes one
    generator of tight out-edges per state it visits and reads each bit by
    numpy's `item`.  Each segment's first cycle of tight edges as appended
    bits, or None; `_tight_cycle` must return the same list."""
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
    del slack

    def tight_out(v: int) -> Iterator[int]:
        # index order: the 0-edge leads to the state before the 1-edge's.
        # `item` reads Python scalars without making numpy ones.
        if tight0.item(v):
            yield succ0.item(v)
        if tight1.item(v):
            yield succ0.item(v) + 1

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


def reference_walk_stop(alpha: int, p: CanonicalParams, route: str, translates) -> int | None:
    """Where the offset walk of band element alpha first meets I (the
    offsets in `translates`), or None when it ends outside I: route "m" is
    the m = 1 map, "k" the k = 1 map.  Written from the recurrences in the
    `densitypack.mappings` docstring alone, with none of its helpers.

    m = 1: alpha = i*a + j*b + off in band i walks off + n*(a - b),
    n = 0, 1, ..., up to the first offset at least 2*b - a, when j = 1;
    for j >= 2 there is no walk.  k = 1: alpha = j0*b + off0 walks the
    Euclidean pairs (eta_n, off_n) of alpha + n*(a - b) by b until
    eta_{n+1} >= m + 1, when j0 <= m; for j0 > m there is no walk.  In
    both, I wins a tie with the threshold.
    """
    a, b = p.a, p.b
    if route == "m":
        j, x = divmod(alpha % a, b)
        while j == 1:
            if x in translates:
                return x
            if x >= 2 * b - a:
                return None
            x += a - b
        return None
    x = alpha
    if x // b > p.m:
        return None
    while True:
        if x % b in translates:
            return x % b
        x += a - b
        if x // b >= p.m + 1:
            return None


@dataclass(frozen=True, slots=True)
class ReferenceWalk:
    """The fixed trajectory of one band position alpha, as the earlier
    filters held it: the (quotient, offset, witness mask) steps of
    `_m1_walk` or `_k1_steps`, and the end, what a row that passes every
    step without meeting I maps to (w for m = 1, the hole-image mask for
    k = 1), or None when the reference raises for every such row."""

    alpha: int
    steps: tuple[tuple[int | None, int, int], ...]
    end: int | None


def reference_walk_rows(batch, walk: ReferenceWalk):
    """(has, stops, ended, bad) for the rows of a batch: has holds alpha,
    stops[n] first meets I at step n, ended reaches the end without
    meeting I, and bad misses a translate witness on the way."""
    has = (batch.masks & (1 << walk.alpha)) != 0
    walking = has.copy()
    bad = np.zeros_like(has)
    stops = []
    for _, off, witness in walk.steps:
        stop = walking & ((batch.i_mask & (1 << off)) != 0)
        walking &= ~stop
        bad |= walking & ((batch.masks & witness) == 0)
        stops.append(stop)
    return has, stops, walking, bad


def reference_m1_plan(p: CanonicalParams) -> list[tuple[ReferenceWalk, int, int]]:
    """(walk, band, v) per band position of an m = 1 family, in increasing
    alpha: the steps of `_m1_walk`, and its w as the end; every walk gets
    one, with or without steps."""
    walks = []
    for i in range(p.k):
        for alpha in range(i * p.a + p.b + 1, (i + 1) * p.a):
            steps, v, w = _m1_walk(gap_decompose(alpha, p), p)
            walks.append((ReferenceWalk(alpha, steps, w), i, v))
    return walks


def reference_m1_flags(batch, p: CanonicalParams, walks) -> np.ndarray:
    """The rows the m = 1 plan's `mappings._plan_flags` must flag, as the
    earlier filter found them walk by walk: the count bound, each walk's
    own terms (a missed witness, v or w in A), and the pairwise terms of
    every two walks, found per chunk by intersecting their dicts of w rows
    keyed by position.  The plan has no count-bound term, so the two agree
    only because its images imply the bound."""
    k = p.k
    flags = (k + 1) * batch.n_t > k * (batch.n_i + batch.n_u)
    has, w_rows = [], []
    for walk, _, v in walks:
        rows, stops, ended, bad = reference_walk_rows(batch, walk)
        flags |= bad | (rows & ((batch.masks & (1 << v)) != 0))
        w_of: dict[int, np.ndarray] = {}  # x -> the rows whose w is x
        for (_, off, _), stop in zip(walk.steps, stops):
            w_of[off] = w_of.get(off, False) | stop
        w_of[walk.end] = w_of.get(walk.end, False) | ended
        flags |= ended & ((batch.masks & (1 << walk.end)) != 0)
        has.append(rows)
        w_rows.append(w_of)
    for hi, (_, band_a, v_a) in enumerate(walks):
        for lo, (_, band_b, v_b) in enumerate(walks[:hi]):
            w_a, w_b = w_rows[hi], w_rows[lo]
            if v_a == v_b:
                flags |= has[hi] & has[lo]
            if v_b in w_a:
                flags |= w_a[v_b] & has[lo]
            for x in w_a.keys() & w_b.keys():
                flags |= w_a[x] & w_b[x]
            if v_a in w_b and band_a <= band_b:
                flags |= w_b[v_a] & has[hi]
    return flags


def reference_k1_plan(p: CanonicalParams) -> list[ReferenceWalk]:
    """One walk per band position of a k = 1 family, in increasing alpha:
    no steps for a quotient j0 > m, else those of `_k1_steps`; the end is
    the mask of the union of `_k1_blocks`, or None when `_k1_union`
    refuses it."""
    walks = []
    for alpha in range(p.b + 1, p.a):
        j0 = gap_decompose(alpha, p).quotient
        steps = _k1_steps(alpha, p)[0] if j0 <= p.m else ()
        end = None
        with suppress(LemmaViolation):
            end = _mask(_k1_union(alpha, *_k1_blocks(alpha, j0, steps, p), p))
        walks.append(ReferenceWalk(alpha, steps, end))
    return walks


def reference_k1_flags(batch, p: CanonicalParams, walks: list[ReferenceWalk]) -> np.ndarray:
    """The rows the k = 1 plan's `mappings._plan_flags` must flag, as the
    earlier filter found them walk by walk: the count bound, a missed
    witness, a translate target taken twice, and a hole image that meets A
    or the hole images of the walks before it.  As for m = 1, the plan has
    no count-bound term of its own."""
    m = p.m
    flags = (m + 1) * batch.n_t > (m + 1) * batch.n_i + batch.n_u
    taken: dict[int, np.ndarray] = {}
    holes = np.zeros(len(batch), dtype=np.int64)
    for walk in walks:
        _, stops, ended, bad = reference_walk_rows(batch, walk)
        flags |= bad
        for (_, off, _), stop in zip(walk.steps, stops):
            flags |= stop & taken.get(off, False)
            taken[off] = taken.get(off, False) | stop
        if walk.end is None:
            flags |= ended
        else:
            flags |= ended & (((batch.masks | holes) & walk.end) != 0)
            holes |= ended * walk.end
    return flags


def brute_avoiding_masks(distances, n: int, require_zero: bool) -> list[int]:
    """All avoiding bitmasks over [0, n) by checking every subset shift."""
    M = tuple(distances)
    out = []
    for mask in range(1 << n):
        if require_zero and not mask & 1:
            continue
        if all(mask & (mask >> d) == 0 for d in M):
            out.append(mask)
    return out


def iter_avoiding_masks(distances, n: int, require_zero: bool):
    """All avoiding bitmasks over [0, n) by recursive depth-first search, in
    lexicographic order of the bit string b_0 b_1 ... b_{n-1} (excluding a
    position sorts first): the reference order of the package's
    level-by-level enumeration."""
    M = sorted(distances)
    conflicts = [sum(1 << (t - d) for d in M if d <= t) for t in range(n)]

    def rec(pos: int, mask: int):
        if pos == n:
            yield mask
            return
        yield from rec(pos + 1, mask)
        if mask & conflicts[pos] == 0:
            yield from rec(pos + 1, mask | (1 << pos))

    yield from rec(1, 1) if require_zero else rec(0, 0)


def karp_max_mean(succ0, can1) -> Fraction:
    """Maximum cycle mean of a state graph by Karp's recurrence (Karp 1978),
    exact in int64: the independent reference for the package's oracle,
    on the same (succ0, can1) arrays from `_build_state_graph`, whose
    1-edges lead from u to succ0[u] + 1 where can1[u].

    F_j(v) is the largest weight of a j-edge walk from state 0 to v, and the
    answer is max_v min_j (F_n(v) - F_j(v)) / (n - j).  Two relaxation sweeps
    keep memory at O(n): one for F_n, and one re-deriving each F_j while
    keeping every state's smallest ratio by cross-multiplication.  Time is
    O(n^2), so it suits small graphs only.
    """
    n = len(succ0)
    ones = np.flatnonzero(can1)
    src = np.concatenate([np.arange(n), ones])
    dst = np.concatenate([succ0, succ0[ones] + 1])
    wgt = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(len(ones), dtype=np.int64)])
    order = np.argsort(dst, kind="stable")
    src, wgt = src[order], wgt[order]
    counts = np.bincount(dst, minlength=n)
    assert counts.min() > 0, "a state has no in-edge"
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])

    NEG = np.int64(-(1 << 50))

    def relax(F):
        return np.maximum.reduceat(F[src] + wgt, starts)

    F = np.full(n, NEG, dtype=np.int64)
    F[0] = 0
    for _ in range(n):
        F = relax(F)
    assert F.min() > NEG // 2, "state graph is not strongly connected"

    best_num = np.ones(n, dtype=np.int64)
    best_den = np.zeros(n, dtype=np.int64)  # num/den = +infinity until first hit
    G = np.full(n, NEG, dtype=np.int64)
    G[0] = 0
    for j in range(n):
        if j > 0:
            G = relax(G)
        valid = G > NEG // 2
        num = np.where(valid, F - G, 0)
        better = valid & (num * best_den < best_num * (n - j))
        best_num = np.where(better, num, best_num)
        best_den = np.where(better, n - j, best_den)
    assert best_den.min() > 0, "a state has no ratio"
    return max(Fraction(int(a), int(b)) for a, b in zip(best_num, best_den))


def brute_best_periodic(distances, max_period: int):
    """(best density, (period, residues) witness) by raw subset search."""
    M = tuple(distances)
    best = Fraction(0)
    witness = None
    for p in range(1, max_period + 1):
        if any(d % p == 0 for d in M):
            continue
        for size in range(p, 0, -1):
            if Fraction(size, p) <= best:
                break
            found = None
            for combo in combinations(range(p), size):
                chosen = set(combo)
                if all((x + d) % p not in chosen for x in chosen for d in M):
                    found = combo
                    break
            if found:
                best = Fraction(size, p)
                witness = (p, found)
                break
    return best, witness
