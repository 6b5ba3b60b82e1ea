"""Shared test utilities: instance generators and independent brute forces.

The brute-force routines here deliberately use a different algorithm from
the package (itertools subset filtering instead of recursive pruning) so
that agreement between the two is meaningful.  The `reference_` routines
are the oracle's earlier stages (searched edges, allocate-per-pass
solvers, fixed-round pointer doubling), which the current stages must
match exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from densitypack import CanonicalParams, InternalError, oracle


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
    over the sorted keys."""
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


def reference_greedy_cycle_mean(succ0, succ1) -> Fraction:
    """The greedy policy's best cycle mean by `reference_cycle_mean`."""
    ones = succ1 >= 0
    return reference_cycle_mean(np.where(ones, succ1, succ0), ones)


def reference_potential(keys, first, last, value: Fraction):
    """`oracle._potential` as it was before its buffers were reused: every
    pass allocates pi[first], pi[last], their maximum, the weighted maximum
    and the raised mask, and `pred` and the newest bits are allocated up
    front.  A diverging potential returns the best mean among the cycles of
    `pred` that are not fixed points, by `reference_cycle_mean`."""
    n = len(keys)
    num, den = value.numerator, value.denominator
    newest = keys & 1
    w2 = newest * den - num
    rounds = n.bit_length()

    pi = np.zeros(n, dtype=np.int64)
    pred = np.arange(n)
    for step in itertools.count(1):
        pi_first, pi_last = pi[first], pi[last]
        best = np.maximum(pi_first, pi_last) + w2
        raised = best > pi
        if not raised.any():
            return pi
        np.copyto(pi, best, where=raised)
        if step > rounds:
            np.copyto(pred, np.where(pi_first >= pi_last, first, last), where=raised)
            if step % rounds == 0:
                if (mean := reference_cycle_mean(pred, newest == 1)) is not None:
                    return mean
                if pi.max() > (n + rounds) * den:
                    raise InternalError(f"potential for {value} passed its bound without a cycle")


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


def karp_max_mean(succ0, succ1) -> Fraction:
    """Maximum cycle mean of a state graph by Karp's recurrence (Karp 1978),
    exact in int64: the independent reference for the package's oracle,
    on the same (succ0, succ1) arrays from `_build_state_graph`.

    F_j(v) is the largest weight of a j-edge walk from state 0 to v, and the
    answer is max_v min_j (F_n(v) - F_j(v)) / (n - j).  Two relaxation sweeps
    keep memory at O(n): one for F_n, and one re-deriving each F_j while
    keeping every state's smallest ratio by cross-multiplication.  Time is
    O(n^2), so it suits small graphs only.
    """
    n = len(succ0)
    ones = np.flatnonzero(succ1 >= 0)
    src = np.concatenate([np.arange(n), ones])
    dst = np.concatenate([succ0, succ1[ones]])
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
