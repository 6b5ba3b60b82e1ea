"""Window machinery, exhaustive enumeration, and the exact density oracle."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densitypack import (
    InternalError,
    InvalidInput,
    PeriodicSet,
    RawParams,
    ResourceLimit,
    Window,
    as_difference_set,
    best_periodic_density,
    canonicalize,
    check_periodic_avoiding,
    conjectured_density,
    enumerate_avoiding_windows,
    forbidden_differences,
    mu_exact,
)
from densitypack import cli, oracle
from densitypack.oracle import DEFAULT_ENUM_CAP, STATE_CAP_ENV
from helpers import (
    INTEGER_LIKE,
    NOT_BOOLS,
    brute_avoiding_masks,
    brute_best_periodic,
    iter_avoiding_masks,
    karp_max_mean,
    record_potentials,
    reference_cycle_mean,
    reference_greedy_cycle_mean,
    reference_potential,
    reference_state_graph,
)

GOLDEN_MU = [
    ((1, 5, 6), Fraction(2, 7)),
    ((1, 4, 5), Fraction(1, 3)),
    ((1, 3, 4), Fraction(2, 7)),
    ((2, 3, 5, 6, 8), Fraction(1, 5)),
]


def random_difference_set(rng: random.Random, max_element: int = 9) -> tuple[int, ...]:
    size = rng.randint(1, 4)
    return tuple(sorted(rng.sample(range(1, max_element + 1), size)))


def check_state_graph(M):
    """`_build_state_graph` against the recursive enumeration, in which bit
    j of a mask is the j-th oldest position: the keys are those masks
    bit-reversed, succ0/succ1 their shifts, and first/last the smallest and
    largest source of each window's in-edges."""
    L = max(M)
    keys, succ0, succ1, first, last = oracle._build_state_graph(as_difference_set(M), 1 << 22)
    masks = list(iter_avoiding_masks(M, L, False))
    assert keys.tolist() == [int(format(mask, f"0{L}b")[::-1], 2) for mask in masks]
    index = {mask: i for i, mask in enumerate(masks)}
    sources = [[] for _ in masks]
    for i, mask in enumerate(masks):
        assert succ0[i] == index[mask >> 1]
        sources[succ0[i]].append(i)
        # the appended position must avoid the whole old window
        new = mask | 1 << L
        ok = all(new & (new >> d) == 0 for d in M)
        assert succ1[i] == (index[mask >> 1 | 1 << (L - 1)] if ok else -1)
        if ok:
            sources[succ1[i]].append(i)
    assert first.tolist() == [min(s) for s in sources]
    assert last.tolist() == [max(s) for s in sources]


class TestWindow:
    def test_round_trip(self):
        w = Window.from_members(11, [0, 3, 7, 10])
        assert w.members() == (0, 3, 7, 10)
        assert w.length == 11
        assert 3 in w and 4 not in w and 11 not in w and "3" not in w

    def test_count_below(self):
        # A prefix of length -1 used to raise a bare ValueError.
        w = Window.from_members(11, [0, 3, 7, 10])
        assert [w.count_below(n) for n in (-1, 0, 1, 3, 4, 11, 99)] == [0, 0, 1, 1, 2, 4, 4]

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_count_below_reads_an_integer(self, value):
        w = Window.from_members(11, [0, 3, 7, 10])
        if isinstance(value, np.integer):
            assert w.count_below(value) == 1 and type(w.count_below(value)) is int
            assert w.count_below(-value) == 0
        else:
            with pytest.raises(InvalidInput, match="prefix length must be an integer"):
                w.count_below(value)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_membership_reads_an_integer(self, value):
        # np.int64(3) used to be reported missing; True is not position 1.
        w = Window.from_members(5, [1, 3])
        assert (value in w) is isinstance(value, np.integer)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Window(0, 0)
        with pytest.raises(InvalidInput):
            Window(3, 1 << 3)
        with pytest.raises(InvalidInput):
            Window.from_members(3, [3])
        with pytest.raises(InvalidInput):
            Window.from_members(3, [-1])
        with pytest.raises(InvalidInput, match="cannot read members from 3"):
            Window.from_members(5, 3)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_members_are_read_as_integers(self, value):
        # [1.5] and ["2"] used to escape as bare TypeErrors, and [True] was
        # accepted as position 1.
        if isinstance(value, np.integer):
            w = Window.from_members(5, [1, value])
            assert w == Window(5, 0b1010) and type(w.mask) is int
            assert Window.from_members(value + 1, [value]) == Window(4, 0b1000)
        else:
            with pytest.raises(InvalidInput, match="member must be an integer"):
                Window.from_members(5, [value])

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_fields_are_read_as_integers(self, value):
        # Window(True, 1) used to be accepted, and Window(3.0, 1) escaped as
        # a bare TypeError.
        if isinstance(value, np.integer):
            w = Window(value, value)
            assert (type(w.length), type(w.mask)) == (int, int)
            assert w == Window(3, 3)
        else:
            with pytest.raises(InvalidInput, match="length must be an integer"):
                Window(value, 1)
            with pytest.raises(InvalidInput, match="mask must be an integer"):
                Window(3, value)


class TestPeriodicSet:
    def test_density(self):
        assert PeriodicSet(period=7, residues=(0, 3)).density() == Fraction(2, 7)
        assert PeriodicSet(period=5, residues=()).density() == 0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            PeriodicSet(period=0, residues=())
        with pytest.raises(InvalidInput):
            PeriodicSet(period=5, residues=(5,))
        with pytest.raises(InvalidInput):
            PeriodicSet(period=5, residues=(3, 1))
        with pytest.raises(InvalidInput):
            PeriodicSet(period=5, residues=(1, 1))
        with pytest.raises(InvalidInput, match="cannot read residues from 3"):
            PeriodicSet(5, 3)
        # This used to raise a bare AttributeError.
        with pytest.raises(InvalidInput, match="periodic set must be a PeriodicSet, got 5"):
            check_periodic_avoiding(5, [1])

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_fields_are_read_as_integers(self, value):
        # PeriodicSet(True, (0,)) used to be accepted.
        if isinstance(value, np.integer):
            s = PeriodicSet(period=value, residues=(0, value - 1))
            assert type(s.period) is int and list(map(type, s.residues)) == [int, int]
            assert s == PeriodicSet(period=3, residues=(0, 2))
        else:
            with pytest.raises(InvalidInput, match="period must be an integer"):
                PeriodicSet(period=value, residues=(0,))
            with pytest.raises(InvalidInput, match="residue must be an integer"):
                PeriodicSet(period=5, residues=(0, value))

    def test_avoiding_check_wraps_modulo_period(self):
        # 0 and 0+5 coincide mod 5, so {0} with period 5 fails against d=5.
        assert not check_periodic_avoiding(PeriodicSet(period=5, residues=(0,)), [5])
        assert check_periodic_avoiding(PeriodicSet(period=7, residues=(0, 3)), [1, 5, 6])
        assert not check_periodic_avoiding(PeriodicSet(period=7, residues=(0, 5)), [1, 5, 6])


class TestEnumeration:
    def test_matches_brute_force(self):
        rng = random.Random(202)
        for _ in range(25):
            M = random_difference_set(rng)
            n = rng.randint(1, 12)
            for require_zero in (True, False):
                got = [w.mask for w in enumerate_avoiding_windows(M, n, require_zero)]
                assert sorted(got) == brute_avoiding_masks(M, n, require_zero)

    def test_lexicographic_order(self):
        # Exclude-first recursion: read bits left to right, absent < present.
        for M, n in [((1, 5, 6), 9), ((2, 3), 8), ((1,), 6)]:
            got = [w.mask for w in enumerate_avoiding_windows(M, n, False)]
            key = lambda mask: tuple(mask >> i & 1 for i in range(n))
            assert got == sorted(got, key=key)

    def test_frozen_census_for_156(self):
        wins = list(enumerate_avoiding_windows([1, 5, 6], 7, require_zero=True))
        assert [w.members() for w in wins] == [
            (0,),
            (0, 4),
            (0, 3),
            (0, 2),
            (0, 2, 4),
        ]

    def test_limits(self):
        with pytest.raises(InvalidInput):
            list(enumerate_avoiding_windows([1], 0))
        with pytest.raises(ResourceLimit):
            list(enumerate_avoiding_windows([1], 27, cap=26))
        with pytest.raises(ResourceLimit):
            next(enumerate_avoiding_windows([1], DEFAULT_ENUM_CAP + 1))
        # the cap is adjustable
        assert sum(1 for _ in enumerate_avoiding_windows([1], 27, cap=27)) > 0
        # require_zero is a bool: 2 used to yield windows holding 1 and not 0,
        # and None, "no" and 8 escaped as TypeError, ValueError and IndexError.
        for flag in (True, False):
            masks = [w.mask for w in enumerate_avoiding_windows([1, 5, 6], 7, flag)]
            assert [w.mask for w in enumerate_avoiding_windows([1, 5, 6], 7, np.bool_(flag))] == masks
        for bad in NOT_BOOLS:
            with pytest.raises(InvalidInput, match="require_zero must be a bool"):
                next(enumerate_avoiding_windows([1, 5, 6], 7, require_zero=bad))
        # masks are int64, so 63 positions at most, whatever the caps
        with pytest.raises(ResourceLimit, match="int64"):
            list(enumerate_avoiding_windows(range(1, 65), 64, cap=64))
        with pytest.raises(ResourceLimit, match="int64"):
            mu_exact(range(1, 65), max_window=64)
        assert len(list(enumerate_avoiding_windows(range(1, 64), 63, cap=63))) == 1

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cap_must_be_positive(self, cap):
        # A cap below 1 is bad input, not a limit that was hit.
        with pytest.raises(InvalidInput, match=f"enumeration cap must be >= 1, got {cap}"):
            oracle.check_enum_length(3, cap)
        with pytest.raises(InvalidInput, match="enumeration cap"):
            next(enumerate_avoiding_windows([1], 3, cap=cap))

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_length_and_cap_are_read_as_integers(self, value):
        # A length of 7.0 used to escape as a bare TypeError, and a cap of
        # 7.5 was accepted.
        if isinstance(value, np.integer):
            assert [w.mask for w in enumerate_avoiding_windows([1], value)] == [1, 5]
            assert all(type(w.length) is int for w in enumerate_avoiding_windows([1], value))
            assert [w.mask for w in enumerate_avoiding_windows([1], 3, cap=value)] == [1, 5]
        else:
            with pytest.raises(InvalidInput, match="window length must be an integer"):
                next(oracle.avoiding_mask_chunks([1, 5, 6], value))
            with pytest.raises(InvalidInput, match="enumeration cap must be an integer"):
                oracle.check_enum_length(3, value)

    def test_chunks_are_bounded_and_contiguous(self, monkeypatch):
        # Both enumeration routes (with and without position 0 forced in),
        # on a fixed M and on random ones, give the reference order.
        rng = random.Random(909)
        cases = [((1, 5, 6), 14)]
        cases += [(random_difference_set(rng, max_element=10), rng.randint(6, 14)) for _ in range(6)]
        monkeypatch.setattr(oracle, "_CHUNK_WINDOWS", 3)
        for M, n in cases:
            for require_zero in (True, False):
                whole = list(iter_avoiding_masks(M, n, require_zero))
                chunks = [c.tolist() for c in oracle.avoiding_mask_chunks(M, n, require_zero)]
                assert max(map(len, chunks)) <= 3 and len(chunks) > 1
                assert [mask for c in chunks for mask in c] == whole


class TestMuExact:
    def test_goldens(self):
        for M, mu in GOLDEN_MU:
            assert mu_exact(M).value == mu

    def test_single_distance(self):
        out = mu_exact([1])
        assert out.value == Fraction(1, 2)
        assert out.witness.period == 2

    def test_witness_invariants(self):
        for M, _ in GOLDEN_MU:
            out = mu_exact(M)
            assert out.witness.density() == out.value
            assert check_periodic_avoiding(out.witness, M)
            assert out.method == "PolicyIteration"

    def test_states_explored_counts_avoiding_windows(self):
        for M in [(1, 5, 6), (1, 3, 4), (2, 3, 5, 6, 8)]:
            L = max(M)
            expected = sum(1 for _ in enumerate_avoiding_windows(M, L, False))
            assert mu_exact(M).states_explored == expected

    def test_state_graph_matches_recursive_enumeration(self):
        rng = random.Random(707)
        for _ in range(20):
            check_state_graph(random_difference_set(rng, max_element=12))

    def test_karp_and_oracle_agree(self):
        rng = random.Random(404)
        for _ in range(12):
            M = random_difference_set(rng)
            _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(M), 1 << 22)
            out = mu_exact(M)
            assert karp_max_mean(succ0, succ1) == out.value
            assert check_periodic_avoiding(out.witness, M)
            assert out.witness.density() == out.value

    def test_window_cap(self):
        with pytest.raises(ResourceLimit):
            mu_exact([1, 23])
        assert mu_exact([1, 23], max_window=23).value > 0

    @pytest.mark.parametrize("cap", [0, -3])
    def test_window_cap_must_be_positive(self, cap):
        with pytest.raises(InvalidInput, match=f"window cap must be >= 1, got {cap}"):
            mu_exact([1, 5, 6], max_window=cap)

    @pytest.mark.parametrize("bad", [[1.5, 5, 6], ["1", 5, 6], [Fraction(1), 5, 6]])
    def test_non_integer_distances_are_refused(self, bad):
        # Truncating 1.5 to 1 would return mu({1, 5, 6}) = 2/7.
        with pytest.raises(InvalidInput):
            mu_exact(bad)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_window_cap_is_read_as_an_integer(self, value):
        # A numpy int is accepted; 23.5 used to be compared as a float.
        if isinstance(value, np.integer):
            assert mu_exact([1, 2], max_window=value).value == Fraction(1, 3)
        else:
            with pytest.raises(InvalidInput, match="window cap must be an integer"):
                mu_exact([1, 2], max_window=value)

    def test_state_cap_argument(self, monkeypatch):
        monkeypatch.setenv(STATE_CAP_ENV, "4")
        with pytest.raises(ResourceLimit, match=f"set {STATE_CAP_ENV} to raise it"):
            mu_exact([1, 5, 6])

    def test_int64_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "_INT64_STATE_LIMIT", 17)
        with pytest.raises(ResourceLimit, match="int64"):
            mu_exact([1, 5, 6])

    def test_state_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv(STATE_CAP_ENV, "4")
        with pytest.raises(ResourceLimit):
            mu_exact([1, 5, 6])
        monkeypatch.setenv(STATE_CAP_ENV, "many")
        with pytest.raises(InvalidInput):
            mu_exact([1, 5, 6])

    @pytest.mark.parametrize("cap", [0, -5])
    def test_state_cap_must_be_positive(self, monkeypatch, capsys, cap):
        monkeypatch.setenv(STATE_CAP_ENV, str(cap))
        with pytest.raises(InvalidInput, match=f"{STATE_CAP_ENV} must be positive"):
            mu_exact([1, 5, 6])
        assert cli.main(["mu", "--distances", "1,5,6"]) == 2
        assert capsys.readouterr().err == f"error: {STATE_CAP_ENV} must be positive, got {cap}\n"

    def test_state_cap_is_checked_on_the_full_count(self, monkeypatch):
        # {1, 23} has exactly 75025 avoiding windows of length 23.
        monkeypatch.setenv(STATE_CAP_ENV, "75024")
        with pytest.raises(ResourceLimit):
            mu_exact([1, 23], max_window=23)
        monkeypatch.setenv(STATE_CAP_ENV, "75025")
        assert mu_exact([1, 23], max_window=23).states_explored == 75025

    def test_refused_graph_never_exceeds_the_cap(self, monkeypatch):
        # Each level is checked before it is allocated, not after.
        sizes = []
        real_extend = oracle._extend

        def extend(*args):
            level = real_extend(*args)
            sizes.append(len(level))
            return level

        monkeypatch.setattr(oracle, "_extend", extend)
        monkeypatch.setenv(STATE_CAP_ENV, "1000")
        with pytest.raises(ResourceLimit, match="exceeds cap 1000"):
            mu_exact([1, 23], max_window=23)
        assert sizes and max(sizes) <= 1000

    def test_scaling_invariance(self):
        base = mu_exact([1, 5, 6]).value
        assert mu_exact([2, 10, 12]).value == base

    def test_cantor_gordon_two_distances(self):
        # Cantor & Gordon (1973): mu({a, b}) = floor((a + b) / 2) / (a + b)
        # for coprime a, b.
        for b in range(2, 17):
            for a in range(1, b):
                if math.gcd(a, b) == 1:
                    expected = Fraction((a + b) // 2, a + b)
                    assert mu_exact([a, b]).value == expected, (a, b)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=5))
def test_state_graph_edges_match_recursive_enumeration(distances):
    check_state_graph(sorted(distances))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sets(st.integers(1, 20), min_size=1, max_size=5))
@example({20})
@example({1, 20})
def test_state_graph_equals_the_searched_reference(distances):
    # The edges read off the last level are the searched ones, byte for byte.
    M = sorted(distances)
    built = oracle._build_state_graph(as_difference_set(M), 1 << 22)
    for got, expected in zip(built, reference_state_graph(M), strict=True):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class _OneWrongEdge:
    """numpy as `oracle` sees it, except that its `which`-th `take` first
    changes entry 0 of its indices: one edge of the array being checked."""

    def __init__(self, which: int):
        self.which = which

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, indices, *args, **kwargs):
        if self.which == 0:
            indices[0] = 1 - indices[0]
        self.which -= 1
        return np.take(a, indices, *args, **kwargs)


@pytest.mark.parametrize(
    "which, message",
    [(0, "0-edge does not lead"), (1, "1-edge does not lead"), (2, "no shift predecessor")],
)
def test_state_graph_checks_every_edge_it_reads_off(monkeypatch, which, message):
    # The build gathers succ0, succ1 and first, in that order, to check them.
    monkeypatch.setattr(oracle, "np", _OneWrongEdge(which))
    with pytest.raises(InternalError, match=message):
        oracle._build_state_graph(as_difference_set([1, 5, 6]), 1 << 22)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=5))
def test_karp_and_oracle_identical_with_avoiding_witness(distances):
    M = sorted(distances)
    _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(M), 1 << 22)
    out = mu_exact(M)
    assert karp_max_mean(succ0, succ1) == out.value
    period, residues = out.witness.period, out.witness.residues
    assert all((x + d - y) % period for x in residues for y in residues for d in M)
    assert out.witness.density() == out.value


def test_peak_memory_per_state():
    # tracemalloc sees numpy's buffers, so the peak repeats to a few kB.  The
    # graph's five int64 arrays are 40 B per state; each stage holds a few
    # more arrays of the state count and reuses them on every pass.  The
    # allocate-per-pass stages peaked at 113 B per state (8.48 MB).
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = mu_exact((1, 23), max_window=23)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.states_explored == 75_025 and out.value == Fraction(1, 2)
    assert peak <= 80 * out.states_explored, peak / out.states_explored


def test_peak_memory_per_state_of_the_set_up_stages():
    # Peaks above the start, so both count the graph's 40 B per state.  The
    # build fills its four edge arrays in place, each one scratch for the
    # checks until its turn; the greedy stage holds two int64 arrays of the
    # state count and two bool arrays.  The searched build peaked at 57 B
    # per state, and the fixed-round greedy stage at 65.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        keys, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set((1, 23)), 1 << 22)
        build = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        value = oracle._greedy_cycle_mean(succ0, succ1)
        greedy = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n = len(keys)
    assert n == 75_025 and value == Fraction(1, 2)
    assert build <= 50 * n, build / n
    assert greedy <= 60 * n, greedy / n


class TestCandidate:
    """A candidate value is certified first; a wrong one is improved or
    replaced by the greedy start."""

    @pytest.mark.parametrize("value", INTEGER_LIKE + [0.25])
    def test_candidate_is_read_as_a_fraction(self, value):
        # 0.25 used to escape as an AttributeError, "1/3" as a TypeError,
        # and True was accepted.
        if isinstance(value, (np.integer, Fraction)):
            assert mu_exact([1, 5, 6], candidate=value) == mu_exact([1, 5, 6])
        else:
            with pytest.raises(InvalidInput, match="candidate must be a Fraction or an integer"):
                mu_exact([1, 5, 6], candidate=value)

    def test_right_candidate_skips_policy_iteration(self, monkeypatch):
        # One potential run proves the candidate: no improvement round and
        # no greedy start.
        expected = mu_exact([1, 5, 6])
        runs = record_potentials(monkeypatch)
        assert mu_exact([1, 5, 6], candidate=Fraction(2, 7)) == expected
        assert runs == [(Fraction(2, 7), "pi")]

    @pytest.mark.parametrize(
        "M, wrong",
        [
            ((1, 5, 6), Fraction(1, 4)),  # below mu: the potential diverges
            ((1, 5, 6), Fraction(1, 3)),  # above mu: no tight cycle
            ((1, 20), Fraction(9, 19)),  # just below 10/21, on 17,711 states
            ((1, 5, 6), Fraction(2, 7) + Fraction(1, 10**30)),  # beyond int64
            ((1, 5, 6), Fraction(-1, 3)),
        ],
    )
    def test_wrong_candidate_gives_the_right_value(self, monkeypatch, M, wrong):
        expected = mu_exact(M)
        runs = record_potentials(monkeypatch)
        assert mu_exact(M, candidate=wrong) == expected
        assert runs[-1] == (expected.value, "pi")
        if 0 < wrong <= 1 and wrong.denominator <= expected.states_explored:
            # Tried and refuted: improved from below, replaced from above.
            assert runs[0][0] == wrong and len(runs) > 1
            assert (runs[0][1] == "pi") == (wrong > expected.value)
        else:
            # mu cannot have this value, so it is never tried.
            assert wrong not in [value for value, _ in runs]

    @pytest.mark.parametrize(
        "M, low, improved",
        [
            ((2,), Fraction(1, 4), [Fraction(1, 3), Fraction(1, 2)]),
            ((1, 4), Fraction(1, 6), [Fraction(1, 3), Fraction(2, 5)]),
        ],
    )
    def test_cycle_of_raises_closes_after_n_plus_one_passes(self, monkeypatch, M, low, improved):
        # Raises are tracked only after the first log2 n passes, so on these
        # small graphs a cycle of raises can close only after pass n + 1,
        # where an n + 1 pass bound would stop without it: {2} (4 states)
        # at 1/4 closes at pass 6, {1, 4} (8 states) at 1/3 at pass 12.
        expected = mu_exact(M)
        runs = record_potentials(monkeypatch)
        assert mu_exact(M, candidate=low) == expected
        assert runs == [(low, improved[0]), (improved[0], improved[1]), (improved[1], "pi")]
        assert improved[-1] == expected.value


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    st.sets(st.integers(1, 16), min_size=1, max_size=5),
    st.integers(1, 40).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
)
def test_candidate_never_changes_the_result(distances, ratio):
    M = sorted(distances)
    out = mu_exact(M)
    step = Fraction(1, 997)
    for candidate in (out.value, out.value - step, out.value + step, 0, 1, Fraction(*ratio)):
        assert mu_exact(M, candidate=Fraction(candidate)) == out, candidate


class TestGreedyProposal:
    """Without a candidate, the greedy policy's best cycle mean is tried first."""

    def test_refuted_proposal_is_improved(self, monkeypatch):
        # The greedy policy's best cycle has mean 2/11, below mu = 3/16.
        M = [2, 4, 5, 7, 8, 9]
        _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(M), 1 << 22)
        assert oracle._greedy_cycle_mean(succ0, succ1) == Fraction(2, 11)
        runs = record_potentials(monkeypatch)
        out = mu_exact(M)
        assert out.value == karp_max_mean(succ0, succ1) == Fraction(3, 16)
        # An improvement round ran.
        assert runs == [(Fraction(2, 11), Fraction(3, 16)), (Fraction(3, 16), "pi")]

    @pytest.mark.parametrize(
        "M, greedy, mu, witness",
        [
            (
                (4, 9, 12, 15, 16), Fraction(5, 21), Fraction(1, 4),
                PeriodicSet(56, (0, 1, 3, 6, 8, 11, 14, 25, 28, 31, 33, 36, 38, 39)),
            ),
            (
                (2, 3, 10, 13, 17, 18), Fraction(12, 47), Fraction(4, 15),
                PeriodicSet(15, (3, 4, 10, 11)),
            ),
            (
                (4, 10, 11, 12, 15), Fraction(22, 87), Fraction(7, 27),
                PeriodicSet(27, (3, 4, 5, 6, 11, 24, 25)),
            ),
        ],
    )
    def test_other_refuted_proposals_are_improved(self, monkeypatch, M, greedy, mu, witness):
        # The witness is pinned: the tight cycle depends only on the graph
        # and the proved value, not on the values tried before it.
        _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(M), 1 << 22)
        assert oracle._greedy_cycle_mean(succ0, succ1) == greedy
        runs = record_potentials(monkeypatch)
        out = mu_exact(M)
        assert out.value == karp_max_mean(succ0, succ1) == mu
        assert out.witness == witness
        assert runs[0][0] == greedy and runs[0][1] != "pi" and runs[-1] == (mu, "pi")


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sets(st.integers(1, 16), min_size=1, max_size=5))
def test_greedy_proposal_never_changes_the_result(distances):
    M = sorted(distances)
    out = mu_exact(M)
    # 1/(max(M) + 2) is below mu, as the multiples of max(M) + 1 avoid M:
    # the potential diverges and its cycle of raises improves the value.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_greedy_cycle_mean", lambda succ0, succ1: Fraction(1, max(M) + 2))
        assert mu_exact(M) == out
    # 1 is above every mu: no cycle attains it, and the greedy start is
    # the mean of a real cycle, so that is an internal fault.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_greedy_cycle_mean", lambda succ0, succ1: Fraction(1))
        with pytest.raises(InternalError, match="no cycle attains"):
            mu_exact(M)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.sets(st.integers(1, 18), min_size=1, max_size=5))
@example({2, 3, 5})
@example({3, 6})
@example({1, 4, 5})
def test_greedy_cycle_mean_equals_the_fixed_round_reference(distances):
    # Both phases stop early; on {2, 3, 5}, {3, 6} and {1, 4, 5} every state
    # is on a greedy cycle, so the first phase stops at once.
    _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(distances), 1 << 22)
    assert oracle._greedy_cycle_mean(succ0, succ1) == reference_greedy_cycle_mean(succ0, succ1)


@pytest.mark.parametrize("M", [(2, 3, 5), (3, 6), (1, 4, 5)])
def test_greedy_step_is_a_permutation(M):
    _, succ0, succ1, _, _ = oracle._build_state_graph(as_difference_set(M), 1 << 22)
    step = np.where(succ1 >= 0, succ1, succ0)
    assert np.array_equal(np.sort(step), np.arange(len(step)))


def test_reused_buffers_match_the_reference():
    # The potential and the greedy stage reuse their arrays; the results must
    # be those of the allocate-per-pass reference, on values above mu (pi
    # converges), at mu, and below it, where raises are tracked after the
    # first log2 n passes and the best mean of their cycles is returned.
    cycle_searches = []
    cycle_mean = oracle._cycle_mean

    def counted(put_step, bits, *scratch):
        cycle_searches.append(len(bits))
        return cycle_mean(put_step, bits, *scratch)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(
        st.sets(st.integers(1, 14), min_size=1, max_size=5),
        st.integers(1, 40).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
    )
    def check(distances, ratio):
        M = sorted(distances)
        keys, succ0, succ1, first, last = oracle._build_state_graph(as_difference_set(M), 1 << 22)
        greedy = oracle._greedy_cycle_mean(succ0, succ1)
        assert greedy == reference_greedy_cycle_mean(succ0, succ1)
        mu = mu_exact(M).value
        step = Fraction(1, 997)
        for value in (mu, greedy, mu - step, mu + step, Fraction(1, max(M) + 2), Fraction(*ratio)):
            expected = reference_potential(keys, first, last, value)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_cycle_mean", counted)
                out = oracle._potential(keys, first, last, [value], [0, len(keys)])
            if isinstance(expected, Fraction):
                assert out == [expected], (M, value)
            else:
                assert out.dtype == expected.dtype and np.array_equal(out, expected), (M, value)

    check()
    assert cycle_searches, "no example tracked its raises"


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.integers(1, 200).flatmap(lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
@example([4, 0, 1, 2])  # every walk ends at a fixed point
@example([1, 0])  # one 2-cycle
@example([3, 2, 1, 4, 3])  # walk 0 reaches {3, 4}; {1, 2} is another cycle
def test_cycle_mean_matches_the_fixed_round_reference(draws):
    # A draw of n, or of the state itself, is a fixed point, which no cycle
    # of raises is and which is left out.  Each state weighs its own low
    # bit, as a key weighs its newest bit in the potential.  Each cycle is
    # reported by its least state, which a caller maps to its segment.
    n = len(draws)
    step = np.array(draws, dtype=np.int64)
    step[step == n] = np.flatnonzero(step == n)
    bits = np.arange(n)
    scratch = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), np.empty(n, dtype=bool)
    least, total, length = oracle._cycle_mean(lambda out: np.copyto(out, step), bits, *scratch)
    mean = max(map(Fraction, total.tolist(), length.tolist()), default=None)
    assert mean == reference_cycle_mean(step, (bits & 1) == 1)

    def cycle_of(u):  # the cycle that u's walk reaches: least state, weight, length
        for _ in range(n):
            u = int(step[u])
        cycle = [u]
        while (v := int(step[cycle[-1]])) != u:
            cycle.append(v)
        return min(cycle), sum(v & 1 for v in cycle), len(cycle)

    expected = sorted({c for c in map(cycle_of, range(n)) if c[2] > 1})
    assert list(zip(least.tolist(), total.tolist(), length.tolist())) == expected


def test_peak_memory_per_state_of_a_diverging_potential():
    # 1/25 is below mu = 1/2 on {1, 23}: raises are tracked, and their
    # cycles are read in the potential's own gathers and raises, so the peak
    # is pi, w2, the two gathers and pred (8 B per state each), two bool
    # arrays and a few arrays of the states on cycles of raises.  A search
    # in arrays of its own peaked at 43.0 B per state.
    keys, _, _, first, last = oracle._build_state_graph(as_difference_set((1, 23)), 1 << 22)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = oracle._potential(keys, first, last, [Fraction(1, 25)], [0, len(keys)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n = len(keys)
    assert n == 75_025 and value == [Fraction(1, 2)]
    assert peak <= 42.5 * n, peak / n


class TestBatch:
    """`mu_exact_many` solves its graphs as segments of union graphs and
    gives what `mu_exact` gives each of them alone."""

    @staticmethod
    def box_pairs() -> dict:
        """The distinct M of `sweep --max-a 12 --weight-cap 18`, each with
        the delta of its first row."""
        pairs = {}
        for a in range(2, 13):
            for b, k, m in itertools.product(range(1, a), (1, 2), (1, 2)):
                canon = canonicalize(RawParams(a=a, b=b, k=k, m=m))
                if canon.weight <= 18:
                    pairs.setdefault(forbidden_differences(canon), conjectured_density(canon).delta)
        return pairs

    @settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(1, 14), min_size=1, max_size=5),
                st.sampled_from(["mu", "below", "above", None, 0, 2]),
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([None, "30", "300"]),
        st.sampled_from([1, 100, oracle._BATCH_STATES]),
    )
    def test_each_member_is_solved_as_alone(self, members, cap, batch_states):
        # 1/(max(M) + 2) is below mu and diverges where it is tried; a value
        # with mu's denominator and one more in its numerator is above mu
        # and tried; 0 and 2 are never tried.  Under a small state cap the
        # refused members give the ResourceLimit that `mu_exact` raises.
        pairs = []
        for M, kind in members:
            M = sorted(M)
            mu = mu_exact(M).value
            candidate = {
                "mu": mu,
                "below": Fraction(1, max(M) + 2),
                "above": Fraction(mu.numerator + 1, mu.denominator),
            }.get(kind, kind)
            pairs.append((M, candidate))
        with pytest.MonkeyPatch.context() as patch:
            if cap is not None:
                patch.setenv(STATE_CAP_ENV, cap)
            patch.setattr(oracle, "_BATCH_STATES", batch_states)
            expected = []
            for M, candidate in pairs:
                try:
                    expected.append(mu_exact(M, candidate=candidate))
                except ResourceLimit as exc:
                    expected.append(("refused", str(exc)))
            got = [
                ("refused", str(out)) if isinstance(out, ResourceLimit) else out
                for out in oracle.mu_exact_many(pairs)
            ]
        assert got == expected

    def test_a_union_with_a_diverging_segment(self, monkeypatch):
        # {1, 5, 6} at its mu converges; {2, 4, 5, 7, 8, 9} at 1/11, below
        # its mu 3/16, diverges; {1, 4, 5} at 1/2, above its mu 1/3, has no
        # tight cycle.  While the union diverges, the diverging segment
        # takes its cycle's mean and the others run again; then the third
        # falls back to its greedy value, alone.
        pairs = [((1, 5, 6), Fraction(2, 7)), ((2, 4, 5, 7, 8, 9), Fraction(1, 11)), ((1, 4, 5), Fraction(1, 2))]
        expected = [mu_exact(M, candidate=candidate) for M, candidate in pairs]
        runs = record_potentials(monkeypatch)
        assert list(oracle.mu_exact_many(pairs)) == expected
        assert runs == [
            (Fraction(2, 7), None), (Fraction(1, 11), Fraction(1, 6)), (Fraction(1, 2), None),
            (Fraction(2, 7), None), (Fraction(1, 6), Fraction(3, 16)), (Fraction(1, 2), None),
            (Fraction(2, 7), "pi"), (Fraction(3, 16), "pi"), (Fraction(1, 2), "pi"),
            (Fraction(1, 3), "pi"),
        ]

    def test_peak_memory_of_the_workload_box(self):
        # A batch holds its graphs and one union copy of them, 80 B per
        # state, beside the potential's arrays; a graph above the batch
        # size, here 5,778 states, is solved alone on its own arrays.  All
        # 95 graphs in one union would peak near 6 MB.
        pairs = self.box_pairs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = list(oracle.mu_exact_many(pairs.items()))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        largest = max(res.states_explored for res in out)
        assert len(out) == 95 and largest == 5_778
        assert [res.value for res in out] == list(pairs.values())
        assert peak <= 120 * max(oracle._BATCH_STATES, largest), peak


def propose(monkeypatch, value):
    """Make the greedy start return `value`, so that a wrong one reaches the
    final check."""
    monkeypatch.setattr(oracle, "_greedy_cycle_mean", lambda succ0, succ1: value)


class TestCertificate:
    """A greedy start above mu, a cycle of raises that does not improve the
    value, and a potential that violates an edge are internal faults."""

    @pytest.mark.parametrize("wrong", [Fraction(1, 3), Fraction(3, 10)])
    def test_wrong_proposal_is_rejected(self, monkeypatch, capsys, wrong):
        assert mu_exact([1, 5, 6]).value == Fraction(2, 7)
        propose(monkeypatch, wrong)
        with pytest.raises(InternalError, match="no cycle attains"):
            mu_exact([1, 5, 6])
        assert cli.main(["mu", "--distances", "1,5,6"]) == 4
        assert "internal error:" in capsys.readouterr().err

    def test_non_improving_cycle_is_rejected(self, monkeypatch, capsys):
        # Mean 0 is that of state 0, the all-zero window, looping to itself.
        propose(monkeypatch, Fraction(1, 4))
        one_cycle = np.array([0]), np.array([0]), np.array([1])
        monkeypatch.setattr(oracle, "_cycle_mean", lambda put_step, bits, *scratch: one_cycle)
        with pytest.raises(InternalError, match="not above 1/4"):
            mu_exact([1, 5, 6])
        assert cli.main(["mu", "--distances", "1,5,6"]) == 4
        assert "internal error:" in capsys.readouterr().err

    def test_diverging_potential_ends_at_its_bound(self, monkeypatch):
        # With the cycle search blinded, a diverging potential must still
        # end, through the magnitude check rather than a pass count.
        propose(monkeypatch, Fraction(1, 4))
        no_cycle = (np.empty(0, dtype=np.int64),) * 3
        monkeypatch.setattr(oracle, "_cycle_mean", lambda put_step, bits, *scratch: no_cycle)
        with pytest.raises(InternalError, match="passed its bound without a cycle"):
            mu_exact([1, 5, 6])

    def test_potential_violating_an_edge_is_rejected(self, monkeypatch, capsys):
        # The out-edges are found apart from the in-edges `_potential`
        # relaxes, and each one is checked against the potential.
        M, value = as_difference_set([1, 5, 6]), Fraction(2, 7)
        keys, succ0, succ1, first, last = oracle._build_state_graph(M, 1 << 22)
        one = [0, len(keys)]
        pi = oracle._potential(keys, first, last, [value], one)
        assert oracle._tight_cycle(keys, succ0, succ1, pi, [value], one) != [None]
        pi[succ1[0]] -= len(keys) * value.denominator  # breaks the edge 0 -> succ1[0]
        with pytest.raises(InternalError, match="potential violates an edge"):
            oracle._tight_cycle(keys, succ0, succ1, pi, [value], one)
        # A potential of zeros violates every edge that appends a 1.
        monkeypatch.setattr(oracle, "_potential", lambda keys, *_: np.zeros_like(keys))
        with pytest.raises(InternalError, match="potential violates an edge"):
            mu_exact(M)
        assert cli.main(["mu", "--distances", "1,5,6"]) == 4
        assert "potential violates an edge" in capsys.readouterr().err

    def test_too_low_proposal_is_rejected_early(self, monkeypatch):
        # {1, 20} has 17,711 states: waiting out n + 1 relaxation passes took
        # seconds; a cycle of strict raises refutes the value within a few,
        # and its mean is the next value.
        mu = Fraction(10, 21)
        assert mu_exact([1, 20]).value == mu
        propose(monkeypatch, mu - Fraction(1, 1000))
        seconds = []
        potential = oracle._potential

        def timed(*args):
            t0 = time.perf_counter()
            out = potential(*args)
            seconds.append(time.perf_counter() - t0)
            return out

        monkeypatch.setattr(oracle, "_potential", timed)
        assert mu_exact([1, 20]).value == mu
        assert len(seconds) == 2 and seconds[0] < 0.5

    def test_rejected_under_python_optimize(self):
        # A greedy start above mu, a potential that violates an edge and a
        # wrong edge of the state graph are caught by real checks, which -O
        # does not strip.  The last patch changes succ0[0] as it is checked.
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        wrong_edge = (
            "class OneWrongEdge:\n"
            "    def __getattr__(self, name):\n"
            "        return getattr(np, name)\n"
            "    def take(self, a, indices, *args, **kwargs):\n"
            "        oracle.np, indices[0] = np, 1 - indices[0]\n"
            "        return np.take(a, indices, *args, **kwargs)\n"
            "oracle.np = OneWrongEdge()"
        )
        for patch, message in [
            ("oracle._greedy_cycle_mean = lambda succ0, succ1: Fraction(1, 3)", "no cycle attains"),
            ("oracle._potential = lambda keys, *_: np.zeros_like(keys)", "violates an edge"),
            (wrong_edge, "0-edge does not lead to its shift"),
        ]:
            script = (
                "import sys\n"
                "from fractions import Fraction\n"
                "import numpy as np\n"
                "from densitypack import cli, oracle\n"
                "assert False, 'asserts must be disabled'\n"
                f"{patch}\n"
                "sys.exit(cli.main(['mu', '--distances', '1,5,6']))\n"
            )
            proc = subprocess.run(
                [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 4, proc.stderr
            assert "internal error:" in proc.stderr and message in proc.stderr


class TestBestPeriodic:
    def test_goldens_at_twice_the_span(self):
        for M, mu in GOLDEN_MU:
            out = best_periodic_density(M, 2 * max(M))
            assert out.value == mu
            assert out.method == "PeriodicSearch"
            assert check_periodic_avoiding(out.witness, M)

    def test_never_exceeds_mu_and_attains_it(self):
        rng = random.Random(505)
        for _ in range(10):
            M = random_difference_set(rng, max_element=8)
            exact = mu_exact(M)
            lower = best_periodic_density(M, max_period=max(M) + 1)
            assert lower.value <= exact.value
            attained = best_periodic_density(M, max_period=exact.witness.period)
            assert attained.value == exact.value

    def test_agrees_with_brute_subset_search(self):
        rng = random.Random(606)
        for _ in range(10):
            M = random_difference_set(rng, max_element=7)
            cap = rng.randint(1, 9)
            expected, _ = brute_best_periodic(M, cap)
            if expected == 0:
                with pytest.raises(InvalidInput):
                    best_periodic_density(M, cap)
            else:
                assert best_periodic_density(M, cap).value == expected

    def test_every_period_divides_some_element(self):
        with pytest.raises(InvalidInput):
            best_periodic_density([1], 1)
        with pytest.raises(InvalidInput):
            best_periodic_density([1, 2, 3], 3)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            best_periodic_density([1, 2], 0)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_max_period_is_read_as_an_integer(self, value):
        # 7.5 used to escape as a bare TypeError from range().
        if isinstance(value, np.integer):
            assert best_periodic_density([1, 2], value).value == Fraction(1, 3)
        else:
            with pytest.raises(InvalidInput, match="max_period must be an integer"):
                best_periodic_density([1, 2], value)
