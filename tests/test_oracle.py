"""Window machinery, exhaustive enumeration, and the exact density oracle."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitypack import (
    InternalError,
    InvalidInput,
    PeriodicSet,
    ResourceLimit,
    Window,
    as_difference_set,
    best_periodic_density,
    check_periodic_avoiding,
    enumerate_avoiding_windows,
    mu_exact,
)
from densitypack import cli, oracle
from densitypack.oracle import DEFAULT_ENUM_CAP, STATE_CAP_ENV
from helpers import (
    brute_avoiding_masks,
    brute_best_periodic,
    iter_avoiding_masks,
    karp_max_mean,
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


class TestWindow:
    def test_round_trip(self):
        w = Window.from_members(11, [0, 3, 7, 10])
        assert w.members() == (0, 3, 7, 10)
        assert w.length == 11
        assert 3 in w and 4 not in w and 11 not in w and "3" not in w

    def test_count_below(self):
        w = Window.from_members(11, [0, 3, 7, 10])
        assert [w.count_below(n) for n in (1, 3, 4, 11, 99)] == [1, 1, 2, 4, 4]

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Window(0, 0)
        with pytest.raises(InvalidInput):
            Window(3, 1 << 3)
        with pytest.raises(InvalidInput):
            Window.from_members(3, [3])
        with pytest.raises(InvalidInput):
            Window.from_members(3, [-1])


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

    def test_chunks_are_bounded_and_contiguous(self, monkeypatch):
        M = as_difference_set([1, 5, 6])
        whole = list(iter_avoiding_masks(M, 14, True))
        monkeypatch.setattr(oracle, "_CHUNK_WINDOWS", 3)
        chunks = [c.tolist() for c in oracle.avoiding_mask_chunks(M, 14)]
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
            M = random_difference_set(rng, max_element=12)
            L = max(M)
            states, succ0, succ1 = oracle._build_state_graph(as_difference_set(M), 1 << 22)
            masks = list(iter_avoiding_masks(M, L, False))
            assert states.tolist() == masks
            index = {mask: i for i, mask in enumerate(masks)}
            for i, mask in enumerate(masks):
                assert succ0[i] == index[mask >> 1]
                # the appended position must avoid the whole old window
                new = mask | 1 << L
                ok = all(new & (new >> d) == 0 for d in M)
                assert succ1[i] == (index[mask >> 1 | 1 << (L - 1)] if ok else -1)

    def test_karp_and_policy_agree(self):
        rng = random.Random(404)
        for _ in range(12):
            M = random_difference_set(rng)
            _, succ0, succ1 = oracle._build_state_graph(as_difference_set(M), 1 << 22)
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
def test_karp_and_policy_identical_with_avoiding_witness(distances):
    M = sorted(distances)
    _, succ0, succ1 = oracle._build_state_graph(as_difference_set(M), 1 << 22)
    out = mu_exact(M)
    assert karp_max_mean(succ0, succ1) == out.value
    period, residues = out.witness.period, out.witness.residues
    assert all((x + d - y) % period for x in residues for y in residues for d in M)
    assert out.witness.density() == out.value


class TestCandidate:
    """A candidate value is certified first; a wrong one falls back."""

    def test_right_candidate_skips_policy_iteration(self, monkeypatch):
        def refuse(succ0, succ1):
            raise AssertionError("policy iteration ran")

        expected = mu_exact([1, 5, 6])
        monkeypatch.setattr(oracle, "_policy_iteration", refuse)
        assert mu_exact([1, 5, 6], candidate=Fraction(2, 7)) == expected

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
        runs = []
        policy = oracle._policy_iteration
        monkeypatch.setattr(
            oracle, "_policy_iteration", lambda *arrays: runs.append(1) or policy(*arrays)
        )
        assert mu_exact(M, candidate=wrong) == expected
        assert runs == [1]


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

    def test_refuted_proposal_falls_back_to_policy_iteration(self, monkeypatch):
        # The greedy policy's best cycle has mean 2/11, below mu = 3/16.
        M = [2, 4, 5, 7, 8, 9]
        _, succ0, succ1 = oracle._build_state_graph(as_difference_set(M), 1 << 22)
        assert oracle._greedy_cycle_mean(succ0, succ1) == Fraction(2, 11)
        runs = []
        policy = oracle._policy_iteration
        monkeypatch.setattr(
            oracle, "_policy_iteration", lambda *arrays: runs.append(1) or policy(*arrays)
        )
        out = mu_exact(M)
        assert out.value == karp_max_mean(succ0, succ1) == Fraction(3, 16)
        assert runs == [1]


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sets(st.integers(1, 16), min_size=1, max_size=5))
def test_greedy_proposal_never_changes_the_result(distances):
    M = sorted(distances)
    out = mu_exact(M)
    # 1 is above every mu (no tight cycle); 1/(max(M) + 2) is below it, as
    # the multiples of max(M) + 1 avoid M (the potential diverges).
    for wrong in (Fraction(1), Fraction(1, max(M) + 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_greedy_cycle_mean", lambda succ0, succ1: wrong)
            assert mu_exact(M) == out, wrong


def propose(monkeypatch, value):
    """Make both proposers, the greedy policy and policy iteration, return
    `value`, so that a wrong one reaches the final check."""
    for name in ("_greedy_cycle_mean", "_policy_iteration"):
        monkeypatch.setattr(oracle, name, lambda succ0, succ1: value)


class TestCertificate:
    """The potential check rejects a wrong proposed value from either side."""

    @pytest.mark.parametrize("wrong", [Fraction(1, 3), Fraction(1, 4)])
    def test_wrong_proposal_is_rejected(self, monkeypatch, capsys, wrong):
        assert mu_exact([1, 5, 6]).value == Fraction(2, 7)
        propose(monkeypatch, wrong)
        with pytest.raises(InternalError):
            mu_exact([1, 5, 6])
        assert cli.main(["mu", "--distances", "1,5,6"]) == 4
        assert "internal error:" in capsys.readouterr().err

    def test_too_low_proposal_is_rejected_early(self, monkeypatch):
        # {1, 20} has 17,711 states: waiting out n + 1 relaxation passes took
        # seconds; a cycle of strict raises rejects the value within a few.
        mu = Fraction(10, 21)
        assert mu_exact([1, 20]).value == mu
        propose(monkeypatch, mu - Fraction(1, 1000))
        t0 = time.perf_counter()
        with pytest.raises(InternalError, match="diverges"):
            mu_exact([1, 20])
        assert time.perf_counter() - t0 < 0.5

    def test_rejected_under_python_optimize(self):
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from densitypack import cli, oracle\n"
            "assert False, 'asserts must be disabled'\n"
            "wrong = lambda succ0, succ1: Fraction(1, 3)\n"
            "oracle._greedy_cycle_mean = oracle._policy_iteration = wrong\n"
            "sys.exit(cli.main(['mu', '--distances', '1,5,6']))\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 4, proc.stderr
        assert "internal error:" in proc.stderr


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
