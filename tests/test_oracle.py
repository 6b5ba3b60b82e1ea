"""Window machinery, exhaustive enumeration, and the exact density oracle."""

import math
import os
import random
import subprocess
import sys
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
    max_prefix_weight,
    mu_exact,
    window_avoids,
)
from densitypack import cli, oracle
from densitypack.oracle import STATE_CAP_ENV
from helpers import brute_avoiding_masks, brute_best_periodic, brute_max_prefix

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


class TestWindowAvoids:
    def test_examples(self):
        assert window_avoids(Window.from_members(11, [0, 3, 7, 10]), [1, 5, 6])
        assert not window_avoids(Window.from_members(11, [0, 5]), [1, 5, 6])

    def test_agrees_with_brute_filter(self):
        rng = random.Random(101)
        for _ in range(30):
            M = random_difference_set(rng)
            n = rng.randint(1, 10)
            for mask in range(1 << n):
                w = Window(n, mask)
                assert window_avoids(w, M) == all(
                    mask & (mask >> d) == 0 for d in M
                )


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
            list(enumerate_avoiding_windows([1], 27))
        # the cap is adjustable
        assert sum(1 for _ in enumerate_avoiding_windows([1], 27, cap=27)) > 0


class TestMaxPrefixWeight:
    def test_against_brute(self):
        rng = random.Random(303)
        for _ in range(25):
            M = random_difference_set(rng)
            n = rng.randint(1, 12)
            for require_zero in (True, False):
                assert max_prefix_weight(M, n, require_zero) == brute_max_prefix(
                    M, n, require_zero
                )

    def test_limits(self):
        with pytest.raises(InvalidInput):
            max_prefix_weight([1], 0)
        with pytest.raises(ResourceLimit):
            max_prefix_weight([1], 27)


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
            masks = list(oracle._iter_avoiding_masks(as_difference_set(M), L, False))
            assert states.tolist() == masks
            index = {mask: i for i, mask in enumerate(masks)}
            for i, mask in enumerate(masks):
                assert succ0[i] == index[mask >> 1]
                # the appended position must avoid the whole old window
                ok = window_avoids(Window(L + 1, mask | 1 << L), M)
                assert succ1[i] == (index[mask >> 1 | 1 << (L - 1)] if ok else -1)

    def test_karp_and_policy_agree(self):
        rng = random.Random(404)
        for _ in range(12):
            M = random_difference_set(rng)
            karp = mu_exact(M, method="karp")
            policy = mu_exact(M, method="policy")
            assert karp.value == policy.value
            assert karp.witness == policy.witness
            assert karp.method == "Karp" and policy.method == "PolicyIteration"
            assert check_periodic_avoiding(policy.witness, M)
            assert policy.witness.density() == policy.value

    def test_auto_uses_policy_at_every_size(self):
        assert mu_exact([1], method="auto").method == "PolicyIteration"
        assert mu_exact([1, 5, 6], method="auto").method == "PolicyIteration"

    def test_window_cap(self):
        with pytest.raises(ResourceLimit):
            mu_exact([1, 23])
        assert mu_exact([1, 23], max_window=23).value > 0

    def test_unknown_method(self):
        with pytest.raises(InvalidInput):
            mu_exact([1, 5, 6], method="simplex")

    def test_state_cap_argument(self):
        with pytest.raises(ResourceLimit):
            mu_exact([1, 5, 6], max_states=4)

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

    def test_state_cap_is_checked_on_the_full_count(self, monkeypatch):
        # {1, 23} has exactly 75025 avoiding windows of length 23.
        with pytest.raises(ResourceLimit):
            mu_exact([1, 23], max_window=23, max_states=75024)
        assert mu_exact([1, 23], max_window=23, max_states=75025).states_explored == 75025
        monkeypatch.setenv(STATE_CAP_ENV, "75024")
        with pytest.raises(ResourceLimit):
            mu_exact([1, 23], max_window=23)

    def test_explicit_cap_beats_environment(self, monkeypatch):
        monkeypatch.setenv(STATE_CAP_ENV, "4")
        assert mu_exact([1, 5, 6], max_states=100).value == Fraction(2, 7)

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
    karp = mu_exact(M, method="karp")
    policy = mu_exact(M, method="policy")
    assert (karp.value, karp.witness, karp.states_explored) == (
        policy.value, policy.witness, policy.states_explored,
    )
    period, residues = policy.witness.period, policy.witness.residues
    assert all((x + d - y) % period for x in residues for y in residues for d in M)
    assert policy.witness.density() == policy.value


class TestCertificate:
    """The potential check rejects a wrong proposed value from either side."""

    @pytest.mark.parametrize("wrong", [Fraction(1, 3), Fraction(1, 4)])
    def test_wrong_proposal_is_rejected(self, monkeypatch, capsys, wrong):
        assert mu_exact([1, 5, 6]).value == Fraction(2, 7)
        monkeypatch.setattr(oracle, "_policy_iteration", lambda succ0, succ1: wrong)
        with pytest.raises(InternalError):
            mu_exact([1, 5, 6])
        assert cli.main(["mu", "--distances", "1,5,6"]) == 4
        assert "internal error:" in capsys.readouterr().err

    def test_rejected_under_python_optimize(self):
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from densitypack import cli, oracle\n"
            "assert False, 'asserts must be disabled'\n"
            "oracle._policy_iteration = lambda succ0, succ1: Fraction(1, 3)\n"
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
