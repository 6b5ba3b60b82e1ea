"""Parameters, canonicalization, difference sets, and the closed form."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitypack import (
    CanonicalParams,
    DifferenceSet,
    InvalidInput,
    RawParams,
    as_difference_set,
    canonicalize,
    conjectured_density,
    defect,
    forbidden_differences,
    has_averaging_slack,
    two_gap_set,
)
from helpers import INTEGER_LIKE, canonical_instances


class TestParams:
    def test_raw_rejects_nonpositive(self):
        for bad in [dict(a=0, b=1, k=1, m=1), dict(a=1, b=-2, k=1, m=1),
                    dict(a=1, b=1, k=0, m=1), dict(a=1, b=1, k=1, m=0)]:
            with pytest.raises(InvalidInput):
                RawParams(**bad)

    def test_raw_rejects_non_int(self):
        with pytest.raises(InvalidInput):
            RawParams(a=2.0, b=1, k=1, m=1)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_raw_reads_integers(self, value):
        # A bool used to pass as 1, and a numpy int used to be refused.
        if isinstance(value, np.integer):
            p = RawParams(a=value, b=1, k=1, m=1)
            assert p == RawParams(a=3, b=1, k=1, m=1) and type(p.a) is int
        else:
            with pytest.raises(InvalidInput, match="a must be an integer"):
                RawParams(a=value, b=1, k=1, m=1)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_canonical_reads_integers(self, value):
        if isinstance(value, np.integer):
            p = CanonicalParams(a=5, b=1, k=value, m=1)
            assert p == CanonicalParams(a=5, b=1, k=3, m=1) and type(p.k) is int
        else:
            with pytest.raises(InvalidInput, match="k must be an integer"):
                CanonicalParams(a=5, b=1, k=value, m=1)

    def test_canonical_rejects_swapped_order(self):
        with pytest.raises(InvalidInput):
            CanonicalParams(a=3, b=5, k=1, m=1)

    def test_canonical_rejects_common_factor(self):
        with pytest.raises(InvalidInput):
            CanonicalParams(a=6, b=4, k=1, m=1)

    def test_window_lengths_and_weight(self):
        p = CanonicalParams(a=5, b=3, k=1, m=2)
        assert p.n1 == 1 * 5 + 3 * 3 == 14
        assert p.n2 == 2 * 5 + 2 * 3 == 16
        assert p.weight == 5 + 6 == 11


class TestCanonicalize:
    def test_gcd_and_swap(self):
        c = canonicalize(RawParams(a=6, b=10, k=2, m=1))
        assert (c.a, c.b, c.k, c.m) == (5, 3, 1, 2)
        assert c.g == 2 and c.swapped

    def test_already_canonical_is_fixed(self):
        c = canonicalize(RawParams(a=5, b=1, k=1, m=1))
        assert (c.a, c.b, c.k, c.m, c.g, c.swapped) == (5, 1, 1, 1, 1, False)

    def test_gcd_only(self):
        c = canonicalize(RawParams(a=9, b=6, k=2, m=3))
        assert (c.a, c.b, c.k, c.m, c.g, c.swapped) == (3, 2, 2, 3, 3, False)

    def test_swap_only(self):
        c = canonicalize(RawParams(a=2, b=7, k=4, m=1))
        assert (c.a, c.b, c.k, c.m, c.g, c.swapped) == (7, 2, 1, 4, 1, True)

    def test_result_is_always_canonical(self):
        rng = random.Random(20260816)
        for _ in range(200):
            raw = RawParams(
                a=rng.randint(1, 40), b=rng.randint(1, 40),
                k=rng.randint(1, 6), m=rng.randint(1, 6),
            )
            c = canonicalize(raw)
            assert c.a >= c.b and math.gcd(c.a, c.b) == 1
            assert raw.a == c.g * (c.b if c.swapped else c.a)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    st.integers(1, 30), st.integers(1, 30), st.integers(1, 5), st.integers(1, 5),
    st.integers(1, 6),
)
def test_canonicalization_and_scaling_invariance(a, b, k, m, g):
    # Scaling (a, b) by g scales M by g, and reflecting the set, which swaps
    # (a, k) with (b, m), leaves M as it is; neither moves the closed form.
    raw = RawParams(a=a, b=b, k=k, m=m)
    scaled = RawParams(a=g * a, b=g * b, k=k, m=m)
    reflected = RawParams(a=b, b=a, k=m, m=k)
    canon = canonicalize(raw)
    for other in (scaled, reflected):
        c = canonicalize(other)
        assert conjectured_density(c) == conjectured_density(canon)
        assert forbidden_differences(c) == forbidden_differences(canon)
    M = forbidden_differences(raw).elements
    assert forbidden_differences(scaled).elements == tuple(g * d for d in M)
    assert forbidden_differences(reflected).elements == M
    assert tuple(canon.g * d for d in forbidden_differences(canon).elements) == M


class TestDifferenceSets:
    def test_two_gap_set_examples(self):
        assert two_gap_set(CanonicalParams(a=5, b=1, k=1, m=1)) == (0, 5, 6)
        assert two_gap_set(CanonicalParams(a=3, b=2, k=2, m=1)) == (0, 3, 6, 8)
        assert two_gap_set(CanonicalParams(a=5, b=3, k=1, m=2)) == (0, 5, 8, 11)

    def test_forbidden_differences_examples(self):
        assert tuple(forbidden_differences(CanonicalParams(a=5, b=1, k=1, m=1))) == (1, 5, 6)
        assert tuple(forbidden_differences(CanonicalParams(a=3, b=2, k=2, m=1))) == (
            2, 3, 5, 6, 8,
        )
        # raw parameters keep their gcd and orientation
        assert tuple(forbidden_differences(RawParams(a=6, b=10, k=2, m=1))) == (
            6, 10, 12, 16, 22,
        )

    def test_forbidden_equals_pairwise_differences_of_s(self):
        for p in canonical_instances(max_weight=12):
            s = two_gap_set(p)
            pairwise = {y - x for i, x in enumerate(s) for y in s[i + 1 :]}
            assert forbidden_differences(p).elements == tuple(sorted(pairwise))

    def test_max_element_is_weight(self):
        for p in canonical_instances(max_weight=12):
            assert forbidden_differences(p).max_element == p.weight

    def test_difference_set_validation(self):
        with pytest.raises(InvalidInput):
            as_difference_set([])
        with pytest.raises(InvalidInput):
            as_difference_set([0, 3])
        with pytest.raises(InvalidInput):
            DifferenceSet((True, 2))

    def test_as_difference_set_sorts_and_dedups(self):
        assert as_difference_set([6, 1, 5, 1]).elements == (1, 5, 6)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", Fraction(3, 2), Fraction(1), True])
    def test_non_integer_distances_are_refused(self, bad):
        # Truncating 1.5 to 1 would silently answer for {1, 5, 6}.
        with pytest.raises(InvalidInput, match="cannot read distances"):
            as_difference_set([bad, 5, 6])

    def test_numpy_integers_are_accepted(self):
        elems = as_difference_set(np.array([6, 1, 5], dtype=np.int64)).elements
        assert elems == (1, 5, 6) and all(type(d) is int for d in elems)


class TestClosedForm:
    def test_golden_table(self):
        cases = [
            ((5, 1, 1, 1), Fraction(2, 7), "LowRemainder", "ProvedTheorem"),
            ((4, 1, 1, 1), Fraction(1, 3), "ZeroDefect", "ProvedTrivial"),
            ((3, 1, 1, 1), Fraction(2, 7), "HighRemainder", "ProvedTheorem"),
            ((3, 2, 2, 1), Fraction(1, 5), "LowRemainder", "ProvedTheorem"),
            ((5, 3, 1, 2), Fraction(3, 14), "LowRemainder", "ProvedTheorem"),
            ((7, 2, 2, 2), Fraction(1, 5), "ZeroDefect", "ProvedTrivial"),
        ]
        for (a, b, k, m), delta, case, status in cases:
            br = conjectured_density(CanonicalParams(a=a, b=b, k=k, m=m))
            assert br.delta == delta
            assert br.case_tag == case
            assert br.theorem_status == status

    def test_defect_division(self):
        for p in canonical_instances(max_weight=20):
            d, r = defect(p)
            assert p.a - p.b == d * (p.k + p.m + 1) + r
            assert 0 <= r <= p.k + p.m

    def test_zero_remainder_collapses(self):
        for p in canonical_instances(max_weight=20):
            br = conjectured_density(p)
            if br.r == 0:
                assert br.delta == Fraction(1, p.k + p.m + 1)
                assert br.theorem_status == "ProvedTrivial"

    def test_case_tag_tracks_remainder(self):
        for p in canonical_instances(max_weight=20):
            br = conjectured_density(p)
            if br.r == 0:
                assert br.case_tag == "ZeroDefect"
            elif br.r <= p.m:
                assert br.case_tag == "LowRemainder"
            else:
                assert br.case_tag == "HighRemainder"

    def test_status_partition(self):
        for p in canonical_instances(max_weight=20):
            br = conjectured_density(p)
            if br.r == 0:
                assert br.theorem_status == "ProvedTrivial"
            elif p.k == 1 or p.m == 1:
                assert br.theorem_status == "ProvedTheorem"
            else:
                assert br.theorem_status == "Conjectured"

    def test_delta_in_unit_interval(self):
        for p in canonical_instances(max_weight=20):
            assert 0 < conjectured_density(p).delta <= Fraction(1, 2)

    def test_branch_glue_identities_recomputed(self):
        # Recompute the two cross-identities from scratch rather than
        # trusting the constructor's own assertions.
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randint(2, 200)
            b = rng.randint(1, a - 1)
            if math.gcd(a, b) != 1:
                continue
            k, m = rng.randint(1, 8), rng.randint(1, 8)
            p = CanonicalParams(a=a, b=b, k=k, m=m)
            d, r = defect(p)
            n1, n2 = p.n1, p.n2
            assert (b + k * d) * n2 - (b + (k + 1) * d) * n1 == b * r
            assert (a - m * (d + 1)) * n1 - (a - (m + 1) * (d + 1)) * n2 == a * (
                k + m + 1 - r
            )

    def test_two_branches_agree_at_the_seam(self):
        # At r = m the low branch applies, at r = m + 1 the high one; the
        # glue identities make both formulas give the same value whenever
        # both numerators are evaluated on the same instance, up to the
        # exact correction terms.  Spot-check the branch selection instead:
        # delta must equal the branch formula chosen by r.
        for p in canonical_instances(max_weight=24):
            br = conjectured_density(p)
            if br.r <= p.m:
                assert br.delta == Fraction(p.b + p.k * br.d, p.n1)
            else:
                assert br.delta == Fraction(p.a - p.m * (br.d + 1), p.n2)


class TestAveragingSlack:
    def test_rejects_zero_remainder(self):
        with pytest.raises(InvalidInput):
            has_averaging_slack(1, 1, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            has_averaging_slack(2, 3, 6)
        with pytest.raises(InvalidInput):
            has_averaging_slack(0, 3, 1)

    def test_always_true_in_proved_regime(self):
        for k in range(1, 11):
            for m in range(1, 11):
                if k != 1 and m != 1:
                    continue
                for r in range(1, k + m + 1):
                    assert has_averaging_slack(k, m, r)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_reads_integers(self, value):
        # True and 1.5 used to pass the range checks and return True.
        for args in [(value, 1, 1), (1, value, 1), (2, 2, value)]:
            if isinstance(value, np.integer):
                plain = tuple(3 if x is value else x for x in args)
                assert has_averaging_slack(*args) == has_averaging_slack(*plain)
            else:
                with pytest.raises(InvalidInput, match="must be an integer"):
                    has_averaging_slack(*args)

    def test_known_failure_outside_proved_regime(self):
        # k = m = 2, r = 2: the low-branch condition reads 4 > 4.
        assert not has_averaging_slack(2, 2, 2)
        # and a case where it does hold with k, m >= 2
        assert has_averaging_slack(2, 2, 1)
