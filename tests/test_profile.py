"""Window profiles, counting identities, the main inequality, dichotomy,
and prefix-average certificates."""

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitypack import (
    CanonicalParams,
    InvalidInput,
    ResourceLimit,
    UnsupportedRegime,
    Window,
    WindowTooShort,
    check_counting_identities,
    check_dichotomy,
    check_main_inequality,
    conjectured_density,
    defect,
    delta_certificate,
    enumerate_avoiding_windows,
    forbidden_differences,
    haralambis_certify,
    mu_exact,
    profile,
)
from densitypack import oracle
from densitypack.mappings import check_m1_machinery, k1_check, m1_check
from densitypack.oracle import DEFAULT_ENUM_CAP
from densitypack.profile import (
    WindowBatch,
    certificate_check,
    dichotomy_check,
    identities_check,
    main_inequality_check,
    scan_windows,
)
from helpers import INTEGER_LIKE, NOT_BOOLS, canonical_instances, iter_avoiding_masks

P511 = CanonicalParams(a=5, b=1, k=1, m=1)
P521 = CanonicalParams(a=5, b=2, k=1, m=1)
W511 = Window.from_members(P511.n2, [0])
# {0} and a window that is not M-avoiding, with |I| = 0, |T| = 3, |U| = 0:
# the band-count inequality and the dichotomy fail on its row and only there.
CRAFTED511 = WindowBatch(
    P511, np.array([W511.mask, Window.from_members(P511.n2, [0, 2, 3, 4, 7, 8, 9, 10]).mask])
)


class TestProfile:
    def test_worked_example_with_band_point(self):
        prof = profile(Window.from_members(11, [0, 3, 7, 10]), P511)
        assert prof.empty_translates == frozenset()
        assert prof.band_parts == (frozenset({3}),)
        assert prof.top_holes == frozenset({8, 9})
        assert prof.sizes == (0, 1, 2)

    def test_worked_example_bare_zero(self):
        prof = profile(Window.from_members(11, [0]), P511)
        assert prof.sizes == (0, 0, 4)
        assert prof.top_holes == frozenset({7, 8, 9, 10})

    def test_worked_example_occupied_translate(self):
        # 1 + S meets A = {0, 1}, so alpha = 1 is not an empty translate.
        prof = profile(Window.from_members(12, [0, 1]), P521)
        assert prof.empty_translates == frozenset()
        assert prof.top_holes == frozenset({9, 10, 11})

    def test_worked_example_empty_translate(self):
        # A = {0}: the translate 1 + S = {1, 6, 8} misses A entirely.
        prof = profile(Window.from_members(12, [0]), P521)
        assert prof.empty_translates == frozenset({1})
        assert prof.sizes == (1, 0, 3)

    def test_band_all_merges_parts(self):
        p = CanonicalParams(a=5, b=2, k=2, m=1)
        w = Window.from_members(p.n2, [0, 3, 9])
        prof = profile(w, p)
        assert len(prof.band_parts) == p.k
        assert prof.band_parts == (frozenset({3}), frozenset({9}))
        assert prof.band_all == frozenset({3, 9})

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            profile(Window.from_members(10, [0]), P511)

    @pytest.mark.parametrize(
        "func, args, message",
        [
            (profile, (W511, 5), "params must be a CanonicalParams, got 5"),
            (profile, (5, P511), "window must be a Window, got 5"),
            (profile, (W511, [P511]), "params must be a CanonicalParams, got \\["),
            (check_counting_identities, (W511, 5), "params must be a CanonicalParams"),
            (check_counting_identities, (5, P511), "window must be a Window"),
            (check_main_inequality, (5,), "params must be a CanonicalParams"),
            (check_dichotomy, (5,), "params must be a CanonicalParams"),
            (delta_certificate, (5,), "params must be a CanonicalParams"),
        ],
    )
    def test_arguments_of_other_types_are_refused(self, func, args, message):
        # These used to raise a bare AttributeError, or TypeError for a list.
        with pytest.raises(InvalidInput, match=message):
            func(*args)

    def test_longer_window_extra_positions_ignored(self):
        short = profile(Window.from_members(11, [0, 3]), P511)
        long = profile(Window.from_members(30, [0, 3, 14, 18, 25]), P511)
        assert short == long


class TestCountingIdentities:
    def test_exhaustive_small_instances(self):
        for p in canonical_instances(max_n2=16, include_equal=True):
            M = forbidden_differences(p)
            for w in enumerate_avoiding_windows(M, p.n2):
                assert check_counting_identities(w, p), (p, w)

    def test_identities_spelled_out(self):
        # Same content as check_counting_identities, recomputed here so a
        # regression in that function cannot hide itself.
        p = CanonicalParams(a=3, b=2, k=2, m=1)
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            n_i, n_t, n_u = profile(w, p).sizes
            assert w.count_below(p.n1) == p.b - n_i + n_t
            assert w.count_below(p.n2) == p.a - n_u - n_i + n_t

    def test_extension_invariance(self):
        # The profile reads nothing beyond [0, n2): extending an avoiding
        # window rightward by any admissible bits leaves it unchanged.
        rng = random.Random(808)
        for p in [P511, P521, CanonicalParams(a=3, b=2, k=2, m=1)]:
            M = forbidden_differences(p)
            wins = list(enumerate_avoiding_windows(M, p.n2))
            for w in rng.sample(wins, min(8, len(wins))):
                extra = rng.randint(1, 6)
                mask = w.mask
                for pos in range(p.n2, p.n2 + extra):
                    blocked = any(pos - d >= 0 and mask >> (pos - d) & 1 for d in M)
                    if not blocked and rng.random() < 0.7:
                        mask |= 1 << pos
                assert profile(Window(p.n2 + extra, mask), p) == profile(w, p)


class TestMainInequality:
    def test_passes_in_proved_regime(self):
        for p in [P511, P521, CanonicalParams(a=3, b=2, k=2, m=1),
                  CanonicalParams(a=5, b=3, k=1, m=2)]:
            report = check_main_inequality(p)
            assert report.passed and report.counterexample is None
            assert report.windows_checked > 0
            assert report.params == p

    def test_conjectural_regime_is_gated(self):
        p = CanonicalParams(a=7, b=2, k=2, m=2)
        with pytest.raises(UnsupportedRegime):
            check_main_inequality(p)
        # allow_conjecture is a bool: "no" used to probe the conjecture.
        for bad in NOT_BOOLS:
            for q in (p, P511):
                with pytest.raises(InvalidInput, match="allow_conjecture must be a bool"):
                    check_main_inequality(q, allow_conjecture=bad)

    def test_conjecture_probe(self):
        report = check_main_inequality(
            CanonicalParams(a=4, b=3, k=2, m=2), allow_conjecture=True
        )
        assert report.passed
        assert check_main_inequality(
            CanonicalParams(a=4, b=3, k=2, m=2), allow_conjecture=np.bool_(True)
        ) == report

    def test_enum_cap(self):
        p = CanonicalParams(a=29, b=1, k=1, m=1)
        with pytest.raises(ResourceLimit):
            check_main_inequality(p, enum_cap=20).passed

    def test_counterexample_detail(self):
        assert CRAFTED511.sizes(1) == (0, 3, 0)
        assert main_inequality_check(P511)(CRAFTED511) == (1, "(1+1)*3 = 6 > 0 = (1+1)*0 + 1*0")


class TestDichotomy:
    def test_zero_remainder_rejected(self):
        p = CanonicalParams(a=4, b=1, k=1, m=1)
        assert defect(p)[1] == 0
        with pytest.raises(InvalidInput):
            check_dichotomy(p)

    def test_gate_precedes_remainder_check(self):
        with pytest.raises(UnsupportedRegime):
            check_dichotomy(CanonicalParams(a=7, b=2, k=2, m=2))
        with pytest.raises(UnsupportedRegime):
            check_dichotomy(CanonicalParams(a=7, b=2, k=2, m=2), allow_conjecture=np.bool_(False))
        for bad in NOT_BOOLS:
            for p in (CanonicalParams(a=7, b=2, k=2, m=2), P511):
                with pytest.raises(InvalidInput, match="allow_conjecture must be a bool"):
                    check_dichotomy(p, allow_conjecture=bad)

    def test_passes_in_proved_regime(self):
        # (5,2,1,1) is excluded: its remainder is 0.
        for p in [P511, CanonicalParams(a=3, b=1, k=1, m=1),
                  CanonicalParams(a=7, b=2, k=1, m=1),
                  CanonicalParams(a=5, b=3, k=1, m=2)]:
            assert check_dichotomy(p).passed

    def test_bounds_recomputed_low_branch(self):
        # (5,1,1,1): d, r = divmod(4, 3) = (1, 1), r <= m, bounds (2, 3).
        p = P511
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            n_i, n_t, n_u = profile(w, p).sizes
            assert p.b - n_i + n_t <= 2 or p.a - n_u - n_i + n_t <= 3

    def test_bounds_recomputed_high_branch(self):
        # (3,1,1,1): d, r = divmod(2, 3) = (0, 2), r > m, bounds (1, 2).
        p = CanonicalParams(a=3, b=1, k=1, m=1)
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            n_i, n_t, n_u = profile(w, p).sizes
            assert p.b - n_i + n_t <= 1 or p.a - n_u - n_i + n_t <= 2

    def test_counterexample_detail(self):
        # Low branch of (5,1,1,1), bounds (2, 3): the prefix counts are 4 and 8.
        assert dichotomy_check(P511)(CRAFTED511) == (1, "both 4 > 2 and 8 > 3")


class TestHaralambis:
    def test_frozen_counterexample(self):
        res = haralambis_certify([1, 5, 6], Fraction(1, 4), (7, 11))
        assert not res.certified
        assert res.counterexample.members() == (0, 4, 8)
        assert res.windows_checked == 10

    def test_counterexample_defeats_every_candidate(self):
        res = haralambis_certify([1, 5, 6], Fraction(1, 4), (7, 11))
        w = res.counterexample
        assert w.count_below(7) * 4 > 7 and w.count_below(11) * 4 > 11

    def test_certifies_golden_density(self):
        res = haralambis_certify([1, 5, 6], Fraction(2, 7), (7, 11))
        assert res.certified and res.counterexample is None

    def test_monotone_in_delta(self):
        M = [1, 5, 6]
        cands = (7, 11)
        ladder = [Fraction(1, 4), Fraction(2, 7), Fraction(1, 3), Fraction(1, 2)]
        flags = [haralambis_certify(M, q, cands).certified for q in ladder]
        assert flags == sorted(flags)  # once certified, stays certified

    def test_certified_implies_true_bound(self):
        rng = random.Random(909)
        for _ in range(10):
            size = rng.randint(1, 3)
            M = tuple(sorted(rng.sample(range(1, 9), size)))
            delta = Fraction(rng.randint(1, 3), rng.randint(4, 9))
            cands = (max(M) + 1, max(M) + rng.randint(2, 5))
            res = haralambis_certify(M, delta, cands)
            if res.certified:
                assert mu_exact(M).value <= delta

    def test_validation(self):
        with pytest.raises(InvalidInput):
            haralambis_certify([1, 5, 6], Fraction(1, 4), ())
        with pytest.raises(InvalidInput):
            haralambis_certify([1, 5, 6], Fraction(1, 4), (0, 7))
        with pytest.raises(InvalidInput):
            haralambis_certify([1, 5, 6], 0.25, (7, 11))
        with pytest.raises(InvalidInput):
            haralambis_certify([1, 5, 6], Fraction(-1, 4), (7, 11))
        with pytest.raises(ResourceLimit):
            haralambis_certify([1, 5, 6], Fraction(1, 4), (DEFAULT_ENUM_CAP + 1,))

    def test_a_candidate_over_the_cap_is_refused_before_its_span_mask(self):
        # The span mask of a candidate of 10**8 alone takes 12.5 MB; the cap
        # is checked first.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match="window length 100000000 exceeds enumeration cap"):
                haralambis_certify([1, 5, 6], Fraction(1, 2), [3, 10**8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("bad", [7.9, "x", Fraction(7), True])
    def test_non_integer_candidates_are_refused(self, bad):
        # Truncating 7.9 would check the prefix of length 7 instead.
        with pytest.raises(InvalidInput, match="candidates must be positive integers"):
            haralambis_certify([1, 5, 6], Fraction(2, 7), (bad, 11))

    def test_numpy_candidates_are_accepted(self):
        cands = np.array([7, 11], dtype=np.int64)
        assert haralambis_certify([1, 5, 6], Fraction(2, 7), cands).certified

    @pytest.mark.parametrize("value", INTEGER_LIKE + [0.25])
    def test_delta_is_read_as_a_fraction(self, value):
        # A plain int delta used to be refused, unlike mu_exact's candidate.
        if isinstance(value, (np.integer, Fraction)):
            res = haralambis_certify([1, 5, 6], value, (7,))
            assert res.certified and res == haralambis_certify([1, 5, 6], Fraction(3), (7,))
        else:
            with pytest.raises(InvalidInput, match="delta must be a Fraction or an integer"):
                haralambis_certify([1, 5, 6], value, (7,))
        assert haralambis_certify([1, 5, 6], 1, (7,)).certified
        with pytest.raises(InvalidInput, match="delta must be a positive Fraction"):
            haralambis_certify([1, 5, 6], 0, (7,))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_enum_cap_must_be_positive(self, cap):
        # The cap is refused before the candidate length is compared with it.
        with pytest.raises(InvalidInput, match=f"enumeration cap must be >= 1, got {cap}"):
            haralambis_certify([1, 5, 6], Fraction(2, 7), (7, 11), enum_cap=cap)


class TestDeltaCertificate:
    def test_goldens(self):
        for p in [P511, CanonicalParams(a=3, b=2, k=2, m=1),
                  CanonicalParams(a=5, b=3, k=1, m=2)]:
            assert delta_certificate(p).certified

    def test_proved_regime_certifies_throughout(self):
        # The theorem's own pipeline: in the proved regime the prefix
        # certificate at delta with candidates {n1, n2} always lands.
        for p in canonical_instances(max_n2=16, proved_only=True):
            res = delta_certificate(p)
            assert res.certified, p

    def test_scan_and_prefix_certificate_agree(self):
        # `verify`'s certificate inside the window scan and `haralambis_certify`
        # on the raw masks, at delta and just below it: 1,157 families, and
        # as many refutations.
        refuted = 0
        for p in canonical_instances(max_n2=30, include_equal=True):
            delta = conjectured_density(p).delta
            for d in (delta, delta - Fraction(1, p.n1 * p.n2)):
                rep = scan_windows(p, {"haralambis": certificate_check(p, d)})["haralambis"]
                res = haralambis_certify(forbidden_differences(p), d, (p.n1, p.n2))
                assert rep.passed == res.certified, (p, d)
                assert rep.windows_checked == res.windows_checked, (p, d)
                assert rep.counterexample == res.counterexample, (p, d)
                refuted += not res.certified
        assert refuted == 1157

    def test_certificate_matches_oracle(self):
        for p in canonical_instances(max_n2=14, proved_only=True):
            delta = conjectured_density(p).delta
            assert mu_exact(forbidden_differences(p)).value == delta


class TestWindowScan:
    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK_WINDOWS", 3)
        res = haralambis_certify([1, 5, 6], Fraction(1, 4), (7, 11))
        assert res.counterexample.members() == (0, 4, 8)
        assert res.windows_checked == 10
        assert check_m1_machinery(P511).windows_checked == 19

    def test_first_failure_per_check_across_chunks(self, monkeypatch):
        # Synthetic checks failing on every window that holds position x:
        # each must report the first such window of the full enumeration.
        monkeypatch.setattr(oracle, "_CHUNK_WINDOWS", 3)
        p = CanonicalParams(a=3, b=2, k=2, m=1)
        masks = list(iter_avoiding_masks(forbidden_differences(p), p.n2, True))

        def holding(x):
            def check(batch):
                rows = (batch.masks >> x & 1).nonzero()[0]
                return (int(rows[0]), f"holds {x}") if len(rows) else None

            return check

        checks = {f"x{x}": holding(x) for x in range(1, p.n2)}
        checks["main_inequality"] = main_inequality_check(p)
        reports = scan_windows(p, checks)
        assert list(reports) == list(checks)
        for x in range(1, p.n2):
            rep = reports[f"x{x}"]
            first = next((i for i, mask in enumerate(masks) if mask >> x & 1), None)
            if first is None:
                assert rep.passed and rep.windows_checked == len(masks)
            else:
                assert not rep.passed and rep.detail == f"holds {x}"
                assert rep.windows_checked == first + 1
                assert rep.counterexample == Window(p.n2, masks[first])
        assert reports["main_inequality"].passed
        assert reports["main_inequality"].windows_checked == len(masks)

    def test_verify_checks_do_not_depend_on_the_chunk_bound(self, monkeypatch):
        # The window checks of `verify --level machinery` report the same
        # whether the scan runs in 4 chunks (the default bound) or in
        # chunks of at most 1000 windows.
        p = CanonicalParams(a=15, b=4, k=1, m=1)
        delta = conjectured_density(p).delta

        def scan():
            checks = {
                "identities": identities_check(p),
                "main_inequality": main_inequality_check(p),
                "dichotomy": dichotomy_check(p),
                "haralambis": certificate_check(p, delta),
                "m1_chains": m1_check(p),
                "k1_mapping": k1_check(p),
            }
            return scan_windows(p, checks)

        chunks = oracle.avoiding_mask_chunks(forbidden_differences(p), p.n2)
        sizes = [len(masks) for masks in chunks]
        assert len(sizes) == 4 and sum(sizes) == 163_273
        reports = scan()
        monkeypatch.setattr(oracle, "_CHUNK_WINDOWS", 1000)
        assert scan() == reports
        assert all(rep.passed and rep.windows_checked == 163_273 for rep in reports.values())


FAMILIES_UP_TO_20 = list(canonical_instances(max_n2=20, include_equal=True))


def assert_rows_match_profile(batch, p):
    """Each row's I (the bits of its I mask), sizes and prefix counts are
    those of `profile` and `Window` on the row's window."""
    for row in range(len(batch)):
        w = batch.window(row)
        assert w == Window(p.n2, int(batch.masks[row]))
        assert batch.sizes(row) == profile(w, p).sizes
        i_mask = int(batch.i_mask[row])
        assert i_mask >> p.b == 0
        assert {x for x in range(p.b) if i_mask >> x & 1} == profile(w, p).empty_translates
        assert int(batch.below_n1[row]) == w.count_below(p.n1)
        assert int(batch.below_n2[row]) == w.count_below(p.n2)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.sampled_from(FAMILIES_UP_TO_20), st.sampled_from([1, 5, 7, 1 << 12, 1 << 16]))
def test_window_table_matches_per_window_code(p, chunk):
    M = forbidden_differences(p)
    with mock.patch.object(oracle, "_CHUNK_WINDOWS", chunk):
        batches = [WindowBatch(p, masks) for masks in oracle.avoiding_mask_chunks(M, p.n2)]
    masks = [mask for batch in batches for mask in batch.masks.tolist()]
    assert masks == list(iter_avoiding_masks(M, p.n2, True))
    for batch in batches:
        assert len(batch) <= chunk
        assert_rows_match_profile(batch, p)


@pytest.mark.parametrize("p", [CanonicalParams(15, 14, 1, 1), CanonicalParams(13, 12, 1, 1)])
def test_window_table_matches_per_window_code_on_random_masks(p):
    # b >= 12, so I reads offsets up to b - 1 from each window's I mask; the
    # masks need not avoid M, as `profile` reads any window with 0.
    rng = random.Random(p.b)
    masks = [rng.getrandbits(p.n2) | 1 for _ in range(2000)]
    assert_rows_match_profile(WindowBatch(p, np.array(masks, dtype=np.int64)), p)
