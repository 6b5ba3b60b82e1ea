"""Band decompositions, offset trajectories, image assignments, chains,
and the two per-regime counting harnesses."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitypack import (
    CanonicalParams,
    InvalidInput,
    LemmaViolation,
    NotInBand,
    UnsupportedRegime,
    Window,
    check_k1_machinery,
    check_m1_machinery,
    enumerate_avoiding_windows,
    forbidden_differences,
    profile,
    verify_k1_mapping,
    verify_m1_inequality,
)
from densitypack.mappings import (
    _k1_flags,
    _k1_plan,
    _k1_witness,
    _m1_flags,
    _m1_plan,
    _m1_witness,
    build_chain_partition,
    gap_decompose,
    image_pair,
    k1_check,
    k1_image,
    k1_trajectory,
    m1_check,
    m1_trajectory,
)
from densitypack.profile import WindowBatch, _profile_masks, scan_windows
from helpers import INTEGER_LIKE, canonical_instances

# The package root re-exports the function `profile`, which shadows the
# module of the same name as an attribute.
profile_module = importlib.import_module("densitypack.profile")

P511 = CanonicalParams(a=5, b=1, k=1, m=1)
P521 = CanonicalParams(a=5, b=2, k=2, m=1)  # two bands: [3,4] and [8,9]
P741 = CanonicalParams(a=7, b=4, k=1, m=1)
P751 = CanonicalParams(a=7, b=5, k=1, m=1)
P512 = CanonicalParams(a=5, b=2, k=1, m=2)
P532 = CanonicalParams(a=5, b=3, k=1, m=2)
P912 = CanonicalParams(a=9, b=2, k=1, m=2)


class TestGapDecompose:
    def test_two_band_example(self):
        d = gap_decompose(9, P521)
        assert (d.band, d.quotient, d.offset) == (1, 2, 0)
        d = gap_decompose(3, P521)
        assert (d.band, d.quotient, d.offset) == (0, 1, 1)

    def test_reconstruction(self):
        for p in [P521, P741, P512]:
            for i in range(p.k):
                for alpha in range(i * p.a + p.b + 1, (i + 1) * p.a):
                    d = gap_decompose(alpha, p)
                    assert d.band == i and 0 <= d.offset < p.b and d.quotient >= 1
                    assert d.band * p.a + d.quotient * p.b + d.offset == alpha

    def test_rejects_landmarks_and_gaps(self):
        # b, a, 2a are landmarks; 7 = a + b sits between the bands of P521.
        for alpha in [1, 2, 5, 7, 10, 14]:
            with pytest.raises(NotInBand):
                gap_decompose(alpha, P521)

    @pytest.mark.parametrize("value", INTEGER_LIKE)
    def test_reads_an_integer(self, value):
        # 2.5 used to give GapDecomposition(alpha=2.5, band=0, quotient=2.0, ...).
        if isinstance(value, np.integer):
            d = gap_decompose(value, P521)
            assert d == gap_decompose(3, P521) and type(d.alpha) is int
        else:
            with pytest.raises(InvalidInput, match="alpha must be an integer"):
                gap_decompose(value, P521)


class TestM1Trajectory:
    def test_threshold_stop(self):
        # offset 1 is not an empty translate and already sits at 2b - a = 1.
        w = Window.from_members(18, [0, 5, 8])
        traj = m1_trajectory(5, w, P741)
        assert traj.steps == ((None, 1),)
        assert traj.stop_reason == "threshold"
        assert not traj.truncated and traj.final_quotient is None
        assert traj.last_offset == 1

    def test_multi_step_walk(self):
        # I = {2, 4}; offsets walk 1, 3 and stop at the threshold 3.
        w = Window.from_members(19, [0, 6, 8, 10])
        traj = m1_trajectory(6, w, P751)
        assert [off for _, off in traj.steps] == [1, 3]
        assert traj.stop_reason == "threshold"

    def test_empty_translate_stop_wins_tie(self):
        # A = {0, 6, 8}: offset 1 is occupied (1 + S meets A at 8), offset 3
        # is an empty translate AND sits at the threshold; I wins the tie.
        w = Window.from_members(19, [0, 6, 8])
        prof = profile(w, P751)
        assert 1 not in prof.empty_translates
        assert 3 in prof.empty_translates
        traj = m1_trajectory(6, w, P751)
        assert traj.stop_reason == "empty_translate"
        assert traj.last_offset == 3
        assert image_pair(6, w, P751) == (18, 3)

    def test_quotient_gate(self):
        w = Window.from_members(11, [0, 3, 7, 10])
        with pytest.raises(InvalidInput):
            m1_trajectory(3, w, P511)  # quotient 3, not 1

    def test_missing_witness_raises_during_walk(self):
        # A = {0, 5, 12} is not avoiding (12 - 5 = 7 = a): offset 1 of alpha = 5
        # misses I, and its witness 1 + 1*a = 8 is not in A.
        w = Window.from_members(18, [0, 5, 12])
        assert 1 not in profile(w, P741).empty_translates
        with pytest.raises(LemmaViolation, match="witness-missing.*offset 1 \\(band 0\\)"):
            m1_trajectory(5, w, P741)

    def test_regime_gate(self):
        w = Window.from_members(16, [0])
        with pytest.raises(UnsupportedRegime):
            m1_trajectory(4, w, P532)


class TestM1Images:
    def test_large_quotient_pair(self):
        w = Window.from_members(11, [0, 3, 7, 10])
        assert image_pair(3, w, P511) == (9, 8)

    def test_threshold_pair(self):
        w = Window.from_members(18, [0, 5, 8])
        assert image_pair(5, w, P741) == (16, 15)

    def test_multi_step_pair(self):
        w = Window.from_members(19, [0, 6, 8, 10])
        assert image_pair(6, w, P751) == (18, 17)

    def test_pairs_are_holes_or_translates(self):
        p = P521
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            prof = profile(w, p)
            for alpha in sorted(prof.band_all):
                v, hole_or_translate = image_pair(alpha, w, p)
                assert v in prof.top_holes
                assert (
                    hole_or_translate in prof.top_holes
                    or hole_or_translate in prof.empty_translates
                )


class TestChainPartition:
    def test_frozen_census(self):
        # Across all avoiding windows of (5,2,2,1), exactly one produces a
        # chain edge, and its structure is pinned down completely.
        p = P521
        M = forbidden_differences(p)
        linked = []
        for w in enumerate_avoiding_windows(M, p.n2):
            part = build_chain_partition(w, p)
            if part.edges:
                linked.append((w, part))
        assert len(linked) == 1
        w, part = linked[0]
        assert w.members() == (0, 3, 6, 9)
        assert part.edges == ((9, 3),)
        assert part.image_map == {3: (15, 16), 9: (16, 14)}
        assert (9, 3) in part.chains or (9, 3) == part.chains[0]
        chains_with_both = [c for c in part.chains if len(c) == 2]
        assert chains_with_both == [(9, 3)]

    def test_singleton_chains_by_default(self):
        w = Window.from_members(P521.n2, [0, 3])
        part = build_chain_partition(w, P521)
        assert part.chains == ((3,),) and part.edges == ()

    def test_chain_cover_is_a_partition(self):
        p = P521
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            prof = profile(w, p)
            part = build_chain_partition(w, p)
            flattened = sorted(x for c in part.chains for x in c)
            assert flattened == sorted(prof.band_all)

    def test_regime_gate(self):
        with pytest.raises(UnsupportedRegime):
            build_chain_partition(Window.from_members(16, [0]), P532)


class TestM1Inequality:
    def test_holds_on_every_window(self):
        for p in [P511, P521, P741]:
            M = forbidden_differences(p)
            for w in enumerate_avoiding_windows(M, p.n2):
                assert verify_m1_inequality(w, p)

    def test_harness_report(self):
        report = check_m1_machinery(P511)
        assert report.passed and report.windows_checked == 19
        report = check_m1_machinery(CanonicalParams(a=3, b=2, k=2, m=1))
        assert report.passed and report.windows_checked == 8

    def test_harness_regime_gate(self):
        with pytest.raises(UnsupportedRegime):
            check_m1_machinery(P532)


class TestK1View:
    def test_regime_gate(self):
        # Every reader of the k = 1 block structure refuses a family with k != 1.
        w = Window.from_members(P521.n2, [0, 3])
        with pytest.raises(UnsupportedRegime):
            k1_image(3, w, P521)
        with pytest.raises(UnsupportedRegime):
            verify_k1_mapping(w, P521)
        with pytest.raises(UnsupportedRegime):
            k1_check(P521)


class TestK1Trajectory:
    def test_threshold_with_blocks(self):
        w = Window.from_members(14, [0, 3, 6])
        traj = k1_trajectory(3, w, P512)
        assert traj.steps == ((1, 1),)
        assert traj.stop_reason == "threshold"
        assert traj.final_quotient == 3 and not traj.truncated

    def test_empty_translate_stop(self):
        w = Window.from_members(16, [0, 4])
        traj = k1_trajectory(4, w, P532)
        assert traj.steps == ((1, 1),)
        assert traj.stop_reason == "empty_translate"
        assert traj.last_offset == 1

    def test_quotient_monotone(self):
        for p in [P512, P532]:
            M = forbidden_differences(p)
            for w in enumerate_avoiding_windows(M, p.n2):
                prof = profile(w, p)
                for alpha in sorted(prof.band_all):
                    if gap_decompose(alpha, p).quotient > p.m:
                        continue
                    traj = k1_trajectory(alpha, w, p)
                    quots = [q for q, _ in traj.steps]
                    assert quots == sorted(quots)

    def test_large_quotient_gate(self):
        w = Window.from_members(P912.n2, [0, 7])
        with pytest.raises(InvalidInput):
            k1_trajectory(7, w, P912)

    def test_missing_witness_raises_during_walk(self):
        # A = {0, 3, 8} is not avoiding (8 - 3 = 5 = a): offset 1 of alpha = 3
        # (eta = 1) misses I, and its witness 1 + a + 0*b = 6 is not in A.
        w = Window.from_members(14, [0, 3, 8])
        assert 1 not in profile(w, P512).empty_translates
        with pytest.raises(LemmaViolation, match="witness-missing.*offset 1: .* m' < 1"):
            k1_trajectory(3, w, P512)

    def test_regime_gate(self):
        with pytest.raises(UnsupportedRegime):
            k1_trajectory(3, Window.from_members(P521.n2, [0, 3]), P521)


class TestK1Images:
    def test_threshold_blocks(self):
        w = Window.from_members(14, [0, 3, 6])
        img = k1_image(3, w, P512)
        assert not img.into_translates
        assert img.primary_block == frozenset({12})
        assert img.step_blocks == (frozenset({11, 13}),)
        assert img.union == frozenset({11, 12, 13})

    def test_large_quotient_block(self):
        w = Window.from_members(P912.n2, [0, 7])
        img = k1_image(7, w, P912)
        assert img.union == frozenset({16, 18, 20})
        assert img.step_blocks == ()

    def test_translate_target(self):
        w = Window.from_members(16, [0, 4])
        img = k1_image(4, w, P532)
        assert img.into_translates and img.translate_target == 1
        assert img.union is None

    def test_union_always_m_plus_1_holes(self):
        p = P512
        M = forbidden_differences(p)
        for w in enumerate_avoiding_windows(M, p.n2):
            prof = profile(w, p)
            for alpha in sorted(prof.band_all):
                img = k1_image(alpha, w, p)
                if not img.into_translates:
                    assert len(img.union) == p.m + 1
                    assert img.union <= prof.top_holes


class TestK1Mapping:
    def test_holds_on_every_window(self):
        for p in [P512, P532, CanonicalParams(a=7, b=2, k=1, m=2)]:
            M = forbidden_differences(p)
            for w in enumerate_avoiding_windows(M, p.n2):
                assert verify_k1_mapping(w, p)

    def test_harness_report(self):
        report = check_k1_machinery(P532)
        assert report.passed and report.windows_checked == 49
        report = check_k1_machinery(P512)
        assert report.passed and report.windows_checked == 23

    def test_harness_regime_gate(self):
        with pytest.raises(UnsupportedRegime):
            check_k1_machinery(P521)

    def test_k1_reading_of_532(self):
        # With k = 1, M splits into the short steps {j*b : 1 <= j <= m} and
        # the long ones {a + j*b : 0 <= j <= m}; T lives in (b, a) and U in
        # [a + (m+1)*b, n2).
        a, b, m = P532.a, P532.b, P532.m
        short = {j * b for j in range(1, m + 1)}
        long = {a + j * b for j in range(m + 1)}
        assert forbidden_differences(P532).elements == tuple(sorted(short | long))
        assert forbidden_differences(P532).elements == (3, 5, 6, 8, 11)
        assert P532.n2 == 16
        assert profile(Window.from_members(16, [0, 4]), P532).band_parts == (frozenset({4}),)
        assert profile(Window.from_members(16, [0]), P532).top_holes == frozenset({14, 15})


class TestTranslateWitness:
    def test_vacuous_when_offset_in_translates(self):
        # I = {1, 2} for (5,3,1,2).  Offset 1 has no witness (1 + a = 6 is not
        # in A), but it is an empty translate, so the trajectory owes none.
        w = Window.from_members(16, [0, 4])
        with pytest.raises(LemmaViolation, match="witness-missing"):
            _k1_witness(1, 1, w, P532)
        assert k1_trajectory(4, w, P532).stop_reason == "empty_translate"

    def test_present_m1(self):
        w = Window.from_members(18, [0, 5, 8])
        assert _m1_witness(1, 0, w, P741) == 8

    def test_present_k1(self):
        w = Window.from_members(14, [0, 3, 6])
        # offset 1 with eta = 3: 1 + 5 + 0*2 = 6 is in A.
        assert _k1_witness(1, 3, w, P512) == 6

    def test_missing_m1(self):
        w = Window.from_members(11, [0])
        with pytest.raises(LemmaViolation) as exc:
            _m1_witness(0, 0, w, P511)
        assert "witness-missing" in str(exc.value)

    def test_missing_k1(self):
        w = Window.from_members(16, [0])
        with pytest.raises(LemmaViolation):
            _k1_witness(0, 1, w, P532)


# ──────────────────────────────────────────────────────────────────────────
# the array filters against the per-window reference
# ──────────────────────────────────────────────────────────────────────────


def harnesses(p):
    """(name, window check, array filter, per-window reference) per regime of p."""
    out = []
    if p.m == 1:
        m1_walks = _m1_plan(p)
        out.append(("m1", m1_check(p), lambda b: _m1_flags(b, p, m1_walks), verify_m1_inequality))
    if p.k == 1:
        k1_walks = _k1_plan(p)
        out.append(("k1", k1_check(p), lambda b: _k1_flags(b, p, k1_walks), verify_k1_mapping))
    return out


def reference_failures(p, masks, check_window):
    """Per window: the reference's LemmaViolation text, or None if it passes."""
    out = []
    for mask in masks.tolist():
        try:
            check_window(Window(p.n2, mask), p)
            out.append(None)
        except LemmaViolation as exc:
            out.append(str(exc))
    return out


def scan_masks(p, masks, checks, batch_size):
    """scan_windows over the given masks, in chunks of batch_size, in place
    of the family's enumeration."""

    def chunks(*args, **kwargs):
        return (masks[i : i + batch_size] for i in range(0, len(masks), batch_size))

    with mock.patch.object(profile_module, "avoiding_mask_chunks", chunks):
        return scan_windows(p, checks)


def assert_matches_reference(p, masks, batch_size):
    routes = harnesses(p)
    reports = scan_masks(p, masks, {name: check for name, check, _, _ in routes}, batch_size)
    batch = WindowBatch(p, masks)
    for name, _, flag_rows, check_window in routes:
        details = reference_failures(p, masks, check_window)
        fails = np.array([d is not None for d in details])
        assert not (fails & ~flag_rows(batch)).any(), name
        rep = reports[name]
        first = next((i for i, d in enumerate(details) if d is not None), None)
        if first is None:
            assert rep.passed and rep.windows_checked == len(masks)
            assert rep.counterexample is None and rep.detail is None
        else:
            assert not rep.passed and rep.windows_checked == first + 1
            assert rep.counterexample == Window(p.n2, int(masks[first]))
            assert rep.detail == details[first]
    return len(masks) * len(routes)


class TestArrayFilter:
    def test_sound_on_every_window_with_a_band_element(self):
        # Every window of [0, n2) that contains 0 and has a band element,
        # avoiding or not: the non-avoiding ones are where the reference fails.
        checked = 0
        for p in [P511, P521, P512, P532, CanonicalParams(a=4, b=1, k=1, m=3)]:
            band = sum(_profile_masks(p)[1])
            masks = np.arange(1, 1 << p.n2, 2, dtype=np.int64)
            checked += assert_matches_reference(p, masks[(masks & band) != 0], 4096)
        assert checked == 86_528

    def test_shared_translate_target_is_flagged(self):
        # Only the k = 1 target-disjointness test flags this window, and no
        # window of the exhaustive set above needs it: alphas 3 and 5 both
        # map to the translate target 1.
        p = CanonicalParams(a=7, b=2, k=1, m=2)
        w = Window.from_members(p.n2, [0, 3, 5, 11, 14])
        with pytest.raises(LemmaViolation, match="share translate target 1"):
            verify_k1_mapping(w, p)
        assert_matches_reference(p, np.array([w.mask], dtype=np.int64), 1)

    def test_nothing_flagged_on_avoiding_windows(self):
        for p in [P511, P521, P741, P512, P532]:
            M = forbidden_differences(p)
            masks = np.array([w.mask for w in enumerate_avoiding_windows(M, p.n2)], dtype=np.int64)
            batch = WindowBatch(p, masks)
            for name, _, flag_rows, _ in harnesses(p):
                assert not flag_rows(batch).any(), (p, name)


PROVED_UP_TO_20 = list(canonical_instances(max_n2=20, proved_only=True))


@st.composite
def family_and_windows(draw):
    p = draw(st.sampled_from(PROVED_UP_TO_20))
    members = st.frozensets(st.integers(1, p.n2 - 1), max_size=6)
    windows = draw(st.lists(members, min_size=1, max_size=30))
    masks = np.array([1 + sum(1 << x for x in w) for w in windows], dtype=np.int64)
    return p, masks


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(family_and_windows(), st.sampled_from([1, 7, 4096]))
def test_scan_matches_per_window_reference(family_masks, batch_size):
    p, masks = family_masks
    assert_matches_reference(p, masks, batch_size)
