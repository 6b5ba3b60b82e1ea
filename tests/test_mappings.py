"""Band decompositions, offset walks, image assignments, chains, and the
two per-regime counting harnesses."""

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitypack import (
    CanonicalParams,
    InternalError,
    InvalidInput,
    LemmaViolation,
    NotInBand,
    ResourceLimit,
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
    _k1_images,
    _k1_plan,
    _k1_steps,
    _m1_images,
    _m1_plan,
    _m1_walk,
    _plan_flags,
    build_chain_partition,
    gap_decompose,
    image_pair,
    k1_check,
    k1_image,
    m1_check,
)
from densitypack.oracle import avoiding_mask_chunks
from densitypack.profile import WindowBatch, _profile_masks, scan_windows
from helpers import (
    INTEGER_LIKE,
    canonical_instances,
    reference_k1_flags,
    reference_k1_plan,
    reference_m1_flags,
    reference_m1_plan,
    reference_walk_stop,
)

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

    def test_every_band_position_has_a_positive_quotient(self):
        # The quotient needs no check: alpha - i*a >= b + 1 in band i.
        count = 0
        for p in canonical_instances(max_n2=63):
            for i in range(p.k):
                for alpha in range(i * p.a + p.b + 1, (i + 1) * p.a):
                    d = gap_decompose(alpha, p)
                    assert d.quotient >= 1 and 0 <= d.offset < p.b, (p, alpha)
                    count += 1
        assert count == 54_424

    def test_rejects_landmarks_and_gaps(self):
        # b, a, 2a are landmarks; 7 = a + b sits between the bands of P521.
        for alpha in [1, 2, 5, 7, 10, 14]:
            with pytest.raises(NotInBand):
                gap_decompose(alpha, P521)
        # 3 is a band position of P521, but not an element of this window.
        with pytest.raises(NotInBand, match="3 is not an element of the window"):
            image_pair(3, Window.from_members(P521.n2, [0]), P521)

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
        steps, _, end = _m1_walk(gap_decompose(5, P741), P741)
        assert [off for _, off, _ in steps] == [1] and end == 1 + 2 * P741.a
        assert 1 not in profile(w, P741).empty_translates
        assert image_pair(5, w, P741) == (16, 15)

    def test_multi_step_walk(self):
        # I = {2, 4}; offsets walk 1, 3 and stop at the threshold 3.
        w = Window.from_members(19, [0, 6, 8, 10])
        steps, _, end = _m1_walk(gap_decompose(6, P751), P751)
        assert [off for _, off, _ in steps] == [1, 3] and end == 3 + 2 * P751.a
        assert profile(w, P751).empty_translates == frozenset({2, 4})
        assert image_pair(6, w, P751) == (18, 17)

    def test_empty_translate_stop_wins_tie(self):
        # A = {0, 6, 8}: offset 1 is occupied (1 + S meets A at 8), offset 3
        # is an empty translate AND sits at the threshold; I wins the tie.
        w = Window.from_members(19, [0, 6, 8])
        prof = profile(w, P751)
        assert 1 not in prof.empty_translates
        assert 3 in prof.empty_translates
        assert [off for _, off, _ in _m1_walk(gap_decompose(6, P751), P751)[0]] == [1, 3]
        assert image_pair(6, w, P751) == (18, 3)

    def test_missing_witness_raises_during_walk(self):
        # A = {0, 5, 12} is not avoiding (12 - 5 = 7 = a): offset 1 of alpha = 5
        # misses I, and its witness 1 + 1*a = 8 is not in A.
        w = Window.from_members(18, [0, 5, 12])
        assert 1 not in profile(w, P741).empty_translates
        with pytest.raises(LemmaViolation, match="witness-missing.*offset 1 \\(band 0\\)"):
            image_pair(5, w, P741)

    def test_regime_gate(self):
        # The route is refused before the element is looked up: 4 is not in A.
        with pytest.raises(UnsupportedRegime):
            image_pair(4, Window.from_members(16, [0]), P532)
        with pytest.raises(UnsupportedRegime, match="m = 2: the chain route needs m = 1"):
            image_pair(4, Window.from_members(16, [0, 4]), P532)


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
        # A window with no band element gives k1_image nothing to refuse.
        with pytest.raises(UnsupportedRegime, match="k = 2: the block route needs k = 1"):
            verify_k1_mapping(Window.from_members(P521.n2, [0]), P521)


class TestK1Trajectory:
    def test_threshold_with_blocks(self):
        # One step (eta, off) = (1, 1); the next quotient 3 = m + 1 ends it.
        w = Window.from_members(14, [0, 3, 6])
        steps, nxt = _k1_steps(3, P512)
        assert [(q, off) for q, off, _ in steps] == [(1, 1)] and nxt == 3
        assert k1_image(3, w, P512).union == frozenset({11, 12, 13})

    def test_empty_translate_stop(self):
        # The walk's first offset 1 is in I, so the walk stops there.
        w = Window.from_members(16, [0, 4])
        steps, _ = _k1_steps(4, P532)
        assert (steps[0][0], steps[0][1]) == (1, 1) and len(steps) > 1
        assert k1_image(4, w, P532).translate_target == 1

    def test_quotient_monotone(self):
        for p in canonical_instances(max_n2=30):
            if p.k != 1:
                continue
            for alpha in range(p.b + 1, p.a):
                if gap_decompose(alpha, p).quotient > p.m:
                    continue
                quots = [q for q, _, _ in _k1_steps(alpha, p)[0]]
                assert quots == sorted(quots), (p, alpha)

    def test_missing_witness_raises_during_walk(self):
        # A = {0, 3, 8} is not avoiding (8 - 3 = 5 = a): offset 1 of alpha = 3
        # (eta = 1) misses I, and its witness 1 + a + 0*b = 6 is not in A.
        w = Window.from_members(14, [0, 3, 8])
        assert 1 not in profile(w, P512).empty_translates
        with pytest.raises(LemmaViolation, match="witness-missing.*offset 1: .* m' < 1"):
            k1_image(3, w, P512)

    def test_regime_gate(self):
        with pytest.raises(UnsupportedRegime):
            k1_image(3, Window.from_members(P521.n2, [0, 3]), P521)


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


@pytest.mark.parametrize("harness, other", [(check_m1_machinery, (1, 2)), (check_k1_machinery, (2, 1))])
def test_harness_refuses_a_family_over_the_cap_before_its_plan(harness, other):
    # (6001, 3000, 1, 1) has n2 = 15,002.  Its plan would take about 12 MB
    # and a third of a second to build; the cap is checked first.  A family of the
    # other regime is still refused as such, whatever its n2.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="window length 15002 exceeds enumeration cap 49"):
            harness(CanonicalParams(a=6001, b=3000, k=1, m=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    with pytest.raises(UnsupportedRegime):
        harness(CanonicalParams(6001, 3000, *other), enum_cap=0)


@pytest.mark.parametrize(
    "func, args, message",
    [
        (verify_m1_inequality, (Window.from_members(P511.n2, [0]), 5), "params must be a"),
        (verify_m1_inequality, (5, P511), "window must be a Window, got 5"),
        (verify_k1_mapping, (5, P512), "window must be a Window, got 5"),
        (verify_k1_mapping, (Window.from_members(P512.n2, [0]), 5), "params must be a"),
        (check_m1_machinery, (5,), "params must be a CanonicalParams, got 5"),
        (check_k1_machinery, (5,), "params must be a CanonicalParams, got 5"),
        (gap_decompose, (5, 5), "params must be a CanonicalParams, got 5"),
        (image_pair, (2.5, Window.from_members(P741.n2, [0, 5]), P741), "alpha must be an integer"),
        (image_pair, (5, Window.from_members(P741.n2, [0, 5]), 5), "params must be a"),
        (k1_image, (2.5, Window.from_members(P512.n2, [0, 3]), P512), "alpha must be an integer"),
        (k1_image, (5, Window.from_members(P741.n2, [0, 5]), 5), "params must be a"),
        (build_chain_partition, (Window.from_members(P741.n2, [0]), 5), "params must be a"),
        (image_pair, (5, 7, P741), "window must be a Window, got 7"),
        (k1_image, (5, 7, P741), "window must be a Window, got 7"),
    ],
)
def test_arguments_of_other_types_are_refused(func, args, message):
    # These used to raise a bare AttributeError (or TypeError).
    with pytest.raises(InvalidInput, match=message):
        func(*args)


class TestTranslateWitness:
    def test_vacuous_when_offset_in_translates(self):
        # I = {1, 2} for (5,3,1,2).  Offset 1 of alpha = 4 has no witness (its
        # mask holds only 1 + a = 6, not in A), but it is an empty translate,
        # so the walk owes none.
        w = Window.from_members(16, [0, 4])
        q, off, witness = _k1_steps(4, P532)[0][0]
        assert (q, off, witness) == (1, 1, 1 << 6) and not w.mask & witness
        assert k1_image(4, w, P532).translate_target == 1

    def test_present_m1(self):
        # alpha = 5 walks the one offset 1, whose mask holds 1 + 1*a = 8.
        w = Window.from_members(18, [0, 5, 8])
        steps, v, end = _m1_walk(gap_decompose(5, P741), P741)
        assert steps == ((None, 1, 1 << 8),) and (v, end) == (16, 15)
        assert w.mask & steps[0][2] == 1 << 8

    def test_present_k1(self):
        # alpha = 3 walks (eta, off) = (1, 1), whose mask holds 1 + 5 + 0*2 = 6.
        w = Window.from_members(14, [0, 3, 6])
        assert _k1_steps(3, P512) == (((1, 1, 1 << 6),), 3)
        assert w.mask & (1 << 6)

    def test_witness_positions_lie_in_the_window(self):
        # Every step's mask holds its k - band (m = 1) or eta_n (k = 1)
        # positions, all in [0, n2), on every family whose windows fit an
        # int64 mask.  So testing A against the mask is testing each position.
        positions = 0
        for p in canonical_instances(max_n2=63, include_equal=True):
            walks = []
            if p.m == 1:
                walks += [(alpha, steps, p.k - band) for alpha, band, steps, _, _ in _m1_images(p)]
            if p.k == 1:
                walks += [(alpha, steps, None) for alpha, steps, _ in _k1_images(p)]
            for alpha, steps, m1_size in walks:
                for q, _, witness in steps:
                    size = m1_size if q is None else q
                    assert witness >> p.n2 == 0 and witness.bit_count() == size, (p, alpha)
                    positions += size
        assert positions == 249_949


# ──────────────────────────────────────────────────────────────────────────
# the array filters against the per-window reference
# ──────────────────────────────────────────────────────────────────────────


def harnesses(p):
    """(name, window check, array filter, per-window reference) per regime of p."""
    out = []
    if p.m == 1:
        m1_plan = _m1_plan(p)
        out.append(("m1", m1_check(p), lambda b: _plan_flags(b, m1_plan), verify_m1_inequality))
    if p.k == 1:
        k1_plan = _k1_plan(p)
        out.append(("k1", k1_check(p), lambda b: _plan_flags(b, k1_plan), verify_k1_mapping))
    return out


def filter_pairs(p):
    """(name, array filter, earlier filter) per regime of p: the filters
    of `mappings` and the walk-by-walk ones kept in `helpers`."""
    out = []
    if p.m == 1:
        m1_plan, m1_walks = _m1_plan(p), reference_m1_plan(p)
        out.append(
            ("m1", lambda b: _plan_flags(b, m1_plan), lambda b: reference_m1_flags(b, p, m1_walks))
        )
    if p.k == 1:
        k1_plan, k1_walks = _k1_plan(p), reference_k1_plan(p)
        out.append(
            ("k1", lambda b: _plan_flags(b, k1_plan), lambda b: reference_k1_flags(b, p, k1_walks))
        )
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

    def test_m1_plans_end_in_the_top_interval(self):
        # What `_m1_plan` reads off `_m1_images`, on every m = 1 family whose
        # windows fit an int64 mask, a = b = 1 included: v lies in (n1, n2),
        # every walk ends at a w in [n1, n2), and v is neither an offset of
        # its walk nor its w.  `_m1_images` raises InternalError where one
        # fails, so every plan builds.
        families = [p for p in canonical_instances(max_n2=63, include_equal=True) if p.m == 1]
        for p in families:
            for alpha, _, steps, v, w in _m1_images(p):
                assert p.n1 < v < p.n2, (p, alpha)
                assert w is not None and p.n1 <= w < p.n2, (p, alpha)
                assert v not in [off for _, off, _ in steps] + [w], (p, alpha)
            _m1_plan(p)
        assert len(families) == 613

    def test_k1_plans_end_in_the_top_interval(self):
        # What `_k1_plan` reads off `_k1_images`, on every k = 1 family
        # whose windows fit an int64 mask: no walk reaches the cap, and every
        # union of m + 1 disjoint positions lies in [n1, n2).  Some unions
        # overlap.  `_k1_images` raises InternalError where one fails, so
        # every plan builds.
        families = [p for p in canonical_instances(max_n2=63, include_equal=True) if p.k == 1]
        valid = overlapping = 0
        for p in families:
            for alpha, steps, union in _k1_images(p):
                if steps:
                    assert _k1_steps(alpha, p)[1] is not None, (p, alpha)
                if union is None:
                    overlapping += 1
                    continue
                assert all(p.n1 <= u < p.n2 for u in union), (p, alpha)
                valid += 1
            _k1_plan(p)
        assert len(families) == 1787 and (valid, overlapping) == (10_031, 4_665)

    @pytest.mark.parametrize(
        "p, name, fake, message",
        [
            # A walk that runs past its cap, an end below n1, and a v that is
            # also its own w.
            (P741, "_m1_walk", lambda dec, p: ((), 16, None), "images v = 16, w = None"),
            (P741, "_m1_walk", lambda dec, p: ((), 16, 3), "images v = 16, w = 3"),
            (P741, "_m1_walk", lambda dec, p: ((), 16, 16), "images v = 16, w = 16"),
            # A k = 1 walk past its cap, and a hole image outside [n1, n2).
            (P512, "_k1_steps", lambda alpha, p: (((1, 1, 64),), None), "ran past its cap"),
            (P512, "_k1_union", lambda alpha, *_: frozenset({3, 13, 14}), "image \\[3, 13, 14\\]"),
        ],
    )
    def test_plans_refuse_images_the_filters_cannot_read(self, p, name, fake, message):
        # The filters read these facts off the images without testing them
        # per row, so a plan refuses to build on images that break one.
        plan = _m1_plan if name == "_m1_walk" else _k1_plan
        with mock.patch(f"densitypack.mappings.{name}", fake):
            with pytest.raises(InternalError, match=message):
                plan(p)

    def test_flags_equal_the_earlier_filters_on_every_small_window(self):
        # Every avoiding window of every proved family with n2 <= 26: the
        # filters flag exactly the rows that the earlier filters flag.
        rows = 0
        for p in canonical_instances(max_n2=26, proved_only=True):
            pairs = filter_pairs(p)
            for masks in avoiding_mask_chunks(forbidden_differences(p), p.n2):
                batch = WindowBatch(p, masks)
                for name, flag_rows, earlier in pairs:
                    assert np.array_equal(flag_rows(batch), earlier(batch)), (p, name)
                    rows += len(masks)
        assert rows == 131_214

    def test_flags_equal_the_earlier_filters_on_random_masks(self):
        # Seeded masks of [0, n2), avoiding or not, on every m = 1 and k = 1
        # family with a < 40 whose windows fit an int64 mask: uniform ones,
        # which the count bound flags often, and sparse ones of at most four
        # positions, which single out the terms of one or two walks.  The
        # plans have no count-bound term: every row over the bound (m = 1:
        # (k+1)|T| > k(|I|+|U|); k = 1: (m+1)|T| > (m+1)|I| + |U|) must
        # hold a term of the images.
        rng = np.random.default_rng(36)
        families = list(canonical_instances(max_n2=63, max_a=39, include_equal=True))
        families = [p for p in families if p.k == 1 or p.m == 1]
        rows = flagged = over_bound = 0
        for p in families:
            uniform = rng.integers(0, 1 << p.n2, 32, dtype=np.int64)
            positions = rng.integers(0, p.n2, (96, 4), dtype=np.int64)
            positions[:, 2:] = np.where(rng.random((96, 2)) < 0.5, positions[:, :1], positions[:, 2:])
            sparse = np.bitwise_or.reduce(np.int64(1) << positions, axis=1)
            batch = WindowBatch(p, np.concatenate([uniform, sparse]))
            n_i, n_t, n_u = batch.n_i, batch.n_t, batch.n_u
            for name, flag_rows, earlier in filter_pairs(p):
                flags = flag_rows(batch)
                assert np.array_equal(flags, earlier(batch)), (p, name)
                if name == "m1":
                    over = (p.k + 1) * n_t > p.k * (n_i + n_u)
                else:
                    over = (p.m + 1) * n_t > (p.m + 1) * n_i + n_u
                assert not (over & ~flags).any(), (p, name)
                rows += len(flags)
                flagged += int(np.count_nonzero(flags))
                over_bound += int(np.count_nonzero(over))
        # Both kinds of row are common: the flags have something to agree on,
        # and about a quarter of the rows are over the count bound.
        assert len(families) == 2196 and rows == 307_200 and 0.2 < flagged / rows < 0.6
        assert over_bound == 82_244

    def test_nothing_flagged_on_avoiding_windows(self):
        for p in [P511, P521, P741, P512, P532]:
            M = forbidden_differences(p)
            masks = np.array([w.mask for w in enumerate_avoiding_windows(M, p.n2)], dtype=np.int64)
            batch = WindowBatch(p, masks)
            for name, _, flag_rows, _ in harnesses(p):
                assert not flag_rows(batch).any(), (p, name)
        # The proved families of `verify --level machinery`'s benchmark
        # workload (k, m <= 3, n2 <= 26): no row is flagged, so no window
        # there runs the per-window reference.
        lattice = [
            p for p in canonical_instances(max_n2=26, proved_only=True) if max(p.k, p.m) <= 3
        ]
        rows = 0
        for p in lattice:
            routes = harnesses(p)
            for masks in avoiding_mask_chunks(forbidden_differences(p), p.n2):
                batch = WindowBatch(p, masks)
                for name, _, flag_rows, _ in routes:
                    assert not flag_rows(batch).any(), (p, name)
                    rows += len(masks)
        assert len(lattice) == 109 and rows == 129_300


def test_walks_stop_where_an_independent_walk_does():
    # Every band element of every avoiding window of each m = 1 and k = 1
    # family with n2 <= 18: image_pair's w is an offset (below b) exactly
    # when the walk stops in I, and k1_image's translate target is that stop.
    walks = {"m": 0, "k": 0}
    stops = {"m": 0, "k": 0}
    for p in canonical_instances(max_n2=18, proved_only=True):
        for w in enumerate_avoiding_windows(forbidden_differences(p), p.n2):
            prof = profile(w, p)
            for alpha in sorted(prof.band_all):
                found = {}
                if p.m == 1:
                    image = image_pair(alpha, w, p)[1]
                    found["m"] = image if image < p.b else None
                if p.k == 1:
                    found["k"] = k1_image(alpha, w, p).translate_target
                for route, stop in found.items():
                    assert stop == reference_walk_stop(alpha, p, route, prof.empty_translates), (
                        p, w, route, alpha,
                    )
                    walks[route] += 1
                    stops[route] += stop is not None
    assert (walks, stops) == ({"m": 892, "k": 917}, {"m": 193, "k": 199})


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
