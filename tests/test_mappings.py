"""Band decompositions, offset trajectories, image assignments, chains,
and the two per-regime counting harnesses."""

import pytest

from densitypack import (
    CanonicalParams,
    InvalidInput,
    LemmaViolation,
    NotInBand,
    UnsupportedRegime,
    Window,
    build_chain_partition,
    check_k1_machinery,
    check_m1_machinery,
    enumerate_avoiding_windows,
    forbidden_differences,
    gap_decompose,
    image_pair,
    k1_image,
    k1_trajectory,
    m1_trajectory,
    profile,
    translate_witness,
    verify_k1_mapping,
    verify_m1_inequality,
)
from densitypack.mappings import k1_check

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
                v, hole_or_translate = image_pair(alpha, w, p, prof)
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
            part = build_chain_partition(w, p, prof)
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
                    traj = k1_trajectory(alpha, w, p, prof)
                    quots = [q for q, _ in traj.steps]
                    assert quots == sorted(quots)

    def test_large_quotient_gate(self):
        w = Window.from_members(P912.n2, [0, 7])
        with pytest.raises(InvalidInput):
            k1_trajectory(7, w, P912)

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
                img = k1_image(alpha, w, p, prof)
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
        w = Window.from_members(16, [0, 4])  # I = {1, 2} for (5,3,1,2)
        assert translate_witness(1, w, P532, "k1", quotient=1) is None

    def test_present_m1(self):
        w = Window.from_members(18, [0, 5, 8])
        assert translate_witness(1, w, P741, "m1", band=0) == 8

    def test_present_k1(self):
        w = Window.from_members(14, [0, 3, 6])
        # offset 1 with eta = 3: 1 + 5 + 0*2 = 6 is in A.
        assert translate_witness(1, w, P512, "k1", quotient=3) == 6

    def test_missing_m1(self):
        w = Window.from_members(11, [0])
        with pytest.raises(LemmaViolation) as exc:
            translate_witness(0, w, P511, "m1", band=0)
        assert "witness-missing" in str(exc.value)

    def test_missing_k1(self):
        w = Window.from_members(16, [0])
        with pytest.raises(LemmaViolation):
            translate_witness(0, w, P532, "k1", quotient=1)

    def test_argument_validation(self):
        w = Window.from_members(18, [0, 5, 8])
        with pytest.raises(InvalidInput):
            translate_witness(1, w, P741, "m1")  # band missing
        with pytest.raises(InvalidInput):
            translate_witness(1, Window.from_members(14, [0, 3, 6]), P512, "k1")
        with pytest.raises(InvalidInput):
            translate_witness(1, w, P741, "x1", band=0)

    def test_regime_gates(self):
        with pytest.raises(UnsupportedRegime):
            translate_witness(0, Window.from_members(P521.n2, [0]), P521, "k1", quotient=1)
        with pytest.raises(UnsupportedRegime):
            translate_witness(0, Window.from_members(P532.n2, [0]), P532, "m1", band=0)
