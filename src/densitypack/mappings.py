"""Machine checks for the injective counting maps behind the tight regimes.

The band-count inequality (k+m)|T| <= (k+m)|I| + k|U| is established in the
two regimes m = 1 and k = 1 by exhibiting explicit maps from band elements
into the disjoint union of empty translates (I) and top holes (U).  This
module constructs those maps for a concrete window and verifies every
property they are supposed to have; any failure raises LemmaViolation with
the violated property named and the offending element pinned down.

m = 1 (chain route).  Each alpha in T_i splits as alpha = i*a + j*b + off
with j >= 1 and 0 <= off < b.  It gets a pair of images:

    v = alpha + (k - i)*a + b                        (always a top hole)
    w = alpha + (k - i)*a                            if j >= 2
    w = off_N            (an empty translate)         if j = 1 and the
    w = off_N + (k+1)*a  (a top hole)                  trajectory below
                                                       ends outside I

where off_n = off + n*(a - b) increases until it first lands in I or
reaches 2*b - a (for a >= 2*b that is immediate; membership in I wins a
tie).  Linking alpha > beta whenever their image pairs intersect yields a
digraph with in/out-degree <= 1 whose only possible coincidence is
v_alpha = w_beta, forcing the band index to descend; the resulting chains
C satisfy |C| <= k, have images of size |C| + 1, and distinct chains have
disjoint images, which sums to (k+1)|T| <= k*(|I| + |U|).

k = 1 (block route).  Here T = A intersect (b, a) and each alpha = j0*b +
off0.  If j0 > m the image is the block {alpha + a + t*b : 0 <= t <= m}.
Otherwise the trajectory tracks the Euclidean pair (eta_n, off_n) of
alpha + n*(a - b) by b, which obeys

    eta_{n+1}*b + off_{n+1} = a + (eta_n - 1)*b + off_n,

until off_N lands in I (image: that single translate offset) or eta_{N+1}
reaches m + 1 (then eta_{N+1} is clamped to m + 1 and the image is the
union of the block {alpha + a + t*b : m-j0 < t <= m} and the step blocks
{off_n + 2a + t*b : m + eta_n - eta_{n+1} <= t < m}, n <= N, which
telescope to exactly m + 1 top holes).  Images of distinct alpha are
disjoint, giving (m+1)|T| <= (m+1)|I| + |U|.

Both routes lean on a translate-witness fact: when a trajectory offset is
not an empty translate, A must meet the translate offset + S at a specific
stride (k' * a with i < k' <= k for m = 1; a + m'*b with m' < eta_n for
k = 1).  Each trajectory checks this at every step whose offset misses I,
as it walks, and raises "witness-missing" when the element is absent.

Trajectories are guarded by a hard iteration cap of n2 + 1 steps; both stop
rules provably fire long before that, so hitting the cap is itself reported
as a violation ("trajectory-unterminated") rather than an infinite loop.

The functions above check one window and are the reference.  The exhaustive
harnesses (`m1_check`, `k1_check`, run by `profile.scan_windows`) do not
call them on every window.  In a fixed family each band position alpha
walks a fixed sequence of offsets, owes a fixed witness stride at each, and
has a fixed image for each stop step; a window decides only where the walk
stops (its first offset in I) and which membership facts hold.  So the
harnesses precompute the walks once per family and evaluate them as array
filters over a whole batch of window masks: I-membership rows, witness
strides ANDed with the masks, running ORs of the images for disjointness,
and pairwise tests for the m = 1 chain edges.  A filter flags a superset of
the windows on which the reference raises, and every flagged window is
re-checked by the reference, in order; only a reference failure counts.
The first counterexample, its index and its violation text are therefore
exactly those of running the reference on every window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    InvalidInput,
    LemmaViolation,
    NotInBand,
    UnsupportedRegime,
)
from .family import CanonicalParams, as_int
from .oracle import DEFAULT_ENUM_CAP, Window
from .oracle import enumerate_avoiding_windows  # noqa: F401  (bench/tracer.py wraps it here)
from .profile import (
    VerificationReport,
    WindowBatch,
    WindowCheck,
    profile,
    scan_windows,
)

__all__ = [
    "GapDecomposition",
    "Trajectory",
    "ImageAssignment",
    "ChainPartition",
    "gap_decompose",
    "m1_trajectory",
    "image_pair",
    "build_chain_partition",
    "verify_m1_inequality",
    "k1_trajectory",
    "k1_image",
    "verify_k1_mapping",
    "check_m1_machinery",
    "check_k1_machinery",
]


@dataclass(frozen=True, slots=True)
class GapDecomposition:
    """alpha = band*a + quotient*b + offset with quotient >= 1, 0 <= offset < b."""

    alpha: int
    band: int
    quotient: int
    offset: int


@dataclass(frozen=True, slots=True)
class Trajectory:
    """A stopped offset trajectory.

    steps[n] = (quotient, offset) of the n-th term; the k = 1 flavour
    carries the Euclidean quotient eta_n, the m = 1 flavour has no
    quotient and stores None there.  stop_reason is "empty_translate"
    (the final offset lies in I) or "threshold".  final_quotient is the
    k = 1 value eta_{N+1} after clamping to m + 1 (None when stopping in
    I or in the m = 1 flavour); truncated records whether clamping
    actually lowered it.
    """

    steps: tuple[tuple[int | None, int], ...]
    stop_reason: str
    truncated: bool
    final_quotient: int | None

    @property
    def last_offset(self) -> int:
        return self.steps[-1][1]


@dataclass(frozen=True, slots=True)
class ImageAssignment:
    """Image of one band element under the k = 1 map.

    Exactly one of `translate_target` (an element of I) and `union` (a set
    of m + 1 top holes, split into the primary block and one step block per
    trajectory step) is set.
    """

    alpha: int
    translate_target: int | None
    primary_block: frozenset[int] | None
    step_blocks: tuple[frozenset[int], ...]
    union: frozenset[int] | None

    @property
    def into_translates(self) -> bool:
        return self.translate_target is not None


@dataclass(slots=True)
class ChainPartition:
    """The m = 1 chain structure of one window.

    chains are maximal directed paths (each follows strictly decreasing
    alpha); edges are all (alpha, beta) pairs with alpha > beta and
    intersecting image pairs; image_map maps alpha to its (v, w) pair.
    """

    chains: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    image_map: dict[int, tuple[int, int]]


def gap_decompose(alpha: int, p: CanonicalParams) -> GapDecomposition:
    """Locate alpha, read by `as_int`, in its inter-gap band and split off
    its b-quotient."""
    alpha = as_int(alpha, "alpha")
    for i in range(p.k):
        if i * p.a + p.b + 1 <= alpha <= (i + 1) * p.a - 1:
            q, off = divmod(alpha - i * p.a, p.b)
            if q < 1:
                raise LemmaViolation(
                    "band-quotient", f"alpha = {alpha} in band {i} has b-quotient {q} < 1"
                )
            return GapDecomposition(alpha=alpha, band=i, quotient=q, offset=off)
    raise NotInBand(f"{alpha} lies in no band (i*a + b, (i+1)*a) of {p}")


def _m1_witness(offset: int, band: int, window: Window, p: CanonicalParams) -> int:
    """The element offset + k'*a of A, band < k' <= k, that the m = 1 route
    promises for a trajectory offset outside I."""
    for kp in range(band + 1, p.k + 1):
        if offset + kp * p.a in window:
            return offset + kp * p.a
    raise LemmaViolation(
        "witness-missing",
        f"offset {offset} (band {band}): no offset + k'*a in A for {band} < k' <= {p.k}",
    )


def _k1_witness(offset: int, quotient: int, window: Window, p: CanonicalParams) -> int:
    """The element offset + a + m'*b of A, 0 <= m' < quotient (= eta_n), that
    the k = 1 route promises for a trajectory offset outside I."""
    for mp in range(quotient):
        if offset + p.a + mp * p.b in window:
            return offset + p.a + mp * p.b
    raise LemmaViolation(
        "witness-missing",
        f"offset {offset}: no offset + a + m'*b in A for 0 <= m' < {quotient}",
    )


def _require_band_member(alpha: int, window: Window, p: CanonicalParams) -> GapDecomposition:
    dec = gap_decompose(alpha, p)
    if alpha not in window:
        raise NotInBand(f"{alpha} is not an element of the window")
    return dec


# ──────────────────────────────────────────────────────────────────────────
# m = 1: image pairs and chains
# ──────────────────────────────────────────────────────────────────────────


def m1_trajectory(alpha: int, window: Window, p: CanonicalParams) -> Trajectory:
    """Offset trajectory off, off + (a-b), ... for the m = 1 route.

    Stops at the first term lying in I or reaching 2*b - a, whichever comes
    first (I wins a tie); with a >= 2*b the threshold is vacuous at n = 0,
    so only an immediate I-hit can produce an empty-translate stop.  All
    terms stay below b, so I-membership is meaningful throughout.  Every
    term outside I must have its translate witness off + k'*a in A for some
    band < k' <= k; a missing one raises LemmaViolation "witness-missing".
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    dec = _require_band_member(alpha, window, p)
    if dec.quotient != 1:
        raise InvalidInput(
            f"alpha = {alpha} has quotient {dec.quotient}; trajectories apply to quotient 1"
        )
    translates = profile(window, p).empty_translates
    threshold = 2 * p.b - p.a
    step = p.a - p.b
    steps: list[tuple[int | None, int]] = []
    x = dec.offset
    for _ in range(p.n2 + 1):
        steps.append((None, x))
        if x in translates:
            return Trajectory(tuple(steps), "empty_translate", False, None)
        _m1_witness(x, dec.band, window, p)
        if x >= threshold:
            return Trajectory(tuple(steps), "threshold", False, None)
        x += step
    raise LemmaViolation(
        "trajectory-unterminated",
        f"m=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
    )


def image_pair(alpha: int, window: Window, p: CanonicalParams) -> tuple[int, int]:
    """The image pair (v, w) of a band element for the m = 1 route.

    Verifies the membership facts the counting needs: v is a top hole, w is
    an empty translate or a top hole, and v != w.
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    prof = profile(window, p)
    dec = _require_band_member(alpha, window, p)
    lift = (p.k - dec.band) * p.a
    v = alpha + lift + p.b
    if dec.quotient >= 2:
        w = alpha + lift
    else:
        traj = m1_trajectory(alpha, window, p)
        if traj.stop_reason == "empty_translate":
            w = traj.last_offset
        else:
            w = traj.last_offset + (p.k + 1) * p.a

    if v not in prof.top_holes:
        raise LemmaViolation("image-outside-holes", f"v = {v} of alpha = {alpha}")
    if w not in prof.top_holes and w not in prof.empty_translates:
        raise LemmaViolation("image-outside-holes", f"w = {w} of alpha = {alpha}")
    if v == w:
        raise LemmaViolation("image-collision", f"v = w = {v} for alpha = {alpha}")
    return v, w


def build_chain_partition(window: Window, p: CanonicalParams) -> ChainPartition:
    """Link band elements whose image pairs intersect; check the degrees.

    Edges run from larger to smaller alpha.  Each vertex gets at most one
    edge in each direction, every intersection has size one, and the band
    index strictly descends along an edge; any breach raises.
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    prof = profile(window, p)
    members = sorted(prof.band_all)
    image_map = {alpha: image_pair(alpha, window, p) for alpha in members}

    out_edge: dict[int, int] = {}
    in_edge: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for hi_pos, alpha in enumerate(members):
        img_a = set(image_map[alpha])
        for beta in members[:hi_pos]:
            common = img_a & set(image_map[beta])
            if not common:
                continue
            if len(common) != 1:
                raise LemmaViolation(
                    "image-intersection-size",
                    f"|{{v,w}}({alpha}) ∩ {{v,w}}({beta})| = {len(common)}",
                )
            # The only coincidence the argument leaves open is v of the
            # larger element equal to w of the smaller; any other is a bug.
            shared = next(iter(common))
            if shared != image_map[alpha][0] or shared != image_map[beta][1]:
                raise LemmaViolation(
                    "intersection-form",
                    f"{shared} is not v({alpha}) = w({beta})",
                )
            if alpha in out_edge:
                raise LemmaViolation(
                    "degree-bound",
                    f"alpha = {alpha} links to both {out_edge[alpha]} and {beta}",
                )
            if beta in in_edge:
                raise LemmaViolation(
                    "degree-bound",
                    f"beta = {beta} is linked from both {in_edge[beta]} and {alpha}",
                )
            if gap_decompose(alpha, p).band <= gap_decompose(beta, p).band:
                raise LemmaViolation(
                    "band-descent",
                    f"edge ({alpha}, {beta}) does not descend bands",
                )
            out_edge[alpha] = beta
            in_edge[beta] = alpha
            edges.append((alpha, beta))

    chains: list[tuple[int, ...]] = []
    for alpha in sorted(members, reverse=True):
        if alpha in in_edge:
            continue
        chain = [alpha]
        while chain[-1] in out_edge:
            chain.append(out_edge[chain[-1]])
        chains.append(tuple(chain))
    if sum(len(c) for c in chains) != len(members):
        raise LemmaViolation(
            "chain-partition",
            f"chains {chains} do not cover the {len(members)} band elements exactly once",
        )
    return ChainPartition(chains=tuple(chains), edges=tuple(edges), image_map=image_map)


def verify_m1_inequality(window: Window, p: CanonicalParams) -> bool:
    """Full m = 1 check of one window: chains, their three properties, and
    the resulting count bounds (k+1)|T| <= k(|I|+|U|) <= (k+1)|I| + k|U|."""
    prof = profile(window, p)
    part = build_chain_partition(window, p)

    seen: set[int] = set()
    for chain in part.chains:
        if len(chain) > p.k:
            raise LemmaViolation("chain-too-long", f"chain {chain} exceeds k = {p.k}")
        image: set[int] = set()
        for alpha in chain:
            image.update(part.image_map[alpha])
        if len(image) != len(chain) + 1:
            raise LemmaViolation(
                "chain-image-size", f"chain {chain} has image {sorted(image)}"
            )
        if image & seen:
            raise LemmaViolation(
                "chain-image-overlap",
                f"chain {chain} shares {sorted(image & seen)} with an earlier chain",
            )
        seen.update(image)

    n_i, n_t, n_u = prof.sizes
    if (p.k + 1) * n_t > p.k * (n_i + n_u):
        raise LemmaViolation(
            "count-bound", f"(k+1)|T| = {(p.k + 1) * n_t} > k(|I|+|U|) = {p.k * (n_i + n_u)}"
        )
    if (p.k + 1) * n_t > (p.k + 1) * n_i + p.k * n_u:
        raise LemmaViolation(
            "main-inequality",
            f"(k+1)|T| = {(p.k + 1) * n_t} > (k+1)|I| + k|U| = {(p.k + 1) * n_i + p.k * n_u}",
        )
    return True


# ──────────────────────────────────────────────────────────────────────────
# k = 1: trajectories and block images
# ──────────────────────────────────────────────────────────────────────────


def k1_trajectory(alpha: int, window: Window, p: CanonicalParams) -> Trajectory:
    """Euclidean trajectory (eta_n, off_n) of alpha + n*(a-b) by b.

    Stops at the first n with off_n in I ("empty_translate") or with the
    upcoming quotient eta_{n+1} >= m + 1 ("threshold", I wins a tie at the
    same n); in the threshold case eta_{N+1} is clamped to m + 1 and
    `truncated` records whether the clamp changed it.  Every step with off_n
    outside I must have its translate witness off_n + a + m'*b in A for some
    m' < eta_n; a missing one raises LemmaViolation "witness-missing".
    """
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    dec = _require_band_member(alpha, window, p)
    j0 = dec.quotient
    if j0 > p.m:
        raise InvalidInput(
            f"alpha = {alpha} has quotient {j0} > m = {p.m}; that case bypasses trajectories"
        )
    translates = profile(window, p).empty_translates
    a, b = p.a, p.b
    steps: list[tuple[int | None, int]] = []
    x = alpha
    for _ in range(p.n2 + 1):
        q, off = divmod(x, b)
        steps.append((q, off))
        if off in translates:
            return Trajectory(tuple(steps), "empty_translate", False, None)
        _k1_witness(off, q, window, p)
        nxt_q = (x + a - b) // b
        if nxt_q >= p.m + 1:
            return Trajectory(tuple(steps), "threshold", nxt_q > p.m + 1, p.m + 1)
        x += a - b
    raise LemmaViolation(
        "trajectory-unterminated",
        f"k=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
    )


def k1_image(alpha: int, window: Window, p: CanonicalParams) -> ImageAssignment:
    """Image of a band element under the k = 1 map, fully verified.

    Either a single empty-translate target, or a union of exactly m + 1 top
    holes assembled from the primary block and the per-step blocks; block
    disjointness, the cardinality, and hole membership are all checked.
    """
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    prof = profile(window, p)
    dec = _require_band_member(alpha, window, p)
    a, b, m = p.a, p.b, p.m
    j0 = dec.quotient

    def assemble(primary: frozenset[int], blocks: list[frozenset[int]]) -> ImageAssignment:
        union: set[int] = set(primary)
        for blk in blocks:
            if union & blk:
                raise LemmaViolation(
                    "image-overlap",
                    f"blocks of alpha = {alpha} overlap at {sorted(union & blk)}",
                )
            union.update(blk)
        if len(union) != m + 1:
            raise LemmaViolation(
                "image-size", f"|U({alpha})| = {len(union)}, expected m + 1 = {m + 1}"
            )
        bad = [u for u in union if u not in prof.top_holes]
        if bad:
            raise LemmaViolation(
                "image-outside-holes", f"elements {sorted(bad)} of U({alpha}) are not top holes"
            )
        return ImageAssignment(
            alpha=alpha,
            translate_target=None,
            primary_block=primary,
            step_blocks=tuple(blocks),
            union=frozenset(union),
        )

    if j0 > m:
        primary = frozenset(alpha + a + t * b for t in range(m + 1))
        return assemble(primary, [])

    traj = k1_trajectory(alpha, window, p)
    if traj.stop_reason == "empty_translate":
        return ImageAssignment(
            alpha=alpha,
            translate_target=traj.last_offset,
            primary_block=None,
            step_blocks=(),
            union=None,
        )

    quots = [q for q, _ in traj.steps] + [traj.final_quotient]
    primary = frozenset(alpha + a + t * b for t in range(m - j0 + 1, m + 1))
    blocks: list[frozenset[int]] = []
    for n, (_, off) in enumerate(traj.steps):
        lo = m + quots[n] - quots[n + 1]
        blocks.append(frozenset(off + 2 * a + t * b for t in range(lo, m)))
    return assemble(primary, blocks)


def verify_k1_mapping(window: Window, p: CanonicalParams) -> bool:
    """Full k = 1 check of one window: each band element maps into I or
    into m + 1 top holes, images are pairwise disjoint, and the count bound
    (m+1)|T| <= (m+1)|I| + |U| follows and holds."""
    prof = profile(window, p)
    members = sorted(prof.band_all)

    targets: dict[int, int] = {}
    used_holes: set[int] = set()
    n_into_holes = 0
    for alpha in members:
        img = k1_image(alpha, window, p)
        if img.into_translates:
            t = img.translate_target
            if t not in prof.empty_translates:
                raise LemmaViolation(
                    "image-outside-translates", f"target {t} of alpha = {alpha} is not in I"
                )
            if t in targets:
                raise LemmaViolation(
                    "image-overlap",
                    f"alphas {targets[t]} and {alpha} share translate target {t}",
                )
            targets[t] = alpha
        else:
            overlap = used_holes & img.union
            if overlap:
                raise LemmaViolation(
                    "image-overlap",
                    f"U({alpha}) reuses holes {sorted(overlap)}",
                )
            used_holes.update(img.union)
            n_into_holes += 1

    n_i, n_t, n_u = prof.sizes
    if len(targets) > n_i or (p.m + 1) * n_into_holes > n_u:
        raise LemmaViolation(
            "image-count",
            f"{len(targets)} translate targets for |I| = {n_i}, "
            f"{n_into_holes} hole images of size m + 1 = {p.m + 1} for |U| = {n_u}",
        )
    if (p.m + 1) * n_t > (p.m + 1) * n_i + n_u:
        raise LemmaViolation(
            "count-bound",
            f"(m+1)|T| = {(p.m + 1) * n_t} > (m+1)|I| + |U| = {(p.m + 1) * n_i + n_u}",
        )
    return True


# ──────────────────────────────────────────────────────────────────────────
# array filters: the harnesses over a whole batch (see the module docstring)
# ──────────────────────────────────────────────────────────────────────────


@dataclass(frozen=True, slots=True)
class _Walk:
    """The fixed trajectory of one band position alpha.

    steps[n] = (offset, witness mask): the n-th offset and the positions of
    which A must hold one when that offset misses I.  end is what a row
    that passes every step without meeting I maps to (w for m = 1, the
    hole-image mask for k = 1), or None when the reference raises for every
    such row.
    """

    alpha: int
    steps: tuple[tuple[int, int], ...]
    end: int | None


def _mask(positions: Iterable[int], p: CanonicalParams) -> int:
    """Bitmask of the positions inside the window [0, n2); the others are
    never elements of A."""
    return sum(1 << x for x in set(positions) if 0 <= x < p.n2)


def _walk_rows(batch: WindowBatch, walk: _Walk):
    """(has, stops, ended, bad) for the rows of a batch: has holds alpha,
    stops[n] first meets I at step n, ended reaches the end without
    meeting I, and bad misses a translate witness on the way."""
    has = (batch.masks & (1 << walk.alpha)) != 0
    walking = has.copy()
    bad = np.zeros_like(has)
    stops = []
    for off, witness in walk.steps:
        stop = walking & batch.in_i[off]
        walking &= ~stop
        bad |= walking & ((batch.masks & witness) == 0)
        stops.append(stop)
    return has, stops, walking, bad


def _is_hole(batch: WindowBatch, p: CanonicalParams, x: int) -> np.ndarray:
    """Rows for which x is a top hole."""
    if not p.n1 <= x < p.n2:
        return np.zeros(len(batch), dtype=bool)
    return (batch.masks & (1 << x)) == 0


def _m1_plan(p: CanonicalParams) -> list[tuple[_Walk, int, int]]:
    """(walk, band, v) per band position of an m = 1 family, in increasing
    alpha.  The walk ends in w = offset + (k+1)*a at the threshold; a
    quotient >= 2 position has no steps and ends in w = alpha + (k - band)*a.
    """
    a, b, k = p.a, p.b, p.k
    threshold = 2 * b - a
    walks = []
    for i in range(k):
        for alpha in range(i * a + b + 1, (i + 1) * a):
            lift = (k - i) * a
            steps: list[tuple[int, int]] = []
            end = alpha + lift
            dec = gap_decompose(alpha, p)
            if dec.quotient == 1:
                x = dec.offset
                for _ in range(p.n2 + 1):
                    steps.append((x, _mask((x + kp * a for kp in range(i + 1, k + 1)), p)))
                    if x >= threshold:
                        end = x + (k + 1) * a
                        break
                    x += a - b
                else:
                    end = None
            walks.append((_Walk(alpha, tuple(steps), end), i, alpha + lift + b))
    return walks


def _m1_flags(batch: WindowBatch, p: CanonicalParams, walks) -> np.ndarray:
    """Rows on which `verify_m1_inequality` could raise."""
    k = p.k
    # The count bound; (k+1)|T| <= k(|I|+|U|) implies the main inequality.
    flags = (k + 1) * batch.n_t > k * (batch.n_i + batch.n_u)
    has, w_rows = [], []
    for walk, _, v in walks:
        rows, stops, ended, bad = _walk_rows(batch, walk)
        flags |= bad | (rows & ~_is_hole(batch, p, v))
        w_of: dict[int, np.ndarray] = {}  # x -> the rows whose w is x
        for (off, _), stop in zip(walk.steps, stops):
            w_of[off] = w_of.get(off, False) | stop
        if walk.end is None:
            flags |= ended
        else:
            # The end lies above b, so it is never in I: w must be a hole.
            w_of[walk.end] = w_of.get(walk.end, False) | ended
            flags |= ended & ~_is_hole(batch, p, walk.end)
        if v in w_of:
            flags |= w_of[v]
        has.append(rows)
        w_rows.append(w_of)
    # Image pairs of alpha > beta may meet only as v(alpha) = w(beta), an
    # edge, and edges must descend bands.  Two edges out of one alpha would
    # meet as w = w, and two into one beta as v = v, so the degree bounds
    # hold; chains, their images and their sizes then need no check.
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


def _k1_plan(p: CanonicalParams) -> list[_Walk]:
    """One walk per band position of a k = 1 family, in increasing alpha.

    A quotient j0 > m has no steps and ends in its block; otherwise the
    walk is the Euclidean trajectory up to the threshold, and its end is
    the union of the primary block and the step blocks.  The end is None
    when that union is not m + 1 disjoint positions of [n1, n2).
    """
    a, b, m = p.a, p.b, p.m
    walks = []
    for alpha in range(b + 1, a):
        j0 = gap_decompose(alpha, p).quotient
        steps: list[tuple[int, int]] = []
        if j0 > m:
            blocks = [{alpha + a + t * b for t in range(m + 1)}]
        else:
            x, quots = alpha, []
            for _ in range(p.n2 + 1):
                q, off = divmod(x, b)
                steps.append((off, _mask((off + a + mp * b for mp in range(q)), p)))
                quots.append(q)
                if (x + a - b) // b >= m + 1:
                    break
                x += a - b
            else:
                walks.append(_Walk(alpha, tuple(steps), None))
                continue
            quots.append(m + 1)
            blocks = [{alpha + a + t * b for t in range(m - j0 + 1, m + 1)}]
            for n, (off, _) in enumerate(steps):
                lo = m + quots[n] - quots[n + 1]
                blocks.append({off + 2 * a + t * b for t in range(lo, m)})
        union = set().union(*blocks)
        valid = sum(map(len, blocks)) == len(union) == m + 1 and all(
            p.n1 <= u < p.n2 for u in union
        )
        walks.append(_Walk(alpha, tuple(steps), _mask(union, p) if valid else None))
    return walks


def _k1_flags(batch: WindowBatch, p: CanonicalParams, walks: list[_Walk]) -> np.ndarray:
    """Rows on which `verify_k1_mapping` could raise."""
    m = p.m
    flags = (m + 1) * batch.n_t > (m + 1) * batch.n_i + batch.n_u
    taken: dict[int, np.ndarray] = {}  # translate target -> rows already mapped to it
    holes = np.zeros(len(batch), dtype=np.int64)  # union of the hole images so far
    for walk in walks:
        _, stops, ended, bad = _walk_rows(batch, walk)
        flags |= bad
        for (off, _), stop in zip(walk.steps, stops):
            flags |= stop & taken.get(off, False)
            taken[off] = taken.get(off, False) | stop
        if walk.end is None:
            flags |= ended
        else:
            flags |= ended & (((batch.masks | holes) & walk.end) != 0)
            holes |= ended * walk.end
    # Distinct targets in I and disjoint (m+1)-sets of U cannot outnumber
    # them, so the image counts need no check of their own.
    return flags


def _machinery_check(
    p: CanonicalParams,
    flag_rows: Callable[[WindowBatch], np.ndarray],
    check_window: Callable[[Window, CanonicalParams], bool],
) -> WindowCheck:
    """An array filter backed by a per-window reference, as a window check.

    `flag_rows` marks a superset of the rows on which `check_window` raises.
    The flagged rows are re-checked in order, one Window each, and only a
    LemmaViolation there fails the window, with the violation as the
    detail; so the first failure and its detail are the reference's own.
    Only windows with |T| > 0 are ever flagged: one with no band element
    has an empty chain partition or image map and a count bound of
    0 <= ..., so it cannot fail; windows_checked still counts it.
    """

    def check(batch: WindowBatch):
        for row in np.flatnonzero(flag_rows(batch)).tolist():
            try:
                check_window(batch.window(row), p)
            except LemmaViolation as exc:
                return row, str(exc)
        return None

    return check


def m1_check(p: CanonicalParams) -> WindowCheck:
    """The m = 1 harness of `check_m1_machinery`, as a window check."""
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    walks = _m1_plan(p)
    return _machinery_check(p, lambda batch: _m1_flags(batch, p, walks), verify_m1_inequality)


def k1_check(p: CanonicalParams) -> WindowCheck:
    """The k = 1 harness of `check_k1_machinery`, as a window check."""
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    walks = _k1_plan(p)
    return _machinery_check(p, lambda batch: _k1_flags(batch, p, walks), verify_k1_mapping)


def check_m1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive m = 1 harness: chains, their three properties, the count
    bound, and a translate witness at every trajectory step, over every
    avoiding window of [0, n2) containing 0."""
    return scan_windows(p, {"m1": m1_check(p)}, enum_cap=enum_cap)["m1"]


def check_k1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive k = 1 harness: block images, their disjointness and size,
    the count bound, and a translate witness at every trajectory step, over
    every avoiding window of [0, n2) containing 0."""
    return scan_windows(p, {"k1": k1_check(p)}, enum_cap=enum_cap)["k1"]
