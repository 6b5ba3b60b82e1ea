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
k = 1).  Each walk step is built once as (quotient, offset, witness mask),
the mask holding those positions.  All of them lie inside [0, n2), so on a
window of length >= n2, as `profile` requires, A meets the mask exactly
when it holds one of them.  The image functions test the mask at every
step whose offset misses I, as they walk, and raise "witness-missing"
when A does not meet it.

Trajectories are guarded by a hard iteration cap of n2 + 1 steps; both stop
rules provably fire long before that, so hitting the cap is itself reported
as a violation ("trajectory-unterminated") rather than an infinite loop.

The functions above check one window and are the reference.  Each band
element walks once: `image_pair` and `k1_image` build its walk and read
its stop off `_first_stop`.  The exhaustive harnesses (`m1_check`,
`k1_check`, run by `profile.scan_windows`) do not call them on every
window.  In a fixed family each band position alpha walks a fixed
sequence of steps, each with its witness mask, and has a fixed image for
each stop step; a window decides only where the walk stops (its first
offset in I) and which membership facts hold.  These window-free parts
are written once (`_m1_walk`, `_k1_steps`, `_k1_blocks` and `_k1_union`),
and the reference and the harnesses' plans read the same steps as built.
The plans evaluate the walks as array filters over a whole batch of
window masks: each step's offset read from the batch's I masks and its
witness mask ANDed with the masks, running ORs of the images for
disjointness, and pairwise tests for the m = 1 chain edges.  A filter
flags a superset of the
windows on which the reference raises, and every flagged window is
re-checked by the reference, in order; only a reference failure counts.
The first counterexample, its index and its violation text are therefore
exactly those of running the reference on every window.  The
filter-versus-reference tests check the flag logic; the pinned walks and
images, an independent walk in the tests, and the tests that the maps
hold on every window of small families guard the shared definitions.

Every reader of a route first refuses a family outside its regime (m = 1
for the chain route, k = 1 for the block route) with UnsupportedRegime.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import LemmaViolation, NotInBand, UnsupportedRegime
from .family import CanonicalParams, as_int, require_type
from .oracle import DEFAULT_ENUM_CAP, Window
from .oracle import enumerate_avoiding_windows  # noqa: F401  (bench/tracer.py wraps it here)
from .profile import VerificationReport, WindowBatch, WindowCheck, _scan_one, profile

__all__ = [
    "GapDecomposition",
    "ImageAssignment",
    "ChainPartition",
    "gap_decompose",
    "image_pair",
    "build_chain_partition",
    "verify_m1_inequality",
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
    its b-quotient, which is at least 1: a band position of band i has
    alpha - i*a >= b + 1."""
    require_type(p, CanonicalParams, "params")
    alpha = as_int(alpha, "alpha")
    for i in range(p.k):
        if i * p.a + p.b + 1 <= alpha <= (i + 1) * p.a - 1:
            q, off = divmod(alpha - i * p.a, p.b)
            return GapDecomposition(alpha=alpha, band=i, quotient=q, offset=off)
    raise NotInBand(f"{alpha} lies in no band (i*a + b, (i+1)*a) of {p}")


def _require_route(p: CanonicalParams, param: str) -> None:
    """Refuse a family outside the regime of a route: param "m" for the
    m = 1 chain route, "k" for the k = 1 block route."""
    require_type(p, CanonicalParams, "params")
    if getattr(p, param) != 1:
        route = "chain" if param == "m" else "block"
        raise UnsupportedRegime(
            f"{param} = {getattr(p, param)}: the {route} route needs {param} = 1"
        )


def _require_band_member(alpha: int, window: Window, p: CanonicalParams) -> GapDecomposition:
    require_type(window, Window, "window")
    dec = gap_decompose(alpha, p)
    if alpha not in window:
        raise NotInBand(f"{alpha} is not an element of the window")
    return dec


# The walks and blocks below depend on the family and the band position
# alone.  The per-window reference and the array filter's plans both read
# them as built, so each is written once.


def _mask(positions: Iterable[int]) -> int:
    """Bitmask of distinct positions, all of them inside the window [0, n2)."""
    return sum(1 << x for x in positions)


def _m1_walk(
    dec: GapDecomposition, p: CanonicalParams
) -> tuple[tuple[tuple[None, int, int], ...], int, int | None]:
    """(steps, v, w) of alpha = dec.alpha under the m = 1 map.

    steps[n] = (None, offset, witness mask) for the trajectory terms off,
    off + (a-b), ... up to the first one reaching 2*b - a (none for
    quotient >= 2); the mask covers offset + k'*a, band < k' <= k, of which
    A must hold one when the offset misses I.  Each lies below
    b + k*a < n1, as an offset is below b.  w is the image alpha gets when
    no offset lies in I: alpha + (k - band)*a for quotient >= 2, last
    offset + (k+1)*a otherwise, or None when the walk runs past the cap of
    n2 + 1 steps.
    """
    lift = (p.k - dec.band) * p.a
    v = dec.alpha + lift + p.b
    if dec.quotient >= 2:
        return (), v, dec.alpha + lift
    x, steps = dec.offset, []
    for _ in range(p.n2 + 1):
        steps.append((None, x, _mask(x + kp * p.a for kp in range(dec.band + 1, p.k + 1))))
        if x >= 2 * p.b - p.a:
            return tuple(steps), v, x + (p.k + 1) * p.a
        x += p.a - p.b
    return tuple(steps), v, None


def _k1_steps(alpha: int, p: CanonicalParams) -> tuple[tuple[tuple[int, int, int], ...], int | None]:
    """(steps, next) of a k = 1 band position with quotient <= m.

    steps[n] = (eta_n, off_n, witness mask), where (eta_n, off_n) is the
    Euclidean pair of alpha + n*(a-b) by b, up to the first n whose
    upcoming quotient eta_{n+1} reaches m + 1; the mask covers
    off_n + a + m'*b, m' < eta_n, of which A must hold one when off_n
    misses I.  Each lies below a + m*b < n2, as off_n < b and eta_n <= m.
    next is that eta_{n+1}, unclamped, or None when the walk runs past the
    cap of n2 + 1 steps.
    """
    x, steps = alpha, []
    for _ in range(p.n2 + 1):
        q, off = divmod(x, p.b)
        steps.append((q, off, _mask(off + p.a + mp * p.b for mp in range(q))))
        x += p.a - p.b
        if x // p.b >= p.m + 1:
            return tuple(steps), x // p.b
    return tuple(steps), None


def _first_stop(
    steps: tuple[tuple[int | None, int, int], ...],
    window: Window,
    p: CanonicalParams,
    missing: Callable[[int | None, int], str],
) -> int | None:
    """Index of the first step of a walk whose offset lies in I, or None:
    where `image_pair` and `k1_image` stop an element's walk.

    Every step before it owes a translate witness: A must meet its witness
    mask, or LemmaViolation "witness-missing" is raised with the detail
    missing(quotient, offset).
    """
    translates = profile(window, p).empty_translates
    for n, (q, off, witness) in enumerate(steps):
        if off in translates:
            return n
        if not window.mask & witness:
            raise LemmaViolation("witness-missing", missing(q, off))
    return None


def _k1_blocks(
    alpha: int, j0: int, steps: tuple[tuple[int, int, int], ...], p: CanonicalParams
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """The primary block {alpha + a + t*b : m - j0 < t <= m} and one step
    block {off_n + 2a + t*b : m + eta_n - eta_{n+1} <= t < m} per step of
    a walk stopped at the threshold, with eta_{N+1} clamped to m + 1.  A
    quotient j0 > m has no steps and the whole block 0 <= t <= m."""
    a, b, m = p.a, p.b, p.m
    primary = frozenset(alpha + a + t * b for t in range(max(m + 1 - j0, 0), m + 1))
    quots = [q for q, _, _ in steps] + [m + 1]
    blocks = tuple(
        frozenset(off + 2 * a + t * b for t in range(m + quots[n] - quots[n + 1], m))
        for n, (_, off, _) in enumerate(steps)
    )
    return primary, blocks


def _k1_union(
    alpha: int, primary: frozenset[int], blocks: tuple[frozenset[int], ...], p: CanonicalParams
) -> frozenset[int]:
    """The union of the blocks of alpha; they must be disjoint and hold
    m + 1 positions in all."""
    union: set[int] = set(primary)
    for blk in blocks:
        if union & blk:
            raise LemmaViolation(
                "image-overlap",
                f"blocks of alpha = {alpha} overlap at {sorted(union & blk)}",
            )
        union.update(blk)
    if len(union) != p.m + 1:
        raise LemmaViolation(
            "image-size", f"|U({alpha})| = {len(union)}, expected m + 1 = {p.m + 1}"
        )
    return frozenset(union)


# ──────────────────────────────────────────────────────────────────────────
# m = 1: image pairs and chains
# ──────────────────────────────────────────────────────────────────────────


def image_pair(alpha: int, window: Window, p: CanonicalParams) -> tuple[int, int]:
    """The image pair (v, w) of a band element for the m = 1 route.

    A quotient-1 element walks the offsets of `_m1_walk`; w is the first
    one in I, if any (I wins a tie with the threshold 2*b - a).  Every
    offset before it owes a translate witness (`_first_stop`).  Verifies
    the membership facts the counting needs: v is a top hole, w is an
    empty translate or a top hole, and v != w.
    """
    _require_route(p, "m")
    prof = profile(window, p)
    dec = _require_band_member(alpha, window, p)
    walk, v, w = _m1_walk(dec, p)
    missing = f"(band {dec.band}): no offset + k'*a in A for {dec.band} < k' <= {p.k}"
    stop = _first_stop(walk, window, p, lambda _, off: f"offset {off} {missing}")
    if stop is not None:
        w = walk[stop][1]
    elif w is None:
        raise LemmaViolation(
            "trajectory-unterminated",
            f"m=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
        )

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
    _require_route(p, "m")
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
    _require_route(p, "m")
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
# k = 1: block images
# ──────────────────────────────────────────────────────────────────────────


def k1_image(alpha: int, window: Window, p: CanonicalParams) -> ImageAssignment:
    """Image of a band element under the k = 1 map, fully verified.

    A quotient j0 <= m walks the steps of `_k1_steps`; the target is the
    first offset in I, if any (I wins a tie with the threshold), and every
    step before it owes a translate witness (`_first_stop`).  Otherwise
    the image is a union of exactly m + 1 top holes assembled from the
    primary block and the per-step blocks; block disjointness, the
    cardinality, and hole membership are all checked.
    """
    _require_route(p, "k")
    prof = profile(window, p)
    dec = _require_band_member(alpha, window, p)
    steps, nxt = _k1_steps(alpha, p) if dec.quotient <= p.m else ((), p.m + 1)
    stop = _first_stop(
        steps, window, p, lambda q, off: f"offset {off}: no offset + a + m'*b in A for 0 <= m' < {q}"
    )
    if stop is not None:
        return ImageAssignment(alpha, steps[stop][1], None, (), None)
    if nxt is None:
        raise LemmaViolation(
            "trajectory-unterminated",
            f"k=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
        )
    primary, blocks = _k1_blocks(alpha, dec.quotient, steps, p)
    union = _k1_union(alpha, primary, blocks, p)
    bad = [u for u in union if u not in prof.top_holes]
    if bad:
        raise LemmaViolation(
            "image-outside-holes", f"elements {sorted(bad)} of U({alpha}) are not top holes"
        )
    return ImageAssignment(alpha, None, primary, blocks, union)


def verify_k1_mapping(window: Window, p: CanonicalParams) -> bool:
    """Full k = 1 check of one window: each band element maps into I or
    into m + 1 top holes, images are pairwise disjoint, and the count bound
    (m+1)|T| <= (m+1)|I| + |U| follows and holds."""
    _require_route(p, "k")
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

    steps are the (quotient, offset, witness mask) triples of `_m1_walk` or
    `_k1_steps`, as the reference reads them.  end is what a row that
    passes every step without meeting I maps to (w for m = 1, the
    hole-image mask for k = 1), or None when the reference raises for every
    such row.
    """

    alpha: int
    steps: tuple[tuple[int | None, int, int], ...]
    end: int | None


def _walk_rows(batch: WindowBatch, walk: _Walk):
    """(has, stops, ended, bad) for the rows of a batch: has holds alpha,
    stops[n] first meets I at step n (the step's offset is a bit of the
    row's I mask), ended reaches the end without meeting I, and bad misses
    a translate witness on the way."""
    has = (batch.masks & (1 << walk.alpha)) != 0
    walking = has.copy()
    bad = np.zeros_like(has)
    stops = []
    for _, off, witness in walk.steps:
        stop = walking & ((batch.i_mask & (1 << off)) != 0)
        walking &= ~stop
        bad |= walking & ((batch.masks & witness) == 0)
        stops.append(stop)
    return has, stops, walking, bad


def _m1_plan(p: CanonicalParams) -> list[tuple[_Walk, int, int]]:
    """(walk, band, v) per band position of an m = 1 family, in increasing
    alpha: the steps of `_m1_walk`, and its w as the end."""
    walks = []
    for i in range(p.k):
        for alpha in range(i * p.a + p.b + 1, (i + 1) * p.a):
            steps, v, w = _m1_walk(gap_decompose(alpha, p), p)
            walks.append((_Walk(alpha, steps, w), i, v))
    return walks


def _m1_flags(batch: WindowBatch, p: CanonicalParams, walks) -> np.ndarray:
    """Rows on which `verify_m1_inequality` could raise.

    Every v = alpha + (k - i)*a + b lies in (n1, n2).  Every walk ends, as
    it climbs by a - b >= 1 from an offset below b until it reaches
    2*b - a (a = b = 1 has no band positions), and its end w lies in
    [n1, n2).  So v and w are top positions, a hole exactly when A misses
    them.  v >= n1 > b exceeds every offset, and v equals its own walk's w
    only for (a, b) = (2, 1), which has no band positions either: no row's
    w is its own v.  `test_m1_plans_end_in_the_top_interval` checks this
    on every m = 1 family whose windows fit an int64 mask.
    """
    k = p.k
    # The count bound; (k+1)|T| <= k(|I|+|U|) implies the main inequality.
    flags = (k + 1) * batch.n_t > k * (batch.n_i + batch.n_u)
    has, w_rows = [], []
    for walk, _, v in walks:
        rows, stops, ended, bad = _walk_rows(batch, walk)
        flags |= bad | (rows & ((batch.masks & (1 << v)) != 0))
        w_of: dict[int, np.ndarray] = {}  # x -> the rows whose w is x
        for (_, off, _), stop in zip(walk.steps, stops):
            w_of[off] = w_of.get(off, False) | stop
        # The end lies above b, so it is never in I: w must be a hole.
        w_of[walk.end] = w_of.get(walk.end, False) | ended
        flags |= ended & ((batch.masks & (1 << walk.end)) != 0)
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

    A quotient j0 > m has no steps; otherwise the steps are `_k1_steps`.
    The end is the mask of the union of `_k1_blocks`, or None when the
    blocks overlap or do not hold m + 1 positions.

    No walk reaches the cap, as it climbs by a - b >= 1 from alpha > b
    until its quotient reaches m + 1, within m*b steps.  A valid union
    lies in [n1, n2): the primary block as b < alpha < a and t > m - j0,
    and a step block as off_n < b and, by the recurrence for eta_{n+1},
    its least position is at least a + (m+1)*b + off_{n+1}.
    `test_k1_plans_end_in_the_top_interval` checks both facts on every
    k = 1 family whose windows fit an int64 mask.
    """
    walks = []
    for alpha in range(p.b + 1, p.a):
        j0 = gap_decompose(alpha, p).quotient
        steps = _k1_steps(alpha, p)[0] if j0 <= p.m else ()
        end = None
        with suppress(LemmaViolation):
            end = _mask(_k1_union(alpha, *_k1_blocks(alpha, j0, steps, p), p))
        walks.append(_Walk(alpha, steps, end))
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
        for (_, off, _), stop in zip(walk.steps, stops):
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
    _require_route(p, "m")
    walks = _m1_plan(p)
    return _machinery_check(p, lambda batch: _m1_flags(batch, p, walks), verify_m1_inequality)


def k1_check(p: CanonicalParams) -> WindowCheck:
    """The k = 1 harness of `check_k1_machinery`, as a window check."""
    _require_route(p, "k")
    walks = _k1_plan(p)
    return _machinery_check(p, lambda batch: _k1_flags(batch, p, walks), verify_k1_mapping)


def check_m1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive m = 1 harness: chains, their three properties, the count
    bound, and a translate witness at every trajectory step, over every
    avoiding window of [0, n2) containing 0."""
    return _scan_one(p, m1_check(p), enum_cap)


def check_k1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive k = 1 harness: block images, their disjointness and size,
    the count bound, and a translate witness at every trajectory step, over
    every avoiding window of [0, n2) containing 0."""
    return _scan_one(p, k1_check(p), enum_cap)
