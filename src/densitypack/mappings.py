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

The plans evaluate the maps as array filters over a whole batch of window
masks.  A filter flags a row when it holds a term: a conjunction of two
facts, each either "A holds position x" or "the walk of alpha reaches
step n" (meets I there, or passes every step).  Which terms exist is a
fact of the family.  Each route lists the images of its map once, an
image being the position x that alpha maps to on the rows that hold one
fact, and one rule (`_plan`) turns them into terms: a hole image that A
holds, an image the map refuses, and two images that coincide where the
map forbids it.  For k = 1 no coincidence is allowed; for m = 1 only an
edge down the bands, v(beta) = w(alpha) with band(beta) > band(alpha).
No term tests the count bound: on a row with no term the images already
imply it (see `_m1_plan` and `_k1_plan`).  A band position that takes no
step (quotient >= 2 for m = 1, j0 > m for k = 1) ends at images fixed by
alpha, so each of its terms joins two positions x and x + delta; all such
terms at one distance delta are tested by one shifted AND,
A & lo & (A >> delta), as in shift-and string matching (Baeza-Yates and
Gonnet, CACM 35(10), 1992).  Walks with steps keep one bool row per step,
read from the batch's I masks and their witness masks.

A filter flags a superset of the windows on which the reference raises,
and every flagged window is re-checked by the reference, in order; only a
reference failure counts.  The first counterexample, its index and its
violation text are therefore exactly those of running the reference on
every window.  The filter-versus-reference tests check the flag logic,
and the filters flag exactly the rows that the earlier walk-by-walk
filters kept in the tests flag; the pinned walks and images, an
independent walk in the tests, and the tests that the maps hold on every
window of small families guard the shared definitions.

Every reader of a route first refuses a family outside its regime (m = 1
for the chain route, k = 1 for the block route) with UnsupportedRegime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import InternalError, LemmaViolation, NotInBand, UnsupportedRegime
from .family import CanonicalParams, as_int, require_type
from .oracle import DEFAULT_ENUM_CAP, Window, check_enum_length
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
    i, r = divmod(alpha, p.a)
    if 0 <= i < p.k and r > p.b:
        q, off = divmod(r, p.b)
        return GapDecomposition(alpha, i, q, off)
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
    primary = frozenset(range(alpha + a + max(m + 1 - j0, 0) * b, alpha + a + (m + 1) * b, b))
    quots = [q for q, _, _ in steps] + [m + 1]
    blocks = tuple(
        frozenset(range(off + 2 * a + (m + quots[n] - quots[n + 1]) * b, off + 2 * a + m * b, b))
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


class _Walk(NamedTuple):
    """The trajectory of one band position alpha that takes a step: the
    (quotient, offset, witness mask) triples of `_m1_walk` or `_k1_steps`,
    as the reference reads them."""

    alpha: int
    steps: tuple[tuple[int | None, int, int], ...]


# An atom is a fact that a row of a batch has or lacks: a position x, held
# when A holds x, or (walk, n), held when the row reaches n on that walk of
# the plan: it first meets I at step n or, for n = len(steps), passes every
# step without meeting I.  A term is a conjunction of two atoms, the same
# atom twice for one fact alone; a filter flags every row that holds a term.
_Atom = int | tuple[int, int]


class _Plan(NamedTuple):
    """The terms of an array filter, grouped by how a batch tests them.

    groups holds (delta, lo) per distance delta between the two positions
    of a term, lo the mask of the lower ones: a row holds one of them when
    A & lo & (A >> delta) != 0.  walks are the walks with steps, each of
    which also flags the rows that miss a translate witness on the way.
    meets holds (atom, bits) per walk atom paired with positions: a row
    that reaches the atom and whose A meets bits.  pairs are the terms of
    two walk atoms.
    """

    groups: tuple[tuple[int, int], ...]
    walks: tuple[_Walk, ...]
    meets: tuple[tuple[tuple[int, int], int], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


# An image is (x, alpha, atom, hole): band position alpha maps to x on the
# rows that hold the atom, and x must then be a hole when hole is set (else
# it is a translate target, in I).  x is None for an image the map refuses.
_Image = tuple[int | None, int, _Atom, bool]


def _plan(
    walks: list[_Walk], images: list[_Image], allowed: Callable[[int, int, int], bool] | None = None
) -> _Plan:
    """The terms of a filter, from the images of its map listed in
    increasing alpha, grouped for `_plan_flags`: a hole image in A, a
    refused image, and two images of band positions alpha < beta at one
    x, unless allowed(x, alpha, beta), if given.

    Two images of one band position are never a term: `_m1_images` keeps
    its v apart from every w, and a walk stops at one step only, even
    where two of its offsets coincide, as those of a k = 1 walk can.
    """
    groups, meets, pairs = {}, {}, set()  # as in _Plan

    def file(s: _Atom, t: _Atom) -> None:  # one term, by the kinds of its atoms
        if type(s) is int:
            s, t = t, s
        if type(s) is int:  # both positions
            lo, hi = (s, t) if s < t else (t, s)
            groups[hi - lo] = groups.get(hi - lo, 0) | 1 << lo
        elif type(t) is int:
            meets[s] = meets.get(s, 0) | 1 << t
        else:
            pairs.add((s, t) if s < t else (t, s))

    at: dict[int, list[_Image]] = {}  # x -> the images at x so far
    for image in images:
        x, beta, atom, hole = image
        if x is None:
            file(atom, atom)
            continue
        if hole:
            file(atom, x)
        owners = at.setdefault(x, [])
        for _, alpha, other, _ in owners:
            if alpha != beta and not (allowed and allowed(x, alpha, beta)):
                file(other, atom)
        owners.append(image)
    return _Plan(
        tuple(sorted(groups.items())), tuple(walks), tuple(sorted(meets.items())), tuple(sorted(pairs))
    )


def _walk_images(alpha: int, steps: tuple, walks: list[_Walk], images: list[_Image]) -> _Atom:
    """Add the walk of alpha, if it takes a step, to walks and its offsets
    to images as translate targets; the atom of the rows that pass every
    step, alpha itself for a walk of no step."""
    if not steps:
        return alpha
    images += [(off, alpha, (len(walks), n), False) for n, (_, off, _) in enumerate(steps)]
    walks.append(_Walk(alpha, steps))
    return len(walks) - 1, len(steps)


def _walk_rows(batch: WindowBatch, walk: _Walk, flags: np.ndarray) -> list[np.ndarray]:
    """The rows of a batch that hold alpha, by where they leave the walk:
    reached[n] first meet I at step n (the step's offset is a bit of the
    row's I mask), reached[-1] pass every step without meeting I.  The rows
    that miss a translate witness on the way are ORed into flags."""
    walking = (batch.masks & (1 << walk.alpha)) != 0
    reached = []
    for _, off, witness in walk.steps:
        reached.append(walking & ((batch.i_mask & (1 << off)) != 0))
        walking ^= reached[-1]  # the rows that stop there leave the walk
        flags |= walking & ((batch.masks & witness) == 0)
    reached.append(walking)
    return reached


def _plan_flags(batch: WindowBatch, plan: _Plan) -> np.ndarray:
    """The rows of the batch that hold a term of the plan.  Each distance
    costs one shift, one AND and one OR, whatever the number of its terms;
    the masks are ANDed in once for all of them."""
    masks = batch.masks
    upper, shifted = np.zeros_like(masks), np.empty_like(masks)
    for delta, lo in plan.groups:
        np.right_shift(masks, delta, out=shifted)
        shifted &= lo
        upper |= shifted
    upper &= masks
    flags = upper != 0
    reached = [_walk_rows(batch, walk, flags) for walk in plan.walks]
    for (walk, step), bits in plan.meets:
        flags |= reached[walk][step] & ((masks & bits) != 0)
    for (walk, step), (other, other_step) in plan.pairs:
        flags |= reached[walk][step] & reached[other][other_step]
    return flags


def _m1_images(p: CanonicalParams):
    """(alpha, band, steps, v, w) per band position of an m = 1 family, in
    increasing alpha, as `_m1_walk` gives them; a position of quotient
    >= 2 takes no step.

    Every v = alpha + (k - i)*a + b lies in (n1, n2).  Every walk ends, as
    it climbs by a - b >= 1 from an offset below b until it reaches
    2*b - a (a = b = 1 has no band positions), and its end w lies in
    [n1, n2).  So v and w are top positions, a hole exactly when A misses
    them.  v >= n1 > b exceeds every offset, and v equals its own walk's w
    only for (a, b) = (2, 1), which has no band positions either.  The
    filter reads all of this off the images; InternalError is raised where
    any of it fails.
    """
    n1, n2 = p.n1, p.n2
    for band in range(p.k):
        for alpha in range(band * p.a + p.b + 1, (band + 1) * p.a):
            steps, v, w = _m1_walk(gap_decompose(alpha, p), p)
            ws = [off for _, off, _ in steps] + [w]  # every w alpha can map to
            if w is None or not (n1 < v < n2 and n1 <= w < n2) or v in ws:
                raise InternalError(f"m = 1 images v = {v}, w = {w} of alpha = {alpha} in {p}")
            yield alpha, band, steps, v, w


def _m1_plan(p: CanonicalParams) -> _Plan:
    """The terms on which `verify_m1_inequality` could raise: the images of
    `_m1_images`, v and w (a hole, or the offset where the walk meets I),
    filed by `_plan`, where the one coincidence allowed is v(beta) = w(alpha)
    with band(beta) > band(alpha), an edge down the bands.

    Two edges out of one beta would meet as w = w, and two into one alpha
    as v = v, so on a row with no term the edges form chains, each at most
    k long as it descends bands, whose images have |C| + 1 elements and are
    disjoint from those of every other chain.  Every image is in I or U, so
    the chains give sum(|C| + 1) <= |I| + |U|, and with |C| <= k,
    (k+1)|T| <= k(|I| + |U|): the count bound, and the main inequality it
    implies, need no term of their own.
    """
    walks, images = [], []
    v_of: dict[int, tuple[int, int]] = {}  # alpha -> (band, v)
    for alpha, band, steps, v, w in _m1_images(p):
        end = _walk_images(alpha, steps, walks, images)
        images += [(v, alpha, alpha, True), (w, alpha, end, True)]
        v_of[alpha] = band, v

    def edge(x: int, alpha: int, beta: int) -> bool:  # x = v(beta) = w(alpha)
        (band_a, v_a), (band_b, v_b) = v_of[alpha], v_of[beta]
        return v_b == x != v_a and band_b > band_a

    return _plan(walks, images, edge)


def _k1_images(p: CanonicalParams):
    """(alpha, steps, union) per band position of a k = 1 family, in
    increasing alpha: the steps of `_k1_steps` for a quotient j0 <= m (a
    quotient j0 > m takes no step), and the union of `_k1_blocks` by
    `_k1_union`, or None when that refuses it.

    No walk reaches the cap, as it climbs by a - b >= 1 from alpha > b
    until its quotient reaches m + 1, within m*b steps.  A union lies in
    [n1, n2): the primary block as b < alpha < a and t > m - j0, and a step
    block as off_n < b and, by the recurrence for eta_{n+1}, its least
    position is at least a + (m+1)*b + off_{n+1}.  InternalError is raised
    where either fails.
    """
    n1, n2 = p.n1, p.n2
    for alpha in range(p.b + 1, p.a):
        j0 = gap_decompose(alpha, p).quotient
        steps = ()
        if j0 <= p.m:
            steps, nxt = _k1_steps(alpha, p)
            if nxt is None:
                raise InternalError(f"k = 1 walk of alpha = {alpha} in {p} ran past its cap")
        try:
            union = _k1_union(alpha, *_k1_blocks(alpha, j0, steps, p), p)
        except LemmaViolation:
            union = None
        if union is not None and not n1 <= min(union) <= max(union) < n2:
            raise InternalError(f"k = 1 image {sorted(union)} of alpha = {alpha} in {p}")
        yield alpha, steps, union


def _k1_plan(p: CanonicalParams) -> _Plan:
    """The terms on which `verify_k1_mapping` could raise: the images of
    `_k1_images`, each offset where the walk meets I and each hole of the
    union, filed by `_plan` with no coincidence allowed; a refused union
    is a refused image.

    On a row with no term, every band element maps to a translate target
    in I or to m + 1 holes, no two to one target and no two to one hole.
    With t_I of them on targets and t_U on holes, t_I <= |I| and
    (m+1)t_U <= |U|, so (m+1)|T| <= (m+1)|I| + |U|: the image counts and
    the count bound need no term of their own.
    """
    walks, images = [], []
    for alpha, steps, union in _k1_images(p):
        end = _walk_images(alpha, steps, walks, images)
        images += [(u, alpha, end, True) for u in union or [None]]  # None: refused
    return _plan(walks, images)


def _machinery_check(
    p: CanonicalParams, plan: _Plan, check_window: Callable[[Window, CanonicalParams], bool]
) -> WindowCheck:
    """An array filter backed by a per-window reference, as a window check.

    The plan's terms hold on a superset of the rows on which `check_window`
    raises.  The flagged rows are re-checked in order, one Window each, and
    only a LemmaViolation there fails the window, with the violation as the
    detail; so the first failure and its detail are the reference's own.
    Only windows with |T| > 0 are ever flagged, as every term needs a band
    element in A: one with none has an empty chain partition or image map
    and a count bound of 0 <= ..., so it cannot fail; windows_checked still
    counts it.
    """

    def check(batch: WindowBatch):
        for row in np.flatnonzero(_plan_flags(batch, plan)).tolist():
            try:
                check_window(batch.window(row), p)
            except LemmaViolation as exc:
                return row, str(exc)
        return None

    return check


def m1_check(p: CanonicalParams) -> WindowCheck:
    """The m = 1 harness of `check_m1_machinery`, as a window check."""
    _require_route(p, "m")
    return _machinery_check(p, _m1_plan(p), verify_m1_inequality)


def k1_check(p: CanonicalParams) -> WindowCheck:
    """The k = 1 harness of `check_k1_machinery`, as a window check."""
    _require_route(p, "k")
    return _machinery_check(p, _k1_plan(p), verify_k1_mapping)


def check_m1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive m = 1 harness: chains, their three properties, the count
    bound, and a translate witness at every trajectory step, over every
    avoiding window of [0, n2) containing 0.  The cap is checked before
    the plan is built, as the plan grows with n2."""
    _require_route(p, "m")
    check_enum_length(p.n2, enum_cap)
    return _scan_one(p, m1_check(p), enum_cap)


def check_k1_machinery(
    p: CanonicalParams, *, enum_cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Exhaustive k = 1 harness: block images, their disjointness and size,
    the count bound, and a translate witness at every trajectory step, over
    every avoiding window of [0, n2) containing 0.  The cap is checked
    before the plan is built, as the plan grows with n2."""
    _require_route(p, "k")
    check_enum_length(p.n2, enum_cap)
    return _scan_one(p, k1_check(p), enum_cap)
