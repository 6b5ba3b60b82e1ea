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
k = 1).  `translate_witness` locates that element or raises.

Trajectories are guarded by a hard iteration cap of n2 steps; both stop
rules provably fire long before that, so hitting the cap is itself reported
as a violation rather than an infinite loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidInput,
    LemmaViolation,
    NotInBand,
    UnsupportedRegime,
)
from .family import CanonicalParams
from .oracle import DEFAULT_ENUM_CAP, Window
from .oracle import enumerate_avoiding_windows  # noqa: F401  (bench/tracer.py wraps it here)
from .profile import (
    Profile,
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
    "translate_witness",
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
    """Locate alpha in its inter-gap band and split off its b-quotient."""
    for i in range(p.k):
        if i * p.a + p.b + 1 <= alpha <= (i + 1) * p.a - 1:
            q, off = divmod(alpha - i * p.a, p.b)
            if q < 1:
                raise LemmaViolation(
                    "band-quotient", f"alpha = {alpha} in band {i} has b-quotient {q} < 1"
                )
            return GapDecomposition(alpha=alpha, band=i, quotient=q, offset=off)
    raise NotInBand(f"{alpha} lies in no band (i*a + b, (i+1)*a) of {p}")


def _profile_or(window: Window, p: CanonicalParams, prof: Profile | None) -> Profile:
    return prof if prof is not None else profile(window, p)


def _require_band_member(alpha: int, window: Window, p: CanonicalParams) -> GapDecomposition:
    dec = gap_decompose(alpha, p)
    if alpha not in window:
        raise NotInBand(f"{alpha} is not an element of the window")
    return dec


# ──────────────────────────────────────────────────────────────────────────
# m = 1: image pairs and chains
# ──────────────────────────────────────────────────────────────────────────


def m1_trajectory(
    alpha: int,
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> Trajectory:
    """Offset trajectory off, off + (a-b), ... for the m = 1 route.

    Stops at the first term lying in I or reaching 2*b - a, whichever comes
    first (I wins a tie); with a >= 2*b the threshold is vacuous at n = 0,
    so only an immediate I-hit can produce an empty-translate stop.  All
    terms stay below b, so I-membership is meaningful throughout.
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    dec = _require_band_member(alpha, window, p)
    if dec.quotient != 1:
        raise InvalidInput(
            f"alpha = {alpha} has quotient {dec.quotient}; trajectories apply to quotient 1"
        )
    translates = _profile_or(window, p, prof).empty_translates
    threshold = 2 * p.b - p.a
    step = p.a - p.b
    steps: list[tuple[int | None, int]] = []
    x = dec.offset
    for _ in range(p.n2 + 1):
        steps.append((None, x))
        if x in translates:
            return Trajectory(tuple(steps), "empty_translate", False, None)
        if x >= threshold:
            return Trajectory(tuple(steps), "threshold", False, None)
        x += step
    raise LemmaViolation(
        "trajectory-unterminated",
        f"m=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
    )


def image_pair(
    alpha: int,
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> tuple[int, int]:
    """The image pair (v, w) of a band element for the m = 1 route.

    Verifies the membership facts the counting needs: v is a top hole, w is
    an empty translate or a top hole, and v != w.
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    prof = _profile_or(window, p, prof)
    dec = _require_band_member(alpha, window, p)
    lift = (p.k - dec.band) * p.a
    v = alpha + lift + p.b
    if dec.quotient >= 2:
        w = alpha + lift
    else:
        traj = m1_trajectory(alpha, window, p, prof)
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


def build_chain_partition(
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> ChainPartition:
    """Link band elements whose image pairs intersect; check the degrees.

    Edges run from larger to smaller alpha.  Each vertex gets at most one
    edge in each direction, every intersection has size one, and the band
    index strictly descends along an edge; any breach raises.
    """
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    prof = _profile_or(window, p, prof)
    members = sorted(prof.band_all)
    image_map = {alpha: image_pair(alpha, window, p, prof) for alpha in members}

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


def verify_m1_inequality(
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> bool:
    """Full m = 1 check of one window: chains, their three properties, and
    the resulting count bounds (k+1)|T| <= k(|I|+|U|) <= (k+1)|I| + k|U|."""
    prof = _profile_or(window, p, prof)
    part = build_chain_partition(window, p, prof)

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


def k1_trajectory(
    alpha: int,
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> Trajectory:
    """Euclidean trajectory (eta_n, off_n) of alpha + n*(a-b) by b.

    Stops at the first n with off_n in I ("empty_translate") or with the
    upcoming quotient eta_{n+1} >= m + 1 ("threshold", I wins a tie at the
    same n); in the threshold case eta_{N+1} is clamped to m + 1 and
    `truncated` records whether the clamp changed it.
    """
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    dec = _require_band_member(alpha, window, p)
    j0 = dec.quotient
    if j0 > p.m:
        raise InvalidInput(
            f"alpha = {alpha} has quotient {j0} > m = {p.m}; that case bypasses trajectories"
        )
    translates = _profile_or(window, p, prof).empty_translates
    a, b = p.a, p.b
    steps: list[tuple[int | None, int]] = []
    x = alpha
    for _ in range(p.n2 + 1):
        q, off = divmod(x, b)
        steps.append((q, off))
        if off in translates:
            return Trajectory(tuple(steps), "empty_translate", False, None)
        nxt_q = (x + a - b) // b
        if nxt_q >= p.m + 1:
            return Trajectory(tuple(steps), "threshold", nxt_q > p.m + 1, p.m + 1)
        x += a - b
    raise LemmaViolation(
        "trajectory-unterminated",
        f"k=1 trajectory from alpha={alpha} ran past the n2={p.n2} cap",
    )


def k1_image(
    alpha: int,
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> ImageAssignment:
    """Image of a band element under the k = 1 map, fully verified.

    Either a single empty-translate target, or a union of exactly m + 1 top
    holes assembled from the primary block and the per-step blocks; block
    disjointness, the cardinality, and hole membership are all checked.
    """
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    prof = _profile_or(window, p, prof)
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

    traj = k1_trajectory(alpha, window, p, prof)
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


def verify_k1_mapping(
    window: Window,
    p: CanonicalParams,
    prof: Profile | None = None,
) -> bool:
    """Full k = 1 check of one window: each band element maps into I or
    into m + 1 top holes, images are pairwise disjoint, and the count bound
    (m+1)|T| <= (m+1)|I| + |U| follows and holds."""
    prof = _profile_or(window, p, prof)
    members = sorted(prof.band_all)

    targets: dict[int, int] = {}
    used_holes: set[int] = set()
    n_into_holes = 0
    for alpha in members:
        img = k1_image(alpha, window, p, prof)
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


def translate_witness(
    offset: int,
    window: Window,
    p: CanonicalParams,
    regime: str,
    *,
    band: int | None = None,
    quotient: int | None = None,
    prof: Profile | None = None,
) -> int | None:
    """The window element promised when a trajectory offset misses I.

    If `offset` is an empty translate there is no obligation and None is
    returned.  Otherwise A meets offset + S, and avoidance pins the meeting
    point: for regime "m1" it is offset + k'*a with band < k' <= k (pass
    the originating band index); for regime "k1" it is offset + a + m'*b
    with 0 <= m' < quotient (pass eta_n).  Absence is a violation.
    """
    prof = _profile_or(window, p, prof)
    if offset in prof.empty_translates:
        return None
    if regime == "m1":
        if p.m != 1:
            raise UnsupportedRegime(f"m = {p.m}: regime 'm1' needs m = 1")
        if band is None:
            raise InvalidInput("regime 'm1' needs the originating band index")
        for kp in range(band + 1, p.k + 1):
            if offset + kp * p.a in window:
                return offset + kp * p.a
        raise LemmaViolation(
            "witness-missing",
            f"offset {offset} (band {band}): no offset + k'*a in A for {band} < k' <= {p.k}",
        )
    if regime == "k1":
        if p.k != 1:
            raise UnsupportedRegime(f"k = {p.k}: regime 'k1' needs k = 1")
        if quotient is None:
            raise InvalidInput("regime 'k1' needs the trajectory quotient eta_n")
        for mp in range(quotient):
            if offset + p.a + mp * p.b in window:
                return offset + p.a + mp * p.b
        raise LemmaViolation(
            "witness-missing",
            f"offset {offset}: no offset + a + m'*b in A for 0 <= m' < {quotient}",
        )
    raise InvalidInput(f"unknown regime {regime!r}; expected 'm1' or 'k1'")


# ──────────────────────────────────────────────────────────────────────────
# per-instance harnesses
# ──────────────────────────────────────────────────────────────────────────


def _machinery_check(
    p: CanonicalParams, check_window: Callable[[Window, CanonicalParams], None]
) -> WindowCheck:
    """A per-window checker as a window check: a LemmaViolation fails the
    window, with the violation as the detail.

    Only windows with |T| > 0 are run.  A window with no band element has
    an empty chain partition or image map and a count bound of 0 <= ...,
    so it cannot fail; windows_checked still counts it.
    """

    def check(batch: WindowBatch):
        for row in np.flatnonzero(batch.n_t).tolist():
            try:
                check_window(batch.windows[row], p)
            except LemmaViolation as exc:
                return row, str(exc)
        return None

    return check


def _m1_window(w: Window, p: CanonicalParams) -> None:
    prof = profile(w, p)
    verify_m1_inequality(w, p, prof)
    for alpha in sorted(prof.band_all):
        dec = gap_decompose(alpha, p)
        if dec.quotient != 1:
            continue
        traj = m1_trajectory(alpha, w, p, prof)
        for _, off in traj.steps:
            translate_witness(off, w, p, "m1", band=dec.band, prof=prof)


def _k1_window(w: Window, p: CanonicalParams) -> None:
    prof = profile(w, p)
    verify_k1_mapping(w, p, prof)
    for alpha in sorted(prof.band_all):
        dec = gap_decompose(alpha, p)
        if dec.quotient > p.m:
            continue
        traj = k1_trajectory(alpha, w, p, prof)
        for q, off in traj.steps:
            translate_witness(off, w, p, "k1", quotient=q, prof=prof)


def m1_check(p: CanonicalParams) -> WindowCheck:
    """The m = 1 harness of `check_m1_machinery`, as a window check."""
    if p.m != 1:
        raise UnsupportedRegime(f"m = {p.m}: the chain route needs m = 1")
    return _machinery_check(p, _m1_window)


def k1_check(p: CanonicalParams) -> WindowCheck:
    """The k = 1 harness of `check_k1_machinery`, as a window check."""
    if p.k != 1:
        raise UnsupportedRegime(f"k = {p.k}: the block route needs k = 1")
    return _machinery_check(p, _k1_window)


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
