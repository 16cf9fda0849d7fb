"""Cover-free families: checkers, constructions, duals, and sampling experiments.

A family of n sets over ground {0,..,t-1} is (w,r)-cover-free when no
intersection of w member sets is contained in the union of r other member
sets. Members are addressed by index: the checker enumerates w-subsets and
r-subsets of *indices*, which coincides with the tuple-with-repetition
definition for distinct-set families (repeated picks change neither the
intersection nor the union) and extends it to families carrying duplicate
sets, as duals legitimately do. A family containing two equal sets is never
cover-free for w,r >= 1: the duplicate covers any intersection involving its
twin.

Convention for r = 0: the empty union covers exactly the empty set, so
(w,0)-cover-free means every w-wise intersection is nonempty.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .reports import BoundCheck, ExperimentReport
from .util import (
    CapExceededError,
    bernoulli_rows,
    derive_seed,
    iter_bits,
    mask_from_members,
    mean_var_stderr,
    member_tuple,
    run_seeded_trials,
    transpose_masks,
)

CHECK_CAP = 5 * 10**6
SEARCH_CAP = 10**7
# a larger ground set is refused before anything per element is allocated:
# dual's mask per element, or random_set_family's blocks of up to 16 rows
GROUND_CAP = 10**6
# a finer alpha grid is refused before np.linspace allocates 8 bytes a point
GRID_CAP = 10**6
# redraw rounds random_set_family spends on equal sets before it gives up
MAX_ROUNDS = 100


def check_ground_cap(t: int) -> None:
    """CapExceededError when a ground set of t elements exceeds GROUND_CAP."""
    if t > GROUND_CAP:
        raise CapExceededError(f"ground size {t} exceeds cap {GROUND_CAP}")


class CffConstructionError(RuntimeError):
    """Random construction failed to produce distinct sets within its round budget."""


@dataclass(frozen=True)
class SetFamily:
    """An ordered family of subsets of {0,..,ground_size-1}, one bitmask per set.

    Entries are indexed; duplicates are representable (duals keep them), but
    the cover-free checker treats any duplicate pair as an immediate
    violation.
    """

    ground_size: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.ground_size < 0:
            raise ValueError(f"ground size must be >= 0, got {self.ground_size}")
        for m in self.masks:
            if m < 0 or m >> self.ground_size:
                raise ValueError(f"set mask {m} outside ground set")

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """The family of the given member lists, each checked against the ground set."""
        return cls(ground_size, tuple(mask_from_members(ground_size, s) for s in sets))

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The sets as frozensets, built from the masks on each access."""
        return tuple(frozenset(iter_bits(m)) for m in self.masks)

    @property
    def n(self) -> int:
        return len(self.masks)

    def has_duplicates(self) -> bool:
        return len(set(self.masks)) != len(self.masks)

    def to_text(self) -> str:
        lines = [f"{self.ground_size} {self.n}"]
        lines.extend(" ".join(map(str, iter_bits(m))) for m in self.masks)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SetFamily":
        return cls.from_sets(*read_rows(text))


def read_rows(text: str) -> tuple[int, list[list[int]]]:
    """Parse the set-family and scheme format: `size count`, then count member
    lines, then only blank lines. ValueError on any defect."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("empty file")
    try:
        size, count = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad header: {lines[0]!r}") from exc
    body = lines[1 : count + 1]
    if len(body) != count:
        raise ValueError(f"expected {count} member lines, found {len(body)}")
    extra = [ln for ln in lines[count + 1 :] if ln.strip()]
    if extra:
        raise ValueError(f"expected {count} member lines, found extra line {extra[0]!r}")
    rows = []
    for ln in body:
        try:
            rows.append(list(map(int, ln.split())))
        except ValueError as exc:
            raise ValueError(f"bad member line: {ln!r}") from exc
    return size, rows


@dataclass(frozen=True)
class CffParams:
    """Intersection width w, cover width r, and split parameter s."""

    w: int
    r: int
    s: int = 1

    def __post_init__(self):
        if self.w < 1 or self.r < 1 or self.s < 1:
            raise ValueError("w, r, s must all be >= 1")


@dataclass(frozen=True)
class CoverViolation:
    """Witness that a family is not (w,r)-cover-free; falsy so checkers compose."""

    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    covered: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


def dual(f: SetFamily) -> SetFamily:
    """The dual family: one set per ground element x, holding {i : x in sets[i]}.

    Equal entries are kept as distinct indexed sets; the incidence matrix is
    simply transposed, so dual is an involution on incidence.
    """
    check_ground_cap(f.ground_size)
    return SetFamily(f.n, tuple(transpose_masks(f.masks, f.ground_size)))


def check_size(n: int, w: int, r: int) -> int:
    """Index combinations is_cover_free walks for n >= w sets (r clamped to n - w)."""
    return math.comb(n, w) * math.comb(n - w, min(r, n - w))


def is_cover_free(f: SetFamily, w: int, r: int):
    """Exhaustive (w,r)-cover-freeness check.

    Returns True, or the first CoverViolation in index-combination order.
    r = 0 checks that all w-wise intersections are nonempty. Since repeated
    picks never change a union, r is effectively capped at n - w distinct
    covering sets; larger r values are clamped rather than rejected.
    """
    n = f.n
    if w < 1 or r < 0:
        raise ValueError("need w >= 1 and r >= 0")
    if w > n:
        raise ValueError(f"w = {w} exceeds family size {n}")
    work = check_size(n, w, r)
    if work > CHECK_CAP:
        raise CapExceededError(f"check size {work} exceeds cap {CHECK_CAP}")
    # with no covering sets available the empty union still covers the empty
    # set, so the r = 0 convention applies whether requested or clamped
    cover = _first_cover(f.masks, w, min(r, n - w))
    if cover is None:
        return True
    a_idx, b_idx, inter = cover
    return CoverViolation(a_idx, b_idx, member_tuple(inter))


def _first_cover(masks: tuple[int, ...], w: int, r: int):
    """(A indices, B indices, intersection mask) of the first (w,r) cover, or None.

    Combinations are walked in index order. The empty union of r = 0 covers
    only an empty intersection, which any r-subset covers.
    """
    n = len(masks)
    for a_idx in itertools.combinations(range(n), w):
        inter = masks[a_idx[0]]
        for i in a_idx[1:]:
            inter &= masks[i]
        rest = [i for i in range(n) if i not in a_idx]
        for b_idx in itertools.combinations(rest, r):
            union = 0
            for i in b_idx:
                union |= masks[i]
            if not inter & ~union:
                return a_idx, b_idx, inter
    return None


def cff_ground_size(n: int, w: int, r: int, c: float) -> int:
    """Oversampled ground size c * (w+r)^(w+r+1) / (w^w r^r) * ln n."""
    return math.ceil(c * (w + r) ** (w + r + 1) / (w**w * r**r) * math.log(n))


def random_cff(n: int, w: int, r: int, c: float = 2.0, seed: int = 0) -> SetFamily:
    """Randomized cover-free family candidate.

    A random_set_family over cff_ground_size(n, w, r, c) elements with
    density w/(w+r), the maximizer of the per-element violation-avoidance
    product. Verification is the caller's job at small scale; at large scale
    the construction stands as Monte-Carlo.
    """
    if w < 1 or r < 1:
        raise ValueError("need w, r >= 1")
    if w > n:
        raise ValueError("need w <= n")
    if c <= 0:
        raise ValueError("oversampling constant must be positive")
    t = cff_ground_size(n, w, r, c)
    return random_set_family(n, t, w / (w + r), seed)


def random_set_family(n: int, t: int, density: float, seed: int = 0) -> SetFamily:
    """n distinct uniform-density subsets of {0,..,t-1}; experiment fodder."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if t < 0:
        raise ValueError(f"need ground size t >= 0, got {t}")
    # 1 << t only where it can be below n, so a huge t builds no huge integer
    if n > 1 << min(t, n.bit_length()):
        raise ValueError(
            f"cannot draw {n} distinct sets: a ground set of {t} has 2^{t} subsets"
        )
    check_ground_cap(t)
    rng = random.Random(derive_seed(seed))
    masks = bernoulli_rows(rng, n, t, density)
    for _ in range(MAX_ROUNDS):
        seen: set[int] = set()
        dup = []
        for i, m in enumerate(masks):
            if m in seen:
                dup.append(i)
            else:
                seen.add(m)
        if not dup:
            return SetFamily(t, tuple(masks))
        # every copy after the first is redrawn, in index order
        for i, m in zip(dup, bernoulli_rows(rng, len(dup), t, density)):
            masks[i] = m
    raise CffConstructionError(
        f"could not draw {n} distinct sets within {MAX_ROUNDS} rounds"
    )


def exact_t(n: int, w: int, r: int, t_max: int) -> int | None:
    """Smallest ground size admitting a (w,r)-cover-free family with n distinct sets.

    Exhaustive search over all n-subsets of the power set for each candidate
    ground size; None when no family exists up to t_max. Measured on a 2-core
    VM with t_max = 6 and SEARCH_CAP: (n, w, r) = (4, 2, 2) finds 6 in
    1.1 s; (5, 2, 2) searches every t <= 6 in 27 s and finds none; (6, 1, 2),
    (6, 2, 2) and (7, 1, 2) exceed the cap at t = 6 after 3.0-10 s.
    """
    if w < 1 or r < 0:
        raise ValueError("need w >= 1 and r >= 0")
    if w + r > n:
        raise ValueError("need w + r <= n")
    if t_max < 1:
        raise ValueError("need t_max >= 1")
    visited = 0
    for t in range(1, t_max + 1):
        if 2**t < n:
            continue
        visited += math.comb(2**t, n)
        if visited > SEARCH_CAP:
            # the search stops at the first admitting t, so only charge
            # ground sizes actually visited
            raise CapExceededError(
                f"search space through t={t} is {visited}, exceeds cap {SEARCH_CAP}"
            )
        for combo in itertools.combinations(range(2**t), n):
            if _first_cover(combo, w, r) is None:
                return t
    return None


def alpha_product_bound(w: int, r: int, grid_size: int) -> float:
    """Max over an [0,1] grid of a^w (1-a)^r minus its closed-form maximum.

    The product peaks at a = w/(w+r), evaluated in log space so that a w or r
    above 2^53 keeps its precision; the deviation must be <= 0 up to tolerance.
    """
    if w < 1 or r < 1:
        raise ValueError("need w, r >= 1")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if grid_size > GRID_CAP:
        raise CapExceededError(f"grid size {grid_size} exceeds cap {GRID_CAP}")
    alpha = np.linspace(0.0, 1.0, grid_size)
    values = alpha**w * (1.0 - alpha) ** r
    peak = math.exp(-w * math.log1p(r / w) - r * math.log1p(w / r))
    return float(np.max(values) - peak)


def _draw_trial(f: SetFamily, membership: tuple[int, ...], w: int, r: int, seed: int):
    """One (A-tuple, B-tuple) draw from Random(seed): (a_mask, b_mask) over
    set indices, and the ground elements in every A-set and in no B-set."""
    n = f.n
    rng = random.Random(seed)
    a_mask = 0
    for _ in range(w):
        a_mask |= 1 << rng.randrange(n)
    rest = [i for i in range(n) if not a_mask >> i & 1]
    b_mask = 0
    for _ in range(r):
        b_mask |= 1 << rest[rng.randrange(len(rest))]
    survivors = [x for x, m in enumerate(membership) if a_mask & ~m == 0 and b_mask & m == 0]
    return a_mask, b_mask, survivors


def _membership(f: SetFamily, params: CffParams) -> tuple[int, ...]:
    """The dual's masks of a family of at least w + r distinct sets, or ValueError."""
    if f.has_duplicates():
        raise ValueError("experiment requires a family of distinct sets")
    if params.w + params.r > f.n:
        raise ValueError("need w + r <= n")
    return dual(f).masks


def survivor_count_experiment(
    f: SetFamily, params: CffParams, trials: int, seed: int
) -> ExperimentReport:
    """Sample the uniform (A_1..A_w, B_1..B_r) draw and measure |X|.

    X is the set of ground elements contained in all A_i and avoided by all
    B_j. The report compares the empirical mean against the exact per-family
    ceiling (n/(n-w))^r * sum_x a_x^w (1-a_x)^r and against the distribution-
    free ceiling (w/(w+r))^w * t.
    """
    membership = _membership(f, params)
    w, r = params.w, params.r
    n, t = f.n, f.ground_size

    def trial(trial_seed: int) -> int:
        return len(_draw_trial(f, membership, w, r, trial_seed)[2])

    mean, var, stderr = mean_var_stderr(run_seeded_trials(trial, trials, seed))

    alphas = [m.bit_count() / n for m in membership]
    exact_ceiling = (n / (n - w)) ** r * sum(a**w * (1 - a) ** r for a in alphas)
    flat_ceiling = (w / (w + r)) ** w * t
    # absolute epsilon shields the degenerate zero-variance case (the
    # ceilings can be mathematically tight) from float round-off
    slack = 5 * stderr + 1e-9
    checks = (
        BoundCheck.of("mean_X_le_exact_ceiling", mean, "<=", exact_ceiling + slack),
        BoundCheck.of("mean_X_le_flat_ceiling", mean, "<=", flat_ceiling + slack),
    )
    return ExperimentReport(
        name="survivor-count-sampling",
        parameters={
            "n": n, "t": t, "w": w, "r": r, "trials": trials, "seed": seed,
        },
        measured={"mean_X": mean, "var_X": var, "stderr": stderr},
        bounds={"exact_ceiling": exact_ceiling, "flat_ceiling": flat_ceiling},
        checks=checks,
    )


def cover_witness_search(
    f: SetFamily, params: CffParams, trials: int, seed: int
) -> ExperimentReport:
    """Search for explicit covers of an A-intersection by r + |X| other sets.

    Per trial, after drawing (A, B) and computing X, when |X| <= s and no
    ground element has exactly the A-sets as its bearers, each x in X yields
    a covering set C_x (lowest-index bearer outside A), and the resulting
    relation intersection(A) <= union(B) + union(C) is verified by direct
    set inclusion. Each verified witness certifies the family is not
    (w, r+|X|)-cover-free via this route.
    """
    membership = _membership(f, params)
    w, r, s = params.w, params.r, params.s
    n = f.n

    def trial(trial_seed: int) -> tuple[bool, bool]:
        a_mask, b_mask, xs = _draw_trial(f, membership, w, r, trial_seed)
        if len(xs) > s:
            return False, False
        if any(m == a_mask for m in membership):
            return False, False
        inter = -1
        for i in iter_bits(a_mask):
            inter &= f.masks[i]
        union = 0
        for i in iter_bits(b_mask):
            union |= f.masks[i]
        for x in xs:  # C_x, the lowest-index bearer of x outside A
            union |= f.masks[next(iter_bits(membership[x] & ~a_mask))]
        return True, not inter & ~union

    outcomes = run_seeded_trials(trial, trials, seed)
    found = sum(1 for got, _ in outcomes if got)
    verified = sum(1 for got, ok in outcomes if got and ok)
    checks = (BoundCheck.of("witnesses_verified", verified, "==", found),)
    return ExperimentReport(
        name="cover-witness-search",
        parameters={
            "n": n, "t": f.ground_size, "w": w, "r": r, "s": s,
            "trials": trials, "seed": seed,
        },
        measured={
            "witness_found": found,
            "witness_verified": verified,
            "witness_frequency": found / trials,
        },
        bounds={},
        checks=checks,
    )
