"""Non-adaptive query schemes and their cover-free duality checks.

A scheme is an ordered family of vertex subsets queried up front. It is a
*query scheme* for degree bound D when no two distinct graphs of max degree
<= D admit a common MIS answer on every query; equivalently (up to a gap of
2 in the cover width) its dual is (2, 2D)-cover-free. Both directions are
checked here by brute force at desk scale.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coverfree
from .coverfree import CoverViolation, SetFamily, is_cover_free, random_cff, read_rows
from .graphs import (
    Graph,
    VertexSet,
    enumerate_bounded_degree_graphs,
    matching_count,
)
from .oracle import is_mis  # noqa: F401  schemes.is_mis is a binding perfbench wraps
from .util import CapExceededError, bernoulli_rows, derive_seed, iter_bits

DEFAULT_PAIR_CAP = int(os.environ.get("MISRECON_PAIR_CAP", 5 * 10**6))


class SchemeConstructionError(RuntimeError):
    """The scheme builder failed or its family failed cover-free verification."""


@dataclass(frozen=True)
class QueryScheme:
    """Ordered list of queries over vertices 0..n-1 (duplicates are harmless)."""

    n: int
    queries: tuple[VertexSet, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"scheme universe size must be >= 0, got {self.n}")
        for q in self.queries:
            if q.n != self.n:
                raise ValueError("query universe mismatch")

    def __len__(self) -> int:
        return len(self.queries)

    def as_set_family(self) -> SetFamily:
        """The queries as a family of sets over ground {0,..,n-1}."""
        return SetFamily(self.n, tuple(q.mask for q in self.queries))

    def dual_family(self) -> SetFamily:
        """One set per vertex v: the indices of queries containing v."""
        return coverfree.dual(self.as_set_family())

    def to_text(self) -> str:
        return self.as_set_family().to_text()

    @classmethod
    def from_text(cls, text: str) -> "QueryScheme":
        n, rows = read_rows(text)
        return cls(n, tuple(VertexSet.from_members(n, r) for r in rows))


def random_queries(n: int, t: int, p: float, seed: int) -> QueryScheme:
    """t queries, each vertex included independently with probability p."""
    if t < 0:
        raise ValueError("need t >= 0 queries")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    rng = random.Random(derive_seed(seed))
    return QueryScheme(n, tuple(VertexSet(n, m) for m in bernoulli_rows(rng, t, n, p)))


def randomized_scheme(n: int, delta: int, c: float, p: float, seed: int) -> QueryScheme:
    """Bernoulli scheme with ceil(c * delta^2 * ln n) queries."""
    if n < 2:
        raise ValueError("need n >= 2")
    if delta < 1:
        raise ValueError("need delta >= 1")
    if not 0 < c < math.inf:
        raise ValueError("query-count constant must be positive and finite")
    t = math.ceil(c * delta * delta * math.log(n))
    return random_queries(n, t, p, seed)


def cff_scheme(
    n: int,
    delta: int,
    builder: Callable[[int, int, int, int], SetFamily] | None = None,
    seed: int = 0,
    verify: bool | None = None,
    check_cap: int = coverfree.DEFAULT_CHECK_CAP,
) -> QueryScheme:
    """Deterministic scheme from a (2, 2*delta)-cover-free family with n sets.

    The builder produces the family R (default: the randomized construction);
    identifying its n sets with the vertices, the queries are the dual:
    query_x = {v : x in R_v}, one query per ground element. With verify=None
    the family is verified whenever the exhaustive check fits the cap;
    verify=True forces verification and verify=False skips it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if delta < 1:
        raise ValueError("need delta >= 1")
    if builder is None:
        builder = lambda n_, w_, r_, seed_: random_cff(n_, w_, r_, c=2.0, seed=seed_)
    family = builder(n, 2, 2 * delta, seed)
    if family.n != n:
        raise SchemeConstructionError(
            f"builder produced {family.n} sets, expected {n}"
        )
    work = math.comb(n, 2) * math.comb(n - 2, min(2 * delta, n - 2))
    if verify is None:
        verify = work <= check_cap
    if verify:
        witness = is_cover_free(family, 2, 2 * delta, cap=check_cap)
        if not witness:
            raise SchemeConstructionError(
                f"builder family is not (2,{2 * delta})-cover-free: {witness}"
            )
    return QueryScheme(n, tuple(VertexSet(n, m) for m in family.membership_masks()))


@dataclass(frozen=True)
class SchemeViolation:
    """Two distinct graphs sharing an MIS answer on every query; falsy."""

    g: Graph
    h: Graph

    def __bool__(self) -> bool:
        return False


def _mis_family(adj: tuple[int, ...], qmask: int) -> frozenset[int]:
    """All maximal independent sets of the induced subgraph, as masks.

    Bron-Kerbosch with Tomita pivoting on the complement of G[Q], whose
    maximal cliques are the maximal independent sets of G[Q]. The pivot u
    has the most complement neighbours in P, so only P & ~nn[u] is branched
    on; each maximal set is reported exactly once.
    """
    nn = {v: qmask & ~adj[v] & ~(1 << v) for v in iter_bits(qmask)}
    found = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                found.append(r)
            return
        pivot = max(iter_bits(p | x), key=lambda u: (nn[u] & p).bit_count())
        for v in iter_bits(p & ~nn[pivot]):
            expand(r | 1 << v, p & nn[v], x & nn[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, qmask, 0)
    return frozenset(found)


def is_query_scheme(
    scheme: QueryScheme, delta: int, cap: int = DEFAULT_PAIR_CAP
):
    """Exhaustively verify the distinguishing property over all graph pairs.

    Returns True, or the first (in enumeration order) SchemeViolation: a pair
    of distinct max-degree-<=delta graphs with a common MIS on every query.
    The MIS families of G_i[Q] and G_j[Q] intersect iff some MIS S of G_i[Q]
    is an MIS of G_j[Q], that is iff N_j(S) & Q == Q - S for the union
    N_j(S) of adj_j[s] over s in S: S is independent in G_j and dominates
    the rest of Q. So row i keeps its later graphs j as one candidate array
    and filters it query by query, in scheme order, against G_i's families,
    memoised per distinct G_i[Q]; the row ends when no candidate is left,
    and its first candidate to pass every query is G_i's first partner.
    Measured on a 2-core VM at n=7, delta=2 (15,796 graphs, 1.2e8 pairs, so
    cap must be raised): a failing random scheme (12 queries, p=0.5, seed 1)
    takes about 0.01 s, and the passing scheme of all 21 pair queries, which
    scans every row, 4.4-5.4 s.
    """
    if delta >= 1:
        # the T(n) matchings alone make this many pairs: refuse before enumerating
        t = matching_count(scheme.n, cap)
        pairs = t * (t - 1) // 2
        if pairs > cap:
            raise CapExceededError(f"at least {pairs} graph pairs exceed cap {cap}")
    graphs = enumerate_bounded_degree_graphs(scheme.n, delta)
    n_graphs = len(graphs)
    if n_graphs * (n_graphs - 1) // 2 > cap:
        raise CapExceededError(
            f"{n_graphs * (n_graphs - 1) // 2} graph pairs exceed cap {cap}"
        )
    # adj_t[v, j] = adj_j[v]. int64 holds every mask: the enumeration cap keeps
    # n <= 13 for delta >= 1, and delta = 0 has one graph and no pair
    adj_t = np.array([g.adjacency_masks for g in graphs], np.int64).T.copy()
    # an empty query has the one answer {} on every graph: it separates nothing
    queries = [(q.mask, tuple(iter_bits(q.mask))) for q in scheme.queries if q.mask]
    families: dict[tuple[int, tuple[int, ...]], list[tuple[list[int], int]]] = {}
    for i in range(n_graphs - 1):
        adj = graphs[i].adjacency_masks
        candidates = np.arange(i + 1, n_graphs)
        for qm, members in queries:
            key = (qm, tuple(adj[v] & qm for v in members))
            family = families.get(key)
            if family is None:
                family = families[key] = [
                    (list(iter_bits(s)), qm & ~s) for s in _mis_family(adj, qm)
                ]
            columns = {v: adj_t[v][candidates] for v in members}
            keep = np.zeros(candidates.size, bool)
            for s_members, rest in family:
                nbrs = 0
                for v in s_members:
                    nbrs = nbrs | columns[v]
                keep |= nbrs & qm == rest
            candidates = candidates[keep]
            if not candidates.size:
                break
        if candidates.size:
            return SchemeViolation(graphs[i], graphs[candidates[0]])
    return True


@dataclass(frozen=True)
class DualityReport:
    """Both cover-free duality directions evaluated on one scheme."""

    delta: int
    is_scheme: bool
    scheme_witness: SchemeViolation | None
    dual_cover_free_necessary: bool
    necessary_witness: CoverViolation | None
    dual_cover_free_sufficient: bool
    sufficient_witness: CoverViolation | None

    @property
    def necessity_holds(self) -> bool:
        """query scheme implies the dual is (2, 2*delta-2)-cover-free."""
        return not self.is_scheme or self.dual_cover_free_necessary

    @property
    def sufficiency_holds(self) -> bool:
        """dual (2, 2*delta)-cover-free implies a query scheme."""
        return not self.dual_cover_free_sufficient or self.is_scheme

    @property
    def ok(self) -> bool:
        return self.necessity_holds and self.sufficiency_holds


def duality_check(
    scheme: QueryScheme,
    delta: int,
    pair_cap: int = DEFAULT_PAIR_CAP,
    check_cap: int = coverfree.DEFAULT_CHECK_CAP,
) -> DualityReport:
    """Cross-check the scheme property against cover-freeness of the dual."""
    if scheme.n < 2:
        raise ValueError(f"need a scheme over n >= 2 vertices, got n = {scheme.n}")
    if delta < 1:
        raise ValueError("need delta >= 1")
    scheme_result = is_query_scheme(scheme, delta, cap=pair_cap)
    dual_family = scheme.dual_family()
    necessary = is_cover_free(dual_family, 2, 2 * delta - 2, cap=check_cap)
    sufficient = is_cover_free(dual_family, 2, 2 * delta, cap=check_cap)
    return DualityReport(
        delta=delta,
        is_scheme=bool(scheme_result),
        scheme_witness=None if scheme_result else scheme_result,
        dual_cover_free_necessary=bool(necessary),
        necessary_witness=None if necessary else necessary,
        dual_cover_free_sufficient=bool(sufficient),
        sufficient_witness=None if sufficient else sufficient,
    )
