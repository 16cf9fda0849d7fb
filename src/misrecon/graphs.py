"""Undirected simple graphs over vertices 0..n-1 and their maximum degree.

Adjacency is stored as one integer bitmask per vertex, which keeps the
induced-subgraph and independence kernels branch-light: a set of vertices is
independent iff adj[v] & set_mask == 0 for every member v.

Besides a bounded-degree random generator, this module builds the two
adversarial clique families used by the lower-bound experiments: graphs that
hide a clique U while all remaining vertices stay independent, optionally
with a block W completely joined to U. Clique vertices pick *exactly* their
remaining degree budget of outside neighbours, so the family sizes match the
closed-form binomial counts exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .util import CapExceededError, iter_bits, mask_from_members, member_tuple, shuffle

ENUM_CAP = 10**6
# vertex pairs C(n, 2) of the dense per-pair work: the candidate edges of
# gen_bounded_degree and the n x n matrices of reconstruct.decode
VERTEX_PAIR_CAP = 5 * 10**6


class Graph:
    """Immutable simple graph; vertices are 0..n-1, no self-loops."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("n must be >= 0")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """The graph of adjacency masks that are symmetric and loop-free,
        unchecked."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g._adj = masks
        return g

    @property
    def delta(self) -> int:
        """The maximum degree, 0 for a graph without vertices."""
        return max((a.bit_count() for a in self._adj), default=0)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v) with u < v, in ascending order."""
        return tuple(
            (u, v) for u, a in enumerate(self._adj) for v in iter_bits(a) if v > u
        )

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return self._adj[u] >> v & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges}, delta={self.delta})"


def family_shape(delta: int, blocked: bool) -> tuple[int, int, int]:
    """(|U|, |W|, free slots per clique vertex) of a hidden-clique family.

    The plain family has |U| = ceil(delta/2) and no block; the blocked one has
    |U| = ceil(delta/3) and |W| = floor(delta/3). Every u in U spends the rest
    of its degree budget, delta - (|U|-1) - |W|, on outside neighbours, so a
    family has room for its members exactly when n > delta.
    """
    if not blocked and delta < 1:
        raise ValueError("delta must be >= 1")
    if blocked and delta < 3:
        raise ValueError("delta must be >= 3 so the forced block is nonempty")
    u_size, w_size = (
        (math.ceil(delta / 3), delta // 3) if blocked else (math.ceil(delta / 2), 0)
    )
    return u_size, w_size, delta - (u_size - 1) - w_size


def _require_room(n: int, delta: int) -> None:
    if n <= delta:
        raise ValueError("not enough outside vertices for neighbour choices")


def family_size(n: int, delta: int, blocked: bool) -> int:
    """Members of a hidden-clique family on n vertices: each u in U picks its
    free slots from the n - |U| - |W| outside vertices."""
    u_size, w_size, slots = family_shape(delta, blocked)
    _require_room(n, delta)
    return math.comb(n - u_size - w_size, slots) ** u_size


@dataclass(frozen=True)
class AdversarialFamilyDesc:
    """Parameters of a hidden-clique graph family.

    clique is the mask of the set U (a clique whose members each take
    per_clique_free_slots extra neighbours outside U); forced_block is the
    mask of the set W completely joined to U, nonzero only in the three-part
    variant.
    """

    n: int
    delta: int
    clique: int
    forced_block: int = 0

    def __post_init__(self):
        u_size, w_size, _ = family_shape(self.delta, self.forced_block != 0)
        taken = self.clique | self.forced_block  # negative iff either is
        if taken < 0 or taken >> self.n:
            raise ValueError("clique or forced block outside vertices 0..n-1")
        if self.clique & self.forced_block:
            raise ValueError("clique and forced block must be disjoint")
        if (self.clique.bit_count(), self.forced_block.bit_count()) != (u_size, w_size):
            raise ValueError("clique and forced block sizes do not fit delta")

    @property
    def per_clique_free_slots(self) -> int:
        return family_shape(self.delta, self.forced_block != 0)[2]

    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
        """U, W and V \\ (U | W), each in ascending order; W is empty when absent."""
        _require_room(self.n, self.delta)
        taken = self.clique | self.forced_block
        rest = [v for v in range(self.n) if not taken >> v & 1]
        return member_tuple(self.clique), member_tuple(self.forced_block), rest


def check_vertex_pair_cap(n: int) -> None:
    """CapExceededError when n vertices have more than VERTEX_PAIR_CAP pairs:
    the refusal of gen_bounded_degree and reconstruct.decode, which a caller
    can make first."""
    pairs = math.comb(max(n, 0), 2)
    if pairs > VERTEX_PAIR_CAP:
        raise CapExceededError(f"{pairs} vertex pairs of n={n} exceed cap {VERTEX_PAIR_CAP}")


def gen_bounded_degree(n: int, delta: int, density: float, seed: int) -> Graph:
    """Random graph with max degree <= delta.

    Candidate edges are visited in a seeded random order and inserted with
    probability `density`, rejecting insertions whose endpoints are already
    saturated. density=1 with delta=n-1 yields the complete graph. Refused
    over VERTEX_PAIR_CAP candidates.
    """
    if not 0 <= delta <= max(n - 1, 0):
        raise ValueError("delta must be in [0, n-1]")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    check_vertex_pair_cap(n)
    rng = random.Random(seed)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shuffle(rng, candidates)
    draw = rng.random  # continues from the state the shuffle left
    deg = [0] * n
    edges = []
    for u, v in candidates:
        if deg[u] < delta and deg[v] < delta and draw() < density:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return Graph(n, edges)


def _member_base(desc: AdversarialFamilyDesc) -> tuple[tuple[int, ...], list[int], list[int]]:
    """U and V \\ (U | W) in ascending order, and the adjacency masks every
    member shares: U as a clique joined completely to W."""
    clique, block, rest = desc.parts()
    base = [0] * desc.n
    for u in clique:
        base[u] = desc.clique & ~(1 << u) | desc.forced_block
    for w in block:
        base[w] = desc.clique
    return clique, rest, base


def _family_member(desc: AdversarialFamilyDesc, rng: random.Random) -> Graph:
    """The shared base, and each u in U, in ascending order, joined to
    rng.sample(V \\ (U | W), slots); every u in U has degree delta."""
    clique, rest, adj = _member_base(desc)
    for u in clique:
        for v in rng.sample(rest, desc.per_clique_free_slots):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph._from_masks(tuple(adj))


def sample_clique_family(n: int, delta: int, seed: int) -> tuple[Graph, AdversarialFamilyDesc]:
    """Uniform member of the hidden-clique family.

    U is fixed to the lowest-index vertices; every u in U independently draws
    exactly delta-(|U|-1) neighbours without replacement from V\\U, and V\\U
    carries no edges.
    """
    desc = clique_family_desc(n, delta)
    return _family_member(desc, random.Random(seed)), desc


def sample_blocked_clique_family(n: int, delta: int, seed: int) -> tuple[Graph, AdversarialFamilyDesc]:
    """Uniform member of the hidden-clique family with a forced block.

    U and W themselves are sampled uniformly at random (disjoint), U is a
    clique completely joined to W, every u in U draws exactly
    delta-(|U|-1)-|W| extra neighbours from the remaining vertices, and V\\U
    is independent.
    """
    u_size, w_size, _ = family_shape(delta, blocked=True)
    _require_room(n, delta)
    rng = random.Random(seed)
    clique, block = draw_clique_and_block(rng, n, u_size, w_size)
    desc = AdversarialFamilyDesc(n=n, delta=delta, clique=clique, forced_block=block)
    return _family_member(desc, rng), desc


def draw_clique_and_block(
    rng: random.Random, n: int, u_size: int, w_size: int
) -> tuple[int, int]:
    """Masks of uniform disjoint U and W of the given sizes: the first u_size
    and the next w_size vertices of rng.sample(range(n), u_size + w_size)."""
    picked = rng.sample(range(n), u_size + w_size)
    return mask_from_members(n, picked[:u_size]), mask_from_members(n, picked[u_size:])


def clique_family_size(n: int, delta: int) -> int:
    return family_size(n, delta, blocked=False)


def clique_family_desc(n: int, delta: int) -> AdversarialFamilyDesc:
    u_size, _, _ = family_shape(delta, blocked=False)
    _require_room(n, delta)
    return AdversarialFamilyDesc(
        n=n,
        delta=delta,
        clique=(1 << u_size) - 1,
    )


def check_family_cap(desc: AdversarialFamilyDesc) -> None:
    """CapExceededError when the described family has more than ENUM_CAP
    members: the refusal of enumerate_family, which a caller can make first."""
    size = family_size(desc.n, desc.delta, desc.forced_block != 0)
    if size > ENUM_CAP:
        raise CapExceededError(f"family size {size} exceeds cap {ENUM_CAP}")


def enumerate_family(desc: AdversarialFamilyDesc) -> Iterator[Graph]:
    """Yield every member of the described family exactly once.

    Members come in the order of itertools.product over the clique vertices,
    ascending, of their slot choices; enumeration is refused when the member
    count exceeds ENUM_CAP.
    """
    check_family_cap(desc)
    # each member adds, for every u in U, its chosen neighbours to adj[u] and
    # u to each chosen adj[v]
    clique, rest, base = _member_base(desc)
    per_vertex = [
        (mask_from_members(desc.n, chosen), chosen)
        for chosen in itertools.combinations(rest, desc.per_clique_free_slots)
    ]
    for choices in itertools.product(per_vertex, repeat=len(clique)):
        adj = base.copy()
        for u, (mask, chosen) in zip(clique, choices):
            adj[u] |= mask
            for v in chosen:
                adj[v] |= 1 << u
        yield Graph._from_masks(tuple(adj))


def enumerate_clique_family(n: int, delta: int) -> Iterator[Graph]:
    """Yield every hidden-clique family member exactly once.

    The member count equals binom(n-|U|, delta-|U|+1)^|U|; enumeration is
    refused when that count exceeds ENUM_CAP.
    """
    yield from enumerate_family(clique_family_desc(n, delta))


def matching_count(n: int, limit: int) -> int:
    """T(n), the number of matchings (involutions) of n labelled points, or
    the first T(k) above limit when k < n, so a huge n costs no huge integer.

    Every matching has max degree <= 1, so T(n) is a lower bound on the
    number of graphs of max degree delta >= 1.
    """
    t_prev, t = 1, 1
    for k in range(2, n + 1):
        if t > limit:
            break
        t_prev, t = t, t + (k - 1) * t_prev
    return t


@functools.lru_cache(maxsize=4)
def enumerate_bounded_degree_graphs(n: int, delta: int) -> tuple[Graph, ...]:
    """All labelled graphs on n vertices with max degree <= delta.

    Enumeration order is by edge-subset recursion over the lexicographically
    sorted candidate edges, so the output order is reproducible. The last four
    results are memoised and shared, hence tuples; over ENUM_CAP it raises.
    """
    # every matching is enumerated when delta >= 1: over the cap, refuse
    # before recursing
    if delta >= 1 and matching_count(n, ENUM_CAP) > ENUM_CAP:
        raise CapExceededError(f"graph enumeration exceeds cap {ENUM_CAP}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out: list[Graph] = []

    def rec(i: int, adj: list[int]):
        if i == len(pairs):
            if len(out) >= ENUM_CAP:
                raise CapExceededError(f"graph enumeration exceeds cap {ENUM_CAP}")
            out.append(Graph._from_masks(tuple(adj)))
            return
        u, v = pairs[i]
        rec(i + 1, adj)
        if adj[u].bit_count() < delta and adj[v].bit_count() < delta:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rec(i + 1, adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)

    rec(0, [0] * n)
    return tuple(out)


def pairs_to_text(pairs: Iterable[tuple[int, int]]) -> str:
    """One newline-terminated `u v` line per pair, in the given order; with
    pairs_from_lines, the one codec of pair lines."""
    return "".join(f"{u} {v}\n" for u, v in pairs)


def pairs_from_lines(
    n: int, lines: Iterable[str], what: str = "edge"
) -> tuple[tuple[int, int], ...]:
    """The pairs of `u v` lines in their order. ValueError names the first
    line that is not two integers 0 <= u < v < n, or that repeats a line."""
    # a dict finds a repeated line at once and keeps the file's order
    pairs: dict[tuple[int, int], None] = {}
    for ln in lines:
        try:
            u, v = map(int, ln.split())
        except ValueError as exc:
            raise ValueError(f"bad {what} line: {ln!r}") from exc
        if not 0 <= u < v < n:
            raise ValueError(f"{what} line must satisfy 0 <= u < v < {n}: {ln!r}")
        if (u, v) in pairs:
            raise ValueError(f"repeated {what} line: {ln!r}")
        pairs[u, v] = None
    return tuple(pairs)


def graph_to_text(g: Graph) -> str:
    """Serialize as `n m` followed by m lines `u v` (u<v), sorted, newline-terminated."""
    return f"{g.n} {g.num_edges}\n" + pairs_to_text(g.edges)


def graph_from_text(text: str, n: int | None = None) -> Graph:
    """Parse graph_to_text's format. With n given, a header that names another
    vertex count is refused before anything is allocated."""
    return Graph(*read_graph_lines([ln for ln in text.splitlines() if ln.strip()], n))


def read_graph_lines(
    lines: list[str], n: int | None = None
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The vertex count and the edges, in file order, of a graph file's
    non-blank lines, checked as graph_from_text checks them; nothing of the
    header's size is allocated."""
    if not lines:
        raise ValueError("empty graph file")
    try:
        size, m = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad graph header: {lines[0]!r}") from exc
    if size < 0:
        raise ValueError(f"bad graph header: {lines[0]!r}")
    if n is not None and size != n:
        raise ValueError(f"graph file does not match n={n}: its header says {size}")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    return size, pairs_from_lines(size, lines[1:])
