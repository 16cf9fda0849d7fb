"""Per-bit reference versions of the batched scheme, oracle and decode paths.

These are the straightforward loops the library used before its hot paths
were batched. Property tests require the library to agree with them bit for
bit on every input.
"""

import random

from misrecon.graphs import Graph, VertexSet
from misrecon.oracle import Transcript
from misrecon.schemes import QueryScheme
from misrecon.util import derive_seed, iter_bits


def random_queries(n: int, t: int, p: float, seed: int) -> QueryScheme:
    """One rng.random() < p draw per (query, vertex), in row order."""
    rng = random.Random(derive_seed(seed))
    queries = []
    for _ in range(t):
        mask = 0
        for v in range(n):
            if rng.random() < p:
                mask |= 1 << v
        queries.append(VertexSet(n, mask))
    return QueryScheme(n, tuple(queries))


def is_mis(g: Graph, q: VertexSet, i: VertexSet) -> bool:
    """Per-vertex definition: no member has a neighbour in i, and every other
    vertex of q has one."""
    imask = i.mask
    for v in iter_bits(imask):
        if g.adjacency_mask(v) & imask:
            return False
    for v in iter_bits(q.mask & ~imask):
        if not g.adjacency_mask(v) & imask:
            return False
    return True


def greedy_mis(g: Graph, q: VertexSet, order) -> VertexSet:
    """Scan order, adding each vertex of q that has no chosen neighbour."""
    mis = 0
    for v in order:
        if q.mask >> v & 1 and not g.adjacency_mask(v) & mis:
            mis |= 1 << v
    return VertexSet(g.n, mis)


def random_mis(g: Graph, q: VertexSet, seed: int) -> VertexSet:
    members = list(iter_bits(q.mask))
    random.Random(seed).shuffle(members)
    return greedy_mis(g, q, members)


def greedy_lex(g: Graph, q: VertexSet) -> VertexSet:
    return greedy_mis(g, q, range(g.n))


def decode(n: int, transcript: Transcript):
    """(edges, unknown pairs) by the O(n^2) pair loop over OR-ed masks."""
    co_queried = [0] * n
    co_answered = [0] * n
    for q, a in transcript.entries:
        for v in iter_bits(q.mask):
            co_queried[v] |= q.mask
        for v in iter_bits(a.mask):
            co_answered[v] |= a.mask
    edges = []
    unknown = []
    for u in range(n):
        for v in range(u + 1, n):
            if co_answered[u] >> v & 1:
                continue
            if co_queried[u] >> v & 1:
                edges.append((u, v))
            else:
                unknown.append((u, v))
    return tuple(edges), tuple(unknown)
