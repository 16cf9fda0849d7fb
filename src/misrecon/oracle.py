"""Maximal-independent-set oracles and query transcripts.

A query submits a vertex set Q and receives some maximal independent set of
the subgraph induced by Q. Which MIS comes back is the oracle's choice; the
policies here cover the spread used by the experiments: greedy over a fixed
or random vertex order, and the hidden-clique adversary that reveals at most
one clique vertex per query.
"""

from __future__ import annotations

import _random
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graphs import AdversarialFamilyDesc, Graph, VertexSet
from .util import derive_seed, iter_bits, shuffle


class OracleError(RuntimeError):
    """A policy produced an answer that is not an MIS of the induced subgraph."""


def is_mis(g: Graph, q: VertexSet, i: VertexSet) -> bool:
    """True iff i is independent in g and every vertex of q\\i has a neighbour in i."""
    if q.n != g.n or i.n != g.n:
        raise ValueError("universe mismatch")
    imask = i.mask
    if imask & ~q.mask:
        raise ValueError("candidate set must be contained in the query")
    # adjacency is symmetric, so i is independent iff no member lies in the
    # union of its neighbourhoods, and maximal iff that union covers q \ i
    adj = g.adjacency_masks
    covered = 0
    rest = imask
    while rest:  # iter_bits inlined: this runs once per oracle answer
        low = rest & -rest
        covered |= adj[low.bit_length() - 1]
        rest ^= low
    return not covered & imask and not q.mask & ~imask & ~covered


def greedy_mis(g: Graph, q: VertexSet, order: Sequence[int]) -> VertexSet:
    """Scan q in the given vertex order, adding a vertex iff no chosen neighbour.

    `order` is a permutation of 0..n-1 (vertices outside q are skipped).
    """
    qmask = q.mask
    return _greedy_insert(g, q, [v for v in order if qmask >> v & 1])


def _greedy_insert(g: Graph, q: VertexSet, members: Iterable[int]) -> VertexSet:
    """greedy_mis over an order that holds only members of q."""
    if q.n != g.n:
        raise ValueError("universe mismatch")
    adj = g.adjacency_masks
    mis = 0
    for v in members:
        if not adj[v] & mis:
            mis |= 1 << v
    return VertexSet(g.n, mis)


def random_mis(g: Graph, q: VertexSet, seed: int) -> VertexSet:
    """Greedy MIS under a uniformly random permutation of q derived from seed.

    An edgeless G[Q] has Q as its only MIS, so it is answered without seeding
    a generator; each query's generator is private, so no other answer moves.
    """
    return _shuffled_greedy(g, q, lambda: random.Random(seed))


def _shuffled_greedy(
    g: Graph, q: VertexSet, seeded: Callable[[], random.Random]
) -> VertexSet:
    """Q if G[Q] is edgeless, else greedy over q shuffled by the seeded() generator."""
    if q.n != g.n:
        raise ValueError("universe mismatch")
    adj, qmask = g.adjacency_masks, q.mask
    rest = qmask
    while rest:  # iter_bits inlined: most queries of an exhaustive sweep end here
        low = rest & -rest
        if adj[low.bit_length() - 1] & qmask:
            members = list(iter_bits(qmask))
            shuffle(seeded(), members)
            return _greedy_insert(g, q, members)
        rest ^= low
    return q


def adversarial_clique_answer(
    g: Graph, desc: AdversarialFamilyDesc, q: VertexSet
) -> VertexSet:
    """Answer revealing as little as possible about the hidden clique.

    Returns Q \\ U when that is already maximal; otherwise adds the
    lowest-index clique vertex with no neighbour in Q \\ U. One of the two
    cases always applies for members of the described family.
    """
    if q.n != g.n or desc.n != g.n:
        raise ValueError("universe mismatch")
    umask = desc.clique.mask
    outside = VertexSet(g.n, q.mask & ~umask)
    if is_mis(g, q, outside):
        return outside
    for u in iter_bits(q.mask & umask):
        if not g.adjacency_mask(u) & outside.mask:
            return VertexSet(g.n, outside.mask | 1 << u)
    raise OracleError("graph is not a member of the described clique family")


class GreedyLexPolicy:
    """Greedy MIS in ascending vertex order (the lexicographically least MIS)."""

    # the answer depends only on (g, q), so run_scheme asks once per distinct q
    index_free = True

    def answer(self, g: Graph, q: VertexSet, index: int) -> VertexSet:
        return _greedy_insert(g, q, iter_bits(q.mask))


class GreedyOrderPolicy:
    index_free = True

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)

    def answer(self, g: Graph, q: VertexSet, index: int) -> VertexSet:
        return greedy_mis(g, q, self.order)


class RandomMisPolicy:
    """Greedy under a fresh random order per query, derived from (seed, index).

    Answers random_mis(g, q, derive_seed(seed, index)). One private generator
    is reseeded in place per query with an edge; the C-level seed leaves the
    state random.Random(seed) starts from, so no answer moves.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng: random.Random | None = None

    def answer(self, g: Graph, q: VertexSet, index: int) -> VertexSet:
        return _shuffled_greedy(g, q, lambda: self._reseeded(index))

    def _reseeded(self, index: int) -> random.Random:
        seed = derive_seed(self.seed, index)
        if self._rng is None:
            self._rng = random.Random(seed)
        else:
            _random.Random.seed(self._rng, seed)
        return self._rng


class AdversarialCliquePolicy:
    index_free = True

    def __init__(self, desc: AdversarialFamilyDesc):
        self.desc = desc

    def answer(self, g: Graph, q: VertexSet, index: int) -> VertexSet:
        return adversarial_clique_answer(g, self.desc, q)


def make_policy(
    kind: str,
    seed: int | None = None,
    desc: AdversarialFamilyDesc | None = None,
    order: Sequence[int] | None = None,
):
    if kind == "greedy-lex":
        return GreedyLexPolicy()
    if kind == "greedy-order":
        if order is None:
            raise ValueError("greedy-order policy needs an order")
        return GreedyOrderPolicy(order)
    if kind == "random":
        if seed is None:
            raise ValueError("random policy needs a seed")
        return RandomMisPolicy(seed)
    if kind == "adversarial-clique":
        if desc is None:
            raise ValueError("adversarial-clique policy needs a family descriptor")
        return AdversarialCliquePolicy(desc)
    raise ValueError(f"unknown policy kind: {kind}")


@dataclass(frozen=True)
class Transcript:
    """Ordered (query, answer) pairs produced by one oracle run."""

    n: int
    entries: tuple[tuple[VertexSet, VertexSet], ...]

    def __post_init__(self):
        n = self.n
        for q, a in self.entries:
            if q.n != n or a.n != n:
                raise ValueError("entry universe mismatch")
            if a.mask & ~q.mask:
                raise ValueError("answer not contained in its query")

    def __len__(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        lines = [
            json.dumps({"query": list(q.members()), "answer": list(a.members())})
            for q, a in self.entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, n: int, text: str) -> "Transcript":
        entries = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                q = VertexSet.from_members(n, rec["query"])
                a = VertexSet.from_members(n, rec["answer"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"bad transcript line: {ln!r}") from exc
            entries.append((q, a))
        return cls(n, tuple(entries))


def run_scheme(g: Graph, scheme, policy) -> Transcript:
    """Answer every query of the scheme in order under the given policy.

    Every recorded answer is checked with is_mis; a policy that breaks the
    MIS contract raises OracleError at the first index where it does. The
    check runs once per distinct (query, answer) pair. A policy whose class
    sets `index_free = True` answers from (g, q) alone and is asked once per
    distinct query; any other policy is asked about every index.
    """
    if scheme.n != g.n:
        raise ValueError("scheme universe does not match graph")
    answers = {} if getattr(policy, "index_free", False) else None
    verified = set()
    entries = []
    for index, q in enumerate(scheme.queries):
        if answers is None:
            a = policy.answer(g, q, index)
        else:
            a = answers.get(q.mask)
            if a is None:
                a = answers[q.mask] = policy.answer(g, q, index)
        # an answer outside g's universe is refused by Transcript below
        key = (q.mask, a.mask)
        if key not in verified:
            if not is_mis(g, q, a):
                raise OracleError(f"policy answer for query {index} is not an MIS")
            verified.add(key)
        entries.append((q, a))
    return Transcript(g.n, tuple(entries))
