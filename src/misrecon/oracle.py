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


def _check_query(n: int, q: int) -> None:
    """ValueError unless the mask q is a set of vertices 0..n-1."""
    if q < 0 or q >> n:
        raise ValueError(f"query mask {q} outside vertices 0..{n - 1}")


def is_mis(g: Graph, q: int, i: int) -> bool:
    """True iff the mask i is independent in g and every vertex of q\\i has a
    neighbour in i."""
    _check_query(g.n, q)
    if i & ~q:
        raise ValueError("candidate set must be contained in the query")
    # adjacency is symmetric, so i is independent iff no member lies in the
    # union of its neighbourhoods, and maximal iff that union covers q \ i
    adj = g.adjacency_masks
    covered = 0
    rest = i
    while rest:  # iter_bits inlined: this runs once per oracle answer
        low = rest & -rest
        covered |= adj[low.bit_length() - 1]
        rest ^= low
    return not covered & i and not q & ~i & ~covered


def greedy_mis(g: Graph, q: int, order: Sequence[int]) -> int:
    """Scan q in the given vertex order, adding a vertex iff no chosen neighbour.

    `order` is a permutation of 0..n-1 (vertices outside q are skipped).
    """
    _check_query(g.n, q)
    return _greedy_insert(g.adjacency_masks, [v for v in order if q >> v & 1])


def _greedy_insert(adj: tuple[int, ...], members: Iterable[int]) -> int:
    """greedy_mis over an order that holds only members of a checked query."""
    mis = 0
    for v in members:
        if not adj[v] & mis:
            mis |= 1 << v
    return mis


def random_mis(g: Graph, q: int, seed: int) -> int:
    """Greedy MIS under a uniformly random permutation of q derived from seed.

    An edgeless G[Q] has Q as its only MIS, so it is answered without seeding
    a generator; each query's generator is private, so no other answer moves.
    """
    _check_query(g.n, q)
    return _shuffled_greedy(g.adjacency_masks, q, random.Random, seed)


def _shuffled_greedy(
    adj: tuple[int, ...], q: int, seeded: Callable[[int], random.Random], key: int
) -> int:
    """Q if G[Q] is edgeless, else greedy over the members of the checked
    query q, shuffled by the generator seeded(key)."""
    # iter_bits inlined twice: most queries of an exhaustive sweep end in
    # the first loop, and every random-MIS answer passes through here
    rest = q
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & q:
            break
        rest ^= low
    else:
        return q
    members = []
    rest = q
    while rest:
        low = rest & -rest
        members.append(low.bit_length() - 1)
        rest ^= low
    shuffle(seeded(key), members)
    return _greedy_insert(adj, members)


def adversarial_clique_answer(g: Graph, desc: AdversarialFamilyDesc, q: int) -> int:
    """Answer revealing as little as possible about the hidden clique.

    Returns Q \\ U when that is already maximal; otherwise adds the
    lowest-index clique vertex with no neighbour in Q \\ U. One of the two
    cases always applies for members of the described family.
    """
    if desc.n != g.n:
        raise ValueError("family descriptor does not match the graph's vertices")
    outside = q & ~desc.clique
    if is_mis(g, q, outside):
        return outside
    for u in iter_bits(q & desc.clique):
        if not g.adjacency_mask(u) & outside:
            return outside | 1 << u
    raise OracleError("graph is not a member of the described clique family")


class GreedyLexPolicy:
    """Greedy MIS in ascending vertex order (the lexicographically least MIS)."""

    # the answer depends only on (g, q), so run_scheme asks once per distinct q
    index_free = True

    def answer(self, g: Graph, q: int, index: int) -> int:
        _check_query(g.n, q)
        return _greedy_insert(g.adjacency_masks, iter_bits(q))


class GreedyOrderPolicy:
    index_free = True

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)

    def answer(self, g: Graph, q: int, index: int) -> int:
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

    def answer(self, g: Graph, q: int, index: int) -> int:
        _check_query(g.n, q)
        return _shuffled_greedy(g.adjacency_masks, q, self._reseeded, index)

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

    def answer(self, g: Graph, q: int, index: int) -> int:
        return adversarial_clique_answer(g, self.desc, q)


def make_policy(kind: str, seed: int | None = None):
    """The policy behind a CLI --policy token: greedy-lex, or random with a seed."""
    if kind == "greedy-lex":
        return GreedyLexPolicy()
    if kind == "random":
        if seed is None:
            raise ValueError("random policy needs a seed")
        return RandomMisPolicy(seed)
    raise ValueError(f"unknown policy kind: {kind}")


@dataclass(frozen=True)
class Transcript:
    """Ordered (query, answer) mask pairs produced by one oracle run."""

    n: int
    masks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # a scheme repeats queries, so each distinct pair is checked once
        for q, a in dict.fromkeys(self.masks):
            _check_query(self.n, q)
            if a & ~q:
                raise ValueError("answer not contained in its query")

    @property
    def entries(self) -> tuple[tuple[VertexSet, VertexSet], ...]:
        """The pairs as VertexSets, built from the masks on each access."""
        n = self.n
        return tuple((VertexSet(n, q), VertexSet(n, a)) for q, a in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def to_text(self) -> str:
        lines = [
            json.dumps({"query": list(iter_bits(q)), "answer": list(iter_bits(a))})
            for q, a in self.masks
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, n: int, text: str) -> "Transcript":
        pairs = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            try:
                rec = json.loads(ln)
                q, a = rec["query"], rec["answer"]
                # bool is an int subclass, and JSON true must not read as vertex 1
                if not all(type(v) is int for v in (*q, *a)):
                    raise TypeError("transcript members must be integers")
                pair = tuple(VertexSet.from_members(n, s).mask for s in (q, a))
                if pair[1] & ~pair[0]:
                    raise ValueError("answer not contained in its query")
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"bad transcript line: {ln!r} ({exc})") from exc
            pairs.append(pair)
        return cls(n, tuple(pairs))


def run_scheme(g: Graph, scheme, policy) -> Transcript:
    """Answer every query of the scheme in order under the given policy.

    Every recorded answer is checked with is_mis; a policy that breaks the
    MIS contract raises OracleError at the first index where it does. The
    check runs once per distinct (query, answer) pair. A policy whose class
    sets `index_free = True` answers from (g, q) alone and is asked once per
    distinct query, at its first index; any other policy is asked about
    every index.
    """
    if scheme.n != g.n:
        raise ValueError("scheme universe does not match graph")
    masks = scheme.masks
    if getattr(policy, "index_free", False):
        answers = {}
        for index, q in enumerate(masks):
            if q not in answers:
                a = answers[q] = policy.answer(g, q, index)
                if not is_mis(g, q, a):
                    raise OracleError(f"policy answer for query {index} is not an MIS")
        return Transcript(g.n, tuple([(q, answers[q]) for q in masks]))
    verified = set()
    pairs = []
    for index, q in enumerate(masks):
        key = (q, policy.answer(g, q, index))
        if key not in verified:
            if not is_mis(g, q, key[1]):
                raise OracleError(f"policy answer for query {index} is not an MIS")
            verified.add(key)
        pairs.append(key)
    return Transcript(g.n, tuple(pairs))
