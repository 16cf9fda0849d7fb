"""Maximal-independent-set oracles and query transcripts.

A query submits a vertex set Q and receives some maximal independent set of
the subgraph induced by Q. Which MIS comes back is the oracle's choice; the
policies here cover the spread used by the experiments: greedy over a fixed
or random vertex order, and the hidden-clique adversary that reveals at most
one clique vertex per query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import AdversarialFamilyDesc, Graph
from .util import (
    bits_to_masks, iter_bits, keyed_ranks, mask_from_members, masks_to_bits, member_tuple,
    transpose_masks,
)


class OracleError(RuntimeError):
    """A policy produced an answer that is not an MIS of the induced subgraph."""


def _check_query(n: int, q: int) -> None:
    """ValueError unless the mask q is a set of vertices 0..n-1."""
    if q < 0 or q >> n:
        raise ValueError(f"query mask {q} outside vertices 0..{n - 1}")


def is_mis(g: Graph, q: int, i: int) -> bool:
    """True iff the mask i lies in the query q, is independent in g, and
    every vertex of q\\i has a neighbour in i."""
    _check_query(g.n, q)
    # adjacency is symmetric, so i is independent iff no member lies in the
    # union of its neighbourhoods, and maximal iff that union covers q \ i
    adj = g.adjacency_masks
    covered = 0
    rest = i & q  # i & ~q, perhaps outside 0..n-1, refuses i in the return
    while rest:  # iter_bits inlined: this runs once per oracle answer
        low = rest & -rest
        covered |= adj[low.bit_length() - 1]
        rest ^= low
    return not i & ~q and not covered & i and not q & ~i & ~covered


def _greedy_insert(adj: tuple[int, ...], members: Iterable[int]) -> int:
    """Greedy MIS over members, an order of a checked query's vertices: each
    joins unless a chosen vertex is its neighbour."""
    mis = 0
    for v in members:
        if not adj[v] & mis:
            mis |= 1 << v
    return mis


class GreedyLexPolicy:
    """Greedy MIS in ascending vertex order (the lexicographically least MIS)."""

    # the answer depends only on (g, q), so run_scheme asks once per distinct q
    index_free = True

    def answer(self, g: Graph, q: int, index: int) -> int:
        _check_query(g.n, q)
        return _greedy_insert(g.adjacency_masks, iter_bits(q))


class GreedyOrderPolicy:
    """Greedy MIS over a fixed order, a permutation of 0..n-1; vertices
    outside the query are skipped."""

    index_free = True

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)

    def answer(self, g: Graph, q: int, index: int) -> int:
        _check_query(g.n, q)
        return _greedy_insert(g.adjacency_masks, [v for v in self.order if q >> v & 1])


# query x vertex cells RandomMisPolicy.answers takes at a time, which bound
# its temporaries: on a 3391-query scheme at n=200, Δ=8 its traced peak is
# about 0.6 MB in blocks and about 7 MB in one piece
_ANSWER_CELLS = 2**15


class RandomMisPolicy:
    """Greedy under a fresh random order per query, keyed by (seed, index).

    An edgeless G[Q] has Q as its only MIS and hashes nothing. Any other
    query takes |Q| words of keyed_ranks keyed by (seed, index), gives its
    t-th least member word t as its rank, and answers the greedy MIS over
    the members in ascending (rank, vertex) order. Greedy over i.i.d. random
    priorities is greedy over a uniform random order (Blelloch, Fineman &
    Shun, SPAA 2012).

    answers runs that greedy in rounds over the edges of G[Q]. An edge with
    ends u < v points from u to v when rank u <= rank v, else from v to u:
    from its end that comes first in (rank, vertex) order. In a round, each
    undecided vertex that is not the later end of an edge between undecided
    vertices joins, and the later end of each of its edges drops out. The
    sequential greedy does the same: every neighbour before such a vertex
    is decided and out, as a joined one would have dropped it, so greedy
    takes it; a vertex with an undecided neighbour before it waits for that
    one. A round decides the first undecided vertex of every query, so the
    rounds end, and the vertices still undecided once no edge is left have
    no undecided or joined neighbour, so they join.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def answer(self, g: Graph, q: int, index: int) -> int:
        return self.answers(g, (q,), index)[0]

    def answers(self, g: Graph, masks: Sequence[int], start: int = 0) -> list[int]:
        """The answer to each masks[i] at index start + i, _ANSWER_CELLS
        query x vertex cells at a time."""
        n = g.n
        for q in masks:
            if q < 0 or q >> n:
                _check_query(n, q)
        # each edge once, as its ends u < v
        eu, ev = np.nonzero(np.triu(masks_to_bits(g.adjacency_masks, n), 1))
        if not eu.size:
            return list(masks)
        rows = max(1, _ANSWER_CELLS // max(n, 1))
        out = []
        for low in range(0, len(masks), rows):
            out += self._block(masks[low : low + rows], start + low, n, eu, ev)
        return out

    def _block(self, masks, start, n, eu, ev) -> list[int]:
        """The answers to a block of queries, the first at index start; the
        edges are eu[k] < ev[k]."""
        width = len(masks)
        # member[v, i]: vertex v is in query i; cell v * width + i of the flat view
        member = np.ascontiguousarray(masks_to_bits(masks, n).T).view(bool)
        # the (edge, query) pairs of the edges inside each query
        inner = member[eu] & member[ev]
        ei, qi = np.divmod(np.flatnonzero(inner), width)
        if not qi.size:
            return list(masks)
        # below[v, i]: the members of query i up to v, so below[-1] is |Q_i|
        below = np.cumsum(member, axis=0, dtype=np.int32)
        hashed = np.flatnonzero(inner.any(axis=0))
        sizes = below[-1, hashed]
        ranks = keyed_ranks(self.seed, [start + i for i in hashed.tolist()], sizes.tolist())
        # query i's stream starts at first[i], and member v's word follows the
        # members before it
        first = np.zeros(width, np.int64)
        first[hashed] = np.cumsum(sizes) - sizes
        u, v = eu[ei], ev[ei]
        base = first[qi] - 1
        u_first = ranks[base + below[u, qi]] <= ranks[base + below[v, qi]]
        early = np.where(u_first, u, v) * width + qi
        late = np.where(u_first, v, u) * width + qi
        dropped = np.zeros(member.size, bool)
        while early.size:
            is_late = np.zeros(member.size, bool)
            is_late[late] = True
            dropped[late[~is_late[early]]] = True
            live = ~(dropped[early] | dropped[late])
            early, late = early[live], late[live]
        member[dropped.reshape(member.shape)] = False
        return bits_to_masks(member.T)


class AdversarialCliquePolicy:
    """Answer revealing as little as possible about the hidden clique U.

    Returns Q \\ U plus the lowest-index clique vertex with no neighbour in
    Q \\ U, if there is one. On a member of the described family that is an
    MIS; run_scheme's check refuses any answer that is not.
    """

    index_free = True

    def __init__(self, desc: AdversarialFamilyDesc):
        self.desc = desc

    def answer(self, g: Graph, q: int, index: int) -> int:
        if self.desc.n != g.n:
            raise ValueError("family descriptor does not match the graph's vertices")
        _check_query(g.n, q)
        outside = q & ~self.desc.clique
        adj = g.adjacency_masks
        for u in iter_bits(q & self.desc.clique):
            if not adj[u] & outside:
                return outside | 1 << u
        return outside


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
    def entries(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Each pair's query and answer members in ascending order, built from
        the masks on each access."""
        return tuple((member_tuple(q), member_tuple(a)) for q, a in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def lines(self) -> Iterator[str]:
        """The newline-terminated JSON line of each pair, made one at a time."""
        for q, a in self.masks:
            pair = {"query": list(iter_bits(q)), "answer": list(iter_bits(a))}
            yield json.dumps(pair) + "\n"

    def to_text(self) -> str:
        return "".join(self.lines())

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
                pair = (mask_from_members(n, q), mask_from_members(n, a))
                if pair[1] & ~pair[0]:
                    raise ValueError("answer not contained in its query")
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"bad transcript line: {ln!r} ({exc})") from exc
            pairs.append(pair)
        return cls(n, tuple(pairs))


# pair x vertex cells _non_mis_pairs takes at a time, which bound its
# temporaries: a 3391-query scheme at n=200 is one chunk, whose traced peak
# is about 1.6 MB
_CHECK_CELLS = 2**20


def _non_mis_pairs(g: Graph, pairs: Sequence[tuple[int, int]]) -> int:
    """The mask of the indices k whose pairs[k] = (q, a) is no MIS pair: a
    vertex of q or a lies outside 0..n-1, a leaves q, a is not independent,
    or a vertex of q \\ a has no neighbour in a.

    The pairs are checked _CHECK_CELLS pair x vertex cells at a time, by
    vertex columns: bit k of qcol[v] and acol[v] says whether v is in the
    k-th query and answer, and the OR of the answer columns of v's
    neighbours says which answers cover v.
    """
    n = g.n
    adj = g.adjacency_masks
    rows = max(1, _CHECK_CELLS // max(n, 1))
    bad = 0
    for low in range(0, len(pairs), rows):
        chunk = pairs[low : low + rows]
        # the columns hold only vertices 0..n-1
        flags = sum([1 << k for k, (q, a) in enumerate(chunk) if (q | a) >> n])
        queries, answers = zip(*chunk)
        qcol = transpose_masks(queries, n)
        acol = transpose_masks(answers, n)
        for v in range(n):
            covered = 0
            for u in iter_bits(adj[v]):
                covered |= acol[u]
            flags |= acol[v] & (covered | ~qcol[v]) | qcol[v] & ~acol[v] & ~covered
        bad |= flags << low
    return bad


def run_scheme(g: Graph, scheme, policy) -> Transcript:
    """Answer every query of the scheme in order under the given policy.

    Every recorded answer is checked once per distinct (query, answer) pair,
    and a policy that breaks the MIS contract, by an answer that leaves its
    query too, raises OracleError at the first index where it does. A
    policy whose class sets `index_free = True` answers from (g, q) alone
    and is asked once per distinct query, at its first index, and each
    answer is checked with is_mis. Any other policy answers every index in
    one answers(g, masks) call, and the run is checked in one pass of
    _non_mis_pairs.
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
    answers = policy.answers(g, masks)
    if len(answers) != len(masks):
        raise OracleError(f"policy gave {len(answers)} answers to {len(masks)} queries")
    pairs = tuple(zip(masks, answers))
    distinct = list(dict.fromkeys(pairs))
    bad = _non_mis_pairs(g, distinct)
    if bad:
        pair = distinct[(bad & -bad).bit_length() - 1]
        raise OracleError(f"policy answer for query {pairs.index(pair)} is not an MIS")
    return Transcript(g.n, pairs)
