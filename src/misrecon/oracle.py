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
from functools import cached_property
from typing import Iterator, Sequence

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
    if q < 0 or q >> g.n:
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


# query x vertex cells _greedy_answers takes at a time, which bound its
# temporaries: on a 3391-query scheme at n=200, Δ=8 its traced peak is
# about 0.75 MB in blocks and 6-7 MB in one piece
_ANSWER_CELLS = 2**15


def _greedy_answers(g: Graph, masks: Sequence[int], start: int, first) -> list[int]:
    """The greedy MIS of G[Q] for each Q = masks[i] over the vertex order of
    the query at index start + i, _ANSWER_CELLS query x vertex cells at a
    time. Per block, first(u, v, qi, member, edged, start) says for each
    edge u < v inside query qi whether u comes first in qi's order, where
    member[w, i] says whether vertex w is in query i, edged lists the
    queries with an edge inside, and start is the block's first index. A
    query with no edge inside answers with its own mask, its only MIS.

    The greedy runs in rounds over the edges inside each query, each
    pointed from its end that comes first. In a round, each undecided
    vertex that is not the later end of an edge between undecided vertices
    joins, and the later end of each of its edges drops out. The sequential
    greedy does the same: every neighbour before such a vertex is decided
    and out, as a joined one would have dropped it, so greedy takes it; a
    vertex with an undecided neighbour before it waits for that one. A
    round decides the first undecided vertex of every query, so the rounds
    end, and the vertices still undecided once no edge is left have no
    undecided or joined neighbour, so they join.
    """
    n = g.n
    for q in masks:
        if q < 0 or q >> n:
            _check_query(n, q)
    # each edge once, as its ends u < v: the bits of u's mask above u
    upper = [a >> u + 1 << u + 1 for u, a in enumerate(g.adjacency_masks)]
    eu, ev = np.nonzero(masks_to_bits(upper, n))
    out = list(masks)
    rows = max(1, _ANSWER_CELLS // max(n, 1))
    for low in range(0, len(masks), rows):
        width = min(rows, len(masks) - low)
        # member[w, i]: vertex w is in query i; cell w * width + i of the flat view
        member = np.ascontiguousarray(masks_to_bits(masks[low : low + rows], n).T).view(bool)
        # the (edge, query) pairs of the edges inside each query
        ei, qi = np.divmod(np.flatnonzero(member[eu] & member[ev]), width)
        if not qi.size:
            continue
        edged = np.flatnonzero(np.bincount(qi, minlength=width))
        u, v = eu[ei], ev[ei]
        u_first = first(u, v, qi, member, edged, start + low)
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
        for i, a in zip(edged.tolist(), bits_to_masks(member[:, edged].T)):
            out[low + i] = a
    return out


class GreedyLexPolicy:
    """Greedy MIS in ascending vertex order (the lexicographically least MIS)."""

    # the answer depends only on (g, q), so run_scheme asks once per distinct q
    index_free = True

    def answer(self, g: Graph, q: int, index: int) -> int:
        return self.answers(g, (q,), index)[0]

    def answers(self, g: Graph, masks: Sequence[int], start: int = 0) -> list[int]:
        return _greedy_answers(g, masks, start, lambda *_: True)  # u < v comes first


class GreedyOrderPolicy:
    """Greedy MIS over a fixed order, a permutation of 0..n-1; vertices
    outside the query are skipped."""

    index_free = True

    def __init__(self, order: Sequence[int]):
        self.order = tuple(order)

    def answer(self, g: Graph, q: int, index: int) -> int:
        return self.answers(g, (q,), index)[0]

    def answers(self, g: Graph, masks: Sequence[int], start: int = 0) -> list[int]:
        if sorted(self.order) != list(range(g.n)):
            raise ValueError(f"order is not a permutation of 0..{g.n - 1}")
        place = np.argsort(self.order)  # place[v]: v's position in the order
        return _greedy_answers(g, masks, start, lambda u, v, *_: place[u] < place[v])


class RandomMisPolicy:
    """Greedy under a fresh random order per query, keyed by (seed, index).

    A query with an edge inside takes |Q| words of keyed_ranks keyed by
    (seed, index), gives its t-th least member word t as its rank, and
    orders its members by (rank, vertex); an edgeless G[Q] hashes nothing.
    Greedy over i.i.d. random priorities is greedy over a uniform random
    order (Blelloch, Fineman & Shun, SPAA 2012).
    """

    def __init__(self, seed: int):
        self.seed = seed

    def answer(self, g: Graph, q: int, index: int) -> int:
        return self.answers(g, (q,), index)[0]

    def answers(self, g: Graph, masks: Sequence[int], start: int = 0) -> list[int]:
        return _greedy_answers(g, masks, start, self._first)

    def _first(self, u, v, qi, member, edged, start):
        # below[w, i]: the members of query i up to w, so below[-1] is |Q_i|
        below = np.cumsum(member, axis=0, dtype=np.int32)
        sizes = below[-1, edged]
        ranks = keyed_ranks(self.seed, [start + i for i in edged.tolist()], sizes.tolist())
        # query i's words start at offset[i], one per member in ascending order
        offset = np.zeros(member.shape[1], np.int64)
        offset[edged] = np.cumsum(sizes) - sizes
        base = offset[qi] - 1
        return ranks[base + below[u, qi]] <= ranks[base + below[v, qi]]


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
        return self.answers(g, (q,), index)[0]

    def answers(self, g: Graph, masks: Sequence[int], start: int = 0) -> list[int]:
        if self.desc.n != g.n:
            raise ValueError("family descriptor does not match the graph's vertices")
        adj, clique = g.adjacency_masks, self.desc.clique
        out = []
        for q in masks:
            _check_query(g.n, q)
            outside = q & ~clique
            for u in iter_bits(q & clique):
                if not adj[u] & outside:
                    outside |= 1 << u
                    break
            out.append(outside)
        return out


def make_policy(kind: str, seed: int | None = None):
    """The policy behind a CLI --policy token: greedy-lex, or random with a seed."""
    if kind == "greedy-lex":
        return GreedyLexPolicy()
    if kind == "random":
        if seed is None:
            raise ValueError("random policy needs a seed")
        return RandomMisPolicy(seed)
    raise ValueError(f"unknown policy kind: {kind}")


# pair x vertex cells that Transcript._columns transposes at a time, which
# bound its temporaries: a 3391-query scheme at n=200, and a 1946-query one
# at n=2000, is one block
_CHECK_CELLS = 2**23


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

    @classmethod
    def _from_checked(cls, n: int, masks: tuple[tuple[int, int], ...]) -> "Transcript":
        """The transcript of masks without __post_init__'s check. from_text
        calls it after refusing each bad line, and run_scheme returns its
        transcript only once _non_mis_pairs has passed every pair; so in
        every transcript either returns, each query lies in 0..n-1 and holds
        its answer."""
        t = cls.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "masks", masks)
        return t

    @cached_property
    def _columns(self) -> tuple[list[tuple[int, int]], list[int], list[int]]:
        """(pairs, qcol, acol): the distinct pairs in first-index order, and
        bit k of qcol[v] and acol[v] says whether vertex v < n is in the query
        and the answer of pairs[k]. Built on first use, _CHECK_CELLS pair x
        vertex cells at a time; not a field, so no part of equality."""
        n = self.n
        pairs = list(dict.fromkeys(self.masks))
        qcol, acol = [0] * n, [0] * n
        rows = max(1, _CHECK_CELLS // max(n, 1))
        for low in range(0, len(pairs), rows):
            queries, answers = zip(*pairs[low : low + rows])
            for col, block in ((qcol, queries), (acol, answers)):
                for v, bits in enumerate(transpose_masks(block, n)):
                    col[v] |= bits << low
        return pairs, qcol, acol

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
        return cls._from_checked(n, tuple(pairs))


def _non_mis_pairs(g: Graph, transcript: Transcript) -> int:
    """The mask of the indices k whose pairs[k] = (q, a), of the distinct
    pairs in transcript._columns, is no MIS pair: a vertex of q or a lies
    outside 0..n-1, a leaves q, a is not independent, or a vertex of q \\ a
    has no neighbour in a.

    The OR of the answer columns of v's neighbours says which answers cover v.
    """
    n = g.n
    adj = g.adjacency_masks
    pairs, qcol, acol = transcript._columns
    # the columns hold only vertices 0..n-1
    bad = sum([1 << k for k, (q, a) in enumerate(pairs) if (q | a) >> n])
    for v in range(n):
        covered = 0
        for u in iter_bits(adj[v]):
            covered |= acol[u]
        bad |= acol[v] & (covered | ~qcol[v]) | qcol[v] & ~acol[v] & ~covered
    return bad


def run_scheme(g: Graph, scheme, policy) -> Transcript:
    """Answer every query of the scheme in order in one policy.answers call.

    Every recorded answer is checked once per distinct (query, answer) pair,
    and a policy that breaks the MIS contract, by an answer that leaves its
    query too, raises OracleError at the first index where it does. A
    policy whose class sets `index_free = True` answers from (g, q) alone:
    it is asked about the distinct queries in order of first index, and
    is_mis checks each answer. Any other policy is asked about every query,
    and one pass of _non_mis_pairs over the transcript's vertex columns,
    which decode reads again, checks the run. An MIS pair's query lies in
    0..n-1 and holds its answer, so the transcript skips Transcript's check.
    """
    if scheme.n != g.n:
        raise ValueError("scheme universe does not match graph")
    masks = scheme.masks
    index_free = getattr(policy, "index_free", False)
    asked = list(dict.fromkeys(masks)) if index_free else masks
    answers = policy.answers(g, asked)
    if len(answers) != len(asked):
        raise OracleError(f"policy gave {len(answers)} answers to {len(asked)} queries")
    if index_free:
        memo = dict(zip(asked, answers))
        for q, a in memo.items():
            if not is_mis(g, q, a):
                raise OracleError(f"policy answer for query {masks.index(q)} is not an MIS")
        return Transcript._from_checked(g.n, tuple([(q, memo[q]) for q in masks]))
    transcript = Transcript._from_checked(g.n, tuple(zip(masks, answers)))
    bad = _non_mis_pairs(g, transcript)
    if bad:
        pairs = transcript.masks
        pair = list(dict.fromkeys(pairs))[(bad & -bad).bit_length() - 1]
        raise OracleError(f"policy answer for query {pairs.index(pair)} is not an MIS")
    return transcript
