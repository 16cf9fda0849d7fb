"""Decode transcripts into graphs and measure end-to-end success rates.

The decoding rule is evidence-based and policy-agnostic: a pair co-present
in some answer is a certified non-edge (answers are independent sets); a
pair co-queried but never co-answered is declared an edge; a pair never
co-queried stays unknown. The rule never produces a false non-edge, and it
is complete whenever the scheme's dual is (2, 2*delta)-cover-free: some
query then isolates each non-adjacent pair from its neighbourhoods, forcing
both endpoints into every MIS answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import (
    Graph, check_vertex_pair_cap, pairs_from_lines, pairs_to_text, read_graph_lines,
)
from .oracle import Transcript, is_mis, run_scheme
from .schemes import QueryScheme
from .util import derive_seed, rate_stderr, run_seeded_trials


@dataclass(frozen=True)
class DecodeResult:
    n: int
    edges: tuple[tuple[int, int], ...]
    unknown_pairs: tuple[tuple[int, int], ...]

    @property
    def complete(self) -> bool:
        return not self.unknown_pairs

    @property
    def graph(self) -> Graph | None:
        """The decoded graph, or None while pairs remain unknown."""
        if not self.complete:
            return None
        return Graph(self.n, self.edges)

    def matches(self, g: Graph, unknown_as_nonedge: bool = False) -> bool:
        """True iff the decoded edges are exactly g's and no pair is unknown,
        or, with unknown_as_nonedge, the unknown pairs are g's non-edges."""
        return (self.complete or unknown_as_nonedge) and Graph(self.n, self.edges) == g


def decode(n: int, transcript: Transcript) -> DecodeResult:
    """Classify every unordered pair from the transcript evidence; refused
    over graphs.VERTEX_PAIR_CAP pairs.

    Co-occurrence is read off the transcript's vertex columns: u and v
    share an answer iff acol[u] & acol[v], and a query iff qcol[u] & qcol[v].
    A co-answered pair is a certified non-edge; of the other pairs u < v,
    the co-queried ones are edges and the rest stay unknown.
    """
    if transcript.n != n:
        raise ValueError("transcript universe mismatch")
    check_vertex_pair_cap(n)
    _, qcol, acol = transcript._columns
    edges, unknown = [], []
    for u in range(n):
        au, qu = acol[u], qcol[u]
        for v in [v for v in range(u + 1, n) if not au & acol[v]]:
            (edges if qu & qcol[v] else unknown).append((u, v))
    return DecodeResult(n, tuple(edges), tuple(unknown))


def consistency_check(g_hat: Graph, transcript: Transcript) -> bool:
    """True iff every transcript answer is an MIS of g_hat restricted to its query."""
    if transcript.n != g_hat.n:
        raise ValueError("transcript universe does not match graph")
    return all(is_mis(g_hat, q, a) for q, a in transcript.masks)


def decode_result_to_text(result: DecodeResult) -> str:
    """The graph format for the decided edges, then `unknown k` and k pair lines."""
    return (
        f"{result.n} {len(result.edges)}\n" + pairs_to_text(result.edges)
        + f"unknown {len(result.unknown_pairs)}\n" + pairs_to_text(result.unknown_pairs)
    )


def decode_result_from_text(text: str) -> DecodeResult:
    """Parse the decode_result_to_text format; ValueError on any defect. The
    lines before the first `unknown` line are read as a graph file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    at = next((i for i, ln in enumerate(lines) if ln.split()[0] == "unknown"), None)
    if at is None:
        raise ValueError("expected the edge lines, then an 'unknown <count>' line")
    n, edges = read_graph_lines(lines[:at])
    try:
        _, k = lines[at].split()
        k = int(k)
    except ValueError as exc:
        raise ValueError(f"bad unknown-section line: {lines[at]!r}") from exc
    if k < 0 or len(lines) - at - 1 != k:
        raise ValueError(f"expected {k} unknown pairs, found {len(lines) - at - 1}")
    return DecodeResult(n, edges, pairs_from_lines(n, lines[at + 1 :], "unknown pair"))


@dataclass(frozen=True)
class SuccessReport:
    trials: int
    successes: int
    rate: float
    stderr: float


def success_rate(
    graph_gen: Callable[[int], Graph],
    scheme_gen: Callable[[int], QueryScheme],
    policy_gen: Callable[[int], object],
    trials: int,
    seed: int,
) -> SuccessReport:
    """Fraction of trials whose decoded graph equals the hidden truth.

    Each trial draws (graph, scheme, policy) from per-trial seeds derived
    from (seed, index); a trial succeeds only on an exact, complete match.
    """
    def trial(trial_seed: int) -> bool:
        g = graph_gen(derive_seed(trial_seed, 0))
        scheme = scheme_gen(derive_seed(trial_seed, 1))
        policy = policy_gen(derive_seed(trial_seed, 2))
        return decode(g.n, run_scheme(g, scheme, policy)).matches(g)

    outcomes = run_seeded_trials(trial, trials, seed)
    successes = sum(outcomes)
    rate, stderr = rate_stderr(successes, trials)
    return SuccessReport(trials=trials, successes=successes, rate=rate, stderr=stderr)
