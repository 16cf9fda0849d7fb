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

import numpy as np

from .graphs import (
    Graph, check_vertex_pair_cap, pairs_from_lines, pairs_to_text, read_graph_lines,
)
from .oracle import Transcript, is_mis, run_scheme
from .schemes import QueryScheme
from .util import derive_seed, masks_to_bits, rate_stderr, run_seeded_trials


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
    over graphs.VERTEX_PAIR_CAP pairs."""
    if transcript.n != n:
        raise ValueError("transcript universe mismatch")
    check_vertex_pair_cap(n)
    # co-occurrence is a union over masks, so each distinct mask is unpacked
    # once; a scheme repeats queries, so the pairs are deduped first
    pairs = dict.fromkeys(transcript.masks)
    queried = _co_occurs(n, list(dict.fromkeys(q for q, _ in pairs)))
    answered = _co_occurs(n, list(dict.fromkeys(a for _, a in pairs)))
    # a co-answered pair is a certified non-edge; of the other pairs u < v,
    # the co-queried ones are edges and the rest stay unknown
    open_pairs = np.triu(~answered, 1)
    return DecodeResult(
        n, _pairs(open_pairs & queried), _pairs(open_pairs & ~queried)
    )


def _pairs(upper: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (u, v) with upper[u, v] set, in ascending (u, v) order."""
    us, vs = np.nonzero(upper)
    return tuple(zip(us.tolist(), vs.tolist()))


# mask rows unpacked per Gram block, which bounds the temporaries of decode
_GRAM_ROWS = 512


def _co_occurs(n: int, masks: list[int]) -> np.ndarray:
    """n x n booleans: [u, v] is set iff some mask holds both u and v.

    The masks are unpacked into 0/1 rows B and the Gram matrix B.T @ B is
    summed block by block in float32. Every term is >= 0, so a sum is
    positive exactly when one of its terms is, however it rounds.
    """
    gram = np.zeros((n, n), dtype=np.float32)
    for start in range(0, len(masks), _GRAM_ROWS):
        rows = masks_to_bits(masks[start : start + _GRAM_ROWS], n).astype(np.float32)
        gram += rows.T @ rows
    return gram > 0


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
