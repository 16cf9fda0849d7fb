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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphs import Graph
from .oracle import Transcript, is_mis, run_scheme
from .schemes import QueryScheme
from .util import derive_seed, masks_to_bits, run_seeded_trials


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

    def as_graph(self, unknown_as_nonedge: bool = False) -> Graph:
        """Force a total graph, optionally treating unknown pairs as non-edges."""
        if not self.complete and not unknown_as_nonedge:
            raise ValueError(f"{len(self.unknown_pairs)} pairs are undecided")
        return Graph(self.n, self.edges)


def decode(n: int, transcript: Transcript) -> DecodeResult:
    """Classify every unordered pair from the transcript evidence."""
    if transcript.n != n:
        raise ValueError("transcript universe mismatch")
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
_GRAM_ROWS = 128


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
    """Graph text format for the decided edges, plus an `unknown` section."""
    lines = [f"{result.n} {len(result.edges)}"]
    lines.extend(f"{u} {v}" for u, v in result.edges)
    lines.append(f"unknown {len(result.unknown_pairs)}")
    lines.extend(f"{u} {v}" for u, v in result.unknown_pairs)
    return "\n".join(lines) + "\n"


def decode_result_from_text(text: str) -> DecodeResult:
    """Parse the decode_result_to_text format; ValueError on any defect."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty decode file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad decode header: {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ValueError(f"bad decode header: {lines[0]!r}")
    marker = lines[m + 1].split() if len(lines) > m + 1 else []
    if len(marker) != 2 or marker[0] != "unknown":
        raise ValueError(f"expected {m} edge lines, then an 'unknown <count>' line")
    try:
        k = int(marker[1])
    except ValueError as exc:
        raise ValueError(f"bad unknown-section line: {lines[m + 1]!r}") from exc
    if k < 0 or len(lines) - m - 2 != k:
        raise ValueError(f"expected {k} unknown pairs, found {len(lines) - m - 2}")
    edges = tuple(_parse_pair(n, ln) for ln in lines[1 : m + 1])
    unknown = tuple(_parse_pair(n, ln) for ln in lines[m + 2 :])
    return DecodeResult(n, edges, unknown)


def _parse_pair(n: int, line: str) -> tuple[int, int]:
    try:
        u, v = map(int, line.split())
    except ValueError as exc:
        raise ValueError(f"bad pair line: {line!r}") from exc
    if not 0 <= u < v < n:
        raise ValueError(f"pair line must satisfy 0 <= u < v < {n}: {line!r}")
    return u, v


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
    unknown_as_nonedge: bool = False,
) -> SuccessReport:
    """Fraction of trials whose decoded graph equals the hidden truth.

    Each trial draws (graph, scheme, policy) from per-trial seeds derived
    from (seed, index); a trial succeeds only on an exact, complete match
    (or exact match after forcing unknowns to non-edges when requested).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")

    def trial(trial_seed: int) -> bool:
        g = graph_gen(derive_seed(trial_seed, 0))
        scheme = scheme_gen(derive_seed(trial_seed, 1))
        policy = policy_gen(derive_seed(trial_seed, 2))
        transcript = run_scheme(g, scheme, policy)
        result = decode(g.n, transcript)
        if not result.complete and not unknown_as_nonedge:
            return False
        return result.as_graph(unknown_as_nonedge=True) == g

    outcomes = run_seeded_trials(trial, trials, seed)
    successes = sum(outcomes)
    rate = successes / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return SuccessReport(trials=trials, successes=successes, rate=rate, stderr=stderr)
