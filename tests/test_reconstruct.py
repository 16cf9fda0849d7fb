"""Transcript decoding, consistency checking, and success-rate estimation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misrecon.graphs import Graph, VertexSet, gen_bounded_degree
from misrecon.oracle import (
    GreedyLexPolicy,
    GreedyOrderPolicy,
    RandomMisPolicy,
    Transcript,
    run_scheme,
)
from misrecon.reconstruct import (
    DecodeResult,
    consistency_check,
    decode,
    decode_result_from_text,
    decode_result_to_text,
    success_rate,
)
from misrecon.schemes import QueryScheme, cff_scheme, random_queries


def pair_scheme(n):
    return QueryScheme(
        n,
        tuple(
            VertexSet.from_members(n, [u, v])
            for u in range(n)
            for v in range(u + 1, n)
        ),
    )


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestDecode:
    def test_empty_graph_decodes_empty(self):
        g = Graph.empty(5)
        transcript = run_scheme(g, pair_scheme(5), GreedyLexPolicy())
        result = decode(5, transcript)
        assert result.complete
        assert result.graph == g

    def test_single_edge_forced(self):
        g = Graph(2, [(0, 1)])
        scheme = QueryScheme(2, (VertexSet.full(2),))
        result = decode(2, run_scheme(g, scheme, GreedyLexPolicy()))
        assert result.graph == g

    def test_path_with_cff_scheme_and_random_oracle(self):
        g = path_graph(4)
        scheme = cff_scheme(4, 2, seed=3)
        result = decode(4, run_scheme(g, scheme, RandomMisPolicy(17)))
        assert result.complete
        assert result.graph == g

    def test_empty_transcript_all_unknown(self):
        result = decode(4, Transcript(4, ()))
        assert not result.complete
        assert len(result.unknown_pairs) == 6
        assert result.graph is None
        assert result.as_graph(unknown_as_nonedge=True) == Graph.empty(4)
        with pytest.raises(ValueError):
            result.as_graph()

    @pytest.mark.parametrize("seed", range(60))
    def test_nonedge_verdicts_are_sound(self, seed):
        rng = random.Random(seed)
        g = gen_bounded_degree(12, 3, 0.8, seed=seed)
        scheme = random_queries(12, rng.randint(1, 15), rng.uniform(0.2, 0.8), seed)
        transcript = run_scheme(g, scheme, RandomMisPolicy(seed + 1))
        result = decode(12, transcript)
        decided = set(result.edges) | set(result.unknown_pairs)
        for u in range(12):
            for v in range(u + 1, 12):
                if (u, v) not in decided:  # decoded non-edge
                    assert not g.has_edge(u, v)

    @pytest.mark.parametrize("seed", range(30))
    def test_evidence_monotone_under_prefix_extension(self, seed):
        # certified non-edges persist; a provisional edge verdict can only be
        # overturned by new co-answer evidence (to non-edge), never regress
        # to unknown
        rng = random.Random(seed)
        g = gen_bounded_degree(10, 3, 0.7, seed=seed)
        scheme = random_queries(10, 8, rng.uniform(0.3, 0.8), seed)
        transcript = run_scheme(g, scheme, GreedyLexPolicy())

        def verdicts(k):
            result = decode(10, Transcript(10, transcript.entries[:k]))
            table = {}
            for pair in result.edges:
                table[pair] = "edge"
            for pair in result.unknown_pairs:
                table[pair] = "unknown"
            return table

        previous = verdicts(0)
        for k in range(1, len(transcript) + 1):
            current = verdicts(k)
            for u in range(10):
                for v in range(u + 1, 10):
                    before = previous.get((u, v), "nonedge")
                    after = current.get((u, v), "nonedge")
                    if before == "nonedge":
                        assert after == "nonedge"
                    elif before == "edge":
                        assert after in ("edge", "nonedge")
            previous = current


class TestConsistencyCheck:
    def test_truth_is_consistent_with_own_transcript(self):
        g = gen_bounded_degree(8, 3, 0.7, seed=2)
        transcript = run_scheme(g, pair_scheme(8), GreedyLexPolicy())
        assert consistency_check(g, transcript)

    def test_flipping_a_co_answered_pair_breaks_consistency(self):
        g = path_graph(4)
        transcript = run_scheme(g, pair_scheme(4), GreedyLexPolicy())
        co_answered = next(
            (tuple(a.members()) for _, a in transcript.entries if len(a) == 2)
        )
        flipped = Graph(4, g.edges + (co_answered,))
        assert not consistency_check(flipped, transcript)

    @pytest.mark.parametrize("seed", range(200))
    def test_complete_decodes_always_consistent(self, seed):
        rng = random.Random(seed)
        g = gen_bounded_degree(9, 3, 0.8, seed=seed)
        scheme = random_queries(9, rng.randint(5, 25), rng.uniform(0.3, 0.9), seed)
        transcript = run_scheme(g, scheme, RandomMisPolicy(seed + 5))
        result = decode(9, transcript)
        if result.complete:
            assert consistency_check(result.graph, transcript)


class TestSuccessRate:
    def test_cff_scheme_always_exact(self):
        report = success_rate(
            graph_gen=lambda s: gen_bounded_degree(6, 2, 0.8, seed=s),
            scheme_gen=lambda s: cff_scheme(6, 2, seed=s),
            policy_gen=lambda s: RandomMisPolicy(s),
            trials=15,
            seed=40,
        )
        assert report.rate == 1.0
        assert report.stderr == 0.0

    def test_zero_query_scheme_without_completion(self):
        report = success_rate(
            graph_gen=lambda s: gen_bounded_degree(6, 2, 0.9, seed=s),
            scheme_gen=lambda s: QueryScheme(6, ()),
            policy_gen=lambda s: GreedyLexPolicy(),
            trials=20,
            seed=41,
        )
        assert report.rate == 0.0

    def test_zero_query_scheme_completed_counts_empty_truths(self):
        def graph_gen(s):
            return gen_bounded_degree(6, 2, 0.9, seed=s)

        report = success_rate(
            graph_gen=graph_gen,
            scheme_gen=lambda s: QueryScheme(6, ()),
            policy_gen=lambda s: GreedyLexPolicy(),
            trials=30,
            seed=42,
            unknown_as_nonedge=True,
        )
        # forcing unknowns to non-edges succeeds exactly on empty truths
        from misrecon.util import derive_seed

        empties = sum(
            graph_gen(derive_seed(derive_seed(42, i), 0)).num_edges == 0
            for i in range(30)
        )
        assert report.successes == empties
        assert report.rate < 1.0

    def test_mixed_policies_with_pair_scheme(self):
        report = success_rate(
            graph_gen=lambda s: gen_bounded_degree(7, 2, 0.8, seed=s),
            scheme_gen=lambda s: pair_scheme(7),
            policy_gen=lambda s: GreedyOrderPolicy(range(6, -1, -1)),
            trials=10,
            seed=44,
        )
        assert report.rate == 1.0


class TestDecodeResultFormat:
    def test_round_trip(self):
        result = DecodeResult(5, ((0, 1), (2, 3)), ((1, 4),))
        text = decode_result_to_text(result)
        assert decode_result_from_text(text) == result
        assert "unknown 1" in text

    def test_complete_result_has_empty_unknown_section(self):
        result = DecodeResult(3, ((0, 2),), ())
        assert decode_result_to_text(result).endswith("unknown 0\n")

    @settings(deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(0, 15))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        labels = data.draw(
            st.lists(st.sampled_from("enu"), min_size=len(pairs), max_size=len(pairs))
        )
        result = DecodeResult(
            n,
            tuple(p for p, label in zip(pairs, labels) if label == "e"),
            tuple(p for p, label in zip(pairs, labels) if label == "u"),
        )
        assert decode_result_from_text(decode_result_to_text(result)) == result

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x y\nunknown 0\n",
            "3\nunknown 0\n",
            "-1 0\nunknown 0\n",
            "3 1\n0\nunknown 0\n",  # one vertex on an edge line
            "3 1\n0 1 2\nunknown 0\n",
            "3 1\n0 9\nunknown 0\n",  # vertex out of range
            "3 1\n-1 2\nunknown 0\n",
            "3 1\n1 1\nunknown 0\n",  # u >= v
            "3 1\n2 1\nunknown 0\n",
            "3 1\n0 1\n",  # missing unknown section
            "3 2\n0 1\nunknown 0\n",  # fewer edge lines than the header says
            "3 0\n0 1\nunknown 0\n",  # more edge lines than the header says
            "3 0\nunknown\n",
            "3 0\nunknown x\n",
            "3 0\nknown 0\n",
            "3 0\nunknown 2\n0 1\n",  # count mismatch
            "3 0\nunknown 1\n0 1\n1 2\n",
            "3 0\nunknown -1\n",
            "3 0\nunknown 1\n0 3\n",
        ],
    )
    def test_malformed_text_raises_value_error(self, text):
        with pytest.raises(ValueError):
            decode_result_from_text(text)
