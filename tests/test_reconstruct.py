"""Transcript decoding, consistency checking, and success-rate estimation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misrecon import graphs, oracle
from misrecon.graphs import Graph, gen_bounded_degree
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
from misrecon.util import CapExceededError, mask_from_members


def pair_scheme(n):
    return QueryScheme(
        n,
        tuple(
            mask_from_members(n, [u, v])
            for u in range(n)
            for v in range(u + 1, n)
        ),
    )


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestDecode:
    def test_transcript_over_another_universe_rejected(self):
        transcript = run_scheme(Graph.empty(4), pair_scheme(4), GreedyLexPolicy())
        with pytest.raises(ValueError, match="transcript universe mismatch"):
            decode(5, transcript)

    def test_vertex_pairs_over_cap_refused_before_any_matrix(self, set_cap, monkeypatch):
        transcript = run_scheme(Graph.empty(6), pair_scheme(6), GreedyLexPolicy())
        set_cap(graphs, "VERTEX_PAIR_CAP", 15)
        assert decode(6, transcript).complete
        set_cap(graphs, "VERTEX_PAIR_CAP", 14)

        def refuse(*args):
            raise AssertionError("built vertex columns")

        # the decode above filled that transcript's columns; a new one has none
        monkeypatch.setattr(oracle, "transpose_masks", refuse)
        with pytest.raises(CapExceededError, match=r"^15 vertex pairs of n=6 exceed cap 14$"):
            decode(6, Transcript(6, transcript.masks))

    def test_empty_graph_decodes_empty(self):
        g = Graph.empty(5)
        transcript = run_scheme(g, pair_scheme(5), GreedyLexPolicy())
        result = decode(5, transcript)
        assert result.complete
        assert result.graph == g

    def test_single_edge_forced(self):
        g = Graph(2, [(0, 1)])
        scheme = QueryScheme(2, (0b11,))
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
        assert not result.matches(Graph.empty(4))
        assert result.matches(Graph.empty(4), unknown_as_nonedge=True)
        assert not result.matches(Graph(4, [(0, 1)]), unknown_as_nonedge=True)

    def test_complete_result_matches_only_its_graph(self):
        g = path_graph(4)
        result = decode(4, run_scheme(g, pair_scheme(4), GreedyLexPolicy()))
        assert result.complete
        assert result.matches(g) and result.matches(g, unknown_as_nonedge=True)
        assert not result.matches(Graph.empty(4))
        assert not result.matches(path_graph(5))

    def test_incomplete_result_matches_with_unknowns_as_nonedges(self):
        result = DecodeResult(4, ((0, 1),), ((2, 3),))
        assert not result.matches(Graph(4, [(0, 1)]))
        assert result.matches(Graph(4, [(0, 1)]), unknown_as_nonedge=True)
        # an unknown pair that is a true edge is no match either way
        assert not result.matches(Graph(4, [(0, 1), (2, 3)]), unknown_as_nonedge=True)

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
                    assert not g.adjacency_masks[u] >> v & 1

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
            result = decode(10, Transcript(10, transcript.masks[:k]))
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

    def test_other_vertex_count_rejected(self):
        transcript = run_scheme(path_graph(4), pair_scheme(4), GreedyLexPolicy())
        with pytest.raises(ValueError):
            consistency_check(path_graph(5), transcript)

    def test_flipping_a_co_answered_pair_breaks_consistency(self):
        g = path_graph(4)
        transcript = run_scheme(g, pair_scheme(4), GreedyLexPolicy())
        co_answered = next(
            (a for _, a in transcript.entries if len(a) == 2)
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

    def test_edge_section_read_in_file_order_without_allocating(self):
        # the header's vertex count is not allocated, as no graph is built
        huge = DecodeResult(10**15, ((2, 3), (0, 1)), ((1, 4),))
        assert decode_result_from_text(decode_result_to_text(huge)) == huge

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
            "3 2\n0 1\n0 1\nunknown 0\n",  # repeated edge line
            "3 0\nunknown 2\n0 1\n0 1\n",  # repeated unknown pair line
        ],
    )
    def test_malformed_text_raises_value_error(self, text):
        with pytest.raises(ValueError):
            decode_result_from_text(text)
