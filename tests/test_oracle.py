"""MIS computation, answer policies, and transcript recording."""

import random

import pytest

from misrecon.graphs import Graph, VertexSet, gen_bounded_degree, sample_clique_family, sample_blocked_clique_family
from misrecon.oracle import (
    AdversarialCliquePolicy,
    GreedyLexPolicy,
    GreedyOrderPolicy,
    OracleError,
    RandomMisPolicy,
    Transcript,
    adversarial_clique_answer,
    greedy_mis,
    is_mis,
    make_policy,
    random_mis,
    run_scheme,
)
from misrecon.schemes import QueryScheme, random_queries
from misrecon.util import iter_bits


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def vs(n, *members):
    return VertexSet.from_members(n, members).mask


def full(n):
    return (1 << n) - 1


class TestIsMis:
    def test_triangle_singleton(self):
        assert is_mis(Graph.complete(3), full(3), vs(3, 0))

    def test_empty_not_maximal(self):
        assert not is_mis(Graph.complete(3), full(3), 0)

    def test_path_endpoints(self):
        assert is_mis(path_graph(3), full(3), vs(3, 0, 2))

    def test_dependent_set_rejected(self):
        assert not is_mis(path_graph(3), full(3), vs(3, 0, 1))

    def test_candidate_must_be_inside_query(self):
        with pytest.raises(ValueError):
            is_mis(path_graph(3), vs(3, 0), vs(3, 2))


class TestGreedyMis:
    def test_triangle_ascending_takes_first(self):
        assert greedy_mis(Graph.complete(3), full(3), range(3)) == vs(3, 0)

    def test_empty_query(self):
        assert greedy_mis(path_graph(4), 0, range(4)) == 0

    def test_independent_query_returned_whole(self):
        assert greedy_mis(path_graph(3), vs(3, 0, 2), range(3)) == vs(3, 0, 2)

    def test_deterministic(self):
        g = gen_bounded_degree(30, 5, 0.7, seed=1)
        q = vs(30, *range(0, 30, 2))
        assert greedy_mis(g, q, range(30)) == greedy_mis(g, q, range(30))

    def test_order_respected(self):
        assert greedy_mis(Graph.complete(3), full(3), [2, 1, 0]) == vs(3, 2)


class TestRandomMis:
    def test_clique_answer_is_singleton(self):
        ans = random_mis(Graph.complete(4), full(4), seed=5)
        assert ans.bit_count() == 1

    def test_no_edges_returns_query(self):
        assert random_mis(Graph.empty(6), vs(6, 1, 3, 5), seed=0) == vs(6, 1, 3, 5)

    def test_triangle_distribution_uniform(self):
        # symmetry of a uniform permutation: each singleton wins 1/3 of seeds
        counts = {0: 0, 1: 0, 2: 0}
        trials = 3000
        for seed in range(trials):
            ans = random_mis(Graph.complete(3), full(3), seed=seed)
            counts[ans.bit_length() - 1] += 1
        for v in range(3):
            assert abs(counts[v] / trials - 1 / 3) < 0.05


class TestAdversarialAnswer:
    def test_query_outside_clique_returned_whole(self):
        g, desc = sample_clique_family(9, 2, seed=3)
        q = full(9) & ~desc.clique
        assert adversarial_clique_answer(g, desc, q) == q

    def test_query_equal_to_clique_gives_lowest_vertex(self):
        g, desc = sample_clique_family(10, 4, seed=8)  # |U| = 2
        assert desc.clique.bit_count() >= 2
        ans = adversarial_clique_answer(g, desc, desc.clique)
        assert ans == vs(10, min(iter_bits(desc.clique)))

    def test_block_query_forces_outside_answer(self):
        g, desc = sample_blocked_clique_family(12, 3, seed=6)
        q = full(12)
        ans = adversarial_clique_answer(g, desc, q)
        assert ans == q & ~desc.clique

    @pytest.mark.parametrize("seed", range(50))
    def test_answer_is_mis_and_reveals_at_most_one(self, seed):
        g, desc = sample_clique_family(11, 3, seed=seed)
        rng = random.Random(seed)
        q = rng.getrandbits(11)
        ans = adversarial_clique_answer(g, desc, q)
        assert is_mis(g, q, ans)
        assert (ans & desc.clique).bit_count() <= 1


class TestPolicies:
    def test_factory(self):
        assert isinstance(make_policy("greedy-lex"), GreedyLexPolicy)
        assert isinstance(make_policy("random", seed=1), RandomMisPolicy)
        with pytest.raises(ValueError):
            make_policy("random")
        with pytest.raises(ValueError):
            make_policy("nope")

    def test_random_policy_depends_on_query_index_only(self):
        g = gen_bounded_degree(20, 4, 0.8, seed=2)
        q = vs(20, *range(0, 20, 3))
        pol = RandomMisPolicy(seed=7)
        assert pol.answer(g, q, 3) == pol.answer(g, q, 3)


class TestRunScheme:
    def test_empty_graph_answers_equal_queries(self):
        scheme = random_queries(8, 5, 0.5, seed=4)
        transcript = run_scheme(Graph.empty(8), scheme, GreedyLexPolicy())
        for q, a in transcript.masks:
            assert a == q

    def test_triangle_single_query(self):
        scheme = QueryScheme(3, (full(3),))
        transcript = run_scheme(Graph.complete(3), scheme, GreedyLexPolicy())
        assert transcript.masks == ((full(3), vs(3, 0)),)

    @pytest.mark.parametrize("seed", range(100))
    def test_all_recorded_answers_are_mis(self, seed):
        g = gen_bounded_degree(15, 4, 0.6, seed=seed)
        scheme = random_queries(15, 6, 0.4, seed=seed + 1)
        transcript = run_scheme(g, scheme, RandomMisPolicy(seed + 2))
        assert len(transcript) == 6
        for q, a in transcript.masks:
            assert is_mis(g, q, a)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_scheme(Graph.empty(4), random_queries(5, 2, 0.5, 0), GreedyLexPolicy())

    @pytest.mark.parametrize("q", [1 << 9, -1, -(1 << 9)])
    def test_query_outside_vertices_rejected(self, q):
        g, desc = sample_clique_family(9, 2, seed=0)
        entry_points = [
            lambda: is_mis(g, q, 0),
            lambda: greedy_mis(g, q, range(9)),
            lambda: random_mis(g, q, seed=1),
            lambda: adversarial_clique_answer(g, desc, q),
            lambda: GreedyLexPolicy().answer(g, q, 0),
            lambda: GreedyOrderPolicy(range(9)).answer(g, q, 0),
            lambda: RandomMisPolicy(1).answer(g, q, 0),
            lambda: AdversarialCliquePolicy(desc).answer(g, q, 0),
            lambda: Transcript(9, ((q, 0),)),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="outside vertices 0..8"):
                call()

    @pytest.mark.parametrize("index_free", [True, False])
    def test_wrong_answer_raises_at_its_first_index(self, index_free):
        g = path_graph(4)
        # 0b0011 is an edge, so its whole query is no MIS; it first comes at 2
        scheme = QueryScheme(4, (0b0100, 0b1000, 0b0011, 0b0001, 0b0011))

        class WholeQuery:
            def answer(self, g, q, index):
                return q

        WholeQuery.index_free = index_free
        with pytest.raises(OracleError, match="query 2 is not an MIS"):
            run_scheme(g, scheme, WholeQuery())

    def test_policy_descriptor_mismatch_rejected(self):
        _, desc = sample_clique_family(9, 2, seed=0)
        g = Graph.empty(8)
        scheme = random_queries(8, 2, 0.5, seed=1)
        with pytest.raises(ValueError):
            run_scheme(g, scheme, AdversarialCliquePolicy(desc))


class TestTranscript:
    def test_answer_within_query_enforced(self):
        with pytest.raises(ValueError):
            Transcript(4, ((vs(4, 0), vs(4, 1)),))

    @pytest.mark.parametrize("bad", [(0b0011, 0b0100), (1 << 4, 0), (-1, 0)])
    def test_repeated_bad_pair_rejected(self, bad):
        good = (0b0011, 0b0001)
        for masks in ((good, bad, bad), (bad, good, bad), (bad, bad)):
            with pytest.raises(ValueError):
                Transcript(4, masks)

    @pytest.mark.parametrize(
        "line,reason",
        [
            ('{"query":[0,7],"answer":[0]}', "member 7 outside universe of size 4"),
            ('{"query":[0,1],"answer":[2]}', "answer not contained in its query"),
        ],
    )
    def test_bad_line_named(self, line, reason):
        text = '{"query":[0,1],"answer":[0]}\n' + line + "\n"
        with pytest.raises(ValueError, match="bad transcript line") as info:
            Transcript.from_text(4, text)
        assert line in str(info.value) and reason in str(info.value)

    def test_text_round_trip(self):
        g = gen_bounded_degree(10, 3, 0.5, seed=5)
        scheme = random_queries(10, 4, 0.5, seed=6)
        transcript = run_scheme(g, scheme, GreedyLexPolicy())
        text = transcript.to_text()
        back = Transcript.from_text(10, text)
        assert back == transcript
        assert back.to_text() == text

    def test_parse_error(self):
        with pytest.raises(ValueError):
            Transcript.from_text(4, "not json\n")

    @pytest.mark.parametrize(
        "line",
        [
            '{"query":[true,2,2],"answer":[true]}',
            '{"query":[1.0,2],"answer":[2]}',
            '{"query":"12","answer":[]}',
            '{"query":3,"answer":[]}',
            '{"query":[1,2],"answer":[null]}',
        ],
    )
    def test_non_integer_members_rejected(self, line):
        text = '{"query":[0,1],"answer":[0]}\n' + line + "\n"
        with pytest.raises(ValueError, match="bad transcript line") as info:
            Transcript.from_text(4, text)
        assert line in str(info.value)
