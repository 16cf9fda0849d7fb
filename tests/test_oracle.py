"""MIS computation, answer policies, and transcript recording."""

import ast
import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import Scripted
import misrecon
from misrecon import oracle
from misrecon.graphs import Graph, gen_bounded_degree, sample_clique_family, sample_blocked_clique_family
from misrecon.oracle import (
    AdversarialCliquePolicy,
    GreedyLexPolicy,
    GreedyOrderPolicy,
    OracleError,
    RandomMisPolicy,
    Transcript,
    is_mis,
    make_policy,
    run_scheme,
)
from misrecon.schemes import QueryScheme, random_queries
from misrecon.util import iter_bits, mask_from_members


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def vs(n, *members):
    return mask_from_members(n, members)


def full(n):
    return (1 << n) - 1


def greedy(g, q, order):
    return GreedyOrderPolicy(order).answer(g, q, 0)


def adversarial(g, desc, q):
    return AdversarialCliquePolicy(desc).answer(g, q, 0)


def test_every_exported_name_resolves():
    assert len(set(misrecon.__all__)) == len(misrecon.__all__)
    for name in misrecon.__all__:
        assert getattr(misrecon, name) is not None, name


def src_callers(*names):
    """name -> the (file, innermost function) pairs of src/misrecon that call it."""
    callers = {name: set() for name in names}

    class Visitor(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope = path, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in callers:
                callers[name].add((self.path.name, self.scope[-1]))
            self.generic_visit(node)

    for path in sorted(Path(misrecon.__file__).parent.glob("*.py")):
        Visitor(path).visit(ast.parse(path.read_text()))
    return callers


def test_only_run_scheme_and_consistency_check_call_is_mis():
    # policies pick an answer and run_scheme checks it once: a check inside a
    # policy would run a second time per answer. The column check of a whole
    # run is run_scheme's alone too.
    assert src_callers("is_mis", "_non_mis_pairs") == {
        "is_mis": {("oracle.py", "run_scheme"), ("reconstruct.py", "consistency_check")},
        "_non_mis_pairs": {("oracle.py", "run_scheme")},
    }


def test_only_the_scheme_builders_size_their_schemes():
    # each builder refuses its scheme on its own cap before any draw, so a
    # caller that sized the scheme itself would restate that cap
    assert src_callers("cff_ground_size", "randomized_query_count") == {
        "cff_ground_size": {("coverfree.py", "random_cff")},
        "randomized_query_count": {("schemes.py", "randomized_scheme")},
    }


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
        assert not is_mis(path_graph(3), vs(3, 0), vs(3, 2))


class TestGreedyMis:
    def test_triangle_ascending_takes_first(self):
        assert greedy(Graph.complete(3), full(3), range(3)) == vs(3, 0)

    def test_empty_query(self):
        assert greedy(path_graph(4), 0, range(4)) == 0

    def test_independent_query_returned_whole(self):
        assert greedy(path_graph(3), vs(3, 0, 2), range(3)) == vs(3, 0, 2)

    def test_deterministic(self):
        g = gen_bounded_degree(30, 5, 0.7, seed=1)
        q = vs(30, *range(0, 30, 2))
        assert greedy(g, q, range(30)) == greedy(g, q, range(30))

    def test_order_respected(self):
        assert greedy(Graph.complete(3), full(3), [2, 1, 0]) == vs(3, 2)


class TestRandomMis:
    def test_clique_answer_is_singleton(self):
        ans = RandomMisPolicy(5).answer(Graph.complete(4), full(4), 0)
        assert ans.bit_count() == 1

    def test_no_edges_returns_query(self):
        assert RandomMisPolicy(0).answer(Graph.empty(6), vs(6, 1, 3, 5), 0) == vs(6, 1, 3, 5)

    def test_triangle_distribution_uniform(self):
        # symmetry of a uniform permutation: each singleton wins 1/3 of the
        # query indices, all answered by one policy
        counts = {0: 0, 1: 0, 2: 0}
        trials = 3000
        policy = RandomMisPolicy(5)
        for index in range(trials):
            ans = policy.answer(Graph.complete(3), full(3), index)
            counts[ans.bit_length() - 1] += 1
        for v in range(3):
            assert abs(counts[v] / trials - 1 / 3) < 0.05

    @pytest.mark.parametrize("g", [
        Graph.complete(3),
        path_graph(4),  # answers {0, 2}, {0, 3}, {1, 3} in the ratio 3:2:3
        Graph(4, [(0, 1), (0, 2), (0, 3)]),  # the star K1,3
    ], ids=["triangle", "P4", "K1,3"])
    def test_answer_law_is_greedy_over_a_uniform_order(self, g):
        # the exact law: greedy over each of the n! orders, equally likely
        law = Counter(greedy(g, full(g.n), order) for order in itertools.permutations(range(g.n)))
        orders = sum(law.values())
        trials = 4000
        policy = RandomMisPolicy(9)
        seen = Counter(policy.answer(g, full(g.n), index) for index in range(trials))
        assert set(seen) == set(law)
        for answer, ways in law.items():
            p = ways / orders
            stderr = math.sqrt(p * (1 - p) / trials)
            assert abs(seen[answer] / trials - p) <= 5 * stderr, answer

    def test_seed_and_index_do_not_alias(self):
        # derive_seed(s, i + 1) == derive_seed(s + 1, i), so a stream seeded
        # per query with it repeats itself one index later at the next seed.
        # On a perfect matching of 16 edges each of the 2^16 MIS is equally
        # likely, so two unrelated answers agree about once in 65,536
        g = Graph(32, [(2 * k, 2 * k + 1) for k in range(16)])
        here, next_seed = RandomMisPolicy(5), RandomMisPolicy(6)
        for index in range(64):
            assert here.answer(g, full(32), index + 1) != next_seed.answer(g, full(32), index)


class TestAdversarialAnswer:
    def test_query_outside_clique_returned_whole(self):
        g, desc = sample_clique_family(9, 2, seed=3)
        q = full(9) & ~desc.clique
        assert adversarial(g, desc, q) == q

    def test_query_equal_to_clique_gives_lowest_vertex(self):
        g, desc = sample_clique_family(10, 4, seed=8)  # |U| = 2
        assert desc.clique.bit_count() >= 2
        ans = adversarial(g, desc, desc.clique)
        assert ans == vs(10, min(iter_bits(desc.clique)))

    def test_block_query_forces_outside_answer(self):
        g, desc = sample_blocked_clique_family(12, 3, seed=6)
        q = full(12)
        ans = adversarial(g, desc, q)
        assert ans == q & ~desc.clique

    @pytest.mark.parametrize("seed", range(50))
    def test_answer_is_mis_and_reveals_at_most_one(self, seed):
        g, desc = sample_clique_family(11, 3, seed=seed)
        rng = random.Random(seed)
        q = rng.getrandbits(11)
        ans = adversarial(g, desc, q)
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

            def answers(self, g, masks, start=0):
                return [self.answer(g, q, start + i) for i, q in enumerate(masks)]

        WholeQuery.index_free = index_free
        with pytest.raises(OracleError, match="query 2 is not an MIS"):
            run_scheme(g, scheme, WholeQuery())

    @pytest.mark.parametrize("answers, error, message", [
        # index 1 leaves its query (or the vertices 0..3), index 2 is not maximal
        ([0b0100, 0b1000, 0b0000, 0b0001], OracleError, "query 1 is not an MIS"),
        ([0b0100, 1 << 4, 0b0000, 0b0001], OracleError, "query 1 is not an MIS"),
        ([0b0100, -1, 0b0000, 0b0001], OracleError, "query 1 is not an MIS"),
        # index 2 is not maximal, index 3 leaves its query
        ([0b0100, 0b0001, 0b0000, 0b1001], OracleError, "query 2 is not an MIS"),
    ])
    def test_answers_policy_fails_at_its_first_bad_pair(self, answers, error, message):
        # an answer that leaves its query is a fault of the policy like any
        # other non-MIS answer, as when each pair is checked in index order
        scheme = QueryScheme(4, (0b0100, 0b0011, 0b0011, 0b0001))
        with pytest.raises(error, match=message):
            run_scheme(path_graph(4), scheme, Scripted(answers))

    def test_column_check_decides(self, monkeypatch):
        # a pair the column check flags fails the run at its first index,
        # even though the pair is an MIS pair: nothing judges it again
        g = path_graph(4)
        scheme = QueryScheme(4, (0b0100, 0b0011, 0b0011, 0b0001))
        answers = [0b0100, 0b0001, 0b0001, 0b0001]
        assert all(is_mis(g, q, a) for q, a in zip(scheme.masks, answers))
        # the distinct pairs are those of indices 0, 1 and 3; flag the second
        monkeypatch.setattr(oracle, "_non_mis_pairs", lambda g, pairs: 0b010)
        with pytest.raises(OracleError, match="query 1 is not an MIS"):
            run_scheme(g, scheme, Scripted(answers))

    # the last answer dropped, and one answer too many
    @pytest.mark.parametrize("answers", [[0b0100, 0b0001], [0b0100, 0b0001, 0b0001, 0b0001]])
    def test_answer_count_must_match_the_scheme(self, answers):
        scheme = QueryScheme(4, (0b0100, 0b0011, 0b0001))
        message = f"policy gave {len(answers)} answers to 3 queries"
        with pytest.raises(OracleError, match=message):
            run_scheme(path_graph(4), scheme, Scripted(answers))

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

    def test_blank_lines_skipped(self):
        line = '{"query":[0,1],"answer":[0]}\n'
        assert Transcript.from_text(4, "\n" + line + "  \n\n" + line) == Transcript(
            4, ((0b11, 0b01), (0b11, 0b01))
        )

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
