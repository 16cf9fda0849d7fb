"""The batched and pruned library paths against scalar references.

Each fast path (scheme builder, oracle, decoder and the exhaustive checkers)
and each folded path (the dual transpose and the one hidden-clique family
builder) must give exactly the output of the code kept in
scalar_reference.py, on every input hypothesis draws.
"""

import hashlib
import inspect
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from conftest import Scripted, cli_env
from misrecon import graphs as lib_graphs
from misrecon import coverfree, lowerbounds, oracle, reconstruct, schemes, util
from misrecon.coverfree import (
    CffConstructionError,
    SetFamily,
    dual,
    is_cover_free,
    random_set_family,
)
from misrecon.graphs import Graph, gen_bounded_degree, sample_clique_family
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
from misrecon.schemes import QueryScheme, SchemeConstructionError
from misrecon.util import (
    CapExceededError,
    bernoulli_rows,
    derive_seed,
    mask_from_members,
    shuffle,
    transpose_masks,
)

# the host's speed varies, so no per-example deadline
checked = settings(deadline=None, max_examples=150)

SEEDS = st.integers(0, 2**64 - 1)

# query indices of a scheme
INDICES = st.integers(0, 10**6)


@st.composite
def graphs(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, keep in zip(pairs, chosen) if keep])


def subsets(n, within=None):
    """Masks of subsets of {0..n-1}, or of the set `within` when given."""
    full = (1 << n) - 1 if within is None else within
    return st.integers(0, (1 << n) - 1).map(lambda m: m & full)


class TestRandomQueries:
    @checked
    @given(
        n=st.integers(0, 40),
        t=st.integers(0, 50),
        p=st.floats(0.0, 1.0, exclude_min=True),
        seed=SEEDS,
    )
    @example(n=1, t=1, p=0.5, seed=0)
    @example(n=9, t=17, p=0.3, seed=5)  # n not a multiple of 8, t past a block
    @example(n=13, t=33, p=1.0, seed=2)
    @example(n=8, t=16, p=5e-324, seed=3)
    def test_equals_per_draw_loop(self, n, t, p, seed):
        fast = schemes.random_queries(n, t, p, seed)
        assert fast == ref.random_queries(n, t, p, seed)

    @checked
    @given(seed=SEEDS)
    def test_draw_equal_to_p_is_excluded_and_just_below_included(self, seed):
        # random draws almost never land next to p; these p put the first draw
        # of the stream exactly at p and one float below it
        first = random.Random(derive_seed(seed)).random()
        for p in (math.nextafter(first, 1.0), first):
            if p > 0:
                fast = schemes.random_queries(1, 1, p, seed)
                assert fast.masks[0] == (first < p)
                assert fast == ref.random_queries(1, 1, p, seed)


PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


class TestBernoulliRows:
    """util.bernoulli_rows draws what per-element rng.random() < p draws."""

    @checked
    @given(
        rows=st.integers(0, 40),
        width=st.integers(0, 70),
        p=PROBABILITIES,
        seed=SEEDS,
    )
    @example(rows=17, width=65, p=0.3, seed=1)  # past a block and a 64-bit word
    @example(rows=3, width=0, p=0.5, seed=2)
    def test_equals_per_element_draws_and_leaves_same_state(self, rows, width, p, seed):
        scalar, batched = random.Random(seed), random.Random(seed)
        expected = [
            sum(1 << j for j in range(width) if scalar.random() < p)
            for _ in range(rows)
        ]
        assert bernoulli_rows(batched, rows, width, p) == expected
        assert batched.getstate() == scalar.getstate()

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_bounded_draws_equal_per_element_draws(self, monkeypatch, cells):
        # blocks shrink to fit the bound, and wider rows are drawn in pieces
        monkeypatch.setattr(util, "_DRAW_CELLS", cells)

        class Recording(random.Random):
            def getrandbits(self, k):
                calls.append(k)
                return super().getrandbits(k)

        for rows, width, p, seed in ((17, 65, 0.3, 1), (3, 0, 0.5, 2), (5, 7, 0.5, 3),
                                     (40, 3, 0.7, 4), (2, 200, 0.1, 5), (1, 1, 0.5, 6)):
            calls = []
            scalar, batched = random.Random(seed), Recording(seed)
            expected = [
                sum(1 << j for j in range(width) if scalar.random() < p)
                for _ in range(rows)
            ]
            assert bernoulli_rows(batched, rows, width, p) == expected
            assert batched.getstate() == scalar.getstate()
            assert max(calls, default=0) <= 64 * cells

    @checked
    @given(seed=SEEDS)
    def test_draw_equal_to_p_is_excluded_and_just_below_included(self, seed):
        first = random.Random(seed).random()
        for p in (first, math.nextafter(first, 1.0)):
            assert bernoulli_rows(random.Random(seed), 1, 1, p) == [int(first < p)]

    @pytest.mark.parametrize("cap", [64, 8192])
    def test_draw_over_cap_refused_before_any_draw(self, monkeypatch, cap):
        # each row counts max(width, 64) bits, so a narrow row costs 64
        monkeypatch.setattr(util, "DRAW_CAP_BITS", cap)
        rng = random.Random(3)
        state = rng.getstate()
        for rows, width in ((cap // 64, 64), (cap // 64, 0), (1, cap), (0, 10**9)):
            assert len(bernoulli_rows(random.Random(3), rows, width, 0.5)) == rows
        for rows, width in ((cap // 64 + 1, 64), (cap // 64 + 1, 1), (1, cap + 1), (2, cap)):
            with pytest.raises(CapExceededError, match=f"exceeds cap {cap} bits"):
                bernoulli_rows(rng, rows, width, 0.5)
            assert rng.getstate() == state

    def test_import_does_not_load_numpy_random(self):
        # numpy.random (about 2 MB) is imported by large draws only
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, misrecon; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_only_draws_over_the_size_rule_load_numpy_random(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from misrecon import schemes, util\n"
             "schemes.random_queries(200, 20, 0.1, 1)\n"
             "print('numpy.random' in sys.modules)\n"
             "schemes.random_queries(200, util._MT_CELLS // 200 + 1, 0.1, 1)\n"
             "print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\nTrue\n"


class TestMt19937Rows:
    """Draws of at least util._MT_CELLS cells read rng's doubles from numpy's
    RandomState over MT19937 and give what per-element rng.random() < p gives."""

    @checked
    @given(
        data=st.data(),
        rows=st.integers(0, 12),
        width=st.integers(0, 70),
        seed=SEEDS,
        prefix=st.integers(0, 1300),
        gauss=st.booleans(),
    )
    @example(data=None, rows=17, width=65, seed=1, prefix=0, gauss=False)
    @example(data=None, rows=3, width=0, seed=2, prefix=623, gauss=True)
    def test_equals_per_element_draws_and_leaves_same_state(
        self, data, rows, width, seed, prefix, gauss
    ):
        # a prefix of random() calls starts the draw at every phase of the
        # 624-word twist, and a gauss() call leaves gauss_next pending
        scalar, batched = random.Random(seed), random.Random(seed)
        for rng in (scalar, batched):
            for _ in range(prefix):
                rng.random()
            if gauss:
                rng.gauss(0.0, 1.0)
        values = [scalar.random() for _ in range(rows * width)]
        choices = st.one_of(PROBABILITIES, st.sampled_from(values)) if values else PROBABILITIES
        p = 0.3 if data is None else data.draw(choices)  # p may equal a drawn value
        expected = [
            sum(1 << j for j in range(width) if values[i * width + j] < p)
            for i in range(rows)
        ]
        with patch.object(util, "_MT_CELLS", 0):
            assert bernoulli_rows(batched, rows, width, p) == expected
        assert batched.getstate() == scalar.getstate()

    def test_trial_sized_draw_equals_per_element_draws(self):
        # a criterion-3 scheme at c=10 (3391 queries at n=200), unpatched
        scalar, batched = random.Random(7), random.Random(7)
        expected = [
            sum(1 << j for j in range(200) if scalar.random() < 1 / 9)
            for _ in range(3391)
        ]
        assert 3391 * 200 >= util._MT_CELLS
        assert bernoulli_rows(batched, 3391, 200, 1 / 9) == expected
        assert batched.getstate() == scalar.getstate()

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_bounded_draws_equal_per_element_draws(self, monkeypatch, cells):
        # each RandomState draw asks for at most _DRAW_CELLS doubles
        import numpy.random

        class Recording(numpy.random.RandomState):
            def random_sample(self, size=None):
                calls.append(size)
                return super().random_sample(size)

        monkeypatch.setattr(util, "_DRAW_CELLS", cells)
        monkeypatch.setattr(util, "_MT_CELLS", 0)
        monkeypatch.setattr(numpy.random, "RandomState", Recording)
        for rows, width, p, seed in ((17, 65, 0.3, 1), (3, 0, 0.5, 2), (5, 7, 0.5, 3),
                                     (40, 3, 0.7, 4), (2, 200, 0.1, 5), (1, 1, 0.5, 6)):
            calls = []
            scalar, batched = random.Random(seed), random.Random(seed)
            expected = [
                sum(1 << j for j in range(width) if scalar.random() < p)
                for _ in range(rows)
            ]
            assert bernoulli_rows(batched, rows, width, p) == expected
            assert batched.getstate() == scalar.getstate()
            assert max(calls, default=0) <= cells
            assert bool(calls) == bool(rows * width)

    def test_peak_memory_of_a_wide_draw(self):
        # 20 sets of the default n=200 CFF ground (101,711 elements), each
        # drawn in pieces of _DRAW_CELLS cells: 0.57 MiB traced, 1.24 when
        # the draw first imports numpy.random; the whole draw at once would
        # hold 16 MiB of doubles
        rng = random.Random(derive_seed(1, 1))
        tracemalloc.start()
        try:
            masks = bernoulli_rows(rng, 20, 101_711, 0.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) == 20 and 20 * 101_711 >= util._MT_CELLS
        assert 101_711 > util._DRAW_CELLS
        assert peak < 4 * 2**20


class TestRandomSetFamily:
    @checked
    @given(
        data=st.data(),
        t=st.integers(1, 4),
        density=PROBABILITIES,
        seed=SEEDS,
        max_rounds=st.integers(1, 30),
    )
    @example(data=None, t=4, density=0.5, seed=0, max_rounds=100)
    @example(data=None, t=2, density=0.0, seed=1, max_rounds=5)  # never distinct
    @example(data=None, t=3, density=1.0, seed=2, max_rounds=5)
    def test_equals_per_element_draws(self, data, t, density, seed, max_rounds):
        # n up to 2^t, so duplicates are common and redraw rounds run
        n = 2**t if data is None else data.draw(st.integers(0, 2**t))
        outcomes = []
        # the library reads its round budget from the module, the reference
        # takes it as an argument
        with patch.object(coverfree, "MAX_ROUNDS", max_rounds):
            for build in (lambda: random_set_family(n, t, density, seed),
                          lambda: ref.random_set_family(n, t, density, seed, max_rounds)):
                try:
                    outcomes.append(build())
                except CffConstructionError as exc:
                    outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestIsMis:
    @checked
    @given(data=st.data())
    def test_equals_per_vertex_definition(self, data):
        g = data.draw(graphs())
        q = data.draw(subsets(g.n))
        if data.draw(st.booleans()):
            # an arbitrary subset of q, or of the vertices: often dependent,
            # not maximal or outside q
            i = data.draw(st.one_of(subsets(g.n, within=q), subsets(g.n)))
        else:
            i = ref.greedy_mis(g, q, data.draw(st.permutations(range(g.n))))
        assert is_mis(g, q, i) == (not i & ~q and ref.is_mis(g, q, i))


class TestGreedyAnswers:
    @checked
    @given(data=st.data(), seed=SEEDS, indices=st.lists(INDICES, min_size=1, max_size=4))
    def test_random_mis_equals_ranked_greedy(self, data, seed, indices):
        # one policy answers every index, and no answer may depend on an earlier one
        g = data.draw(graphs())
        policy, reference = RandomMisPolicy(seed), ref.RandomMisPolicy(seed)
        for index in indices:
            q = data.draw(subsets(g.n))
            assert policy.answer(g, q, index) == reference.answer(g, q, index)

    @checked
    @given(data=st.data(), index=st.integers(0, 100))
    def test_greedy_lex_equals_scan_of_all_vertices(self, data, index):
        g = data.draw(graphs())
        q = data.draw(subsets(g.n))
        assert GreedyLexPolicy().answer(g, q, index) == ref.greedy_lex(g, q)


def no_inner_edge(inner):
    return st.just([])


def one_inner_edge(inner):
    return st.sampled_from(inner).map(lambda pair: [pair])


def dense_inner_edges(inner):
    # every pair of Q but at most a quarter of them
    return st.sets(st.sampled_from(inner), max_size=len(inner) // 4).map(
        lambda dropped: [pair for pair in inner if pair not in dropped]
    )


@st.composite
def query_with_inner_edges(draw, inner_edges, min_q=0, max_q=12):
    """(g, Q) where `inner_edges` picks the edges of G[Q] from the pairs of Q
    and each pair with an end outside Q is an edge or not at random."""
    n = draw(st.integers(max(min_q, 1), 12))
    members = draw(
        st.lists(st.integers(0, n - 1), min_size=min_q, max_size=max_q, unique=True)
    )
    qmask = sum(1 << v for v in members)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    inner = [(u, v) for u, v in pairs if qmask >> u & 1 and qmask >> v & 1]
    edges = [pair for pair in pairs if pair not in inner and draw(st.booleans())]
    edges += draw(inner_edges(inner)) if inner else []
    return Graph(n, edges), qmask


def random_answer(case, seed, index):
    """The random-MIS policy's answer to the case's query, after checking it
    against the reference policy's."""
    g, q = case
    answer = RandomMisPolicy(seed).answer(g, q, index)
    assert answer == ref.RandomMisPolicy(seed).answer(g, q, index)
    return answer


class TestEdgelessShortcut:
    """The random-MIS policy answers an edgeless G[Q] with Q itself and hashes
    nothing; every other query keeps the keyed hash ranks."""

    @checked
    @given(case=query_with_inner_edges(no_inner_edge, max_q=1), seed=SEEDS, index=INDICES)
    def test_at_most_one_vertex(self, case, seed, index):
        assert random_answer(case, seed, index) == case[1]

    @checked
    @given(case=query_with_inner_edges(no_inner_edge, min_q=2), seed=SEEDS, index=INDICES)
    def test_independent_query(self, case, seed, index):
        assert random_answer(case, seed, index) == case[1]

    @checked
    @given(case=query_with_inner_edges(one_inner_edge, min_q=2), seed=SEEDS, index=INDICES)
    def test_one_edge_inside_query(self, case, seed, index):
        answer = random_answer(case, seed, index)
        assert answer.bit_count() == case[1].bit_count() - 1

    @checked
    @given(case=query_with_inner_edges(dense_inner_edges, min_q=2), seed=SEEDS, index=INDICES)
    def test_dense_induced_subgraph(self, case, seed, index):
        random_answer(case, seed, index)

    def test_edgeless_queries_hash_no_ranks(self, monkeypatch):
        def refuse(seed, indices, counts):
            raise AssertionError("seeded a generator")

        monkeypatch.setattr(oracle, "keyed_ranks", refuse)
        g = Graph(6, [(i, i + 1) for i in range(5)])  # the path 0-1-..-5
        masks = [0, 0b1, 0b100000, 0b10101, 0b101010, 0b100001]
        scheme = QueryScheme(6, tuple(masks))
        transcript = run_scheme(g, scheme, RandomMisPolicy(7))
        assert [a for _, a in transcript.masks] == list(scheme.masks)
        # the ranks are hashed at the first query with an edge
        with pytest.raises(AssertionError, match="seeded a generator"):
            RandomMisPolicy(7).answer(g, 0b11, 0)

    def test_only_queries_with_an_edge_are_hashed(self, monkeypatch):
        asked = []

        def record(seed, indices, counts):
            asked.append((list(indices), list(counts)))
            return util.keyed_ranks(seed, *asked[-1])

        monkeypatch.setattr(oracle, "keyed_ranks", record)
        g = Graph(6, [(i, i + 1) for i in range(5)])  # the path 0-1-..-5
        masks = [0b10101, 0b11, 0, 0b111000, 0b101010, 0b100001, 0b111111]
        answers = RandomMisPolicy(7).answers(g, masks, 40)
        # one hash per block, of queries 1, 3 and 6 with their sizes
        assert asked == [([41, 43, 46], [2, 3, 6])]
        assert answers == [ref.random_mis(g, q, 7, 40 + i) for i, q in enumerate(masks)]

    def test_only_hashed_queries_are_repacked(self, monkeypatch):
        repacked = []

        def record(bits):
            repacked.append(len(bits))
            return util.bits_to_masks(bits)

        monkeypatch.setattr(oracle, "bits_to_masks", record)
        g = Graph(6, [(i, i + 1) for i in range(5)])  # the path 0-1-..-5
        masks = [0b10101, 0b11, 0, 0b111000, 0b101010, 0b100001, 0b111111]
        answers = RandomMisPolicy(7).answers(g, masks, 40)
        # the rows of queries 1, 3 and 6; the rest answer with their own mask
        assert repacked == [3]
        assert answers == [ref.random_mis(g, q, 7, 40 + i) for i, q in enumerate(masks)]

    def test_universe_mismatch_is_value_error(self):
        with pytest.raises(ValueError, match="outside vertices 0..2"):
            RandomMisPolicy(0).answer(Graph.empty(3), 0b11000, 0)


# lengths where the bit length of the draw bound changes: 2^k - 1, 2^k, 2^k + 1,
# up to k = 15, past the 19,900 candidate pairs of an n=200 graph
SHUFFLE_LENGTHS = sorted({0, 1} | {2**k + d for k in range(1, 16) for d in (-1, 0, 1)})

# Random(seed) hashes seeds of any size (and sign) into its state
ANY_SEED = st.one_of(SEEDS, st.integers(2**64, 2**256), st.integers(-(2**80), -1))


class TestShuffle:
    """util.shuffle makes the getrandbits calls Random.shuffle makes."""

    @staticmethod
    def assert_same_as_stdlib(length, seed):
        expected, got = list(range(length)), list(range(length))
        stdlib, inlined = random.Random(seed), random.Random(seed)
        stdlib.shuffle(expected)
        shuffle(inlined, got)
        assert got == expected
        assert inlined.getstate() == stdlib.getstate()

    @pytest.mark.parametrize("length", [m for m in SHUFFLE_LENGTHS if m <= 2**8 + 1])
    @checked
    @given(seed=ANY_SEED)
    def test_equals_stdlib_at_bit_length_edges(self, length, seed):
        self.assert_same_as_stdlib(length, seed)

    # fewer seeds a length: an example shuffles up to 32,769 elements twice
    @pytest.mark.parametrize("length", [m for m in SHUFFLE_LENGTHS if m > 2**8 + 1])
    @settings(deadline=None, max_examples=5)
    @given(seed=ANY_SEED)
    def test_equals_stdlib_at_long_bit_length_edges(self, length, seed):
        self.assert_same_as_stdlib(length, seed)

    @checked
    @given(length=st.integers(0, 300), seed=ANY_SEED)
    def test_equals_stdlib_at_any_length(self, length, seed):
        self.assert_same_as_stdlib(length, seed)


class TestGenBoundedDegree:
    @checked
    @given(data=st.data(), seed=SEEDS)
    def test_equals_stdlib_shuffle_then_draws(self, data, seed):
        n = data.draw(st.integers(0, 40))
        delta = data.draw(st.integers(0, max(n - 1, 0)))
        density = data.draw(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        )
        fast = gen_bounded_degree(n, delta, density, seed)
        assert fast == ref.gen_bounded_degree(n, delta, density, seed)

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    def test_equals_reference_for_every_delta(self, density):
        for delta in range(12):
            for seed in range(3):
                assert gen_bounded_degree(12, delta, density, seed) == (
                    ref.gen_bounded_degree(12, delta, density, seed)
                )

    # one candidate a block, a few, and blocks that split n=40's 780 candidates
    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), seed=SEEDS)
    def test_equals_reference_in_any_block_size(self, block, data, seed):
        n = data.draw(st.integers(0, 40))
        delta = data.draw(st.integers(0, max(n - 1, 0)))
        density = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        with patch.object(lib_graphs, "_GEN_BLOCK", block):
            fast = gen_bounded_degree(n, delta, density, seed)
        assert fast == ref.gen_bounded_degree(n, delta, density, seed)

    @pytest.mark.parametrize("seed", [0, derive_seed(derive_seed(30_000, 0), 0)])
    def test_equals_reference_across_blocks_at_criterion_three_size(self, seed):
        # 19,900 candidates, 20 blocks of the library's size
        assert math.comb(200, 2) > 16 * lib_graphs._GEN_BLOCK
        assert gen_bounded_degree(200, 8, 0.5, seed) == ref.gen_bounded_degree(200, 8, 0.5, seed)


class TestRandomMisPolicyShapes:
    """The policy answers each G[Q] shape as the reference's ranks, fresh
    for each query, do."""

    @pytest.mark.parametrize(
        "inner_edges", [no_inner_edge, one_inner_edge, dense_inner_edges]
    )
    @checked
    @given(data=st.data(), seed=SEEDS, index=st.integers(0, 2**32))
    def test_equals_fresh_ranks_per_query(self, inner_edges, data, seed, index):
        g, q = data.draw(query_with_inner_edges(inner_edges))
        policy, reference = RandomMisPolicy(seed), ref.RandomMisPolicy(seed)
        # the whole vertex set first, so that an answer carried over would show
        every = (1 << g.n) - 1
        for query, at in ((every, index + 1), (q, index)):
            assert policy.answer(g, query, at) == reference.answer(g, query, at)


# starts up to, at and past 2^64, where the index field wraps
STARTS = st.one_of(st.integers(0, 1000), st.integers(2**64 - 20, 2**64 + 5))


class TestRandomMisBlocks:
    """answers gives each query the reference's answer at its own index,
    whatever the block size, so blocks never leak ranks into each other;
    the greedy engine gives the scalar greedy's answer for every order."""

    # one row a block, a few rows, and the library's block size
    @pytest.mark.parametrize("cells", [1, 20, 64, oracle._ANSWER_CELLS])
    @checked
    @given(data=st.data(), seed=ANY_SEED, start=STARTS)
    def test_equals_reference_at_every_index(self, cells, data, seed, start):
        g = data.draw(graphs(min_n=0, max_n=14))
        masks = data.draw(st.lists(subsets(g.n), max_size=12))
        kind = data.draw(st.sampled_from(["random", "greedy-lex", "greedy-order"]))
        if kind == "random":
            policy = RandomMisPolicy(seed)
            want = [ref.random_mis(g, q, seed, start + i) for i, q in enumerate(masks)]
        elif kind == "greedy-lex":
            policy, want = GreedyLexPolicy(), [ref.greedy_lex(g, q) for q in masks]
        else:
            order = data.draw(st.permutations(range(g.n)))
            policy, want = GreedyOrderPolicy(order), [ref.greedy_mis(g, q, order) for q in masks]
        with patch.object(oracle, "_ANSWER_CELLS", cells):
            assert policy.answers(g, masks, start) == want

    def test_ranks_key_any_index_mod_two_to_the_64(self):
        # the index field wraps: negative indices and those from 2^64 up
        seed = 2**70 + 12345
        indices = [-1, -(2**70) - 3, 0, 5, 2**64 - 1, 2**64, 2**64 + 7, 2**100]
        counts = [3, 1, 2, 4, 1, 2, 3, 1]
        want = b"".join(
            hashlib.shake_128(
                (seed % 2**64).to_bytes(8, "little") + (i % 2**64).to_bytes(8, "little")
            ).digest(8 * c)
            for i, c in zip(indices, counts)
        )
        assert util.keyed_ranks(seed, indices, counts).tobytes() == want

    @pytest.mark.parametrize("kind", ["greedy-lex", "random"])
    def test_peak_memory_of_the_criterion_three_scheme(self, kind):
        # trial 0 of criterion 3 at c=10 (n=200, delta=8, t=3391): in blocks
        # the traced peak is about 0.75 MB, in one piece 6-7 MB
        trial = derive_seed(30_000, 0)
        g = gen_bounded_degree(200, 8, 0.5, derive_seed(trial, 0))
        scheme = schemes.randomized_scheme(200, 8, 10.0, 1 / 9, derive_seed(trial, 1))
        policy = make_policy(kind, seed=derive_seed(trial, 2))
        tracemalloc.start()
        try:
            policy.answers(g, scheme.masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scheme) == 3391
        assert peak < 2 * 2**20


def pooled_scheme(n, max_pool=4, max_t=30):
    """Schemes whose queries come from a pool of at most max_pool masks, so
    most queries repeat an earlier one."""
    return st.lists(subsets(n), min_size=1, max_size=max_pool).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=max_t)
    ).map(lambda masks: QueryScheme(n, tuple(masks)))


@st.composite
def graph_and_policy(draw):
    """(g, policy) for each policy kind, with g a member of the hidden-clique
    family when the policy is the clique adversary."""
    kinds = ["greedy-lex", "greedy-order", "random", "adversarial"]
    kind = draw(st.sampled_from(kinds))
    if kind == "adversarial":
        n = draw(st.integers(5, 8))
        g, desc = sample_clique_family(n, draw(st.integers(1, 3)), draw(SEEDS))
        return g, AdversarialCliquePolicy(desc), AdversarialCliquePolicy(desc)
    g = draw(graphs(max_n=8))
    if kind == "greedy-lex":
        return g, GreedyLexPolicy(), ref.GreedyLexPolicy()
    if kind == "greedy-order":
        order = draw(st.permutations(range(g.n)))
        return g, GreedyOrderPolicy(order), ref.GreedyOrderPolicy(order)
    seed = draw(SEEDS)
    return g, RandomMisPolicy(seed), ref.RandomMisPolicy(seed)


class CountingLexPolicy:
    """Greedy-lex that records each query it is asked about and declares
    itself index-free."""

    index_free = True

    def __init__(self):
        self.asked = []

    def answers(self, g, masks, start=0):
        self.asked += masks
        return GreedyLexPolicy().answers(g, masks, start)


class SecondTimeWrongPolicy:
    """Duck-typed, without index_free: answers greedy-lex, but the empty set
    (not maximal in a nonempty query) the second time it sees a query."""

    def __init__(self):
        self.seen = set()

    def answer(self, g, q, index):
        if q in self.seen:
            return 0
        self.seen.add(q)
        return GreedyLexPolicy().answer(g, q, index)

    def answers(self, g, masks, start=0):
        return [self.answer(g, q, start + i) for i, q in enumerate(masks)]


class TestRunSchemeMemo:
    """run_scheme asks an index-free policy once per distinct query and checks
    each distinct (query, answer) pair once, with the reference transcript."""

    @checked
    @given(data=st.data())
    def test_equals_reference_loop_for_every_policy(self, data):
        g, policy, reference = data.draw(graph_and_policy())
        scheme = data.draw(pooled_scheme(g.n))
        assert run_scheme(g, scheme, policy) == ref.run_scheme(g, scheme, reference)

    @checked
    @given(data=st.data())
    def test_transcript_passes_the_public_check(self, data):
        # run_scheme builds its transcript unchecked, from pairs it proved
        # are MIS pairs; the public constructor accepts every one of them
        g, policy, _ = data.draw(graph_and_policy())
        transcript = run_scheme(g, data.draw(pooled_scheme(g.n)), policy)
        assert Transcript(g.n, transcript.masks) == transcript

    @checked
    @given(data=st.data())
    def test_policy_reused_across_runs(self, data):
        g, policy, reference = data.draw(graph_and_policy())
        for scheme in data.draw(st.lists(pooled_scheme(g.n), min_size=2, max_size=3)):
            assert run_scheme(g, scheme, policy) == ref.run_scheme(g, scheme, reference)

    @checked
    @given(data=st.data())
    def test_index_free_policy_asked_once_per_distinct_query(self, data):
        g = data.draw(graphs(max_n=8))
        scheme = data.draw(pooled_scheme(g.n))
        policy = CountingLexPolicy()
        transcript = run_scheme(g, scheme, policy)
        assert transcript == ref.run_scheme(g, scheme, ref.GreedyLexPolicy())
        # once per distinct query, in order of first index
        assert policy.asked == list(dict.fromkeys(scheme.masks))

    @pytest.mark.parametrize("policy", [
        GreedyLexPolicy(), RandomMisPolicy(3),
        AdversarialCliquePolicy(lib_graphs.clique_family_desc(4, 2)),
    ])
    def test_each_distinct_pair_is_checked_once(self, policy, monkeypatch):
        # no policy runs a check of its own: run_scheme makes every one, with
        # is_mis per distinct query of an index-free policy, and otherwise in
        # one column check of the distinct pairs in order of first index
        checked_pairs = []
        column_checks = []

        def counting_is_mis(g, q, a):
            checked_pairs.append((q, a))
            return is_mis(g, q, a)

        def recording_column_check(g, transcript):
            column_checks.append(list(transcript._columns[0]))
            return non_mis_pairs(g, transcript)

        non_mis_pairs = oracle._non_mis_pairs
        monkeypatch.setattr(oracle, "is_mis", counting_is_mis)
        monkeypatch.setattr(oracle, "_non_mis_pairs", recording_column_check)
        if isinstance(policy, AdversarialCliquePolicy):
            g = Graph(4, [(0, 1), (0, 2)])  # a member: U = {0} joined to 1 and 2
        else:
            g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # the path 0-1-2-3
        masks = [0b1111, 0b0101, 0b0111, 0b1111, 0b0101, 0b0011, 0b0111, 0b1111]
        scheme = QueryScheme(4, tuple(masks))
        transcript = run_scheme(g, scheme, policy)
        distinct = list(dict.fromkeys(transcript.masks))
        if isinstance(policy, RandomMisPolicy):
            assert (column_checks, checked_pairs) == ([distinct], [])
        else:
            assert (column_checks, checked_pairs) == ([], distinct)

    @pytest.mark.parametrize("masks, bad_index", [
        ([0b011, 0b110, 0b011], 2),
        ([0b111, 0b111], 1),
        ([0b001, 0b010, 0b100, 0b110, 0b010], 4),
    ])
    def test_wrong_answer_on_a_repeat_still_raises(self, masks, bad_index):
        g = Graph(3, [(0, 1), (1, 2)])
        scheme = QueryScheme(3, tuple(masks))
        message = f"query {bad_index} is not an MIS"
        with pytest.raises(OracleError, match=message):
            run_scheme(g, scheme, SecondTimeWrongPolicy())
        with pytest.raises(OracleError, match=message):
            ref.run_scheme(g, scheme, SecondTimeWrongPolicy())

    def test_policies_declare_index_free(self):
        assert GreedyLexPolicy.index_free
        assert GreedyOrderPolicy.index_free
        assert AdversarialCliquePolicy.index_free
        assert not hasattr(RandomMisPolicy, "index_free")


def flagged_by_reference(g, pairs):
    """The mask of the indices k where pairs[k] = (q, a) is no MIS pair: a
    vertex outside the query or 0..n-1, or the per-vertex definition fails."""
    return sum(1 << k for k, (q, a) in enumerate(pairs)
               if a & ~q or q >> g.n or not ref.is_mis(g, q, a))


@st.composite
def checked_pairs(draw, max_n=14, max_pairs=12):
    """(g, pairs): queries inside and outside the vertices, answers that
    are MIS, that are not, that leave the query and that leave 0..n-1."""
    g = draw(graphs(min_n=0, max_n=max_n))
    n = g.n
    pairs = []
    for _ in range(draw(st.integers(0, max_pairs))):
        q = draw(st.one_of(subsets(n), st.sampled_from([1 << n, -1])))
        inside = q & (1 << n) - 1
        a = draw(st.one_of(
            st.permutations(range(n)).map(lambda order: ref.greedy_mis(g, inside, order)),
            subsets(n, within=q),
            subsets(n),
            st.sampled_from([q | 1 << n, -1]),
        ))
        pairs.append((q, a))
    return g, pairs


class TestColumnCheck:
    """_non_mis_pairs flags each distinct pair of a transcript that is no
    MIS pair, and no other, whatever the block size of its columns."""

    # one pair a block, a few pairs, and the library's block size
    @pytest.mark.parametrize("cells", [1, 20, oracle._CHECK_CELLS])
    @checked
    @given(case=checked_pairs())
    @example(case=(Graph(0, []), []))
    @example(case=(Graph(0, []), [(0, 0), (0, 1), (1, 0), (0, -1)]))
    @example(case=(Graph(1, []), [(1, 1), (1, 0), (0, 0), (1, 0b10)]))
    @example(case=(Graph(9, [(0, 8), (7, 8)]), [(0x1FF, 0x7F), (0x181, 0x101), (0x181, 0x80)]))
    @example(case=(Graph(11, [(3, 10)]), []))
    def test_equals_reference_pair_by_pair(self, cells, case):
        g, pairs = case
        pairs = list(dict.fromkeys(pairs))
        # as run_scheme does, the pairs are checked on an unchecked transcript
        transcript = Transcript._from_checked(g.n, tuple(pairs))
        with patch.object(oracle, "_CHECK_CELLS", cells):
            bad = oracle._non_mis_pairs(g, transcript)
        assert bad == flagged_by_reference(g, pairs)
        # the columns it read hold every pair, in order, whatever the blocks
        assert transcript._columns == (
            pairs,
            ref.transpose_masks([q for q, _ in pairs], g.n),
            ref.transpose_masks([a for _, a in pairs], g.n),
        )


def per_index_run(g, scheme, answers):
    """run_scheme's outcome when each recorded pair is checked by the
    per-vertex definition in index order: the transcript, or the type and
    message of the error."""
    for index, (q, a) in enumerate(zip(scheme.masks, answers)):
        if a & ~q or not ref.is_mis(g, q, a):
            return OracleError, f"policy answer for query {index} is not an MIS"
    return Transcript(g.n, tuple(zip(scheme.masks, answers)))


class TestColumnCheckedRuns:
    """An answers policy's run fails as the per-index reference loop does:
    at the same first index, or not at all."""

    @pytest.mark.parametrize("cells", [1, oracle._CHECK_CELLS])
    @checked
    @given(data=st.data())
    def test_equals_per_index_is_mis(self, cells, data):
        g = data.draw(graphs(min_n=0, max_n=10))
        scheme = data.draw(pooled_scheme(g.n))
        # mostly MIS answers, so a run often gets past its first few pairs
        script = [data.draw(st.one_of(
            st.permutations(range(g.n)).map(lambda order: ref.greedy_mis(g, q, order)),
            st.permutations(range(g.n)).map(lambda order: ref.greedy_mis(g, q, order)),
            subsets(g.n, within=q),
            subsets(g.n),
        )) for q in scheme.masks]
        with patch.object(oracle, "_CHECK_CELLS", cells):
            try:
                outcome = run_scheme(g, scheme, Scripted(script))
            except OracleError as exc:
                outcome = type(exc), str(exc)
        assert outcome == per_index_run(g, scheme, script)


@st.composite
def transcripts(draw, max_n=12, max_t=300, max_pool=None):
    """Random transcripts; with max_pool, the queries come from a pool of
    that many masks and the answers from the subsets of each query's mask,
    so queries and answers repeat."""
    n = draw(st.integers(0, max_n))
    if max_pool is None:
        qmasks = draw(st.lists(subsets(n), max_size=max_t))
    else:
        pool = draw(st.lists(subsets(n), min_size=1, max_size=max_pool))
        qmasks = draw(st.lists(st.sampled_from(pool), max_size=max_t))
    entries = []
    for qmask in qmasks:
        amask = draw(subsets(n, within=qmask))
        entries.append((qmask, amask))
    return Transcript(n, tuple(entries))


def seeded_transcript(n, t, seed):
    """t random three-vertex queries, each with a random answer inside it.

    Longer than hypothesis lists tend to be, so decode sums several blocks of
    rows, and sparse enough that every block changes the result.
    """
    rng = random.Random(seed)
    entries = []
    for _ in range(t):
        q = mask_from_members(n, rng.sample(range(n), 3))
        entries.append((q, q & rng.getrandbits(n)))
    return Transcript(n, tuple(entries))


class TestDecode:
    @checked
    @given(tr=transcripts())
    @example(tr=Transcript(0, ()))
    @example(tr=Transcript(1, ()))
    @example(tr=Transcript(5, ()))
    @example(tr=seeded_transcript(11, 300, 1))
    def test_equals_pair_loop(self, tr):
        result = reconstruct.decode(tr.n, tr)
        assert (result.edges, result.unknown_pairs) == ref.decode(tr.n, tr)

    @checked
    @given(tr=transcripts(max_t=60, max_pool=4))
    def test_equals_pair_loop_with_repeated_masks(self, tr):
        result = reconstruct.decode(tr.n, tr)
        assert (result.edges, result.unknown_pairs) == ref.decode(tr.n, tr)

    @settings(deadline=None, max_examples=25)
    @given(tr=transcripts(max_n=70, max_t=140))
    @example(tr=seeded_transcript(70, 260, 2))
    def test_equals_pair_loop_on_wider_universes(self, tr):
        result = reconstruct.decode(tr.n, tr)
        assert (result.edges, result.unknown_pairs) == ref.decode(tr.n, tr)


@st.composite
def decode_runs(draw):
    """(g, policy) of graph_and_policy, or a graph on 0, 1 or 2 vertices
    under greedy-lex or random-MIS."""
    if draw(st.booleans()):
        g, policy, _ = draw(graph_and_policy())
        return g, policy
    g = draw(graphs(min_n=0, max_n=2))
    return g, draw(st.sampled_from([GreedyLexPolicy(), RandomMisPolicy(draw(SEEDS))]))


class TestColumnDecode:
    """decode reads co-occurrence off the transcript's vertex columns, built
    by the run's check or on first use, and equals the float32 Gram decode
    either way."""

    # one pair a block, a few pairs, and the library's block size
    @pytest.mark.parametrize("cells", [1, 20, oracle._CHECK_CELLS])
    @checked
    @given(data=st.data())
    def test_equals_gram_reference(self, cells, data):
        g, policy = data.draw(decode_runs())
        scheme = data.draw(pooled_scheme(g.n))
        with patch.object(oracle, "_CHECK_CELLS", cells):
            run = run_scheme(g, scheme, policy)
            rebuilt = Transcript(g.n, run.masks)
            # only a random-MIS run's check has built the columns decode reads
            built = ["_columns" in vars(t) for t in (run, rebuilt)]
            assert built == [isinstance(policy, RandomMisPolicy), False]
            results = [reconstruct.decode(g.n, t) for t in (run, rebuilt)]
        expected = ref.gram_decode(g.n, run)
        assert [(r.edges, r.unknown_pairs) for r in results] == [expected, expected]

    @pytest.mark.parametrize("policy", [RandomMisPolicy(5), GreedyLexPolicy()])
    def test_columns_are_built_once(self, policy, monkeypatch):
        # one block of pairs: its queries and its answers are transposed in
        # one call, by a random-MIS run's check or else by the first decode
        calls = []

        def counting_transpose(masks, width):
            calls.append(width)
            return transpose_masks(masks, width)

        monkeypatch.setattr(oracle, "transpose_masks", counting_transpose)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        run = run_scheme(g, QueryScheme(4, (0b1111, 0b0111, 0b1111, 0b1110)), policy)
        checked = len(calls)
        results = [reconstruct.decode(4, run) for _ in range(2)]
        assert (checked, calls) == (1 if isinstance(policy, RandomMisPolicy) else 0, [4])
        assert results[0] == results[1]

    # the threshold at 0, 1 and 7, so a transcript of up to 30 distinct pairs
    # takes a prefix of a quarter of them (0 to 7 bits) from that many pairs
    # up, and one over the transcript's pairs (None), so it takes none
    @pytest.mark.parametrize("prefix", [0, 1, 7, None])
    @checked
    @given(data=st.data())
    def test_any_prefix_equals_pair_loop(self, prefix, data):
        g, policy = data.draw(decode_runs())
        run = run_scheme(g, data.draw(pooled_scheme(g.n)), policy)
        with patch.object(reconstruct, "_DECODE_PREFIX", len(run) + 1 if prefix is None else prefix):
            result = reconstruct.decode(g.n, run)
        assert (result.edges, result.unknown_pairs) == ref.decode(g.n, run)

    def test_library_prefix_equals_pair_loop(self):
        # 2393 distinct pairs take a 598-bit prefix at the library's
        # threshold: 386 pairs share an answer inside it, 742 only past it
        # and 642 none
        tr = seeded_transcript(60, 2400, 1)
        assert len(set(tr.masks)) // 4 >= reconstruct._DECODE_PREFIX
        result = reconstruct.decode(60, tr)
        assert (result.edges, result.unknown_pairs) == ref.decode(60, tr)

    def test_run_columns_are_no_field(self):
        g = Graph(3, [(0, 1)])
        run = run_scheme(g, QueryScheme(3, (0b111, 0b011, 0b111)), RandomMisPolicy(5))
        rebuilt = Transcript(3, run.masks)
        reconstruct.decode(3, run)
        assert "_columns" in vars(run) and "_columns" not in vars(rebuilt)
        assert run == rebuilt and hash(run) == hash(rebuilt) and repr(run) == repr(rebuilt)


@st.composite
def graph_and_query(draw, max_n=7):
    g = draw(graphs(max_n=max_n))
    return g, draw(subsets(g.n))


# the 4-cycle 0-2-1-3: a branch of the pivoted search reaches P = {} with
# X != {}, a set that is independent but not maximal
C4 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


class TestMisFamily:
    @checked
    @given(case=graph_and_query())
    @example(case=(Graph.complete(7), 0))  # Q empty
    @example(case=(Graph.complete(7), 0b0010000))  # |Q| = 1
    @example(case=(Graph.empty(7), 0b1111111))  # G[Q] empty
    @example(case=(Graph.complete(7), 0b1111111))  # G[Q] complete
    @example(case=(C4, 0b1111))
    def test_equals_subset_scan(self, case):
        g, qmask = case
        fast = schemes._mis_family(g.adjacency_masks, qmask)
        assert fast == ref.mis_family(g.adjacency_masks, qmask)

    @pytest.mark.parametrize("n", range(6))
    def test_equals_subset_scan_on_every_labelled_graph(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        full = (1 << n) - 1
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pair for k, pair in enumerate(pairs) if bits >> k & 1])
            fast = schemes._mis_family(g.adjacency_masks, full)
            assert fast == ref.mis_family(g.adjacency_masks, full), g


@st.composite
def families(draw, max_n=7, max_ground=6):
    """Small families, so duplicate sets and empty intersections are common."""
    ground = draw(st.integers(0, max_ground))
    w = draw(st.integers(1, 3))
    n = draw(st.integers(w, max_n))
    sets = draw(
        st.lists(
            st.frozensets(st.integers(0, ground - 1), max_size=ground)
            if ground else st.just(frozenset()),
            min_size=n, max_size=n,
        )
    )
    return SetFamily.from_sets(ground, sets), w


def fam(ground, *sets):
    return SetFamily.from_sets(ground, sets)


class TestIsCoverFree:
    @checked
    @given(case=families(), r=st.integers(0, 8))
    @example(case=(fam(3, [0], [1], [2]), 1), r=0)
    @example(case=(fam(3, [0], [1], [2]), 1), r=5)  # clamped to n - w
    @example(case=(fam(3, [0, 1], [0, 1], [2]), 1), r=1)  # duplicate sets
    @example(case=(fam(4, [0, 1], [2, 3], [0, 2]), 2), r=0)  # empty intersection
    @example(case=(fam(4, [0, 1], [2, 3], [0, 2], [1]), 2), r=2)
    @example(case=(fam(5, [0, 1, 2], [0, 1, 3], [0, 2, 3], [4]), 3), r=1)
    def test_equals_frozenset_checker(self, case, r):
        f, w = case
        fast = is_cover_free(f, w, r)
        assert fast == ref.is_cover_free(f, w, min(r, f.n - w))


def query_scheme(n, *queries):
    return QueryScheme(n, tuple(mask_from_members(n, q) for q in queries))


@st.composite
def small_schemes(draw):
    n = draw(st.integers(1, 5))
    qmasks = draw(st.lists(subsets(n), max_size=8))
    return QueryScheme(n, tuple(qmasks))


class TestIsQueryScheme:
    @settings(deadline=None, max_examples=60)
    @given(scheme=small_schemes(), delta=st.sampled_from([0, 1, 2]))
    @example(scheme=query_scheme(5, *itertools.combinations(range(5), 2)), delta=2)
    # two queries of one size that induce equal adjacency rows on some graph
    @example(scheme=query_scheme(4, [0, 1, 3], [0, 1, 2], [0, 2, 3]), delta=2)
    # the first witness is graph pair (2, 41): rows 0 and 1 are separated
    @example(
        scheme=query_scheme(5, [0, 1, 2, 3], [0, 1, 2, 4], range(5), [1, 3, 4]),
        delta=2,
    )
    # an empty query separates nothing and a repeated one nothing more
    @example(
        scheme=query_scheme(5, [0, 1, 3], [], [0, 1, 3], [1, 2, 4], [2, 3, 4]),
        delta=2,
    )
    def test_equals_reference_pair_loop(self, scheme, delta):
        result = schemes.is_query_scheme(scheme, delta)
        assert result == ref.is_query_scheme(scheme, delta)


@st.composite
def incidences(draw, max_n=12, max_ground=30):
    """Families with any number of sets, the empty family and ground included."""
    ground = draw(st.integers(0, max_ground))
    masks = draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=max_n))
    return SetFamily(ground, tuple(masks))


@st.composite
def wide_masks(draw, max_width=130, max_rows=40):
    """(width, masks): any row count, so mostly no multiple of 8, widths on
    both sides of 8 and 64, and masks inside width bits, negative, or wider."""
    width = draw(st.integers(0, max_width))
    wide = st.integers(-(1 << width + 9), (1 << width + 9) - 1)
    inside = st.integers(0, (1 << width) - 1)
    return width, draw(st.lists(st.one_of(inside, wide), max_size=max_rows))


class TestMembershipTranspose:
    @checked
    @given(case=families(max_n=10, max_ground=8))
    def test_dual_equals_membership_scan(self, case):
        f, _ = case
        assert dual(f) == ref.dual(f)

    @checked
    @given(f=incidences())
    @example(f=SetFamily(0, ()))
    @example(f=SetFamily(0, (0, 0)))  # no ground element
    @example(f=SetFamily(13, ()))  # no set
    @example(f=SetFamily(17, ((1 << 17) - 1, 0b101, 0, 1 << 16)))  # a partial third block
    def test_one_byte_blocks_equal_membership_scan(self, f):
        # several blocks run, the last one partial when the ground is not a
        # multiple of 8
        with patch.object(util, "_TRANSPOSE_BYTES", 1):
            assert dual(f) == ref.dual(f)
            assert transpose_masks(f.masks, f.ground_size) == list(ref.dual(f).masks)

    # one-byte blocks and the library's block size
    @pytest.mark.parametrize("block", [1, util._TRANSPOSE_BYTES])
    @checked
    @given(case=wide_masks())
    @example(case=(0, []))
    @example(case=(0, [5, -1, 0]))
    @example(case=(8, [-1] * 9))
    @example(case=(64, [(1 << 70) - 1, -(1 << 63), 1 << 63]))
    def test_delta_swaps_equal_unpacked_bits(self, block, case):
        width, masks = case
        with patch.object(util, "_TRANSPOSE_BYTES", block):
            assert transpose_masks(masks, width) == ref.transpose_masks(masks, width)

    @checked
    @given(case=families(max_n=10, max_ground=8).filter(lambda case: case[0].n >= 2))
    def test_cff_queries_equal_membership_scan(self, case):
        # the family is verified at this size: a (2, 2)-cover-free one gives
        # its dual's queries, any other is refused
        f, _ = case
        build = lambda: schemes.cff_scheme(f.n, 1, builder=lambda *_: f)
        if ref.is_cover_free(f, 2, min(2, f.n - 2)):
            assert build().masks == ref.cff_queries(f.n, f)
        else:
            with pytest.raises(SchemeConstructionError):
                build()


def outcome(fn, *args):
    """fn(*args) with any generator drained, or the message of its ValueError."""
    try:
        result = fn(*args)
        return list(result) if inspect.isgenerator(result) else result
    except ValueError as exc:
        return ("ValueError", str(exc))


def _validated(members):
    """(member, max degree) of each member, after checking that the checked
    edge-list constructor rebuilds it and its maximum degree exactly."""
    out = []
    for g in members:
        again = Graph(g.n, g.edges)
        assert (again, again.delta, again.n) == (g, g.delta, g.n)
        out.append((g, g.delta))
    return out


@st.composite
def blocked_parts(draw, max_n=9):
    """Disjoint (U, W) of the blocked family's sizes, on n up to max_n
    vertices, some of them too few for the neighbour choices."""
    delta = draw(st.sampled_from([3, 4, 5]))
    u_size, w_size = math.ceil(delta / 3), delta // 3
    n = draw(st.integers(u_size + w_size, max_n))
    order = draw(st.permutations(range(n)))
    clique = mask_from_members(n, order[:u_size])
    block = mask_from_members(n, order[u_size : u_size + w_size])
    return n, delta, clique, block


class TestHiddenCliqueFamilies:
    """The plain family is the blocked one with W empty: one shape, one member
    builder and one enumerator must reproduce both former code paths."""

    @checked
    @given(n=st.integers(-2, 40), delta=st.integers(-2, 12), seed=SEEDS)
    @example(n=2, delta=2, seed=0)  # |U| = 1 fits, two slots do not
    @example(n=1, delta=4, seed=0)  # fewer vertices than |U|
    @example(n=5, delta=4, seed=0)  # exactly enough outside vertices
    @example(n=10, delta=2, seed=0)  # no forced block possible
    @example(n=3, delta=3, seed=0)  # U and W fit, their slots do not
    @example(n=4, delta=3, seed=0)  # the smallest blocked family
    @pytest.mark.parametrize("name", ["sample_clique_family", "sample_blocked_clique_family"])
    def test_samplers_equal_reference(self, name, n, delta, seed):
        fast = outcome(getattr(lib_graphs, name), n, delta, seed)
        assert fast == outcome(getattr(ref, name), n, delta, seed)

    @pytest.mark.parametrize("n", range(10))
    def test_plain_enumeration_equals_reference_in_order(self, n):
        for delta in range(-1, 10):
            fast = outcome(lib_graphs.enumerate_clique_family, n, delta)
            want = outcome(ref.enumerate_clique_family, n, delta)
            assert fast == want, delta
            if n > delta >= 1:
                assert _validated(fast) == [(g, g.delta) for g in want]
                assert lib_graphs.clique_family_size(n, delta) == len(fast)
                assert len(fast) == ref.clique_family_size(n, delta)

    @settings(deadline=None, max_examples=60)
    @given(case=blocked_parts())
    def test_blocked_enumeration_equals_reference_in_order(self, case):
        n, delta, clique, block = case
        desc = lib_graphs.AdversarialFamilyDesc(
            n=n, delta=delta, clique=clique, forced_block=block
        )
        fast = outcome(lib_graphs.enumerate_family, desc)
        want = outcome(ref.enumerate_blocked_clique_family, n, delta, clique, block)
        assert fast == want
        if isinstance(want, list):
            assert _validated(fast) == [(g, g.delta) for g in want]

    def test_enumeration_cap_equals_reference(self, set_cap):
        set_cap(lib_graphs, "ENUM_CAP", 14_399)
        with pytest.raises(CapExceededError) as fast:
            list(lib_graphs.enumerate_clique_family(12, 4))
        with pytest.raises(CapExceededError) as want:
            list(ref.enumerate_clique_family(12, 4, cap=14_399))
        assert str(fast.value) == str(want.value)
        set_cap(lib_graphs, "ENUM_CAP", 14_400)
        assert len(list(lib_graphs.enumerate_clique_family(12, 4))) == 14_400

    @pytest.mark.parametrize("variant", ["clique", "clique-block"])
    def test_family_count_check_equals_reference(self, variant):
        blocked = variant == "clique-block"
        for n in range(16):
            for delta in range(-1, 10):
                try:
                    want = ref.family_count_check(n, delta, variant).to_json()
                except ValueError:
                    # only the kind is compared: the blocked family's
                    # delta < 3 message is the one graphs.family_shape raises
                    with pytest.raises(ValueError):
                        lowerbounds.family_count_check(n, delta, blocked)
                    continue
                assert lowerbounds.family_count_check(n, delta, blocked).to_json() == want


@st.composite
def family_descs(draw, max_n=7):
    """Plain and blocked hidden-clique families with U and W anywhere, on n
    up to max_n vertices, each with room for its members."""
    blocked = draw(st.booleans())
    delta = draw(st.sampled_from([3, 4, 5] if blocked else [1, 2, 3, 4]))
    u_size, w_size, _ = lib_graphs.family_shape(delta, blocked)
    n = draw(st.integers(delta + 1, max_n))
    order = draw(st.permutations(range(n)))
    return lib_graphs.AdversarialFamilyDesc(
        n, delta, mask_from_members(n, order[:u_size]),
        mask_from_members(n, order[u_size : u_size + w_size]),
    )


def first_refused_index(g, scheme, policy):
    """The first index whose answer the policy refuses with OracleError or
    is_mis rejects, or None."""
    for index, q in enumerate(scheme.masks):
        try:
            if not ref.is_mis(g, q, policy.answer(g, q, index)):
                return index
        except OracleError:
            return index
    return None


class TestAdversarialAnswers:
    """The one-pass clique adversary against the reference that checks its
    own candidate: the same answers on family members, and on any other
    graph a run refused at the index where the reference run is."""

    @settings(deadline=None, max_examples=40)
    @given(desc=family_descs())
    def test_equals_reference_on_every_member_and_query(self, desc):
        policy, reference = AdversarialCliquePolicy(desc), ref.AdversarialCliquePolicy(desc)
        for g in lib_graphs.enumerate_family(desc):
            for q in range(1 << desc.n):
                assert policy.answer(g, q, 0) == reference.answer(g, q, 0)

    @checked
    @given(data=st.data())
    def test_run_refused_exactly_where_the_reference_run_is(self, data):
        desc = data.draw(family_descs(max_n=8))
        n = desc.n
        if data.draw(st.booleans()):
            g = data.draw(graphs(min_n=n, max_n=n))
        else:
            # a member with at most two pairs flipped, so that some runs pass
            member = data.draw(st.sampled_from(list(lib_graphs.enumerate_family(desc))))
            flips = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                      max_size=2))
            g = Graph(n, sorted(set(member.edges) ^ flips))
        scheme = data.draw(pooled_scheme(n))
        reference = ref.AdversarialCliquePolicy(desc)
        refused = first_refused_index(g, scheme, reference)
        if refused is None:
            want = ref.run_scheme(g, scheme, reference)
            assert run_scheme(g, scheme, AdversarialCliquePolicy(desc)) == want
        else:
            with pytest.raises(OracleError, match=f"^policy answer for query {refused} is not"):
                run_scheme(g, scheme, AdversarialCliquePolicy(desc))
