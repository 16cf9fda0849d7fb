"""Scheme construction, the distinguishing property, and cover-free duality."""

import math
import random

import pytest

from misrecon.coverfree import SetFamily, is_cover_free
from misrecon.graphs import Graph, VertexSet, enumerate_bounded_degree_graphs
from misrecon.schemes import (
    QueryScheme,
    SchemeConstructionError,
    SchemeViolation,
    cff_scheme,
    duality_check,
    is_query_scheme,
    random_queries,
    randomized_scheme,
)
from misrecon.util import CapExceededError, derive_seed
from scalar_reference import common_mis


def pair_scheme(n):
    return QueryScheme(
        n,
        tuple(
            VertexSet.from_members(n, [u, v])
            for u in range(n)
            for v in range(u + 1, n)
        ),
    )


def singleton_scheme(n):
    return QueryScheme(n, tuple(VertexSet.from_members(n, [v]) for v in range(n)))


class TestRandomizedScheme:
    def test_certain_inclusion_gives_full_queries(self):
        scheme = randomized_scheme(10, 2, c=0.5, p=1.0, seed=3)
        assert all(q == VertexSet.full(10) for q in scheme.queries)

    def test_query_count_formula(self):
        scheme = randomized_scheme(100, 4, c=2.0, p=0.2, seed=1)
        assert len(scheme) == 148  # ceil(2 * 16 * ln 100)

    def test_mean_query_size_concentrates(self):
        n, p = 100, 0.2
        scheme = randomized_scheme(n, 4, c=2.0, p=p, seed=7)
        t = len(scheme)
        mean = sum(len(q) for q in scheme.queries) / t
        assert abs(mean - p * n) <= 3 * math.sqrt(n * p * (1 - p) / t)

    def test_deterministic(self):
        a = randomized_scheme(30, 3, c=1.0, p=0.3, seed=11)
        b = randomized_scheme(30, 3, c=1.0, p=0.3, seed=11)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            randomized_scheme(10, 2, c=0.0, p=0.5, seed=0)
        with pytest.raises(ValueError):
            random_queries(10, 3, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_queries(10, 3, 1.2, seed=0)


class TestCffScheme:
    def test_dual_reproduces_builder_family(self):
        captured = {}

        def builder(n, w, r, seed):
            from misrecon.coverfree import random_cff

            captured["family"] = random_cff(n, w, r, c=2.0, seed=seed)
            return captured["family"]

        scheme = cff_scheme(6, 1, builder=builder, seed=5)
        family = captured["family"]
        assert len(scheme) == family.ground_size
        assert scheme.dual_family() == family

    def test_singleton_identity_family_rejected(self):
        def builder(n, w, r, seed):
            return SetFamily.from_sets(n, ([v] for v in range(n)))

        with pytest.raises(SchemeConstructionError):
            cff_scheme(5, 1, builder=builder, seed=0)

    def test_small_case_three_vertices(self):
        scheme = cff_scheme(3, 1, seed=2)
        assert scheme.n == 3
        assert is_cover_free(scheme.dual_family(), 2, 2) is True

    def test_verification_cap_respected(self):
        with pytest.raises(CapExceededError):
            cff_scheme(6, 2, seed=0, verify=True, check_cap=1)

    def test_skip_verification(self):
        def builder(n, w, r, seed):
            return SetFamily.from_sets(n, ([v] for v in range(n)))

        scheme = cff_scheme(4, 1, builder=builder, seed=0, verify=False)
        assert len(scheme) == 4

    def test_fewer_than_two_vertices_rejected_first(self):
        # a builder that honours n = 1 used to reach math.comb(n - 2, ...)
        def builder(n, w, r, seed):
            return SetFamily.from_sets(1, ([v] for v in range(n)))

        for n in (0, 1):
            with pytest.raises(ValueError, match="need n >= 2"):
                cff_scheme(n, 1, builder=builder, seed=0)


class TestIsQueryScheme:
    def test_pair_scheme_distinguishes(self):
        assert is_query_scheme(pair_scheme(5), 2) is True

    def test_single_full_query_fails(self):
        result = is_query_scheme(QueryScheme(4, (VertexSet.full(4),)), 2)
        assert isinstance(result, SchemeViolation)
        # audit the witness: some MIS is maximal in both induced subgraphs
        assert common_mis(result.g, result.h, VertexSet.full(4)) is not None
        assert result.g != result.h

    def test_empty_scheme_fails_with_trivial_pair(self):
        result = is_query_scheme(QueryScheme(3, ()), 1)
        assert isinstance(result, SchemeViolation)
        sizes = sorted((result.g.num_edges, result.h.num_edges))
        assert sizes == [0, 1]

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_query_scheme(pair_scheme(6), 2, cap=10)

    def test_c02_slice_verdicts_and_witnesses(self):
        # the delta=2 random schemes 0..5 of the c02 acceptance corpus, built
        # as c02 builds them; each first witness is a pair of indices into
        # enumerate_bounded_degree_graphs(6, 2), as the all-pairs loop found it
        rng = random.Random(20_000)
        corpus = []
        for delta in (1, 2):
            for i in range(26):
                t = rng.randint(1, 12)
                p = rng.uniform(0.15, 0.9)
                if delta == 2:
                    corpus.append(random_queries(6, t, p, seed=derive_seed(7, delta, i)))
        graphs = enumerate_bounded_degree_graphs(6, 2)
        index = {g: k for k, g in enumerate(graphs)}
        witnesses = []
        for scheme in corpus[:6]:
            result = is_query_scheme(scheme, 2)
            assert isinstance(result, SchemeViolation)
            witnesses.append((index[result.g], index[result.h]))
        assert [len(s) for s in corpus[:6]] == [3, 7, 4, 9, 1, 5]
        assert witnesses == [(1, 2), (1, 3), (0, 1), (2, 10), (1, 2), (0, 8)]

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_always_audits(self, seed):
        scheme = random_queries(5, 3, 0.4, seed=seed)
        result = is_query_scheme(scheme, 2)
        if isinstance(result, SchemeViolation):
            for q in scheme.queries:
                assert common_mis(result.g, result.h, q) is not None


class TestDualityCheck:
    def test_cff_scheme_both_directions(self):
        scheme = cff_scheme(5, 1, seed=1)
        report = duality_check(scheme, 1)
        assert report.is_scheme
        assert report.dual_cover_free_necessary
        assert report.dual_cover_free_sufficient
        assert report.ok

    def test_singleton_scheme_fails_both_sides(self):
        report = duality_check(singleton_scheme(5), 1)
        assert not report.is_scheme
        # pairwise intersections of distinct singleton duals are empty
        assert not report.dual_cover_free_necessary
        assert not report.dual_cover_free_sufficient
        assert report.ok  # implications hold vacuously

    @pytest.mark.parametrize("seed", range(12))
    def test_random_sweep_no_violations(self, seed):
        rng = random.Random(seed)
        t = rng.randint(1, 12)
        p = rng.uniform(0.2, 0.9)
        scheme = random_queries(6, t, p, seed=seed)
        report = duality_check(scheme, 2)
        assert report.ok

    def test_pair_scheme_duality(self):
        report = duality_check(pair_scheme(5), 2)
        assert report.is_scheme
        assert report.dual_cover_free_necessary
        assert report.ok


class TestSchemeFiles:
    def test_round_trip_with_empty_query(self):
        scheme = QueryScheme(
            5,
            (
                VertexSet.from_members(5, [0, 4]),
                VertexSet(5),
                VertexSet.from_members(5, [1, 2, 3]),
            ),
        )
        text = scheme.to_text()
        assert QueryScheme.from_text(text) == scheme
        assert QueryScheme.from_text(text).to_text() == text

    def test_header_shape(self):
        assert pair_scheme(3).to_text().startswith("3 3\n")

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            QueryScheme.from_text("")
        with pytest.raises(ValueError):
            QueryScheme.from_text("4 2\n0 1\n")
