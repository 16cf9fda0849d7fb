"""Transcript-profile counting, answer statistics, and exact family counts."""

import json
import math
import random
from fractions import Fraction

import pytest

from misrecon import lowerbounds
from misrecon.graphs import enumerate_clique_family, enumerate_family, clique_family_desc
from misrecon.lowerbounds import (
    best_decoder_success,
    bound_table,
    bound_table_csv,
    dq_statistics,
    family_count_check,
    per_query_answer_bound,
    profile_count,
)
from misrecon.schemes import QueryScheme, random_queries
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


def clique_members(n, delta):
    return list(enumerate_clique_family(n, delta))


class TestProfileCount:
    def test_empty_scheme_single_profile(self):
        desc = clique_family_desc(9, 2)
        report = profile_count(QueryScheme(9, ()), clique_members(9, 2), desc)
        assert report.measured["distinct_transcripts"] == 1
        assert report.measured["family_size"] == 28
        assert report.measured["best_decoder_success"] == Fraction(1, 28)
        assert report.passed

    @pytest.mark.parametrize("seed", range(10))
    def test_two_random_queries_within_flat_bound(self, seed):
        desc = clique_family_desc(9, 2)
        scheme = random_queries(9, 2, 0.5, seed=seed)
        report = profile_count(scheme, clique_members(9, 2), desc)
        assert report.measured["distinct_transcripts"] <= 9  # (delta+1)^2
        assert report.passed

    def test_query_outside_clique_contributes_factor_one(self):
        desc = clique_family_desc(9, 2)
        outside_query = QueryScheme(9, (0b111000,))
        assert per_query_answer_bound(outside_query, desc) == 1
        report = profile_count(outside_query, clique_members(9, 2), desc)
        assert report.measured["distinct_transcripts"] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_forced_block_refines_bound(self, seed):
        # product bound uses D_Q = 1 whenever the query meets W
        from misrecon.graphs import AdversarialFamilyDesc

        desc = AdversarialFamilyDesc(n=12, delta=3, clique=0b01, forced_block=0b10)
        family = list(enumerate_family(desc))
        scheme = random_queries(12, 3, 0.5, seed=seed)
        report = profile_count(scheme, family, desc)
        assert report.passed


    def test_answers_over_cap_refused_before_answering(self, set_cap):
        # 2 queries over the 28 members hold 56 answers
        desc = clique_family_desc(9, 2)
        scheme = random_queries(9, 2, 0.5, seed=1)
        set_cap(lowerbounds, "ANSWER_CAP", 56)
        assert profile_count(scheme, clique_members(9, 2), desc).passed

        def unanswerable():
            raise AssertionError("answered a member")
            yield

        set_cap(lowerbounds, "ANSWER_CAP", 55)
        for count in (profile_count, best_decoder_success):
            with pytest.raises(CapExceededError, match=r"^2 queries x 28 = 56 answers exceed cap 55$"):
                count(scheme, unanswerable(), desc)

    @pytest.mark.parametrize("count", [profile_count, best_decoder_success])
    def test_empty_family_refused(self, count):
        desc = clique_family_desc(9, 2)
        with pytest.raises(ValueError, match=r"^family is empty$"):
            count(random_queries(9, 2, 0.5, seed=1), [], desc)


class TestBestDecoderSuccess:
    def test_pair_scheme_separates_whole_family(self):
        desc = clique_family_desc(7, 2)
        assert best_decoder_success(pair_scheme(7), clique_members(7, 2), desc) == 1

    def test_empty_scheme_reciprocal_family_size(self):
        desc = clique_family_desc(9, 2)
        rate = best_decoder_success(QueryScheme(9, ()), clique_members(9, 2), desc)
        assert rate == Fraction(1, 28)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_query_capped_by_answer_count(self, seed):
        desc = clique_family_desc(9, 2)
        scheme = random_queries(9, 1, 0.5, seed=seed)
        rate = best_decoder_success(scheme, clique_members(9, 2), desc)
        assert rate <= Fraction(3, 28)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_scheme_prefix(self, seed):
        desc = clique_family_desc(8, 2)
        family = clique_members(8, 2)
        scheme = random_queries(8, 6, 0.5, seed=seed)
        rates = [
            best_decoder_success(
                QueryScheme(8, scheme.masks[:k]), family, desc
            )
            for k in range(len(scheme) + 1)
        ]
        assert rates == sorted(rates)


class TestDqStatistics:
    def test_full_queries_meet_block(self):
        report = dq_statistics(
            30, 6, lambda s: QueryScheme(30, ((1 << 30) - 1,)), 50, seed=1
        )
        assert report.measured["mean_log_answers"] == 0.0
        assert report.passed

    def test_empty_queries_single_answer(self):
        report = dq_statistics(
            30, 6, lambda s: QueryScheme(30, (0,)), 50, seed=2
        )
        assert report.measured["mean_log_answers"] == 0.0
        assert report.measured["clique_hit_rate"] == 0.0

    def test_random_queries_within_ceilings(self):
        report = dq_statistics(
            60, 6, lambda s: random_queries(60, 1, 1 / 7, s), 400, seed=3
        )
        assert report.passed
        assert report.measured["mean_log_answers"] <= 4.0

    def test_answers_over_cap_refused_after_the_first_trial(self, set_cap):
        drawn = []

        def scheme_gen(seed):
            drawn.append(seed)
            return QueryScheme(30, (0,) * 5)

        set_cap(lowerbounds, "ANSWER_CAP", 50)
        assert dq_statistics(30, 6, scheme_gen, 10, seed=1).measured["samples_log"] == 50
        set_cap(lowerbounds, "ANSWER_CAP", 49)
        drawn.clear()
        with pytest.raises(CapExceededError, match=r"^5 queries x 10 = 50 answers exceed cap 49$"):
            dq_statistics(30, 6, scheme_gen, 10, seed=1)
        assert len(drawn) == 1

    def test_small_delta_rejected(self):
        with pytest.raises(ValueError):
            dq_statistics(10, 2, lambda s: QueryScheme(10, ()), 10, seed=0)


class TestFamilyCountCheck:
    def test_square_example(self):
        report = family_count_check(9, 2)
        assert report.measured["exact_count"] == 28
        assert report.bounds["binomial_bound"] == 7
        assert report.passed

    def test_forced_block_example(self):
        report = family_count_check(12, 3, blocked=True)
        assert report.measured["exact_count"] == 45  # C(10,2)
        assert report.passed

    def test_degree_one(self):
        report = family_count_check(8, 1)
        assert report.measured["exact_count"] == 7
        assert report.passed

    @pytest.mark.parametrize("n", range(6, 16))
    def test_chain_on_grid(self, n):
        for delta in range(1, n // 3 + 1):
            assert family_count_check(n, delta).passed

    @pytest.mark.parametrize("n,delta", [(9, 2), (6, 1), (8, 3), (10, 4)])
    def test_exact_count_matches_enumeration(self, n, delta):
        report = family_count_check(n, delta)
        assert report.measured["exact_count"] == len(clique_members(n, delta))


class TestBoundTable:
    def test_doubling_n_adds_delta_squared_log_two(self):
        report = bound_table([30, 60], [4])
        rows = {row["n"]: row for row in report.measured["rows"]}
        diff = rows[60]["lb_rand_nonadaptive"] - rows[30]["lb_rand_nonadaptive"]
        assert abs(diff - 16 * math.log(2)) < 1e-9

    def test_clamped_rows_flagged(self):
        report = bound_table([6], [2, 3, 5])
        rows = {row["delta"]: row for row in report.measured["rows"]}
        assert not rows[2]["clamped"]
        assert rows[3]["clamped"] and rows[3]["delta_effective"] == 2.0
        assert rows[5]["clamped"]

    def test_serialization_round_trip_stable(self):
        report = bound_table([6, 9], [1, 2])
        text = report.to_json()
        assert json.loads(text) == report.to_json_dict()
        assert report.to_json() == text

    @pytest.mark.parametrize(
        "n_values, delta_values",
        [([], [1]), ([6], []), ([0, 1], [1]), ([2, 3], [0, 3]), ([4, 5], [0, 5])],
    )
    def test_no_valid_pair_is_value_error(self, n_values, delta_values):
        with pytest.raises(ValueError, match="no \\(n, delta\\) pair"):
            bound_table(n_values, delta_values)

    def test_csv_emission(self):
        report = bound_table([6, 9], [1, 2])
        csv = bound_table_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("n,delta,clamped")
        assert len(lines) == 1 + len(report.measured["rows"])
