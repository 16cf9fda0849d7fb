"""Cover-free machinery: dual, checker, constructions, sampling experiments.

Derived expectations are frozen from independent oracles computed here:
tuple-sampling violation search for the checker, full tuple enumeration for
the survivor-count expectation, and the Sperner antichain formula for the
minimal ground sizes at w = r = 1.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from misrecon.coverfree import (
    GROUND_CAP,
    CffConstructionError,
    CffParams,
    CoverViolation,
    SetFamily,
    alpha_product_bound,
    dual,
    exact_t,
    is_cover_free,
    survivor_count_experiment,
    cover_witness_search,
    random_cff,
    random_set_family,
)
from misrecon.util import CapExceededError


def fam(t, *sets):
    return SetFamily.from_sets(t, sets)


class TestSetFamily:
    def test_element_range_enforced(self):
        with pytest.raises(ValueError):
            fam(2, [0, 2])

    def test_membership_masks(self):
        f = fam(3, [0, 1], [1], [])
        assert f.membership_masks() == [0b001, 0b011, 0b000]

    def test_text_round_trip_with_empty_set(self):
        f = fam(5, [0, 3], [], [1, 2, 4])
        text = f.to_text()
        assert SetFamily.from_text(text) == f
        assert SetFamily.from_text(text).to_text() == text

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            SetFamily.from_text("")
        with pytest.raises(ValueError):
            SetFamily.from_text("3 2\n0 1\n")
        # a line past the counted ones is refused; trailing blank lines are not
        with pytest.raises(ValueError, match="found extra line '2'"):
            SetFamily.from_text("3 1\n0 1\n2\n")
        assert SetFamily.from_text("3 1\n0 1\n\n \n") == fam(3, [0, 1])
        # a member that is not an integer is reported with its line
        with pytest.raises(ValueError, match=r"^bad member line: '0 x'$"):
            SetFamily.from_text("3 1\n0 x\n")

    @pytest.mark.parametrize(
        "build",
        [lambda: SetFamily.from_text("-1 0\n"), lambda: SetFamily(-1, ())],
    )
    def test_negative_ground_size_rejected(self, build):
        with pytest.raises(ValueError, match="ground size must be >= 0, got -1"):
            build()

    @pytest.mark.parametrize("mask", [0b100, -1])
    def test_mask_outside_ground_rejected(self, mask):
        with pytest.raises(ValueError, match="outside ground set"):
            SetFamily(2, (0b01, mask))

    def test_sets_view(self):
        f = SetFamily(4, (0b1010, 0))
        assert f.sets == (frozenset({1, 3}), frozenset())
        assert SetFamily.from_sets(4, f.sets) == f


class TestDual:
    def test_symmetric_singletons(self):
        f = fam(2, [0], [1])
        assert dual(f) == fam(2, [0], [1])

    def test_empty_sets_dualize_to_empty(self):
        f = fam(3, [], [])
        assert dual(f) == fam(2, [], [], [])

    def test_duplicates_kept(self):
        f = fam(2, [0, 1], [0, 1])
        d = dual(f)
        assert d.sets == (frozenset({0, 1}), frozenset({0, 1}))
        assert d.has_duplicates()

    @pytest.mark.parametrize("seed", range(50))
    def test_double_dual_preserves_incidence(self, seed):
        rng = random.Random(seed)
        t, n = rng.randint(1, 8), rng.randint(1, 8)
        f = SetFamily.from_sets(
            t,
            tuple(
                frozenset(x for x in range(t) if rng.random() < 0.5)
                for _ in range(n)
            ),
        )
        dd = dual(dual(f))
        assert dd.ground_size == f.ground_size
        assert dd.n == f.n
        for i, s in enumerate(f.sets):
            for x in range(t):
                assert (x in s) == (x in dd.sets[i])

    def test_incidence_transposed(self):
        f = fam(4, [0, 2], [1, 2], [3])
        d = dual(f)
        for x in range(f.ground_size):
            for i in range(f.n):
                assert (x in f.sets[i]) == (i in d.sets[x])


def random_tuple_violation(f, w, r, trials, seed):
    """Independent oracle: sample tuples with repetition per the definition."""
    rng = random.Random(seed)
    n = f.n
    for _ in range(trials):
        a_sets = [f.sets[rng.randrange(n)] for _ in range(w)]
        chosen = set(a_sets)
        rest = [s for s in f.sets if s not in chosen]
        if not rest:
            continue
        b_sets = [rest[rng.randrange(len(rest))] for _ in range(r)]
        inter = frozenset.intersection(*a_sets)
        union = frozenset.union(*b_sets) if b_sets else frozenset()
        if inter <= union:
            return True
    return False


class TestIsCoverFree:
    def test_disjoint_singletons(self):
        assert is_cover_free(fam(3, [0], [1], [2]), 1, 2) is True

    def test_union_cover_witness(self):
        result = is_cover_free(fam(2, [0, 1], [0], [1]), 1, 2)
        assert isinstance(result, CoverViolation)
        assert not result
        assert result.a_indices == (0,)
        assert result.b_indices == (1, 2)
        assert result.covered == (0, 1)

    def test_duplicate_sets_rejected_as_witness(self):
        result = is_cover_free(fam(3, [0, 1], [0, 1], [2]), 1, 1)
        assert isinstance(result, CoverViolation)

    def test_r_zero_convention(self):
        # empty union covers exactly the empty set
        assert is_cover_free(fam(3, [0, 1], [1, 2]), 2, 0) is True
        assert isinstance(is_cover_free(fam(2, [0], [1]), 2, 0), CoverViolation)

    def test_r_clamped_to_family_size(self):
        # only one non-A set exists; r=2 reduces to r=1
        f = fam(3, [0, 1], [0, 2], [1, 2])
        assert is_cover_free(f, 2, 2) is True
        assert is_cover_free(f, 2, 5) is True

    def test_nested_pair_never_cover_free(self):
        for seed in range(20):
            rng = random.Random(seed)
            t = rng.randint(2, 8)
            small = frozenset(x for x in range(t) if rng.random() < 0.4)
            big = small | {rng.randrange(t)}
            other = frozenset(x for x in range(t) if rng.random() < 0.5)
            if other in (small, big):
                continue
            f = SetFamily.from_sets(t, (small, big, other))
            assert not is_cover_free(f, 1, 2)

    @pytest.mark.parametrize("seed", range(200))
    def test_agreement_with_tuple_sampling_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        t = rng.randint(max(4, n.bit_length() + 1), 16)
        w = rng.randint(1, 2)
        r = rng.randint(1, 3)
        f = random_set_family(n, t, rng.uniform(0.2, 0.8), seed=seed)
        if random_tuple_violation(f, w, r, trials=200, seed=seed + 1):
            assert not is_cover_free(f, w, r)

    @pytest.mark.parametrize("seed", range(40))
    def test_monotone_in_r(self, seed):
        rng = random.Random(seed)
        f = random_set_family(6, rng.randint(4, 10), 0.5, seed=seed)
        r_hi = rng.randint(2, 4)
        if is_cover_free(f, 1, r_hi) is True:
            for r in range(1, r_hi):
                assert is_cover_free(f, 1, r) is True

    def test_cap(self):
        f = random_set_family(12, 6, 0.5, seed=0)
        with pytest.raises(CapExceededError):
            is_cover_free(f, 2, 4, cap=10)


class TestRandomCff:
    def test_small_families_verify(self):
        # brute-force verification loop over seeds
        good = sum(
            1
            for seed in range(100)
            if is_cover_free(random_cff(8, 1, 2, c=2.0, seed=seed), 1, 2) is True
        )
        assert good >= 90

    def test_two_sets_distinct(self):
        for seed in range(30):
            f = random_cff(2, 1, 1, c=2.0, seed=seed)
            assert f.n == 2 and not f.has_duplicates()

    def test_ground_size_formula(self):
        f = random_cff(8, 1, 2, c=2.0, seed=1)
        assert f.ground_size == math.ceil(2.0 * 3**4 / 4 * math.log(8))

    def test_membership_frequency(self):
        # c chosen so the ground size passes 500; w/(w+r) = 1/3
        f = random_cff(8, 1, 2, c=25.0, seed=3)
        assert f.ground_size >= 500
        freq = sum(len(s) for s in f.sets) / (f.n * f.ground_size)
        assert abs(freq - 1 / 3) < 0.05

    def test_construction_failure_reported(self):
        # 3 distinct subsets of a 1-element ground set do not exist
        with pytest.raises((CffConstructionError, ValueError)):
            random_set_family(3, 1, 0.5, seed=0)

    def test_ground_over_cap_refused_before_drawing(self):
        with pytest.raises(CapExceededError, match=f"ground size {GROUND_CAP + 1} "):
            random_set_family(3, GROUND_CAP + 1, 0.5, seed=0)
        # a family that large may exist, but its per-element view is refused
        f = SetFamily(GROUND_CAP + 1, (1, 2))
        for per_element in (f.membership_masks, lambda: dual(f)):
            with pytest.raises(CapExceededError, match=f"exceeds cap {GROUND_CAP}$"):
                per_element()
        assert len(SetFamily(GROUND_CAP, (1, 2)).membership_masks()) == GROUND_CAP


def sperner_minimal_ground(n):
    t = 1
    while math.comb(t, t // 2) < n:
        t += 1
    return t


class TestExactT:
    def test_two_sets_need_two_elements(self):
        assert exact_t(2, 1, 1, t_max=4) == 2

    def test_six_sets_need_four_elements(self):
        assert exact_t(6, 1, 1, t_max=6) == 4

    def test_three_sets_one_two(self):
        assert exact_t(3, 1, 2, t_max=4) == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_w1_r1_matches_sperner(self, n):
        assert exact_t(n, 1, 1, t_max=5) == sperner_minimal_ground(n)

    def test_nondecreasing_in_n_and_r(self):
        in_n = [exact_t(n, 1, 1, t_max=5) for n in range(2, 7)]
        assert in_n == sorted(in_n)
        in_r = [exact_t(4, 1, r, t_max=5) for r in (1, 2, 3)]
        assert in_r == sorted(in_r)

    def test_not_found(self):
        assert exact_t(6, 1, 1, t_max=3) is None

    def test_cap(self):
        with pytest.raises(CapExceededError):
            exact_t(6, 1, 1, t_max=6, cap=100)

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_t_max_below_one_is_value_error(self, t_max):
        with pytest.raises(ValueError, match="need t_max >= 1"):
            exact_t(4, 1, 1, t_max=t_max)


class TestAlphaProductBound:
    def test_symmetric_one_one(self):
        # odd grid contains the maximiser 1/2 exactly
        assert alpha_product_bound(1, 1, 101) == 0.0

    def test_two_two_peak_value(self):
        dev = alpha_product_bound(2, 2, 100_001)
        assert -1e-8 < dev <= 1e-12

    def test_skewed_pair(self):
        assert alpha_product_bound(2, 10, 100_001) <= 1e-12

    @pytest.mark.parametrize("w", range(1, 9))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_never_exceeds_closed_form(self, w, r):
        assert alpha_product_bound(w, r, 10_001) <= 1e-12


def exact_expected_survivors(f: SetFamily, w: int, r: int) -> Fraction:
    """Exhaustive enumeration of the (A-tuple, B-tuple) draw."""
    n = f.n
    total = Fraction(0)
    for a_tuple in itertools.product(range(n), repeat=w):
        distinct = frozenset(a_tuple)
        rest = [i for i in range(n) if i not in distinct]
        for b_tuple in itertools.product(rest, repeat=r):
            count = 0
            for x in range(f.ground_size):
                if all(x in f.sets[i] for i in a_tuple) and all(
                    x not in f.sets[j] for j in b_tuple
                ):
                    count += 1
            total += Fraction(count, n**w * len(rest) ** r)
    return total


class TestSurvivorCounts:
    def test_singletons_always_one_survivor(self):
        f = fam(6, [0], [1], [2], [3], [4], [5])
        report = survivor_count_experiment(f, CffParams(1, 1), trials=400, seed=2)
        assert report.measured["mean_X"] == 1.0
        assert report.passed
        assert exact_expected_survivors(f, 1, 1) == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_monte_carlo_matches_exhaustive_expectation(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        t = rng.randint(max(3, n.bit_length() + 1), 12)
        w = rng.randint(1, 2)
        r = rng.randint(1, 2)
        f = random_set_family(n, t, rng.uniform(0.2, 0.8), seed=seed)
        trials = 4000
        report = survivor_count_experiment(f, CffParams(w, r), trials=trials, seed=seed + 1)
        exact = float(exact_expected_survivors(f, w, r))
        sigma = math.sqrt(report.measured["var_X"] / trials)
        slack = max(5 * sigma, 1e-9)
        assert abs(report.measured["mean_X"] - exact) <= slack
        # the per-family ceiling dominates the true expectation
        assert exact <= report.bounds["exact_ceiling"] + 1e-12
        assert report.bounds["exact_ceiling"] <= report.bounds["flat_ceiling"] + 1e-12
        assert report.passed

    def test_duplicates_rejected(self):
        f = fam(3, [0], [0])
        with pytest.raises(ValueError):
            survivor_count_experiment(f, CffParams(1, 1), trials=10, seed=0)


class TestCoverWitness:
    def test_disjoint_singletons_never_witness(self):
        f = fam(6, [0], [1], [2], [3], [4], [5])
        report = cover_witness_search(f, CffParams(1, 1, s=2), trials=500, seed=4)
        assert report.measured["witness_found"] == 0
        assert report.passed

    @pytest.mark.parametrize("seed", range(20))
    def test_every_witness_verifies(self, seed):
        rng = random.Random(seed)
        f = random_set_family(rng.randint(5, 8), rng.randint(3, 10), 0.5, seed=seed)
        report = cover_witness_search(
            f, CffParams(1, 2, s=2), trials=500, seed=seed + 1
        )
        assert report.passed  # verified == found

    def test_cover_free_family_admits_no_witness(self):
        # a verified (w, r+s)-cover-free family cannot fail (w, r+|X|)-freeness
        # with |X| <= s, so the search must come up empty
        w, r, s = 1, 2, 1
        found = None
        for seed in range(50):
            f = random_cff(6, w, r + s, c=2.0, seed=seed)
            if is_cover_free(f, w, r + s) is True:
                found = f
                break
        assert found is not None
        report = cover_witness_search(found, CffParams(w, r, s), trials=800, seed=9)
        assert report.measured["witness_found"] == 0


class TestCffParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CffParams(0, 1)
        with pytest.raises(ValueError):
            CffParams(1, 1, s=0)
