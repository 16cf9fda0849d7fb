import pytest

from misrecon.util import derive_seed, run_seeded_trials


class TestRunSeededTrials:
    def test_trial_i_gets_derived_seed_in_index_order(self):
        seen = []

        def trial(trial_seed: int) -> int:
            seen.append(trial_seed)
            return len(seen) - 1

        results = run_seeded_trials(trial, 5, seed=17)
        assert seen == [derive_seed(17, i) for i in range(5)]
        assert results == [0, 1, 2, 3, 4]

    def test_zero_trials_give_empty_list(self):
        assert run_seeded_trials(lambda s: pytest.fail("called"), 0, seed=1) == []

    def test_negative_trials_raise(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            run_seeded_trials(lambda s: s, -1, seed=1)
