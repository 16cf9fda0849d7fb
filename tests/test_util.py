import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misrecon import util
from misrecon.util import (
    bits_to_masks,
    derive_seed,
    mask_from_members,
    masks_to_bits,
    run_seeded_trials,
)


class TestRunSeededTrials:
    def test_trial_i_gets_derived_seed_in_index_order(self):
        seen = []

        def trial(trial_seed: int) -> int:
            seen.append(trial_seed)
            return len(seen) - 1

        results = run_seeded_trials(trial, 5, seed=17)
        assert seen == [derive_seed(17, i) for i in range(5)]
        assert results == [0, 1, 2, 3, 4]

    def test_zero_trials_raise(self):
        with pytest.raises(ValueError, match="need trials >= 1"):
            run_seeded_trials(lambda s: pytest.fail("called"), 0, seed=1)

    def test_negative_trials_raise(self):
        with pytest.raises(ValueError, match="need trials >= 1"):
            run_seeded_trials(lambda s: s, -1, seed=1)


class TestMaskFromMembers:
    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(0, 80), data=st.data())
    def test_or_of_member_bits(self, n, data):
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([]))
        want = 0
        for v in members:
            want |= 1 << v
        assert mask_from_members(n, members) == want
        # any iterable, consumed once
        assert mask_from_members(n, iter(members)) == want
        assert mask_from_members(n, tuple(members)) == want
        assert mask_from_members(n, set(members)) == want

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(0, 40), data=st.data())
    def test_member_outside_universe_named(self, n, data):
        ok = data.draw(st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([]))
        bad = data.draw(st.sampled_from([-1, n, n + 7]))
        with pytest.raises(ValueError, match=rf"^member {bad} outside universe of size {n}$"):
            mask_from_members(n, [*ok, bad, 0])

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_universe_refused(self, n):
        with pytest.raises(ValueError, match=r"^universe size must be >= 0$"):
            mask_from_members(n, [])
        # a member is named first: no member lies in a negative universe
        with pytest.raises(ValueError, match=rf"^member 0 outside universe of size {n}$"):
            mask_from_members(n, [0])


@st.composite
def masks_of_width(draw):
    width = draw(st.integers(0, 80))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    return masks, width


class TestMaskCodec:
    @settings(deadline=None, max_examples=150)
    @given(case=masks_of_width())
    @example(case=([], 0))
    @example(case=([0, 0], 0))
    @example(case=([], 9))
    @example(case=([(1 << 65) - 1, 1 << 64, 0b101], 65))  # past a 64-bit word
    def test_bits_round_trip(self, case):
        masks, width = case
        bits = masks_to_bits(masks, width)
        assert bits.shape == (len(masks), width)
        assert bits.tolist() == [[m >> j & 1 for j in range(width)] for m in masks]
        assert bits_to_masks(bits) == masks

    @settings(deadline=None, max_examples=100)
    @given(case=masks_of_width(), step=st.integers(1, 3))
    @example(case=([0b1011, 0b0110, 0b1111, 0], 4), step=1)  # a transposed view
    @example(case=([(1 << 70) - 1, 1 << 69, 0b101], 70), step=2)  # a column slice
    def test_views_read_as_their_values(self, case, step):
        # bits_to_masks packs a contiguous copy of a view: it reads as its values
        masks, width = case
        bits = masks_to_bits(masks, width)
        for view in (bits.T, bits[:, ::step], bits.T[::step, ::step]):
            want = [sum(b << j for j, b in enumerate(row)) for row in view.tolist()]
            assert bits_to_masks(view) == want


def test_only_util_converts_between_masks_and_bit_rows():
    # one codec: every other module goes through masks_to_bits and bits_to_masks
    codec = re.compile(r"to_bytes\(|from_bytes\(|packbits|unpackbits")
    src = Path(util.__file__).parent
    users = [p.name for p in sorted(src.glob("*.py")) if codec.search(p.read_text())]
    assert users == ["util.py"]
