import numpy as np
import pytest

from qensembles import CapacityError, Caps
from qensembles._util import check_cap, task_rng


class TestCheckCap:
    def test_a_need_equal_to_the_cap_passes(self):
        check_cap(Caps(max_state_dim=16), "max_state_dim", 16)

    def test_a_need_over_the_cap_names_the_cap(self):
        with pytest.raises(CapacityError, match="cap 'max_state_dim' exceeded: needed 17, cap 16") as err:
            check_cap(Caps(max_state_dim=16), "max_state_dim", 17)
        assert (err.value.cap_name, err.value.needed, err.value.cap) == ("max_state_dim", 17, 16)


class TestTaskRng:
    def test_a_stream_is_reproducible_in_any_order(self):
        first = [task_rng(5, i).standard_normal(4) for i in range(3)]
        second = [task_rng(5, i).standard_normal(4) for i in reversed(range(3))][::-1]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_seeds_and_stream_indices_give_different_streams(self):
        draws = [task_rng(*key).standard_normal(4) for key in [(5,), (5, 0), (5, 1), (6, 0), (5, 0, 0)]]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])
