"""Skip-step path selection and mean-length truncation."""

import numpy as np
import pytest

from specskip.core import rng_stream
from specskip.errors import RejectedInput
from specskip.select import kept_length, select_leaf, select_path, truncate_path
from specskip.tree import tree_shape
from token_rows import as_paths


class TestSelectPath:
    def test_single_path_both_strategies(self):
        paths = as_paths([[1, 2]])
        rng = rng_stream(0, "s")
        assert select_path(paths, "uniform", rng) == [1, 2]
        assert select_path(paths, "max_confidence", rng) == [1, 2]

    def test_uniform_frequencies(self):
        paths = as_paths([[i] for i in range(4)], [[0.25]] * 4)
        rng = rng_stream(1, "u")
        counts = np.zeros(4)
        for _ in range(10000):
            counts[select_path(paths, "uniform", rng)[0]] += 1
        assert np.allclose(counts / 10000, 0.25, atol=0.02)

    def test_max_confidence_argmax(self):
        paths = as_paths([[1], [2], [3]], [[0.5], [0.12], [0.3]])
        rng = rng_stream(0, "m")
        assert select_path(paths, "max_confidence", rng) == [1]

    def test_tie_breaks_lexicographic(self):
        paths = as_paths([[4, 1], [2, 9]], [[0.5, 0.8], [0.8, 0.5]])
        rng = rng_stream(0, "t")
        assert select_path(paths, "max_confidence", rng) == [2, 9]

    def test_empty_rejected(self):
        with pytest.raises(RejectedInput):
            select_path(as_paths([]), "uniform", rng_stream(0, "e"))


class TestSelectLeaf:
    # Leaves 1 and 2 are root children and leaf 3 hangs under node 0:
    # lengths 1, 1, 2, mean 4/3, so truncation keeps one token of each.
    SHAPE = tree_shape((-1, -1, -1, 0))

    @pytest.mark.parametrize("truncate, kept", [
        (True, [[1], [2], [0]]), (False, [[1], [2], [0, 3]])])
    def test_uniform_over_leaves_in_shape_order(self, truncate, kept):
        rng = rng_stream(2, "leaf")
        counts = np.zeros(3)
        for _ in range(6000):
            nodes = select_leaf(self.SHAPE, truncate, rng).tolist()
            counts[kept.index(nodes)] += 1
        assert np.allclose(counts / 6000, 1 / 3, atol=0.02)

    def test_same_draw_as_select_path(self):
        # Leaf i of the shape is row i of its enumerated paths before they
        # are ordered, and both draw one integer below the leaf count.
        a, b = rng_stream(3, "s"), rng_stream(3, "s")
        index, _ = self.SHAPE.leaf_paths()
        for _ in range(20):
            nodes = select_leaf(self.SHAPE, False, a)
            leaf = int(b.integers(3))
            assert nodes.tolist() == [i for i in index[leaf].tolist() if i < 4]


class TestTruncatePath:
    def test_uniform_lengths_unchanged(self):
        paths = as_paths([range(3)] * 4)
        selected = paths[0]
        assert truncate_path(selected, paths) is selected

    def test_mixed_lengths_hand_value(self):
        paths = as_paths([range(3), range(4), range(5)])
        out = truncate_path(paths[2], paths)
        assert len(out) == 4
        assert out == paths[2][:4]

    def test_never_below_one_token(self):
        paths = as_paths([[7], [7, 8]])
        out = truncate_path(paths[0], paths)
        assert out == [7]

    def test_floor_of_mean(self):
        # Mean length 2.5 floors to 2.
        paths = as_paths([range(2), range(3)])
        assert len(truncate_path(paths[1], paths)) == 2

    def test_no_paths_rejected(self):
        with pytest.raises(RejectedInput):
            truncate_path([7], as_paths([]))

    def test_kept_length_is_the_rule_truncation_applies(self):
        assert [kept_length(n, np.array([2, 3, 5])) for n in (1, 2, 3, 5)] == [1, 2, 3, 3]
        assert kept_length(4, np.array([1, 1, 2])) == 1
        with pytest.raises(RejectedInput):
            kept_length(1, np.array([], dtype=np.intp))

    def test_selected_shorter_than_mean_unchanged(self):
        paths = as_paths([range(2), range(6)])
        out = truncate_path(paths[0], paths)
        assert out == paths[0]
