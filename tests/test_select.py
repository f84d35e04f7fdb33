"""Skip-step path selection and mean-length truncation."""

import numpy as np
import pytest

from specskip.core import rng_stream
from specskip.errors import RejectedInput
from specskip.select import select_path, truncate_path
from specskip.tree import TokenPath


def _path(tokens, conf_each):
    return TokenPath(list(tokens), [conf_each] * len(tokens))


class TestSelectPath:
    def test_single_path_both_strategies(self):
        path = _path([1, 2], 0.5)
        rng = rng_stream(0, "s")
        assert select_path([path], "uniform", rng) is path
        assert select_path([path], "max_confidence", rng) is path

    def test_uniform_frequencies(self):
        paths = [_path([i], 0.25) for i in range(4)]
        rng = rng_stream(1, "u")
        counts = np.zeros(4)
        for _ in range(10000):
            counts[select_path(paths, "uniform", rng).tokens[0]] += 1
        assert np.allclose(counts / 10000, 0.25, atol=0.02)

    def test_max_confidence_argmax(self):
        paths = [TokenPath([1], [0.5]), TokenPath([2], [0.12]), TokenPath([3], [0.3])]
        rng = rng_stream(0, "m")
        assert select_path(paths, "max_confidence", rng).tokens == [1]

    def test_tie_breaks_lexicographic(self):
        paths = [TokenPath([4, 1], [0.5, 0.8]), TokenPath([2, 9], [0.8, 0.5])]
        rng = rng_stream(0, "t")
        assert select_path(paths, "max_confidence", rng).tokens == [2, 9]

    def test_empty_rejected(self):
        with pytest.raises(RejectedInput):
            select_path([], "uniform", rng_stream(0, "e"))


class TestTruncatePath:
    def test_uniform_lengths_unchanged(self):
        paths = [_path(range(3), 0.5) for _ in range(4)]
        assert truncate_path(paths[0], paths) is paths[0]

    def test_mixed_lengths_hand_value(self):
        paths = [_path(range(3), 0.5), _path(range(4), 0.5), _path(range(5), 0.5)]
        out = truncate_path(paths[2], paths)
        assert len(out) == 4
        assert out.tokens == paths[2].tokens[:4]
        assert out.probs == paths[2].probs[:4]

    def test_never_below_one_token(self):
        paths = [_path([7], 0.5), _path([7, 8], 0.5)]
        out = truncate_path(paths[0], paths)
        assert out.tokens == [7]

    def test_floor_of_mean(self):
        # Mean length 2.5 floors to 2.
        paths = [_path(range(2), 0.5), _path(range(3), 0.5)]
        assert len(truncate_path(paths[1], paths)) == 2

    def test_no_paths_rejected(self):
        with pytest.raises(RejectedInput):
            truncate_path(_path([7], 0.5), [])

    def test_selected_shorter_than_mean_unchanged(self):
        paths = [_path(range(2), 0.5), _path(range(6), 0.5)]
        out = truncate_path(paths[0], paths)
        assert out.tokens == paths[0].tokens
