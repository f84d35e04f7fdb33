"""Primitives: distributions, cosine, codebooks, neighbor ranking, rng."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specskip.core import (EmbeddingCodebook, TokenSequence, cosine,
                           nearest_neighbors, param_stream, rng_stream,
                           sample_index)
from specskip.errors import DegenerateVector, RejectedInput


class TestCosine:
    def test_identity(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonality(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert abs(cosine([1, 1], [1, 0]) - 1 / np.sqrt(2)) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateVector):
            cosine([0, 0], [1, 0])

    @given(st.lists(st.floats(min_value=-10, max_value=10).map(
                        lambda x: round(x, 3)), min_size=2,
                    max_size=8).filter(lambda v: any(x != 0 for x in v)))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_clamped(self, v):
        w = [x + 0.25 for x in v]
        if all(x == 0 for x in w):
            return
        assert cosine(v, w) == cosine(w, v)
        assert -1.0 <= cosine(v, w) <= 1.0
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


class TestSampleIndex:
    def test_point_mass(self):
        rng = rng_stream(0, "t")
        dist = np.array([0.0, 1.0, 0.0])
        assert all(sample_index(dist, rng) == 1 for _ in range(100))

    def test_frequencies(self):
        rng = rng_stream(1, "freq")
        dist = np.array([0.2, 0.5, 0.3])
        draws = np.array([sample_index(dist, rng) for _ in range(20000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, dist, atol=0.02)

    def test_one_uniform_per_draw(self):
        # Pairing guarantees elsewhere rely on exactly one rng draw per call.
        rng_a = rng_stream(3, "pair")
        rng_b = rng_stream(3, "pair")
        dist = np.array([0.25, 0.25, 0.5])
        for _ in range(50):
            sample_index(dist, rng_a)
        for _ in range(50):
            rng_b.random()
        assert rng_a.random() == rng_b.random()


SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1,
                                    2**64, 2**64 + 1, 2**96 + 7]),
                  st.integers(min_value=-2**70, max_value=2**70))
LABELS = st.one_of(st.sampled_from(["", "a", "é→ω", "run3/accept", "run0/prompt",
                                    "run1000001/residual"]),
                   st.text(max_size=12),
                   st.builds(lambda run, name: f"run{run}/{name}",
                             st.integers(min_value=0, max_value=10**7),
                             st.text(max_size=8)))
# PCG64's 128-bit LCG multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class TestRngStream:
    def test_same_pair_same_draws(self):
        a = rng_stream(42, "x").random(8)
        b = rng_stream(42, "x").random(8)
        assert np.array_equal(a, b)

    def test_labels_independent(self):
        a = rng_stream(42, "x").random(8)
        b = rng_stream(42, "y").random(8)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = rng_stream(1, "x").random(8)
        b = rng_stream(2, "x").random(8)
        assert not np.array_equal(a, b)

    @given(SEEDS, LABELS)
    @settings(max_examples=300, deadline=None)
    def test_state_is_sha256_keyed_pcg64(self, seed, label):
        # An independent reference of PCG64's seeding from the digest's
        # words: state seed s = w0:w1, increment seed i = w2:w3.
        digest = hashlib.sha256((seed % 2**64).to_bytes(8, "little")
                                + label.encode("utf-8")).digest()
        w = [int.from_bytes(digest[8 * j: 8 * j + 8], "little") for j in range(4)]
        s, i = w[0] << 64 | w[1], w[2] << 64 | w[3]
        inc = ((i << 1) | 1) % 2**128
        state = ((inc + s) * PCG_MULT + inc) % 2**128
        got = rng_stream(seed, label).bit_generator.state
        assert got["bit_generator"] == "PCG64"
        assert got["state"] == {"state": state, "inc": inc}

    @given(SEEDS, LABELS)
    @settings(max_examples=300, deadline=None)
    def test_param_stream_is_numpy_list_seeding(self, seed, label):
        # Model parameters come from default_rng([seed mod 2**64, salt]),
        # the salt being the label's sha256 prefix.
        salt = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
        expect = np.random.default_rng([seed & (2**64 - 1), salt])
        assert param_stream(seed, label).bit_generator.state == expect.bit_generator.state

    @pytest.mark.parametrize("seed, label, draws", [
        (0, "a", [0.3303343146059867, 0.7661500729974416,
                  0.4108278205647553, 0.1938115438004615]),
        (7, "run3/accept", [0.929004756801543, 0.7238796720858321,
                            0.15425081800348495, 0.555303167241649])])
    def test_first_draws_pinned(self, seed, label, draws):
        assert rng_stream(seed, label).random(4).tolist() == draws


class TestEmbeddingCodebook:
    def test_shape_and_accessors(self):
        cb = EmbeddingCodebook(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert cb.size == 2 and cb.dim == 2
        assert np.allclose(cb.unit(1), [0.0, 1.0])

    def test_duplicate_rows_rejected(self):
        with pytest.raises(RejectedInput):
            EmbeddingCodebook(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_narrow_rejected(self):
        with pytest.raises(RejectedInput):
            EmbeddingCodebook(np.array([[1.0], [2.0]]))

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateVector):
            EmbeddingCodebook(np.array([[0.0, 0.0], [1.0, 0.0]]))


FOUR_TOKEN_ROWS = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0]])


class TestNearestNeighbors:
    def test_self_first(self):
        cb = EmbeddingCodebook(FOUR_TOKEN_ROWS)
        assert nearest_neighbors(cb, 2, 1) == [2]

    def test_k_equals_v_is_permutation(self):
        cb = EmbeddingCodebook(FOUR_TOKEN_ROWS)
        assert sorted(nearest_neighbors(cb, 1, 4)) == [0, 1, 2, 3]

    def test_hand_example(self):
        cb = EmbeddingCodebook(FOUR_TOKEN_ROWS)
        assert nearest_neighbors(cb, 0, 2) == [0, 1]

    def test_k_out_of_range(self):
        cb = EmbeddingCodebook(FOUR_TOKEN_ROWS)
        with pytest.raises(RejectedInput):
            nearest_neighbors(cb, 0, 5)
        with pytest.raises(RejectedInput):
            nearest_neighbors(cb, 0, 0)

    def test_prefix_consistent(self):
        rng = rng_stream(9, "nn")
        cb = EmbeddingCodebook(rng.standard_normal((12, 3)))
        for t in range(12):
            full = nearest_neighbors(cb, t, 12)
            for k in range(1, 12):
                assert nearest_neighbors(cb, t, k) == full[:k]


    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_full_ranking(self, tied):
        """Ranking only the first k ids gives what filtering the whole
        lexsort order gave, also when a token of the same direction and a
        smaller id ranks ahead of t itself."""
        vecs = rng_stream(11, "nn1024").standard_normal((1024, 16))
        if tied:
            vecs[3] = 2.0 * vecs[700]
        cb = EmbeddingCodebook(vecs)
        for t in (0, 3, 5, 511, 700, 1023):
            sims = cb._unit @ cb.unit(t)
            order = np.lexsort((np.arange(1024), -sims))
            ranked = [int(i) for i in order if i != t]
            for k in (1, 2, 8, 16, 1023, 1024):
                assert nearest_neighbors(cb, t, k) == [t, *ranked[: k - 1]]

    def test_partition_keeps_the_tie_rule(self):
        """Rows that are power-of-two multiples of one another have the same
        unit vector bit for bit, and the axes are equally similar to the
        diagonals, so similarities tie in groups, also across the k-th
        place: every (t, k) matches the first k of the full lexsort by
        (-similarity, id)."""
        base = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0], [1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]])
        vecs = np.concatenate([scale * base for scale in (1.0, 2.0, 0.5, 4.0)])
        vecs = vecs[rng_stream(5, "tie-order").permutation(len(vecs))]
        V = len(vecs)
        cb = EmbeddingCodebook(vecs)
        for t in range(V):
            sims = cb._unit @ cb.unit(t)
            order = np.lexsort((np.arange(V), -sims)).tolist()
            for k in range(1, V + 1):
                want = [i for i in order[:k] if i != t][: k - 1]
                assert nearest_neighbors(cb, t, k) == [t, *want]


class TestTokenSequence:
    def test_append(self):
        seq = TokenSequence()
        seq.append(3, "sampled")
        seq.append(np.int64(4), "verified")
        assert seq.tokens == [3, 4] and type(seq.tokens[1]) is int
        assert seq.origins == ["sampled", "verified"] and len(seq) == 2

    def test_misaligned_rejected(self):
        with pytest.raises(RejectedInput):
            TokenSequence([1, 2], ["sampled"])
