import numpy as np
import pytest

import bandflow.tensor as tt
from bandflow.errors import BoundaryError, DimensionError
from bandflow.rq import (
    RQCodebook,
    codebook_update,
    commit_loss,
    phoneme_pool,
    quantize_st,
    rq_decode,
    rq_encode,
)
from bandflow.tensor import Tape, Tensor, backward


def _book(depth=2, size=4, dim=2, seed=0, scale=0.5):
    return RQCodebook.create(depth, size, dim, np.random.default_rng(seed), scale)


class TestEncode:
    def test_zero_input_picks_zero_code(self):
        book = _book(depth=3)
        code = rq_encode(np.zeros((4, 2)), book)
        np.testing.assert_array_equal(code.indices, 0)
        np.testing.assert_array_equal(code.embedding, 0.0)

    def test_exact_code_recovered_at_depth_zero(self):
        book = _book()
        z = book.codes[0][2:3]
        code = rq_encode(z, book)
        assert code.indices[0, 0] == 2
        np.testing.assert_array_equal(code.prefixes[0], z)

    def test_greedy_matches_brute_force_full_search(self):
        # small books where the greedy result can be checked against
        # exhaustive search over all index tuples
        rng = np.random.default_rng(1)
        for trial in range(20):
            depth, size = 3, 5
            book = _book(depth=depth, size=size, dim=2, seed=trial, scale=1.0)
            z = rng.standard_normal((1, 2))
            code = rq_encode(z, book)
            # greedy per depth: each step must pick the nearest code to its
            # own residual
            residual = z[0].copy()
            for n in range(depth):
                d2 = ((book.codes[n] - residual) ** 2).sum(axis=1)
                assert code.indices[n, 0] == d2.argmin()
                residual = residual - book.codes[n][code.indices[n, 0]]

    def test_prefix_error_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        book = _book(depth=4, size=8, dim=3, seed=9)
        z = rng.standard_normal((1000, 3))
        code = rq_encode(z, book)
        errs = [((z - code.prefixes[n]) ** 2).sum(axis=1) for n in range(book.depth)]
        for n in range(1, book.depth):
            assert (errs[n] <= errs[n - 1] + 1e-12).all()

    def test_decode_round_trip(self):
        rng = np.random.default_rng(3)
        book = _book(depth=3, size=6, dim=4, seed=4)
        code = rq_encode(rng.standard_normal((7, 4)), book)
        np.testing.assert_allclose(rq_decode(code.indices, book), code.embedding)

    def test_bad_shape(self):
        with pytest.raises(DimensionError):
            rq_encode(np.zeros((3, 5)), _book(dim=2))


class TestStraightThrough:
    def test_values_are_quantized(self):
        book = _book()
        z = Tensor(np.random.default_rng(0).standard_normal((5, 2)))
        z_q, code = quantize_st(z, book)
        np.testing.assert_allclose(z_q.data, code.embedding, atol=1e-15)

    def test_gradient_passes_to_encoder_unchanged(self):
        book = _book()
        z = Tensor(np.random.default_rng(1).standard_normal((5, 2)),
                   requires_grad=True)
        w = np.random.default_rng(2).standard_normal((5, 2))
        with Tape():
            z_q, _ = quantize_st(z, book)
            backward(tt.sum_(tt.mul(z_q, w)))
        np.testing.assert_array_equal(z.grad, w)


class TestCommitLoss:
    def test_input_on_code_zero_loss(self):
        book = _book(depth=1, size=3, dim=2)
        z = Tensor(book.codes[0][1:2].copy())
        assert commit_loss(z, book).item() == pytest.approx(0.0)

    def test_hand_example(self):
        book = RQCodebook(codes=np.array([[[0.0, 0.0], [1.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.5]]]))
        z = Tensor(np.array([[1.0, 0.4]]))
        # depth 0 picks (1,0): prefix (1,0), dist^2 = 0.16
        # depth 1 residual (0,0.4) picks (0,0.5): prefix (1,0.5), dist^2 = 0.01
        assert commit_loss(z, book).item() == pytest.approx(0.17)

    def test_gradient_pulls_encoder_toward_prefixes(self):
        book = _book(depth=2, size=4, dim=2, seed=5)
        z = Tensor(np.random.default_rng(6).standard_normal((3, 2)),
                   requires_grad=True)
        with Tape():
            backward(commit_loss(z, book))
        code = rq_encode(z.data, book)
        expect = sum(2.0 * (z.data - code.prefixes[n]) for n in range(2))
        np.testing.assert_allclose(z.grad, expect, atol=1e-12)


class TestCodebookUpdate:
    def test_zero_code_never_moves(self):
        book = _book(depth=3, size=5)
        codebook_update(book, np.random.default_rng(0).standard_normal((50, 2)))
        np.testing.assert_array_equal(book.codes[:, 0, :], 0.0)

    def test_unassigned_codes_unchanged(self):
        book = _book(depth=1, size=4, dim=2, seed=7)
        before = book.codes.copy()
        # all points exactly on code 1 -> codes 2, 3 get no assignments
        z = np.tile(book.codes[0][1], (10, 1))
        codebook_update(book, z)
        np.testing.assert_array_equal(book.codes[0][2], before[0][2])
        np.testing.assert_array_equal(book.codes[0][3], before[0][3])

    def test_ema_step_toward_assigned_mean(self):
        book = RQCodebook(codes=np.array([[[0.0, 0.0], [1.0, 1.0]]]))
        z = np.array([[2.0, 2.0], [2.0, 2.0]])
        codebook_update(book, z, decay=0.9)
        np.testing.assert_allclose(book.codes[0][1], [1.1, 1.1])

    def test_depth_two_residual_subtracts_code_before_update(self):
        book = RQCodebook(codes=np.array([[[0.0, 0.0], [1.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 1.0]]]))
        z = np.array([[2.0, 1.0]])
        code = rq_encode(z, book)
        codebook_update(book, z, decay=0.5)
        # depth 0 picks (1,0) and moves it to (1.5,0.5); depth 1 sees the
        # residual (2,1) - (1,0) = (1,1), picks (0,1) and moves it halfway.
        # Subtracting the moved code instead would leave (0.5,0.5), equally
        # near both depth-1 codes, and code 1 would not move.
        np.testing.assert_array_equal(code.residuals[1], [[1.0, 1.0]])
        np.testing.assert_array_equal(book.codes[0][1], [1.5, 0.5])
        np.testing.assert_array_equal(book.codes[1][1], [0.5, 1.0])

    def test_repeated_updates_converge_to_cluster_mean(self):
        book = RQCodebook(codes=np.array([[[0.0, 0.0], [3.0, 3.0]]]))
        z = np.full((8, 2), 4.0)
        for _ in range(600):
            codebook_update(book, z)
        np.testing.assert_allclose(book.codes[0][1], 4.0, atol=1e-2)


class TestPhonemePool:
    def test_means_per_range(self):
        frames = Tensor(np.array([[0.0], [2.0], [4.0], [6.0]]))
        out = phoneme_pool(frames, [(0, 2), (2, 4)])
        np.testing.assert_allclose(out.data, [[1.0], [5.0]])

    def test_single_range_is_global_mean(self):
        rng = np.random.default_rng(0)
        frames = Tensor(rng.standard_normal((6, 3)))
        out = phoneme_pool(frames, [(0, 6)])
        np.testing.assert_allclose(out.data, frames.data.mean(axis=0, keepdims=True))

    @pytest.mark.parametrize("bad", [
        [(0, 2), (3, 4)],    # gap
        [(0, 3), (2, 4)],    # overlap
        [(0, 2), (2, 2)],    # empty range
        [(0, 3)],            # short coverage
    ])
    def test_invalid_boundaries(self, bad):
        with pytest.raises(BoundaryError):
            phoneme_pool(Tensor(np.zeros((4, 2))), bad)

    def test_pool_inverts_length_regulation_of_constants(self):
        # expanding phoneme rows by durations then pooling over the same
        # boundaries returns the original rows
        rng = np.random.default_rng(1)
        rows = Tensor(rng.standard_normal((3, 2)))
        durs = [2, 1, 3]
        expanded = tt.gather(rows, np.repeat(np.arange(3), durs))
        bounds, pos = [], 0
        for d in durs:
            bounds.append((pos, pos + d))
            pos += d
        pooled = phoneme_pool(expanded, bounds)
        np.testing.assert_allclose(pooled.data, rows.data, atol=1e-12)

    def test_gradient_flows_through_pooling(self):
        frames = Tensor(np.random.default_rng(2).standard_normal((4, 2)),
                        requires_grad=True)
        with Tape():
            out = phoneme_pool(frames, [(0, 2), (2, 4)])
            backward(tt.sum_(out))
        np.testing.assert_allclose(frames.grad, 0.5)
