"""Backpropagation-through-time gradients against finite differences.

The oracle is central finite differences on the scalar loss (step 1e-5,
64-bit floats).  Relative error uses a small absolute floor so that
vanishing gradients, where the difference quotient is dominated by
float64 rounding of the O(1) loss, are compared at the resolution the
oracle actually has.
"""

import numpy as np
import pytest

from eosnet.net import (
    ModelParams,
    backward_batch,
    draw_masks,
    forward_batch,
    init_params,
)

FD_STEP = 1e-5
REL_TOL = 1e-4
FLOOR = 1e-6


def loss_weighted_bce(probs, labels, weights) -> float:
    """Weight-normalized binary cross entropy:
    sum(w * bce) / sum(w), with probabilities strictly inside (0, 1).

    The loss whose gradient ``backward_batch`` returns, written directly."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (p.shape == y.shape == w.shape):
        raise ValueError(f"length mismatch: {p.shape}, {y.shape}, {w.shape}")
    if p.size == 0:
        return 0.0
    per_step = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float((w * per_step).sum() / w.sum())


def random_params(rng, input_dim=13, hidden=4, scale=0.4):
    shapes = init_params(0, input_dim=input_dim, hidden_size=hidden)
    return ModelParams(*(rng.normal(0.0, scale, size=a.shape) for a in shapes.arrays()))


def random_instance(seed, steps=10, hidden=4, lanes=1, padded_from=None):
    """A random time-major window, its per-lane ``lengths`` and its dropout
    masks (None for about a third of the seeds).  With
    ``padded_from``, lane 0 (the shortest lane comes first) ends at that
    step: the rest of it has zero features and no resets, as the training
    batcher pads a shorter student.  Its labels and weights stay random, so
    only its length keeps them out of the loss."""
    rng = np.random.default_rng(seed)
    params = random_params(rng, hidden=hidden)
    X = rng.uniform(-1, 1, (steps, lanes, 13))
    labels = rng.integers(0, 2, (steps, lanes)).astype(float)
    weights = rng.uniform(0.5, 3.0, (steps, lanes))
    resets = rng.random((steps, lanes)) < 0.25
    lengths = np.full(lanes, steps)
    if padded_from is not None:
        X[padded_from:, 0] = 0
        resets[padded_from:, 0] = False
        lengths[0] = padded_from
    dropout_p = float(rng.choice([0.0, 0.3, 0.5]))
    rng_seed = int(rng.integers(1 << 30)) if dropout_p > 0 else None
    masks = window_masks(params, X, lengths, dropout_p, rng_seed)
    return params, X, labels, weights, resets, lengths, masks


def window_masks(params, X, lengths, dropout_p, rng_seed):
    """The dropout masks of the window ``X`` whose lanes have ``lengths``
    real steps (all T when None), drawn from a generator seeded
    ``rng_seed``; None, for no dropout, when that is None."""
    if rng_seed is None:
        return None
    T, B = X.shape[:2]
    real = np.arange(T)[:, None] < (np.full(B, T) if lengths is None else np.asarray(lengths))
    return draw_masks(params, real, dropout_p, np.random.default_rng(rng_seed))


def run_window(params, X, resets, masks, want_cache=False, lengths=None):
    """Forward pass from a zero state with the dropout ``masks`` (or none)."""
    zeros = np.zeros((X.shape[1], params.hidden_size))
    return forward_batch(params, X, resets, zeros, zeros, masks,
                         want_cache=want_cache, lengths=lengths)


def finite_difference_check(params, X, labels, weights, resets, lengths, masks):
    cache = run_window(params, X, resets, masks, want_cache=True,
                       lengths=lengths).cache
    grads, _, _ = backward_batch(params, cache, labels, weights)
    real = np.arange(X.shape[0])[:, None] < lengths

    def loss_at(p):
        probs = run_window(p, X, resets, masks, lengths=lengths).probs
        return loss_weighted_bce(probs[real], labels[real], weights[real])

    worst = 0.0
    for name in ModelParams.FIELDS:
        flat = getattr(params, name).reshape(-1)
        analytic = getattr(grads, name).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            plus = loss_at(params)
            flat[i] = orig - FD_STEP
            minus = loss_at(params)
            flat[i] = orig
            fd = (plus - minus) / (2.0 * FD_STEP)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), FLOOR)
            worst = max(worst, rel)
    return worst


class TestGradients:
    @pytest.mark.parametrize("seed", range(100, 105))
    def test_random_instances(self, seed):
        worst = finite_difference_check(*random_instance(seed))
        assert worst < REL_TOL

    def test_padded_lane_in_batch(self):
        instance = random_instance(107, lanes=3, padded_from=6)
        assert instance[5].tolist() == [6, 10, 10]
        assert instance[6] is not None  # dropout on, so the masks cover padding too
        assert finite_difference_check(*instance) < REL_TOL

    def test_packed_window(self):
        # Lanes of lengths 3, 7 and 9 stepped as live suffixes, dropout on,
        # and a reset in the middle of the window on both longer lanes.  The
        # padded steps hold random features, labels, weights and resets that
        # must not count.
        params, X, labels, weights, resets, _, _ = random_instance(108, steps=9, lanes=3)
        lengths = np.array([3, 7, 9])
        resets[:] = False
        resets[4, 1:] = True
        resets[5, 0] = True  # a padded step
        masks = window_masks(params, X, lengths, 0.4, 4242)
        instance = (params, X, labels, weights, resets, lengths, masks)
        assert finite_difference_check(*instance) < REL_TOL

        # The same window run on every lane for all 9 steps, with zero
        # weight on the padded steps, has the same gradient: backward_batch
        # gives padded steps zero gate gradients.
        packed = run_window(params, X, resets, masks, want_cache=True,
                            lengths=lengths).cache
        full = run_window(params, X, resets, window_masks(params, X, None, 0.4, 4242),
                          want_cache=True).cache
        real_weights = np.where(np.arange(9)[:, None] < lengths, weights, 0.0)
        for a, b in zip(backward_batch(params, packed, labels, weights)[0].arrays(),
                        backward_batch(params, full, labels, real_weights)[0].arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_packed_window_with_live_units(self):
        # At H=4 the dense widths are 2 and 1, and test_packed_window's
        # network leaves one gate-gradient row non-zero.  At H=16, with a
        # non-zero initial state, every recurrent weight gets a gradient,
        # so a pre-step state read from another lane's row shows.
        rng = np.random.default_rng(109)
        params = random_params(rng, hidden=16)
        T, B = 9, 4
        X = rng.uniform(-1, 1, (T, B, 13))
        labels = rng.integers(0, 2, (T, B)).astype(float)
        weights = rng.uniform(0.5, 3.0, (T, B))
        resets = np.zeros((T, B), dtype=bool)
        resets[4, 2:] = True
        resets[6, 0] = True  # a padded step
        h0, c0 = rng.uniform(-1, 1, (2, B, 16))
        lengths = np.array([2, 5, 9, 9])

        def grads(lens, w):
            out = forward_batch(params, X, resets, h0, c0,
                                window_masks(params, X, lens, 0.4, 7), want_cache=True,
                                lengths=lens)
            return backward_batch(params, out.cache, labels, w)[0]

        packed = grads(lengths, weights)
        full = grads(None, np.where(np.arange(T)[:, None] < lengths, weights, 0.0))
        assert (packed.lstm_W != 0.0).all()
        for a, b in zip(packed.arrays(), full.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_through_resets_and_dropout(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        X = rng.uniform(-1, 1, (12, 1, 13))
        labels = rng.integers(0, 2, (12, 1)).astype(float)
        weights = rng.uniform(0.5, 3.0, (12, 1))
        resets = np.zeros((12, 1), dtype=bool)
        resets[[0, 4, 8]] = True
        lengths = np.array([12])
        worst = finite_difference_check(params, X, labels, weights, resets, lengths,
                                        window_masks(params, X, lengths, 0.4, 31337))
        assert worst < REL_TOL

    def test_window_without_valid_steps_gives_zero_gradients(self):
        params, X, labels, weights, resets, _, _ = random_instance(5, lanes=2)
        cache = run_window(params, X, resets, None, want_cache=True,
                           lengths=np.zeros(2, dtype=int)).cache
        grads, loss_num, weight_sum = backward_batch(params, cache, labels, weights)
        assert (loss_num, weight_sum) == (0.0, 0.0)
        assert all((g == 0.0).all() for g in grads.arrays())

    def test_out_bias_closed_form(self):
        # d loss / d out_b = sum(w * (p - y)) / sum(w)
        rng = np.random.default_rng(11)
        params = random_params(rng, hidden=6)
        X = rng.uniform(-1, 1, (15, 1, 13))
        labels = rng.integers(0, 2, (15, 1)).astype(float)
        weights = rng.uniform(0.5, 3.0, (15, 1))
        resets = np.zeros((15, 1), dtype=bool)
        out = run_window(params, X, resets, None, want_cache=True)
        grads, _, _ = backward_batch(params, out.cache, labels, weights)
        expected = float((weights * (out.probs - labels)).sum() / weights.sum())
        assert grads.out_b[0] == pytest.approx(expected, rel=1e-12)

    def test_gradcheck_stays_fast(self):
        import time

        start = time.perf_counter()
        finite_difference_check(*random_instance(200))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
