"""Network core: LSTM step, forward contracts, loss, RMSprop, checkpoints."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from test_gradients import loss_weighted_bce, window_masks

from eosnet.errors import CheckpointError
from eosnet.net import (
    UNTRAINED_RECORD,
    ModelParams,
    backward_batch,
    draw_masks,
    infer_step,
    init_params,
    forward_batch,
    load_checkpoint,
    lstm_step,
    rmsprop_update,
    save_checkpoint,
    sigmoid,
)
from eosnet.training import (
    LANE_GROUP, Batch, _group_masks, _lane_groups, _train_group,
)


def random_params(rng, input_dim=13, hidden=4, scale=0.4):
    shapes = init_params(0, input_dim=input_dim, hidden_size=hidden)
    return ModelParams(*(rng.normal(0.0, scale, size=a.shape) for a in shapes.arrays()))


def run_lane(params, frames, resets=None, dropout_p=0.0, rng_seed=None):
    """Probabilities of one sequence run through ``forward_batch`` as a
    single lane from a zero state; ``rng_seed`` draws dropout masks."""
    X = np.asarray(frames, dtype=np.float64)[:, None, :]
    if resets is None:
        resets = np.zeros(X.shape[0], dtype=bool)
    zeros = np.zeros((1, params.hidden_size))
    out = forward_batch(params, X, np.asarray(resets)[:, None], zeros, zeros,
                        window_masks(params, X, None, dropout_p, rng_seed))
    return out.probs[:, 0]


class TestInitParams:
    def test_deterministic_in_seed(self):
        a, b = init_params(7), init_params(7)
        assert all((x == y).all() for x, y in zip(a.arrays(), b.arrays()))

    def test_different_seed_differs(self):
        a, b = init_params(7), init_params(8)
        assert not (a.lstm_W == b.lstm_W).all()

    def test_forget_gate_bias_block(self):
        p = init_params(0)
        h = p.hidden_size
        assert (p.lstm_b[h:2 * h] == 1.0).all()
        assert (p.lstm_b[:h] == 0.0).all()
        assert (p.lstm_b[2 * h:] == 0.0).all()

    def test_production_shapes(self):
        p = init_params(0)
        assert p.lstm_W.shape == (1600, 413)
        assert p.lstm_b.shape == (1600,)
        assert p.dense1_W.shape == (200, 400)
        assert p.dense2_W.shape == (100, 200)
        assert p.out_W.shape == (1, 100)

    def test_weight_mean_near_zero(self):
        # statistical check on the sampler: mean within 3 standard errors
        p = init_params(123)
        w = p.lstm_W.ravel()
        limit = math.sqrt(6.0 / sum(p.lstm_W.shape[::1]))
        limit = math.sqrt(6.0 / (p.lstm_W.shape[0] + p.lstm_W.shape[1]))
        se = (2 * limit / math.sqrt(12.0)) / math.sqrt(w.size)
        assert abs(w.mean()) < 3 * se
        assert np.abs(w).max() <= limit


def scalar_lstm_oracle(params, xs, h0, c0):
    """Plain-Python scalar-loop LSTM, independent of the vectorized path."""
    hidden = params.hidden_size
    W = params.lstm_W.tolist()
    b = params.lstm_b.tolist()
    h, c = list(h0), list(c0)
    for x in xs:
        inp = list(x) + h
        z = [sum(W[r][k] * inp[k] for k in range(len(inp))) + b[r]
             for r in range(4 * hidden)]
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = [sig(z[r]) for r in range(hidden)]
        f = [sig(z[hidden + r]) for r in range(hidden)]
        g = [math.tanh(z[2 * hidden + r]) for r in range(hidden)]
        o = [sig(z[3 * hidden + r]) for r in range(hidden)]
        c = [f[r] * c[r] + i[r] * g[r] for r in range(hidden)]
        h = [o[r] * math.tanh(c[r]) for r in range(hidden)]
    return h, c


def scalar_head_oracle(params, h, masks=None):
    """Plain-Python dense head: two ReLU layers and the sigmoid output.

    ``masks`` holds a dropout multiplier per unit for the input of each
    layer (the LSTM output, then each ReLU output): 0 or 1/keep."""
    m0, m1, m2 = masks if masks is not None else (None, None, None)

    def dense(W, b, v, m):
        if m is not None:
            v = [x * scale for x, scale in zip(v, m)]
        return [sum(w * x for w, x in zip(row, v)) + bias
                for row, bias in zip(W.tolist(), b.tolist())]

    a1 = [max(v, 0.0) for v in dense(params.dense1_W, params.dense1_b, h, m0)]
    a2 = [max(v, 0.0) for v in dense(params.dense2_W, params.dense2_b, a1, m1)]
    logit = dense(params.out_W, params.out_b, a2, m2)[0]
    return 1.0 / (1.0 + math.exp(-logit))


def numpy_head_oracle(params, h, masks):
    """The dense head in plain numpy over the rows of ``h`` (M, H), with the
    float dropout masks ``(m0, m1, m2)`` (0 or 1/keep) multiplied in as
    ``a * m``; the same GEMM shapes as one step of ``forward_batch``."""
    m0, m1, m2 = masks
    a1 = np.maximum((h * m0) @ params.dense1_W.T + params.dense1_b, 0.0)
    a2 = np.maximum((a1 * m1) @ params.dense2_W.T + params.dense2_b, 0.0)
    logit = (a2 * m2) @ params.out_W[0] + params.out_b
    pos = logit >= 0
    ex = np.exp(np.where(pos, -logit, logit))
    return np.where(pos, 1.0 / (1.0 + ex), ex / (1.0 + ex))


class TestLstmStep:
    def test_zero_params_zero_state(self):
        p = init_params(0, hidden_size=4).zeros_like()
        h, c = lstm_step(p, np.zeros(13), np.zeros(4), np.zeros(4))
        assert (h == 0.0).all()
        assert (c == 0.0).all()

    def test_saturated_forget_gate_preserves_cell(self):
        p = init_params(0, hidden_size=4).zeros_like()
        p.lstm_b[4:8] = 50.0  # forget block
        c0 = np.array([1.0, -2.0, 0.5, 3.0])
        _, c = lstm_step(p, np.zeros(13), np.zeros(4), c0)
        np.testing.assert_allclose(c, c0, rtol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, input_dim=3, hidden=2)
        xs = rng.uniform(-1, 1, (6, 3))
        h, c = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        expected_h, expected_c = scalar_lstm_oracle(p, xs.tolist(), h.tolist(), c.tolist())
        for x in xs:
            h, c = lstm_step(p, x, h, c)
        np.testing.assert_allclose(h, expected_h, rtol=1e-12)
        np.testing.assert_allclose(c, expected_c, rtol=1e-12)


def packed_row(lengths, t, lane):
    """The cache row of lane ``lane`` at step ``t``: the count of real
    lane-steps before it, taken step by step and lane by lane."""
    real = np.arange(max(lengths))[:, None] < np.asarray(lengths)
    assert real[t, lane]
    return int(real.ravel()[:t * len(lengths) + lane].sum())


def cached_h(cache):
    """Each cache row's hidden state ``tanh(c) * o``, recomputed from the
    cell state and output gate that the cache keeps instead of it."""
    hidden = cache.c.shape[1]
    return np.tanh(cache.c) * cache.gates[:, 3 * hidden:]


class TestForwardBatch:
    def _inputs(self, T=7, B=3, hidden=3):
        rng = np.random.default_rng(8)
        p = random_params(rng, hidden=hidden)
        X = rng.uniform(-1, 1, (T, B, p.input_dim))
        resets = np.zeros((T, B), dtype=bool)
        resets[4, 1] = True  # one lane restarts mid-sequence
        h0 = rng.uniform(-1, 1, (B, hidden))
        c0 = rng.uniform(-1, 1, (B, hidden))
        return p, X, resets, h0, c0

    def test_matches_scalar_oracle(self):
        p, X, resets, h0, c0 = self._inputs()
        out = forward_batch(p, X, resets, h0, c0, want_cache=True)
        hs = cached_h(out.cache)
        T, B, _ = X.shape
        zeros = [0.0] * p.hidden_size
        for lane in range(B):
            h, c = h0[lane].tolist(), c0[lane].tolist()
            for t in range(T):
                if resets[t, lane]:
                    h, c = zeros, zeros
                h, c = scalar_lstm_oracle(p, [X[t, lane].tolist()], h, c)
                row = packed_row([T] * B, t, lane)
                np.testing.assert_allclose(hs[row], h, rtol=1e-12)
                np.testing.assert_allclose(out.cache.c[row], c, rtol=1e-12)
            np.testing.assert_allclose(out.h[lane], h, rtol=1e-12)
            np.testing.assert_allclose(out.c[lane], c, rtol=1e-12)

    def test_cache_leaves_outputs_and_inputs_unchanged(self):
        p, X, resets, h0, c0 = self._inputs()
        h0_before, c0_before = h0.copy(), c0.copy()
        plain = forward_batch(p, X, resets, h0, c0)
        cached = forward_batch(p, X, resets, h0, c0, want_cache=True)
        assert plain.cache is None
        for name in ("probs", "h", "c"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(cached, name))
        np.testing.assert_array_equal(h0, h0_before)
        np.testing.assert_array_equal(c0, c0_before)


class TestPackedLanes:
    """Lanes with ``lengths`` in non-decreasing order: step t runs only the
    lanes still live, whatever the padded entries of X and resets hold."""

    LENGTHS = [2, 5, 5]

    def _inputs(self, hidden=3):
        rng = np.random.default_rng(12)
        p = random_params(rng, hidden=hidden)
        T, B = max(self.LENGTHS), len(self.LENGTHS)
        X = rng.uniform(-1, 1, (T, B, p.input_dim))
        resets = np.zeros((T, B), dtype=bool)
        resets[2, 1] = True  # a mid-sequence reset on a live lane
        resets[3, 0] = True  # and one on a padded step, which must be ignored
        h0 = rng.uniform(-1, 1, (B, hidden))
        c0 = rng.uniform(-1, 1, (B, hidden))
        return p, X, resets, h0, c0

    def test_real_steps_match_scalar_oracle(self):
        p, X, resets, h0, c0 = self._inputs()
        out = forward_batch(p, X, resets, h0, c0, lengths=self.LENGTHS)
        zeros = [0.0] * p.hidden_size
        for lane, length in enumerate(self.LENGTHS):
            h, c = h0[lane].tolist(), c0[lane].tolist()
            for t in range(length):
                if resets[t, lane]:
                    h, c = zeros, zeros
                h, c = scalar_lstm_oracle(p, [X[t, lane].tolist()], h, c)
                assert out.probs[t, lane] == pytest.approx(
                    scalar_head_oracle(p, h), rel=1e-12)
            np.testing.assert_allclose(out.h[lane], h, rtol=1e-12)
            np.testing.assert_allclose(out.c[lane], c, rtol=1e-12)

    @pytest.mark.parametrize("want_cache", [False, True])
    def test_final_state_is_the_one_lane_run_stopped_at_its_length(self, want_cache):
        p, X, resets, h0, c0 = self._inputs()
        out = forward_batch(p, X, resets, h0, c0, want_cache=want_cache,
                            lengths=self.LENGTHS)
        for lane, length in enumerate(self.LENGTHS):
            alone = forward_batch(p, X[:length, lane:lane + 1],
                                  resets[:length, lane:lane + 1],
                                  h0[lane:lane + 1], c0[lane:lane + 1])
            np.testing.assert_allclose(out.probs[:length, lane], alone.probs[:, 0],
                                       rtol=1e-12)
            np.testing.assert_allclose(out.h[lane], alone.h[0], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(out.c[lane], alone.c[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("want_cache", [False, True])
    def test_padded_entries_are_one_half(self, want_cache):
        p, X, resets, h0, c0 = self._inputs()
        out = forward_batch(p, X, resets, h0, c0, want_cache=want_cache,
                            lengths=self.LENGTHS)
        padded = np.arange(X.shape[0])[:, None] >= np.array(self.LENGTHS)
        assert padded.sum() == 3
        assert (out.probs[padded] == 0.5).all()
        assert (out.probs[~padded] != 0.5).all()

    @pytest.mark.parametrize("dropout_p", [0.0, 0.4])
    def test_cached_and_plain_runs_agree_bit_for_bit(self, dropout_p):
        # Two ended lanes, a reset in the middle of the live lane 1 and one
        # on a padded step of lane 0.
        p, X, resets, h0, c0 = self._inputs()
        lengths = [0, 3, 5]
        masks = window_masks(p, X, lengths, dropout_p, 4)
        runs = [forward_batch(p, X, resets, h0, c0, masks, want_cache=want_cache,
                              lengths=lengths)
                for want_cache in (False, True)]
        for name in ("probs", "h", "c"):
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()

    def test_zero_length_lanes_keep_their_initial_state(self):
        # Later TBPTT windows hold lanes whose student has already ended.
        p, X, resets, h0, c0 = self._inputs()
        lengths = [0, 0, 5]
        out = forward_batch(p, X, resets, h0, c0, window_masks(p, X, lengths, 0.4, 5),
                            want_cache=True, lengths=lengths)
        assert out.h[:2].tobytes() == h0[:2].tobytes()
        assert out.c[:2].tobytes() == c0[:2].tobytes()
        assert (out.probs[:, :2] == 0.5).all()
        assert cached_h(out.cache).shape[0] == 5

    def test_reset_at_the_first_step_cuts_off_the_initial_state(self):
        # Backward writes each row's pre-step hidden state itself, step 0's
        # from h0: a lane that resets there must get the gradients of a
        # lane that starts from zeros.
        rng = np.random.default_rng(13)
        p = random_params(rng, hidden=16)
        T, B = 6, 4
        X = rng.uniform(-1, 1, (T, B, p.input_dim))
        labels = rng.integers(0, 2, (T, B)).astype(float)
        weights = rng.uniform(0.5, 3.0, (T, B))
        resets = np.zeros((T, B), dtype=bool)
        resets[0, [1, 3]] = True
        h0, c0 = rng.uniform(-1, 1, (2, B, 16))

        def grads(h0, c0):
            lengths = [2, 4, 6, 6]
            out = forward_batch(p, X, resets, h0, c0, window_masks(p, X, lengths, 0.4, 3),
                                want_cache=True, lengths=lengths)
            return backward_batch(p, out.cache, labels, weights)[0]

        cut_h0, cut_c0 = h0.copy(), c0.copy()
        cut_h0[[1, 3]] = cut_c0[[1, 3]] = 0.0
        for a, b in zip(grads(h0, c0).arrays(), grads(cut_h0, cut_c0).arrays()):
            np.testing.assert_array_equal(a, b)

    def test_masks_drawn_for_other_lengths_rejected(self):
        # masks for every step of every lane hold rows the packed lanes lack
        p, X, resets, h0, c0 = self._inputs()
        with pytest.raises(ValueError, match="masks have 15 rows for 12 real lane-steps"):
            forward_batch(p, X, resets, h0, c0, window_masks(p, X, None, 0.4, 1),
                          lengths=self.LENGTHS)

    @pytest.mark.parametrize("lanes, lengths", [
        (2, [5, 2]), (3, [2, 5, 4]),     # decreasing
        (3, [0, 2, 6]), (3, [-1, 2, 5]),  # outside [0, T]
        (2, [2, 5, 5]),                   # one length per lane
    ])
    def test_bad_lengths_rejected(self, lanes, lengths):
        p, X, resets, h0, c0 = self._inputs()
        with pytest.raises(ValueError, match="lengths"):
            forward_batch(p, X[:, :lanes], resets[:, :lanes], h0[:lanes], c0[:lanes],
                          lengths=lengths)


def inference_peak_bytes(T, B, hidden):
    """Peak bytes that ``forward_batch`` allocates at inference, inputs
    excluded, for a batch whose longest lane has T steps."""
    rng = np.random.default_rng(0)
    p = random_params(rng, hidden=hidden)
    X = rng.uniform(-1, 1, (T, B, p.input_dim))
    resets = np.zeros((T, B), dtype=bool)
    lengths = np.linspace(1, T, B).astype(int)
    zeros = np.zeros((B, hidden))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        forward_batch(p, X, resets, zeros, zeros, lengths=lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


class TestInferenceMemory:
    def test_peak_does_not_grow_with_a_hidden_state_per_step(self):
        # Only the (T, B) logits and probabilities grow with T; a per-step
        # (T, B, H) buffer would add 350*B*H*8 bytes from T=50 to T=400.
        B, hidden = 8, 32
        growth = inference_peak_bytes(400, B, hidden) - inference_peak_bytes(50, B, hidden)
        assert growth < 0.5 * 350 * B * hidden * 8


def window_inputs(T, B, hidden, seed=0, lengths=None):
    """Params and a packed window: inputs, resets, lengths, labels and
    weights.  The lanes' lengths default to an even spread over [1, T]."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, hidden=hidden)
    X = rng.uniform(-1, 1, (T, B, p.input_dim))
    resets = rng.random((T, B)) < 0.05
    if lengths is None:
        lengths = np.linspace(1, T, B).astype(int)
    labels = rng.integers(0, 2, (T, B)).astype(float)
    weights = rng.uniform(0.5, 3.0, (T, B))
    return p, X, resets, lengths, labels, weights


def cached_forward(p, X, resets, lengths, dropout_p=0.4, seed=0):
    zeros = np.zeros((X.shape[1], p.hidden_size))
    return forward_batch(p, X, resets, zeros, zeros,
                         window_masks(p, X, lengths, dropout_p, seed + 1),
                         want_cache=True, lengths=lengths)


def training_window(T, B, hidden, dropout_p=0.4, seed=0, lengths=None):
    """Params, a packed window with labels and weights, and its cache."""
    p, X, resets, lengths, labels, weights = window_inputs(T, B, hidden, seed, lengths)
    out = cached_forward(p, X, resets, lengths, dropout_p, seed)
    return p, out.cache, labels, weights


class TestTrainingMemory:
    def test_backward_allocates_one_hidden_state_buffer_beyond_the_cache(self):
        # The (T, B, H) dh buffer is 1x; a (T, B, 4H) gate-gradient array
        # alone would be 4x.
        T, B, hidden = 100, 8, 32
        p, cache, labels, weights = training_window(T, B, hidden)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backward_batch(p, cache, labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * T * B * hidden * 8

    def test_cache_and_backward_follow_real_lane_steps(self):
        # Seven one-step lanes beside one of T steps: 107 real lane-steps
        # in a window of 800.  Every cache array holds one row per real
        # lane-step, and backward's peak beyond the cache stays within
        # three (n, H) buffers of those rows (the gradients included).
        T, hidden = 100, 32
        lengths = [1] * 7 + [T]
        n = sum(lengths)
        p, cache, labels, weights = training_window(T, len(lengths), hidden,
                                                    lengths=lengths)
        widths = {"X": p.input_dim, "gates": 4 * hidden, "c": hidden,
                  "a1": p.dense1_size, "a2": p.dense2_size,
                  "m0": hidden, "m1": p.dense1_size, "m2": p.dense2_size}
        for name, width in widths.items():
            a = getattr(cache, name)
            assert a.nbytes <= n * width * a.itemsize, name
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backward_batch(p, cache, labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * n * hidden * 8

    def test_cache_holds_only_what_backward_cannot_recompute(self):
        # The cache holds the window's inputs, gates, cell states and dense
        # activations (8 bytes a unit) and the masks (1 byte), one row per
        # real lane-step, plus the (T, B) probabilities and resets and the
        # (B, H) initial state; no hidden states.  From before the forward
        # pass to the end of backward, the traced peak stays within that,
        # one (n, H) float64 buffer and one set of gradients: the head's
        # arrays and masks are gone before backward's buffer, and no
        # dropout draw is held for the whole window.
        T, hidden = 100, 32
        lengths = [1] * 7 + [T]
        B, n = len(lengths), sum(lengths)
        p, X, resets, lengths, labels, weights = window_inputs(T, B, hidden,
                                                               lengths=lengths)
        D, h1, h2 = p.input_dim, p.dense1_size, p.dense2_size
        bound = (n * (D + 5 * hidden + h1 + h2) * 8 + n * (hidden + h1 + h2)
                 + T * B * (8 + 1) + 2 * B * hidden * 8)
        gradient_set = sum(a.nbytes for a in p.arrays())
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cache = cached_forward(p, X, resets, lengths).cache
            held = sum(a.nbytes for a in (getattr(cache, f.name)
                                          for f in dataclasses.fields(cache))
                       if isinstance(a, np.ndarray))
            backward_batch(p, cache, labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= bound
        assert peak - base <= bound + n * hidden * 8 + gradient_set

    def test_backward_drops_the_head_before_its_buffer(self):
        # With the cache traced from its allocation, its frees count: a2
        # and the masks m1, m2 go before backward's (n, H) buffer exists,
        # so its peak above entry stays within that buffer and one set of
        # gradients (holding them too reaches 304.7 KB here).  a1 and m0
        # go before the BPTT loop.
        T, B, hidden = 100, 8, 32
        p, X, resets, lengths, labels, weights = window_inputs(T, B, hidden,
                                                               lengths=[T] * B)
        n = T * B
        gradient_set = sum(a.nbytes for a in p.arrays())
        tracemalloc.start()
        try:
            cache = cached_forward(p, X, resets, lengths).cache
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backward_batch(p, cache, labels, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= n * hidden * 8 + gradient_set
        assert cache.a1 is cache.a2 is cache.m0 is cache.m1 is cache.m2 is None

    def test_masks_are_bool(self):
        _, cache, _, _ = training_window(6, 3, 4)
        assert all(m.dtype == bool for m in (cache.m0, cache.m1, cache.m2))
        assert cache.inv_keep == 1.0 / (1.0 - 0.4)

    def test_second_backward_on_one_cache_is_refused(self):
        p, cache, labels, weights = training_window(6, 3, 4)
        backward_batch(p, cache, labels, weights)
        with pytest.raises(ValueError, match="already consumed"):
            backward_batch(p, cache, labels, weights)


class TestDropout:
    def test_block_drawn_masks_equal_one_draw_cut_to_the_real_rows(self):
        # T=37 spans three blocks of draws, the last one short; two lanes
        # never run and one ends inside the second block.
        lengths = [0, 0, 5, 20, 37, 37]
        T, B, keep = max(lengths), len(lengths), 0.6
        p, X, resets, lengths, _, _ = window_inputs(T, B, 5, lengths=lengths)
        cache = cached_forward(p, X, resets, lengths, dropout_p=1.0 - keep,
                               seed=30).cache
        draw = np.random.default_rng(31)
        real = np.arange(T)[:, None] < np.array(lengths)
        for mask, width in ((cache.m0, p.hidden_size), (cache.m1, p.dense1_size),
                            (cache.m2, p.dense2_size)):
            expected = (draw.random((T, B, width)) < keep)[real]
            assert mask.dtype == bool
            np.testing.assert_array_equal(mask, expected)

    def test_probs_equal_a_float_mask_head_oracle(self):
        # The masks are drawn from the same seeded generator as
        # (r < keep) / keep; the bool masks and 1/keep must give the same
        # bits.  The oracles take each step's hidden states from the
        # cache's packed rows.
        rng = np.random.default_rng(9)
        p = random_params(rng, hidden=6)
        lengths = [3, 8, 8, 8]
        T, B, keep = max(lengths), len(lengths), 0.6
        X = rng.uniform(-1, 1, (T, B, p.input_dim))
        resets = np.zeros((T, B), dtype=bool)
        zeros = np.zeros((B, p.hidden_size))
        out = forward_batch(p, X, resets, zeros, zeros,
                            window_masks(p, X, lengths, 1.0 - keep, 21), want_cache=True,
                            lengths=lengths)
        draw = np.random.default_rng(21)
        masks = [(draw.random((T, B, n)) < keep) / keep
                 for n in (p.hidden_size, p.dense1_size, p.dense2_size)]
        first = np.searchsorted(lengths, np.arange(T), side="right")
        hs = cached_h(out.cache)
        for t, lo in enumerate(first):
            start = packed_row(lengths, t, lo)
            rows = hs[start:start + B - lo]
            np.testing.assert_array_equal(
                out.probs[t, lo:],
                numpy_head_oracle(p, rows, [m[t, lo:] for m in masks]))
            for lane in range(lo, B):
                lane_masks = [m[t, lane].tolist() for m in masks]
                assert out.probs[t, lane] == pytest.approx(
                    scalar_head_oracle(p, rows[lane - lo].tolist(), lane_masks),
                    rel=1e-12)
        # some unit of every layer is dropped and some kept
        assert all(0 < (m == 0).mean() < 1 for m in masks)


class TestForward:
    def test_probs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, hidden=8, scale=2.0)
        frames = rng.uniform(-3, 3, (50, 13))
        probs = run_lane(p, frames)
        assert (probs > 0.0).all() and (probs < 1.0).all()

    def test_session_isolation_under_reset_mask(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, hidden=16)
        frames = rng.uniform(-1, 1, (12, 13))
        resets = np.zeros(12, dtype=bool)
        resets[[0, 5, 9]] = True  # three sessions
        probs = run_lane(p, frames, resets)
        # altering session 1 (steps 0-4) must not change sessions 2-3
        altered = frames.copy()
        altered[2] += 1.5
        probs2 = run_lane(p, altered, resets)
        np.testing.assert_array_equal(probs2[5:], probs[5:])
        assert not np.array_equal(probs2[:5], probs[:5])

    def test_dropout_p_zero_identical_with_and_without_seed(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, hidden=6)
        frames = rng.uniform(-1, 1, (10, 13))
        # masks of keep 1 drop nothing and scale by 1.0: no masks' bits
        a = run_lane(p, frames, dropout_p=0.0)
        b = run_lane(p, frames, dropout_p=0.0, rng_seed=99)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, hidden=6)
        frames = rng.uniform(-1, 1, (10, 13))
        a = run_lane(p, frames, dropout_p=0.4, rng_seed=5)
        b = run_lane(p, frames, dropout_p=0.4, rng_seed=5)
        np.testing.assert_array_equal(a, b)
        c = run_lane(p, frames, dropout_p=0.4, rng_seed=6)
        assert not np.array_equal(a, c)

    def test_empty_sequence(self):
        p = init_params(0, hidden_size=4)
        zeros = np.zeros((1, 4))
        out = forward_batch(p, np.zeros((0, 1, 13)), np.zeros((0, 1), dtype=bool),
                            zeros, zeros)
        assert out.probs.shape == (0, 1)
        assert (out.h == 0).all() and (out.c == 0).all()

    def test_out_bias_monotonicity(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, hidden=6)
        frames = rng.uniform(-1, 1, (20, 13))
        base = run_lane(p, frames)
        p.out_b += 0.7
        shifted = run_lane(p, frames)
        assert (shifted > base).all()

    def test_infer_step_matches_forward(self):
        rng = np.random.default_rng(6)
        p = random_params(rng, hidden=6)
        frames = rng.uniform(-1, 1, (15, 13))
        for reset_at in ((), (0, 4, 5, 11)):
            resets = np.isin(np.arange(15), reset_at)
            probs = run_lane(p, frames, resets)
            h, c = np.zeros(6), np.zeros(6)
            streamed = []
            for frame, reset in zip(frames, resets):
                prob, h, c = infer_step(p, frame, h, c, reset)
                streamed.append(prob)
            np.testing.assert_allclose(streamed, probs, rtol=1e-12)


def per_group_mask_oracle(rng, real, width, keep, grid, lanes):
    """One lane group's dropout mask as each group drew it for itself: a
    uniform for every ``(t, b)`` entry of the whole ``(T, grid)`` window,
    ``_MASK_STEPS`` = 16 steps at a time, each block cut to the group's
    ``lanes`` and then to its real rows ``real`` (``(T, B)`` for its B
    lanes)."""
    T = real.shape[0]
    mask = np.empty((int(real.sum()), width), dtype=bool)
    row = 0
    for start in range(0, T, 16):
        block = real[start:start + 16]
        rows = mask[row:row + int(block.sum())]
        draws = rng.random((len(block), grid, width))[:, lanes]
        rows[...] = (draws < keep)[block]
        row += len(rows)
    return mask


class TestLaneGroups:
    """A window run as lane groups (each group's lanes of the inputs, its
    rows of the window's masks, the whole window's weight sum) adds up to
    the window run whole, at H=400 with dropout on."""

    T, D = 24, 13
    # fixed before the first run: groups change only the rounding
    RTOL = 1e-9

    def _window(self, level, lanes, seed=0):
        """A training window of ``lanes`` lanes that carries in a state."""
        rng = np.random.default_rng(seed)
        lengths = np.sort(rng.integers(0, self.T + 1, lanes))
        lengths[-1] = self.T
        resets = (rng.random((self.T, lanes)) < 0.1) if level == "session" \
            else np.zeros((self.T, lanes), dtype=bool)
        return Batch(
            student_ids=[f"s{k}" for k in range(lanes)], lengths=lengths,
            X=rng.uniform(-1, 1, (self.T, lanes, self.D)), resets=resets,
            labels=(rng.random((self.T, lanes)) < 0.2).astype(float),
            weights=rng.uniform(1.0, 8.0, (self.T, lanes)),
        ), rng.uniform(-1, 1, (2, lanes, init_params(0).hidden_size))

    def _forward(self, params, window, h0, c0, masks, lanes=slice(None)):
        return forward_batch(params, window.X[:, lanes], window.resets[:, lanes], h0, c0,
                             masks, want_cache=True, lengths=window.lengths[lanes])

    def _close(self, got, expected):
        assert np.linalg.norm(got - expected) <= self.RTOL * np.linalg.norm(expected)

    @pytest.mark.parametrize("level", ["student", "session"])
    def test_group_sums_equal_the_whole_window(self, level):
        params = init_params(0)
        window, (h0, c0) = self._window(level, 72)
        key = [7]
        masks = draw_masks(params, window.real_steps(), 0.4, np.random.default_rng(key))
        whole = self._forward(params, window, h0, c0, masks)
        grads, num, w_sum = backward_batch(params, whole.cache, window.labels,
                                           window.weights)
        groups = _lane_groups(72)
        assert len(groups) == 3
        total, total_num = params.zeros_like(), 0.0
        for lanes, part_masks in zip(groups, _group_masks(params, window, 0.4, key, 3)):
            part = self._forward(params, window, h0[lanes], c0[lanes], part_masks, lanes)
            for got, expected in ((part.probs, whole.probs[:, lanes]),
                                  (part.h, whole.h[lanes]), (part.c, whole.c[lanes])):
                self._close(got, expected)
            part_grads, part_num, part_w_sum = backward_batch(
                params, part.cache, window.labels[:, lanes], window.weights[:, lanes],
                w_sum)
            assert part_w_sum == w_sum
            for acc, grad in zip(total.arrays(), part_grads.arrays()):
                acc += grad
            total_num += part_num
        for got, expected in zip(total.arrays(), grads.arrays()):
            self._close(got, expected)
        assert total_num == pytest.approx(num, rel=self.RTOL)

    @pytest.mark.parametrize("level", ["student", "session"])
    def test_group_masks_are_the_window_masks_at_its_lanes(self, level):
        params = init_params(0)
        window, (h0, c0) = self._window(level, 72, seed=1)
        key = [7]
        whole = self._forward(params, window, h0, c0, draw_masks(
            params, window.real_steps(), 0.4, np.random.default_rng(key))).cache
        # each packed row's lane, in (t, b) order
        row_lane = np.nonzero(window.real_steps())[1]
        groups = _lane_groups(72)
        for g, (lanes, masks) in enumerate(zip(groups, _group_masks(params, window, 0.4,
                                                                    key, 3))):
            part = self._forward(params, window, h0[lanes], c0[lanes], masks, lanes).cache
            for name in ("m0", "m1", "m2"):
                np.testing.assert_array_equal(
                    getattr(part, name), getattr(whole, name)[row_lane % 3 == g])

    @pytest.mark.parametrize("level", ["student", "session"])
    def test_group_masks_equal_each_groups_own_draw(self, level):
        # The oracle is the draw each lane group made for itself before the
        # window's masks were drawn once: the same stream, the same bits.
        params = init_params(0)
        window, _ = self._window(level, 72, seed=3)
        key, keep = [5, 6], 1.0 - 0.4
        widths = (params.hidden_size, params.dense1_size, params.dense2_size)
        groups = _lane_groups(72)
        assert len(groups) == 3
        for lanes, masks in zip(groups, _group_masks(params, window, 0.4, key, 3)):
            rng = np.random.default_rng(key)
            real = window.real_steps()[:, lanes]
            assert masks.keep == keep
            for mask, width in zip((masks.m0, masks.m1, masks.m2), widths):
                np.testing.assert_array_equal(
                    mask, per_group_mask_oracle(rng, real, width, keep, 72, lanes))

    @pytest.mark.parametrize("level", ["student", "session"])
    @pytest.mark.parametrize("lanes", [1, 17, LANE_GROUP])
    def test_a_window_of_one_group_keeps_the_unsplit_bits(self, level, lanes):
        params = init_params(0)
        window, (h0, c0) = self._window(level, lanes, seed=2)
        [group] = _lane_groups(lanes)
        key = [5, 6]
        masks = _group_masks(params, window, 0.4, key, 1)  # one group's, which it takes out
        w_sum = float(window.weights[window.real_steps()].sum())
        (h, c), grads, num = _train_group(params, window, group, (h0, c0), masks, w_sum)
        assert masks == []
        whole = forward_batch(params, window.X, window.resets, h0, c0, draw_masks(
            params, window.real_steps(), 0.4, np.random.default_rng(key)),
            want_cache=True, lengths=window.lengths)
        expected, expected_num, _ = backward_batch(params, whole.cache, window.labels,
                                                   window.weights)
        np.testing.assert_array_equal(h, whole.h)
        np.testing.assert_array_equal(c, whole.c)
        for got, want in zip(grads.arrays(), expected.arrays()):
            np.testing.assert_array_equal(got, want)
        assert num == expected_num


class TestLoss:
    def test_ln2_case(self):
        assert loss_weighted_bce([0.5], [1.0], [1.0]) == pytest.approx(
            0.6931471805599453, abs=1e-15)

    def test_weight_scaling_invariance(self):
        probs = [0.3, 0.8, 0.6]
        labels = [0.0, 1.0, 0.0]
        weights = [1.0, 25.0, 2.0]
        a = loss_weighted_bce(probs, labels, weights)
        b = loss_weighted_bce(probs, labels, [2 * w for w in weights])
        assert a == pytest.approx(b, rel=1e-15)

    def test_two_step_weighted_case(self):
        # (25*(-ln 0.9) + 1*(-ln 0.8)) / 26, frozen from a 40-digit evaluation
        value = loss_weighted_bce([0.9, 0.2], [1.0, 0.0], [25.0, 1.0])
        assert value == pytest.approx(0.10989063241384105, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_weighted_bce([0.5, 0.5], [1.0], [1.0])


def rmsprop_scalar_oracle(theta, grads, lr=0.001, rho=0.9, eps=1e-8):
    """Spreadsheet-style scalar trajectory."""
    s = 0.0
    path = []
    for g in grads:
        s = rho * s + (1 - rho) * g * g
        theta = theta - lr * g / (math.sqrt(s) + eps)
        path.append(theta)
    return path


class TestRmsprop:
    def _scalar_params(self, value):
        p = init_params(0, input_dim=1, hidden_size=1).zeros_like()
        p.out_b[0] = value
        return p

    def test_zero_gradient_leaves_params_and_decays_state(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, hidden=4)
        sq = p.zeros_like()
        for arr in sq.arrays():
            arr += 0.5
        p2, sq2 = rmsprop_update(p, p.zeros_like(), sq)
        assert all((a == b).all() for a, b in zip(p.arrays(), p2.arrays()))
        assert all((s == 0.45).all() for s in sq2.arrays())

    def test_first_step_formula(self):
        p = self._scalar_params(1.0)
        g = p.zeros_like()
        g.out_b[0] = 0.3
        p2, _ = rmsprop_update(p, g, p.zeros_like(), lr=0.001)
        expected = 1.0 - 0.001 * 0.3 / (math.sqrt(0.1 * 0.3 * 0.3) + 1e-8)
        assert p2.out_b[0] == pytest.approx(expected, rel=1e-15)

    def test_five_step_trajectory_matches_oracle(self):
        grads = [0.3, -0.2, 0.05, 0.4, -0.1]
        expected = rmsprop_scalar_oracle(2.0, grads)
        p = self._scalar_params(2.0)
        sq = p.zeros_like()
        seen = []
        for gval in grads:
            g = p.zeros_like()
            g.out_b[0] = gval
            p, sq = rmsprop_update(p, g, sq)
            seen.append(p.out_b[0])
        np.testing.assert_allclose(seen, expected, rtol=1e-12)

    def test_running_means_stay_nonnegative(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, hidden=4)
        sq = p.zeros_like()
        for step in range(5):
            g = ModelParams(*(rng.normal(size=a.shape) for a in p.arrays()))
            p, sq = rmsprop_update(p, g, sq)
            assert all((s >= 0).all() for s in sq.arrays())


SPLIT_RECORD = {"level": "session", "utc_offset_minutes": -90,
                "split": {"train": ["a", "b", "d"], "validation": ["c"], "test": ["e", "\u00e9"]}}


def with_record(path, text: bytes):
    """Replace the record of the checkpoint at ``path`` by ``text``."""
    blob = path.read_bytes()
    default = json.dumps(UNTRAINED_RECORD, sort_keys=True).encode()
    assert blob.endswith(default)
    path.write_bytes(blob[:-len(default)] + text)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        p = random_params(rng, hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        q, record = load_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            assert a.shape == b.shape
            assert (a == b).all()
        assert record == UNTRAINED_RECORD == {
            "level": "student", "utc_offset_minutes": 60, "split": None}

    def test_round_trip_with_a_record_bit_identical(self, tmp_path):
        p = random_params(np.random.default_rng(4), hidden=4)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(p, first, SPLIT_RECORD)
        q, record = load_checkpoint(first)
        assert record == SPLIT_RECORD
        save_checkpoint(q, second, record)
        assert first.read_bytes() == second.read_bytes()

    def test_layout_is_magic_header_tensors_then_record(self, tmp_path):
        p = init_params(0, hidden_size=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path, SPLIT_RECORD)
        tensors = b"".join(a.astype("<f8").tobytes() for a in p.arrays())
        header = np.array([13, 4, 2, 1, 2, 2, 2, 2], dtype="<u4").tobytes()
        record = json.dumps(SPLIT_RECORD, sort_keys=True).encode("utf-8")
        assert path.read_bytes() == b"EOS2" + header + tensors + record

    def test_round_trip_production_size(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "full.ckpt"
        save_checkpoint(p, path)
        q, _ = load_checkpoint(path)
        assert q.hidden_size == 400
        assert all((a == b).all() for a, b in zip(p.arrays(), q.arrays()))

    def test_load_peaks_near_twice_the_file_size(self, tmp_path):
        # The file's bytes and the float64 copies of its tensors, at H=400;
        # a copy of the payload besides them would read 3x.
        path = tmp_path / "full.ckpt"
        save_checkpoint(init_params(0), path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * path.stat().st_size

    def test_truncated_file_rejected(self, tmp_path):
        # cut short inside the tensors; a cut record is a record defect
        p = init_params(0, hidden_size=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        record = json.dumps(UNTRAINED_RECORD, sort_keys=True).encode()
        path.write_bytes(blob[:len(blob) - len(record) - 17])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_eos1_file_rejected(self, tmp_path):
        """The format before the record: magic, header and tensors alone."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(0, hidden_size=4), path)
        with_record(path, b"")
        path.write_bytes(b"EOS1" + path.read_bytes()[4:])
        with pytest.raises(CheckpointError) as raised:
            load_checkpoint(path)
        message = str(raised.value)
        assert message.startswith(f"{path}: an EOS1 checkpoint") and "\n" not in message
        assert "retrain" in message

    @pytest.mark.parametrize("text, match", [
        (b"", "not UTF-8 JSON"),
        (b'{"level": "student", "split": null, "utc_offset_', "not UTF-8 JSON"),
        (b'{"level": "st\xffudent", "split": null, "utc_offset_minutes": 60}', "not UTF-8 JSON"),
        (b"[]", "keys are not"),
        (b'{"level": "student", "split": null}', "keys are not"),
        (b'{"level": "student", "seed": 0, "split": null, "utc_offset_minutes": 60}',
         "keys are not"),
        (b'{"level": "Student", "split": null, "utc_offset_minutes": 60}', "level 'Student'"),
        (b'{"level": null, "split": null, "utc_offset_minutes": 60}', "level None"),
        (b'{"level": "student", "split": null, "utc_offset_minutes": true}',
         "utc_offset_minutes True is not an integer in [-720, 840]"),
        (b'{"level": "student", "split": null, "utc_offset_minutes": 60.0}',
         "utc_offset_minutes 60.0 is not"),
        (b'{"level": "student", "split": null, "utc_offset_minutes": "60"}',
         "utc_offset_minutes '60' is not"),
        (b'{"level": "student", "split": null, "utc_offset_minutes": -721}',
         "utc_offset_minutes -721 is not"),
        (b'{"level": "student", "split": null, "utc_offset_minutes": 841}',
         "utc_offset_minutes 841 is not"),
        (b'{"level": "student", "split": [], "utc_offset_minutes": 60}',
         "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"train": [], "test": []}, "utc_offset_minutes": 60}',
         "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"test": [], "train": "ab", "validation": []}, '
         b'"utc_offset_minutes": 60}', "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"test": [1], "train": [], "validation": []}, '
         b'"utc_offset_minutes": 60}', "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"test": [], "train": ["b", "a"], "validation": []}, '
         b'"utc_offset_minutes": 60}', "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"test": [], "train": ["a", "a"], "validation": []}, '
         b'"utc_offset_minutes": 60}', "split is not train, validation and test lists"),
        (b'{"level": "student", "split": {"test": ["b"], "train": ["a", "b"], '
         b'"validation": []}, "utc_offset_minutes": 60}', "a student is in two parts"),
    ], ids=["empty", "cut", "not-utf8", "not-a-mapping", "missing-key", "extra-key",
            "bad-level", "null-level", "bool-offset", "float-offset", "text-offset",
            "offset-below", "offset-above", "split-a-list", "split-lacks-a-part",
            "ids-a-string", "id-not-text", "ids-unsorted", "id-twice", "parts-overlap"])
    def test_record_defect_rejected(self, tmp_path, text, match):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(0, hidden_size=4), path)
        with_record(path, text)
        with pytest.raises(CheckpointError, match=re.escape(match)) as raised:
            load_checkpoint(path)
        assert str(raised.value).startswith(f"{path}: ") and "\n" not in str(raised.value)

    def test_bad_markers_rejected(self, tmp_path):
        p = init_params(0, hidden_size=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        blob[4 + 16] = 9  # first marker
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="markers"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        p = init_params(0, hidden_size=4)
        p.dense1_b[1] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        with pytest.raises(CheckpointError) as raised:
            load_checkpoint(path)
        assert str(raised.value) == f"{path}: non-finite value in dense1_b"

    def test_small_model_dims_preserved(self, tmp_path):
        p = init_params(1, hidden_size=4)
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(p, path)
        q, _ = load_checkpoint(path)
        assert q.hidden_size == 4
        assert q.input_dim == 13
        assert q.dense1_size == 2 and q.dense2_size == 1

    def test_no_partial_file_on_failure(self, tmp_path):
        # write-then-rename: target absent until the write completes
        p = init_params(0, hidden_size=4)
        target = tmp_path / "sub" / "m.ckpt"
        with pytest.raises(FileNotFoundError):
            save_checkpoint(p, target)
        assert not target.exists()


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-30, 30, 1001)
        s = sigmoid(x)
        assert ((s > 0) & (s < 1)).all()
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-12)

    def test_extreme_values_do_not_overflow(self):
        s = sigmoid(np.array([-1000.0, 1000.0]))
        assert s[0] == 0.0 and s[1] == 1.0
