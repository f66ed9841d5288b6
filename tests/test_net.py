"""Network core: LSTM step, forward contracts, loss, RMSprop, checkpoints."""

import math
import tracemalloc

import numpy as np
import pytest
from test_gradients import loss_weighted_bce

from eosnet.errors import CheckpointError
from eosnet.net import (
    LstmState,
    ModelParams,
    OptState,
    backward_batch,
    infer_step,
    init_params,
    forward_batch,
    load_checkpoint,
    lstm_step,
    rmsprop_update,
    save_checkpoint,
    sigmoid,
)


def random_params(rng, input_dim=13, hidden=4, scale=0.4):
    shapes = init_params(0, input_dim=input_dim, hidden_size=hidden)
    return ModelParams(*(rng.normal(0.0, scale, size=a.shape) for a in shapes.arrays()))


def run_lane(params, frames, resets=None, dropout_p=0.0, rng_seed=None):
    """Probabilities of one sequence run through ``forward_batch`` as a
    single lane from a zero state; ``rng_seed`` selects training mode."""
    X = np.asarray(frames, dtype=np.float64)[:, None, :]
    if resets is None:
        resets = np.zeros(X.shape[0], dtype=bool)
    zeros = np.zeros((1, params.hidden_size))
    rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
    out = forward_batch(params, X, np.asarray(resets)[:, None], zeros, zeros,
                        dropout_p=dropout_p, rng=rng)
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
        state = lstm_step(p, np.zeros(13), LstmState.zeros(4))
        assert (state.h == 0.0).all()
        assert (state.c == 0.0).all()

    def test_saturated_forget_gate_preserves_cell(self):
        p = init_params(0, hidden_size=4).zeros_like()
        p.lstm_b[4:8] = 50.0  # forget block
        start = LstmState(h=np.zeros(4), c=np.array([1.0, -2.0, 0.5, 3.0]))
        state = lstm_step(p, np.zeros(13), start)
        np.testing.assert_allclose(state.c, start.c, rtol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, input_dim=3, hidden=2)
        xs = rng.uniform(-1, 1, (6, 3))
        state = LstmState(h=rng.uniform(-1, 1, 2), c=rng.uniform(-1, 1, 2))
        expected_h, expected_c = scalar_lstm_oracle(p, xs.tolist(),
                                                    state.h.tolist(), state.c.tolist())
        for x in xs:
            state = lstm_step(p, x, state)
        np.testing.assert_allclose(state.h, expected_h, rtol=1e-12)
        np.testing.assert_allclose(state.c, expected_c, rtol=1e-12)


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
        T, B, _ = X.shape
        zeros = [0.0] * p.hidden_size
        for lane in range(B):
            h, c = h0[lane].tolist(), c0[lane].tolist()
            for t in range(T):
                if resets[t, lane]:
                    h, c = zeros, zeros
                h, c = scalar_lstm_oracle(p, [X[t, lane].tolist()], h, c)
                np.testing.assert_allclose(out.cache.h[t, lane], h, rtol=1e-12)
                np.testing.assert_allclose(out.cache.c[t, lane], c, rtol=1e-12)
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


def training_window(T, B, hidden, dropout_p=0.4, seed=0):
    """Params, a packed window with labels and weights, and its cache."""
    rng = np.random.default_rng(seed)
    p = random_params(rng, hidden=hidden)
    X = rng.uniform(-1, 1, (T, B, p.input_dim))
    resets = rng.random((T, B)) < 0.05
    lengths = np.linspace(1, T, B).astype(int)
    labels = rng.integers(0, 2, (T, B)).astype(float)
    weights = rng.uniform(0.5, 3.0, (T, B))
    zeros = np.zeros((B, hidden))
    out = forward_batch(p, X, resets, zeros, zeros, dropout_p=dropout_p,
                        rng=np.random.default_rng(seed + 1), want_cache=True,
                        lengths=lengths)
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
    def test_probs_equal_a_float_mask_head_oracle(self):
        # The masks are drawn from the same seeded generator as
        # (r < keep) / keep; the bool masks and 1/keep must give the same
        # bits.  The oracles take each step's hidden states from the cache.
        rng = np.random.default_rng(9)
        p = random_params(rng, hidden=6)
        lengths = [3, 8, 8, 8]
        T, B, keep = max(lengths), len(lengths), 0.6
        X = rng.uniform(-1, 1, (T, B, p.input_dim))
        resets = np.zeros((T, B), dtype=bool)
        zeros = np.zeros((B, p.hidden_size))
        out = forward_batch(p, X, resets, zeros, zeros, dropout_p=1.0 - keep,
                            rng=np.random.default_rng(21), want_cache=True,
                            lengths=lengths)
        draw = np.random.default_rng(21)
        masks = [(draw.random((T, B, n)) < keep) / keep
                 for n in (p.hidden_size, p.dense1_size, p.dense2_size)]
        first = np.searchsorted(lengths, np.arange(T), side="right")
        for t, lo in enumerate(first):
            rows = out.cache.h[t, lo:]
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
        probs = run_lane(p, frames)
        state = LstmState.zeros(6)
        streamed = []
        for frame in frames:
            prob, state = infer_step(p, frame, state)
            streamed.append(prob)
        np.testing.assert_allclose(streamed, probs, rtol=1e-12)


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
        opt = OptState.for_params(p)
        for arr in opt.sq.arrays():
            arr += 0.5
        p2, opt2 = rmsprop_update(p, p.zeros_like(), opt)
        assert all((a == b).all() for a, b in zip(p.arrays(), p2.arrays()))
        assert all((s == 0.45).all() for s in opt2.sq.arrays())

    def test_first_step_formula(self):
        p = self._scalar_params(1.0)
        g = p.zeros_like()
        g.out_b[0] = 0.3
        opt = OptState.for_params(p)
        p2, _ = rmsprop_update(p, g, opt, lr=0.001)
        expected = 1.0 - 0.001 * 0.3 / (math.sqrt(0.1 * 0.3 * 0.3) + 1e-8)
        assert p2.out_b[0] == pytest.approx(expected, rel=1e-15)

    def test_five_step_trajectory_matches_oracle(self):
        grads = [0.3, -0.2, 0.05, 0.4, -0.1]
        expected = rmsprop_scalar_oracle(2.0, grads)
        p = self._scalar_params(2.0)
        opt = OptState.for_params(p)
        seen = []
        for gval in grads:
            g = p.zeros_like()
            g.out_b[0] = gval
            p, opt = rmsprop_update(p, g, opt)
            seen.append(p.out_b[0])
        np.testing.assert_allclose(seen, expected, rtol=1e-12)

    def test_running_means_stay_nonnegative(self):
        rng = np.random.default_rng(9)
        p = random_params(rng, hidden=4)
        opt = OptState.for_params(p)
        for step in range(5):
            g = ModelParams(*(rng.normal(size=a.shape) for a in p.arrays()))
            p, opt = rmsprop_update(p, g, opt)
            assert all((s >= 0).all() for s in opt.sq.arrays())


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        p = random_params(rng, hidden=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        for a, b in zip(p.arrays(), q.arrays()):
            assert a.shape == b.shape
            assert (a == b).all()

    def test_round_trip_production_size(self, tmp_path):
        p = init_params(0)
        path = tmp_path / "full.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.hidden_size == 400
        assert all((a == b).all() for a, b in zip(p.arrays(), q.arrays()))

    def test_truncated_file_rejected(self, tmp_path):
        p = init_params(0, hidden_size=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 17])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_markers_rejected(self, tmp_path):
        p = init_params(0, hidden_size=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        blob[4 + 16] = 9  # first marker
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="markers"):
            load_checkpoint(path)

    def test_small_model_dims_preserved(self, tmp_path):
        p = init_params(1, hidden_size=4)
        path = tmp_path / "tiny.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
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
