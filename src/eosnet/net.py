"""Recurrent network core: LSTM, ReLU stack, sigmoid head, hand-derived
backpropagation through time, RMSprop, and checkpoint serialization.

All math is 64-bit.  The batched code path is time-major ``(T, B, dim)``
and is the single implementation; there are no per-sequence wrappers, so
callers pass whole batches to :func:`forward_batch` and
:func:`backward_batch`.  The streaming ``infer_step`` (and ``lstm_step``)
are T=1, B=1 wrappers over it.  Gate blocks inside ``lstm_W``/``lstm_b``
are stacked in the order input, forget, candidate, output, and the LSTM
input is the concatenation ``[x; h]`` (feature columns first).

The time loop of :func:`forward_batch` keeps ``[x_t; h]`` in one
``(B, D+H)`` buffer and computes all four gate pre-activations with a
single GEMM per step.  The gates take one ``tanh`` pass over all ``4H``
columns: the input, forget and output blocks are halved first and mapped
back afterwards, using sigma(x) = tanh(x/2)/2 + 1/2 (halving is exact in
float64, so the only change from the exp form is rounding in the last
place).  The output head keeps the exact exp-form :func:`sigmoid`, which
keeps the relative precision of tiny probabilities that the loss needs;
it runs on ``T*B`` values.  At inference (``want_cache=False``) the loop
allocates the per-step hidden states ``(T, B, H)`` that the dense head
reads, plus ``O(B*(D+5H))`` of step buffers; the post-activation gates
``(T, B, 4H)`` and cell states ``(T, B, H)`` that backpropagation needs are
stored only with ``want_cache=True``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from eosnet.errors import CheckpointError, NumericalFault
from eosnet.features import FEATURE_DIM
from eosnet.fileio import atomic_write_bytes

DEFAULT_HIDDEN_SIZE = 400
FORGET_BIAS = 1.0

# RMSprop decay of the squared-gradient mean, and the denominator floor
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8

# strict-(0,1) clamp for emitted probabilities
_PROB_LO = 1e-300
_PROB_HI = float(np.nextafter(1.0, 0.0))

CHECKPOINT_MAGIC = b"EOS1"
# header: input dim, hidden size, two dense sizes, then the tensor count
# of each layer group (weights + bias = 2, repeated four times)
_LAYER_MARKERS = (2, 2, 2, 2)
_HEADER_STRUCT = struct.Struct("<8I")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(slots=True)
class ModelParams:
    """All weights of the network (also reused as a gradient container).

    Shapes, with D input features and H hidden units:
    lstm_W (4H, D+H), lstm_b (4H,), dense1_W (H1, H), dense1_b (H1,),
    dense2_W (H2, H1), dense2_b (H2,), out_W (1, H2), out_b (1,).
    """

    lstm_W: np.ndarray
    lstm_b: np.ndarray
    dense1_W: np.ndarray
    dense1_b: np.ndarray
    dense2_W: np.ndarray
    dense2_b: np.ndarray
    out_W: np.ndarray
    out_b: np.ndarray

    FIELDS = (
        "lstm_W", "lstm_b", "dense1_W", "dense1_b",
        "dense2_W", "dense2_b", "out_W", "out_b",
    )

    @property
    def hidden_size(self) -> int:
        return self.lstm_b.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.lstm_W.shape[1] - self.hidden_size

    @property
    def dense1_size(self) -> int:
        return self.dense1_b.shape[0]

    @property
    def dense2_size(self) -> int:
        return self.dense2_b.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays()))

    def zeros_like(self) -> "ModelParams":
        return ModelParams(*(np.zeros_like(a) for a in self.arrays()))

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays())


@dataclass(slots=True)
class LstmState:
    """Recurrent state: hidden and cell vectors, length H."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int) -> "LstmState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


def fan_in_sizes(hidden_size: int) -> tuple[int, int]:
    """Dense layer widths: each layer halves its predecessor."""
    return max(1, hidden_size // 2), max(1, hidden_size // 4)


def init_params(seed: int, input_dim: int = FEATURE_DIM,
                hidden_size: int = DEFAULT_HIDDEN_SIZE) -> ModelParams:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0.

    Matrices are drawn in field order from one seeded generator, so the
    result is a pure function of the seed and the sizes.
    """
    h1, h2 = fan_in_sizes(hidden_size)
    rng = np.random.default_rng(seed)

    def glorot(rows: int, cols: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    lstm_b = np.zeros(4 * hidden_size)
    lstm_b[hidden_size:2 * hidden_size] = FORGET_BIAS
    return ModelParams(
        lstm_W=glorot(4 * hidden_size, input_dim + hidden_size),
        lstm_b=lstm_b,
        dense1_W=glorot(h1, hidden_size),
        dense1_b=np.zeros(h1),
        dense2_W=glorot(h2, h1),
        dense2_b=np.zeros(h2),
        out_W=glorot(1, h2),
        out_b=np.zeros(1),
    )


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _ForwardCache:
    X: np.ndarray        # (T, B, D)
    resets: np.ndarray   # (T, B) bool
    gates: np.ndarray    # (T, B, 4H) post-activation, blocks i|f|g|o
    c: np.ndarray        # (T, B, H)
    h: np.ndarray        # (T, B, H)
    h0: np.ndarray
    c0: np.ndarray
    m0: Optional[np.ndarray]
    m1: Optional[np.ndarray]
    m2: Optional[np.ndarray]
    a1: np.ndarray       # (T, B, H1) post-ReLU
    a2: np.ndarray       # (T, B, H2) post-ReLU
    probs: np.ndarray    # (T, B)


@dataclass(slots=True)
class BatchForward:
    probs: np.ndarray    # (T, B), strictly inside (0, 1)
    h: np.ndarray        # (B, H) final hidden state
    c: np.ndarray        # (B, H) final cell state
    cache: Optional[_ForwardCache]


def forward_batch(params: ModelParams, X: np.ndarray, resets: np.ndarray,
                  h0: np.ndarray, c0: np.ndarray, dropout_p: float = 0.0,
                  rng: Optional[np.random.Generator] = None,
                  want_cache: bool = False) -> BatchForward:
    """Run the full pipeline over a time-major batch.

    ``resets[t, b]`` zeroes lane b's state before step t.  Dropout
    (inverted, scale 1/(1-p)) is applied to the LSTM output and both
    dense outputs only when an RNG is supplied and p > 0; inference mode
    applies no masks and no scaling.
    """
    T, B, D = X.shape
    hidden = params.hidden_size
    if D != params.input_dim:
        raise ValueError(f"feature dim {D} != model input dim {params.input_dim}")

    train = rng is not None and dropout_p > 0.0
    if train:
        keep = 1.0 - dropout_p
        h1, h2 = params.dense1_size, params.dense2_size
        m0 = (rng.random((T, B, hidden)) < keep) / keep
        m1 = (rng.random((T, B, h1)) < keep) / keep
        m2 = (rng.random((T, B, h2)) < keep) / keep
    else:
        m0 = m1 = m2 = None

    # sigma(x) = tanh(x/2)/2 + 1/2: halve the i, f, o pre-activations (and
    # bias), take one tanh over all four blocks, then map i, f, o back.
    # Scaling by 0.5 or 1.0 and adding 0.0 are exact in float64.
    W_T = params.lstm_W.T
    scale = np.full(4 * hidden, 0.5)
    scale[2 * hidden:3 * hidden] = 1.0
    shift = 1.0 - scale
    bias = params.lstm_b * scale

    xh = np.empty((B, D + hidden))
    xh[:, D:] = h0
    h = xh[:, D:]
    c = np.array(c0, dtype=np.float64)
    z = np.empty((B, 4 * hidden))
    i, f, g, o = (z[:, k * hidden:(k + 1) * hidden] for k in range(4))
    ig = np.empty((B, hidden))
    hs = np.empty((T, B, hidden))
    if want_cache:
        gates = np.empty((T, B, 4 * hidden))
        cs = np.empty((T, B, hidden))
    for t in range(T):
        xh[:, :D] = X[t]
        live = ~resets[t]
        if not live.all():
            h *= live[:, None]
            c *= live[:, None]
        np.matmul(xh, W_T, out=z)
        z *= scale
        z += bias
        np.tanh(z, out=z)
        z *= scale
        z += shift
        c *= f
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=hs[t])
        hs[t] *= o
        h[...] = hs[t]
        if want_cache:
            gates[t] = z
            cs[t] = c

    flat_h = hs.reshape(T * B, hidden)
    if train:
        flat_h = flat_h * m0.reshape(T * B, hidden)
    a1 = np.maximum(flat_h @ params.dense1_W.T + params.dense1_b, 0.0)
    a1d = a1 * m1.reshape(T * B, -1) if train else a1
    a2 = np.maximum(a1d @ params.dense2_W.T + params.dense2_b, 0.0)
    a2d = a2 * m2.reshape(T * B, -1) if train else a2
    z_out = a2d @ params.out_W.T + params.out_b
    probs = np.clip(sigmoid(z_out[:, 0]), _PROB_LO, _PROB_HI).reshape(T, B)

    if not np.isfinite(probs).all():
        bad = np.argwhere(~np.isfinite(probs))
        raise NumericalFault("non-finite activation", step=int(bad[0][0]))

    cache = None
    if want_cache:
        cache = _ForwardCache(
            X=X, resets=resets, gates=gates, c=cs, h=hs,
            h0=np.asarray(h0, dtype=np.float64), c0=np.asarray(c0, dtype=np.float64),
            m0=m0, m1=m1, m2=m2,
            a1=a1.reshape(T, B, -1), a2=a2.reshape(T, B, -1), probs=probs,
        )
    return BatchForward(probs=probs, h=h.copy(), c=c, cache=cache)


def backward_batch(params: ModelParams, cache: _ForwardCache, labels: np.ndarray,
                   weights: np.ndarray, valid: np.ndarray) -> tuple[ModelParams, float, float]:
    """Exact gradient of the weight-normalized BCE over the cached window.

    Returns ``(grads, loss_numerator, weight_sum)`` where the window loss
    is ``loss_numerator / weight_sum``.  Invalid (padding) steps carry
    zero weight; gradients stop at the window boundary (the initial state
    is treated as a constant) and at every reset.
    """
    T, B, D = cache.X.shape
    hidden = params.hidden_size
    Wh = params.lstm_W[:, D:]

    w_eff = np.where(valid, weights, 0.0)
    w_sum = float(w_eff.sum())
    grads = params.zeros_like()
    if T == 0 or w_sum == 0.0:
        return grads, 0.0, w_sum

    p = cache.probs
    y = labels
    ln_p = np.log(np.where(valid, p, 0.5))
    ln_1mp = np.log1p(-np.where(valid, p, 0.5))
    loss_num = float((w_eff * -(y * ln_p + (1 - y) * ln_1mp)).sum())

    train = cache.m0 is not None
    TB = T * B

    # output head and dense stack, batched over all steps
    dz_out = (w_eff * (p - y) / w_sum).reshape(TB, 1)
    a2d = cache.a2 * cache.m2 if train else cache.a2
    a1d = cache.a1 * cache.m1 if train else cache.a1
    a2d = a2d.reshape(TB, -1)
    a1d = a1d.reshape(TB, -1)
    grads.out_W += dz_out.T @ a2d
    grads.out_b += dz_out.sum(axis=0)

    da2 = dz_out @ params.out_W
    if train:
        da2 = da2 * cache.m2.reshape(TB, -1)
    dz2 = da2 * (cache.a2.reshape(TB, -1) > 0.0)
    grads.dense2_W += dz2.T @ a1d
    grads.dense2_b += dz2.sum(axis=0)

    da1 = dz2 @ params.dense2_W
    if train:
        da1 = da1 * cache.m1.reshape(TB, -1)
    dz1 = da1 * (cache.a1.reshape(TB, -1) > 0.0)
    hs_flat = cache.h.reshape(TB, hidden)
    hd = hs_flat * cache.m0.reshape(TB, hidden) if train else hs_flat
    grads.dense1_W += dz1.T @ hd
    grads.dense1_b += dz1.sum(axis=0)

    dh_top = (dz1 @ params.dense1_W).reshape(T, B, hidden)
    if train:
        dh_top = dh_top * cache.m0

    # state pre-step (after any reset), for gate gradients and dWh
    live = ~cache.resets[..., None]
    h_prev = np.empty_like(cache.h)
    c_prev = np.empty_like(cache.c)
    h_prev[0] = cache.h0
    c_prev[0] = cache.c0
    h_prev[1:] = cache.h[:-1]
    c_prev[1:] = cache.c[:-1]
    h_prev *= live
    c_prev *= live

    dz4 = np.empty((T, B, 4 * hidden))
    dh_carry = np.zeros((B, hidden))
    dc_carry = np.zeros((B, hidden))
    for t in range(T - 1, -1, -1):
        i = cache.gates[t, :, :hidden]
        f = cache.gates[t, :, hidden:2 * hidden]
        g = cache.gates[t, :, 2 * hidden:3 * hidden]
        o = cache.gates[t, :, 3 * hidden:]
        tc = np.tanh(cache.c[t])

        dh = dh_top[t] + dh_carry
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        dz4[t, :, :hidden] = dc * g * i * (1.0 - i)
        dz4[t, :, hidden:2 * hidden] = dc * c_prev[t] * f * (1.0 - f)
        dz4[t, :, 2 * hidden:3 * hidden] = dc * i * (1.0 - g * g)
        dz4[t, :, 3 * hidden:] = dh * tc * o * (1.0 - o)

        dh_carry = (dz4[t] @ Wh) * live[t]
        dc_carry = dc * f * live[t]

    dz4_flat = dz4.reshape(TB, 4 * hidden)
    grads.lstm_W[:, :D] += dz4_flat.T @ cache.X.reshape(TB, D)
    grads.lstm_W[:, D:] += dz4_flat.T @ h_prev.reshape(TB, hidden)
    grads.lstm_b += dz4_flat.sum(axis=0)

    if not grads.all_finite():
        raise NumericalFault("non-finite gradient")
    return grads, loss_num, w_sum


# ---------------------------------------------------------------------------
# the streaming wrappers
# ---------------------------------------------------------------------------

def infer_step(params: ModelParams, frame, state: LstmState) -> tuple[float, LstmState]:
    """Inference for a single action: one LSTM step plus the dense head.

    Runs ``forward_batch`` with one step and one lane, so it matches a
    whole-sequence inference pass step for step; used by the streaming
    scorer where actions arrive one at a time.
    """
    X = np.asarray(frame, dtype=np.float64).reshape(1, 1, -1)
    out = forward_batch(params, X, np.zeros((1, 1), dtype=bool),
                        state.h[None, :], state.c[None, :])
    return float(out.probs[0, 0]), LstmState(h=out.h[0], c=out.c[0])


def lstm_step(params: ModelParams, x, state: LstmState) -> LstmState:
    """One LSTM step; pure function of its inputs (``infer_step`` without
    the probability)."""
    return infer_step(params, x, state)[1]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OptState:
    """RMSprop state: running mean of squared gradients per parameter."""

    sq: ModelParams

    @classmethod
    def for_params(cls, params: ModelParams) -> "OptState":
        return cls(sq=params.zeros_like())


def rmsprop_update(params: ModelParams, grads: ModelParams, opt: OptState,
                   lr: float = 0.001) -> tuple[ModelParams, OptState]:
    """s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(s)+eps)."""
    new_sq = []
    new_params = []
    for theta, g, s in zip(params.arrays(), grads.arrays(), opt.sq.arrays()):
        s2 = RMSPROP_RHO * s + (1.0 - RMSPROP_RHO) * g * g
        new_sq.append(s2)
        new_params.append(theta - lr * g / (np.sqrt(s2) + RMSPROP_EPS))
    return ModelParams(*new_params), OptState(sq=ModelParams(*new_sq))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Write magic, the 8-dim header, then tensors row-major as little-
    endian float64, atomically (write-then-rename)."""
    header = _HEADER_STRUCT.pack(
        params.input_dim, params.hidden_size,
        params.dense1_size, params.dense2_size, *_LAYER_MARKERS,
    )
    tensors = (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.arrays())
    atomic_write_bytes(path, b"".join((CHECKPOINT_MAGIC, header, *tensors)))


def load_checkpoint(path) -> ModelParams:
    """Inverse of :func:`save_checkpoint`; bit-identical round trip."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 4 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic (not an {CHECKPOINT_MAGIC.decode()} checkpoint)")
    if len(blob) < 4 + _HEADER_STRUCT.size:
        raise CheckpointError(f"{path}: truncated header")
    dims = _HEADER_STRUCT.unpack(blob[4:4 + _HEADER_STRUCT.size])
    input_dim, hidden, h1, h2 = dims[:4]
    if dims[4:] != _LAYER_MARKERS:
        raise CheckpointError(f"{path}: bad layer markers {dims[4:]}")
    if min(input_dim, hidden, h1, h2) < 1:
        raise CheckpointError(f"{path}: bad dimensions {dims[:4]}")
    shapes = (
        (4 * hidden, input_dim + hidden), (4 * hidden,),
        (h1, hidden), (h1,), (h2, h1), (h2,), (1, h2), (1,),
    )
    expected = sum(int(np.prod(s)) for s in shapes) * 8
    body = blob[4 + _HEADER_STRUCT.size:]
    if len(body) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(body)} bytes, expected {expected}"
        )
    arrays = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += count * 8
    return ModelParams(*arrays)
