"""Recurrent network core: LSTM, ReLU stack, sigmoid head, hand-derived
backpropagation through time, RMSprop, and checkpoint serialization.

All math is 64-bit.  The batched code path is time-major ``(T, B, dim)``
and is the single implementation; there are no per-sequence wrappers, so
callers pass whole batches to :func:`forward_batch` and
:func:`backward_batch`.  The streaming ``infer_step`` (and ``lstm_step``)
are T=1, B=1 wrappers over it.  Gate blocks inside ``lstm_W``/``lstm_b``
are stacked in the order input, forget, candidate, output, and the LSTM
input is the concatenation ``[x; h]`` (feature columns first).

Lanes are packed: a caller passes each lane's count of real steps,
``lengths``, in non-decreasing order (the layout of PyTorch's
``pack_padded_sequence`` ``batch_sizes``, reversed).  The lanes live at
step t are then one contiguous suffix ``[B - b_t:]``, and step t works on
that slice only; no lane is re-sorted, so the weight-gradient sums keep
their order.  Without ``lengths`` every lane runs all T steps, as the
T=1, B=1 streaming path does.  A lane's final ``h``/``c`` is its state
after its own last real step, and a padded step's probability is exactly
0.5.

The time loop of :func:`forward_batch` keeps ``[x_t; h]`` in one
``(B, D+H)`` buffer and computes all four gate pre-activations with a
single GEMM per step.  The gates take one ``tanh`` pass over all ``4H``
columns: the input, forget and output blocks are halved first and mapped
back afterwards, using sigma(x) = tanh(x/2)/2 + 1/2 (halving is exact in
float64, so the only change from the exp form is rounding in the last
place).  The dense head (two ReLU layers and the output unit) runs inside
the loop on the same live slice, in training and in inference alike, and
each step writes its logits into one ``(T, B)`` array (0 where padded).
The exact exp-form :func:`sigmoid` and the clip run once over that array;
the exp form keeps the relative precision of tiny probabilities that the
loss needs.  At inference (``want_cache=False``) the loop therefore holds
only ``O(B*(D+5H))`` of step buffers plus the logits, whatever the
history length.  With ``want_cache=True`` it also writes each step's
gates ``(T, B, 4H)``, cell and hidden states ``(T, B, H)`` and dense
activations into the cache that backpropagation reads; their padded
entries stay 0.  Its dropout masks are bool, and a kept unit is scaled as
``(a * m) * inv_keep``, the same bits as a float mask ``m / keep``.

The cache is single-use.  :func:`backward_batch` overwrites it in place
(gate gradients over the gates, the pre-step hidden states over ``h``)
and marks it spent, so beyond the cache it allocates only one
``(T, B, H)`` buffer and ``O(B*4H)`` of step buffers; a second call on
the same cache is a ValueError.  Both kernels check their outputs for
non-finite values themselves and run with numpy's overflow and invalid
warnings off.
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
    """One training window's activations, read once by :func:`backward_batch`.

    The dropout masks are bool (``None`` without dropout); a unit is kept
    as ``(a * m) * inv_keep``.  Padded entries of every array are 0.
    ``backward_batch`` overwrites ``gates``, ``h``, ``a1`` and ``a2`` in
    place and marks the cache ``spent``.
    """

    X: np.ndarray        # (T, B, D)
    resets: np.ndarray   # (T, B) bool
    first_live: list     # step t ran lanes [first_live[t]:]
    gates: np.ndarray    # (T, B, 4H) post-activation, blocks i|f|g|o
    c: np.ndarray        # (T, B, H)
    h: np.ndarray        # (T, B, H)
    h0: np.ndarray
    c0: np.ndarray
    m0: Optional[np.ndarray]  # (T, B, H) bool
    m1: Optional[np.ndarray]  # (T, B, H1) bool
    m2: Optional[np.ndarray]  # (T, B, H2) bool
    inv_keep: float      # 1 / (1 - dropout_p)
    a1: np.ndarray       # (T, B, H1) post-ReLU
    a2: np.ndarray       # (T, B, H2) post-ReLU
    probs: np.ndarray    # (T, B)
    spent: bool = False


@dataclass(slots=True)
class BatchForward:
    probs: np.ndarray    # (T, B), strictly inside (0, 1); 0.5 where padded
    h: np.ndarray        # (B, H) hidden state after each lane's last real step
    c: np.ndarray        # (B, H) cell state after each lane's last real step
    cache: Optional[_ForwardCache]


# A diverging model overflows inside the kernels.  Each checks its outputs
# for non-finite values itself, so numpy's warnings would only repeat that.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def _first_live(lengths, T: int, B: int) -> list:
    """For each step t, the first lane of the live suffix ``[B - b_t:]``."""
    lengths = np.asarray(lengths)
    if lengths.shape != (B,):
        raise ValueError(f"lengths has shape {lengths.shape}, expected ({B},)")
    if (np.diff(lengths) < 0).any():
        raise ValueError("lengths must be non-decreasing (the longest lanes last)")
    if B and (lengths[0] < 0 or lengths[-1] > T):
        raise ValueError(f"lengths must lie in [0, {T}]")
    return np.searchsorted(lengths, np.arange(T), side="right").tolist()


def _drop(a: np.ndarray, mask: Optional[np.ndarray], inv_keep: float,
          out: np.ndarray) -> np.ndarray:
    """Inverted dropout ``(a * mask) * inv_keep`` into ``out``; ``a`` itself
    when there is no mask.  Bit for bit ``a * (mask / keep)``."""
    if mask is None:
        return a
    np.multiply(a, mask, out=out)
    out *= inv_keep
    return out


@_quiet_overflow
def forward_batch(params: ModelParams, X: np.ndarray, resets: np.ndarray,
                  h0: np.ndarray, c0: np.ndarray, dropout_p: float = 0.0,
                  rng: Optional[np.random.Generator] = None,
                  want_cache: bool = False, lengths=None) -> BatchForward:
    """Run the full pipeline over a time-major batch.

    ``resets[t, b]`` zeroes lane b's state before step t.  ``lengths[b]``
    is lane b's count of real steps, in non-decreasing order (a decreasing
    order is a ValueError); step t then runs only the lanes still live.
    Without ``lengths`` every lane runs all T steps.  Dropout (inverted,
    scale 1/(1-p)) is applied to the LSTM output and both dense outputs
    only when an RNG is supplied and p > 0; inference mode applies no
    masks and no scaling.
    """
    T, B, D = X.shape
    hidden = params.hidden_size
    if D != params.input_dim:
        raise ValueError(f"feature dim {D} != model input dim {params.input_dim}")
    first = [0] * T if lengths is None else _first_live(lengths, T, B)

    h1, h2 = params.dense1_size, params.dense2_size
    train = rng is not None and dropout_p > 0.0
    inv_keep = 1.0
    if train:
        keep = 1.0 - dropout_p
        inv_keep = 1.0 / keep
        m0 = rng.random((T, B, hidden)) < keep
        m1 = rng.random((T, B, h1)) < keep
        m2 = rng.random((T, B, h2)) < keep
        hd, a1d, a2d = np.empty((B, hidden)), np.empty((B, h1)), np.empty((B, h2))
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
    W1_T, b1 = params.dense1_W.T, params.dense1_b
    W2_T, b2 = params.dense2_W.T, params.dense2_b
    w_out, b_out = params.out_W[0], params.out_b

    xh = np.empty((B, D + hidden))
    xh[:, D:] = h0
    h = xh[:, D:]
    c = np.array(c0, dtype=np.float64)
    z = np.empty((B, 4 * hidden))
    ig = np.empty((B, hidden))
    logits = np.zeros((T, B))
    if want_cache:
        # Padded entries stay 0: backward_batch's weight-gradient GEMMs
        # run over the whole window and multiply them by zero.
        gates = np.zeros((T, B, 4 * hidden))
        cs = np.zeros((T, B, hidden))
        hs = np.zeros((T, B, hidden))
        a1s = np.zeros((T, B, h1))
        a2s = np.zeros((T, B, h2))
    else:
        a1, a2 = np.empty((B, h1)), np.empty((B, h2))
    lo = None
    for t in range(T):
        if first[t] != lo:
            lo = first[t]
            xh_l, h_l, c_l, z_l, ig_l = xh[lo:], h[lo:], c[lo:], z[lo:], ig[lo:]
            i, f, g, o = (z_l[:, k * hidden:(k + 1) * hidden] for k in range(4))
            if not want_cache:
                a1_l, a2_l = a1[lo:], a2[lo:]
            if train:
                hd_l, a1d_l, a2d_l = hd[lo:], a1d[lo:], a2d[lo:]
        xh_l[:, :D] = X[t, lo:]
        live = ~resets[t, lo:]
        if not live.all():
            h_l *= live[:, None]
            c_l *= live[:, None]
        np.matmul(xh_l, W_T, out=z_l)
        z_l *= scale
        z_l += bias
        np.tanh(z_l, out=z_l)
        z_l *= scale
        z_l += shift
        c_l *= f
        np.multiply(i, g, out=ig_l)
        c_l += ig_l
        np.tanh(c_l, out=h_l)
        h_l *= o
        if want_cache:
            gates[t, lo:] = z_l
            cs[t, lo:] = c_l
            hs[t, lo:] = h_l
            a1_l, a2_l = a1s[t, lo:], a2s[t, lo:]

        # the dense head on the same live lanes
        top = _drop(h_l, m0[t, lo:], inv_keep, hd_l) if train else h_l
        np.matmul(top, W1_T, out=a1_l)
        a1_l += b1
        np.maximum(a1_l, 0.0, out=a1_l)
        top = _drop(a1_l, m1[t, lo:], inv_keep, a1d_l) if train else a1_l
        np.matmul(top, W2_T, out=a2_l)
        a2_l += b2
        np.maximum(a2_l, 0.0, out=a2_l)
        top = _drop(a2_l, m2[t, lo:], inv_keep, a2d_l) if train else a2_l
        logit = logits[t, lo:]
        np.matmul(top, w_out, out=logit)
        logit += b_out

    probs = np.clip(sigmoid(logits), _PROB_LO, _PROB_HI)
    if not np.isfinite(probs).all():
        bad = np.argwhere(~np.isfinite(probs))
        raise NumericalFault("non-finite activation", step=int(bad[0][0]))

    cache = None
    if want_cache:
        cache = _ForwardCache(
            X=X, resets=resets, first_live=first, gates=gates, c=cs, h=hs,
            h0=np.asarray(h0, dtype=np.float64), c0=np.asarray(c0, dtype=np.float64),
            m0=m0, m1=m1, m2=m2, inv_keep=inv_keep, a1=a1s, a2=a2s, probs=probs,
        )
    return BatchForward(probs=probs, h=h.copy(), c=c, cache=cache)


@_quiet_overflow
def backward_batch(params: ModelParams, cache: _ForwardCache, labels: np.ndarray,
                   weights: np.ndarray) -> tuple[ModelParams, float, float]:
    """Exact gradient of the weight-normalized BCE over the cached window.

    Returns ``(grads, loss_numerator, weight_sum)`` where the window loss
    is ``loss_numerator / weight_sum``.  Only the lane-steps the forward
    pass ran count (``cache.first_live``); ``labels`` and ``weights`` at
    padded steps are ignored.  Gradients stop at the window boundary (the
    initial state is treated as a constant) and at every reset.  The BPTT
    loop runs on the lanes that the forward pass stepped; the gate
    gradients of every other lane-step are zero.

    The cache is consumed: the dense-head gradients overwrite ``a1`` and
    ``a2``, the gate gradients ``gates`` and the pre-step hidden states
    ``h``, so a second call on the same cache is a ValueError.  Beyond the
    cache this allocates one ``(T, B, H)`` buffer, bool ReLU masks and
    ``(B, 4H)`` step buffers.
    """
    if cache.spent:
        raise ValueError("this forward cache was already consumed by backward_batch")
    cache.spent = True
    T, B, D = cache.X.shape
    hidden = params.hidden_size
    Wh = params.lstm_W[:, D:]

    ran = np.arange(B) >= np.array(cache.first_live, dtype=int)[:, None]
    w_eff = np.where(ran, weights, 0.0)
    w_sum = float(w_eff.sum())
    grads = params.zeros_like()
    if T == 0 or w_sum == 0.0:
        return grads, 0.0, w_sum

    # a padded step's probability is exactly 0.5, so both logs are finite
    p = cache.probs
    y = labels
    loss_num = float((w_eff * -(y * np.log(p) + (1 - y) * np.log1p(-p))).sum())

    # Output head and dense stack, batched over all steps.  Once its ReLU
    # mask is taken, each cached activation is overwritten by its
    # dropped-out copy and then by its pre-activation gradient.
    TB = T * B
    inv_keep = cache.inv_keep
    m0, m1, m2 = (None if m is None else m.reshape(TB, -1)
                  for m in (cache.m0, cache.m1, cache.m2))
    a1 = cache.a1.reshape(TB, -1)
    a2 = cache.a2.reshape(TB, -1)
    on1, on2 = a1 > 0.0, a2 > 0.0
    dz_out = (w_eff * (p - y) / w_sum).reshape(TB, 1)
    grads.out_W += dz_out.T @ _drop(a2, m2, inv_keep, a2)
    grads.out_b += dz_out.sum(axis=0)

    dz2 = _drop(np.matmul(dz_out, params.out_W, out=a2), m2, inv_keep, a2)
    dz2 *= on2
    grads.dense2_W += dz2.T @ _drop(a1, m1, inv_keep, a1)
    grads.dense2_b += dz2.sum(axis=0)

    dz1 = _drop(np.matmul(dz2, params.dense2_W, out=a1), m1, inv_keep, a1)
    dz1 *= on1
    del on1, on2
    # the one (T, B, H) buffer: the dropped-out h, then dh from the head
    dh_top = np.empty((TB, hidden))
    grads.dense1_W += dz1.T @ _drop(cache.h.reshape(TB, hidden), m0, inv_keep,
                                    dh_top)
    grads.dense1_b += dz1.sum(axis=0)
    np.matmul(dz1, params.dense1_W, out=dh_top)
    dh_top = _drop(dh_top, m0, inv_keep, dh_top).reshape(T, B, hidden)

    # Going back in time the live suffix only grows, so a lane's carries
    # are still zero at its last real step.  Step t's gate gradients
    # replace its gates in the cache once it has read them.
    live = ~cache.resets[..., None]
    d_all = np.empty((B, 4 * hidden))
    dh_carry = np.zeros((B, hidden))
    dc_carry = np.zeros((B, hidden))
    for t in range(T - 1, -1, -1):
        lo = cache.first_live[t]
        gates = cache.gates[t, lo:]
        i = gates[:, :hidden]
        f = gates[:, hidden:2 * hidden]
        g = gates[:, 2 * hidden:3 * hidden]
        o = gates[:, 3 * hidden:]
        tc = np.tanh(cache.c[t, lo:])
        # the cell state step t started from, after any reset
        c_prev = (cache.c[t - 1, lo:] if t else cache.c0[lo:]) * live[t, lo:]

        dh = dh_top[t, lo:] + dh_carry[lo:]
        dc = dh * o * (1.0 - tc * tc) + dc_carry[lo:]
        d = d_all[lo:]
        d[:, :hidden] = dc * g * i * (1.0 - i)
        d[:, hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        d[:, 2 * hidden:3 * hidden] = dc * i * (1.0 - g * g)
        d[:, 3 * hidden:] = dh * tc * o * (1.0 - o)

        dc_carry[lo:] = dc * f * live[t, lo:]
        gates[...] = d
        dh_carry[lo:] = (d @ Wh) * live[t, lo:]

    # The hidden state each step started from, after any reset, built
    # in place of cache.h one step at a time (no full-size copy).
    h_prev = cache.h
    for t in range(T - 1, 0, -1):
        h_prev[t] = h_prev[t - 1]
    h_prev[0] = cache.h0
    h_prev *= live

    dz4 = cache.gates.reshape(TB, 4 * hidden)
    grads.lstm_W[:, :D] += dz4.T @ cache.X.reshape(TB, D)
    grads.lstm_W[:, D:] += dz4.T @ h_prev.reshape(TB, hidden)
    grads.lstm_b += dz4.sum(axis=0)

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


@_quiet_overflow
def rmsprop_update(params: ModelParams, grads: ModelParams, opt: OptState,
                   lr: float = 0.001) -> tuple[ModelParams, OptState]:
    """s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/(sqrt(s)+eps).
    A non-finite s (a gradient beyond ~1e154) or theta raises NumericalFault."""
    new_sq = []
    new_params = []
    for theta, g, s in zip(params.arrays(), grads.arrays(), opt.sq.arrays()):
        s2 = RMSPROP_RHO * s + (1.0 - RMSPROP_RHO) * g * g
        new_sq.append(s2)
        new_params.append(theta - lr * g / (np.sqrt(s2) + RMSPROP_EPS))
    sq, updated = ModelParams(*new_sq), ModelParams(*new_params)
    if not (sq.all_finite() and updated.all_finite()):
        raise NumericalFault("non-finite RMSprop update")
    return updated, OptState(sq=sq)


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
