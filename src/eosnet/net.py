"""Recurrent network core: LSTM, ReLU stack, sigmoid head, hand-derived
backpropagation through time, RMSprop, and checkpoint serialization.

All math is 64-bit.  The batched code path is time-major ``(T, B, dim)``
and is the single implementation; there are no per-sequence wrappers, so
callers pass whole batches to :func:`forward_batch` and
:func:`backward_batch`.  The streaming ``infer_step`` (and ``lstm_step``)
are T=1, B=1 wrappers over it that take one student's state as two
length-H vectors ``h`` and ``c``.  Gate blocks inside ``lstm_W``/``lstm_b``
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
history length.

With ``want_cache=True`` the loop writes each step's gates, cell states
and dense activations straight into the cache that backpropagation reads,
in the packed-row layout of cuDNN-style RNN kernels (Appleyard, Kocisky &
Blunsom 2016): the arrays are ``(n, width)`` for the window's n real
lane-steps, and step t owns the contiguous rows ``offsets[t]:offsets[t+1]``,
one per live lane.  Because the live lanes only shrink, the cell state a
live lane starts step t from is in the tail of step t-1's rows, so no
padded lane-step is stored and nothing is copied into the cache.  The
hidden state stays in the step buffer, as at inference, and is not
cached: backward recomputes it bit for bit as ``tanh(c) * o``, trading one
``tanh`` pass for an ``(n, H)`` array (Gruslys et al. 2016, Memory-Efficient
Backpropagation Through Time).  Each GEMM keeps the row count it has at
inference, so a cached pass gives the same bits as a plain one.  The
dropout masks are still drawn for every ``(t, b)`` entry, so the random
stream does not depend on the lengths, in blocks of steps that are cut to
the real rows.  They are bool, and a kept unit is scaled as ``(a * m) *
inv_keep``, the same bits as a float mask ``m / keep``.

The cache is single-use.  :func:`backward_batch` runs the loss, the head,
the BPTT loop and the weight-gradient GEMMs on the packed rows, overwrites
the cache in place and marks it spent.  It releases each dense activation
and dropout mask at its last use, recomputes the hidden states, and the
BPTT loop writes the gate gradients over the gates and each row's
pre-step hidden state over ``c``.  Beyond the cache and the gradients it
allocates one ``(n, H)`` buffer and ``O(B*H)`` of step buffers; a second
call on the same cache is a ValueError.  Both kernels check their
outputs for non-finite values themselves and run with numpy's overflow
and invalid warnings off.

:func:`forward_batch` keeps no state between calls, so independent batches
may run concurrently.

Given a thread pool (``pool=``, which training passes), the three large
LSTM GEMMs are split by output column: the forward step's ``[x; h] @
W.T``, the BPTT step's ``d @ Wh``, and the recurrent weight gradient
``dz.T @ h_prev``.  A GEMM is cut into at most as many contiguous column
blocks as the pool has threads; the calling thread computes the first
and the pool's threads the others, and the call returns only once every
block is written, also when one raises.  The gate ops after the
forward GEMM stay on the calling thread: split as well, they took longer
on two threads than whole on one.  The bits do not change, because every
output element is still one dot product over the same K order in the same
BLAS micro-kernel: each block but the last starts and ends on a multiple
of ``_SPLIT_ALIGN`` columns, so the column tiles are those of the whole
GEMM, and a GEMM is split only when every block has more than
``_SPLIT_MIN_MACS`` (10^6) multiply-adds.  OpenBLAS hands a GEMM of at
most 10^6 multiply-adds to its small-matrix kernel, whose sums differ from
the large kernel's in the last place; below that size the ~50 us handoff
would also cost more than the split saves.  ``tests/test_net.py`` checks
the bits at every row count of the three shapes.  Without a pool each GEMM
is one ``np.matmul``, as in evaluation and scoring, which already fill the
CPUs with whole batches.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import accumulate
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

# steps of uniform draws held at once while drawing a dropout mask
_MASK_STEPS = 16

# A split GEMM's column blocks start on multiples of this many columns, and
# each block needs more than this many multiply-adds (see the module
# docstring).
_SPLIT_ALIGN = 16
_SPLIT_MIN_MACS = 1_000_000


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
@dataclass(slots=True)
class _ForwardCache:
    """One training window's activations, read once by :func:`backward_batch`.

    Every array holds only the lane-steps the forward pass ran, as packed
    rows: step t owns rows ``offsets[t]:offsets[t + 1]``, one per live lane
    ``[first_live[t]:]`` in lane order, so a lane's previous state is in
    the tail of step t-1's rows.  It stores only what backward cannot
    recompute exactly: the hidden states are not stored, since ``tanh(c) *
    o`` with ``o`` the output gate gives their bits again.  The dropout
    masks are bool (``None`` without dropout); a unit is kept as ``(a * m)
    * inv_keep``.  ``backward_batch`` overwrites ``gates``, ``c``, ``a1``
    and ``a2`` in place, drops ``a1``, ``a2`` and the masks (sets them to
    ``None``) once used, and marks the cache ``spent``.
    """

    X: np.ndarray        # (n, D) input rows
    resets: np.ndarray   # (T, B) bool
    first_live: list     # step t ran lanes [first_live[t]:]
    offsets: list        # step t owns rows [offsets[t]:offsets[t + 1]]
    gates: np.ndarray    # (n, 4H) post-activation, blocks i|f|g|o
    c: np.ndarray        # (n, H)
    h0: np.ndarray       # (B, H)
    c0: np.ndarray       # (B, H)
    m0: Optional[np.ndarray]  # (n, H) bool
    m1: Optional[np.ndarray]  # (n, H1) bool
    m2: Optional[np.ndarray]  # (n, H2) bool
    inv_keep: float      # 1 / (1 - dropout_p)
    a1: Optional[np.ndarray]  # (n, H1) post-ReLU
    a2: Optional[np.ndarray]  # (n, H2) post-ReLU
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


def _real_steps(first: list, B: int) -> np.ndarray:
    """``(T, B)`` bool, true where lane b ran step t.  Indexing a
    ``(T, B, ...)`` array with it gives that array's packed rows."""
    return np.arange(B) >= np.array(first, dtype=int).reshape(-1, 1)


def _drop(a: np.ndarray, mask: Optional[np.ndarray], inv_keep: float,
          out: np.ndarray) -> np.ndarray:
    """Inverted dropout ``(a * mask) * inv_keep`` into ``out``; ``a`` itself
    when there is no mask.  Bit for bit ``a * (mask / keep)``."""
    if mask is None:
        return a
    np.multiply(a, mask, out=out)
    out *= inv_keep
    return out


def _draw_mask(rng: np.random.Generator, real: np.ndarray, width: int,
               keep: float) -> np.ndarray:
    """A bool dropout mask for the packed rows that ``real`` marks.

    A uniform is drawn for every ``(t, b)`` entry, padding included, so
    the stream does not depend on the lengths.  The draws come
    ``_MASK_STEPS`` steps at a time, each block cut to its real rows; the
    stream fills the blocks in order, so the mask equals one ``(T, B,
    width)`` draw cut to the rows, without its float64 transient.
    """
    T, B = real.shape
    mask = np.empty((int(real.sum()), width), dtype=bool)
    row = 0
    for start in range(0, T, _MASK_STEPS):
        block = real[start:start + _MASK_STEPS]
        rows = mask[row:row + int(block.sum())]
        rows[...] = (rng.random((len(block), B, width)) < keep)[block]
        row += len(rows)
    return mask


def _zero_resets(block: np.ndarray, resets: np.ndarray) -> None:
    """Zero the rows of ``block`` whose lane resets (``resets`` is bool,
    one entry per row)."""
    live = ~resets[:, None]
    if not live.all():
        block *= live


def _column_bounds(pool: Optional[ThreadPoolExecutor], rows: int, depth: int,
                   width: int) -> list:
    """Column bounds of the blocks a ``(rows, depth) @ (depth, width)`` GEMM
    is split into under ``pool``: at most one block per pool thread, the
    calling thread's included, each but the last ``_SPLIT_ALIGN``-aligned,
    and the last, the smallest, above ``_SPLIT_MIN_MACS`` multiply-adds.
    ``[0, width]`` (no split) without a pool or when no split clears it."""
    # ThreadPoolExecutor keeps its size only in _max_workers
    most = 1 if pool is None else pool._max_workers
    for parts in range(most, 1, -1):
        step = -(-width // (parts * _SPLIT_ALIGN)) * _SPLIT_ALIGN
        bounds = [*range(0, width, step), width]
        if rows * depth * (width - bounds[-2]) > _SPLIT_MIN_MACS:
            return bounds
    return [0, width]


@_quiet_overflow
def _matmul_block(a: np.ndarray, b: np.ndarray, out: np.ndarray, cols: slice) -> None:
    # a pool thread starts with numpy's default error state, not the caller's
    np.matmul(a, b[:, cols], out=out[:, cols])


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray,
            pool: Optional[ThreadPoolExecutor]) -> None:
    """``np.matmul(a, b, out=out)``, split into the column blocks of
    :func:`_column_bounds` under ``pool``: the first on this thread, the
    others on the pool.  Returns once every block is done, so no pool
    thread still writes when an exception unwinds; a pool thread's
    exception is raised here."""
    bounds = _column_bounds(pool, *a.shape, b.shape[1])
    futures = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            futures.append(pool.submit(_matmul_block, a, b, out, slice(lo, hi)))
        _matmul_block(a, b, out, slice(0, bounds[1]))
    finally:
        wait(futures)
    for future in futures:
        future.result()


@_quiet_overflow
def forward_batch(params: ModelParams, X: np.ndarray, resets: np.ndarray,
                  h0: np.ndarray, c0: np.ndarray, dropout_p: float = 0.0,
                  rng: Optional[np.random.Generator] = None,
                  want_cache: bool = False, lengths=None,
                  pool: Optional[ThreadPoolExecutor] = None) -> BatchForward:
    """Run the full pipeline over a time-major batch.

    ``resets[t, b]`` zeroes lane b's state before step t.  ``lengths[b]``
    is lane b's count of real steps, in non-decreasing order (a decreasing
    order is a ValueError); step t then runs only the lanes still live.
    Without ``lengths`` every lane runs all T steps.  Dropout (inverted,
    scale 1/(1-p)) is applied to the LSTM output and both dense outputs
    only when an RNG is supplied and p > 0; inference mode applies no
    masks and no scaling.  ``pool`` splits each step's gate GEMM by output
    column, with the same bits (see the module docstring).
    """
    T, B, D = X.shape
    hidden = params.hidden_size
    if D != params.input_dim:
        raise ValueError(f"feature dim {D} != model input dim {params.input_dim}")
    first = [0] * T if lengths is None else _first_live(lengths, T, B)
    # step t's live lanes own rows off[t]:off[t + 1] of the packed arrays
    off = list(accumulate((B - lo for lo in first), initial=0))

    h1, h2 = params.dense1_size, params.dense2_size
    train = rng is not None and dropout_p > 0.0
    real = _real_steps(first, B) if train or want_cache else None
    inv_keep = 1.0
    if train:
        keep = 1.0 - dropout_p
        inv_keep = 1.0 / keep
        m0, m1, m2 = (_draw_mask(rng, real, width, keep) for width in (hidden, h1, h2))
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

    h0 = np.asarray(h0, dtype=np.float64)
    c0 = np.asarray(c0, dtype=np.float64)
    # h lives in the step buffer, updated in place
    xh = np.empty((B, D + hidden))
    xh[:, D:] = h0
    ig = np.empty((B, hidden))
    logits = np.zeros((T, B))
    # With a cache, step t writes straight into its own packed rows, and the
    # live lanes' previous cell state is the tail of step t-1's rows.
    # Without one, every step reuses the live lanes' rows [lo:B] in place.
    n = off[-1] if want_cache else B
    gates, cs = np.empty((n, 4 * hidden)), np.empty((n, hidden))
    a1s, a2s = np.empty((n, h1)), np.empty((n, h2))
    if not want_cache:
        cs[...] = c0
    for t in range(T):
        lo, packed = first[t], slice(off[t], off[t + 1])
        rows = packed if want_cache else slice(lo, B)
        z_l, c_l, a1_l, a2_l = gates[rows], cs[rows], a1s[rows], a2s[rows]
        xh_l, ig_l, h_l = xh[lo:], ig[lo:], xh[lo:, D:]
        c_prev = (cs[off[t] - len(c_l):off[t]] if t else c0[lo:]) if want_cache else c_l
        xh_l[:, :D] = X[t, lo:]
        live = ~resets[t, lo:]
        if not live.all():
            xh_l[:, D:] *= live[:, None]
            c_prev = np.multiply(c_prev, live[:, None], out=c_l)
        _matmul(xh_l, W_T, z_l, pool)
        z_l *= scale
        z_l += bias
        np.tanh(z_l, out=z_l)
        z_l *= scale
        z_l += shift
        i, f, g, o = (z_l[:, k * hidden:(k + 1) * hidden] for k in range(4))
        np.multiply(c_prev, f, out=c_l)
        np.multiply(i, g, out=ig_l)
        c_l += ig_l
        np.tanh(c_l, out=h_l)
        h_l *= o

        # the dense head on the same live lanes
        top = _drop(h_l, m0[packed], inv_keep, hd[lo:]) if train else h_l
        np.matmul(top, W1_T, out=a1_l)
        a1_l += b1
        np.maximum(a1_l, 0.0, out=a1_l)
        top = _drop(a1_l, m1[packed], inv_keep, a1d[lo:]) if train else a1_l
        np.matmul(top, W2_T, out=a2_l)
        a2_l += b2
        np.maximum(a2_l, 0.0, out=a2_l)
        top = _drop(a2_l, m2[packed], inv_keep, a2d[lo:]) if train else a2_l
        logit = logits[t, lo:]
        np.matmul(top, w_out, out=logit)
        logit += b_out

    probs = np.clip(sigmoid(logits), _PROB_LO, _PROB_HI)
    if not np.isfinite(probs).all():
        bad = np.argwhere(~np.isfinite(probs))
        raise NumericalFault("non-finite activation", step=int(bad[0][0]))
    h = xh[:, D:].copy()
    if not want_cache:
        return BatchForward(probs=probs, h=h, c=cs, cache=None)

    # A lane's final cell state is its row at its last real step (the row
    # at off[length] - (B - lane)), or its initial state if it ran none.
    steps = np.full(B, T) if lengths is None else np.asarray(lengths)
    ran = steps > 0
    last = (np.asarray(off)[steps] - B + np.arange(B))[ran]
    c = c0.copy()
    c[ran] = cs[last]
    cache = _ForwardCache(
        X=X[real], resets=resets, first_live=first, offsets=off, gates=gates,
        c=cs, h0=h0, c0=c0, m0=m0, m1=m1, m2=m2, inv_keep=inv_keep,
        a1=a1s, a2=a2s, probs=probs,
    )
    return BatchForward(probs=probs, h=h, c=c, cache=cache)


def _bptt(params: ModelParams, cache: _ForwardCache, dh: np.ndarray,
          pool: Optional[ThreadPoolExecutor]) -> None:
    """Backpropagation through time over the cache's packed rows, given the
    head's gradient ``dh`` with respect to each row's hidden state (used up
    as the loop's scratch).  ``pool`` splits each step's ``d @ Wh``.

    Each step's gate gradients replace its gates once it has read them, so
    ``cache.gates`` ends up holding the gradient of the loss with respect
    to every gate pre-activation.  Step t also writes the hidden state
    ``tanh(c_t) * o_t`` of the lanes live at t+1, zeroed where they reset,
    over step t+1's ``c`` rows, which nothing reads any more; step 0's rows
    get ``h0``.  ``cache.c`` thus ends up holding the hidden state each row
    started from, with the forward pass's ops and so its bits.
    """
    T, B = cache.resets.shape
    hidden = params.hidden_size
    first, off = cache.first_live, cache.offsets
    Wh = params.lstm_W[:, params.input_dim:]
    # Going back in time the live suffix only grows, so a lane's carries
    # are still zero at its last real step.
    dh_carry, dc_carry = np.zeros((B, hidden)), np.zeros((B, hidden))
    tc_buf, u_buf = np.empty((B, hidden)), np.empty((B, hidden))
    for t in range(T - 1, -1, -1):
        lo, rows = first[t], slice(off[t], off[t + 1])
        d = cache.gates[rows]
        i, f, g, o = (d[:, k * hidden:(k + 1) * hidden] for k in range(4))
        tc = np.tanh(cache.c[rows], out=tc_buf[lo:])
        if t + 1 < T:
            nxt, block = first[t + 1], cache.c[off[t + 1]:off[t + 2]]
            np.multiply(tc[nxt - lo:], o[nxt - lo:], out=block)
            _zero_resets(block, cache.resets[t + 1, nxt:])
        u, dc = u_buf[lo:], dc_carry[lo:]
        dh_t = dh[rows]
        dh_t += dh_carry[lo:]
        # dc = dh * o * (1 - tc^2) + the carry from step t+1
        np.multiply(tc, tc, out=u)
        np.subtract(1.0, u, out=u)
        u *= o
        u *= dh_t
        dc += u
        # do = dh * tc * o * (1 - o)
        tc *= dh_t
        np.subtract(1.0, o, out=u)
        u *= o
        np.multiply(tc, u, out=o)
        # dg = dc * i * (1 - g^2);  di = dc * g * i * (1 - i)
        np.multiply(dc, i, out=u)
        np.multiply(dc, g, out=tc)
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= u
        np.subtract(1.0, i, out=u)
        i *= u
        i *= tc
        # df = dc * c_prev * f * (1 - f), where c_prev is the cell state
        # step t started from, after any reset; the carry is dc * f
        live = ~cache.resets[t, lo:, None]
        reset = not live.all()
        np.multiply(dc, cache.c[off[t] - len(dc):off[t]] if t else cache.c0[lo:],
                    out=tc)
        if reset:
            tc *= live
        np.subtract(1.0, f, out=u)
        u *= f
        dc *= f
        np.multiply(tc, u, out=f)
        _matmul(d, Wh, dh_carry[lo:], pool)
        if reset:
            dc *= live
            dh_carry[lo:] *= live
    block = cache.c[:off[1]]
    block[...] = cache.h0[first[0]:]
    _zero_resets(block, cache.resets[0, first[0]:])


@_quiet_overflow
def backward_batch(params: ModelParams, cache: _ForwardCache, labels: np.ndarray,
                   weights: np.ndarray, pool: Optional[ThreadPoolExecutor] = None,
                   ) -> tuple[ModelParams, float, float]:
    """Exact gradient of the weight-normalized BCE over the cached window.

    Returns ``(grads, loss_numerator, weight_sum)`` where the window loss
    is ``loss_numerator / weight_sum``.  ``labels`` and ``weights`` are
    ``(T, B)``; only the lane-steps the forward pass ran count, and their
    values at padded steps are ignored.  Gradients stop at the window
    boundary (the initial state is treated as a constant) and at every
    reset.  The loss, the dense head, the BPTT loop and the weight-gradient
    GEMMs all run on the cache's packed rows, so no work or memory goes to
    padding.

    The cache is consumed, so a second call on the same cache is a
    ValueError.  The head gradients overwrite ``a2`` and then ``a1``; each
    leaves the cache with its masks at its last use, ``a2``, ``m1`` and
    ``m2`` before the one ``(n, H)`` buffer is allocated and ``a1`` and
    ``m0`` before the BPTT loop.  The buffer holds the hidden states,
    recomputed as ``tanh(c) * o`` with the forward pass's ops (so with its
    bits), then the head's ``dh``, and is freed before the LSTM weight
    gradient is allocated.  The BPTT loop leaves the gate gradients in
    ``gates`` and the pre-step hidden states in ``c``.  Beyond the cache
    and the gradients this allocates that buffer, bool ReLU masks and
    ``(B, H)`` step buffers.  ``pool`` splits the BPTT loop's GEMM and the
    recurrent weight gradient by output column, with the same bits.
    """
    if cache.spent:
        raise ValueError("this forward cache was already consumed by backward_batch")
    cache.spent = True
    B = cache.resets.shape[1]
    D, hidden = params.input_dim, params.hidden_size

    real = _real_steps(cache.first_live, B)
    w = weights[real]
    w_sum = float(w.sum())
    if w_sum == 0.0:
        return params.zeros_like(), 0.0, w_sum
    p, y = cache.probs[real], labels[real]
    loss_num = float((w * -(y * np.log(p) + (1 - y) * np.log1p(-p))).sum())

    # Output head and dense stack over all rows at once.  Once its ReLU
    # mask is taken, each cached activation is overwritten by its
    # dropped-out copy and then by its pre-activation gradient.
    inv_keep, m0, m1, m2 = cache.inv_keep, cache.m0, cache.m1, cache.m2
    a1, a2 = cache.a1, cache.a2
    on1, on2 = a1 > 0.0, a2 > 0.0
    dz_out = (w * (p - y) / w_sum)[:, None]
    out_W = dz_out.T @ _drop(a2, m2, inv_keep, a2)
    out_b = dz_out.sum(axis=0)

    dz2 = _drop(np.matmul(dz_out, params.out_W, out=a2), m2, inv_keep, a2)
    dz2 *= on2
    dense2_W = dz2.T @ _drop(a1, m1, inv_keep, a1)
    dense2_b = dz2.sum(axis=0)

    dz1 = _drop(np.matmul(dz2, params.dense2_W, out=a1), m1, inv_keep, a1)
    dz1 *= on1
    cache.a2 = cache.m1 = cache.m2 = None
    del on1, on2, dz2, a2, m1, m2
    # the one (n, H) buffer: h, dropped out, then dh from the head
    dh = np.tanh(cache.c)
    dh *= cache.gates[:, 3 * hidden:]
    dense1_W = dz1.T @ _drop(dh, m0, inv_keep, dh)
    dense1_b = dz1.sum(axis=0)
    np.matmul(dz1, params.dense1_W, out=dh)
    _drop(dh, m0, inv_keep, dh)
    cache.a1 = cache.m0 = None
    del dz1, a1, m0
    _bptt(params, cache, dh, pool)
    del dh

    dz4, h_prev = cache.gates, cache.c
    lstm_W = np.empty_like(params.lstm_W)
    np.matmul(dz4.T, cache.X, out=lstm_W[:, :D])
    _matmul(dz4.T, h_prev, lstm_W[:, D:], pool)
    grads = ModelParams(lstm_W, dz4.sum(axis=0), dense1_W, dense1_b,
                        dense2_W, dense2_b, out_W, out_b)
    if not grads.all_finite():
        raise NumericalFault("non-finite gradient")
    return grads, loss_num, w_sum


# ---------------------------------------------------------------------------
# the streaming wrappers
# ---------------------------------------------------------------------------

def infer_step(params: ModelParams, frame, h: np.ndarray, c: np.ndarray,
               reset: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
    """Inference for a single action: one LSTM step plus the dense head.

    ``h`` and ``c`` are the state before the action (only read); ``reset``
    zeroes it first, as ``forward_batch``'s ``resets`` does.  Returns
    ``(prob, h, c)``.  One step and one lane of ``forward_batch``, so it
    matches a whole-sequence inference pass step for step.
    """
    X = np.asarray(frame, dtype=np.float64).reshape(1, 1, -1)
    out = forward_batch(params, X, np.full((1, 1), reset, dtype=bool),
                        h[None, :], c[None, :])
    return float(out.probs[0, 0]), out.h[0], out.c[0]


def lstm_step(params: ModelParams, x, h: np.ndarray,
              c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step from ``(h, c)``, returning the new ``(h, c)``.  It has
    no production caller and stays only because ``perfbench/tracer.py``
    ``TARGETS`` resolves it (ROADMAP items 1-2)."""
    return infer_step(params, x, h, c)[1:]


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
    """Inverse of :func:`save_checkpoint`; bit-identical round trip.
    A NaN or infinite weight is a CheckpointError naming its field."""
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
    for field, shape in zip(ModelParams.FIELDS, shapes):
        count = int(np.prod(shape))
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: non-finite value in {field}")
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += count * 8
    return ModelParams(*arrays)
