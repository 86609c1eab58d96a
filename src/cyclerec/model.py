"""Self-attentive next-item model: forward pass, exact backward pass, Adam.

Training runs in the configured dtype (float32 by default); oracle checks
use float64.

Rows that share a session prefix share one pass. Each row's trimmed
prefix maps to a root: a row of the same call that it is a prefix of and
that is a prefix of no other row (in lexicographic order, a row is a
prefix of some row if and only if it is a prefix of the next one). A
``PrefixTable`` ranks a set of rows' trimmed prefixes once, so the roots
and packed layout of any of its rows come from index arrays: training
builds one per cycle and a step passes row indices (``TableRows``), and
an inference pass builds one per call. Only roots are encoded, and under
the causal mask a row's features are its root's hidden state at the
row's last item. The roots of one call are packed first-fit-decreasing
into rows as wide as the longest root (sequence packing; Krell et al.
2021, arXiv 2107.02027): each root is a segment whose positions restart
at 0, and a token attends only to real tokens of its own segment,
causally. So segments never see each other or the padding, and per-row
features are independent of what else the call holds. That holds in
exact arithmetic; in float32 a row's values can differ in the last bits
with what its call packs, as GEMM blocking and summation order change.
Every block runs at every token, forward and backward, through one code
path. Dropout belongs to the training step, not the model: a step's
``BatchSpec.dropout_rate`` (0 for none) draws masks once per call, per
real token and block, so rows sharing a root share every mask, as one
SASRec pass over the session would. The masks are read from the
generator's raw words and equal ``random() >= dropout_rate``.

The encoder runs token-major: the packed hidden states are one
contiguous (B*L, D) matrix, so every projection, residual, dropout
multiply, layer norm and feed-forward layer is one 2-D GEMM or
elementwise op, forward and backward. Q, K and V are one fused (D, 3D)
projection, and only the attention core (scores, mask, softmax, context)
uses (B, H, L, L) views. Keys carry no bias: the softmax would cancel it.
Gradients are hand-derived reverse-mode and checked against central
finite differences and a per-row batch-major reference in the test
suite.

Memory: the parameters, the Adam moments, the gradients and the EWC
anchor and Fisher diagonal are flat vectors in one layout; named arrays
are views of their segments, written only in place. Every per-step
array of a training step (packed layout, dropout masks, forward cache,
backward temporaries, logits, gradients) is written with ``out=`` into
the model's ``Workspace``, whose buffers grow to the largest step and are
then reused (the dropout draw's raw words excepted). What outlives one
call is built once there too: the view of each recent (key, shape,
dtype), the gradients' named views, the ones and mean vectors of the
column sums and layer norms, and each width's causal mask; a replaced
buffer takes its views with it. A ``ModelState`` and its copies share
one workspace, so every pass of a run, in every cycle, reuses the same
buffers. None of this changes a floating-point operation: run
directories stay byte-identical. Adam runs
over the flat vectors in chunks that stay in cache. Every inference
pass runs in blocks of ``BLOCK_ROWS`` rows, so a full-vocabulary scoring
pass holds one block's logits.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .data import Examples, TrainingExample
from .losses import LossBreakdown, ce_from_logits, kd_from_logits

LN_EPS = 1e-8
MASK_FILL = -1e9
NEW_ROW_SCALE = 0.01
BLOCK_ROWS = 512  # rows per block of every inference pass: encoder chunks and full-vocabulary logit blocks
VIEWS_PER_KEY = 4  # views a workspace keeps per buffer: a step asks for each key in one or two shapes
ADAM_CHUNK = 1 << 16  # elements per Adam pass: the pass's five arrays stay in a core's L2 cache
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when a training loss turns non-finite."""


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 32
    block_count: int = 2
    attention_heads: int = 1
    max_seq_len: int = 50
    dtype: str = "float32"  # training precision; oracle checks use float64

    def __post_init__(self) -> None:
        for name in ("embed_dim", "block_count", "attention_heads", "max_seq_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"model config: {name} must be a positive integer, got {value!r}")
        if self.embed_dim % self.attention_heads:
            raise ValueError("model config: embed_dim must be divisible by attention_heads")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("model config: dtype must be float32 or float64")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


class Workspace:
    """Per-call arrays, their views and constants, reused across the steps and passes of one run.

    ``ws(key, shape, dtype)`` returns a C-contiguous array of that shape
    cut from the buffer kept under ``key``. A buffer is replaced when a
    request outgrows it or asks for another dtype, and reused otherwise; its
    contents are whatever the last user left. So an array taken in one step
    is valid until the next step on the same workspace. With ``fill``, a new
    buffer is filled with that value and its users only read it: one vector
    of ones serves every length.

    The view for each (key, shape, dtype) is cut once and kept, and so is
    each object built on one (``_built``: the gradients' named views). Both
    are dropped when their buffer is replaced, so no view keeps a replaced
    buffer alive. ``_constant`` keeps arrays that depend only on their key
    (the causal mask of a width, the layer norm's mean vector); they hold no
    buffer.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}  # (key, shape, dtype) -> view of _buffers[key]
        self._view_keys: dict[str, list[tuple]] = {}  # key -> its entries in _views
        self._built_on: dict[str, tuple] = {}  # key -> (view, tag, object built on the view)
        self._constants: dict[tuple, np.ndarray] = {}

    def __call__(self, key: str, shape: tuple[int, ...], dtype, fill=None) -> np.ndarray:
        entry = (key, shape, dtype)
        view = self._views.get(entry)
        if view is not None:
            return view
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype) if fill is None else np.full(size, fill, dtype)
            for old in self._view_keys.pop(key, ()):
                del self._views[old]
            self._built_on.pop(key, None)
        view = self._views[entry] = buf[:size].reshape(shape)
        entries = self._view_keys.setdefault(key, [])
        entries.append(entry)
        if len(entries) > VIEWS_PER_KEY:  # shapes follow the step: keep the recent ones
            del self._views[entries.pop(0)]
        return view

    def _built(self, key: str, shape: tuple[int, ...], dtype, tag, build):
        """``build(ws(key, shape, dtype))``, made again only when that view or ``tag`` changes."""
        view = self(key, shape, dtype)
        made = self._built_on.get(key)
        if made is None or made[0] is not view or made[1] is not tag:
            made = self._built_on[key] = (view, tag, build(view))
        return made[2]

    def _constant(self, key: tuple, make) -> np.ndarray:
        """``make()``, built on the first request for ``key`` and kept; its users only read it."""
        value = self._constants.get(key)
        if value is None:
            value = self._constants[key] = make()
        return value


def _param_shapes(cfg: ModelConfig, item_count: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the order of the flat vectors (``item_emb`` first)."""
    d = cfg.embed_dim
    shapes: dict[str, tuple[int, ...]] = {
        "item_emb": (item_count, d),
        "pos_emb": (cfg.max_seq_len, d),
    }
    for b in range(cfg.block_count):
        p = f"blocks.{b}."
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + w] = (d, d)
        for bias in ("bq", "bv", "bo"):  # a key bias would cancel in the softmax
            shapes[p + "attn." + bias] = (d,)
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "ff.w1"] = (d, d)
        shapes[p + "ff.b1"] = (d,)
        shapes[p + "ff.w2"] = (d, d)
        shapes[p + "ff.b2"] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
    return shapes


class _Views(dict):
    """Name -> view of its segment of ``flat``, segments laid end to end in ``shapes`` order.

    Write the arrays in place (``x[name] += g``, ``x[name][...] = a``); a
    different array assigned to a name would not be part of ``flat``, so it raises.
    """

    def __init__(self, flat: np.ndarray, shapes: Iterable[tuple[str, tuple[int, ...]]]):
        super().__init__()
        self.flat = flat
        offset = 0
        for name, shape in shapes:
            size = math.prod(shape)
            super().__setitem__(name, flat[offset : offset + size].reshape(shape))
            offset += size

    def __setitem__(self, name: str, value) -> None:
        # ``x[name] += g`` updates the view in place and then sets that same object back
        if name not in self or value is not self[name]:
            raise TypeError(f"{name} is a view of a flat vector: write it in place, not by assignment")


@dataclass
class ModelState:
    """All learnable parameters plus Adam moments and the step counter.

    ``flat_params``, ``flat_m`` and ``flat_v`` hold the parameters and the
    two moments, one vector each; ``params``, ``adam_m`` and ``adam_v`` map
    each name to a view of its segment, ``item_emb`` first. Named arrays are
    written in place; assigning a new array to a name raises.

    ``workspace`` holds the scratch arrays of every pass over the model.
    ``init_model`` makes it and ``copy`` shares it, so the early-stopping
    snapshot, once restored, keeps the run's buffers from cycle to cycle.
    """

    config: ModelConfig
    item_count: int
    flat_params: np.ndarray
    flat_m: np.ndarray
    flat_v: np.ndarray
    step: int = 0
    workspace: Workspace = field(default_factory=Workspace, repr=False)
    params: _Views = field(init=False, repr=False)
    adam_m: _Views = field(init=False, repr=False)
    adam_v: _Views = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._bind()

    def _views(self, flat: np.ndarray) -> _Views:
        """Views of ``flat``, laid out like ``flat_params``, named like ``params``."""
        return _Views(flat, self._layout)

    def _bind(self) -> None:
        """Point the named arrays at the segments of the current vectors."""
        self._layout = tuple(_param_shapes(self.config, self.item_count).items())  # replaced, never changed
        self.params = self._views(self.flat_params)
        self.adam_m = self._views(self.flat_m)
        self.adam_v = self._views(self.flat_v)

    def copy(self, out: "ModelState | None" = None) -> "ModelState":
        """An equal state sharing no vectors with this one, written into ``out``'s vectors if given.

        ``out`` must be another state of the same config and item count. The
        copy shares this state's workspace.
        """
        if out is None:
            return ModelState(self.config, self.item_count, self.flat_params.copy(), self.flat_m.copy(),
                              self.flat_v.copy(), self.step, self.workspace)
        if out is self or (out.config, out.item_count) != (self.config, self.item_count):
            raise ValueError("ModelState.copy: out must be another state of the same shape")
        for attr in ("flat_params", "flat_m", "flat_v"):
            np.copyto(getattr(out, attr), getattr(self, attr))
        out.step = self.step
        return out


def _init_tensor(
    name: str, shape: tuple[int, ...], d: int, rng: np.random.Generator, dtype: np.dtype
) -> np.ndarray:
    if name.endswith("ln1.g") or name.endswith("ln2.g"):
        return np.ones(shape, dtype=dtype)
    if len(shape) == 1:
        return np.zeros(shape, dtype=dtype)
    if name in ("item_emb", "pos_emb"):
        bound = 1.0 / math.sqrt(d)
        return rng.uniform(-bound, bound, shape).astype(dtype)
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))  # Glorot uniform
    return rng.uniform(-bound, bound, shape).astype(dtype)


def init_model(cfg: ModelConfig, item_count: int, seed: int) -> ModelState:
    if item_count < 1:
        raise ValueError("init_model: item_count must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    shapes = _param_shapes(cfg, item_count)
    dt = cfg.np_dtype
    size = sum(math.prod(shape) for shape in shapes.values())
    state = ModelState(cfg, item_count, np.empty(size, dt), np.zeros(size, dt), np.zeros(size, dt))
    for name, shape in shapes.items():
        state.params[name][...] = _init_tensor(name, shape, cfg.embed_dim, rng, dt)
    return state


def splice_item_rows(flat: np.ndarray, item_count: int, rows: np.ndarray) -> np.ndarray:
    """``flat``, laid out for ``item_count`` items, with ``rows`` appended to ``item_emb`` (the first segment)."""
    cut = item_count * rows.shape[1]
    return np.concatenate([flat[:cut], rows.ravel(), flat[cut:]])


def grow_vocabulary(state: ModelState, new_item_count: int, seed: int = 0) -> ModelState:
    """Append embedding rows for new items; existing rows stay bit-identical.

    New rows use the embedding init distribution scaled down so old-item
    softmax mass is roughly preserved at the growth boundary. The flat
    vectors are rebuilt once, by ``splice_item_rows``; the new rows' Adam
    moments are zero.
    """
    if new_item_count < state.item_count:
        raise ValueError("grow_vocabulary: cannot shrink the vocabulary")
    extra = new_item_count - state.item_count
    if extra == 0:
        return state
    d = state.config.embed_dim
    dt = state.config.np_dtype
    bound = 1.0 / math.sqrt(d)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    rows = (rng.uniform(-bound, bound, (extra, d)) * NEW_ROW_SCALE).astype(dt)
    zeros = np.zeros_like(rows)
    for attr, new in (("flat_params", rows), ("flat_m", zeros), ("flat_v", zeros)):
        setattr(state, attr, splice_item_rows(getattr(state, attr), state.item_count, new))
    state.item_count = new_item_count
    state._bind()
    return state


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _softmax_last_inplace(x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Softmax over the last axis, in place; the row maxima and sums go to ``ws``."""
    rows = x.reshape(-1, x.shape[-1])
    # max is exact in any order, and numpy reduces a short last axis slowly: reduce the transpose's columns instead
    cols = ws("softmax.cols", rows.shape[::-1], x.dtype)
    np.copyto(cols, rows.T)
    stat = ws("softmax.stat", x.shape[:-1] + (1,), x.dtype)
    np.maximum.reduce(cols, axis=0, out=stat.reshape(-1))
    x -= stat
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True, out=stat)
    return x


# Reductions below go through matmuls with one-vectors: BLAS handles the
# strided last-axis sums far faster than numpy's reduce on these shapes.


def _col_sum(x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Column sums of the (N, D) matrix ``x``."""
    return np.matmul(ws("ones", (len(x),), x.dtype, fill=1), x)


def _mean_vec(d: int, dt: np.dtype, ws: Workspace) -> np.ndarray:
    return ws._constant(("mean", d, dt), lambda: np.full(d, 1.0 / d, dtype=dt))


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray, ws: Workspace, key: str):
    """Layer norm of the (N, D) rows of ``x``; output, ``xhat`` and ``inv`` go to ``ws`` under ``key``."""
    n, d = x.shape
    dt = x.dtype
    mean_vec = _mean_vec(d, dt, ws)
    mu = np.matmul(x, mean_vec, out=ws("ln.mu", (n,), dt))
    xc = np.subtract(x, mu[:, None], out=ws(key + "xhat", (n, d), dt))
    var = np.matmul(np.multiply(xc, xc, out=ws("scratch", (n, d), dt)), mean_vec, out=ws("ln.var", (n,), dt))
    var += LN_EPS
    inv = np.sqrt(var, out=ws(key + "inv", (n,), dt))
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(xc, inv[:, None], out=xc)
    y = np.multiply(xhat, g, out=ws(key + "y", (n, d), dt))
    np.add(y, b, out=y)
    return y, (xhat, inv)


def _ln_backward(dy: np.ndarray, g: np.ndarray, cache, ws: Workspace, key: str):
    """Layer-norm backward; the input gradient goes to ``ws`` under ``key``."""
    xhat, inv = cache
    n, d = dy.shape
    dt = dy.dtype
    mean_vec = _mean_vec(d, dt, ws)
    tmp = ws("scratch", (n, d), dt)
    dg = _col_sum(np.multiply(dy, xhat, out=tmp), ws)
    db = _col_sum(dy, ws)
    dx = np.multiply(dy, g, out=ws(key, (n, d), dt))
    m2 = np.matmul(np.multiply(dx, xhat, out=tmp), mean_vec, out=ws("lnb.m2", (n,), dt))
    dx -= np.matmul(dx, mean_vec, out=ws("lnb.mean", (n,), dt))[:, None]
    dx -= np.multiply(xhat, m2[:, None], out=tmp)
    dx *= inv[:, None]
    return dx, dg, db


def _encode_batch(
    state: ModelState,
    ids: np.ndarray,
    seg: np.ndarray,
    pos: np.ndarray,
    masks: np.ndarray | None = None,
    need_cache: bool = False,
):
    """Run the encoder over one packed batch, token-major, at every token.

    ``ids``, ``seg`` and ``pos`` are (B, L): each token's item, its segment
    (-1 on padding) and its position within the segment. A token attends to
    the tokens of its own segment up to itself, so segments packed into one
    row never see each other, and padding is never a key. Hidden states are
    one (B*L, D) matrix, so every projection, residual, dropout multiply,
    layer norm and feed-forward layer is a single 2-D GEMM or elementwise
    op; only the attention core uses (B, H, L, L) views. Q, K and V come
    from one (D, 3D) GEMM. ``masks`` holds the scaled dropout masks,
    (blocks, 2, B*L, D) for the attention and feed-forward outputs, or is
    None for no dropout. Returns the (B*L, D) final hidden states and an
    optional cache, all arrays of the model's workspace; values at padding
    are finite and never read.
    """
    ws = state.workspace
    cfg = state.config
    P = state.params
    if ids.max() >= state.item_count:
        raise ValueError("prefix item index out of range")
    B, L = ids.shape
    N = B * L
    D = cfg.embed_dim
    H = cfg.attention_heads
    dt = cfg.np_dtype
    scale = 1.0 / math.sqrt(D // H)

    # take with mode="wrap" writes straight into ``out`` and indexes like x[i] for -n <= i < n
    x = np.take(P["item_emb"], ids.ravel(), axis=0, out=ws("x", (N, D), dt), mode="wrap")
    x += np.take(P["pos_emb"], pos.ravel(), axis=0, out=ws("residual", (N, D), dt), mode="wrap")
    fill = dt.type(MASK_FILL)
    blocked = np.not_equal(seg[:, None, :, None], seg[:, None, None, :], out=ws("blocked", (B, 1, L, L), bool))
    blocked |= (seg < 0)[:, None, None, :]
    blocked |= ws._constant(("later", L), lambda: np.triu(np.ones((L, L), dtype=bool), 1))
    # -0.0 is the exact identity of addition, so one add of this (3D,) bias adds the query and value biases alone
    no_key_bias = ws._constant(("-0", D, dt), lambda: np.full(D, -0.0, dtype=dt))

    blocks = []
    for b in range(cfg.block_count):
        p = f"blocks.{b}."
        # the cache keeps every block's arrays; without it every block reuses
        # block 0's, each overwritten only after its last read (the block
        # input, block 0's ln2.y, is last read before ln2 writes it)
        k = p if need_cache else "blocks.0."
        w = np.concatenate([P[p + "attn.wq"], P[p + "attn.wk"], P[p + "attn.wv"]], axis=1,
                           out=ws(k + "w", (D, 3 * D), dt))
        proj = np.matmul(x, w, out=ws(k + "proj", (N, 3 * D), dt))
        proj += np.concatenate([P[p + "attn.bq"], no_key_bias, P[p + "attn.bv"]], out=ws("bias", (3 * D,), dt))
        qh, kh, vh = proj.reshape(B, L, 3, H, D // H).transpose(2, 0, 3, 1, 4)
        scores = np.matmul(qh, kh.swapaxes(-1, -2), out=ws(k + "attn", (B, H, L, L), dt))
        scores *= scale
        np.copyto(scores, fill, where=blocked)
        attn = _softmax_last_inplace(scores, ws)
        ctx = ws(k + "ctx", (B, L, H, D // H), dt)
        np.matmul(attn, vh, out=ctx.transpose(0, 2, 1, 3))
        ctx = ctx.reshape(N, D)
        mask1, mask2 = masks[b] if masks is not None else (None, None)
        r1 = np.matmul(ctx, P[p + "attn.wo"], out=ws("residual", (N, D), dt))
        r1 += P[p + "attn.bo"]
        if mask1 is not None:
            r1 *= mask1
        r1 += x
        x1, ln1c = _ln_forward(r1, P[p + "ln1.g"], P[p + "ln1.b"], ws, k + "ln1.")
        h = np.matmul(x1, P[p + "ff.w1"], out=ws(k + "h", (N, D), dt))
        h += P[p + "ff.b1"]
        np.maximum(h, 0.0, out=h)
        r2 = np.matmul(h, P[p + "ff.w2"], out=ws("residual", (N, D), dt))
        r2 += P[p + "ff.b2"]
        if mask2 is not None:
            r2 *= mask2
        r2 += x1
        x2, ln2c = _ln_forward(r2, P[p + "ln2.g"], P[p + "ln2.b"], ws, k + "ln2.")
        if need_cache:
            blocks.append(
                {"x": x, "w": w, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx, "mask1": mask1,
                 "ln1c": ln1c, "x1": x1, "h": h, "mask2": mask2, "ln2c": ln2c}
            )
        x = x2
    cache = None
    if need_cache:
        cache = {"ids": ids, "seg": seg, "pos": pos, "scale": scale, "blocks": blocks}
    return x, cache


class PrefixTable:
    """Rows' last ``max_seq_len`` items (``items[starts : starts + lengths]``), ranked once to find roots.

    The rows are an ``Examples``' prefixes, whose item array the table shares, or a sequence of prefixes, laid
    out flat; trimming moves ``starts``. ``rank`` orders the distinct trimmed prefixes lexicographically, and the
    ranks that start with distinct prefix ``r`` run from ``r`` to ``_last[r]``, found over a sparse table of
    common-prefix lengths' range minima.
    """

    def __init__(self, prefixes: Examples | Sequence[Sequence[int]], max_seq_len: int):
        self.max_seq_len = max_seq_len
        if isinstance(prefixes, Examples):
            items, starts, lengths = prefixes.items, prefixes.starts, prefixes.lengths
        else:
            lengths = np.fromiter(map(len, prefixes), dtype=np.int64, count=len(prefixes))
            items = np.fromiter(itertools.chain.from_iterable(prefixes), dtype=np.int64, count=lengths.sum())
            starts = np.cumsum(lengths) - lengths
        n = len(lengths)
        if n and lengths.min() < 1:
            raise ValueError("empty prefix")
        cut = np.maximum(lengths - max_seq_len, 0)
        self.items, self.starts, self.lengths = items, starts + cut, lengths - cut
        row = np.repeat(np.arange(n), self.lengths)
        col = np.arange(len(row)) - (np.cumsum(self.lengths) - self.lengths)[row]
        trimmed = items[self.starts[row] + col]
        # padded below every item, a row sorts right before the rows it is a prefix of, as tuples do
        padded = np.full((n, self.lengths.max(initial=1)), trimmed.min(initial=0) - 1, dtype=np.int64)
        padded[row, col] = trimmed
        order = np.lexsort(padded.T[::-1])
        differs = padded[order[1:]] != padded[order[:-1]]
        new = differs.any(axis=1)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[order] = np.concatenate(([0], np.cumsum(new)))[:n]
        # neighbouring distinct prefixes first differ where the shorter one ends or at their first other item
        lcp = differs[new].argmax(axis=1)
        levels = [lcp]  # level k: minima of lcp over 2**k neighbouring pairs
        while 1 << len(levels) <= len(lcp):
            half = 1 << (len(levels) - 1)
            levels.append(np.minimum(levels[-1][:-half], levels[-1][half:]))
        # the ranks that start with distinct prefix r run to _last[r]: jump while the pairs passed all share r
        need = self.lengths[order][np.concatenate(([True], new))[:n]]  # each distinct prefix's length
        self._last = np.arange(len(need))
        for k in range(len(levels) - 1, -1, -1):
            jump = np.flatnonzero(self._last + (1 << k) < len(need))
            jump = jump[levels[k][self._last[jump]] >= need[jump]]
            self._last[jump] += 1 << k

    def roots(self, rows: np.ndarray) -> np.ndarray:
        """Index into ``rows`` of each row's root: a row of ``rows`` that it is a prefix of and that nests in none.

        In lexicographic order a row is a prefix of some row if and only if it is a prefix of the next one, whose
        root it then shares; equal rows sort in call order.
        """
        rank = self.rank[rows]
        order = np.argsort(rank, kind="stable")
        nested = rank[order[1:]] <= self._last[rank[order[:-1]]]  # sorted row j is a prefix of row j + 1
        # a row's root is the first row at or after it, in sorted order, that is a prefix of no other
        ends = np.where(np.append(~nested, True), np.arange(len(rows)), len(rows))
        root = np.empty(len(rows), dtype=np.int64)
        root[order] = order[np.minimum.accumulate(ends[::-1])[::-1]]
        return root


@dataclass(frozen=True, eq=False)
class TableRows(Sequence):
    """Positions ``rows`` of ``examples``, whose prefixes ``table`` holds: a step's rows.

    A slice or an index array gives the view of those positions; an integer, or iteration, the examples.
    """

    table: PrefixTable
    examples: Examples
    rows: np.ndarray

    @classmethod
    def of(cls, examples: Sequence[TrainingExample], max_seq_len: int) -> "TableRows":
        """Every row of ``examples``, in a table of their own."""
        examples = Examples.of(examples)
        return cls(PrefixTable(examples, max_seq_len), examples, np.arange(len(examples)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return TableRows(self.table, self.examples, self.rows[i])
        return self.examples[self.rows[i]]


def _pack(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """First-fit-decreasing packing of segments into rows as wide as the longest.

    Returns each segment's first token as a flat index into the (rows, width) layout, and the number of rows.
    First fit puts each of a run of segments of length ``s`` into the first row with ``s`` free slots, so a
    row with ``f`` free slots takes the next ``f // s`` of them: one scan of the rows per length.
    """
    width = int(lengths.max())
    order = np.argsort(-lengths, kind="stable")
    size = lengths[order]
    cuts = (np.flatnonzero(size[1:] != size[:-1]) + 1).tolist()
    first: list[int] = []  # each segment's first token, in packing order
    free: list[int] = []  # space left in each row
    # plain Python lists: the rows are few, and numpy calls would cost more than the scan
    for lo, hi, s in zip([0, *cuts], [*cuts, len(size)], size[[0, *cuts]].tolist()):
        left = hi - lo
        for row in range(len(free)):
            if free[row] >= s:
                count = min(free[row] // s, left)
                slot = (row + 1) * width - free[row]
                first.extend(range(slot, slot + count * s, s))
                free[row] -= count * s
                left -= count
                if not left:
                    break
        while left:  # new rows
            count = min(width // s, left)
            first.extend(range(len(free) * width, len(free) * width + count * s, s))
            free.append(width - count * s)
            left -= count
    start = np.empty(len(size), dtype=np.int64)
    start[order] = first
    return start, len(free)


def _dropout_keep(seed: int, shape: tuple[int, ...], dtype: np.dtype, rate: float, out: np.ndarray) -> np.ndarray:
    """``default_rng(SeedSequence([seed])).random(shape, dtype) >= rate``, from PCG64's raw 64-bit words.

    ``random`` gives float64 ``(u64 >> 11) * 2**-53`` and float32 ``(u32 >> 8) * 2**-24``, u32 the words'
    halves, low first (an even count). So a value reaches ``rate`` exactly when its word reaches a threshold.
    """
    mantissa, word_bits = np.finfo(dtype).nmant + 1, 8 * dtype.itemsize
    rate = float(np.result_type(dtype, rate).type(rate))
    threshold = math.ceil(math.ldexp(rate, mantissa)) << (word_bits - mantissa)
    raw = np.random.PCG64(np.random.SeedSequence([seed])).random_raw(math.prod(shape) * word_bits // 64)
    words = raw.astype("<u8", copy=False).view(f"<u{dtype.itemsize}").reshape(shape)
    return np.greater_equal(words, threshold, out=out)


def _encode_rows(
    state: ModelState,
    table: PrefixTable,
    rows: np.ndarray,
    dropout_rate: float = 0.0,
    dropout_seed: int = 0,
    need_cache: bool = False,
):
    """Last-position features of rows ``rows`` of ``table``, from one packed pass over their roots.

    Each row maps to its root (``table.roots``). The roots are packed
    first-fit-decreasing into rows as wide as the longest root, with
    positions restarting at 0 in each segment, gathered from
    ``table.items`` by index and encoded in one call. Under the causal mask
    a row's features are its root's hidden state at the row's last item.
    With a ``dropout_rate`` above 0, masks come from one draw per call,
    seeded by ``dropout_seed``, per real token and block, so rows sharing a
    root share every mask; ``_dropout_keep`` reads them from the raw words.
    Returns the (rows, D) features and, with ``need_cache``, the cache
    ``_encode_backward`` reads; both are arrays of the model's workspace.
    """
    ws = state.workspace
    cfg = state.config
    dt = cfg.np_dtype
    d = cfg.embed_dim
    if table.max_seq_len != cfg.max_seq_len:  # positions past the model's would wrap
        raise ValueError(f"prefix table trimmed to {table.max_seq_len} items, the model reads {cfg.max_seq_len}")
    lengths = table.lengths[rows]
    root = table.roots(rows)
    is_root = root == np.arange(len(rows))  # roots in call order, and each row's index among them
    roots, group = np.flatnonzero(is_root), np.cumsum(is_root)[root] - 1
    root_len = lengths[roots]
    start, packed = _pack(root_len)
    width = int(root_len.max())
    slots = packed * width
    # every root token, root after root: its segment and its position in it
    segment = np.repeat(np.arange(len(roots)), root_len)
    within = np.arange(len(segment)) - (np.cumsum(root_len) - root_len)[segment]
    tok = start[segment] + within
    ids = ws("ids", (slots,), np.int64)
    ids.fill(0)
    ids[tok] = table.items[table.starts[rows[roots]][segment] + within]
    seg = ws("seg", (slots,), np.int64)
    seg.fill(-1)
    seg[tok] = segment
    pos = ws("pos", (slots,), np.int64)
    pos.fill(0)
    pos[tok] = within
    masks = None
    if dropout_rate > 0.0:
        shape = (cfg.block_count, 2, len(tok), d)
        keep = _dropout_keep(dropout_seed, shape, dt, dropout_rate, out=ws("dropout.keep", shape, bool))
        kept = ws("dropout.kept", (cfg.block_count, 2, slots, d), bool)  # ``keep`` in the packed slots
        kept.fill(False)
        kept.view(f"V{d}")[:, :, tok] = keep.view(f"V{d}")  # a token's d flags as one item: one copy per token
        masks = np.multiply(kept, dt.type(1.0 / (1.0 - dropout_rate)), out=ws("dropout.masks", kept.shape, dt))
    shape = (packed, width)
    hidden, cache = _encode_batch(state, ids.reshape(shape), seg.reshape(shape), pos.reshape(shape), masks,
                                  need_cache)
    last = start[group] + lengths - 1  # each row's last item, in its root's segment
    if need_cache:
        cache["last"] = last
    return np.take(hidden, last, axis=0, out=ws("feats", (len(rows), d), dt), mode="wrap"), cache


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray, ws: Workspace, zeroed: bool = False) -> None:
    """``out[index[i]] += rows[i]`` with repeated indices summed, like ``np.add.at``.

    The rows are sorted by index. A run of one index adds its row as it is,
    and the longer runs are each summed with one ``reduceat`` first. Only
    the rows that occur are touched. ``zeroed`` says ``out`` holds zeros: a
    sum is then added to 0 rather than to the rows read back from ``out``.
    """
    n = len(index)
    # indices into ``out``: below 2**16 they sort as uint16, by radix sort, in the same stable order
    order = (index.astype(np.uint16) if len(out) <= 1 << 16 else index).argsort(kind="stable")
    keys = index[order]
    edge = ws("scatter.edge", (n + 1,), bool)  # sorted position i starts a run; position n ends the last
    edge[0] = edge[n] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:n])
    first = np.flatnonzero(edge)[:-1]
    alone = edge[first + 1]
    single = first[alone]
    _add_rows(out, keys[single], rows[order[single]], zeroed)
    if len(single) < len(first):
        multi = np.flatnonzero(~alone[np.cumsum(edge[:n]) - 1])  # the sorted positions in runs of two or more
        shape = (len(multi),) + rows.shape[1:]
        grouped = np.take(rows, order[multi], axis=0, out=ws("scatter.rows", shape, rows.dtype), mode="wrap")
        starts = np.flatnonzero(edge[multi])
        sums = np.add.reduceat(grouped, starts, axis=0, out=ws("scatter.sums", (len(starts),) + shape[1:], rows.dtype))
        _add_rows(out, keys[multi[starts]], sums, zeroed)


def _add_rows(out: np.ndarray, dest: np.ndarray, values: np.ndarray, zeroed: bool) -> None:
    """``out[dest] += values`` for distinct ``dest``; ``values`` is overwritten."""
    if zeroed:
        values += 0.0  # as 0 + v: only -0.0 changes
    else:
        values += out[dest]
    out[dest] = values


def _encode_backward(state: ModelState, cache: dict, dfeats: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Accumulate encoder gradients into ``grads`` given d(loss)/d(row features).

    ``cache`` comes from ``_encode_rows``. Each row's gradient lands on its
    last token, equal rows summed, and flows back through every block at
    every token, in the forward pass's token-major layout: the fused
    projection's weight gradients come from one GEMM and its input
    gradient from another. Padding receives exactly zero gradient. Every
    temporary is an array of the model's workspace.
    """
    ws = state.workspace
    cfg = state.config
    P = state.params
    B, L = cache["ids"].shape
    N = B * L
    D = cfg.embed_dim
    H = cfg.attention_heads
    dt = dfeats.dtype
    scale = cache["scale"]

    # three (N, D) buffers take turns, each reused once its last reader has run:
    # "grad.a" holds dx, dhpre, do and the next dx; "grad.b" dr2, then dr1;
    # "grad.c" df, dx1, dctx and finally the real tokens' dx
    dx = ws("grad.a", (N, D), dt)
    dx.fill(0)
    _scatter_rows(dx, cache["last"], dfeats, ws, zeroed=True)
    dw = ws("dw", (D, D), dt)  # each weight gradient, added to ``grads`` as soon as it is made
    for b in range(cfg.block_count - 1, -1, -1):
        c = cache["blocks"][b]
        p = f"blocks.{b}."
        dr2, dg2, db2 = _ln_backward(dx, P[p + "ln2.g"], c["ln2c"], ws, "grad.b")
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        df = np.multiply(dr2, c["mask2"], out=ws("grad.c", (N, D), dt)) if c["mask2"] is not None else dr2
        grads[p + "ff.w2"] += np.matmul(c["h"].T, df, out=dw)
        grads[p + "ff.b2"] += _col_sum(df, ws)
        dhpre = np.matmul(df, P[p + "ff.w2"].T, out=ws("grad.a", (N, D), dt))
        dhpre *= np.greater(c["h"], 0.0, out=ws("relu", (N, D), bool))
        grads[p + "ff.w1"] += np.matmul(c["x1"].T, dhpre, out=dw)
        grads[p + "ff.b1"] += _col_sum(dhpre, ws)
        dx1 = np.matmul(dhpre, P[p + "ff.w1"].T, out=ws("grad.c", (N, D), dt))
        dx1 += dr2

        dr1, dg1, db1 = _ln_backward(dx1, P[p + "ln1.g"], c["ln1c"], ws, "grad.b")
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        do = np.multiply(dr1, c["mask1"], out=ws("grad.a", (N, D), dt)) if c["mask1"] is not None else dr1
        grads[p + "attn.wo"] += np.matmul(c["ctx"].T, do, out=dw)
        grads[p + "attn.bo"] += _col_sum(do, ws)
        dctx = np.matmul(do, P[p + "attn.wo"].T, out=ws("grad.c", (N, D), dt))
        dctx = dctx.reshape(B, L, H, D // H).transpose(0, 2, 1, 3)
        attn = c["attn"]
        dscores = np.matmul(dctx, c["vh"].swapaxes(-1, -2), out=ws("dscores", (B, H, L, L), dt))
        # softmax rows: ds = a * (da - sum(da * a))
        dscores -= np.multiply(dscores, attn, out=ws("dscores.tmp", (B, H, L, L), dt)).sum(axis=-1, keepdims=True)
        dscores *= attn
        dscores *= scale
        dproj = ws("dproj", (B, L, 3, H, D // H), dt)
        dq, dk, dv = dproj.transpose(2, 0, 3, 1, 4)
        np.matmul(dscores, c["kh"], out=dq)
        np.matmul(dscores.swapaxes(-1, -2), c["qh"], out=dk)
        np.matmul(attn.swapaxes(-1, -2), dctx, out=dv)
        dproj = dproj.reshape(N, 3 * D)
        dwqkv = np.matmul(c["x"].T, dproj, out=ws("dwqkv", (D, 3 * D), dt))
        db = _col_sum(dproj, ws)
        for i, n in enumerate("qkv"):
            grads[p + "attn.w" + n] += dwqkv[:, i * D : (i + 1) * D]
        grads[p + "attn.bq"] += db[:D]
        grads[p + "attn.bv"] += db[2 * D :]
        dx = np.matmul(dproj, c["w"].T, out=ws("grad.a", (N, D), dt))
        dx += dr1

    real = np.flatnonzero(cache["seg"].ravel() >= 0)
    flat_dx = np.take(dx, real, axis=0, out=ws("grad.c", (len(real), D), dt), mode="wrap")
    _scatter_rows(grads["item_emb"], cache["ids"].ravel()[real], flat_dx, ws)
    _scatter_rows(grads["pos_emb"], cache["pos"].ravel()[real], flat_dx, ws)


def extract_features_batch(
    state: ModelState, prefixes: PrefixTable | Examples | Sequence[Sequence[int]]
) -> np.ndarray:
    """Feature vectors (final-block output at the last position) per prefix, dropout off.

    The prefixes go into one ``PrefixTable``, unless they are one; each
    range of ``BLOCK_ROWS`` of its rows is encoded in the model's workspace,
    and its features are copied out before the next.
    """
    table = prefixes if isinstance(prefixes, PrefixTable) else PrefixTable(prefixes, state.config.max_seq_len)
    count = len(table.lengths)
    out = np.empty((count, state.config.embed_dim), dtype=state.config.np_dtype)
    for lo in range(0, count, BLOCK_ROWS):
        rows = np.arange(lo, min(lo + BLOCK_ROWS, count))
        out[lo : lo + len(rows)], _ = _encode_rows(state, table, rows)
    return out


def logit_blocks(state: ModelState, feats: np.ndarray, item_range: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, logits)``: a slice of ``feats`` and its logits over ``item_emb[:item_range]``.

    Rows go in the fewest near-equal blocks of at most ``BLOCK_ROWS``:
    BLAS sums a one- or few-row remainder in another float32 order than
    one big GEMM. Blocks share one buffer of the model's workspace; a block
    is the caller's to overwrite, and valid until the next.
    """
    ws = state.workspace
    emb_t = state.params["item_emb"][:item_range].T
    count = max(1, -(-len(feats) // BLOCK_ROWS))
    # ceiling cuts put the larger blocks first, so the buffer never grows mid-pass
    bounds = [-(-len(feats) * i // count) for i in range(count + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        logits = ws("logits", (hi - lo, item_range), feats.dtype)
        yield slice(lo, hi), np.matmul(feats[lo:hi], emb_t, out=logits)


# ---------------------------------------------------------------------------
# combined losses with gradients
# ---------------------------------------------------------------------------


@dataclass
class BatchSpec:
    """One optimization step's inputs: rows plus the loss recipe.

    ``ce_examples`` and ``kd_examples`` are ``TableRows`` of one
    ``PrefixTable``, encoded by index (either may be empty): the training
    loop passes rows of its per-cycle table. The KD term scores the
    teacher's items, the first ``kd_teacher_probs.shape[1]``.
    ``ewc_anchor`` and ``ewc_fisher`` are vectors laid out like
    ``ModelState.flat_params``. ``dropout_rate`` is the step's dropout
    probability, 0 for none; the training loop fills it from the method.
    The step's arrays come from the model's workspace.
    """

    ce_examples: Sequence[TrainingExample] = ()
    kd_examples: Sequence[TrainingExample] = ()
    kd_teacher_probs: np.ndarray | None = None
    kd_weight: float = 0.0
    ewc_anchor: np.ndarray | None = None
    ewc_fisher: np.ndarray | None = None
    ewc_weight: float = 0.0
    dropout_rate: float = 0.0
    dropout_seed: int = 0


def loss_and_gradients(state: ModelState, spec: BatchSpec) -> tuple[LossBreakdown, _Views]:
    """Evaluate the mixed loss and its exact parameter gradients.

    total = ce + kd_weight * kd + ewc_weight * ewc, each term present only
    when its inputs are supplied. Raises ``DivergenceError`` on a
    non-finite total. The gradients are named like ``state.params``: views
    of one vector (``grads.flat``) of the model's workspace, laid out like
    ``state.flat_params`` and valid until the next pass over the model.
    """
    ws = state.workspace
    dt = state.config.np_dtype
    D = state.config.embed_dim
    grads = ws._built("grads", state.flat_params.shape, dt, state._layout, state._views)
    grads.flat.fill(0)
    E = state.params["item_emb"]
    values = {"ce": 0.0, "kd": 0.0, "ewc": 0.0}

    ce_rows = spec.ce_examples
    kd_rows = spec.kd_examples if spec.kd_weight != 0.0 else ()
    given = [part for part in (ce_rows, kd_rows) if len(part)]
    if not all(isinstance(part, TableRows) and part.table is given[0].table for part in given):
        raise ValueError("loss_and_gradients: the CE and KD rows must be TableRows of one PrefixTable")
    terms = []  # (name, rows, loss, labels, items scored, weight): CE over every item, KD over the teacher's
    if len(ce_rows):
        targets = ce_rows.examples.targets[ce_rows.rows]
        if targets.max() >= state.item_count:
            raise ValueError("loss_and_gradients: CE target outside item range")
        terms.append(("ce", ce_rows, ce_from_logits, targets, state.item_count, 1.0))
    if len(kd_rows):
        teacher = spec.kd_teacher_probs
        if teacher is None or len(teacher) != len(kd_rows) or teacher.shape[1] > state.item_count:
            raise ValueError("loss_and_gradients: KD needs a teacher row per KD row, over at most the model's items")
        terms.append(("kd", kd_rows, kd_from_logits, teacher, teacher.shape[1], spec.kd_weight))
    if terms:  # one encoder pass over one table; the KD rows follow the CE rows
        feats, cache = _encode_rows(state, given[0].table, np.concatenate([part.rows for part in given]),
                                    spec.dropout_rate, spec.dropout_seed, need_cache=True)
        dfeats = ws("dfeats", feats.shape, dt)  # each term writes its rows whole
        for (name, part, loss, labels, width, weight), lo in zip(terms, (0, len(ce_rows))):
            f, df = feats[lo : lo + len(part)], dfeats[lo : lo + len(part)]
            logits = np.matmul(f, E[:width].T, out=ws("logits", (len(part), width), dt))
            values[name], dlogits = loss(logits, labels, out=(logits, ws("dlogits", logits.shape, dt)))
            if weight != 1.0:
                dlogits *= weight
            grads["item_emb"][:width] += np.matmul(dlogits.T, f, out=ws("demb", (width, D), dt))
            np.matmul(dlogits, E[:width], out=df)
        _encode_backward(state, cache, dfeats, grads)

    if spec.ewc_anchor is not None and spec.ewc_weight != 0.0:
        theta, anchor, fw = state.flat_params, spec.ewc_anchor, spec.ewc_fisher
        if fw is None or anchor.shape != theta.shape or fw.shape != theta.shape:
            raise ValueError("loss_and_gradients: EWC needs an anchor and Fisher weights laid out like flat_params")
        diff = np.subtract(theta, anchor, out=ws("ewc.diff", theta.shape, np.result_type(theta, anchor)))
        term_dt = np.result_type(fw, diff)
        term = np.multiply(fw, diff, out=ws("ewc.term", theta.shape, term_dt))
        term *= diff
        # summed per parameter: the logged loss keeps its float order
        for segment in ws._built("ewc.term", theta.shape, term_dt, state._layout, state._views).values():
            values["ewc"] += 0.5 * float(segment.sum())
        np.multiply(fw, spec.ewc_weight, out=term)  # ewc_weight * fw * diff
        term *= diff
        grads.flat += term

    total = values["ce"] + spec.kd_weight * values["kd"] + spec.ewc_weight * values["ewc"]
    if not math.isfinite(total):
        raise DivergenceError(f"non-finite loss: ce={values['ce']} kd={values['kd']} ewc={values['ewc']}")
    return LossBreakdown(**values, total=total), grads


def adam_step(state: ModelState, grads: _Views, lr: float = 5e-4) -> ModelState:
    """Bias-corrected Adam update, in place, over the flat vectors in cache-sized chunks. Returns the state.

    ``grads`` comes from ``loss_and_gradients``; Adam reads its flat vector.
    Scratch arrays come from the model's workspace.
    """
    g, theta, m, v = grads.flat, state.flat_params, state.flat_m, state.flat_v
    if g.shape != theta.shape or g.dtype != theta.dtype:
        raise ValueError(f"adam_step: gradients {g.dtype}{g.shape} do not match parameters {theta.dtype}{theta.shape}")
    ws = state.workspace
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    n = min(ADAM_CHUNK, g.size)
    tmp = ws("adam.tmp", (n,), g.dtype)
    denom = ws("adam.denom", (n,), v.dtype)
    for lo in range(0, g.size, ADAM_CHUNK):
        c = slice(lo, lo + ADAM_CHUNK)
        gc, mc, vc = g[c], m[c], v[c]
        k = len(gc)
        mc *= ADAM_BETA1
        mc += np.multiply(gc, 1.0 - ADAM_BETA1, out=tmp[:k])
        vc *= ADAM_BETA2
        sq = np.multiply(gc, gc, out=tmp[:k])
        sq *= 1.0 - ADAM_BETA2
        vc += sq
        # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        update = np.divide(mc, bc1, out=tmp[:k])
        update *= lr
        den = np.divide(vc, bc2, out=denom[:k])
        np.sqrt(den, out=den)
        den += ADAM_EPS
        update /= den
        theta[c] -= update
    return state
