"""Self-attentive next-item model: forward pass, exact backward pass, Adam.

Training runs in the configured dtype (float32 by default); oracle checks
use float64.

Rows that share a session prefix share one pass. Each row's trimmed
prefix maps to a root: a row of the same call that it is a prefix of and
that is a prefix of no other row (in lexicographic order, a row is a
prefix of some row if and only if it is a prefix of the next one). Only
roots are encoded, and under the causal mask a row's features are its
root's hidden state at the row's last item. The roots of one call are
packed first-fit-decreasing into rows as wide as the longest root
(sequence packing; Krell et al. 2021, arXiv 2107.02027): each root is a
segment whose positions restart at 0, and a token attends only to real
tokens of its own segment, causally. So segments never see each other
or the padding, and per-row features are independent of what else the
call holds. That holds in exact arithmetic; in float32 a row's values
can differ in the last bits with what its call packs, as GEMM blocking
and summation order change. Every block runs at every token, forward
and backward, through one code path. With dropout on, masks are drawn
once per call, per real token and block, so rows sharing a root share
every mask, as one SASRec pass over the session would.

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
then reused. A ``ModelState`` and its copies share one workspace, so
every pass of a run, in every cycle, reuses the same buffers. Adam runs
over the flat vectors in chunks that stay in cache, and every
full-vocabulary scoring pass holds one block of rows' logits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import TrainingExample
from .losses import LossBreakdown, ce_from_logits, kd_from_logits

LN_EPS = 1e-8
MASK_FILL = -1e9
NEW_ROW_SCALE = 0.01
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
    dropout_rate: float = 0.0
    dtype: str = "float32"  # training precision; oracle checks use float64

    def __post_init__(self) -> None:
        if min(self.embed_dim, self.block_count, self.attention_heads, self.max_seq_len) < 1:
            raise ValueError("model config: all sizes must be positive")
        if self.embed_dim % self.attention_heads:
            raise ValueError("model config: embed_dim must be divisible by attention_heads")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("model config: dropout_rate must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("model config: dtype must be float32 or float64")

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


class Workspace:
    """Per-call arrays reused across the steps and passes of one run.

    ``ws(key, shape, dtype)`` returns a C-contiguous array of that shape
    cut from the buffer kept under ``key``. A buffer is replaced when a
    request outgrows it and reused otherwise; its contents are whatever the
    last user left. So an array taken in one step is valid until the next
    step on the same workspace.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def __call__(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


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
        return _Views(flat, _param_shapes(self.config, self.item_count).items())

    def _bind(self) -> None:
        """Point the named arrays at the segments of the current vectors."""
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


def _softmax_last_inplace(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


# Reductions below go through matmuls with one-vectors: BLAS handles the
# strided last-axis sums far faster than numpy's reduce on these shapes.


def _col_sum(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(-1, x.shape[-1])
    return np.ones(flat.shape[0], dtype=flat.dtype) @ flat


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray, ws: Workspace, key: str):
    """Layer norm of the (N, D) rows of ``x``; output, ``xhat`` and ``inv`` go to ``ws`` under ``key``."""
    n, d = x.shape
    dt = x.dtype
    mean_vec = np.full(d, 1.0 / d, dtype=dt)
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
    mean_vec = np.full(d, 1.0 / d, dtype=dt)
    tmp = ws("scratch", (n, d), dt)
    dg = _col_sum(np.multiply(dy, xhat, out=tmp))
    db = _col_sum(dy)
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
    allowed = np.equal(seg[:, :, None], seg[:, None, :], out=ws("allowed", (B, L, L), bool))
    allowed &= (seg >= 0)[:, None, :]
    allowed &= np.tril(np.ones((L, L), dtype=bool))
    blocked = np.logical_not(allowed[:, None], out=ws("blocked", (B, 1, L, L), bool))

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
        proj[:, :D] += P[p + "attn.bq"]
        proj[:, 2 * D :] += P[p + "attn.bv"]
        qh, kh, vh = proj.reshape(B, L, 3, H, D // H).transpose(2, 0, 3, 1, 4)
        scores = np.matmul(qh, kh.swapaxes(-1, -2), out=ws(k + "attn", (B, H, L, L), dt))
        scores *= scale
        np.copyto(scores, fill, where=blocked)
        attn = _softmax_last_inplace(scores)
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


def _prefix_roots(trimmed: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Index of each row's root: a row that it is a prefix of and that is a prefix of no other row.

    In lexicographic order every row that starts with ``a`` follows ``a``
    directly, so ``a`` is a prefix of some other row if and only if it is a
    prefix of the row right after it, whose root it then shares. Equal rows
    share a root.
    """
    root = np.arange(len(trimmed))
    order = sorted(range(len(trimmed)), key=trimmed.__getitem__)
    for k in range(len(order) - 2, -1, -1):
        row, nxt = order[k], order[k + 1]
        if trimmed[nxt][: len(trimmed[row])] == trimmed[row]:
            root[row] = root[nxt]
    return root


def _pack(lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """First-fit-decreasing packing of segments into rows as wide as the longest.

    Returns each segment's first token as a flat index into the (rows, width)
    layout, and the number of rows.
    """
    width = int(lengths.max())
    size = lengths.tolist()
    free: list[int] = []  # space left in each row
    start = np.empty(len(size), dtype=np.int64)
    full = 0  # every row before this one is full
    # plain Python lists: the rows are few, and numpy calls would cost more than the scan
    for i in np.argsort(-lengths, kind="stable").tolist():
        while full < len(free) and free[full] == 0:
            full += 1
        for row in range(full, len(free)):
            if free[row] >= size[i]:
                break
        else:
            row = len(free)
            free.append(width)
        start[i] = row * width + width - free[row]
        free[row] -= size[i]
    return start, len(free)


def _encode_rows(
    state: ModelState,
    prefixes: Sequence[Sequence[int]],
    train_mode: bool = False,
    dropout_seed: int = 0,
    need_cache: bool = False,
):
    """Last-position features of each prefix, from one packed pass over their roots.

    Each trimmed prefix maps to its root (``_prefix_roots``). The roots are
    packed first-fit-decreasing into rows as wide as the longest root, with
    positions restarting at 0 in each segment, and encoded in one call.
    Under the causal mask a row's features are its root's hidden state at
    the row's last item. With dropout on, masks come from one draw per
    call, seeded by ``dropout_seed``, per real token and block, so rows
    sharing a root share every mask. Returns the (rows, D) features and,
    with ``need_cache``, the cache ``_encode_backward`` reads; both are
    arrays of the model's workspace.
    """
    ws = state.workspace
    cfg = state.config
    dt = cfg.np_dtype
    d = cfg.embed_dim
    trimmed = [tuple(p[-cfg.max_seq_len :]) for p in prefixes]
    lengths = np.fromiter(map(len, trimmed), dtype=np.int64, count=len(trimmed))
    if lengths.min() < 1:
        raise ValueError("empty prefix")
    roots, group = np.unique(_prefix_roots(trimmed), return_inverse=True)
    root_len = lengths[roots]
    start, rows = _pack(root_len)
    width = int(root_len.max())
    slots = rows * width
    # flat index of every root token, root after root
    offsets = np.cumsum(root_len) - root_len
    tok = np.repeat(start - offsets, root_len) + np.arange(int(root_len.sum()))
    ids = ws("ids", (slots,), np.int64)
    ids.fill(0)
    ids[tok] = np.fromiter(itertools.chain.from_iterable(trimmed[i] for i in roots), dtype=np.int64, count=len(tok))
    seg = ws("seg", (slots,), np.int64)
    seg.fill(-1)
    seg[tok] = np.repeat(np.arange(len(roots)), root_len)
    pos = ws("pos", (slots,), np.int64)
    pos.fill(0)
    pos[tok] = tok - np.repeat(start, root_len)
    masks = None
    if train_mode and cfg.dropout_rate > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([dropout_seed]))
        shape = (cfg.block_count, 2, len(tok), d)
        masks = ws("dropout.masks", (cfg.block_count, 2, slots, d), dt)
        # the draw is cut from the masks' buffer: it is read into keep before the masks are written
        draw = rng.random(shape, dtype=dt, out=ws("dropout.masks", shape, dt))
        keep = np.greater_equal(draw, cfg.dropout_rate, out=ws("dropout.keep", shape, bool))
        masks.fill(0)
        masks[:, :, tok] = keep
        masks *= dt.type(1.0 / (1.0 - cfg.dropout_rate))
    shape = (rows, width)
    hidden, cache = _encode_batch(state, ids.reshape(shape), seg.reshape(shape), pos.reshape(shape), masks,
                                  need_cache)
    last = start[group] + lengths - 1  # each row's last item, in its root's segment
    if need_cache:
        cache["last"] = last
    return np.take(hidden, last, axis=0, out=ws("feats", (len(trimmed), d), dt), mode="wrap"), cache


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray, ws: Workspace) -> None:
    """``out[index[i]] += rows[i]`` with repeated indices summed, like ``np.add.at``.

    Distinct indices (each row's last token, unless two rows share a
    trimmed prefix) are added as they come: one add per row, so the result
    is ``np.add.at``'s bit for bit. Repeated ones are sorted by index and
    each run of equal indices is summed with one ``reduceat`` first. Only
    the rows that occur are touched.
    """
    distinct = False
    if len(index) <= len(out):
        hit = ws("scatter.hit", (len(out),), bool)
        hit.fill(False)
        hit[index] = True
        distinct = np.count_nonzero(hit) == len(index)
    if distinct:
        dest, sums = index, rows
    else:
        order = np.argsort(index, kind="stable")
        keys = index[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        dest = keys[starts]
        shape = (len(starts),) + rows.shape[1:]
        grouped = np.take(rows, order, axis=0, out=ws("scatter.rows", rows.shape, rows.dtype), mode="wrap")
        sums = np.add.reduceat(grouped, starts, axis=0, out=ws("scatter.sums", shape, rows.dtype))
    acc = np.take(out, dest, axis=0, out=ws("scatter.acc", sums.shape, out.dtype), mode="wrap")
    acc += sums
    out[dest] = acc


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
    _scatter_rows(dx, cache["last"], dfeats, ws)
    dw = ws("dw", (D, D), dt)  # each weight gradient, added to ``grads`` as soon as it is made
    for b in range(cfg.block_count - 1, -1, -1):
        c = cache["blocks"][b]
        p = f"blocks.{b}."
        dr2, dg2, db2 = _ln_backward(dx, P[p + "ln2.g"], c["ln2c"], ws, "grad.b")
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        df = np.multiply(dr2, c["mask2"], out=ws("grad.c", (N, D), dt)) if c["mask2"] is not None else dr2
        grads[p + "ff.w2"] += np.matmul(c["h"].T, df, out=dw)
        grads[p + "ff.b2"] += _col_sum(df)
        dhpre = np.matmul(df, P[p + "ff.w2"].T, out=ws("grad.a", (N, D), dt))
        dhpre *= np.greater(c["h"], 0.0, out=ws("relu", (N, D), bool))
        grads[p + "ff.w1"] += np.matmul(c["x1"].T, dhpre, out=dw)
        grads[p + "ff.b1"] += _col_sum(dhpre)
        dx1 = np.matmul(dhpre, P[p + "ff.w1"].T, out=ws("grad.c", (N, D), dt))
        dx1 += dr2

        dr1, dg1, db1 = _ln_backward(dx1, P[p + "ln1.g"], c["ln1c"], ws, "grad.b")
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        do = np.multiply(dr1, c["mask1"], out=ws("grad.a", (N, D), dt)) if c["mask1"] is not None else dr1
        grads[p + "attn.wo"] += np.matmul(c["ctx"].T, do, out=dw)
        grads[p + "attn.bo"] += _col_sum(do)
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
        db = _col_sum(dproj)
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


def extract_features_batch(state: ModelState, prefixes: Sequence[Sequence[int]], batch_size: int = 512) -> np.ndarray:
    """Feature vectors (final-block output at the last position) per prefix, dropout off.

    Each chunk of ``batch_size`` prefixes is encoded in the model's
    workspace, and its features are copied out before the next.
    """
    if batch_size < 1:
        raise ValueError(f"extract_features_batch: batch_size must be >= 1, got {batch_size}")
    out = np.empty((len(prefixes), state.config.embed_dim), dtype=state.config.np_dtype)
    for lo in range(0, len(prefixes), batch_size):
        chunk = prefixes[lo : lo + batch_size]
        out[lo : lo + len(chunk)], _ = _encode_rows(state, chunk)
    return out


def logit_blocks(
    state: ModelState, feats: np.ndarray, item_range: int, batch_size: int = 512
) -> Iterator[tuple[slice, np.ndarray]]:
    """Yield ``(rows, logits)``: a slice of ``feats`` and its logits over ``item_emb[:item_range]``.

    Rows go in the fewest near-equal blocks of at most ``batch_size``:
    BLAS sums a one- or few-row remainder in another float32 order than
    one big GEMM. Blocks share one buffer of the model's workspace; a block
    is the caller's to overwrite, and valid until the next.
    """
    if batch_size < 1:
        raise ValueError(f"logit_blocks: batch_size must be >= 1, got {batch_size}")
    ws = state.workspace
    emb_t = state.params["item_emb"][:item_range].T
    count = max(1, -(-len(feats) // batch_size))
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
    """One optimization step's inputs: examples plus the loss recipe.

    ``ewc_anchor`` and ``ewc_fisher`` are vectors laid out like
    ``ModelState.flat_params``. The step's arrays come from the model's
    workspace.
    """

    ce_examples: Sequence[TrainingExample] = ()
    kd_examples: Sequence[TrainingExample] = ()
    kd_teacher_probs: np.ndarray | None = None
    kd_item_range: int = 0
    kd_weight: float = 0.0
    ewc_anchor: np.ndarray | None = None
    ewc_fisher: np.ndarray | None = None
    ewc_weight: float = 0.0
    train_mode: bool = False
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
    grads = state._views(ws("grads", state.flat_params.shape, dt))
    grads.flat.fill(0)
    E = state.params["item_emb"]
    ce_val = kd_val = ewc_val = 0.0

    # CE and KD rows share one encoder pass; KD rows follow the CE rows.
    ce_rows = list(spec.ce_examples)
    kd_rows = list(spec.kd_examples) if spec.kd_weight != 0.0 else []
    if kd_rows and (spec.kd_teacher_probs is None or spec.kd_item_range <= 0):
        raise ValueError("loss_and_gradients: KD requires teacher probs and an old-item range")
    n_ce = len(ce_rows)
    if ce_rows or kd_rows:
        feats, cache = _encode_rows(
            state, [ex.prefix for ex in ce_rows + kd_rows], spec.train_mode, spec.dropout_seed, need_cache=True
        )
        dfeats = ws("dfeats", feats.shape, dt)  # the CE rows, then the KD rows, each written whole
        if ce_rows:
            targets = np.array([ex.target for ex in ce_rows])
            if targets.max() >= state.item_count:
                raise ValueError("loss_and_gradients: CE target outside item range")
            ce_feats = feats[:n_ce]
            logits = np.matmul(ce_feats, E.T, out=ws("logits", (n_ce, state.item_count), dt))
            ce_val, dlogits = ce_from_logits(logits, targets, out=(logits, ws("dlogits", logits.shape, dt)))
            grads["item_emb"] += np.matmul(dlogits.T, ce_feats, out=ws("demb", E.shape, dt))
            np.matmul(dlogits, E, out=dfeats[:n_ce])
        if kd_rows:
            kd_feats = feats[n_ce:]
            kd_range = spec.kd_item_range
            logits = np.matmul(kd_feats, E[:kd_range].T, out=ws("logits", (len(kd_rows), kd_range), dt))
            kd_val, dlogits = kd_from_logits(logits, spec.kd_teacher_probs,
                                             out=(logits, ws("dlogits", logits.shape, dt)))
            dlogits *= spec.kd_weight
            grads["item_emb"][:kd_range] += np.matmul(dlogits.T, kd_feats, out=ws("demb", (kd_range, D), dt))
            np.matmul(dlogits, E[:kd_range], out=dfeats[n_ce:])
        _encode_backward(state, cache, dfeats, grads)

    if spec.ewc_anchor is not None and spec.ewc_weight != 0.0:
        theta, anchor, fw = state.flat_params, spec.ewc_anchor, spec.ewc_fisher
        if fw is None or anchor.shape != theta.shape or fw.shape != theta.shape:
            raise ValueError("loss_and_gradients: EWC needs an anchor and Fisher weights laid out like flat_params")
        diff = np.subtract(theta, anchor, out=ws("ewc.diff", theta.shape, np.result_type(theta, anchor)))
        term = np.multiply(fw, diff, out=ws("ewc.term", theta.shape, np.result_type(fw, diff)))
        term *= diff
        for segment in state._views(term).values():  # summed per parameter: the logged loss keeps its float order
            ewc_val += 0.5 * float(segment.sum())
        np.multiply(fw, spec.ewc_weight, out=term)  # ewc_weight * fw * diff
        term *= diff
        grads.flat += term

    total = ce_val + spec.kd_weight * kd_val + spec.ewc_weight * ewc_val
    if not math.isfinite(total):
        raise DivergenceError(f"non-finite loss: ce={ce_val} kd={kd_val} ewc={ewc_val}")
    return LossBreakdown(ce=ce_val, kd=kd_val, ewc=ewc_val, total=total), grads


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
