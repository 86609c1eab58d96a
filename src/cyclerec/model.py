"""Self-attentive next-item model: forward pass, exact backward pass, Adam.

Training runs in the configured dtype (float32 by default); oracle checks
use float64. Batched forwards sort prefixes by length into chunks and
left-pad each chunk; the causal mask combined with a key-validity mask
guarantees a padded slot can never influence a real position, so
per-example features are independent of batch composition.

Rows that share a session prefix share one pass. Each row's trimmed
prefix maps to a root: a row of the same call that it is a prefix of and
that is a prefix of no other row (in lexicographic order, a row is a
prefix of some row if and only if it is a prefix of the next one). Only
roots are encoded. Under the causal mask a row's features are its root's
at the row's last item, so the last block runs its queries at each row's
(root, column) only: they sit in a (roots, m) slot table, m being the most
rows any root of the chunk serves, and K and V still span every position
of each root. With dropout on, inner-block masks are drawn per root
token, so rows sharing a root share them, as one SASRec pass over the
session would; last-block masks are drawn per row.

The encoder runs token-major: a chunk's hidden states are one contiguous
(B*L, D) matrix, so every projection, residual, dropout multiply, layer
norm and feed-forward layer is one 2-D GEMM or elementwise op, forward and
backward. Q, K and V are one fused (D, 3D) projection (K and V a (D, 2D)
one in the last block), and only the attention core (scores, mask,
softmax, context) uses (B, H, L, L) or slot-table (B, H, m, L) views.
Keys carry no bias: the softmax would cancel it. Gradients are
hand-derived reverse-mode and checked against central finite differences
and a per-row batch-major reference in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import TrainingExample
from .losses import LossBreakdown, ce_from_logits, kd_from_logits

LN_EPS = 1e-8
MASK_FILL = -1e9
NEW_ROW_SCALE = 0.01


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


@dataclass
class ModelState:
    """All learnable parameters plus Adam moments and the step counter."""

    config: ModelConfig
    item_count: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> "ModelState":
        return ModelState(
            config=self.config,
            item_count=self.item_count,
            params={k: v.copy() for k, v in self.params.items()},
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
            step=self.step,
        )


def _param_shapes(cfg: ModelConfig, item_count: int) -> dict[str, tuple[int, ...]]:
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
    params = {name: _init_tensor(name, shape, cfg.embed_dim, rng, dt) for name, shape in shapes.items()}
    zeros = lambda: {name: np.zeros(shape, dtype=dt) for name, shape in shapes.items()}
    return ModelState(cfg, item_count, params, zeros(), zeros(), step=0)


def grow_vocabulary(state: ModelState, new_item_count: int, seed: int = 0) -> ModelState:
    """Append embedding rows for new items; existing rows stay bit-identical.

    New rows use the embedding init distribution scaled down so old-item
    softmax mass is roughly preserved at the growth boundary.
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
    zeros = np.zeros((extra, d), dtype=dt)
    state.params["item_emb"] = np.concatenate([state.params["item_emb"], rows])
    state.adam_m["item_emb"] = np.concatenate([state.adam_m["item_emb"], zeros])
    state.adam_v["item_emb"] = np.concatenate([state.adam_v["item_emb"], zeros.copy()])
    state.item_count = new_item_count
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


def _pad_batch(trimmed: Sequence[Sequence[int]]):
    """Left-pad already-trimmed prefixes into ids, validity and position arrays."""
    lengths = np.fromiter(map(len, trimmed), dtype=np.int64, count=len(trimmed))
    if lengths.min() < 1:
        raise ValueError("empty prefix")
    L = int(lengths.max())
    pad = L - lengths
    valid = np.arange(L) >= pad[:, None]
    ids = np.zeros(valid.shape, dtype=np.int64)
    ids[valid] = np.fromiter(itertools.chain.from_iterable(trimmed), dtype=np.int64, count=int(lengths.sum()))
    pos = np.maximum(np.arange(L) - pad[:, None], 0)
    return ids, valid, pos


# Fixed cost of one chunk in padded-token units: below it, splitting a
# length-sorted batch further costs more in per-call numpy overhead than it
# saves in padding.
CHUNK_OVERHEAD_TOKENS = 512


def _chunk_plan(lengths: np.ndarray) -> list[np.ndarray]:
    """Split rows into length-sorted chunks minimising padded work.

    Chunk cost is rows * longest length + ``CHUNK_OVERHEAD_TOKENS``; an
    exact dynamic program over the boundaries between distinct lengths.
    """
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    ends = np.append(np.flatnonzero(np.diff(sorted_len)) + 1, len(order)).tolist()
    starts = [0] + ends
    longest_of = sorted_len[np.array(ends) - 1].tolist()
    best = [0.0]
    prev = [0]
    # plain Python lists: the loop is short, and numpy calls would cost more than the arithmetic
    for j, (end, longest) in enumerate(zip(ends, longest_of), start=1):
        costs = [best[i] + (end - starts[i]) * longest + CHUNK_OVERHEAD_TOKENS for i in range(j)]
        i = min(range(j), key=costs.__getitem__)  # first minimum, as np.argmin
        best.append(costs[i])
        prev.append(i)
    chunks = []
    j = len(ends)
    while j > 0:
        i = prev[j]
        chunks.append(order[starts[i] : ends[j - 1]])
        j = i
    return chunks[::-1]


# Reductions below go through matmuls with one-vectors: BLAS handles the
# strided last-axis sums far faster than numpy's reduce on these shapes.


def _col_sum(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(-1, x.shape[-1])
    return np.ones(flat.shape[0], dtype=flat.dtype) @ flat


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    d = x.shape[-1]
    mean_vec = np.full(d, 1.0 / d, dtype=x.dtype)
    mu = x @ mean_vec
    xc = x - mu[..., None]
    var = (xc * xc) @ mean_vec
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(xc, inv[..., None], out=xc)
    y = np.multiply(xhat, g)
    np.add(y, b, out=y)
    return y, (xhat, inv)


def _ln_backward(dy: np.ndarray, g: np.ndarray, cache):
    xhat, inv = cache
    d = dy.shape[-1]
    mean_vec = np.full(d, 1.0 / d, dtype=dy.dtype)
    dg = _col_sum(dy * xhat)
    db = _col_sum(dy)
    dx = dy * g
    m2 = (dx * xhat) @ mean_vec
    dx -= (dx @ mean_vec)[..., None]
    dx -= xhat * m2[..., None]
    dx *= inv[..., None]
    return dx, dg, db


def _encode_batch(
    state: ModelState,
    ids: np.ndarray,
    valid: np.ndarray,
    pos: np.ndarray,
    query_cols: np.ndarray,
    masks: Sequence[np.ndarray] | None = None,
    need_cache: bool = False,
):
    """Run the encoder over one padded batch, token-major.

    Hidden states are one (B*L, D) matrix, so every projection, residual,
    dropout multiply, layer norm and feed-forward layer is a single 2-D
    GEMM or elementwise op; only the attention core uses (B, H, m, L)
    views. Q, K and V come from one (D, 3D) GEMM.

    ``query_cols`` is a (B, m) slot table: the columns of row b that the
    caller reads, in ascending order, -1 marking an empty slot. The final
    block computes queries, attention output, feed-forward and layer norms
    at those columns only: K and V still span every position, as one
    (D, 2D) GEMM, the attention core runs on the slot table, and the rest
    runs on an (n, D) matrix of the n filled slots, in slot order.
    ``masks`` holds one scaled dropout-mask pair per block, shaped
    (2, B, L, D) for an inner block and (2, n, D) for the final one, for
    the attention and feed-forward outputs, or is None for no dropout.
    Returns the (n, D) query features and an optional cache.
    """
    cfg = state.config
    P = state.params
    if ids.max() >= state.item_count:
        raise ValueError("prefix item index out of range")
    B, L = ids.shape
    D = cfg.embed_dim
    H = cfg.attention_heads
    scale = 1.0 / math.sqrt(D // H)

    x = P["item_emb"][ids.ravel()]
    x += P["pos_emb"][pos.ravel()]
    x *= valid.reshape(-1, 1)
    fill = cfg.np_dtype.type(MASK_FILL)
    causal = np.tril(np.ones((L, L), dtype=bool))
    last_block = cfg.block_count - 1
    m = query_cols.shape[1]
    flat = query_cols.ravel()
    slots = np.flatnonzero(flat >= 0)
    full = len(slots) == B * m
    tok = slots // m * L + flat[slots]
    # an empty slot queries the last column; its output is never read
    cols = np.where(query_cols >= 0, query_cols, L - 1)
    query_allowed = (np.arange(L) <= cols[:, :, None]) & valid[:, None, :]

    blocks = []
    for b in range(cfg.block_count):
        p = f"blocks.{b}."
        last = b == last_block
        # queries join the fused projection unless only some columns ask
        names = "kv" if last else "qkv"
        w = np.concatenate([P[p + "attn.w" + n] for n in names], axis=1)
        proj = x @ w
        if not last:
            proj[:, :D] += P[p + "attn.bq"]
        proj[:, -D:] += P[p + "attn.bv"]
        heads = proj.reshape(B, L, len(names), H, D // H).transpose(2, 0, 3, 1, 4)
        if last:
            lq = m
            xq = x[tok]
            q = xq @ P[p + "attn.wq"] + P[p + "attn.bq"]
            if not full:
                q_table = np.zeros((B * m, D), dtype=q.dtype)
                q_table[slots] = q
                q = q_table
            qh = q.reshape(B, m, H, D // H).transpose(0, 2, 1, 3)
            kh, vh = heads
            allowed = query_allowed
            keep_q = None  # every query column holds a real token
        else:
            lq = L
            xq = x
            qh, kh, vh = heads
            allowed = causal[None] & valid[:, None, :]
            keep_q = valid.reshape(-1, 1)
        scores = qh @ kh.swapaxes(-1, -2)
        scores *= scale
        np.copyto(scores, fill, where=~allowed[:, None, :, :])
        attn = _softmax_last_inplace(scores)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(B * lq, D)
        if last and not full:
            ctx = ctx[slots]
        mask1, mask2 = masks[b].reshape(2, -1, D) if masks is not None else (None, None)
        r1 = ctx @ P[p + "attn.wo"] + P[p + "attn.bo"]
        if keep_q is not None:
            r1 *= keep_q
        if mask1 is not None:
            r1 *= mask1
        r1 += xq
        x1, ln1c = _ln_forward(r1, P[p + "ln1.g"], P[p + "ln1.b"])
        h = x1 @ P[p + "ff.w1"] + P[p + "ff.b1"]
        np.maximum(h, 0.0, out=h)
        r2 = h @ P[p + "ff.w2"] + P[p + "ff.b2"]
        if mask2 is not None:
            r2 *= mask2
        r2 += x1
        x2, ln2c = _ln_forward(r2, P[p + "ln2.g"], P[p + "ln2.b"])
        if need_cache:
            blocks.append(
                {"x": x, "xq": xq, "w": w, "names": names, "qh": qh, "kh": kh, "vh": vh, "attn": attn,
                 "ctx": ctx, "keep_q": keep_q, "mask1": mask1, "ln1c": ln1c, "x1": x1, "h": h,
                 "mask2": mask2, "ln2c": ln2c}
            )
        x = x2
    cache = None
    if need_cache:
        cache = {"ids": ids, "valid": valid, "pos": pos, "scale": scale, "blocks": blocks,
                 "slots": slots, "m": m, "full": full, "tok": tok}
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


def _encode_rows(
    state: ModelState,
    prefixes: Sequence[Sequence[int]],
    train_mode: bool = False,
    dropout_seed: int = 0,
    need_cache: bool = False,
):
    """Last-position features of each prefix, sharing one pass per root.

    Each trimmed prefix maps to its root (``_prefix_roots``); only the roots
    are encoded, in length-sorted chunks. Under the causal mask a row's
    features are its root's at the row's last item, so the final block
    queries the roots there, through a (roots, m) slot table per chunk with
    m the most rows of any root in it. Dropout masks for every chunk come
    from one draw per call, seeded by ``dropout_seed``: inner-block masks
    per root token, so rows sharing a root share them, and final-block
    masks per row. Returns the (rows, D) features and, with ``need_cache``,
    the ``(row indices in slot order, cache)`` pair of each chunk for
    ``_encode_backward``.
    """
    cfg = state.config
    dt = cfg.np_dtype
    d = cfg.embed_dim
    trimmed = [tuple(p[-cfg.max_seq_len :]) for p in prefixes]
    lengths = np.fromiter(map(len, trimmed), dtype=np.int64, count=len(trimmed))
    roots, group = np.unique(_prefix_roots(trimmed), return_inverse=True)
    root_len = lengths[roots]
    chunks = _chunk_plan(root_len)
    chunk_of = np.empty(len(roots), dtype=np.int64)
    slot_of = np.empty(len(roots), dtype=np.int64)
    for c, members in enumerate(chunks):
        chunk_of[members] = c
        slot_of[members] = np.arange(len(members))
    # rows by chunk, then root slot, then length: each chunk's rows in slot order
    order = np.lexsort((lengths, slot_of[group], chunk_of[group]))
    row_root = group[order]
    first = np.flatnonzero(np.diff(row_root, prepend=-1))
    rank = np.arange(len(order)) - np.repeat(first, np.diff(first, append=len(order)))  # among its root's rows
    row_bounds = np.searchsorted(chunk_of[row_root], np.arange(len(chunks) + 1))
    plans = []
    for c, members in enumerate(chunks):
        lo, hi = row_bounds[c], row_bounds[c + 1]
        L = int(root_len[members].max())
        table = np.full((len(members), int(rank[lo:hi].max()) + 1), -1, dtype=np.int64)
        # roots are left-padded to L, so a row's last item sits at this column
        table[slot_of[row_root[lo:hi]], rank[lo:hi]] = L - root_len[row_root[lo:hi]] + lengths[order[lo:hi]] - 1
        plans.append((members, order[lo:hi], table, L))
    masks: list = [None] * len(chunks)
    if train_mode and cfg.dropout_rate > 0.0:
        # per chunk: per-token mask pairs for the inner blocks, per-row pairs
        # for the final block
        shapes = [
            [(2, len(members), L, d)] * (cfg.block_count - 1) + [(2, len(rows), d)]
            for members, rows, _, L in plans
        ]
        sizes = [math.prod(shape) for chunk in shapes for shape in chunk]
        rng = np.random.default_rng(np.random.SeedSequence([dropout_seed]))
        flat = (rng.random(sum(sizes), dtype=dt) >= cfg.dropout_rate) * dt.type(1.0 / (1.0 - cfg.dropout_rate))
        pieces = iter(np.split(flat, np.cumsum(sizes)[:-1]))
        masks = [[next(pieces).reshape(shape) for shape in chunk] for chunk in shapes]
    feats = np.empty((len(trimmed), d), dtype=dt)
    caches = []
    for c, (members, rows, table, _) in enumerate(plans):
        ids, valid, pos = _pad_batch([trimmed[i] for i in roots[members]])
        feats[rows], cache = _encode_batch(state, ids, valid, pos, table, masks[c], need_cache)
        if need_cache:
            caches.append((rows, cache))
    return feats, caches


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``out[index[i]] += rows[i]`` with repeated indices summed, like ``np.add.at``.

    Rows are sorted by index and each run of equal indices is summed with
    one ``reduceat``, so only the rows that occur are touched.
    """
    order = np.argsort(index, kind="stable")
    keys = index[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    out[keys[starts]] += np.add.reduceat(rows[order], starts, axis=0)


def _encode_backward(state: ModelState, cache: dict, dquery: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Accumulate encoder gradients into ``grads`` given d(loss)/d(query features).

    ``cache`` must come from a forward pass with a slot table, and
    ``dquery`` holds one row per filled slot, in slot order. Gradients flow
    through the same token-major layout as the forward pass: the fused
    projection's weight gradients come from one GEMM and its input
    gradient from another, and in the final block dK and dV come out of
    the slot-table matmuls, summed over each root's queries.
    """
    cfg = state.config
    P = state.params
    B, L = cache["ids"].shape
    D = cfg.embed_dim
    H = cfg.attention_heads
    scale = cache["scale"]
    m, slots, full, tok = cache["m"], cache["slots"], cache["full"], cache["tok"]

    dx = dquery
    for b in range(cfg.block_count - 1, -1, -1):
        c = cache["blocks"][b]
        p = f"blocks.{b}."
        last = b == cfg.block_count - 1
        lq = m if last else L
        dr2, dg2, db2 = _ln_backward(dx, P[p + "ln2.g"], c["ln2c"])
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        df = dr2 * c["mask2"] if c["mask2"] is not None else dr2
        grads[p + "ff.w2"] += c["h"].T @ df
        grads[p + "ff.b2"] += _col_sum(df)
        dhpre = df @ P[p + "ff.w2"].T
        dhpre *= c["h"] > 0.0
        grads[p + "ff.w1"] += c["x1"].T @ dhpre
        grads[p + "ff.b1"] += _col_sum(dhpre)
        dx1 = dhpre @ P[p + "ff.w1"].T
        dx1 += dr2

        dr1, dg1, db1 = _ln_backward(dx1, P[p + "ln1.g"], c["ln1c"])
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        do = dr1 * c["keep_q"] if c["keep_q"] is not None else dr1.copy()
        if c["mask1"] is not None:
            do *= c["mask1"]
        grads[p + "attn.wo"] += c["ctx"].T @ do
        grads[p + "attn.bo"] += _col_sum(do)
        dctx = do @ P[p + "attn.wo"].T
        if last and not full:
            dctx_table = np.zeros((B * m, D), dtype=dctx.dtype)
            dctx_table[slots] = dctx
            dctx = dctx_table
        dctx = dctx.reshape(B, lq, H, D // H).transpose(0, 2, 1, 3)
        attn = c["attn"]
        dscores = dctx @ c["vh"].swapaxes(-1, -2)
        # softmax rows: ds = a * (da - sum(da * a))
        dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
        dscores *= attn
        dscores *= scale
        names = c["names"]
        dproj = np.empty((B, L, len(names), H, D // H), dtype=dx.dtype)
        dheads = dproj.transpose(2, 0, 3, 1, 4)
        np.matmul(attn.swapaxes(-1, -2), dctx, out=dheads[-1])
        np.matmul(dscores.swapaxes(-1, -2), c["qh"], out=dheads[-2])
        if not last:
            np.matmul(dscores, c["kh"], out=dheads[0])
        dproj = dproj.reshape(B * L, len(names) * D)
        dw = c["x"].T @ dproj
        db = _col_sum(dproj)
        for i, n in enumerate(names):
            grads[p + "attn.w" + n] += dw[:, i * D : (i + 1) * D]
        grads[p + "attn.bv"] += db[-D:]
        dx = dproj @ c["w"].T
        if not last:
            grads[p + "attn.bq"] += db[:D]
            dx += dr1
        else:
            dq = (dscores @ c["kh"]).transpose(0, 2, 1, 3).reshape(B * m, D)
            if not full:
                dq = dq[slots]
            grads[p + "attn.wq"] += c["xq"].T @ dq
            grads[p + "attn.bq"] += _col_sum(dq)
            # the query and the residual read the query tokens only; equal rows
            # share a token, and tokens come sorted, so each run sums in one go
            dr1 += dq @ P[p + "attn.wq"].T
            starts = np.flatnonzero(np.diff(tok, prepend=-1))
            dx[tok[starts]] += np.add.reduceat(dr1, starts, axis=0)

    valid = cache["valid"].ravel()
    flat_dx = dx[valid]
    _scatter_rows(grads["item_emb"], cache["ids"].ravel()[valid], flat_dx)
    _scatter_rows(grads["pos_emb"], cache["pos"].ravel()[valid], flat_dx)


def extract_features_batch(
    state: ModelState,
    prefixes: Sequence[Sequence[int]],
    train_mode: bool = False,
    dropout_seed: int = 0,
    batch_size: int = 512,
) -> np.ndarray:
    """Feature vectors (final-block output at the last position) per prefix."""
    out = np.empty((len(prefixes), state.config.embed_dim), dtype=state.config.np_dtype)
    for lo in range(0, len(prefixes), batch_size):
        chunk = prefixes[lo : lo + batch_size]
        out[lo : lo + len(chunk)], _ = _encode_rows(state, chunk, train_mode, dropout_seed)
    return out


# ---------------------------------------------------------------------------
# combined losses with gradients
# ---------------------------------------------------------------------------


@dataclass
class BatchSpec:
    """One optimization step's inputs: examples plus the loss recipe."""

    ce_examples: Sequence[TrainingExample] = ()
    ce_item_range: int | None = None
    kd_examples: Sequence[TrainingExample] = ()
    kd_teacher_probs: np.ndarray | None = None
    kd_item_range: int = 0
    kd_weight: float = 0.0
    ewc_anchor: dict[str, np.ndarray] | None = None
    ewc_fisher: dict[str, np.ndarray] | None = None
    ewc_weight: float = 0.0
    train_mode: bool = False
    dropout_seed: int = 0


def zero_gradients(state: ModelState) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(p) for name, p in state.params.items()}


def loss_and_gradients(state: ModelState, spec: BatchSpec) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Evaluate the mixed loss and its exact parameter gradients.

    total = ce + kd_weight * kd + ewc_weight * ewc, each term present only
    when its inputs are supplied. Raises ``DivergenceError`` on a
    non-finite total.
    """
    grads = zero_gradients(state)
    E = state.params["item_emb"]
    ce_val = kd_val = ewc_val = 0.0

    # CE and KD rows share one encoder pass; KD rows follow the CE rows.
    ce_rows = list(spec.ce_examples)
    kd_rows = list(spec.kd_examples) if spec.kd_weight != 0.0 else []
    if kd_rows and (spec.kd_teacher_probs is None or spec.kd_item_range <= 0):
        raise ValueError("loss_and_gradients: KD requires teacher probs and an old-item range")
    n_ce = len(ce_rows)
    if ce_rows or kd_rows:
        feats, chunks = _encode_rows(
            state, [ex.prefix for ex in ce_rows + kd_rows], spec.train_mode, spec.dropout_seed, need_cache=True
        )
        dfeats = np.zeros_like(feats)
        if ce_rows:
            item_range = spec.ce_item_range if spec.ce_item_range is not None else state.item_count
            targets = np.array([ex.target for ex in ce_rows])
            if targets.max() >= item_range:
                raise ValueError("loss_and_gradients: CE target outside item range")
            ce_feats = feats[:n_ce]
            ce_val, dlogits = ce_from_logits(ce_feats @ E[:item_range].T, targets)
            grads["item_emb"][:item_range] += dlogits.T @ ce_feats
            dfeats[:n_ce] = dlogits @ E[:item_range]
        if kd_rows:
            kd_feats = feats[n_ce:]
            kd_val, dlogits = kd_from_logits(kd_feats @ E[: spec.kd_item_range].T, spec.kd_teacher_probs)
            dlogits *= spec.kd_weight
            grads["item_emb"][: spec.kd_item_range] += dlogits.T @ kd_feats
            dfeats[n_ce:] = dlogits @ E[: spec.kd_item_range]
        for rows, cache in chunks:
            _encode_backward(state, cache, dfeats[rows], grads)

    if spec.ewc_anchor is not None and spec.ewc_weight != 0.0:
        if spec.ewc_fisher is None:
            raise ValueError("loss_and_gradients: EWC requires fisher weights")
        for name, theta in state.params.items():
            fw = spec.ewc_fisher[name]
            if spec.ewc_anchor[name].shape != theta.shape or fw.shape != theta.shape:
                raise ValueError(f"loss_and_gradients: EWC shape mismatch for {name}")
            diff = theta - spec.ewc_anchor[name]
            ewc_val += 0.5 * float((fw * diff * diff).sum())
            grads[name] += spec.ewc_weight * fw * diff

    total = ce_val + spec.kd_weight * kd_val + spec.ewc_weight * ewc_val
    if not math.isfinite(total):
        raise DivergenceError(f"non-finite loss: ce={ce_val} kd={kd_val} ewc={ewc_val}")
    return LossBreakdown(ce=ce_val, kd=kd_val, ewc=ewc_val, total=total), grads


def adam_step(
    state: ModelState,
    grads: dict[str, np.ndarray],
    lr: float = 5e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ModelState:
    """Bias-corrected Adam update, in place. Returns the state for chaining."""
    if set(grads) != set(state.params):
        raise ValueError("adam_step: gradient names do not match parameters")
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, theta in state.params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"adam_step: shape mismatch for {name}")
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state
