"""The packed token-major encoder against a batch-major float64 reference.

The reference below runs every dense product as a stacked matmul over
left-padded (B, L, D) hidden states with separate Q, K and V projections:
the layout the encoder used before it went token-major. Encoding every
row alone, it must reproduce the production encoder, which encodes each
shared prefix once and packs several sessions into one row, to 1e-10 in
float64 in features and gradients, whatever the packing, head count,
dropout or KD mix.
"""

import itertools
import math

import numpy as np
import pytest

import cyclerec.model as model_mod
from step_rows import batch_spec
from cyclerec.data import TrainingExample
from cyclerec.losses import ce_from_logits, kd_from_logits
from cyclerec.model import (
    ModelConfig,
    PrefixTable,
    _encode_rows,
    extract_features_batch,
    init_model,
    loss_and_gradients,
)

TOL = 1e-10


def _pad_batch(trimmed):
    """Left-pad already-trimmed prefixes into ids, validity and position arrays."""
    lengths = np.array([len(t) for t in trimmed])
    L = int(lengths.max())
    pad = L - lengths
    valid = np.arange(L) >= pad[:, None]
    ids = np.zeros(valid.shape, dtype=np.int64)
    ids[valid] = list(itertools.chain.from_iterable(trimmed))
    pos = np.maximum(np.arange(L) - pad[:, None], 0)
    return ids, valid, pos


def _split_heads(x, heads):
    B, L, D = x.shape
    return x.reshape(B, L, heads, D // heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, H, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, H * dh)


def _ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1) + model_mod.LN_EPS)
    xhat = xc * inv[..., None]
    return xhat * g + b, (xhat, inv)


def _ln_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv[..., None] * (dxhat - m1 - xhat * m2), dg, db


def _col_sum(x):
    return x.reshape(-1, x.shape[-1]).sum(axis=0)


def reference_encode_batch(state, ids, valid, pos, masks=None, need_cache=False, last_only=True):
    cfg = state.config
    P = state.params
    B, L = ids.shape
    H = cfg.attention_heads
    scale = 1.0 / math.sqrt(cfg.embed_dim // H)

    x = (P["item_emb"][ids] + P["pos_emb"][pos]) * valid[:, :, None]
    causal = np.tril(np.ones((L, L), dtype=bool))

    blocks = []
    for b in range(cfg.block_count):
        p = f"blocks.{b}."
        lq = 1 if last_only and b == cfg.block_count - 1 else L
        xq = x[:, -lq:, :]
        allowed = (causal[-lq:][None, :, :] & valid[:, None, :])[:, None, :, :]
        q = xq @ P[p + "attn.wq"] + P[p + "attn.bq"]
        k = x @ P[p + "attn.wk"]
        v = x @ P[p + "attn.wv"] + P[p + "attn.bv"]
        qh, kh, vh = (_split_heads(a, H) for a in (q, k, v))
        scores = np.where(allowed, qh @ kh.transpose(0, 1, 3, 2), model_mod.MASK_FILL) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ vh)
        o = (ctx @ P[p + "attn.wo"] + P[p + "attn.bo"]) * valid[:, -lq:, None]
        mask1, mask2 = masks[b] if masks is not None else (None, None)
        r1 = xq + o * mask1 if mask1 is not None else xq + o
        x1, ln1c = _ln_forward(r1, P[p + "ln1.g"], P[p + "ln1.b"])
        hpre = x1 @ P[p + "ff.w1"] + P[p + "ff.b1"]
        h = np.maximum(hpre, 0.0)
        f = h @ P[p + "ff.w2"] + P[p + "ff.b2"]
        x2, ln2c = _ln_forward(x1 + f * mask2 if mask2 is not None else x1 + f, P[p + "ln2.g"], P[p + "ln2.b"])
        blocks.append({"x": x, "xq": xq, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx,
                       "mask1": mask1, "ln1c": ln1c, "x1": x1, "hpre": hpre, "h": h,
                       "mask2": mask2, "ln2c": ln2c})
        x = x2
    cache = {"ids": ids, "valid": valid, "pos": pos, "scale": scale, "blocks": blocks}
    return x, cache if need_cache else None


def reference_encode_backward(state, cache, dlast, grads):
    cfg = state.config
    P = state.params
    valid = cache["valid"]
    scale = cache["scale"]
    H = cfg.attention_heads

    def outer(a, b):
        return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])

    dx = dlast[:, None, :]
    for b in range(cfg.block_count - 1, -1, -1):
        c = cache["blocks"][b]
        p = f"blocks.{b}."
        lq = c["xq"].shape[1]
        dr2, dg2, db2 = _ln_backward(dx, P[p + "ln2.g"], c["ln2c"])
        grads[p + "ln2.g"] += dg2
        grads[p + "ln2.b"] += db2
        df = dr2 * c["mask2"] if c["mask2"] is not None else dr2
        grads[p + "ff.w2"] += outer(c["h"], df)
        grads[p + "ff.b2"] += _col_sum(df)
        dhpre = (df @ P[p + "ff.w2"].T) * (c["hpre"] > 0.0)
        grads[p + "ff.w1"] += outer(c["x1"], dhpre)
        grads[p + "ff.b1"] += _col_sum(dhpre)
        dx1 = dr2 + dhpre @ P[p + "ff.w1"].T

        dr1, dg1, db1 = _ln_backward(dx1, P[p + "ln1.g"], c["ln1c"])
        grads[p + "ln1.g"] += dg1
        grads[p + "ln1.b"] += db1
        do = (dr1 * c["mask1"] if c["mask1"] is not None else dr1) * valid[:, -lq:, None]
        grads[p + "attn.wo"] += outer(c["ctx"], do)
        grads[p + "attn.bo"] += _col_sum(do)
        dctx = _split_heads(do @ P[p + "attn.wo"].T, H)
        dattn = dctx @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn"].transpose(0, 1, 3, 2) @ dctx
        inner = (dattn * c["attn"]).sum(axis=-1, keepdims=True)
        de = c["attn"] * (dattn - inner) * scale
        dq, dk, dv = (_merge_heads(a) for a in (de @ c["kh"], de.transpose(0, 1, 3, 2) @ c["qh"], dvh))
        for name, inp, dmat in (("q", c["xq"], dq), ("k", c["x"], dk), ("v", c["x"], dv)):
            grads[p + "attn.w" + name] += outer(inp, dmat)
        grads[p + "attn.bq"] += _col_sum(dq)
        grads[p + "attn.bv"] += _col_sum(dv)
        dx = dk @ P[p + "attn.wk"].T + dv @ P[p + "attn.wv"].T
        dx[:, -lq:] += dr1 + dq @ P[p + "attn.wq"].T

    np.add.at(grads["item_emb"], cache["ids"][valid], dx[valid])
    np.add.at(grads["pos_emb"], cache["pos"][valid], dx[valid])


def _random_model(heads, blocks, item_count=15, seed=4):
    cfg = ModelConfig(embed_dim=12, block_count=blocks, attention_heads=heads, max_seq_len=10, dtype="float64")
    state = init_model(cfg, item_count, seed=seed)
    # non-trivial biases and layer-norm gains, so every term reaches the output
    rng = np.random.default_rng(seed + 100)
    for name, p in state.params.items():
        if p.ndim == 1:
            p += rng.normal(scale=0.2, size=p.shape)
    return state


def _shared_prefix_spec(state, rng, dropout):
    """A step whose rows share roots: every prefix of a few sessions, one longer
    than ``max_seq_len``, duplicate rows, KD rows sharing roots with CE rows, and
    enough unrelated short rows that several segments share a packed row."""
    sessions = [tuple(int(v) for v in rng.integers(0, 11, size=n)) for n in (6, 9, 14, 4)]
    rows = [TrainingExample(s[:k], s[k]) for s in sessions for k in range(1, len(s))]
    rows += [rows[int(i)] for i in rng.integers(0, len(rows), size=6)]
    rows += [TrainingExample(tuple(int(v) for v in rng.integers(11, 30, size=2)), int(rng.integers(0, 11)))
             for _ in range(100)]
    rows = [rows[int(i)] for i in rng.permutation(len(rows))]
    ce, kd = rows[: len(rows) * 2 // 3], rows[len(rows) * 2 // 3 :]
    return batch_spec(
        state,
        ce=ce,
        kd=kd,
        kd_teacher_probs=rng.dirichlet(np.ones(11), size=len(kd)),
        kd_weight=0.7,
        dropout_rate=dropout,
        dropout_seed=9,
    )


def _packed_masks(monkeypatch, state, spec, prefixes):
    """The dropout masks the encoder drew, as (blocks, 2, rows, width, D), and the row cache."""
    seen = []
    encode_batch = model_mod._encode_batch

    def spy(state, ids, seg, pos, masks=None, need_cache=False):
        seen.append((None if masks is None else masks.copy(), ids.shape))  # the model's next pass reuses them
        return encode_batch(state, ids, seg, pos, masks, need_cache)

    monkeypatch.setattr(model_mod, "_encode_batch", spy)
    table = PrefixTable(prefixes, state.config.max_seq_len)
    _, cache = _encode_rows(state, table, np.arange(len(prefixes)), spec.dropout_rate, spec.dropout_seed,
                            need_cache=True)
    monkeypatch.undo()
    (masks, shape), = seen  # one encoder call per step
    if masks is not None:
        masks = masks.reshape(masks.shape[:2] + shape + masks.shape[-1:])
    return masks, cache


def _row_masks(monkeypatch, state, spec, prefixes):
    """Each row's dropout masks as the encoder drew them, cut to the row alone.

    Inner blocks: the root segment's masks at the row's tokens; final block:
    the masks at the row's last token, which the row reads.
    """
    masks, cache = _packed_masks(monkeypatch, state, spec, prefixes)
    if masks is None:
        return [None] * len(prefixes), cache
    width = cache["ids"].shape[1]
    row_masks = []
    for prefix, last in zip(prefixes, cache["last"]):
        r, col = divmod(int(last), width)
        first = col - min(len(prefix), state.config.max_seq_len) + 1
        inner = [(m[0, r, first : col + 1][None], m[1, r, first : col + 1][None]) for m in masks[:-1]]
        row_masks.append(inner + [(masks[-1, 0, r, col][None, None], masks[-1, 1, r, col][None, None])])
    return row_masks, cache


def reference_loss_and_gradients(state, spec, row_masks):
    """CE + KD loss and gradients with every row encoded alone by the reference."""
    max_len = state.config.max_seq_len
    E = state.params["item_emb"]
    rows = list(spec.ce_examples) + list(spec.kd_examples)
    encoded = [
        reference_encode_batch(state, *_pad_batch([tuple(ex.prefix)[-max_len:]]), masks, need_cache=True)
        for ex, masks in zip(rows, row_masks)
    ]
    feats = np.concatenate([x[:, -1] for x, _ in encoded])
    n_ce, kd_range = len(spec.ce_examples), spec.kd_teacher_probs.shape[1]
    ce, dce = ce_from_logits(feats[:n_ce] @ E.T, np.array([ex.target for ex in spec.ce_examples]))
    kd, dkd = kd_from_logits(feats[n_ce:] @ E[:kd_range].T, spec.kd_teacher_probs)
    dkd *= spec.kd_weight
    grads = state._views(np.zeros_like(state.flat_params))
    grads["item_emb"] += dce.T @ feats[:n_ce]
    grads["item_emb"][:kd_range] += dkd.T @ feats[n_ce:]
    dfeats = np.concatenate([dce @ E, dkd @ E[:kd_range]])
    for (_, cache), d in zip(encoded, dfeats):
        reference_encode_backward(state, cache, d[None], grads)
    return feats, ce + spec.kd_weight * kd, grads


@pytest.mark.parametrize("heads,blocks,dropout", [(1, 2, 0.0), (2, 2, 0.3), (2, 3, 0.3), (1, 1, 0.3)])
def test_token_major_encoder_matches_reference(monkeypatch, heads, blocks, dropout):
    # the packed shared-root encoder against every row encoded alone by the
    # batch-major reference; with dropout, the reference gets the masks each
    # row was given
    rng = np.random.default_rng(heads * 10 + blocks)
    state = _random_model(heads, blocks, item_count=30)
    spec = _shared_prefix_spec(state, rng, dropout)
    prefixes = [ex.prefix for ex in list(spec.ce_examples) + list(spec.kd_examples)]
    row_masks, cache = _row_masks(monkeypatch, state, spec, prefixes)
    seg = cache["seg"]
    assert max(len(set(row[row >= 0].tolist())) for row in seg) > 1  # a row packs several segments
    trimmed = {tuple(p)[-state.config.max_seq_len :] for p in prefixes}
    assert seg.max() + 1 < len(trimmed)  # some root serves several distinct rows
    table = PrefixTable(prefixes, state.config.max_seq_len)
    feats = _encode_rows(state, table, np.arange(len(prefixes)), spec.dropout_rate, spec.dropout_seed)[0].copy()
    loss, grads = loss_and_gradients(state, spec)
    grads = {name: g.copy() for name, g in grads.items()}  # the reference's passes reuse their buffer
    ref_feats, ref_loss, ref_grads = reference_loss_and_gradients(state, spec, row_masks)
    np.testing.assert_allclose(feats, ref_feats, rtol=0, atol=TOL)
    assert loss.total == pytest.approx(ref_loss, abs=TOL)
    assert set(grads) == set(ref_grads)
    for name in grads:
        assert np.abs(ref_grads[name]).max() > 0.0, name
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL, err_msg=name)


def test_rows_sharing_a_root_share_inner_dropout_masks(monkeypatch):
    # a prefix reads its root's pass, so in every block, the final one
    # included, its masks are the root's masks on their common tokens
    state = _random_model(1, 2)
    spec = batch_spec(state, ce=[TrainingExample((3, 1, 4), 1), TrainingExample((3, 1, 4, 1, 5), 9)],
                      dropout_rate=0.3, dropout_seed=2)
    masks, cache = _packed_masks(monkeypatch, state, spec, [ex.prefix for ex in spec.ce_examples])
    assert cache["seg"].tolist() == [[0, 0, 0, 0, 0]]  # one segment: the longer row
    assert cache["last"].tolist() == [2, 4]
    (short, long), _ = _row_masks(monkeypatch, state, spec, [ex.prefix for ex in spec.ce_examples])
    np.testing.assert_array_equal(short[0][0], long[0][0][:, :3])
    np.testing.assert_array_equal(short[0][1], long[0][1][:, :3])
    np.testing.assert_array_equal(short[1][0][0, 0], masks[1, 0, 0, 2])
    np.testing.assert_array_equal(short[1][1][0, 0], masks[1, 1, 0, 2])
    assert not np.array_equal(short[1][0], long[1][0])  # the rows read different tokens


def test_shared_prefix_gradients_match_finite_differences():
    # central differences in float64 with dropout on and a fixed dropout
    # seed, over a packed step whose rows share roots; the masks depend on
    # the seed and the rows only
    rng = np.random.default_rng(5)
    state = _random_model(2, 2, item_count=30)
    spec = _shared_prefix_spec(state, rng, 0.3)
    _, grads = loss_and_gradients(state, spec)
    grads = {name: g.copy() for name, g in grads.items()}  # the model's next pass reuses their buffer
    h = 1e-5  # central differences: O(h^2) truncation, O(1e-16 * loss / h) rounding
    worst = 0.0
    for name in sorted(state.params):
        param = state.params[name]
        for _ in range(3):
            idx = tuple(int(rng.integers(0, s)) for s in param.shape)
            orig = param[idx]
            param[idx] = orig + h
            up, _ = loss_and_gradients(state, spec)
            param[idx] = orig - h
            down, _ = loss_and_gradients(state, spec)
            param[idx] = orig
            fd = (up.total - down.total) / (2 * h)
            worst = max(worst, abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-6))
    assert worst < 1e-5, f"finite-difference mismatch: {worst:.3e}"


@pytest.mark.parametrize("heads", [1, 2])
def test_all_position_features_match_reference(heads):
    # every prefix of a sequence shares its pass, so one call queries every position
    state = _random_model(heads, 2)
    for seq in ([3], [1, 4, 1, 5, 9, 2, 6], list(range(12))):
        window = tuple(seq)[-state.config.max_seq_len :]
        expected, _ = reference_encode_batch(state, *_pad_batch([window]), last_only=False)
        got = extract_features_batch(state, [window[:j] for j in range(1, len(window) + 1)])
        np.testing.assert_allclose(got, expected[0], rtol=0, atol=TOL)


def test_padded_batch_all_positions_match_reference():
    # three sessions packed by hand into two rows, one with trailing padding:
    # every real token agrees with its session encoded alone, positions
    # restarting in each segment, and padding stays finite
    state = _random_model(2, 2)
    sessions = [(1, 2, 3, 4, 5), (6,), (7, 8)]
    ids = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 0, 0]])
    seg = np.array([[0, 0, 0, 0, 0], [1, 2, 2, -1, -1]])
    pos = np.array([[0, 1, 2, 3, 4], [0, 0, 1, 0, 0]])
    got, _ = model_mod._encode_batch(state, ids, seg, pos)
    assert got.shape == (10, state.config.embed_dim) and np.isfinite(got).all()
    tokens = got.reshape(2, 5, -1)
    for k, session in enumerate(sessions):
        expected, _ = reference_encode_batch(state, *_pad_batch([session]), last_only=False)
        np.testing.assert_allclose(tokens[seg == k], expected[0], rtol=0, atol=TOL)
