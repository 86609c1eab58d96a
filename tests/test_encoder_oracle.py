"""The token-major encoder against a batch-major float64 reference.

The reference below runs every dense product as a stacked matmul over
(B, L, D) hidden states with separate Q, K and V projections: the layout
the encoder used before it went token-major. Patched into the model, it
must reproduce the production encoder's features and gradients to 1e-10
in float64, whatever the chunking, head count, dropout or KD mix.
"""

import math

import numpy as np
import pytest

import cyclerec.model as model_mod
from cyclerec.data import TrainingExample
from cyclerec.model import (
    BatchSpec,
    ModelConfig,
    _chunk_plan,
    _encode_rows,
    _pad_batch,
    features_all_positions,
    init_model,
    loss_and_gradients,
)

TOL = 1e-10


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


def _random_model(heads, blocks, dropout, item_count=15, seed=4):
    cfg = ModelConfig(embed_dim=12, block_count=blocks, attention_heads=heads, max_seq_len=10,
                      dropout_rate=dropout, dtype="float64")
    state = init_model(cfg, item_count, seed=seed)
    # non-trivial biases and layer-norm gains, so every term reaches the output
    rng = np.random.default_rng(seed + 100)
    for name, p in state.params.items():
        if p.ndim == 1:
            p += rng.normal(scale=0.2, size=p.shape)
    return state


def _examples(rng, count, max_len, item_count):
    return [TrainingExample(tuple(int(v) for v in rng.integers(0, item_count, size=rng.integers(1, max_len + 1))),
                            int(rng.integers(0, item_count)))
            for _ in range(count)]


@pytest.mark.parametrize("heads,blocks,dropout", [(1, 2, 0.0), (2, 2, 0.3), (2, 3, 0.3), (1, 1, 0.3)])
def test_token_major_encoder_matches_reference(monkeypatch, heads, blocks, dropout):
    rng = np.random.default_rng(heads * 10 + blocks)
    state = _random_model(heads, blocks, dropout)
    # many short rows and a few long ones, so the batch runs in several chunks
    ce = _examples(rng, 60, 2, 15) + _examples(rng, 6, 14, 15)
    kd = _examples(rng, 20, 6, 11)
    assert len(_chunk_plan(np.array([min(len(ex.prefix), 10) for ex in ce + kd]))) > 1
    spec = BatchSpec(
        ce_examples=ce,
        kd_examples=kd,
        kd_teacher_probs=rng.dirichlet(np.ones(11), size=len(kd)),
        kd_item_range=11,
        kd_weight=0.7,
        train_mode=dropout > 0.0,
        dropout_seed=9,
    )
    prefixes = [ex.prefix for ex in ce + kd]
    feats, _ = _encode_rows(state, prefixes, spec.train_mode, spec.dropout_seed)
    loss, grads = loss_and_gradients(state, spec)
    monkeypatch.setattr(model_mod, "_encode_batch", reference_encode_batch)
    monkeypatch.setattr(model_mod, "_encode_backward", reference_encode_backward)
    ref_feats, _ = _encode_rows(state, prefixes, spec.train_mode, spec.dropout_seed)
    ref_loss, ref_grads = loss_and_gradients(state, spec)
    np.testing.assert_allclose(feats, ref_feats, rtol=0, atol=TOL)
    assert loss.total == pytest.approx(ref_loss.total, abs=TOL)
    assert set(grads) == set(ref_grads)
    for name in grads:
        assert np.abs(ref_grads[name]).max() > 0.0, name
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=TOL, err_msg=name)


@pytest.mark.parametrize("heads", [1, 2])
def test_all_position_features_match_reference(heads):
    state = _random_model(heads, 2, 0.0)
    for prefix in ([3], [1, 4, 1, 5, 9, 2, 6], list(range(12))):
        ids, valid, pos = _pad_batch([tuple(prefix)[-state.config.max_seq_len :]])
        expected, _ = reference_encode_batch(state, ids, valid, pos, last_only=False)
        np.testing.assert_allclose(features_all_positions(state, prefix), expected[0], rtol=0, atol=TOL)


def test_padded_batch_all_positions_match_reference():
    # left padding inside one chunk: real positions agree, padded ones are never read
    state = _random_model(2, 2, 0.0)
    ids, valid, pos = _pad_batch([(1, 2, 3, 4, 5), (6,), (7, 8)])
    got, _ = model_mod._encode_batch(state, ids, valid, pos, last_only=False)
    expected, _ = reference_encode_batch(state, ids, valid, pos, last_only=False)
    np.testing.assert_allclose(got[valid], expected[valid], rtol=0, atol=TOL)
