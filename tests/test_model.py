import dataclasses
import math

import numpy as np
import pytest

from cyclerec.data import TrainingExample
from cyclerec.losses import _softmax, teacher_probabilities
from cyclerec.model import (
    BatchSpec,
    _encode_rows,
    _pack,
    _prefix_roots,
    _scatter_rows,
    DivergenceError,
    ModelConfig,
    Workspace,
    adam_step,
    extract_features_batch,
    grow_vocabulary,
    init_model,
    loss_and_gradients,
)

SMALL = ModelConfig(embed_dim=8, block_count=1, attention_heads=1, max_seq_len=10, dtype="float64")


def small_model(item_count=12, seed=3, **overrides):
    cfg = ModelConfig(**{**SMALL.__dict__, **overrides})
    return init_model(cfg, item_count, seed=seed)


def gradients(m, spec):
    """A step's gradients, copied out of the model's workspace, which the next pass overwrites."""
    return m._views(loss_and_gradients(m, spec)[1].flat.copy())


def zero_gradients(m):
    """Zero gradients laid out like ``m.flat_params``: those of a step with no loss terms."""
    return gradients(m, BatchSpec())


def features(m, prefix, train_mode=False, dropout_seed=0):
    """Features of one prefix, encoded alone, copied out of the model's workspace."""
    return _encode_rows(m, [tuple(prefix)], train_mode, dropout_seed)[0][0].copy()


def softmax(z):
    """The shared softmax (``losses._softmax``) of one logit vector."""
    return _softmax(np.asarray(z, dtype=np.float64)[None])[2][0]


def constant_features(m, value):
    """Make every feature ``value``: zero the final layer norm's gain, set its bias."""
    last = f"blocks.{m.config.block_count - 1}.ln2."
    m.params[last + "g"][:] = 0.0
    m.params[last + "b"][:] = value


def states_equal(a, b):
    return (
        a.step == b.step
        and a.item_count == b.item_count
        and all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        and all(np.array_equal(a.adam_m[k], b.adam_m[k]) for k in a.adam_m)
        and all(np.array_equal(a.adam_v[k], b.adam_v[k]) for k in a.adam_v)
    )


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic():
    assert states_equal(small_model(seed=5), small_model(seed=5))


def test_init_shapes():
    m = small_model(item_count=5)
    assert m.params["item_emb"].shape == (5, 8)
    assert m.params["pos_emb"].shape == (10, 8)
    assert m.params["blocks.0.attn.wq"].shape == (8, 8)
    assert "blocks.0.attn.bk" not in m.params  # the softmax cancels a key bias
    assert set(m.adam_m) == set(m.params)


def test_init_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=6, attention_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        ModelConfig(dtype="float16")
    with pytest.raises(ValueError):
        init_model(SMALL, item_count=0, seed=0)


def test_zero_dropout_train_matches_eval():
    m = small_model()
    f_train = features(m, [1, 2, 3], train_mode=True, dropout_seed=4)
    f_eval = features(m, [1, 2, 3], train_mode=False)
    np.testing.assert_array_equal(f_train, f_eval)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_pair():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0]))
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(p).all()


def test_softmax_log_ratios():
    p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)


def test_softmax_shift_invariance_and_normalization():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=rng.integers(2, 30))
        p = softmax(z)
        q = softmax(z + 13.7)
        assert abs(p.sum() - 1.0) < 1e-6
        np.testing.assert_allclose(p, q, atol=1e-12)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_feature_of_length_one_prefix_uses_item_and_position_zero():
    m = small_model()
    f1 = features(m, [4])
    rng = np.random.default_rng(1)
    m.params["pos_emb"][1:] = rng.normal(size=m.params["pos_emb"][1:].shape)
    others = np.arange(m.item_count) != 4
    m.params["item_emb"][others] = rng.normal(size=(int(others.sum()), 8))
    np.testing.assert_array_equal(features(m, [4]), f1)


def test_causality_prefix_features_match_within_longer_sequence():
    # all prefixes of one sequence share its pass: each reads the root's
    # features at its own last position, which must not see later items
    m = small_model(item_count=12, seed=8)
    seq = [3, 1, 4, 1, 5, 9, 2, 6]
    prefixes = [tuple(seq[:j]) for j in range(1, len(seq) + 1)]
    assert len(set(_prefix_roots(prefixes).tolist())) == 1
    shared = extract_features_batch(m, prefixes)
    for j, prefix in enumerate(prefixes):
        np.testing.assert_allclose(shared[j], features(m, prefix), atol=1e-10)


def test_feature_independent_of_batch_padding():
    m = small_model(seed=2)
    single = features(m, [5, 6])
    batch = extract_features_batch(m, [(5, 6), (1, 2, 3, 4, 5, 6, 7), (9,)])
    np.testing.assert_allclose(single, batch[0], atol=1e-12)


def test_dropout_deterministic_per_seed():
    m = small_model(dropout_rate=0.4)
    a = features(m, [1, 2, 3], train_mode=True, dropout_seed=11)
    b = features(m, [1, 2, 3], train_mode=True, dropout_seed=11)
    c = features(m, [1, 2, 3], train_mode=True, dropout_seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_prefix_index_out_of_range_errors():
    m = small_model(item_count=5)
    with pytest.raises(ValueError, match="out of range"):
        features(m, [7])


def test_prefix_longer_than_max_seq_len_keeps_most_recent():
    m = small_model(max_seq_len=4)
    long_feat = features(m, [1, 2, 3, 4, 5, 6])
    trimmed = features(m, [3, 4, 5, 6])
    np.testing.assert_allclose(long_feat, trimmed, atol=1e-12)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


# the decoder is the shared item embedding: logit_i = feature . item_emb_i


def test_logits_argmax_for_orthogonal_embeddings():
    m = small_model(item_count=8)
    m.params["item_emb"][...] = np.eye(8)
    constant_features(m, np.eye(8)[3])
    probs = teacher_probabilities(m, [TrainingExample((1, 2), 0)], 8)
    assert int(np.argmax(probs[0])) == 3


def test_logits_item_range_restriction():
    m = small_model(item_count=9)
    ex = [TrainingExample((1,), 0)]
    assert teacher_probabilities(m, ex, 6).shape == (1, 6)
    with pytest.raises(ValueError):
        teacher_probabilities(m, ex, 10)


def test_zero_feature_gives_uniform_softmax():
    m = small_model(item_count=7)
    constant_features(m, 0.0)
    np.testing.assert_array_equal(features(m, [1, 5]), 0.0)
    probs = teacher_probabilities(m, [TrainingExample((1, 5), 0)], 7)
    np.testing.assert_allclose(probs[0], np.full(7, 1 / 7))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _fd_check(model, spec, rng, samples=25, h=1e-5, tol=1e-4):
    grads = gradients(model, spec)
    worst = 0.0
    names = sorted(model.params)
    for _ in range(samples):
        name = names[rng.integers(0, len(names))]
        idx = tuple(int(rng.integers(0, s)) for s in model.params[name].shape)
        orig = model.params[name][idx]
        model.params[name][idx] = orig + h
        up, _ = loss_and_gradients(model, spec)
        model.params[name][idx] = orig - h
        down, _ = loss_and_gradients(model, spec)
        model.params[name][idx] = orig
        fd = (up.total - down.total) / (2 * h)
        an = grads[name][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst <= tol, f"finite-difference mismatch: {worst:.3e}"


def test_gradients_match_finite_differences_eval_mode():
    rng = np.random.default_rng(0)
    m = small_model(seed=1)
    spec = BatchSpec(
        ce_examples=[TrainingExample((0, 3, 5), 7), TrainingExample((1,), 2)],
    )
    _fd_check(m, spec, rng)


def test_gradients_match_finite_differences_with_dropout_and_kd():
    rng = np.random.default_rng(1)
    m = small_model(seed=2, block_count=2, attention_heads=2, dropout_rate=0.3)
    teacher = rng.dirichlet(np.ones(9), size=2)
    spec = BatchSpec(
        ce_examples=[TrainingExample((0, 3, 5), 7), TrainingExample((2, 4, 6, 8), 11)],
        kd_examples=[TrainingExample((3, 1), 4), TrainingExample((5,), 0)],
        kd_teacher_probs=teacher,
        kd_item_range=9,
        kd_weight=0.5,
        train_mode=True,
        dropout_seed=42,
    )
    _fd_check(m, spec, rng)


def test_gradients_match_finite_differences_with_ewc():
    rng = np.random.default_rng(2)
    m = small_model(seed=4)
    anchor = m.flat_params + 0.01
    fisher = np.abs(rng.normal(size=m.flat_params.shape))
    spec = BatchSpec(
        ce_examples=[TrainingExample((0, 1), 3)],
        ewc_anchor=anchor,
        ewc_fisher=fisher,
        ewc_weight=2.5,
    )
    _fd_check(m, spec, rng)


def test_empty_recipe_gives_zero_gradients():
    m = small_model()
    breakdown, grads = loss_and_gradients(m, BatchSpec())
    assert breakdown.total == 0.0
    assert all(np.all(g == 0) for g in grads.values())


def test_duplicated_example_doubles_contribution():
    m = small_model()
    a = TrainingExample((0, 1), 3)
    b = TrainingExample((2,), 5)
    g_ab = gradients(m, BatchSpec(ce_examples=[a, b]))
    g_abb = gradients(m, BatchSpec(ce_examples=[a, b, b]))
    g_a = gradients(m, BatchSpec(ce_examples=[a]))
    g_b = gradients(m, BatchSpec(ce_examples=[b]))
    for name in g_ab:
        np.testing.assert_allclose(g_abb[name], (2 * g_a[name] + 4 * g_b[name]) / 6, atol=1e-12)


def test_packed_batch_matches_per_example_gradients():
    # many short rows plus a few long ones: the short roots share packed rows
    # with each other and with the long ones' slack, and the step's gradients
    # must equal the mean of per-example gradients
    rng = np.random.default_rng(7)
    m = small_model(item_count=12, seed=5, block_count=2)
    examples = [TrainingExample((int(rng.integers(0, 12)),), int(rng.integers(0, 12))) for _ in range(200)]
    examples += [TrainingExample(tuple(int(v) for v in rng.integers(0, 12, size=9)), int(rng.integers(0, 12)))
                 for _ in range(4)]
    _, cache = _encode_rows(m, [ex.prefix for ex in examples], need_cache=True)
    assert max(len(set(row[row >= 0].tolist())) for row in cache["seg"]) > 1
    g_batch = gradients(m, BatchSpec(ce_examples=examples))
    singles = [gradients(m, BatchSpec(ce_examples=[ex])) for ex in examples]
    for name in g_batch:
        expected = sum(g[name] for g in singles) / len(examples)
        np.testing.assert_allclose(g_batch[name], expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pack_segments_fit_their_rows_without_overlap(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 30, size=int(rng.integers(1, 80)))
    start, rows = _pack(lengths)
    width = int(lengths.max())
    used = np.zeros(rows * width, dtype=int)
    for first, n in zip(start.tolist(), lengths.tolist()):
        assert first // width == (first + n - 1) // width  # inside one row
        used[first : first + n] += 1
    assert used.max() == 1 and used.sum() == lengths.sum()  # no overlap, nothing lost
    assert used.reshape(rows, width).any(axis=1).all()  # no empty row


def test_long_session_packs_one_segment_per_nesting_run():
    # max_seq_len 3: the prefixes of an 8-item session trim to (1,), (1, 2),
    # (1, 2, 3) -- one root -- and then to four shifted windows that nest in
    # nothing, so the call packs five segments of three tokens
    session = tuple(range(1, 9))
    prefixes = [session[:k] for k in range(1, 8)]
    m = small_model(max_seq_len=3, block_count=2)
    feats, cache = _encode_rows(m, prefixes, need_cache=True)
    feats = feats.copy()
    assert cache["ids"].shape == (5, 3)
    assert sorted(cache["seg"].ravel().tolist()) == [s for s in range(5) for _ in range(3)]
    assert cache["pos"].tolist() == [[0, 1, 2]] * 5
    last = cache["last"]
    assert (last[:3] == last[2] - np.array([2, 1, 0])).all()  # the first three rows read one pass
    assert (last[2:] % 3 == 2).all() and len(set((last[2:] // 3).tolist())) == 5  # then one segment each
    alone = np.stack([features(m, p) for p in prefixes])
    np.testing.assert_allclose(feats, alone, rtol=0, atol=1e-12)


def test_prefix_roots_group_only_true_prefixes_after_trimming():
    # with max_seq_len 3, prefixes of (1..6) past length 3 become shifted
    # windows: (2, 3, 4) is no longer a prefix of (3, 4, 5), though (2, 3)
    # from another session is a prefix of (2, 3, 4)
    session = (1, 2, 3, 4, 5, 6)
    prefixes = [session[:k] for k in range(1, 7)] + [(2, 3), (1, 2)]
    trimmed = [p[-3:] for p in prefixes]
    assert trimmed == [(1,), (1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (2, 3), (1, 2)]
    assert _prefix_roots(trimmed).tolist() == [2, 2, 2, 3, 4, 5, 3, 2]
    m = small_model(max_seq_len=3, block_count=2)
    shared = _encode_rows(m, prefixes)[0].copy()
    alone = np.stack([features(m, p) for p in prefixes])
    np.testing.assert_allclose(shared, alone, rtol=0, atol=1e-12)


def test_scatter_rows_matches_add_at():
    rng = np.random.default_rng(3)
    index = rng.integers(0, 6, size=40)
    rows = rng.normal(size=(40, 4))
    expected = np.zeros((6, 4))
    np.add.at(expected, index, rows)
    got = np.zeros((6, 4))
    _scatter_rows(got, index, rows, Workspace())
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("distinct", [True, False])
def test_scatter_rows_fast_path_is_add_at_bit_for_bit(distinct):
    rng = np.random.default_rng(4)
    if distinct:  # a row's last token
        index = rng.permutation(50)[:30]
        out = rng.normal(size=(50, 8)).astype(np.float32)
    else:  # item and position rows
        index = rng.integers(0, 6, size=40)
        out = rng.normal(size=(6, 8)).astype(np.float32)
    rows = rng.normal(size=(len(index), 8)).astype(np.float32)
    expected = out.copy()
    np.add.at(expected, index, rows)
    ws = Workspace()
    _scatter_rows(out, index, rows, ws)
    assert ("scatter.rows" in ws._buffers) != distinct  # only repeated indices take the sort
    if distinct:  # one add per row, as add.at makes it
        assert out.tobytes() == expected.tobytes()
    else:  # reduceat sums a run in its own order, so only to rounding
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)


def test_nonfinite_loss_raises_divergence():
    m = small_model()
    m.params["item_emb"][0, 0] = np.nan
    with pytest.raises(DivergenceError):
        loss_and_gradients(m, BatchSpec(ce_examples=[TrainingExample((0,), 1)]))


def test_ce_target_out_of_range_errors():
    m = small_model(item_count=4)
    with pytest.raises(ValueError):
        loss_and_gradients(m, BatchSpec(ce_examples=[TrainingExample((0,), 9)]))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradients_leave_parameters_unchanged():
    m = small_model()
    before = {k: v.copy() for k, v in m.params.items()}
    adam_step(m, zero_gradients(m))
    assert m.step == 1
    for name in before:
        np.testing.assert_array_equal(m.params[name], before[name])


def test_adam_first_step_hand_computed():
    # g=1 from fresh moments: bias-corrected step is -lr/(1+eps) ~ -lr
    m = small_model()
    grads = zero_gradients(m)
    grads["item_emb"][0, 0] = 1.0
    before = m.params["item_emb"][0, 0]
    adam_step(m, grads, lr=0.001)
    delta = m.params["item_emb"][0, 0] - before
    assert delta == pytest.approx(-0.001, rel=1e-6)


def test_adam_deterministic():
    m1, m2 = small_model(seed=6), small_model(seed=6)
    grads = zero_gradients(m1)
    grads["pos_emb"][:] = 0.3
    same = zero_gradients(m2)
    same.flat[...] = grads.flat
    adam_step(m1, grads)
    adam_step(m2, same)
    assert states_equal(m1, m2)


def test_adam_shape_mismatch_errors():
    m = small_model()
    for other in (small_model(item_count=13), small_model(dtype="float32")):
        with pytest.raises(ValueError, match="do not match parameters"):
            adam_step(m, zero_gradients(other))
    assert m.step == 0


# ---------------------------------------------------------------------------
# vocabulary growth
# ---------------------------------------------------------------------------


def test_grow_same_size_is_identity():
    m = small_model(item_count=5)
    before = {k: v.copy() for k, v in m.params.items()}
    grow_vocabulary(m, 5, seed=1)
    assert m.item_count == 5
    np.testing.assert_array_equal(m.params["item_emb"], before["item_emb"])


def test_grow_preserves_existing_rows_bit_exactly():
    m = small_model(item_count=5)
    old = m.params["item_emb"].copy()
    grow_vocabulary(m, 8, seed=1)
    assert m.item_count == 8
    assert np.array_equal(m.params["item_emb"][:5], old)
    assert np.all(m.adam_m["item_emb"][5:] == 0)
    assert np.all(np.abs(m.params["item_emb"][5:]) <= 0.01 / math.sqrt(8))


def test_grow_preserves_old_item_logits_bit_exactly():
    m = small_model(item_count=6, seed=9)
    prefix = [0, 2, 4]
    logits_before = features(m, prefix) @ m.params["item_emb"][:6].T
    grow_vocabulary(m, 10, seed=3)
    logits_after = features(m, prefix) @ m.params["item_emb"][:6].T
    assert np.array_equal(logits_before, logits_after)


def test_grow_shrink_errors():
    m = small_model(item_count=5)
    with pytest.raises(ValueError):
        grow_vocabulary(m, 4)


# ---------------------------------------------------------------------------
# checkpointing: early stopping keeps the best epoch as a ``ModelState.copy``
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact():
    m = small_model(seed=13, dropout_rate=0.2)
    grads = zero_gradients(m)
    grads["item_emb"][:] = 0.05
    adam_step(m, grads)
    snapshot = m.copy()
    assert snapshot.config == m.config
    assert states_equal(m, snapshot)
    assert all(snapshot.params[k].dtype == m.params[k].dtype for k in m.params)
    adam_step(m, grads)  # training on leaves the snapshot as it was
    assert snapshot.step == 1 and not states_equal(m, snapshot)


def test_checkpoint_float32_round_trip():
    cfg = ModelConfig(embed_dim=8, block_count=1, max_seq_len=6, dtype="float32")
    m = init_model(cfg, 4, seed=0)
    snapshot = m.copy()
    m.params["item_emb"] += 1.0
    m.adam_v["pos_emb"] += 1.0
    assert snapshot.params["item_emb"].dtype == np.float32
    assert states_equal(snapshot, init_model(cfg, 4, seed=0))


def test_float32_training_step_keeps_dtype():
    cfg = ModelConfig(embed_dim=8, block_count=2, max_seq_len=6, dtype="float32", dropout_rate=0.2)
    m = init_model(cfg, 6, seed=0)
    spec = BatchSpec(ce_examples=[TrainingExample((0, 1), 2)], train_mode=True, dropout_seed=1)
    _, grads = loss_and_gradients(m, spec)
    adam_step(m, grads)
    assert all(g.dtype == np.float32 for g in grads.values())
    assert all(p.dtype == np.float32 for p in m.params.values())


# ---------------------------------------------------------------------------
# flat state and the step workspace
# ---------------------------------------------------------------------------


def reference_adam_step(state, grads, lr=5e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam loop that the fused update over the flat vectors replaced."""
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, theta in state.params.items():
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def float32_model(item_count=20, **overrides):
    cfg = ModelConfig(**{"embed_dim": 8, "block_count": 2, "attention_heads": 2, "max_seq_len": 6,
                         "dropout_rate": 0.3, **overrides})
    return init_model(cfg, item_count, seed=7)


def random_gradients(state, rng):
    grads = zero_gradients(state)
    grads.flat[...] = rng.normal(size=grads.flat.size)
    return grads


def test_fused_adam_matches_per_parameter_loop_bit_for_bit():
    # random and workspace gradients, a state after grow_vocabulary and the
    # copy of a state all step exactly as the per-name loop does
    rng = np.random.default_rng(0)
    fused, ref = float32_model(), float32_model()
    for step in range(4):
        grads = random_gradients(fused, rng)
        adam_step(fused, grads, lr=1e-2)
        reference_adam_step(ref, grads, lr=1e-2)
        assert states_equal(fused, ref), step
    spec = BatchSpec(ce_examples=[TrainingExample((1, 2, 3), 4), TrainingExample((5,), 6)], train_mode=True,
                     dropout_seed=3)
    _, grads = loss_and_gradients(fused, spec)  # views of the workspace that adam_step also draws on
    reference_adam_step(ref, grads, lr=1e-2)
    adam_step(fused, grads, lr=1e-2)
    assert states_equal(fused, ref)

    grow_vocabulary(fused, 26, seed=4)
    grow_vocabulary(ref, 26, seed=4)
    for _ in range(3):
        grads = random_gradients(fused, rng)
        adam_step(fused, grads, lr=1e-2)
        reference_adam_step(ref, grads, lr=1e-2)
    assert states_equal(fused, ref)

    snapshot = fused.copy()
    for a, b in zip((fused.flat_params, fused.flat_m, fused.flat_v),
                    (snapshot.flat_params, snapshot.flat_m, snapshot.flat_v)):
        assert not np.shares_memory(a, b)
    for named in ("params", "adam_m", "adam_v"):
        for k, arr in getattr(snapshot, named).items():
            assert not np.shares_memory(arr, fused.flat_params) and not np.shares_memory(arr, fused.flat_m)
            assert not np.shares_memory(arr, fused.flat_v), (named, k)
    ref_snapshot = float32_model(26)
    for named in ("params", "adam_m", "adam_v"):
        for k, arr in getattr(ref, named).items():
            getattr(ref_snapshot, named)[k][...] = arr
    ref_snapshot.step = ref.step
    for _ in range(2):
        grads = random_gradients(snapshot, rng)
        adam_step(snapshot, grads, lr=1e-2)
        reference_adam_step(ref_snapshot, grads, lr=1e-2)
    assert states_equal(snapshot, ref_snapshot)
    assert states_equal(fused, ref)  # stepping the copy left the original as it was


def test_named_arrays_are_written_in_place_not_replaced():
    # every name of the parameters, the moments and the gradients is a view
    # of its flat vector: in-place writes reach the vector, a new array raises
    m = float32_model()
    _, grads = loss_and_gradients(m, BatchSpec(ce_examples=[TrainingExample((1, 2), 3)]))
    for named, flat in ((m.params, m.flat_params), (m.adam_m, m.flat_m), (m.adam_v, m.flat_v),
                        (grads, grads.flat)):
        before = flat.copy()
        for name in ("item_emb", "blocks.1.ff.b2"):
            view = named[name]
            with pytest.raises(TypeError, match="in place"):
                named[name] = view.copy()
            assert named[name] is view
        with pytest.raises(TypeError):
            named["no.such.parameter"] = np.zeros(3)
        named["item_emb"] += 1.0
        named["blocks.1.ff.b2"][...] = 2.0
        assert np.shares_memory(named["item_emb"], flat) and np.shares_memory(named["blocks.1.ff.b2"], flat)
        changed = flat != before
        assert changed.sum() == named["item_emb"].size + named["blocks.1.ff.b2"].size
        np.testing.assert_array_equal(named["item_emb"], (before[: named["item_emb"].size] + 1.0).reshape(-1, 8))
        np.testing.assert_array_equal(named["blocks.1.ff.b2"], 2.0)


def test_copy_into_a_snapshot_reuses_its_vectors():
    rng = np.random.default_rng(2)
    m = float32_model()
    snapshot = m.copy()
    vectors = (snapshot.flat_params, snapshot.flat_m, snapshot.flat_v)
    adam_step(m, random_gradients(m, rng))
    assert m.copy(out=snapshot) is snapshot
    assert states_equal(m, snapshot)
    assert all(a is b for a, b in zip(vectors, (snapshot.flat_params, snapshot.flat_m, snapshot.flat_v)))
    assert not np.shares_memory(m.flat_params, snapshot.flat_params)
    with pytest.raises(ValueError):
        m.copy(out=float32_model(item_count=21))
    with pytest.raises(ValueError):
        m.copy(out=m)


def _workspace_steps(rng, item_count):
    """Steps of different sizes with dropout, KD and EWC terms; the first holds every later step's rows."""
    sessions = [tuple(int(v) for v in rng.integers(0, item_count, size=int(n))) for n in rng.integers(2, 10, 12)]
    rows = [TrainingExample(s[:k], s[k]) for s in sessions for k in range(1, len(s))]
    teacher = rng.dirichlet(np.ones(item_count - 4), size=len(rows)).astype(np.float32)
    picks = [np.arange(len(rows))] + [np.sort(rng.choice(len(rows), size=n, replace=False)) for n in (5, 30, 12, 1)]
    specs = []
    for pick in picks:
        ce, kd = pick[: len(pick) * 2 // 3 + 1], pick[len(pick) * 2 // 3 + 1 :]
        specs.append(BatchSpec(
            ce_examples=[rows[i] for i in ce],
            kd_examples=[rows[i] for i in kd],
            kd_teacher_probs=teacher[kd],
            kd_item_range=item_count - 4,
            kd_weight=0.6 if len(kd) else 0.0,
            train_mode=True,
            dropout_seed=int(rng.integers(1000)),
        ))
    return specs


def test_workspace_steps_match_fresh_ones_and_stop_allocating():
    # one model steps in the workspace init_model gave it, the other in a new
    # workspace every step, as a model whose buffers were never reused
    rng = np.random.default_rng(3)
    shared, fresh = float32_model(), float32_model()
    anchor = (shared.flat_params + rng.normal(scale=0.1, size=shared.flat_params.shape)).astype(np.float32)
    fisher = np.abs(rng.normal(size=shared.flat_params.shape)).astype(np.float32)
    ws = shared.workspace
    specs = _workspace_steps(rng, 20)
    for i, spec in enumerate(specs * 2):
        spec = dataclasses.replace(spec, ewc_anchor=anchor, ewc_fisher=fisher, ewc_weight=3.0)
        fresh.workspace = Workspace()
        got, got_grads = loss_and_gradients(shared, spec)
        want, want_grads = loss_and_gradients(fresh, spec)
        assert got == want, i
        assert got.ewc > 0.0 and (got.kd > 0.0 or not spec.kd_examples), i
        assert set(got_grads) == set(want_grads)
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name], err_msg=f"step {i}: {name}")
        adam_step(shared, got_grads, lr=1e-2)
        adam_step(fresh, want_grads, lr=1e-2)
        assert states_equal(shared, fresh), i
        if i == 0:
            buffers = dict(ws._buffers)
    assert ws._buffers.keys() == buffers.keys()  # nothing grew after the largest step
    assert all(ws._buffers[key] is buf for key, buf in buffers.items())
