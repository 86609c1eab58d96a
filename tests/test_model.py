import math

import numpy as np
import pytest

from cyclerec.data import TrainingExample
from cyclerec.losses import _softmax, teacher_probabilities
from cyclerec.model import (
    BatchSpec,
    _chunk_plan,
    _encode_rows,
    _prefix_roots,
    _scatter_rows,
    DivergenceError,
    ModelConfig,
    adam_step,
    extract_features_batch,
    grow_vocabulary,
    init_model,
    loss_and_gradients,
    zero_gradients,
)

SMALL = ModelConfig(embed_dim=8, block_count=1, attention_heads=1, max_seq_len=10, dtype="float64")


def small_model(item_count=12, seed=3, **overrides):
    cfg = ModelConfig(**{**SMALL.__dict__, **overrides})
    return init_model(cfg, item_count, seed=seed)


def features(m, prefix, train_mode=False, dropout_seed=0):
    """Features of one prefix, encoded alone."""
    return extract_features_batch(m, [tuple(prefix)], train_mode, dropout_seed)[0]


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
    m.params["item_emb"] = np.eye(8)
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
    _, grads = loss_and_gradients(model, spec)
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
    anchor = {k: v + 0.01 for k, v in m.params.items()}
    fisher = {k: np.abs(rng.normal(size=v.shape)) for k, v in m.params.items()}
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
    _, g_ab = loss_and_gradients(m, BatchSpec(ce_examples=[a, b]))
    _, g_abb = loss_and_gradients(m, BatchSpec(ce_examples=[a, b, b]))
    _, g_a = loss_and_gradients(m, BatchSpec(ce_examples=[a]))
    _, g_b = loss_and_gradients(m, BatchSpec(ce_examples=[b]))
    for name in g_ab:
        np.testing.assert_allclose(g_abb[name], (2 * g_a[name] + 4 * g_b[name]) / 6, atol=1e-12)


def test_length_chunked_batch_matches_per_example_gradients():
    # many short rows plus a few long ones: the planner splits the batch into
    # length-sorted chunks, whose summed gradients must equal the mean of
    # per-example gradients
    rng = np.random.default_rng(7)
    m = small_model(item_count=12, seed=5, block_count=2)
    examples = [TrainingExample((int(rng.integers(0, 12)),), int(rng.integers(0, 12))) for _ in range(200)]
    examples += [TrainingExample(tuple(int(v) for v in rng.integers(0, 12, size=9)), int(rng.integers(0, 12)))
                 for _ in range(4)]
    lengths = np.array([len(ex.prefix) for ex in examples])
    chunks = _chunk_plan(lengths)
    assert len(chunks) > 1
    assert sorted(np.concatenate(chunks).tolist()) == list(range(len(examples)))
    _, g_batch = loss_and_gradients(m, BatchSpec(ce_examples=examples))
    singles = [loss_and_gradients(m, BatchSpec(ce_examples=[ex]))[1] for ex in examples]
    for name in g_batch:
        expected = sum(g[name] for g in singles) / len(examples)
        np.testing.assert_allclose(g_batch[name], expected, atol=1e-12)


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
    shared, _ = _encode_rows(m, prefixes)
    alone = np.stack([features(m, p) for p in prefixes])
    np.testing.assert_allclose(shared, alone, rtol=0, atol=1e-12)


def test_scatter_rows_matches_add_at():
    rng = np.random.default_rng(3)
    index = rng.integers(0, 6, size=40)
    rows = rng.normal(size=(40, 4))
    expected = np.zeros((6, 4))
    np.add.at(expected, index, rows)
    got = np.zeros((6, 4))
    _scatter_rows(got, index, rows)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


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
    adam_step(m1, grads)
    adam_step(m2, {k: v.copy() for k, v in grads.items()})
    assert states_equal(m1, m2)


def test_adam_shape_mismatch_errors():
    m = small_model()
    grads = zero_gradients(m)
    grads["pos_emb"] = np.zeros(3)
    with pytest.raises(ValueError):
        adam_step(m, grads)


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
