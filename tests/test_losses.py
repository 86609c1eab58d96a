import math
from fractions import Fraction

import numpy as np
import pytest

import kd_reference
from step_rows import batch_spec
from cyclerec.data import TrainingExample
from cyclerec.losses import adaptive_lambda, ce_from_logits, fisher_diagonal, kd_from_logits, teacher_probabilities
from cyclerec.model import (
    BatchSpec,
    DivergenceError,
    ModelConfig,
    extract_features_batch,
    init_model,
    loss_and_gradients,
)

CFG = ModelConfig(embed_dim=8, block_count=1, max_seq_len=10, dtype="float64")


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


def test_ce_zero_when_target_probability_one():
    logits = np.array([[100.0, 0.0, 0.0]])
    loss, _ = ce_from_logits(logits, np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_ce_uniform_over_four_items():
    logits = np.zeros((1, 4))
    loss, dlogits = ce_from_logits(logits, np.array([2]))
    assert loss == pytest.approx(math.log(4))
    np.testing.assert_allclose(dlogits, [[0.25, 0.25, -0.75, 0.25]])


def test_ce_mean_normalization_duplicates():
    logits = np.array([[1.0, 2.0, 0.5]])
    single, _ = ce_from_logits(logits, np.array([1]))
    double, _ = ce_from_logits(np.repeat(logits, 2, axis=0), np.array([1, 1]))
    assert single == pytest.approx(double)


def test_ce_gradient_identity_vs_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 6))
    targets = np.array([0, 5, 2])
    _, dlogits = ce_from_logits(logits, targets)
    h = 1e-6
    for r in range(3):
        for c in range(6):
            up = logits.copy(); up[r, c] += h
            dn = logits.copy(); dn[r, c] -= h
            fd = (ce_from_logits(up, targets)[0] - ce_from_logits(dn, targets)[0]) / (2 * h)
            assert fd == pytest.approx(dlogits[r, c], abs=1e-6)


# ---------------------------------------------------------------------------
# knowledge distillation
# ---------------------------------------------------------------------------


def test_kd_identical_models_fixed_point():
    m = init_model(CFG, 8, seed=5)
    exemplars = [TrainingExample((0, 1), 2), TrainingExample((3,), 4), TrainingExample((5, 6, 7), 1)]
    loss, dlogits = kd_reference.kd_loss(m, m, exemplars, 6)
    teacher = kd_reference.teacher_probabilities(m, exemplars, 6)
    entropy = float(-(teacher * np.log(teacher)).sum(axis=1).mean())
    assert np.abs(dlogits).max() <= 1e-12
    assert loss == pytest.approx(entropy, abs=1e-10)
    # the teacher pass over the exemplars' features gives the reference's distributions
    feats = extract_features_batch(m, [ex.prefix for ex in exemplars])
    np.testing.assert_allclose(teacher_probabilities(m, feats, 6), teacher, rtol=1e-12, atol=0)


def test_kd_one_hot_teacher_matched_student_contributes_zero():
    teacher = np.array([[0.0, 1.0, 0.0]])
    student = np.array([[-200.0, 200.0, -200.0]])
    loss, _ = kd_from_logits(student, teacher)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_kd_hand_computed_two_items():
    teacher = np.array([[0.75, 0.25]])
    student = np.array([[0.0, 0.0]])  # softmax -> [0.5, 0.5]
    loss, dlogits = kd_from_logits(student, teacher)
    assert loss == pytest.approx(math.log(2))
    np.testing.assert_allclose(dlogits, [[0.5 - 0.75, 0.5 - 0.25]])


def test_kd_gradient_is_p_minus_teacher_over_n():
    rng = np.random.default_rng(1)
    student = rng.normal(size=(4, 7))
    teacher = rng.dirichlet(np.ones(7), size=4)
    _, dlogits = kd_from_logits(student, teacher)
    p = np.exp(student - student.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(dlogits, (p - teacher) / 4, atol=1e-12)
    # finite differences on the scalar loss
    h = 1e-6
    for r in range(4):
        for c in range(7):
            up = student.copy(); up[r, c] += h
            dn = student.copy(); dn[r, c] -= h
            fd = (kd_from_logits(up, teacher)[0] - kd_from_logits(dn, teacher)[0]) / (2 * h)
            assert fd == pytest.approx(dlogits[r, c], abs=1e-6)


def test_kd_nonnegative_and_bounded_below_by_teacher_entropy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        teacher = rng.dirichlet(np.ones(k), size=n)
        student = rng.normal(scale=3.0, size=(n, k))
        loss, _ = kd_from_logits(student, teacher)
        entropy = float(-(teacher * np.log(teacher)).sum(axis=1).mean())
        assert loss >= 0.0
        assert loss >= entropy - 1e-10  # Gibbs' inequality


def test_kd_restricts_to_old_item_range():
    prev = init_model(CFG, 6, seed=3)
    curr = init_model(CFG, 9, seed=4)
    exemplars = [TrainingExample((0, 2), 1)]
    _, dlogits = kd_reference.kd_loss(prev, curr, exemplars, 6)
    assert dlogits.shape == (1, 6)
    # a training step's KD term leaves the item rows beyond the range untouched
    probs = teacher_probabilities(prev, extract_features_batch(prev, [(0, 2)]), 6)
    assert probs.shape == (1, 6)
    _, grads = loss_and_gradients(curr, batch_spec(curr, kd=exemplars, kd_teacher_probs=probs, kd_weight=1.0))
    assert np.abs(grads["item_emb"][:6]).max() > 0.0
    np.testing.assert_array_equal(grads["item_emb"][6:], 0.0)


# ---------------------------------------------------------------------------
# adaptive lambda
# ---------------------------------------------------------------------------


def test_lambda_equal_ratios_returns_base_exactly():
    assert adaptive_lambda(0.8, 100, 100, 500, 500) == 0.8
    assert adaptive_lambda(1.0, 7, 7, 3, 3) == 1.0


def test_lambda_hand_computed():
    # 0.8 * sqrt((80/100) * (30000/37500)) = 0.8 * sqrt(0.64) = 0.64
    assert adaptive_lambda(0.8, 80, 100, 30000, 37500) == pytest.approx(0.64, abs=1e-12)


def test_lambda_quadrupling_data_halves_weight():
    base = adaptive_lambda(0.5, 90, 120, 1000, 2000)
    quad = adaptive_lambda(0.5, 90, 120, 1000, 8000)
    assert quad == pytest.approx(base / 2, rel=1e-12)


def test_lambda_exemplar_scaling_identity():
    # scaling the exemplar count by c^2 scales lambda by c
    base = adaptive_lambda(0.7, 50, 80, 200, 900)
    scaled = adaptive_lambda(0.7, 50, 80, 200 * 9, 900)
    assert scaled == pytest.approx(3 * base, rel=1e-12)


def test_lambda_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        adaptive_lambda(0.8, 0, 10, 5, 5)
    with pytest.raises(ValueError):
        adaptive_lambda(0.8, 10, 10, 5, 0)


def test_lambda_matches_rational_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(300):
        old = int(rng.integers(1, 10_000))
        total = old + int(rng.integers(0, 5_000))
        ex = int(rng.integers(1, 100_000))
        data = int(rng.integers(1, 100_000))
        base = float(rng.uniform(0.1, 2.0))
        expected = base * math.sqrt(float(Fraction(old, total) * Fraction(ex, data)))
        got = adaptive_lambda(base, old, total, ex, data)
        assert got == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------


# the combined loss is evaluated in one place, model.loss_and_gradients

CE_ROWS = [TrainingExample((0, 1), 2), TrainingExample((3, 4, 5), 1)]
KD_ROWS = [TrainingExample((0,), 4), TrainingExample((2, 3), 5)]


def _kd_spec(m, weight, teacher=None):
    if teacher is None:
        teacher = np.random.default_rng(5).dirichlet(np.ones(6), size=len(KD_ROWS))
    return batch_spec(m, ce=CE_ROWS, kd=KD_ROWS, kd_teacher_probs=teacher, kd_weight=weight)


def test_ader_loss_reduces_to_ce_without_kd():
    m = init_model(CFG, 8, seed=13)
    plain, _ = loss_and_gradients(m, batch_spec(m, ce=CE_ROWS))
    breakdown, _ = loss_and_gradients(m, batch_spec(m, ce=CE_ROWS, kd_weight=0.9))  # no exemplars
    assert breakdown.kd == 0.0
    assert breakdown.total == pytest.approx(plain.total, rel=1e-12)


def test_ader_loss_weighted_sum():
    m = init_model(CFG, 8, seed=14)
    plain, _ = loss_and_gradients(m, batch_spec(m, ce=CE_ROWS))
    breakdown, _ = loss_and_gradients(m, _kd_spec(m, 0.64))
    assert breakdown.ce == pytest.approx(plain.ce, rel=1e-10)
    assert breakdown.kd > 0.0
    assert breakdown.total == pytest.approx(breakdown.ce + 0.64 * breakdown.kd, rel=1e-12)


def test_ader_loss_zero_lambda_is_plain_ce():
    m = init_model(CFG, 8, seed=15)
    plain, g_plain = loss_and_gradients(m, batch_spec(m, ce=CE_ROWS))
    g_plain = g_plain.flat.copy()  # the model's next pass reuses the gradients' buffer
    breakdown, grads = loss_and_gradients(m, _kd_spec(m, 0.0))
    assert breakdown.total == plain.total and breakdown.kd == 0.0
    np.testing.assert_array_equal(grads.flat, g_plain)


def test_ader_loss_rejects_nonfinite():
    m = init_model(CFG, 8, seed=16)
    with pytest.raises(DivergenceError):
        loss_and_gradients(m, _kd_spec(m, 0.5, teacher=np.full((len(KD_ROWS), 6), np.nan)))


# ---------------------------------------------------------------------------
# fisher / ewc
# ---------------------------------------------------------------------------


def test_fisher_single_exemplar_is_squared_gradient():
    m = init_model(CFG, 6, seed=7)
    ex = TrainingExample((0, 2), 4)
    squared = loss_and_gradients(m, batch_spec(m, ce=[ex]))[1].flat ** 2
    fisher = fisher_diagonal(m, [ex])
    assert fisher.shape == m.flat_params.shape
    np.testing.assert_allclose(fisher, squared, atol=1e-15)


def test_fisher_nonnegative_and_mean_over_exemplars():
    m = init_model(CFG, 6, seed=8)
    exs = [TrainingExample((0,), 1), TrainingExample((2, 3), 5)]
    fisher = fisher_diagonal(m, exs)
    assert np.all(fisher >= 0)
    f0 = fisher_diagonal(m, [exs[0]])
    f1 = fisher_diagonal(m, [exs[1]])
    np.testing.assert_allclose(fisher, (f0 + f1) / 2, atol=1e-15)


def test_fisher_empty_errors():
    m = init_model(CFG, 4, seed=0)
    with pytest.raises(ValueError):
        fisher_diagonal(m, [])


def _ewc(m, anchor, fisher, weight=1.0):
    """The EWC term alone: a step with no CE or KD rows."""
    breakdown, grads = loss_and_gradients(
        m, BatchSpec(ewc_anchor=anchor, ewc_fisher=fisher, ewc_weight=weight)
    )
    assert breakdown.total == pytest.approx(weight * breakdown.ewc)
    return breakdown.ewc, grads


def test_ewc_zero_at_anchor():
    m = init_model(CFG, 5, seed=9)
    anchor = m.flat_params.copy()
    fisher = np.ones_like(anchor)
    penalty, grads = _ewc(m, anchor, fisher)
    assert penalty == 0.0
    assert np.all(grads.flat == 0)


def test_ewc_scalar_hand_computed():
    m = init_model(CFG, 5, seed=10)
    anchor = m.flat_params.copy()
    fisher = np.zeros_like(anchor)
    anchor[0] -= 3.0  # item_emb[0, 0], whose segment comes first: theta - anchor = 3
    fisher[0] = 2.0
    penalty, grads = _ewc(m, anchor, fisher, weight=2.5)
    assert penalty == pytest.approx(9.0)
    assert grads["item_emb"][0, 0] == pytest.approx(2.5 * 6.0)
    assert np.count_nonzero(grads.flat) == 1


def test_ewc_penalty_linear_in_fisher():
    m = init_model(CFG, 5, seed=11)
    anchor = m.flat_params + 0.1
    fisher = np.abs(m.flat_params)
    p1, _ = _ewc(m, anchor, fisher)
    p2, _ = _ewc(m, anchor, 2 * fisher)
    assert p2 == pytest.approx(2 * p1)


def test_ewc_shape_mismatch_errors():
    m = init_model(CFG, 5, seed=12)
    anchor = m.flat_params.copy()
    fisher = np.ones_like(anchor)
    for bad_anchor, bad_fisher in ((np.zeros(1), fisher), (anchor, fisher[:-8])):  # the first would broadcast
        with pytest.raises(ValueError, match="laid out like flat_params"):
            _ewc(m, bad_anchor, bad_fisher)
