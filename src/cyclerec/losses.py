"""Training objectives.

Next-item cross entropy on the incoming data, distillation against the
frozen previous model on stored exemplars, the cycle-adaptive
interpolation weight between the two, and the quadratic parameter-anchor
penalty with Fisher-diagonal weights used by the EWC baseline.

The ``*_from_logits`` primitives are pure; the wrappers taking model
states run the forward pass with dropout disabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .data import TrainingExample
    from .model import ModelState


@dataclass
class LossBreakdown:
    """Per-term loss values; ``total`` carries the weights applied."""

    ce: float = 0.0
    kd: float = 0.0
    ewc: float = 0.0
    total: float = 0.0


def _softmax(logits: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax of ``logits`` from one ``exp`` pass, as ``(z, log_norm, probs)``.

    ``z`` is the logits less their row maximum and ``z - log_norm`` the
    log-softmax; ``probs`` is the softmax times ``scale``. Callers that need
    the log-probability of one entry per row read it without a full pass.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    total = probs.sum(axis=-1, keepdims=True)
    probs *= scale / total
    return z, np.log(total), probs


def ce_from_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over rows and its per-logit gradient.

    gradient = (softmax(logits) - onehot(target)) / n
    """
    n = logits.shape[0]
    rows = np.arange(n)
    z, log_norm, dlogits = _softmax(logits, 1.0 / n)
    loss = float((log_norm[:, 0] - z[rows, targets]).mean())
    dlogits[rows, targets] -= 1.0 / n
    return loss, dlogits


def kd_from_logits(
    student_logits: np.ndarray, teacher_probs: np.ndarray, temperature: float = 1.0
) -> tuple[float, np.ndarray]:
    """Soft-label cross entropy against a frozen teacher distribution.

    loss = -(1/n) sum_rows sum_i teacher_i * log softmax(student/T)_i
    gradient = (softmax(student/T) - teacher) / (n * T)
    """
    n = student_logits.shape[0]
    scale = 1.0 / (n * temperature)
    z, log_norm, dlogits = _softmax(student_logits / temperature, scale)
    loss = float(-(teacher_probs * (z - log_norm)).sum() / n)
    dlogits -= scale * teacher_probs
    return loss, dlogits


def teacher_probabilities(
    teacher: "ModelState",
    exemplars: Sequence["TrainingExample"],
    old_item_range: int,
    temperature: float = 1.0,
    batch_size: int = 512,
) -> np.ndarray:
    """Frozen-model distributions over the old-item range, dropout off."""
    from .model import extract_features_batch

    if old_item_range > teacher.item_count:
        raise ValueError("teacher_probabilities: range exceeds the teacher registry")
    feats = extract_features_batch(teacher, [ex.prefix for ex in exemplars], batch_size=batch_size)
    logits = feats @ teacher.params["item_emb"][:old_item_range].T
    return _softmax(logits / temperature)[2]


def ce_loss(
    current_model: "ModelState",
    examples: Sequence["TrainingExample"],
    item_range: int | None = None,
) -> tuple[float, np.ndarray]:
    """Cross entropy of ``current_model`` on ``examples`` plus per-logit grads."""
    from .model import extract_features_batch

    if not examples:
        raise ValueError("ce_loss: no examples")
    if item_range is None:
        item_range = current_model.item_count
    targets = np.array([ex.target for ex in examples])
    if targets.max() >= item_range:
        raise ValueError("ce_loss: target outside item range")
    feats = extract_features_batch(current_model, [ex.prefix for ex in examples])
    logits = feats @ current_model.params["item_emb"][:item_range].T
    return ce_from_logits(logits, targets)


def kd_loss(
    previous_model: "ModelState",
    current_model: "ModelState",
    exemplars: Sequence["TrainingExample"],
    old_item_range: int | None = None,
    temperature: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Distillation loss on exemplars plus per-logit grads for the student.

    Both predicted distributions are restricted to the old-item range
    before normalization; no gradient flows into ``previous_model``.
    """
    from .model import extract_features_batch

    if not exemplars:
        raise ValueError("kd_loss: empty exemplar set (skip distillation in the first cycle)")
    if old_item_range is None:
        old_item_range = previous_model.item_count
    teacher = teacher_probabilities(previous_model, exemplars, old_item_range, temperature)
    feats = extract_features_batch(current_model, [ex.prefix for ex in exemplars])
    logits = feats @ current_model.params["item_emb"][:old_item_range].T
    return kd_from_logits(logits, teacher, temperature)


def adaptive_lambda(
    lambda_base: float,
    old_items: int,
    new_items_total: int,
    exemplar_count: int,
    data_count: int,
) -> float:
    """Cycle-adaptive distillation weight.

    lambda = lambda_base * sqrt((old_items / total_items) *
    (exemplar_count / data_count)), where ``new_items_total`` is the item
    count after the current cycle's growth.
    """
    if min(old_items, new_items_total, exemplar_count, data_count) <= 0:
        raise ValueError("adaptive_lambda: all counts must be positive")
    return lambda_base * math.sqrt((old_items / new_items_total) * (exemplar_count / data_count))


def ader_loss(ce: float, kd: float, lambda_t: float) -> LossBreakdown:
    """Interpolate cross entropy with the weighted distillation term."""
    if not (math.isfinite(ce) and math.isfinite(kd) and math.isfinite(lambda_t)):
        raise ValueError("ader_loss: non-finite inputs")
    return LossBreakdown(ce=ce, kd=kd, ewc=0.0, total=ce + lambda_t * kd)


def fisher_diagonal(
    model: "ModelState", exemplars: Sequence["TrainingExample"]
) -> dict[str, np.ndarray]:
    """Mean of squared per-example cross-entropy gradients, element-wise."""
    from .model import BatchSpec, loss_and_gradients, zero_gradients

    if not exemplars:
        raise ValueError("fisher_diagonal: empty exemplar set")
    fisher = zero_gradients(model)
    for ex in exemplars:
        _, grads = loss_and_gradients(model, BatchSpec(ce_examples=[ex]))
        for name, g in grads.items():
            fisher[name] += g * g
    for name in fisher:
        fisher[name] /= len(exemplars)
    return fisher


def ewc_penalty(
    model: "ModelState",
    anchor_params: dict[str, np.ndarray],
    fisher: dict[str, np.ndarray],
) -> tuple[float, dict[str, np.ndarray]]:
    """Quadratic anchor penalty (1/2) sum_j F_j (theta_j - anchor_j)^2."""
    penalty = 0.0
    grads: dict[str, np.ndarray] = {}
    for name, theta in model.params.items():
        if anchor_params[name].shape != theta.shape or fisher[name].shape != theta.shape:
            raise ValueError(f"ewc_penalty: shape mismatch for {name}")
        diff = theta - anchor_params[name]
        penalty += 0.5 * float((fisher[name] * diff * diff).sum())
        grads[name] = fisher[name] * diff
    return penalty, grads
