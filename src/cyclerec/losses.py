"""Training objectives.

Next-item cross entropy on the incoming data, distillation against the
frozen previous model's distributions on stored exemplars, the
cycle-adaptive interpolation weight between the two, and the Fisher
diagonal that weights the EWC baseline's parameter anchor.

The ``*_from_logits`` primitives are pure (``ce_rows_from_logits``
overwrites its logits); ``teacher_probabilities`` and
``kd_loss`` take model states and run the forward pass with dropout
disabled, as the reference the tests check training against (training
reads the teacher rows from the exemplar store's features). A training
step combines the terms, the EWC penalty included, in
``model.loss_and_gradients``.
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


def _softmax(
    logits: np.ndarray, scale: float = 1.0, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax of ``logits`` from one ``exp`` pass, as ``(z, log_norm, probs)``.

    ``z`` is the logits less their row maximum and ``z - log_norm`` the
    log-softmax; ``probs`` is the softmax times ``scale``. Callers that need
    the log-probability of one entry per row read it without a full pass.
    ``out`` is an optional pair of arrays shaped like ``logits`` that
    receive ``z`` and ``probs``; the first may be ``logits`` itself.
    """
    z_out, probs_out = out if out is not None else (None, None)
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=z_out)
    probs = np.exp(z, out=probs_out)
    total = probs.sum(axis=-1, keepdims=True)
    probs *= scale / total
    return z, np.log(total), probs


def ce_from_logits(
    logits: np.ndarray, targets: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[float, np.ndarray]:
    """Mean cross entropy over rows and its per-logit gradient.

    gradient = (softmax(logits) - onehot(target)) / n

    ``out`` is passed to ``_softmax``; the gradient is its second array.
    """
    n = logits.shape[0]
    rows = np.arange(n)
    z, log_norm, dlogits = _softmax(logits, 1.0 / n, out)
    loss = float((log_norm[:, 0] - z[rows, targets]).mean())
    dlogits[rows, targets] -= 1.0 / n
    return loss, dlogits


def ce_rows_from_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row cross entropy, the values ``ce_from_logits`` averages; ``_softmax`` overwrites ``logits``."""
    target_z = logits[np.arange(len(targets)), targets] - logits.max(axis=1)
    return _softmax(logits, out=(logits, logits))[1][:, 0] - target_z


def kd_from_logits(
    student_logits: np.ndarray, teacher_probs: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[float, np.ndarray]:
    """Soft-label cross entropy against a frozen teacher distribution.

    loss = -(1/n) sum_rows sum_i teacher_i * log softmax(student)_i
    gradient = (softmax(student) - teacher) / n

    ``out`` is passed to ``_softmax``; the gradient is its second array.
    """
    n = student_logits.shape[0]
    scale = 1.0 / n
    z, log_norm, dlogits = _softmax(student_logits, scale, out)
    z -= log_norm  # the log-softmax, in z's array: a fresh one or the caller's ``out``
    loss = float(-(teacher_probs * z).sum() / n)
    dlogits -= scale * teacher_probs
    return loss, dlogits


def teacher_probabilities(
    teacher: "ModelState",
    exemplars: Sequence["TrainingExample"],
    old_item_range: int,
    batch_size: int = 512,
) -> np.ndarray:
    """Frozen-model distributions over the old-item range, dropout off."""
    from .model import extract_features_batch

    if old_item_range > teacher.item_count:
        raise ValueError("teacher_probabilities: range exceeds the teacher registry")
    feats = extract_features_batch(teacher, [ex.prefix for ex in exemplars], batch_size=batch_size)
    logits = feats @ teacher.params["item_emb"][:old_item_range].T
    return _softmax(logits)[2]


def kd_loss(
    previous_model: "ModelState",
    current_model: "ModelState",
    exemplars: Sequence["TrainingExample"],
    old_item_range: int | None = None,
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
    teacher = teacher_probabilities(previous_model, exemplars, old_item_range)
    feats = extract_features_batch(current_model, [ex.prefix for ex in exemplars])
    logits = feats @ current_model.params["item_emb"][:old_item_range].T
    return kd_from_logits(logits, teacher)


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


def fisher_diagonal(model: "ModelState", exemplars: Sequence["TrainingExample"]) -> np.ndarray:
    """Mean of squared per-example cross-entropy gradients, laid out like ``model.flat_params``.

    Every exemplar's step and square take their arrays from the model's workspace.
    """
    from .model import BatchSpec, loss_and_gradients

    if not exemplars:
        raise ValueError("fisher_diagonal: empty exemplar set")
    ws = model.workspace
    fisher = np.zeros_like(model.flat_params)
    for ex in exemplars:
        _, grads = loss_and_gradients(model, BatchSpec(ce_examples=[ex]))
        fisher += np.multiply(grads.flat, grads.flat, out=ws("fisher.square", fisher.shape, fisher.dtype))
    fisher /= len(exemplars)
    return fisher
