"""Training objectives.

Next-item cross entropy on the incoming data, distillation against the
frozen previous model's distributions on stored exemplars, the
cycle-adaptive interpolation weight between the two, and the Fisher
diagonal that weights the EWC baseline's parameter anchor.

The ``*_from_logits`` primitives are pure (``ce_rows_from_logits``
overwrites its logits). ``teacher_probabilities`` is the teacher pass: it
scores the exemplar store's features, which the frozen model encoded
with dropout off; the tests check it against a float64 reference that
re-encodes the exemplars (``tests/kd_reference.py``). A training step
combines the terms, the EWC penalty included, in
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


def teacher_probabilities(model: "ModelState", feats: np.ndarray, item_range: int) -> np.ndarray:
    """Softmax over the first ``item_range`` items per feature row, written block by block into one array.

    The teacher pass of distillation: ``feats`` are the frozen model's
    features of the stored exemplars, encoded with dropout off.
    """
    from .model import logit_blocks

    if item_range > model.item_count:
        raise ValueError("teacher_probabilities: range exceeds the teacher registry")
    probs = np.empty((len(feats), item_range), dtype=feats.dtype)
    for block, logits in logit_blocks(model, feats, item_range):
        _softmax(logits, out=(logits, probs[block]))
    return probs


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
    from .model import BatchSpec, TableRows, loss_and_gradients

    if not exemplars:
        raise ValueError("fisher_diagonal: empty exemplar set")
    ws = model.workspace
    fisher = np.zeros_like(model.flat_params)
    rows = TableRows.of(exemplars, model.config.max_seq_len)
    for i in range(len(exemplars)):
        _, grads = loss_and_gradients(model, BatchSpec(ce_examples=rows[i : i + 1]))
        fisher += np.multiply(grads.flat, grads.flat, out=ws("fisher.square", fisher.shape, fisher.dtype))
    fisher /= len(exemplars)
    return fisher
