"""Reference distillation term that re-encodes the exemplars, for the tests to check training against.

Training scores the exemplar store's features (``losses.teacher_probabilities``)
and distils inside ``model.loss_and_gradients``. This module computes the
same quantities the direct way: encode each exemplar's prefix with dropout
off, multiply by the item table over the old-item range, and normalize.
Not a test module: pytest collects only ``test_*.py``.
"""

import numpy as np

from cyclerec.losses import kd_from_logits
from cyclerec.model import extract_features_batch


def _old_item_logits(model, exemplars, old_item_range):
    feats = extract_features_batch(model, [ex.prefix for ex in exemplars])
    return feats @ model.params["item_emb"][:old_item_range].T


def teacher_probabilities(teacher, exemplars, old_item_range):
    """Frozen-model distributions over the old-item range, dropout off."""
    logits = _old_item_logits(teacher, exemplars, old_item_range)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


def kd_loss(previous_model, current_model, exemplars, old_item_range):
    """Distillation loss on exemplars and its per-logit gradient for the student.

    Both distributions are restricted to the old-item range before
    normalization; no gradient flows into ``previous_model``.
    """
    teacher = teacher_probabilities(previous_model, exemplars, old_item_range)
    return kd_from_logits(_old_item_logits(current_model, exemplars, old_item_range), teacher)
