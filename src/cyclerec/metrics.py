"""Top-k ranking metrics and their aggregation across update cycles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass
class CycleReport:
    """Evaluation record of one update cycle."""

    cycle_id: int
    recall_at: dict[int, float]
    mrr_at: dict[int, float]
    test_example_count: int
    unseen_target_fraction: float
    lambda_t: float = 0.0
    epochs_trained: int = 0


def rank_of_target(logits: Sequence[float] | np.ndarray, target: int) -> int:
    """1-based rank of the target item.

    rank = 1 + items scoring strictly higher + equal scorers with a lower
    index (deterministic tie-break).
    """
    scores = np.asarray(logits, dtype=np.float64)
    if not 0 <= target < len(scores):
        raise ValueError("rank_of_target: target outside the logit range")
    return int(target_ranks(scores[None, :], np.array([target]))[0])


def target_ranks(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise ``rank_of_target`` over a (rows, items) logit matrix."""
    t = logits[np.arange(len(targets)), targets][:, None]
    lower = np.arange(logits.shape[1]) < targets[:, None]
    return 1 + (logits > t).sum(axis=1) + ((logits == t) & lower).sum(axis=1)


def recall_at_k(ranks: Sequence[float], k: int) -> float:
    """Fraction of ranks <= k; infinite ranks (unrankable targets) count as misses."""
    if k < 1:
        raise ValueError("recall_at_k: k must be >= 1")
    if len(ranks) == 0:
        raise ValueError("recall_at_k: empty test set")
    return sum(1 for r in ranks if r <= k) / len(ranks)


def mrr_at_k(ranks: Sequence[float], k: int) -> float:
    """Mean reciprocal rank, zeroed beyond k."""
    if k < 1:
        raise ValueError("mrr_at_k: k must be >= 1")
    if len(ranks) == 0:
        raise ValueError("mrr_at_k: empty test set")
    return sum(1.0 / r for r in ranks if r <= k) / len(ranks)


def aggregate(reports: Sequence[CycleReport]) -> dict[str, float]:
    """Mean metric values across cycles; each cycle counts once regardless of its test-set size."""
    if not reports:
        raise ValueError("aggregate: no reports")
    ks = sorted(reports[0].recall_at)
    n = len(reports)
    out: dict[str, float] = {}
    for k in ks:
        out[f"recall@{k}"] = sum(r.recall_at[k] for r in reports) / n
        out[f"mrr@{k}"] = sum(r.mrr_at[k] for r in reports) / n
    out["unseen_target_fraction"] = sum(r.unseen_target_fraction for r in reports) / n
    return out
