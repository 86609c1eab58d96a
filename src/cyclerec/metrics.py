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
    epochs_trained: int = 0


def target_ranks(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """1-based rank of each row's target in a (rows, items) logit matrix; a non-finite target score raises.

    rank = 1 + items scoring strictly higher + items scoring equal at a
    lower index (a deterministic tie-break).
    """
    t = logits[np.arange(len(targets)), targets][:, None]
    if not np.isfinite(t).all():
        raise ValueError("target_ranks: a target's score is not finite")
    ranks = 1 + np.count_nonzero(logits > t, axis=1)
    equal = logits == t
    tied = np.flatnonzero(np.count_nonzero(equal, axis=1) > 1)  # the target itself is always one
    for row in tied.tolist():  # rare: count only the equal scores before the target
        ranks[row] += np.count_nonzero(equal[row, : targets[row]])
    return ranks


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
