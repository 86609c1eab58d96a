"""Fixed-capacity exemplar memory.

Quotas are proportional to item frequency in the current pool (new data
plus the previous store), rounded by floor-then-largest-remainder so the
capacity is hit exactly. Within an item, examples are picked greedily so
the running feature average tracks the item's mean feature (herding), or
by the random / smallest-loss / equal-allocation ablation rules. One
encoder pass over the pool serves herding and the loss rule, and the store
keeps the chosen rows' features, from which the next cycle's teacher
distributions are computed with no new encoder pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .data import Examples, TrainingExample
from .losses import ce_rows_from_logits
from .model import ModelState, extract_features_batch, logit_blocks


class SelectionStrategy(str, Enum):
    HERDING = "herding"
    RANDOM = "random"
    LOSS = "loss"
    EQUAL_HERDING = "equal_herding"


@dataclass
class ExemplarSet:
    """The exemplar store as flat rows.

    ``examples`` run in ascending target item, each item's in selection
    order (herding picks first). ``features`` holds their rows of the
    selection pass, under the model that chose them (``None`` under
    random selection, which encodes nothing).
    """

    examples: Examples
    features: np.ndarray | None = None


def allocate_quota(pool_counts: Sequence[int] | np.ndarray, capacity: int) -> np.ndarray:
    """Frequency-proportional integer quotas summing to min(capacity, pool).

    Real quotas capacity*c_i/C are floored, then the shortfall goes to the
    largest fractional remainders, ties to the lower item index. All
    arithmetic is integer, so the rounding is exact.
    """
    counts = np.asarray(pool_counts, dtype=np.int64)
    if capacity < 1:
        raise ValueError("allocate_quota: capacity must be >= 1")
    if (counts < 0).any():
        raise ValueError("allocate_quota: negative counts")
    total = int(counts.sum())
    if total == 0:
        raise ValueError("allocate_quota: all counts zero")
    if capacity >= total:
        return counts.copy()
    scaled = capacity * counts
    quotas = scaled // total
    remainders = scaled - quotas * total
    shortfall = capacity - int(quotas.sum())
    if shortfall > 0:
        order = np.lexsort((np.arange(len(counts)), -remainders))
        quotas[order[:shortfall]] += 1
    return quotas


def equal_quota(pool_counts: Sequence[int] | np.ndarray, capacity: int) -> np.ndarray:
    """Equal per-item quotas with remainder to the lowest indices.

    Quotas are clamped to each item's pool count; spare capacity is then
    redistributed one slot a pass across items that still have unstored
    examples, so the store ends at min(capacity, pool) like the
    frequency-proportional rule.
    """
    counts = np.asarray(pool_counts, dtype=np.int64)
    if capacity < 1:
        raise ValueError("equal_quota: capacity must be >= 1")
    n_items = len(counts)
    base, rem = divmod(capacity, n_items)
    quotas = np.full(n_items, base, dtype=np.int64)
    quotas[:rem] += 1
    quotas = np.minimum(quotas, counts)
    target_total = min(capacity, int(counts.sum()))
    left = target_total - int(quotas.sum())
    while left > 0:
        spare = np.flatnonzero(counts > quotas)
        take = spare[:left]
        quotas[take] += 1
        left -= len(take)
    return quotas


def herding_order(features: np.ndarray, quota: int) -> list[int]:
    """Greedy index sequence approximating the candidates' mean feature vector mu.

    Step k picks the unselected candidate minimizing
    ||mu - (phi(x) + sum of already selected) / k||; ties go to the
    earliest candidate. Selection is without replacement.

    The comparison is evaluated in the scaled form
    ||k*n*mu - n*(phi(x) + sum)|| (argmin-equivalent, positive scale k*n):
    it involves no division, so integer-valued feature sets are compared
    in exact arithmetic and ties are broken reproducibly.
    """
    feats = np.asarray(features, dtype=np.float64)
    n = len(feats)
    if quota > n:
        raise ValueError("herding_order: quota exceeds candidate count")
    total = feats.sum(axis=0)  # n * mu
    chosen: list[int] = []
    running = np.zeros_like(total)
    alive = np.ones(n, dtype=bool)
    for k in range(1, quota + 1):
        delta = k * total - n * (feats + running)
        dist2 = np.einsum("nd,nd->n", delta, delta)
        dist2[~alive] = np.inf
        pick = int(np.argmin(dist2))
        alive[pick] = False
        running += feats[pick]
        chosen.append(pick)
    return chosen


def select_exemplars(
    model: ModelState,
    pool: Sequence[TrainingExample],
    capacity: int,
    strategy: SelectionStrategy = SelectionStrategy.HERDING,
    seed: int = 0,
) -> ExemplarSet:
    """Build the next exemplar store from the current pool.

    Every strategy but random selection encodes the pool once under the
    given model with dropout off; herding reads those features and the loss
    rule ranks by per-row cross entropy over them, scored in blocks of
    ``model.BLOCK_ROWS`` rows (``logit_blocks``), and the chosen rows'
    features go into the store. Items are processed in ascending index; random draws use a
    per-item seed stream so results are independent of grouping order.
    """
    if not pool:
        raise ValueError("select_exemplars: empty pool")
    strategy = SelectionStrategy(strategy)
    pool = Examples.of(pool)
    targets = pool.targets
    counts = np.bincount(targets, minlength=model.item_count)
    if strategy is SelectionStrategy.EQUAL_HERDING:
        quotas = equal_quota(counts, capacity)
    else:
        quotas = allocate_quota(counts, capacity)

    by_target = np.argsort(targets, kind="stable")  # each item's rows, ascending, item after item
    present, firsts = np.unique(targets[by_target], return_index=True)

    feats = None
    if strategy is not SelectionStrategy.RANDOM:
        feats = extract_features_batch(model, pool)
    if strategy is SelectionStrategy.LOSS:
        per_example_loss = np.empty(len(pool), dtype=feats.dtype)
        for block, logits in logit_blocks(model, feats, model.item_count):
            per_example_loss[block] = ce_rows_from_logits(logits, targets[block])

    chosen: list[int] = []
    for item, members in zip(present.tolist(), np.split(by_target, firsts[1:])):
        quota = int(min(quotas[item], len(members)))
        if quota == 0:
            continue
        if strategy is SelectionStrategy.RANDOM:
            rng = np.random.default_rng(np.random.SeedSequence([seed, item]))
            order = rng.choice(len(members), size=quota, replace=False).tolist()
        elif strategy is SelectionStrategy.LOSS:  # smallest per-example cross entropy
            order = np.argsort(per_example_loss[members], kind="stable")[:quota].tolist()
        else:
            order = herding_order(feats[members], quota)
        chosen.extend(members[order].tolist())
    return ExemplarSet(pool[np.array(chosen, dtype=np.int64)], None if feats is None else feats[chosen])
