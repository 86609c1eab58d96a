"""Output checks computed apart from the program.

Everything here works on plain numbers and tuples: the cycle contents
(``Cycle``), the settings the run was given (``Protocol``) and what the
run reported (``CycleOutput``). The expected values are recomputed from
the cycle contents with the README's formulas, never by calling the
program. Each check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Example = tuple[tuple[int, ...], int]  # (prefix, target)
LAMBDA_BASE = 0.8  # MethodSpec's default, which every workload uses


@dataclass
class Cycle:
    """One update cycle's data as the benchmark sees it."""

    train: list[Example]
    validation: list[Example]
    item_count: int  # vocabulary size after this cycle

    @property
    def examples(self) -> list[Example]:
        return self.train + self.validation


@dataclass(frozen=True)
class Protocol:
    """The settings a continual run was given."""

    method: str  # "ADER" or "Joint"
    max_epochs: int
    patience: int
    batch_size: int
    kd_batch_size: int
    capacity: int = 0  # exemplar store size; 0 when the method keeps none


@dataclass
class EpochOutput:
    epoch: int
    losses: dict[str, float]  # ce, kd, ewc, total
    lambda_t: float
    val_loss: float


@dataclass
class CycleOutput:
    """What the program reported for one update cycle."""

    cycle: int
    epochs: list[EpochOutput]
    recall: dict[int, float]
    mrr: dict[int, float]
    test_count: int
    unseen_fraction: float
    exemplar_count: int | None = None  # None when the run does not report it


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------


def exemplar_counts(cycles: Sequence[Cycle], capacity: int) -> list[int]:
    """Store size after each cycle: min(capacity, new training data + previous store)."""
    sizes, store = [], 0
    for cyc in cycles:
        store = min(capacity, len(cyc.train) + store)
        sizes.append(store)
    return sizes


def expected_lambdas(cycles: Sequence[Cycle], proto: Protocol) -> list[float]:
    """lambda_t = lambda_base * sqrt((|I_{t-1}| / |I_t|) * (|E_{t-1}| / |D_t|)), 0 in cycle 0 and for Joint."""
    if proto.method != "ADER":
        return [0.0] * len(cycles)
    stores = exemplar_counts(cycles, proto.capacity)
    out = [0.0]
    for t in range(1, len(cycles)):
        old_items = cycles[t - 1].item_count
        ratio = (old_items / cycles[t].item_count) * (stores[t - 1] / len(cycles[t].train))
        out.append(LAMBDA_BASE * math.sqrt(ratio))
    return out


def ce_pool_size(cycles: Sequence[Cycle], t: int, proto: Protocol) -> int:
    """Rows of cross-entropy data per epoch: the cycle's own data, or all history for Joint."""
    if proto.method == "Joint":
        return sum(len(c.train) for c in cycles[: t + 1])
    return len(cycles[t].train)


def training_work(cycles: Sequence[Cycle], outputs: Sequence[CycleOutput], proto: Protocol) -> tuple[int, int]:
    """Adam steps and training rows (CE plus KD) implied by the epoch log and the cycle sizes."""
    stores = exemplar_counts(cycles, proto.capacity) if proto.capacity else [0] * len(cycles)
    steps = rows = 0
    for out in outputs:
        t = out.cycle
        pool = ce_pool_size(cycles, t, proto)
        per_epoch = math.ceil(pool / proto.batch_size)
        kd_rows = 0
        if proto.method == "ADER" and t > 0 and out.epochs and out.epochs[0].lambda_t != 0.0:
            kd_rows = min(proto.kd_batch_size, stores[t - 1])
        epochs = len(out.epochs)
        steps += epochs * per_epoch
        rows += epochs * (pool + per_epoch * kd_rows)
    return steps, rows


def unseen_fraction(test: Sequence[Example], item_range: int) -> float:
    """Share of test examples whose target, or whose whole prefix, lies outside the item range."""
    unseen = sum(1 for prefix, target in test if target >= item_range or all(i >= item_range for i in prefix))
    return unseen / len(test)


def popularity_recall(cycles: Sequence[Cycle], k: int = 20) -> float:
    """Cycle-mean Recall@k of ranking items by their count among the cycle's training targets.

    Ties go to the lower item index; targets outside the item range are misses.
    """
    values = []
    for t in range(len(cycles) - 1):
        item_range = cycles[t].item_count
        counts = np.bincount([target for _, target in cycles[t].train], minlength=item_range)[:item_range]
        top = set(np.argsort(-counts, kind="stable")[:k].tolist())
        test = cycles[t + 1].examples
        values.append(sum(1 for _, target in test if target in top) / len(test))
    return float(np.mean(values))


def rank_oracle(logits: np.ndarray, target: int) -> int:
    """1-based rank of the target by a stable sort on descending score (ties to the lower index)."""
    order = np.argsort(-np.asarray(logits, dtype=np.float64), kind="stable")
    return int(np.flatnonzero(order == target)[0]) + 1


def quota_oracle(counts: Sequence[int], capacity: int) -> list[int]:
    """Largest-remainder quotas in exact rational arithmetic."""
    counts = [int(c) for c in counts]
    total = sum(counts)
    if capacity >= total:
        return counts
    real = [Fraction(capacity * c, total) for c in counts]
    quotas = [int(r) for r in real]
    order = sorted(range(len(counts)), key=lambda i: (-(real[i] - quotas[i]), i))
    for i in order[: capacity - sum(quotas)]:
        quotas[i] += 1
    return quotas


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_cycle(out: CycleOutput, cycles: Sequence[Cycle], proto: Protocol, tol: float = 1e-9) -> list[str]:
    """All per-cycle checks of one reported update cycle."""
    t = out.cycle
    fails: list[str] = []
    if not 0 <= t < len(cycles) - 1:
        return [f"cycle {t}: not an update cycle of this stream"]
    test = cycles[t + 1].examples

    want_lambda = expected_lambdas(cycles, proto)[t]
    for ep in out.epochs:
        if not math.isclose(ep.lambda_t, want_lambda, rel_tol=tol, abs_tol=tol):
            fails.append(f"cycle {t}: lambda {ep.lambda_t!r} at epoch {ep.epoch}, expected {want_lambda!r}")
            break
    if proto.method != "ADER" and any(ep.losses.get("kd", 0.0) != 0.0 for ep in out.epochs):
        fails.append(f"cycle {t}: {proto.method} logged a nonzero KD loss")

    if out.test_count != len(test):
        fails.append(f"cycle {t}: test_count {out.test_count}, next cycle has {len(test)} examples")
    want_unseen = unseen_fraction(test, cycles[t].item_count)
    if not math.isclose(out.unseen_fraction, want_unseen, rel_tol=0, abs_tol=tol):
        fails.append(f"cycle {t}: unseen_target_fraction {out.unseen_fraction!r}, counted {want_unseen!r}")

    for k in sorted(out.recall):
        r, m = out.recall[k], out.mrr.get(k, math.nan)
        if not 0.0 <= m <= r <= 1.0:
            fails.append(f"cycle {t}: expected 0 <= MRR@{k} ({m!r}) <= Recall@{k} ({r!r}) <= 1")
    if 10 in out.recall and 20 in out.recall and out.recall[10] > out.recall[20]:
        fails.append(f"cycle {t}: Recall@10 {out.recall[10]!r} > Recall@20 {out.recall[20]!r}")

    for ep in out.epochs:
        bad = [name for name, v in {**ep.losses, "val_loss": ep.val_loss}.items() if not math.isfinite(v)]
        if bad:
            fails.append(f"cycle {t}: non-finite {', '.join(bad)} at epoch {ep.epoch}")

    n = len(out.epochs)
    if n == 0 or n > proto.max_epochs:
        fails.append(f"cycle {t}: trained {n} epochs, cap {proto.max_epochs}")
    elif n < proto.max_epochs:
        losses = [ep.val_loss for ep in out.epochs]
        if n <= proto.patience or min(losses[n - proto.patience :]) < min(losses[: n - proto.patience]):
            fails.append(f"cycle {t}: stopped after {n} epochs without {proto.patience} epochs of no improvement")

    if proto.capacity and out.exemplar_count is not None:
        want = exemplar_counts(cycles, proto.capacity)[t]
        if out.exemplar_count != want:
            fails.append(f"cycle {t}: exemplar store holds {out.exemplar_count}, expected {want}")
    return fails


def check_popularity(outputs: Sequence[CycleOutput], cycles: Sequence[Cycle], k: int = 20) -> list[str]:
    """The run's cycle-mean Recall@k must beat the most-popular baseline."""
    mean = float(np.mean([out.recall[k] for out in outputs]))
    baseline = popularity_recall(cycles, k)
    if not mean > baseline:
        return [f"mean Recall@{k} {mean:.4f} does not beat the most-popular baseline {baseline:.4f}"]
    return []


def check_rank_samples(samples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[str]:
    fails = []
    for logits, targets, ranks in samples:
        for row, target, rank in zip(logits, targets, ranks):
            want = rank_oracle(row, int(target))
            if int(rank) != want:
                fails.append(f"target_ranks gave {int(rank)} for target {int(target)}, oracle {want}")
    return fails


def check_quota_samples(samples: Sequence[tuple[np.ndarray, int, np.ndarray]]) -> list[str]:
    fails = []
    for counts, capacity, quotas in samples:
        want = quota_oracle(counts, capacity)
        if [int(q) for q in quotas] != want:
            fails.append(f"allocate_quota(capacity={capacity}) differs from the rational oracle")
    return fails
