"""Continual train-then-evaluate protocol.

For each update cycle the current model is grown to the new vocabulary,
trained with the method's loss recipe, evaluated on the *next* cycle's
data, and the exemplar store is refreshed. An epoch visits the training
pool as whole session chains in a random order, cut into steps of
``batch_size`` rows, so a step encodes each session once, as SASRec
batches whole sequences. Training stops early on the validation cross
entropy (dropout off, over the item range training uses): ``update_model``
keeps the lowest loss and a snapshot of that epoch's parameters, stops
after ``patience`` (default 5) epochs without a strict decrease, and
restores the snapshot. A cycle with no validation examples trains to
``max_epochs``. Validation Recall@20 from the same forward pass goes to
the epoch log only.

Cycles are strictly sequential; method x seed runs are independent and
may be dispatched to worker processes.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .data import CycleDataset, TrainingExample
from .exemplars import ExemplarSet, SelectionStrategy, select_exemplars
from .losses import adaptive_lambda, ce_rows_from_logits, fisher_diagonal, teacher_probabilities
from .metrics import CycleReport, aggregate, mrr_at_k, recall_at_k, target_ranks
from .model import (
    BatchSpec,
    DivergenceError,
    ModelConfig,
    ModelState,
    PrefixTable,
    TableRows,
    extract_features_batch,
    grow_vocabulary,
    init_model,
    logit_blocks,
    loss_and_gradients,
    adam_step,
    splice_item_rows,
)

logger = logging.getLogger(__name__)


class MethodKind(str, Enum):
    FINETUNE = "Finetune"
    DROPOUT = "Dropout"
    EWC = "EWC"
    JOINT = "Joint"
    ADER = "ADER"
    ADER_EQUAL = "ADER_equal"
    ADER_FIX = "ADER_fix"
    ER_HERDING = "ER_herding"
    ER_RANDOM = "ER_random"
    ER_LOSS = "ER_loss"

    @classmethod
    def parse(cls, name: str) -> "MethodKind":
        for kind in cls:
            if name.lower() in (kind.name.lower(), kind.value.lower()):
                return kind
        raise ValueError(f"unknown method '{name}' (choose from {[k.value for k in cls]})")


KD_KINDS = {MethodKind.ADER, MethodKind.ADER_EQUAL, MethodKind.ADER_FIX}
ER_KINDS = {MethodKind.ER_HERDING, MethodKind.ER_RANDOM, MethodKind.ER_LOSS}
EXEMPLAR_KINDS = KD_KINDS | ER_KINDS | {MethodKind.EWC}
NO_DROPOUT_KINDS = {MethodKind.FINETUNE, MethodKind.EWC}  # the dropout variant is its own baseline

_SELECTION = {
    MethodKind.EWC: SelectionStrategy.HERDING,
    MethodKind.ADER: SelectionStrategy.HERDING,
    MethodKind.ADER_FIX: SelectionStrategy.HERDING,
    MethodKind.ADER_EQUAL: SelectionStrategy.EQUAL_HERDING,
    MethodKind.ER_HERDING: SelectionStrategy.HERDING,
    MethodKind.ER_RANDOM: SelectionStrategy.RANDOM,
    MethodKind.ER_LOSS: SelectionStrategy.LOSS,
}


@dataclass
class MethodSpec:
    """A continual-learning method and its hyperparameters.

    The method owns the dropout rate: ``update_model`` trains every step at ``dropout_rate``.
    """

    kind: MethodKind
    lambda_base: float = 0.8
    fixed_lambda: float = 0.8
    exemplar_capacity: int = 1000
    dropout_rate: float | None = None  # None resolves to the kind's default
    ewc_strength: float = 100.0

    def __post_init__(self) -> None:
        self.kind = MethodKind(self.kind)
        if self.dropout_rate is None:
            self.dropout_rate = 0.0 if self.kind in NO_DROPOUT_KINDS else 0.3
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"{self.kind.value}: dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.kind in NO_DROPOUT_KINDS and self.dropout_rate != 0.0:
            raise ValueError(f"{self.kind.value}: dropout must be 0 (the dropout variant is its own baseline)")
        capacity = self.exemplar_capacity
        if isinstance(capacity, bool) or not isinstance(capacity, numbers.Integral):
            raise ValueError(f"{self.kind.value}: exemplar_capacity must be an integer, got {capacity!r}")
        if self.kind in EXEMPLAR_KINDS and capacity < 1:
            raise ValueError(f"{self.kind.value}: exemplar_capacity must be positive")
        for name in ("lambda_base", "fixed_lambda", "ewc_strength"):
            value = getattr(self, name)
            usable = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (usable and math.isfinite(value) and value >= 0):
                raise ValueError(f"{self.kind.value}: {name} must be a finite number >= 0, got {value!r}")

    @property
    def selection_strategy(self) -> SelectionStrategy | None:
        return _SELECTION.get(self.kind)

    @property
    def name(self) -> str:
        return self.kind.value


@dataclass
class TrainLoopConfig:
    max_epochs: int = 100
    patience: int = 5
    batch_size: int = 128
    learning_rate: float = 5e-4
    seed: int = 0
    kd_batch_size: int | None = None

    def __post_init__(self) -> None:
        # a negative kd_batch_size skipped distillation; a float count failed only once training ran
        for name in ("max_epochs", "patience", "batch_size", "kd_batch_size"):
            value = getattr(self, name)
            if value is None and name == "kd_batch_size":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"train loop: {name} must be an integer >= 1, got {value!r}")
        if self.patience >= self.max_epochs:
            raise ValueError("train loop: patience must be < max_epochs")
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"train loop: learning_rate must be finite and > 0, got {rate!r}")


VAL_RECALL_K = 20  # cutoff of the logged validation recall


@dataclass
class EpochRecord:
    cycle: int
    epoch: int
    ce: float
    kd: float
    ewc: float
    total: float
    lambda_t: float
    val_loss: float
    val_recall: float


@dataclass
class ExperimentState:
    """Everything carried across cycles for one method run."""

    model: ModelState
    exemplars: ExemplarSet | None = None
    joint_buffer: list[TrainingExample] = field(default_factory=list)
    ewc_anchor: np.ndarray | None = None  # laid out like ``model.flat_params``
    ewc_fisher: np.ndarray | None = None
    last_cycle: int = -1


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def evaluate_model(
    model: ModelState,
    examples: Sequence[TrainingExample],
    item_range: int,
    ks: Sequence[int] = (10, 20),
) -> tuple[dict[int, float], dict[int, float], float]:
    """Full-ranking recall/MRR of ``model`` over the first ``item_range`` items.

    Targets outside the range cannot be ranked and count as misses; prefix
    items outside the range are dropped (a fully-unseen prefix is a miss).
    ``model.BLOCK_ROWS`` rows are encoded and ranked at a time, so the pass
    holds one (BLOCK_ROWS, item_range) logit block of the model's workspace.
    """
    if not examples:
        raise ValueError("evaluate_model: empty test set")
    ranks = np.full(len(examples), np.inf)
    prefixes = [tuple(j for j in ex.prefix if j < item_range) for ex in examples]
    rows = np.array([i for i, ex in enumerate(examples) if ex.target < item_range and prefixes[i]], dtype=np.int64)
    targets = np.array([examples[i].target for i in rows], dtype=np.int64)
    feats = extract_features_batch(model, [prefixes[i] for i in rows])
    for block, logits in logit_blocks(model, feats, item_range):
        ranks[rows[block]] = target_ranks(logits, targets[block])
    recall = {k: recall_at_k(ranks, k) for k in ks}
    mrr = {k: mrr_at_k(ranks, k) for k in ks}
    return recall, mrr, 1.0 - len(rows) / len(examples)


def _validation_scores(model: ModelState, examples) -> tuple[float, float]:
    """Cross entropy and Recall@20 over the model's full item range, dropout off.

    Each block of rows is ranked, then overwritten by its per-row cross
    entropy; the loss is the mean of those (rows,) values.
    """
    feats = extract_features_batch(model, [ex.prefix for ex in examples])
    targets = np.array([ex.target for ex in examples])
    ranks = np.empty(len(examples), dtype=np.int64)
    ce = np.empty(len(examples), dtype=feats.dtype)
    for block, logits in logit_blocks(model, feats, model.item_count):
        ranks[block] = target_ranks(logits, targets[block])
        ce[block] = ce_rows_from_logits(logits, targets[block])
    return float(ce.mean()), recall_at_k(ranks, VAL_RECALL_K)


def _session_chains(table: PrefixTable, count: int) -> list[np.ndarray]:
    """The first ``count`` rows of ``table`` grouped by the root of their trimmed prefixes, each chain ascending.

    Rows whose trimmed prefixes nest share a root (``PrefixTable.roots``),
    so a chain is in practice one session's training positions; a session
    longer than ``max_seq_len`` splits where its trimmed windows stop nesting.
    """
    roots = table.roots(np.arange(count))
    order = np.argsort(roots, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(roots[order])) + 1)


def update_model(
    state: ExperimentState,
    cycle_data: CycleDataset,
    method: MethodSpec,
    loop_cfg: TrainLoopConfig,
    audit: list | None = None,
) -> list[EpochRecord]:
    """Train one cycle per the method's recipe and refresh the exemplar store."""
    t = cycle_data.cycle_id
    if t != state.last_cycle + 1:
        raise ValueError(f"update_model: expected cycle {state.last_cycle + 1}, got {t}")
    if not cycle_data.train:
        raise ValueError(f"update_model: cycle {t} has no training data")
    if audit is not None:
        audit.append(("train", t, len(cycle_data.train)))

    model = state.model
    old_item_count = model.item_count
    store = state.exemplars
    exemplar_examples = store.examples if store else []
    lambda_t = 0.0
    if method.kind in KD_KINDS and exemplar_examples:
        if method.kind is MethodKind.ADER_FIX:
            lambda_t = method.fixed_lambda
        else:
            lambda_t = adaptive_lambda(
                method.lambda_base, old_item_count, cycle_data.item_count_after,
                len(exemplar_examples), len(cycle_data.train),
            )
    kd_examples = exemplar_examples if lambda_t != 0.0 else []
    if kd_examples:
        # the model is still the previous cycle's restored one, which chose the
        # store and encoded its rows: the teacher's distributions need no new pass
        teacher_probs = teacher_probabilities(model, store.features, old_item_count)
    grow_vocabulary(model, cycle_data.item_count_after, seed=_derived_seed(loop_cfg.seed, t, 101))
    if state.ewc_anchor is not None:  # new rows carry zero Fisher weight, so their anchor value is inert
        pad = np.zeros((model.item_count - old_item_count, model.config.embed_dim), dtype=model.config.np_dtype)
        state.ewc_anchor = splice_item_rows(state.ewc_anchor, old_item_count, pad)
        state.ewc_fisher = splice_item_rows(state.ewc_fisher, old_item_count, pad)

    ce_pool: list[TrainingExample] = list(cycle_data.train)
    if method.kind is MethodKind.JOINT:
        ce_pool = list(state.joint_buffer) + ce_pool
    if method.kind in ER_KINDS and exemplar_examples:
        ce_pool = ce_pool + exemplar_examples

    ewc_active = method.kind is MethodKind.EWC and state.ewc_anchor is not None

    # one table per cycle: the CE pool, then the distilled exemplars; a step passes row indices into it
    cycle_rows = TableRows.of(ce_pool + kd_examples, model.config.max_seq_len)
    chains = _session_chains(cycle_rows.table, len(ce_pool))
    # every step and pass takes its arrays from the model's workspace; each
    # step's gradients are consumed by adam_step before the next step or pass reuses them
    kd_bs = loop_cfg.kd_batch_size or loop_cfg.batch_size
    kd_cursor = 0
    best_loss, best_epoch, stale, snapshot = math.inf, 0, 0, None
    records: list[EpochRecord] = []
    has_validation = bool(cycle_data.validation)
    if not has_validation:
        logger.warning("cycle %d has no validation examples; early stopping disabled", t)

    for epoch in range(1, loop_cfg.max_epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence([loop_cfg.seed, t, epoch, 7]))
        # whole chains in a random order, cut every batch_size rows
        order = np.concatenate([chains[i] for i in rng.permutation(len(chains))])
        sums = {"ce": 0.0, "kd": 0.0, "ewc": 0.0, "total": 0.0}
        steps = 0
        for lo in range(0, len(order), loop_cfg.batch_size):
            spec = BatchSpec(
                ce_examples=cycle_rows[order[lo : lo + loop_cfg.batch_size]],
                dropout_rate=method.dropout_rate,
                dropout_seed=_derived_seed(loop_cfg.seed, t, epoch, steps),
            )
            if kd_examples:
                sel = (kd_cursor + np.arange(min(kd_bs, len(kd_examples)))) % len(kd_examples)
                kd_cursor = (kd_cursor + len(sel)) % len(kd_examples)
                spec.kd_examples = cycle_rows[len(ce_pool) + sel]
                spec.kd_teacher_probs = teacher_probs[sel]
                spec.kd_weight = lambda_t
            if ewc_active:
                spec.ewc_anchor = state.ewc_anchor
                spec.ewc_fisher = state.ewc_fisher
                spec.ewc_weight = method.ewc_strength
            try:
                breakdown, grads = loss_and_gradients(model, spec)
            except DivergenceError as err:
                raise DivergenceError(f"cycle {t} epoch {epoch} step {steps}: {err}") from err
            adam_step(model, grads, lr=loop_cfg.learning_rate)
            for key, val in (("ce", breakdown.ce), ("kd", breakdown.kd),
                             ("ewc", breakdown.ewc), ("total", breakdown.total)):
                sums[key] += val
            steps += 1
        val_loss, val_recall = _validation_scores(model, cycle_data.validation) if has_validation else (0.0, 0.0)
        records.append(EpochRecord(t, epoch, sums["ce"] / steps, sums["kd"] / steps, sums["ewc"] / steps,
                                   sums["total"] / steps, lambda_t, val_loss, val_recall))
        logger.debug("cycle %d epoch %d: total=%.4f val_loss=%.4f val_recall@%d=%.4f",
                     t, epoch, sums["total"] / steps, val_loss, VAL_RECALL_K, val_recall)
        if has_validation:
            stale += 1
            if val_loss < best_loss:  # a strict decrease; the copy reuses the snapshot's vectors, so a cycle makes one
                best_loss, best_epoch, stale, snapshot = val_loss, epoch, 0, model.copy(out=snapshot)
            if stale >= loop_cfg.patience:
                break

    if snapshot is not None:
        state.model = model = snapshot
        logger.info("cycle %d: stopped after %d epochs, restored epoch %d (val loss %.4f)",
                    t, records[-1].epoch, best_epoch, best_loss)

    if method.kind in EXEMPLAR_KINDS:
        pool = list(cycle_data.train) + exemplar_examples
        state.exemplars = select_exemplars(
            model, pool, method.exemplar_capacity, method.selection_strategy,
            seed=_derived_seed(loop_cfg.seed, t, 55),
        )
        if audit is not None:
            audit.append(("exemplars", t, len(state.exemplars.examples)))
    if method.kind is MethodKind.EWC and state.exemplars is not None:
        state.ewc_anchor = model.flat_params.copy()
        state.ewc_fisher = fisher_diagonal(model, state.exemplars.examples)
    if method.kind is MethodKind.JOINT:
        state.joint_buffer.extend(cycle_data.train)

    state.last_cycle = t
    return records


@dataclass
class RunResult:
    """Per-cycle reports plus diagnostics for one (method, seed) run."""

    method: MethodSpec
    seed: int
    reports: list[CycleReport]
    epoch_log: list[EpochRecord]
    audit: list[tuple]
    means: dict[str, float]


def run_experiment(
    datasets: Sequence[CycleDataset],
    method: MethodSpec,
    loop_cfg: TrainLoopConfig,
    model_cfg: ModelConfig,
    ks: Sequence[int] = (10, 20),
) -> RunResult:
    """Train on cycles 0..T-2, evaluating each trained model on the next cycle.

    The final cycle is used only as test data. Reports are indexed by the
    update cycle (the cycle trained on).
    """
    if len(datasets) < 2:
        raise ValueError("run_experiment: need at least 2 cycles (last one is test-only)")
    model = init_model(model_cfg, datasets[0].item_count_after, seed=_derived_seed(loop_cfg.seed, 11))
    state = ExperimentState(model=model)
    audit: list[tuple] = []
    epoch_log: list[EpochRecord] = []
    reports: list[CycleReport] = []
    for t in range(len(datasets) - 1):
        records = update_model(state, datasets[t], method, loop_cfg, audit=audit)
        epoch_log.extend(records)
        nxt = datasets[t + 1]
        audit.append(("eval", t + 1, len(nxt.train) + len(nxt.validation)))
        test = nxt.examples
        recall, mrr, unseen = evaluate_model(state.model, test, state.model.item_count, ks=ks)
        report = CycleReport(
            cycle_id=t,
            recall_at=recall,
            mrr_at=mrr,
            test_example_count=len(test),
            unseen_target_fraction=unseen,
            epochs_trained=len(records),
        )
        reports.append(report)
        logger.info("%s seed=%d cycle %d: recall@20=%.4f epochs=%d",
                    method.name, loop_cfg.seed, t, recall.get(20, max(recall.values())), len(records))
    return RunResult(method, loop_cfg.seed, reports, epoch_log, audit, aggregate(reports))


@dataclass
class ComparisonResult:
    """All runs of a method x seed grid, in (method, seed) order."""

    runs: list[RunResult]
    ks: tuple[int, ...]


def _run_job(args) -> RunResult:
    datasets, method, loop_cfg, model_cfg, ks = args
    return run_experiment(datasets, method, loop_cfg, model_cfg, ks=ks)


def compare_methods(
    datasets: Sequence[CycleDataset],
    methods: Sequence[MethodSpec],
    seeds: Sequence[int],
    loop_cfg: TrainLoopConfig,
    model_cfg: ModelConfig,
    ks: Sequence[int] = (10, 20),
    workers: int = 1,
) -> ComparisonResult:
    """Run every method with every seed; order of results is deterministic."""
    if not seeds:
        raise ValueError("compare_methods: need at least one seed")
    if not methods:
        raise ValueError("compare_methods: need at least one method")
    if workers < 1:
        raise ValueError(f"compare_methods: workers must be >= 1, got {workers}")
    jobs = [
        (list(datasets), method, dataclasses.replace(loop_cfg, seed=seed), model_cfg, tuple(ks))
        for method in methods
        for seed in seeds
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]
    return ComparisonResult(runs=results, ks=tuple(ks))
