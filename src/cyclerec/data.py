"""Session-log ingestion, filtering, cycle splitting, and synthetic streams.

The pipeline turns raw click events into per-cycle training datasets:
``ingest -> preprocess -> split_cycles``, or ``generate_synthetic_stream``
for self-contained experiments. Every function is a pure function of its
inputs and explicit seeds; nothing touches global RNG state.

A click log travels as columns, never as one Python object per click.
``ingest`` returns an ``EventLog``: three int64 arrays in input order
(session code, timestamp, item code), where both codes number keys in
order of first appearance, plus the key lists the codes index.
``preprocess`` counts, filters, sorts and groups those arrays with numpy
and registers items in one pass over the surviving walk; ``split_cycles``
buckets sessions and fills ``cycle_first_seen`` with array operations.
The first objects made per event are the ``Session`` item lists and the
``TrainingExample``s the sessions expand into.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

WEEK_SECONDS = 7 * 24 * 3600
DEFAULT_MAX_SEQ_LEN = 50
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, eq=False)
class EventLog:
    """A click log as columns: one entry per event, in input order.

    ``sessions`` and ``items`` are int64 codes indexing ``session_keys``
    and ``item_keys``, numbered in order of first appearance;
    ``timestamps`` are int64 unix seconds. ``skipped`` counts the
    malformed rows left out of the columns.
    """

    sessions: np.ndarray
    timestamps: np.ndarray
    items: np.ndarray
    session_keys: list[str]
    item_keys: list[str]
    skipped: int = 0

    def __post_init__(self) -> None:
        if self.timestamps.dtype != np.int64 or self.timestamps.ndim != 1:
            raise ValueError(
                f"EventLog: timestamps must be one int64 column, got {self.timestamps.dtype} {self.timestamps.shape}"
            )
        n = len(self.timestamps)
        for name, codes, keys in (("sessions", self.sessions, self.session_keys),
                                  ("items", self.items, self.item_keys)):
            if codes.dtype != np.int64 or codes.shape != (n,):
                raise ValueError(f"EventLog: {name} must be {n} int64 codes, got {codes.dtype} {codes.shape}")
            if n and (codes.min() < 0 or codes.max() >= len(keys)):
                raise ValueError(f"EventLog: {name} codes outside [0, {len(keys)})")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class Session:
    """Time-ordered internal item indices of one browser session."""

    items: list[int]
    start_time: int


@dataclass(frozen=True)
class TrainingExample:
    """Next-item prediction instance: predict ``target`` after ``prefix``."""

    prefix: tuple[int, ...]
    target: int


@dataclass
class ItemRegistry:
    """Append-only bijection between external item keys and dense indices.

    Indices are assigned in order of first appearance, so the first ``n``
    indices always form a valid historical vocabulary snapshot. An index
    never changes meaning once assigned.
    """

    key_to_index: dict[str, int] = field(default_factory=dict)
    index_to_key: list[str] = field(default_factory=list)
    cycle_first_seen: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.index_to_key)

    def register(self, key: str, cycle: int = -1) -> int:
        idx = self.key_to_index.get(key)
        if idx is None:
            idx = len(self.index_to_key)
            self.key_to_index[key] = idx
            self.index_to_key.append(key)
            self.cycle_first_seen.append(cycle)
        return idx

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, key in enumerate(self.index_to_key):
                fh.write(f"{idx}\t{key}\t{self.cycle_first_seen[idx]}\n")


def _ints(texts: Sequence[str], where: str) -> list[int]:
    """``texts`` as integers, or a ``ValueError`` naming ``where``."""
    try:
        return [int(t) for t in texts]
    except ValueError:
        raise ValueError(f"{where}: expected integers, got {' '.join(texts)!r}") from None


@dataclass
class CycleDataset:
    """All training material belonging to one update cycle."""

    cycle_id: int
    train: list[TrainingExample]
    validation: list[TrainingExample]
    item_count_after: int

    @property
    def examples(self) -> list[TrainingExample]:
        return self.train + self.validation


@dataclass(frozen=True)
class ColumnFormat:
    """How to read a delimited event log.

    ``delimiter=None`` auto-detects tab vs comma from the header line.
    """

    session_col: str = "session_id"
    time_col: str = "timestamp"
    item_col: str = "item_id"
    delimiter: str | None = None


def ingest(path: str | Path, fmt: ColumnFormat | None = None) -> EventLog:
    """Parse a delimited event log into an ``EventLog``.

    Each kept row becomes one entry of three int64 columns: its session
    code, its timestamp (``int(float(field))``, unix seconds) and its item
    code. A row with a missing field, or whose timestamp does not parse,
    is not finite or lies outside int64, is skipped and counted in
    ``skipped``. The log holds about 50 bytes per event: 24 in the
    columns, the rest in the key strings. Raises ``ValueError`` when the
    header lacks a required column or no row parses.
    """
    fmt = fmt or ColumnFormat()
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: zero parsable rows (empty file)")
        delim = fmt.delimiter or ("\t" if "\t" in header_line else ",")
        header = next(csv.reader([header_line], delimiter=delim))
        positions = []
        for col in (fmt.session_col, fmt.time_col, fmt.item_col):
            if col not in header:
                raise ValueError(f"{path}: column '{col}' not found in header {header}")
            positions.append(header.index(col))
        si, ti, ii = positions
        needed = max(positions) + 1
        session_codes: dict[str, int] = {}
        item_codes: dict[str, int] = {}
        columns = array("q"), array("q"), array("q")
        add_session, add_time, add_item = (col.append for col in columns)
        skipped = 0
        for row in csv.reader(fh, delimiter=delim):
            if not row:
                continue
            if len(row) < needed:
                skipped += 1
                continue
            session = row[si].strip()
            item = row[ii].strip()
            raw_time = row[ti].strip()
            if not session or not item or not raw_time:
                skipped += 1
                continue
            try:
                timestamp = int(float(raw_time))
            except (ValueError, OverflowError):  # nan, inf, not a number
                skipped += 1
                continue
            if not _INT64_MIN <= timestamp <= _INT64_MAX:
                skipped += 1
                continue
            add_session(session_codes.setdefault(session, len(session_codes)))
            add_time(timestamp)
            add_item(item_codes.setdefault(item, len(item_codes)))
    if not columns[0]:
        raise ValueError(f"{path}: zero parsable rows")
    if skipped:
        logger.info("ingest %s: parsed %d events, skipped %d malformed rows", path, len(columns[0]), skipped)
    sessions, timestamps, items = (np.array(col, dtype=np.int64) for col in columns)
    return EventLog(sessions, timestamps, items, list(session_codes), list(item_codes), skipped)


def preprocess(
    log: EventLog,
    min_item_support: int = 5,
    min_session_length: int = 2,
) -> tuple[list[Session], ItemRegistry]:
    """Filter an event log and map item keys to dense indices.

    Single pass over the columns: item support is counted over all input
    events (``np.bincount``) and events of items below
    ``min_item_support`` are dropped. The rest are ordered by session,
    then timestamp, then input position (one stable ``np.lexsort``), and
    sessions left shorter than ``min_session_length`` are dropped.
    Surviving sessions are returned sorted by their first kept event's
    time, ties broken by first appearance in the log, and items are
    registered in that walk order, so the index order respects time order.
    """
    if not len(log):
        raise ValueError("preprocess: no events")
    support = np.bincount(log.items, minlength=len(log.item_keys))
    kept = np.flatnonzero(support[log.items] >= min_item_support)
    kept = kept[np.lexsort((log.timestamps[kept], log.sessions[kept]))]
    codes = log.sessions[kept]
    firsts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])  # each session's first kept event
    lengths = np.diff(np.r_[firsts, len(kept)])
    long_enough = lengths >= min_session_length
    firsts, lengths = firsts[long_enough], lengths[long_enough]
    if not len(firsts):
        raise ValueError("preprocess: all sessions filtered out")
    logger.info(
        "preprocess: dropped %d items below support %d, dropped %d sessions below length %d, kept %d sessions",
        np.count_nonzero(support < min_item_support), min_item_support,
        len(log.session_keys) - len(firsts), min_session_length, len(firsts),
    )

    start_times = log.timestamps[kept[firsts]]
    walk_order = np.lexsort((codes[firsts], start_times))
    firsts, lengths, start_times = firsts[walk_order], lengths[walk_order], start_times[walk_order]
    ends = np.cumsum(lengths)
    # the kept events session by session: each session's run of ``kept``, in walk order
    walk = log.items[kept[np.repeat(firsts - (ends - lengths), lengths) + np.arange(ends[-1])]]
    codes_seen, first_at = np.unique(walk, return_index=True)
    registered = codes_seen[np.argsort(first_at)]  # item codes by first occurrence along the walk
    index_of = np.empty(len(log.item_keys), dtype=np.int64)
    index_of[registered] = np.arange(len(registered))
    keys = [log.item_keys[c] for c in registered.tolist()]
    registry = ItemRegistry(dict(zip(keys, range(len(keys)))), keys, [-1] * len(keys))

    items = index_of[walk].tolist()
    bounds = np.r_[0, ends].tolist()
    sessions = [Session(items[a:b], t) for a, b, t in zip(bounds, bounds[1:], start_times.tolist())]
    return sessions, registry


def expand_session(session: Session, max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> list[TrainingExample]:
    """All-prefix expansion: every position j >= 1 becomes a target.

    The prefix keeps the most recent ``max_seq_len`` items before j.
    """
    items = session.items
    if len(items) < 2:
        raise ValueError("expand_session: session shorter than 2")
    if max_seq_len < 1:
        raise ValueError(f"expand_session: max_seq_len must be >= 1, got {max_seq_len}")
    out = []
    for j in range(1, len(items)):
        lo = max(0, j - max_seq_len)
        out.append(TrainingExample(tuple(items[lo:j]), items[j]))
    return out


def _split_validation(
    examples: list[TrainingExample], fraction: float, rng: np.random.Generator
) -> tuple[list[TrainingExample], list[TrainingExample]]:
    held = np.zeros(len(examples), dtype=bool)
    held[rng.permutation(len(examples))[:int(len(examples) * fraction)]] = True
    return list(compress(examples, (~held).tolist())), list(compress(examples, held.tolist()))


def _buckets(starts: np.ndarray, period_seconds: int) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty period buckets of session start times, and each session's cycle: its bucket's rank."""
    first = int(np.argmin(starts))
    if period_seconds > int(starts.max()) - int(starts[first]):
        buckets = np.zeros(len(starts), dtype=np.uint64)
    else:  # unsigned, where the gap between any two int64 times fits
        unsigned = starts.view(np.uint64)
        buckets = (unsigned - unsigned[first]) // np.uint64(period_seconds)
    return np.unique(buckets, return_inverse=True)


def split_cycles(
    sessions: list[Session],
    registry: ItemRegistry,
    period_seconds: int = WEEK_SECONDS,
    validation_fraction: float = 0.1,
    seed: int = 0,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
) -> list[CycleDataset]:
    """Bucket sessions into update cycles and expand them into examples.

    A session belongs to the bucket of its first event time. Empty buckets
    are dropped and cycle ids renumbered consecutively. Fills in
    ``registry.cycle_first_seen`` as a side effect: an item still at -1
    gets the first cycle that holds it.
    """
    if not sessions:
        raise ValueError("split_cycles: no sessions")
    if period_seconds <= 0:
        raise ValueError(f"split_cycles: period_seconds must be positive, got {period_seconds}")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(f"split_cycles: validation_fraction must be in [0, 1), got {validation_fraction}")
    starts = np.fromiter((s.start_time for s in sessions), dtype=np.int64, count=len(sessions))
    order = np.argsort(starts, kind="stable")
    bucket_ids, cycle_of = _buckets(starts[order], period_seconds)
    if len(bucket_ids) < 2:
        raise ValueError("split_cycles: fewer than 2 non-empty cycles")
    empty = int(bucket_ids[-1]) + 1 - len(bucket_ids)
    if empty:
        logger.info("split_cycles: %d empty buckets dropped, cycles renumbered", empty)
    cuts = np.searchsorted(cycle_of, np.arange(len(bucket_ids) + 1)).tolist()
    ordered = [sessions[i] for i in order.tolist()]
    cycle_examples = [
        [ex for s in ordered[lo:hi] for ex in expand_session(s, max_seq_len)] for lo, hi in zip(cuts, cuts[1:])
    ]

    lengths = np.fromiter((len(s.items) for s in ordered), dtype=np.int64, count=len(ordered))
    ends = np.cumsum(lengths)
    items = np.fromiter(chain.from_iterable(s.items for s in ordered), dtype=np.int64, count=int(ends[-1]))
    seen, first_at = np.unique(items, return_index=True)
    first_seen = np.array(registry.cycle_first_seen, dtype=np.int64)
    unset = first_seen[seen] == -1
    first_seen[seen[unset]] = np.repeat(cycle_of, lengths)[first_at[unset]]
    registry.cycle_first_seen[:] = first_seen.tolist()
    cycle_max = np.maximum.reduceat(items, np.r_[0, ends][cuts[:-1]])
    item_counts = (np.maximum.accumulate(cycle_max) + 1).tolist()

    datasets = []
    for cycle, examples in enumerate(cycle_examples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
        train, val = _split_validation(examples, validation_fraction, rng)
        datasets.append(CycleDataset(cycle, train, val, item_counts[cycle]))
    return datasets


@dataclass(frozen=True)
class SyntheticStreamConfig:
    """Desk-scale drifting session stream.

    Each item gets a random successor set when it enters the vocabulary;
    within a session the next item follows a successor with high
    probability, else a popularity draw. Between cycles the popularity
    ranking rotates by ``popularity_drift_rate`` of the vocabulary (cold
    items wrap around to hot, so items keep reappearing), a small
    fraction of successor slots is re-randomized, and
    ``new_items_per_cycle`` fresh items arrive whose share of actions
    decays over cycles. Drift rate 0 gives a stationary stream.
    """

    cycle_count: int = 8
    sessions_per_cycle: int = 500
    mean_session_length: float = 6.0
    initial_vocab: int = 220
    new_items_per_cycle: int = 10
    popularity_drift_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cycle_count < 1 or self.sessions_per_cycle < 1 or self.initial_vocab < 1:
            raise ValueError("synthetic stream: counts must be positive")
        if self.mean_session_length < 2:
            raise ValueError("synthetic stream: mean_session_length must be >= 2")
        if self.new_items_per_cycle < 0:
            raise ValueError("synthetic stream: new_items_per_cycle must be >= 0")
        if not 0.0 <= self.popularity_drift_rate <= 1.0:
            raise ValueError("synthetic stream: popularity_drift_rate must be in [0, 1]")


_ZIPF_EXPONENT = 1.25
_SUCCESSOR_PROB = 0.65
_SUCCESSORS_PER_ITEM = 4
_SUCCESSOR_REFRESH = 0.25  # fraction of drift applied to successor slots


def generate_synthetic_stream(
    cfg: SyntheticStreamConfig,
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN,
    validation_fraction: float = 0.1,
) -> tuple[list[CycleDataset], ItemRegistry]:
    """Generate a seed-deterministic drifting stream of cycle datasets."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    registry = ItemRegistry()
    vocab = cfg.initial_vocab
    for i in range(vocab):
        registry.register(f"syn-{i}", cycle=0)
    rank = rng.permutation(vocab)  # rank[i]: popularity rank of item i, 0 = hottest
    successors = rng.integers(0, vocab, size=(vocab, _SUCCESSORS_PER_ITEM))

    datasets = []
    for t in range(cfg.cycle_count):
        fresh_lo = vocab
        if t > 0 and cfg.new_items_per_cycle:
            fresh_lo = vocab
            for i in range(cfg.new_items_per_cycle):
                registry.register(f"syn-{vocab + i}", cycle=t)
            rank = np.concatenate([rank, np.arange(vocab, vocab + cfg.new_items_per_cycle)])
            successors = np.concatenate(
                [successors, rng.integers(0, vocab + cfg.new_items_per_cycle,
                                          size=(cfg.new_items_per_cycle, _SUCCESSORS_PER_ITEM))]
            )
            vocab += cfg.new_items_per_cycle
        if t > 0 and cfg.popularity_drift_rate > 0:
            shift = int(round(cfg.popularity_drift_rate * vocab))
            rank = (rank + shift) % vocab
            refresh = int(round(_SUCCESSOR_REFRESH * cfg.popularity_drift_rate * vocab))
            if refresh:
                targets = rng.choice(vocab, size=refresh, replace=False)
                slots = rng.integers(0, _SUCCESSORS_PER_ITEM, size=refresh)
                successors[targets, slots] = rng.integers(0, vocab, size=refresh)

        weights = 1.0 / (rank + 1.0) ** _ZIPF_EXPONENT
        cdf = np.cumsum(weights / weights.sum())
        new_share = 0.0
        if t > 0 and cfg.new_items_per_cycle:
            new_share = 0.35 / (1.0 + 0.5 * (t - 1))

        def draw() -> int:
            if new_share and rng.random() < new_share:
                return int(rng.integers(fresh_lo, vocab))
            return int(np.searchsorted(cdf, rng.random()))

        examples: list[TrainingExample] = []
        base_time = t * WEEK_SECONDS
        for s in range(cfg.sessions_per_cycle):
            length = 2 + int(rng.poisson(cfg.mean_session_length - 2.0))
            items = [draw()]
            for _ in range(length - 1):
                if rng.random() < _SUCCESSOR_PROB:
                    items.append(int(successors[items[-1], rng.integers(0, _SUCCESSORS_PER_ITEM)]))
                else:
                    items.append(draw())
            examples.extend(expand_session(Session(items, base_time + s), max_seq_len))
        val_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, 1]))
        train, val = _split_validation(examples, validation_fraction, val_rng)
        datasets.append(CycleDataset(t, train, val, vocab))
    return datasets, registry


def save_cycles(datasets: list[CycleDataset], path: str | Path) -> None:
    """Write cycle datasets to a line-oriented text file.

    One example per line: cycle id, space-separated prefix indices, target,
    split tag. A header line per cycle records the vocabulary size.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for ds in datasets:
            fh.write(f"# cycle {ds.cycle_id} items {ds.item_count_after}\n")
            for tag, examples in (("train", ds.train), ("val", ds.validation)):
                fh.writelines(
                    f"{ds.cycle_id}\t{' '.join(map(str, ex.prefix))}\t{ex.target}\t{tag}\n" for ex in examples
                )


def load_cycles(path: str | Path) -> list[CycleDataset]:
    """Read ``save_cycles``'s file; a malformed line is a ``ValueError`` naming the path and line."""
    datasets: list[CycleDataset] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("#"):
                parts = line.split()
                if len(parts) != 5 or parts[:2] != ["#", "cycle"] or parts[3] != "items":
                    raise ValueError(f"{where}: malformed cycle header {line!r}, expected '# cycle <id> items <count>'")
                cycle_id, items = _ints(parts[2::2], where)
                datasets.append(CycleDataset(cycle_id, [], [], items))
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
            cycle_s, prefix_s, target_s, tag = fields
            if tag not in ("train", "val"):
                raise ValueError(f"{where}: split tag {tag!r} is neither 'train' nor 'val'")
            cycle_id, *prefix, target = _ints([cycle_s, *prefix_s.split(), target_s], where)
            if not datasets or datasets[-1].cycle_id != cycle_id:
                header = f"cycle {datasets[-1].cycle_id}" if datasets else "no cycle header"
                raise ValueError(f"{where}: example of cycle {cycle_s} under {header}")
            ds = datasets[-1]
            if not prefix:
                raise ValueError(f"{where}: empty prefix")
            if min(target, *prefix) < 0 or max(target, *prefix) >= ds.item_count_after:
                raise ValueError(f"{where}: item index outside cycle {cycle_s}'s [0, {ds.item_count_after})")
            (ds.train if tag == "train" else ds.validation).append(TrainingExample(tuple(prefix), target))
    return datasets


def stream_statistics(
    datasets: list[CycleDataset], registry: ItemRegistry, sessions: list[Session], period_seconds: int
) -> list[dict]:
    """Per-cycle action totals and new-action fractions.

    ``sessions`` and ``period_seconds`` are what ``split_cycles`` bucketed
    into ``datasets``. A cycle's actions are the clicks of its sessions,
    and a new action is a click on an item first seen in that cycle.
    """
    starts = np.fromiter((s.start_time for s in sessions), dtype=np.int64, count=len(sessions))
    lengths = np.fromiter((len(s.items) for s in sessions), dtype=np.int64, count=len(sessions))
    items = np.fromiter(chain.from_iterable(s.items for s in sessions), dtype=np.int64, count=int(lengths.sum()))
    click_cycle = np.repeat(_buckets(starts, period_seconds)[1], lengths)
    is_new = np.array(registry.cycle_first_seen, dtype=np.int64)[items] == click_cycle
    actions = np.bincount(click_cycle, minlength=len(datasets)).tolist()
    new_actions = np.bincount(click_cycle[is_new], minlength=len(datasets)).tolist()
    stats = []
    for ds in datasets:
        total, new = actions[ds.cycle_id], new_actions[ds.cycle_id]
        stats.append(
            {
                "cycle": ds.cycle_id,
                "actions": total,
                "new_action_fraction": new / total if total else 0.0,
                "examples": len(ds.examples),
                "item_count": ds.item_count_after,
            }
        )
    return stats
