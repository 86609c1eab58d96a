"""Session-log ingestion, filtering, cycle splitting, and synthetic streams.

The pipeline turns raw click events into per-cycle training datasets:
``ingest -> preprocess -> split_cycles``, or ``generate_synthetic_stream``
for self-contained experiments. Every function is a pure function of its
inputs and explicit seeds; nothing touches global RNG state.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

WEEK_SECONDS = 7 * 24 * 3600
DEFAULT_MAX_SEQ_LEN = 50


@dataclass(frozen=True)
class RawEvent:
    """One click/view: session key, unix-seconds timestamp, item key."""

    session_key: str
    timestamp: int
    item_key: str


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


def ingest(path: str | Path, fmt: ColumnFormat | None = None) -> tuple[list[RawEvent], int]:
    """Parse a delimited event log into raw events.

    Returns ``(events, skipped_row_count)``. Rows with a missing field or
    an unparsable timestamp are skipped and counted. Raises ``ValueError``
    when the header lacks a required column or no row parses.
    """
    fmt = fmt or ColumnFormat()
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: zero parsable rows (empty file)")
        delim = fmt.delimiter or ("\t" if "\t" in header_line else ",")
        header = next(csv.reader([header_line], delimiter=delim))
        positions = {}
        for role, col in (("session", fmt.session_col), ("time", fmt.time_col), ("item", fmt.item_col)):
            if col not in header:
                raise ValueError(f"{path}: column '{col}' not found in header {header}")
            positions[role] = header.index(col)
        needed = max(positions.values()) + 1
        events: list[RawEvent] = []
        skipped = 0
        for row in csv.reader(fh, delimiter=delim):
            if not row:
                continue
            if len(row) < needed:
                skipped += 1
                continue
            session = row[positions["session"]].strip()
            item = row[positions["item"]].strip()
            raw_time = row[positions["time"]].strip()
            if not session or not item or not raw_time:
                skipped += 1
                continue
            try:
                timestamp = int(float(raw_time))
            except ValueError:
                skipped += 1
                continue
            events.append(RawEvent(session, timestamp, item))
    if not events:
        raise ValueError(f"{path}: zero parsable rows")
    if skipped:
        logger.info("ingest %s: parsed %d events, skipped %d malformed rows", path, len(events), skipped)
    return events, skipped


def preprocess(
    events: list[RawEvent],
    min_item_support: int = 5,
    min_session_length: int = 2,
) -> tuple[list[Session], ItemRegistry]:
    """Filter an event log and map item keys to dense indices.

    Single pass: item counts are taken over all input events, items below
    ``min_item_support`` are dropped from every session, then sessions
    shorter than ``min_session_length`` are dropped. Surviving sessions are
    returned sorted by start time (input order breaks ties), and items are
    registered in that walk order so the index order respects time order.
    """
    if not events:
        raise ValueError("preprocess: no events")
    order: dict[str, int] = {}
    grouped: dict[str, list[RawEvent]] = {}
    for ev in events:
        if ev.session_key not in grouped:
            order[ev.session_key] = len(order)
            grouped[ev.session_key] = []
        grouped[ev.session_key].append(ev)

    counts: dict[str, int] = {}
    for ev in events:
        counts[ev.item_key] = counts.get(ev.item_key, 0) + 1

    dropped_items = {k for k, c in counts.items() if c < min_item_support}

    raw_sessions: list[tuple[int, int, list[str]]] = []  # (start, input order, keys)
    dropped_short = 0
    for key, evs in grouped.items():
        evs_sorted = sorted(evs, key=lambda e: e.timestamp)  # stable: ties keep input order
        kept = [e for e in evs_sorted if e.item_key not in dropped_items]
        if len(kept) < min_session_length:
            dropped_short += 1
            continue
        raw_sessions.append((kept[0].timestamp, order[key], [e.item_key for e in kept]))
    if not raw_sessions:
        raise ValueError("preprocess: all sessions filtered out")
    raw_sessions.sort(key=lambda t: (t[0], t[1]))

    logger.info(
        "preprocess: dropped %d items below support %d, dropped %d sessions below length %d, kept %d sessions",
        len(dropped_items), min_item_support, dropped_short, min_session_length, len(raw_sessions),
    )

    registry = ItemRegistry()
    sessions = [
        Session([registry.register(k) for k in keys], start)
        for start, _, keys in raw_sessions
    ]
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
    n_val = int(len(examples) * fraction)
    picked = set(rng.permutation(len(examples))[:n_val].tolist())
    train = [ex for i, ex in enumerate(examples) if i not in picked]
    val = [ex for i, ex in enumerate(examples) if i in picked]
    return train, val


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
    ``registry.cycle_first_seen`` as a side effect.
    """
    if not sessions:
        raise ValueError("split_cycles: no sessions")
    if period_seconds <= 0:
        raise ValueError(f"split_cycles: period_seconds must be positive, got {period_seconds}")
    if not 0.0 <= validation_fraction < 1.0:
        raise ValueError(f"split_cycles: validation_fraction must be in [0, 1), got {validation_fraction}")
    ordered = sorted(enumerate(sessions), key=lambda t: (t[1].start_time, t[0]))
    min_time = ordered[0][1].start_time
    buckets: dict[int, list[Session]] = {}
    for _, s in ordered:
        buckets.setdefault((s.start_time - min_time) // period_seconds, []).append(s)
    bucket_ids = sorted(buckets)
    if len(bucket_ids) < 2:
        raise ValueError("split_cycles: fewer than 2 non-empty cycles")
    if bucket_ids != list(range(len(bucket_ids))):
        logger.info("split_cycles: %d empty buckets dropped, cycles renumbered", bucket_ids[-1] + 1 - len(bucket_ids))

    datasets = []
    max_index_seen = -1
    for cycle, bucket in enumerate(bucket_ids):
        examples: list[TrainingExample] = []
        for s in buckets[bucket]:
            for idx in s.items:
                if registry.cycle_first_seen[idx] == -1:
                    registry.cycle_first_seen[idx] = cycle
                max_index_seen = max(max_index_seen, idx)
            examples.extend(expand_session(s, max_seq_len))
        rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
        train, val = _split_validation(examples, validation_fraction, rng)
        datasets.append(CycleDataset(cycle, train, val, max_index_seen + 1))
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
                for ex in examples:
                    prefix = " ".join(str(i) for i in ex.prefix)
                    fh.write(f"{ds.cycle_id}\t{prefix}\t{ex.target}\t{tag}\n")


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


def stream_statistics(datasets: list[CycleDataset], registry: ItemRegistry) -> list[dict]:
    """Per-cycle action totals and new-action fractions.

    Under all-prefix expansion every item occurrence appears exactly once
    as a target except each session's opening item, which appears as the
    length-1 prefix; both are counted here.
    """
    stats = []
    for ds in datasets:
        occurrences: list[int] = []
        for ex in ds.examples:
            if len(ex.prefix) == 1:
                occurrences.append(ex.prefix[0])
            occurrences.append(ex.target)
        total = len(occurrences)
        new = sum(1 for i in occurrences if registry.cycle_first_seen[i] == ds.cycle_id)
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
