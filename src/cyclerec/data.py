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
The only objects made per event are the ``Session`` item lists.

A cycle's examples travel as columns too: an ``Examples`` holds every
prefix as a range of one flat item array, so ``split_cycles`` and
``generate_synthetic_stream`` expand sessions by index arithmetic over
their items, ``save_cycles`` writes each prefix as a slice of one joined
string, and ``load_cycles`` appends integers to columns. A
``TrainingExample`` is built only when one example is read by index.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
import re
from array import array
from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence

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


@dataclass(frozen=True, eq=False)
class Examples(Sequence):
    """Training examples as columns: an immutable ``Sequence[TrainingExample]`` with no object per example.

    Example ``i`` predicts ``targets[i]`` after ``items[starts[i] : starts[i] + lengths[i]]``. The prefixes are
    ranges of one flat int64 array, which views share: the examples a split expands from its sessions all point
    into their items. An integer index builds the ``TrainingExample``; a slice, an index array or a mask gives
    the ``Examples`` of those rows, and ``+`` the examples of both, one after the other, in a fresh item array.
    Two are equal when they hold the same examples in the same order, as a list of them would be. The columns
    are made read-only.
    """

    items: np.ndarray = ()
    starts: np.ndarray = ()
    lengths: np.ndarray = ()
    targets: np.ndarray = ()

    def __post_init__(self) -> None:
        for name in ("items", "starts", "lengths", "targets"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n = len(self.targets)
        if self.items.ndim != 1 or self.starts.shape != (n,) or self.lengths.shape != (n,):
            raise ValueError(f"Examples: expected one item column and {n} starts and lengths, got "
                             f"{self.items.shape}, {self.starts.shape} and {self.lengths.shape}")
        ends = self.starts + self.lengths
        if n and (min(self.starts.min(), self.lengths.min()) < 0 or ends.max() > len(self.items)):
            raise ValueError(f"Examples: a prefix reaches outside the {len(self.items)} items")

    @classmethod
    def of(cls, examples: Sequence[TrainingExample]) -> "Examples":
        """``examples`` as columns; an ``Examples`` is returned as it is."""
        if isinstance(examples, Examples):
            return examples
        examples = list(examples)
        lengths = np.fromiter((len(ex.prefix) for ex in examples), dtype=np.int64, count=len(examples))
        items = np.fromiter(chain.from_iterable(ex.prefix for ex in examples), dtype=np.int64, count=int(lengths.sum()))
        return _back_to_back(items, lengths, [ex.target for ex in examples])

    def _flat(self) -> np.ndarray:
        """Every prefix's items, one after the other."""
        offsets = np.cumsum(self.lengths) - self.lengths
        return self.items[np.repeat(self.starts - offsets, self.lengths) + np.arange(int(self.lengths.sum()))]

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, i):
        if isinstance(i, numbers.Integral):
            start, length = int(self.starts[i]), int(self.lengths[i])
            return TrainingExample(tuple(self.items[start : start + length].tolist()), int(self.targets[i]))
        return Examples(self.items, self.starts[i], self.lengths[i], self.targets[i])

    def __iter__(self) -> Iterator[TrainingExample]:
        flat = self._flat().tolist()
        ends = np.cumsum(self.lengths).tolist()
        for lo, hi, target in zip([0, *ends], ends, self.targets.tolist()):
            yield TrainingExample(tuple(flat[lo:hi]), target)

    def __add__(self, other: Sequence[TrainingExample]) -> "Examples":
        other = Examples.of(other)
        columns = ((self._flat(), other._flat()), (self.lengths, other.lengths), (self.targets, other.targets))
        return _back_to_back(*map(np.concatenate, columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, Examples):
            return (np.array_equal(self.lengths, other.lengths) and np.array_equal(self.targets, other.targets)
                    and np.array_equal(self._flat(), other._flat()))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


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


def _back_to_back(items: Sequence[int], lengths: Sequence[int], targets: Sequence[int]) -> Examples:
    """The ``Examples`` whose prefixes lie one after the other in ``items``, ``lengths`` long each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return Examples(items, np.cumsum(lengths) - lengths, lengths, targets)


def _ints(texts: Sequence[str], path: str | Path, lineno: int) -> list[int]:
    """``texts`` as integers, or a ``ValueError`` naming the path and line."""
    try:
        return list(map(int, texts))
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected integers, got {' '.join(texts)!r}") from None


@dataclass
class CycleDataset:
    """All training material belonging to one update cycle; ``train`` and ``validation`` become ``Examples``."""

    cycle_id: int
    train: Examples
    validation: Examples
    item_count_after: int

    def __post_init__(self) -> None:
        self.train, self.validation = Examples.of(self.train), Examples.of(self.validation)

    @property
    def examples(self) -> Examples:
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
    code, its timestamp (unix seconds: integer text exactly, other numbers
    as ``int(float(field))``) and its item code. A row with a missing
    field, or whose timestamp does not parse, is not finite or lies
    outside int64, is skipped and counted in ``skipped``. The log holds
    about 50 bytes per event: 24 in the columns, the rest in the key
    strings. Raises ``ValueError`` when the header lacks a required
    column or no row parses.
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
            try:  # integer text exactly: a float holds 53 bits, so later events could tie or swap
                timestamp = int(raw_time)
            except ValueError:
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


def _expand(items: np.ndarray, lengths: np.ndarray, max_seq_len: int) -> Examples:
    """All-prefix expansion of sessions laid back to back in ``items``, ``lengths`` long each.

    Every position j >= 1 of a session becomes a target, in session order; its prefix is the range of at most
    ``max_seq_len`` items before it, in ``items`` itself.
    """
    counts = lengths - 1  # targets per session
    session = np.repeat(np.arange(len(lengths)), counts)
    first = (np.cumsum(lengths) - lengths)[session]  # each example's session's first item
    j = np.arange(len(session)) - (np.cumsum(counts) - counts)[session] + 1
    lo = np.maximum(j - max_seq_len, 0)
    return Examples(items, first + lo, j - lo, items[first + j])


def _split_validation(examples: Examples, fraction: float, rng: np.random.Generator) -> tuple[Examples, Examples]:
    held = np.zeros(len(examples), dtype=bool)
    held[rng.permutation(len(examples))[:int(len(examples) * fraction)]] = True
    return examples[~held], examples[held]


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
    gets the first cycle that holds it. Every cycle's examples are
    ``Examples`` over one array of all the sessions' items.
    """
    if not sessions:
        raise ValueError("split_cycles: no sessions")
    if max_seq_len < 1:
        raise ValueError(f"split_cycles: max_seq_len must be >= 1, got {max_seq_len}")
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
    lengths = np.fromiter((len(s.items) for s in ordered), dtype=np.int64, count=len(ordered))
    if lengths.min() < 2:
        raise ValueError("split_cycles: session shorter than 2")
    ends = np.cumsum(lengths)
    items = np.fromiter(chain.from_iterable(s.items for s in ordered), dtype=np.int64, count=int(ends[-1]))
    examples = _expand(items, lengths, max_seq_len)  # session by session, so each cycle's are one run
    example_cuts = np.r_[0, np.cumsum(lengths - 1)][cuts].tolist()
    seen, first_at = np.unique(items, return_index=True)
    first_seen = np.array(registry.cycle_first_seen, dtype=np.int64)
    unset = first_seen[seen] == -1
    first_seen[seen[unset]] = np.repeat(cycle_of, lengths)[first_at[unset]]
    registry.cycle_first_seen[:] = first_seen.tolist()
    cycle_max = np.maximum.reduceat(items, np.r_[0, ends][cuts[:-1]])
    item_counts = (np.maximum.accumulate(cycle_max) + 1).tolist()

    datasets = []
    for cycle, (lo, hi) in enumerate(zip(example_cuts, example_cuts[1:])):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
        train, val = _split_validation(examples[lo:hi], validation_fraction, rng)
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
        # config values arrive unchecked: a float count or a NaN length would fail only mid-generation, True pass as 1
        for name, low in (("cycle_count", 1), ("sessions_per_cycle", 1), ("initial_vocab", 1),
                          ("new_items_per_cycle", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"synthetic stream: {name} must be an integer >= {low}, got {value!r}")
        for name, low, high in (("mean_session_length", 2.0, math.inf), ("popularity_drift_rate", 0.0, 1.0)):
            value = getattr(self, name)
            usable = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (usable and math.isfinite(value) and low <= value <= high):
                raise ValueError(f"synthetic stream: {name} must be a finite number in [{low}, {high}], got {value!r}")


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
    if max_seq_len < 1:
        raise ValueError(f"generate_synthetic_stream: max_seq_len must be >= 1, got {max_seq_len}")
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
        cdf = np.cumsum(weights / weights.sum()).tolist()  # bisect_left on floats: np.searchsorted's index
        new_share = 0.0
        if t > 0 and cfg.new_items_per_cycle:
            new_share = 0.35 / (1.0 + 0.5 * (t - 1))

        def draw() -> int:
            if new_share and rng.random() < new_share:
                return int(rng.integers(fresh_lo, vocab))
            return bisect_left(cdf, rng.random())

        items: list[int] = []  # the cycle's sessions, back to back
        lengths = np.empty(cfg.sessions_per_cycle, dtype=np.int64)
        for s in range(cfg.sessions_per_cycle):
            lengths[s] = length = 2 + int(rng.poisson(cfg.mean_session_length - 2.0))
            items.append(draw())
            for _ in range(length - 1):
                if rng.random() < _SUCCESSOR_PROB:
                    items.append(int(successors[items[-1], rng.integers(0, _SUCCESSORS_PER_ITEM)]))
                else:
                    items.append(draw())
        examples = _expand(np.array(items, dtype=np.int64), lengths, max_seq_len)
        val_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, 1]))
        train, val = _split_validation(examples, validation_fraction, val_rng)
        datasets.append(CycleDataset(t, train, val, vocab))
    return datasets, registry


def save_cycles(datasets: list[CycleDataset], path: str | Path) -> None:
    """Write cycle datasets to a line-oriented text file.

    One example per line: cycle id, space-separated prefix indices, target,
    split tag. A header line per cycle records the vocabulary size. A
    prefix is written as a slice of one space-joined string of the item
    array it ranges over.
    """
    joined: dict[int, tuple[np.ndarray, str, np.ndarray]] = {}  # per item array: it, its text, each item's offset
    with open(path, "w", encoding="utf-8") as fh:
        for ds in datasets:
            fh.write(f"# cycle {ds.cycle_id} items {ds.item_count_after}\n")
            for tag, examples in (("train", ds.train), ("val", ds.validation)):
                if id(examples.items) not in joined:
                    text = " ".join(map(str, examples.items.tolist()))
                    spaces = np.flatnonzero(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord(" "))
                    joined[id(examples.items)] = examples.items, text, np.r_[0, spaces + 1, len(text) + 1]
                _, text, offset = joined[id(examples.items)]
                cuts = zip(offset[examples.starts].tolist(), (offset[examples.starts + examples.lengths] - 1).tolist())
                fh.write("".join(
                    f"{ds.cycle_id}\t{text[lo:hi]}\t{target}\t{tag}\n"
                    for (lo, hi), target in zip(cuts, examples.targets.tolist())
                ))


def load_cycles(path: str | Path) -> list[CycleDataset]:
    """Read ``save_cycles``'s file; a malformed line is a ``ValueError`` naming the path and line.

    As ``save_cycles`` writes them, headers number the cycles 0, 1, 2, ..., ``items`` never falls, every cycle
    but the last holds a ``train`` line and the last holds a line; a break names the cycle header's line.
    Each split of a cycle is read into three integer columns: prefix items, prefix lengths and targets.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # the whole file at once; only a file that fails a check is read again line by line, to name the line
    cycles = _cycle_columns(text)
    if cycles is None:
        cycles = _cycle_lines(path, text.split("\n"))
    return [CycleDataset(cycle_id, *(_back_to_back(*split) for split in splits.values()), item_count)
            for cycle_id, (item_count, splits) in enumerate(zip(*cycles))]


_CYCLE_HEADER = re.compile(r"^# cycle (\d+) items (\d+)$", re.MULTILINE)


def _cycle_columns(text: str) -> tuple[list[int], list[dict[str, tuple]]] | None:
    """Each cycle's item count and its splits' columns (items, lengths, targets), or None if a check fails.

    Every line of a cycle is split at once, and its integers are converted and range-checked as arrays.
    """
    headers = list(_CYCLE_HEADER.finditer(text))
    if not headers or headers[0].start() != 0:
        return None
    item_counts: list[int] = []
    columns: list[dict[str, tuple]] = []
    for cycle_id, (header, after) in enumerate(zip(headers, headers[1:] + [None])):
        items = int(header[2])
        if int(header[1]) != cycle_id or items < (item_counts[-1] if item_counts else 0):
            return None
        lines = text[header.end() + 1 : after.start() if after else len(text)].split("\n")
        if lines.pop() != "":
            return None
        n = len(lines)
        if not n or (np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=n) != 3).any():
            return None
        fields = "\t".join(lines).split("\t")
        if fields[0::4].count(str(cycle_id)) != n:
            return None
        prefixes, tags = fields[1::4], np.array(fields[3::4])
        train = tags == "train"
        joined = " ".join(prefixes)
        tokens = joined.split()
        if " ".join(tokens) != joined:  # items one space apart, so a line's spaces count its items
            return None
        try:
            lengths = np.fromiter(map(str.count, prefixes, repeat(" ")), dtype=np.int64, count=n) + 1
            prefix_items = np.fromiter(map(int, tokens), dtype=np.int64, count=len(tokens))
            targets = np.fromiter(map(int, fields[2::4]), dtype=np.int64, count=n)
        except (ValueError, OverflowError):
            return None
        if ((train | (tags == "val")).sum() != n
                or min(prefix_items.min(), targets.min()) < 0 or max(prefix_items.max(), targets.max()) >= items
                or (after is not None and not train.any())):
            return None
        splits = {}
        for tag, rows in (("train", train), ("val", ~train)):
            splits[tag] = (prefix_items[np.repeat(rows, lengths)], lengths[rows], targets[rows])
        item_counts.append(items)
        columns.append(splits)
    return item_counts, columns


def _cycle_lines(path: str | Path, lines: list[str]) -> tuple[list[int], list[dict[str, tuple]]]:
    """``_cycle_columns``, line by line: a malformed line is a ``ValueError`` naming the path and line."""
    item_counts: list[int] = []  # per cycle
    columns: list[dict[str, tuple[array, array, array]]] = []  # per cycle and split tag
    header = str(path)  # where the last cycle header stands
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) != 5 or parts[:2] != ["#", "cycle"] or parts[3] != "items":
                raise ValueError(f"{where}: malformed cycle header {line!r}, expected '# cycle <id> items <count>'")
            cycle_id, items = _ints(parts[2::2], path, lineno)
            if cycle_id != len(item_counts):
                raise ValueError(f"{where}: cycle {cycle_id} out of sequence, expected cycle {len(item_counts)}")
            floor = item_counts[-1] if item_counts else 0
            if items < floor:
                raise ValueError(f"{where}: the item count falls from {floor} to {items}")
            if columns and not columns[-1]["train"][1]:
                raise ValueError(f"{header}: cycle {cycle_id - 1} has no 'train' line")
            item_counts.append(items)
            columns.append({tag: (array("q"), array("q"), array("q")) for tag in ("train", "val")})
            header = where
            continue
        # an example line names its place only when it fails
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        cycle_s, prefix_s, target_s, tag = fields
        if tag not in ("train", "val"):
            raise ValueError(f"{path}:{lineno}: split tag {tag!r} is neither 'train' nor 'val'")
        cycle_id, *prefix, target = _ints([cycle_s, *prefix_s.split(), target_s], path, lineno)
        if not item_counts or len(item_counts) - 1 != cycle_id:
            under = f"cycle {len(item_counts) - 1}" if item_counts else "no cycle header"
            raise ValueError(f"{path}:{lineno}: example of cycle {cycle_s} under {under}")
        if not prefix:
            raise ValueError(f"{path}:{lineno}: empty prefix")
        if min(target, *prefix) < 0 or max(target, *prefix) >= item_counts[-1]:
            raise ValueError(f"{path}:{lineno}: item index outside cycle {cycle_s}'s [0, {item_counts[-1]})")
        prefix_items, lengths, targets = columns[-1][tag]
        prefix_items.extend(prefix)
        lengths.append(len(prefix))
        targets.append(target)
    if not item_counts:
        raise ValueError(f"{path}: no cycle header")
    if not any(lengths for _, lengths, _ in columns[-1].values()):
        raise ValueError(f"{header}: the last cycle, {len(item_counts) - 1}, holds no example")
    return item_counts, columns


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
                "examples": len(ds.train) + len(ds.validation),
                "item_count": ds.item_count_after,
            }
        )
    return stats
