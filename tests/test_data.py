import tracemalloc

import numpy as np
import pytest

import cyclerec.data as data_mod
from cyclerec.data import (
    ColumnFormat,
    CycleDataset,
    EventLog,
    Examples,
    ItemRegistry,
    Session,
    SyntheticStreamConfig,
    TrainingExample,
    generate_synthetic_stream,
    ingest,
    load_cycles,
    preprocess,
    save_cycles,
    split_cycles,
    stream_statistics,
)

DAY = 86400
WEEK = 7 * DAY


def make_log(rows):
    """An ``EventLog`` of (session key, timestamp, item key) rows, codes numbered by first appearance."""
    session_codes, item_codes = {}, {}
    sessions = [session_codes.setdefault(k, len(session_codes)) for k, _, _ in rows]
    items = [item_codes.setdefault(k, len(item_codes)) for _, _, k in rows]
    columns = (np.array(c, dtype=np.int64) for c in (sessions, [t for _, t, _ in rows], items))
    return EventLog(*columns, list(session_codes), list(item_codes))


def rows_of(log):
    """The log's events as (session key, timestamp, item key), in input order."""
    return [
        (log.session_keys[s], t, log.item_keys[i])
        for s, t, i in zip(log.sessions.tolist(), log.timestamps.tolist(), log.items.tolist())
    ]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_well_formed(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\na,1,x\na,2,y\nb,3,x\n")
    log = ingest(path)
    assert log.skipped == 0
    assert rows_of(log) == [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x")]
    assert log.sessions.tolist() == [0, 0, 1] and log.items.tolist() == [0, 1, 0]
    assert log.session_keys == ["a", "b"] and log.item_keys == ["x", "y"]
    assert all(col.dtype == np.int64 for col in (log.sessions, log.timestamps, log.items))


def test_ingest_skips_malformed_rows(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\na,1,x\na,notatime,y\nb,2,z\nb,3,w\n")
    log = ingest(path)
    assert len(log) == 3
    assert log.skipped == 1


@pytest.mark.parametrize("bad", ["inf", "-inf", "1e30", "-1e30", "nan", "9223372036854775808"])
def test_ingest_skips_timestamps_outside_int64(tmp_path, bad):
    # inf and -inf raised OverflowError out of ingest; 1e30 was kept as a 31-digit timestamp
    path = tmp_path / "log.csv"
    path.write_text(f"session_id,timestamp,item_id\na,1,x\na,{bad},y\nb,-5,z\nb,9e18,w\n")
    log = ingest(path)
    assert log.skipped == 1
    assert rows_of(log) == [("a", 1, "x"), ("b", -5, "z"), ("b", 9 * 10**18, "w")]
    assert log.item_keys == ["x", "z", "w"]  # a skipped row's keys get no code


def test_ingest_reads_integer_timestamps_exactly(tmp_path):
    # read through a float, 2**53 + 1 became 2**53: b (listed first) then tied a and came out first
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\ns,9007199254740993,b\ns,9007199254740992,a\n"
                    "t,9223372036854775807,c\nt,-9223372036854775808,d\n")
    log = ingest(path)
    assert log.skipped == 0
    assert log.timestamps.tolist() == [2**53 + 1, 2**53, 2**63 - 1, -(2**63)]
    sessions, registry = preprocess(log, min_item_support=1)
    assert [[registry.index_to_key[i] for i in s.items] for s in sessions] == [["d", "c"], ["a", "b"]]


def test_ingest_holds_under_150_bytes_per_event(tmp_path):
    rng = np.random.default_rng(0)
    n = 20_000
    sessions = rng.integers(0, n // 5, size=n)
    items = rng.integers(0, n // 10, size=n)
    times = 1_600_000_000 + np.sort(rng.integers(0, 4 * WEEK, size=n))
    path = tmp_path / "log.csv"
    lines = [f"s{s},{t},p{i}\n" for s, t, i in zip(sessions.tolist(), times.tolist(), items.tolist())]
    path.write_text("session_id,timestamp,item_id\n" + "".join(lines))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = ingest(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / n < 150, f"{held / n:.0f} bytes per event"
    assert len(log) == n


def test_ingest_empty_file_errors(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="zero parsable rows"):
        ingest(path)


def test_ingest_header_only_errors(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\n")
    with pytest.raises(ValueError, match="zero parsable rows"):
        ingest(path)


def test_ingest_tab_autodetect_and_custom_columns(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("sess\tts\titem\textra\ns1\t10\tfoo\tjunk\n")
    fmt = ColumnFormat(session_col="sess", time_col="ts", item_col="item")
    log = ingest(path, fmt)
    assert rows_of(log) == [("s1", 10, "foo")]


def test_ingest_missing_column_errors(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("sid,timestamp,item_id\na,1,x\n")
    with pytest.raises(ValueError, match="session_id"):
        ingest(path)


@pytest.mark.parametrize("columns,message", [
    pytest.param(([0, 1], [5], [0]), r"sessions must be 1 int64 codes", id="length"),
    pytest.param(([0], [5], [1]), r"items codes outside \[0, 1\)", id="item-code"),
    pytest.param(([-1], [5], [0]), r"sessions codes outside", id="negative-session-code"),
    pytest.param(([0], [5.0], [0]), r"timestamps must be one int64 column", id="float-times"),
])
def test_event_log_rejects_inconsistent_columns(columns, message):
    arrays = [np.array(c, dtype=np.int64 if type(c[0]) is int else None) for c in columns]
    with pytest.raises(ValueError, match=message):
        EventLog(*arrays, ["a"], ["x"])


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_keeps_supported_session():
    # A and B each occur 5 times across sessions
    rows = []
    for s in range(5):
        rows += [(f"s{s}", s * 10, "A"), (f"s{s}", s * 10 + 1, "B")]
    sessions, registry = preprocess(make_log(rows))
    assert len(sessions) == 5
    assert all(s.items == [registry.key_to_index["A"], registry.key_to_index["B"]] for s in sessions)


def test_preprocess_drops_short_sessions():
    rows = []
    for s in range(5):
        rows += [(f"s{s}", s * 10, "A"), (f"s{s}", s * 10 + 1, "B")]
    rows.append(("lonely", 100, "A"))  # length-1 session
    sessions, _ = preprocess(make_log(rows))
    assert len(sessions) == 5


def test_preprocess_two_stage_filter_hand_trace():
    # Hand-traced toy log: A and B appear 5x, C only 4x (1 in s0 + 3 in s5).
    # C is dropped from s0 ([A,C,B] -> [A,B]) and s5 collapses below length 2.
    rows = [
        ("s0", 0, "A"), ("s0", 1, "C"), ("s0", 2, "B"),
        ("s1", 10, "A"), ("s1", 11, "B"),
        ("s2", 20, "A"), ("s2", 21, "B"),
        ("s3", 30, "A"), ("s3", 31, "B"),
        ("s4", 40, "B"), ("s4", 41, "A"),
        ("s5", 50, "C"), ("s5", 51, "C"), ("s5", 52, "C"),
    ]
    sessions, registry = preprocess(make_log(rows))
    assert len(sessions) == 5
    a, b = registry.key_to_index["A"], registry.key_to_index["B"]
    assert "C" not in registry.key_to_index
    assert sessions[0].items == [a, b]
    assert sessions[4].items == [b, a]


def test_preprocess_all_filtered_errors():
    rows = [("s0", 0, "A"), ("s1", 5, "B")]  # all items below support, sessions length 1
    with pytest.raises(ValueError, match="all sessions filtered"):
        preprocess(make_log(rows))


def test_preprocess_timestamp_sort_with_input_order_ties():
    rows = [("s0", 5, "A"), ("s0", 1, "B"), ("s0", 1, "C")]
    sessions, registry = preprocess(make_log(rows), min_item_support=1)
    keys = [registry.index_to_key[i] for i in sessions[0].items]
    assert keys == ["B", "C", "A"]


def test_preprocess_start_time_is_first_kept_event():
    # s0's earliest click is on a rare item: the session starts at its first kept click, after s1
    rows = [("s0", 0, "R"), ("s0", 20, "A"), ("s0", 21, "B"), ("s1", 10, "B"), ("s1", 11, "A")]
    sessions, registry = preprocess(make_log(rows), min_item_support=2)
    assert [s.start_time for s in sessions] == [10, 20]
    assert registry.index_to_key == ["B", "A"]


def test_preprocess_idempotent_on_representative_log():
    rng = np.random.default_rng(0)
    rows = []
    for s in range(60):
        start = int(rng.integers(0, 1000))
        for j in range(int(rng.integers(2, 6))):
            rows.append((f"s{s}", start + j, f"i{rng.integers(0, 12)}"))
    sessions1, reg1 = preprocess(make_log(rows))
    replayed = []
    for n, s in enumerate(sessions1):
        for j, idx in enumerate(s.items):
            replayed.append((f"r{n}", s.start_time + j, reg1.index_to_key[idx]))
    sessions2, reg2 = preprocess(make_log(replayed))
    seq1 = [[reg1.index_to_key[i] for i in s.items] for s in sessions1]
    seq2 = [[reg2.index_to_key[i] for i in s.items] for s in sessions2]
    assert seq1 == seq2


# ---------------------------------------------------------------------------
# the column pipeline against the per-event reference
# ---------------------------------------------------------------------------


def reference_ingest(text):
    """Per-row parse of a comma-separated log: (rows, skipped), with ``ingest``'s skip rule."""
    rows, skipped = [], 0
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if not line:
            continue
        if len(fields) < 3 or not all(f.strip() for f in fields[:3]):
            skipped += 1
            continue
        try:
            t = int(float(fields[1]))
        except (ValueError, OverflowError):
            skipped += 1
            continue
        if not -(2**63) <= t < 2**63:
            skipped += 1
            continue
        rows.append((fields[0].strip(), t, fields[2].strip()))
    return rows, skipped


def reference_preprocess(rows, min_item_support=5, min_session_length=2):
    """Per-event preprocessing: sessions grouped in dicts, each sorted by time, items registered one by one."""
    order, grouped, counts = {}, {}, {}
    for session, t, item in rows:
        if session not in grouped:
            order[session] = len(order)
            grouped[session] = []
        grouped[session].append((t, item))
        counts[item] = counts.get(item, 0) + 1
    dropped = {k for k, c in counts.items() if c < min_item_support}
    raw_sessions = []
    for key, events in grouped.items():
        kept = [e for e in sorted(events, key=lambda e: e[0]) if e[1] not in dropped]
        if len(kept) >= min_session_length:
            raw_sessions.append((kept[0][0], order[key], [item for _, item in kept]))
    if not raw_sessions:
        raise ValueError("preprocess: all sessions filtered out")
    raw_sessions.sort(key=lambda t: (t[0], t[1]))
    registry = ItemRegistry()
    sessions = [Session([registry.register(k) for k in keys], start) for start, _, keys in raw_sessions]
    return sessions, registry


def expand_session(session, max_seq_len=50):
    """All-prefix expansion, one ``TrainingExample`` per position j >= 1, its prefix the last ``max_seq_len`` items."""
    items = session.items
    if len(items) < 2:
        raise ValueError("split_cycles: session shorter than 2")
    if max_seq_len < 1:
        raise ValueError(f"split_cycles: max_seq_len must be >= 1, got {max_seq_len}")
    return [TrainingExample(tuple(items[max(0, j - max_seq_len) : j]), items[j]) for j in range(1, len(items))]


def reference_split_cycles(sessions, registry, period_seconds, validation_fraction, seed, max_seq_len):
    """Per-session bucketing, with ``cycle_first_seen`` and the vocabulary size kept item by item."""
    ordered = sorted(enumerate(sessions), key=lambda t: (t[1].start_time, t[0]))
    min_time = ordered[0][1].start_time
    buckets = {}
    for _, s in ordered:
        buckets.setdefault((s.start_time - min_time) // period_seconds, []).append(s)
    if len(buckets) < 2:
        raise ValueError("split_cycles: fewer than 2 non-empty cycles")
    datasets, max_index_seen = [], -1
    for cycle, bucket in enumerate(sorted(buckets)):
        examples = []
        for s in buckets[bucket]:
            for idx in s.items:
                if registry.cycle_first_seen[idx] == -1:
                    registry.cycle_first_seen[idx] = cycle
                max_index_seen = max(max_index_seen, idx)
            examples.extend(expand_session(s, max_seq_len))
        rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
        picked = set(rng.permutation(len(examples))[:int(len(examples) * validation_fraction)].tolist())
        train = [ex for i, ex in enumerate(examples) if i not in picked]
        val = [ex for i, ex in enumerate(examples) if i in picked]
        datasets.append(CycleDataset(cycle, train, val, max_index_seen + 1))
    return datasets


def random_log_text(rng):
    """A comma-separated click log with timestamp ties, interleaved sessions, rare items and malformed rows."""
    rows = []
    for s in range(int(rng.integers(3, 40))):
        start = int(rng.integers(-300, 1500))
        times = start + np.cumsum(rng.integers(0, 4, size=int(rng.integers(1, 9))))  # gaps of 0 tie
        for t in times.tolist():
            item = f"i{int(rng.zipf(1.6)) % 30}"  # a heavy head and a tail of rare items
            rows.append(f"s{s},{t},{item}")
        if rng.random() < 0.2:  # a first click on an item nothing else clicks: filtered out
            rows.append(f"s{s},{start - 1},once{s}")
    rng.shuffle(rows)  # sessions interleave and arrive out of time order
    bad = ["a,nan,i1", "a,inf,i1", "b,-inf,i2", "c,1e30,i3", "d,,i1", ",5,i1", "e,5", "f,notatime,i2"]
    for line in rng.choice(bad, size=int(rng.integers(0, 4))).tolist():
        rows.insert(int(rng.integers(0, len(rows) + 1)), line)
    return "session_id,timestamp,item_id\n" + "\n".join(rows) + "\n"


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("seed", range(50))
def test_column_pipeline_matches_per_event_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    text = random_log_text(rng)
    path = tmp_path / "log.csv"
    path.write_text(text)
    support, min_length = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    split = {"period_seconds": int(rng.integers(200, 900)), "validation_fraction": float(rng.choice([0.0, 0.3])),
             "seed": seed, "max_seq_len": int(rng.integers(1, 6))}

    log = ingest(path)
    rows, skipped = reference_ingest(text)
    assert (rows_of(log), log.skipped) == (rows, skipped)

    got = _outcome(preprocess, log, min_item_support=support, min_session_length=min_length)
    want = _outcome(reference_preprocess, rows, min_item_support=support, min_session_length=min_length)
    assert got == want
    if isinstance(want, str):
        return
    (sessions, registry), (ref_sessions, ref_registry) = got, want
    datasets = _outcome(split_cycles, sessions, registry, **split)
    assert datasets == _outcome(reference_split_cycles, ref_sessions, ref_registry, **split)
    if not isinstance(datasets, str):
        assert registry == ref_registry  # keys, order and cycle_first_seen


# ---------------------------------------------------------------------------
# expand_session
# ---------------------------------------------------------------------------


def test_expand_three_items():
    out = expand_session(Session([1, 2, 3], 0))
    assert out == [TrainingExample((1,), 2), TrainingExample((1, 2), 3)]


def test_expand_pair():
    assert expand_session(Session([4, 9], 0)) == [TrainingExample((4,), 9)]


def test_expand_truncates_to_most_recent():
    out = expand_session(Session([1, 2, 3, 4], 0), max_seq_len=2)
    assert out == [
        TrainingExample((1,), 2),
        TrainingExample((1, 2), 3),
        TrainingExample((2, 3), 4),
    ]


def test_expand_too_short_errors():
    with pytest.raises(ValueError):
        expand_session(Session([1], 0))


def test_expand_rejects_nonpositive_max_seq_len():
    with pytest.raises(ValueError, match="max_seq_len"):
        expand_session(Session([1, 2, 3], 0), max_seq_len=0)


# ---------------------------------------------------------------------------
# split_cycles
# ---------------------------------------------------------------------------


def _registered_sessions(item_lists, starts):
    registry = ItemRegistry()
    sessions = []
    for items, start in zip(item_lists, starts):
        sessions.append(Session([registry.register(k) for k in items], start))
    return sessions, registry


def test_split_buckets_by_week():
    sessions, registry = _registered_sessions(
        [["a", "b"], ["b", "c"], ["c", "a"]], [0, DAY, 8 * DAY]
    )
    datasets = split_cycles(sessions, registry, period_seconds=WEEK, validation_fraction=0.0)
    assert [d.cycle_id for d in datasets] == [0, 1]
    assert len(datasets[0].train) == 2  # two sessions of length 2
    assert len(datasets[1].train) == 1


def test_split_buckets_times_at_int64_extremes():
    # the gap between these start times overflows int64
    item_lists = [["a", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]
    starts = [-(2**63), -(2**63) + WEEK, 2**63 - 1, 0]
    for period in (WEEK, 2**62, 2**64 - 1, 2**70):
        got = _outcome(split_cycles, *_registered_sessions(item_lists, starts), period_seconds=period)
        want = _outcome(reference_split_cycles, *_registered_sessions(item_lists, starts), period_seconds=period,
                        validation_fraction=0.1, seed=0, max_seq_len=50)
        assert got == want
    assert [d.item_count_after for d in split_cycles(*_registered_sessions(item_lists, starts), WEEK)] == [2, 3, 3, 3]


@pytest.mark.parametrize("setting", [
    {"period_seconds": 0},
    {"period_seconds": -WEEK},
    {"validation_fraction": -0.2},
    {"validation_fraction": 1.5},
])
def test_split_rejects_bad_settings(setting):
    sessions, registry = _registered_sessions([["a", "b"], ["b", "c"]], [0, 8 * DAY])
    with pytest.raises(ValueError, match=next(iter(setting))):
        split_cycles(sessions, registry, **setting)


def test_split_validation_fraction():
    item_lists = [["a", "b"]] * 50 + [["b", "a"]] * 50
    starts = [0] * 50 + [WEEK] * 50
    sessions, registry = _registered_sessions(item_lists, starts)
    datasets = split_cycles(sessions, registry, period_seconds=WEEK, validation_fraction=0.1, seed=3)
    for ds in datasets:
        assert len(ds.train) == 45 and len(ds.validation) == 5


def test_split_deterministic():
    item_lists = [["a", "b", "c"], ["b", "c"], ["c", "a"], ["a", "c"]]
    starts = [0, 1, WEEK, WEEK + 5]
    s1, r1 = _registered_sessions(item_lists, starts)
    s2, r2 = _registered_sessions(item_lists, starts)
    d1 = split_cycles(s1, r1, period_seconds=WEEK, seed=9)
    d2 = split_cycles(s2, r2, period_seconds=WEEK, seed=9)
    assert d1 == d2


def test_statistics_count_the_sessions_clicks_at_any_max_seq_len():
    # at max_seq_len 1 every prefix has length 1, so no row marks a session's
    # opening click: the counts come from the sessions, not the rows
    item_lists = [["1", "2", "3", "4"], ["2", "3"], ["4", "1", "5"], ["5", "4"]]
    starts = [0, DAY, WEEK, WEEK + DAY]
    tables = []
    for max_len in (1, 50):
        sessions, registry = _registered_sessions(item_lists, starts)
        datasets = split_cycles(sessions, registry, period_seconds=WEEK, validation_fraction=0.0,
                                max_seq_len=max_len)
        tables.append(stream_statistics(datasets, registry, sessions, WEEK))
    assert tables[0] == tables[1]
    assert [row["actions"] for row in tables[0]] == [6, 5]
    assert [row["new_action_fraction"] for row in tables[0]] == [1.0, 0.4]  # "5" is new in week 1
    assert [row["examples"] for row in tables[0]] == [4, 3]


def test_split_single_cycle_errors():
    sessions, registry = _registered_sessions([["a", "b"], ["b", "a"]], [0, 100])
    with pytest.raises(ValueError, match="fewer than 2"):
        split_cycles(sessions, registry, period_seconds=WEEK)


def test_split_monotone_vocabulary_and_first_seen():
    rng = np.random.default_rng(1)
    item_lists, starts = [], []
    for s in range(80):
        n = int(rng.integers(2, 6))
        item_lists.append([f"i{rng.integers(0, 40)}" for _ in range(n)])
        starts.append(int(rng.integers(0, 4 * WEEK)))
    sessions, registry = _registered_sessions(
        [x for _, x in sorted(zip(starts, item_lists))], sorted(starts)
    )
    datasets = split_cycles(sessions, registry, period_seconds=WEEK)
    counts = [d.item_count_after for d in datasets]
    assert counts == sorted(counts)
    assert all(c >= 0 for c in registry.cycle_first_seen)
    # expansion count: sum(len-1) per bucket equals example count
    total = sum(len(s.items) - 1 for s in sessions)
    assert sum(len(d.train) + len(d.validation) for d in datasets) == total


def _long_sessions(rng, max_seq_len, count):
    """Sessions of 2 to 3 * ``max_seq_len`` items over a small vocabulary, starting over about three weeks."""
    item_lists = [[f"i{k}" for k in rng.integers(0, 12, size=int(rng.integers(2, 3 * max_seq_len + 1))).tolist()]
                  for _ in range(count)]
    return _registered_sessions(item_lists, rng.integers(0, 3 * WEEK, size=count).tolist())


@pytest.mark.parametrize("seed", range(20))
def test_split_cycles_equals_the_expansion_reference(seed):
    # the columns, row for row, against one TrainingExample per position
    rng = np.random.default_rng(seed)
    max_seq_len = int(rng.integers(1, 6))
    split = {"period_seconds": WEEK, "validation_fraction": float(rng.choice([0.0, 0.1, 0.3])), "seed": seed,
             "max_seq_len": max_seq_len}
    count = int(rng.integers(2, 60))
    datasets = split_cycles(*_long_sessions(np.random.default_rng(seed), max_seq_len, count), **split)
    reference = reference_split_cycles(*_long_sessions(np.random.default_rng(seed), max_seq_len, count), **split)
    assert [(list(ds.train), list(ds.validation)) for ds in datasets] == \
        [(list(ds.train), list(ds.validation)) for ds in reference]
    assert datasets == reference


@pytest.mark.parametrize("seed", range(6))
def test_synthetic_stream_equals_the_expansion_reference(monkeypatch, seed):
    # each cycle's sessions, as the generator laid them out, expanded one TrainingExample per position and
    # split by the same validation draw
    max_seq_len, fraction = int(np.random.default_rng(seed).integers(1, 5)), 0.2
    cfg = SyntheticStreamConfig(cycle_count=3, sessions_per_cycle=40, mean_session_length=3 * max_seq_len,
                                initial_vocab=30, new_items_per_cycle=4, seed=seed)
    sessions = []
    real = data_mod._expand

    def recording(items, lengths, max_len):
        bounds = np.r_[0, np.cumsum(lengths)].tolist()
        sessions.append([items.tolist()[a:b] for a, b in zip(bounds, bounds[1:])])
        return real(items, lengths, max_len)

    monkeypatch.setattr(data_mod, "_expand", recording)
    datasets, _ = generate_synthetic_stream(cfg, max_seq_len=max_seq_len, validation_fraction=fraction)
    assert max(len(s) for cycle in sessions for s in cycle) > max_seq_len + 1  # some prefixes are trimmed
    for t, (ds, cycle) in enumerate(zip(datasets, sessions)):
        examples = [ex for items in cycle for ex in expand_session(Session(items, 0), max_seq_len)]
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, 1]))
        picked = set(rng.permutation(len(examples))[:int(len(examples) * fraction)].tolist())
        assert list(ds.train) == [ex for i, ex in enumerate(examples) if i not in picked]
        assert list(ds.validation) == [ex for i, ex in enumerate(examples) if i in picked]


def test_examples_index_slice_mask_concatenate_and_compare():
    rows = [TrainingExample((1, 2), 3), TrainingExample((4,), 5), TrainingExample((6, 7, 8), 9)]
    # prefixes as ranges of one array, overlapping and out of order
    examples = Examples([9, 1, 2, 4, 6, 7, 8], [1, 3, 4], [2, 1, 3], [3, 5, 9])
    assert len(examples) == 3 and list(examples) == rows
    assert examples[0] == rows[0] and examples[-1] == rows[-1]
    assert isinstance(examples[np.int64(1)], TrainingExample) and examples[np.int64(1)] == rows[1]
    with pytest.raises(IndexError):
        examples[3]
    assert examples[1:] == rows[1:] and isinstance(examples[1:], Examples)
    assert examples[np.array([2, 0, 2])] == [rows[2], rows[0], rows[2]]
    assert examples[np.array([True, False, True])] == [rows[0], rows[2]]
    assert examples + examples[:1] == rows + rows[:1]
    assert examples + rows == rows + rows and (examples + rows).items.tolist() == [1, 2, 4, 6, 7, 8] * 2
    assert examples == Examples.of(rows) and Examples.of(examples) is examples
    assert examples != Examples.of(rows[::-1]) and examples != rows[:2]
    assert examples != Examples([1, 2, 4, 6, 7, 9], [0, 2, 3], [2, 1, 3], [3, 5, 9])  # one item differs
    assert Examples() == [] and len(Examples()) == 0 and not Examples() and list(Examples()) == []
    assert Examples() + Examples() == Examples() == Examples.of([]) == examples[:0] == examples[np.zeros(3, bool)]
    with pytest.raises(ValueError):
        examples.items[0] = 5  # the columns are read-only
    with pytest.raises(ValueError, match="outside the 2 items"):
        Examples([1, 2], [1], [2], [3])
    with pytest.raises(ValueError, match="starts and lengths"):
        Examples([1, 2], [0, 1], [1], [3])


@pytest.mark.parametrize("seed", range(5))
def test_save_load_save_is_byte_identical_on_trimmed_rows(tmp_path, seed):
    rng = np.random.default_rng(seed)
    datasets = split_cycles(*_long_sessions(rng, 3, 50), period_seconds=WEEK, validation_fraction=0.3, seed=seed,
                            max_seq_len=3)
    assert any(len(ex.prefix) == 3 for ds in datasets for ex in ds.examples)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save_cycles(datasets, first)
    loaded = load_cycles(first)
    assert loaded == datasets
    save_cycles(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    lines = [f"{ds.cycle_id}\t{' '.join(map(str, ex.prefix))}\t{ex.target}\t{tag}"
             for ds in datasets for tag, part in (("train", ds.train), ("val", ds.validation)) for ex in part]
    assert [line for line in first.read_text().splitlines() if not line.startswith("#")] == lines


# ---------------------------------------------------------------------------
# synthetic stream
# ---------------------------------------------------------------------------


def test_synthetic_no_new_items_keeps_vocab_constant():
    cfg = SyntheticStreamConfig(
        cycle_count=4, sessions_per_cycle=30, mean_session_length=4,
        initial_vocab=50, new_items_per_cycle=0, popularity_drift_rate=0.0, seed=2,
    )
    datasets, registry = generate_synthetic_stream(cfg)
    assert [d.item_count_after for d in datasets] == [50, 50, 50, 50]
    assert len(registry) == 50


def test_synthetic_seed_determinism():
    cfg = SyntheticStreamConfig(cycle_count=3, sessions_per_cycle=40, initial_vocab=60,
                                new_items_per_cycle=5, seed=7)
    d1, _ = generate_synthetic_stream(cfg)
    d2, _ = generate_synthetic_stream(cfg)
    assert d1 == d2


def test_synthetic_vocab_arithmetic():
    cfg = SyntheticStreamConfig(cycle_count=8, sessions_per_cycle=20, initial_vocab=200,
                                new_items_per_cycle=10, seed=0)
    datasets, registry = generate_synthetic_stream(cfg)
    assert datasets[-1].item_count_after == 270
    assert len(registry) == 270


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticStreamConfig(cycle_count=0)
    with pytest.raises(ValueError):
        SyntheticStreamConfig(popularity_drift_rate=1.5)
    with pytest.raises(ValueError):
        SyntheticStreamConfig(mean_session_length=1.0)
    for bad in ({"sessions_per_cycle": 20.5}, {"cycle_count": True}, {"seed": -1}, {"new_items_per_cycle": 1.5},
                {"mean_session_length": float("nan")}, {"popularity_drift_rate": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SyntheticStreamConfig(**bad)


def test_synthetic_new_action_fraction_declines():
    # the share of targets that are items new in their cycle
    datasets, registry = generate_synthetic_stream(SyntheticStreamConfig(seed=5))
    fractions = [np.mean([registry.cycle_first_seen[ex.target] == ds.cycle_id for ex in ds.examples])
                 for ds in datasets]
    assert fractions[0] == 1.0
    assert fractions[1] > fractions[4] > fractions[7]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_cycles_round_trip(tmp_path):
    cfg = SyntheticStreamConfig(cycle_count=3, sessions_per_cycle=25, initial_vocab=40,
                                new_items_per_cycle=3, seed=4)
    datasets, _ = generate_synthetic_stream(cfg)
    path = tmp_path / "cycles.txt"
    save_cycles(datasets, path)
    assert load_cycles(path) == datasets


def test_registry_round_trip(tmp_path):
    registry = ItemRegistry()
    registry.register("x", 0)
    registry.register("y", 0)
    registry.register("z", 2)
    registry.register("x", 3)  # already known: keeps its index and first cycle
    path = tmp_path / "registry.tsv"
    registry.save(path)
    assert path.read_text(encoding="utf-8") == "0\tx\t0\n1\ty\t0\n2\tz\t2\n"


def test_cycles_id_mismatch_names_path_and_line(tmp_path):
    path = tmp_path / "cycles.txt"
    path.write_text("# cycle 0 items 5\n0\t1 2\t3\ttrain\n1\t2\t4\ttrain\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"cycles\.txt:3: example of cycle 1 under cycle 0"):
        load_cycles(path)
    path.write_text("0\t1 2\t3\ttrain\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"cycles\.txt:1: example of cycle 0 under no cycle header"):
        load_cycles(path)


@pytest.mark.parametrize("line,message", [
    pytest.param("0\t1 2\t3\ttrian", r"split tag 'trian' is neither 'train' nor 'val'", id="misspelt-tag"),
    pytest.param("0\t1 2\t3", r"expected 4 tab-separated fields, got 3", id="three-fields"),
    pytest.param("0\t1 2\t3\ttrain\textra", r"expected 4 tab-separated fields, got 5", id="five-fields"),
    pytest.param("0\t4\t0\ntrain\t0\t3\t1\tval", r"expected 4 tab-separated fields, got 3",
                 id="two-lines-of-eight-fields"),
    pytest.param("0\t1 x\t3\ttrain", r"expected integers, got '0 1 x 3'", id="non-integer-item"),
    pytest.param("0\t1 2\t3.0\ttrain", r"expected integers", id="non-integer-target"),
    pytest.param("0\t-1 2\t3\ttrain", r"item index outside cycle 0's \[0, 5\)", id="negative-item"),
    pytest.param("0\t1 2\t-2\ttrain", r"item index outside cycle 0's \[0, 5\)", id="negative-target"),
    pytest.param("0\t1 5\t3\tval", r"item index outside cycle 0's \[0, 5\)", id="item-past-vocabulary"),
    pytest.param("0\t1 2\t5\ttrain", r"item index outside cycle 0's \[0, 5\)", id="target-past-vocabulary"),
    pytest.param("0\t\t3\ttrain", r"empty prefix", id="empty-prefix"),
    pytest.param("# cycle 1", r"malformed cycle header '# cycle 1'", id="short-header"),
    pytest.param("# cycle 1 vocab 7", r"malformed cycle header", id="header-without-items"),
    pytest.param("# cycle one items 7", r"expected integers, got 'one 7'", id="non-integer-header"),
])
def test_cycles_malformed_line_names_path_and_line(tmp_path, line, message):
    # each of these loaded silently, was read as validation, or raised without naming the line
    path = tmp_path / "cycles.txt"
    path.write_text(f"# cycle 0 items 5\n0\t1 2\t3\ttrain\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"cycles\.txt:3: " + message):
        load_cycles(path)


@pytest.mark.parametrize("text,message", [
    pytest.param("# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 0 items 5\n0\t2\t3\tval\n",
                 r":3: cycle 0 out of sequence, expected cycle 1", id="repeated-id"),
    pytest.param("# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 2 items 5\n2\t2\t3\tval\n",
                 r":3: cycle 2 out of sequence, expected cycle 1", id="skipped-id"),
    pytest.param("# cycle 1 items 5\n1\t1\t2\ttrain\n# cycle 2 items 5\n2\t2\t3\tval\n",
                 r":1: cycle 1 out of sequence, expected cycle 0", id="first-id-not-0"),
    pytest.param("# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 1 items 4\n1\t2\t3\tval\n",
                 r":3: the item count falls from 5 to 4", id="items-fall"),
    pytest.param("# cycle 0 items 5\n0\t1\t2\tval\n# cycle 1 items 5\n1\t2\t3\ttrain\n",
                 r":1: cycle 0 has no 'train' line", id="no-train-line"),
    pytest.param("\n# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 1 items 5\n# cycle 2 items 5\n2\t2\t3\tval\n",
                 r":4: cycle 1 has no 'train' line", id="empty-middle-cycle"),
    pytest.param("# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 1 items 6\n",
                 r":3: the last cycle, 1, holds no example", id="empty-last-cycle"),
    pytest.param("", r": no cycle header", id="empty-file"),
])
def test_cycles_out_of_sequence_names_path_and_header_line(tmp_path, text, message):
    # each of these loaded, then either trained on mislabelled cycles or failed mid-run
    path = tmp_path / "cycles.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=r"cycles\.txt" + message):
        load_cycles(path)


def test_cycles_read_line_by_line_equal_the_columns_read(tmp_path):
    # a blank line, a padded cycle id and a double space fail the whole-file parse; the line reader takes them
    canonical, loose = tmp_path / "canonical.txt", tmp_path / "loose.txt"
    canonical.write_text("# cycle 0 items 5\n0\t1 2\t3\ttrain\n0\t4\t0\tval\n# cycle 1 items 6\n1\t5 1\t2\tval\n",
                         encoding="utf-8")
    loose.write_text("\n# cycle 0 items 5\n0\t1  2\t3\ttrain\n 0\t4\t0\tval\n# cycle 1 items 6\n1\t5 1\t2\tval",
                     encoding="utf-8")
    for got, want in zip(load_cycles(loose), load_cycles(canonical), strict=True):
        assert (got.cycle_id, got.item_count_after) == (want.cycle_id, want.item_count_after)
        assert got.train == want.train and got.validation == want.validation


def test_cycles_last_cycle_may_hold_only_validation_lines(tmp_path):
    # the last cycle is test data only, so it needs no 'train' line
    path = tmp_path / "cycles.txt"
    path.write_text("# cycle 0 items 5\n0\t1\t2\ttrain\n# cycle 1 items 5\n1\t2\t3\tval\n", encoding="utf-8")
    assert [(len(ds.train), len(ds.validation)) for ds in load_cycles(path)] == [(1, 0), (0, 1)]
