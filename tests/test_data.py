import numpy as np
import pytest

from cyclerec.data import (
    ColumnFormat,
    ItemRegistry,
    RawEvent,
    Session,
    SyntheticStreamConfig,
    TrainingExample,
    expand_session,
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


def make_events(rows):
    return [RawEvent(s, t, i) for s, t, i in rows]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_well_formed(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\na,1,x\na,2,y\nb,3,x\n")
    events, skipped = ingest(path)
    assert skipped == 0
    assert events == [RawEvent("a", 1, "x"), RawEvent("a", 2, "y"), RawEvent("b", 3, "x")]


def test_ingest_skips_malformed_rows(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("session_id,timestamp,item_id\na,1,x\na,notatime,y\nb,2,z\nb,3,w\n")
    events, skipped = ingest(path)
    assert len(events) == 3
    assert skipped == 1


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
    events, skipped = ingest(path, fmt)
    assert events == [RawEvent("s1", 10, "foo")]


def test_ingest_missing_column_errors(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("sid,timestamp,item_id\na,1,x\n")
    with pytest.raises(ValueError, match="session_id"):
        ingest(path)


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_keeps_supported_session():
    # A and B each occur 5 times across sessions
    rows = []
    for s in range(5):
        rows += [(f"s{s}", s * 10, "A"), (f"s{s}", s * 10 + 1, "B")]
    sessions, registry = preprocess(make_events(rows))
    assert len(sessions) == 5
    assert all(s.items == [registry.key_to_index["A"], registry.key_to_index["B"]] for s in sessions)


def test_preprocess_drops_short_sessions():
    rows = []
    for s in range(5):
        rows += [(f"s{s}", s * 10, "A"), (f"s{s}", s * 10 + 1, "B")]
    rows.append(("lonely", 100, "A"))  # length-1 session
    sessions, _ = preprocess(make_events(rows))
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
    sessions, registry = preprocess(make_events(rows))
    assert len(sessions) == 5
    a, b = registry.key_to_index["A"], registry.key_to_index["B"]
    assert "C" not in registry.key_to_index
    assert sessions[0].items == [a, b]
    assert sessions[4].items == [b, a]


def test_preprocess_all_filtered_errors():
    rows = [("s0", 0, "A"), ("s1", 5, "B")]  # all items below support, sessions length 1
    with pytest.raises(ValueError, match="all sessions filtered"):
        preprocess(make_events(rows))


def test_preprocess_timestamp_sort_with_input_order_ties():
    rows = [("s0", 5, "A"), ("s0", 1, "B"), ("s0", 1, "C")]
    sessions, registry = preprocess(make_events(rows), min_item_support=1)
    keys = [registry.index_to_key[i] for i in sessions[0].items]
    assert keys == ["B", "C", "A"]


def test_preprocess_idempotent_on_representative_log():
    rng = np.random.default_rng(0)
    rows = []
    for s in range(60):
        start = int(rng.integers(0, 1000))
        for j in range(int(rng.integers(2, 6))):
            rows.append((f"s{s}", start + j, f"i{rng.integers(0, 12)}"))
    sessions1, reg1 = preprocess(make_events(rows))
    replayed = []
    for n, s in enumerate(sessions1):
        for j, idx in enumerate(s.items):
            replayed.append((f"r{n}", s.start_time + j, reg1.index_to_key[idx]))
    sessions2, reg2 = preprocess(make_events(replayed))
    seq1 = [[reg1.index_to_key[i] for i in s.items] for s in sessions1]
    seq2 = [[reg2.index_to_key[i] for i in s.items] for s in sessions2]
    assert seq1 == seq2


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


def test_synthetic_new_action_fraction_declines():
    datasets, registry = generate_synthetic_stream(SyntheticStreamConfig(seed=5))
    stats = stream_statistics(datasets, registry)
    fractions = [s["new_action_fraction"] for s in stats]
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
