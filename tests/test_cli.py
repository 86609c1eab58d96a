import os
import re
from pathlib import Path

import pytest
import yaml

from cyclerec.cli import ConfigError, _load_config, build_datasets, main, resolve_config
from cyclerec.data import load_cycles
from cyclerec.reporting import read_cycle_reports

REPO = Path(__file__).resolve().parents[1]

TOY_CONFIG = {
    "data": {
        "synthetic": {
            "cycle_count": 3,
            "sessions_per_cycle": 40,
            "mean_session_length": 4,
            "initial_vocab": 30,
            "new_items_per_cycle": 3,
            "popularity_drift_rate": 0.3,
            "seed": 5,
        }
    },
    "model": {"embed_dim": 16, "block_count": 1, "max_seq_len": 12},
    "training": {"max_epochs": 2, "patience": 1, "batch_size": 64},
    "methods": ["Finetune", "ADER"],
    "seeds": [1],
    "exemplar_capacity": 40,
}


def write_config(tmp_path, overrides=None, drop=None):
    cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
    for key in drop or []:
        cfg.pop(key)
    cfg.update(overrides or {})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def write_events(tmp_path):
    lines = ["session_id,timestamp,item_id"]
    day = 86400
    for s in range(30):
        start = (s % 3) * 7 * day + (s % 5) * day
        for j in range(3):
            lines.append(f"s{s},{start + j},i{(s + j) % 6}")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_resolve_fills_defaults():
    resolved = resolve_config(yaml.safe_load(yaml.safe_dump(TOY_CONFIG)))
    assert resolved["ks"] == [10, 20]
    assert resolved["lambda_base"] == 0.8
    assert resolved["model"]["embed_dim"] == 16
    assert resolved["training"]["learning_rate"] == 5e-4



def test_quick_start_config_resolves_and_matches_readme():
    raw = _load_config(str(REPO / "examples-config.yaml"))
    resolved = resolve_config(raw)
    assert resolved["methods"] == ["ADER", "Finetune", "Dropout"]
    assert resolved["model"]["embed_dim"] == 32
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal config:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == raw

def test_resolve_missing_field_names_it():
    for field in ("data", "methods", "seeds"):
        cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
        cfg.pop(field)
        with pytest.raises(ConfigError, match=field):
            resolve_config(cfg)


def test_resolve_rejects_unknown_method():
    cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
    cfg["methods"] = ["Finetune", "teleportation"]
    with pytest.raises(ValueError, match="teleportation"):
        resolve_config(cfg)


def test_resolve_rejects_ambiguous_data():
    cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
    cfg["data"]["cycles"] = "prepped/cycles.txt"
    with pytest.raises(ConfigError, match="data"):
        resolve_config(cfg)


SYNTHETIC = TOY_CONFIG["data"]["synthetic"]


@pytest.mark.parametrize("data,key", [
    ({"synthetic": SYNTHETIC, "min_item_support": 2}, "min_item_support"),
    ({"synthetic": SYNTHETIC, "min_session_length": 3}, "min_session_length"),
    ({"synthetic": SYNTHETIC, "period_days": 3}, "period_days"),
    ({"synthetic": SYNTHETIC, "split_seed": 4}, "split_seed"),
    ({"synthetic": SYNTHETIC, "columns": {"session_col": "sid"}}, "columns"),
    ({"cycles": "prepped/cycles.txt", "validation_fraction": 0.5}, "validation_fraction"),
    ({"cycles": "prepped/cycles.txt", "min_item_support": 2}, "min_item_support"),
    ({"cycles": "prepped/cycles.txt", "sesion_col": "sid"}, "sesion_col"),
    ({"cycles": "prepped/cycles.txt", "columns": {"session_col": "sid"}}, "data.columns"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_data_key_the_source_does_not_read_exits_1(tmp_path, capsys, data, key, dry_run):
    # such a key was accepted and ignored; the error names it by its path under 'data'
    path = write_config(tmp_path, {"data": data})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_click_log_source_is_a_config_error_naming_preprocess(tmp_path, capsys, dry_run):
    # a click log reaches a run only as the cycles.txt that preprocess writes
    path = write_config(tmp_path, {"data": {"events": str(write_events(tmp_path)), "period_days": 7}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "cyclerec preprocess" in err and "data.cycles" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_synthetic_source_reads_validation_fraction():
    sizes = {}
    for fraction in (None, 0.5):
        cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
        if fraction is not None:
            cfg["data"]["validation_fraction"] = fraction
        datasets = build_datasets(resolve_config(cfg))
        sizes[fraction] = [(len(ds.train), len(ds.validation)) for ds in datasets]
    for (train, val), (half_train, half_val) in zip(sizes[None], sizes[0.5]):
        assert val == int(0.1 * (train + val)) and half_val == int(0.5 * (half_train + half_val))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_dry_run_prints_resolved_config(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--dry-run"]) == 0
    printed = yaml.safe_load(capsys.readouterr().out)
    assert printed["methods"] == ["Finetune", "ADER"]
    assert printed["training"]["max_epochs"] == 2


def test_run_missing_config_field_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, drop=["methods"])
    assert main(["run", "--config", str(path)]) == 1
    assert "methods" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"methods": ["Finetune", "teleportation"]},
    {"exemplar_capacity": 0},
    # before, these passed a dry run; the first and third then failed with a
    # TypeError (exit 2), and the others trained: at capacity 1, or with a NaN
    # or a negative weight
    {"exemplar_capacity": 10.5},
    {"exemplar_capacity": True},
    {"lambda_base": "x"},
    {"fixed_lambda": float("nan")},
    {"lambda_base": -0.5},
    {"ewc_strength": -3},
    {"methods": ["ADER", "ader"]},  # before, trained every ADER run twice
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_run_bad_method_config_exits_1(tmp_path, capsys, overrides, dry_run):
    # an unknown method and a method setting its spec rejects are both
    # configuration errors, caught before anything runs
    path = write_config(tmp_path, overrides)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "methods" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides,key", [
    ({"exemplar_capacty": 5}, "exemplar_capacty"),
    ({"data": {"cycles": "prepped/cycles.txt", "period_dayz": 3}}, "period_dayz"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_run_unknown_config_key_exits_1(tmp_path, capsys, overrides, key, dry_run):
    # a misspelt key would otherwise leave its setting at the default
    path = write_config(tmp_path, overrides)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "run").exists()


def test_usage_error_exits_1(capsys):
    assert main(["run"]) == 1  # --config is required


def test_unknown_command_exits_1(capsys):
    assert main(["explode"]) == 1


def test_run_writes_run_directory(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"out": str(tmp_path / "run1")})
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "run1"
    for name in ("config.yaml", "train_log.tsv", "cycle_reports.tsv", "comparison.txt", "series.tsv"):
        assert (out / name).exists(), name
    series = (out / "series.tsv").read_text().strip().splitlines()
    # header + methods x evaluated cycles (3 cycles -> 2 evaluations each)
    assert len(series) == 1 + 2 * 2
    reports = (out / "cycle_reports.tsv").read_text().strip().splitlines()
    assert len(reports) == 1 + 2 * 2 * 2  # methods x cycles x ks


def test_report_reads_back_and_is_read_only(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"out": str(tmp_path / "run2")})
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "run2"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "Finetune" in summary and "ADER" in summary
    assert "± 0.00" in summary  # single seed -> zero stdev
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_report_out_must_differ_from_run_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"out": str(tmp_path / "run3")})
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["report", str(tmp_path / "run3"), "--out", str(tmp_path / "run3")]) == 1
    assert main(["report", str(tmp_path / "run3"), "--out", str(tmp_path / "copy")]) == 0
    assert (tmp_path / "copy" / "summary.txt").exists()
    assert (tmp_path / "copy" / "series.tsv").exists()


def test_report_missing_run_dir_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nonexistent")]) == 2


def test_preprocess_writes_cycles_and_statistics(tmp_path, capsys):
    events = write_events(tmp_path)
    out = tmp_path / "prep"
    assert main([
        "preprocess", "--input", str(events), "--out", str(out),
        "--min-item-support", "2", "--period-days", "7",
    ]) == 0
    assert (out / "cycles.txt").exists()
    assert (out / "registry.tsv").exists()
    stats_lines = (out / "statistics.txt").read_text().strip().splitlines()
    cycles = load_cycles(out / "cycles.txt")
    assert len(stats_lines) == 1 + len(cycles)  # header + one row per cycle


def test_preprocess_statistics_do_not_depend_on_max_seq_len(tmp_path, capsys):
    # at --max-seq-len 1 every prefix has length 1; counting those as
    # opening clicks put 3 actions on every 2-row session
    events = write_events(tmp_path)
    args = ["--min-item-support", "2", "--period-days", "7"]
    tables = []
    for max_len in ("1", "50"):
        out = tmp_path / f"prep{max_len}"
        assert main(["preprocess", "--input", str(events), "--out", str(out), "--max-seq-len", max_len] + args) == 0
        tables.append((out / "statistics.txt").read_bytes())
    assert tables[0] == tables[1]


def test_preprocess_skips_timestamps_outside_int64(tmp_path, capsys):
    # an inf timestamp crashed ingest (exit 2); 1e30 was kept as a 31-digit time
    events = write_events(tmp_path)
    clean = events.read_text()
    events.write_text(clean + "s0,inf,i0\ns1,-inf,i1\ns2,1e30,i2\ns3,-1e30,i3\n")
    args = ["--min-item-support", "2", "--period-days", "7"]
    assert main(["preprocess", "--input", str(events), "--out", str(tmp_path / "bad")] + args) == 0
    assert "parsed 90 events (4 rows skipped)" in capsys.readouterr().out
    (tmp_path / "clean.csv").write_text(clean)
    assert main(["preprocess", "--input", str(tmp_path / "clean.csv"), "--out", str(tmp_path / "clean")] + args) == 0
    for name in ("cycles.txt", "registry.tsv", "statistics.txt"):
        assert (tmp_path / "bad" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


@pytest.mark.parametrize("option,value", [
    ("--period-days", "0"),  # divided by in split_cycles
    ("--period-days", "-7"),
    ("--validation-fraction", "-0.2"),
    ("--validation-fraction", "1.5"),
    ("--max-seq-len", "0"),  # empty prefixes
    ("--min-session-length", "1"),  # a one-click session has no training example
    ("--min-session-length", "0"),
    ("--min-item-support", "0"),
    ("--seed", "-1"),
    ("--delimiter", ";;"),  # crashed ingest with a traceback, exit 2
    ("--delimiter", "\n"),
    ("--delimiter", ""),  # fell back to auto-detection
])
def test_preprocess_bad_split_setting_is_a_usage_error(tmp_path, capsys, option, value):
    events = write_events(tmp_path)
    out = tmp_path / "prep"
    argv = ["preprocess", "--input", str(events), "--out", str(out), "--min-item-support", "2", option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert option in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_zero_workers_is_a_usage_error(tmp_path, capsys, command):
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "run"), "--workers", "0"]
    assert main(argv) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field,value", [
    ("validation_fraction", -0.2),
    ("validation_fraction", 1.5),
])
def test_bad_split_config_field_exits_1(tmp_path, capsys, field, value):
    path = write_config(tmp_path, {"data": {"synthetic": SYNTHETIC, field: value}})
    assert main(["run", "--config", str(path), "--dry-run"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"data.{field}" in err


@pytest.mark.parametrize("field,value", [
    ("ks", [0]),
    ("ks", [10, -20]),
    ("ks", [2.5]),
    ("ks", 20),
    ("seeds", [1.5]),
    ("seeds", [-1]),
    ("seeds", [True]),
    ("seeds", "1"),
    ("ks", [20, 10, 20]),  # before, wrote every k=20 row of cycle_reports.tsv twice
    ("seeds", [1, 1]),  # before, trained every run twice
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_ks_or_seeds_exits_1(tmp_path, capsys, field, value, dry_run):
    # before, these passed a dry run and failed with a traceback after (or during) training,
    # or (a repeated entry) ran and wrote the same thing twice
    path = write_config(tmp_path, {field: value})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field,value", [
    ("kd_batch_size", -4),
    ("learning_rate", -1.0),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_training_setting_exits_1(tmp_path, capsys, field, value, dry_run):
    # before, a negative kd_batch_size skipped distillation and a negative rate trained uphill
    path = write_config(tmp_path, {"training": {**TOY_CONFIG["training"], field: value}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,field,value", [
    ("model", "embed_dim", 8.0),
    ("model", "block_count", 1.0),
    ("model", "attention_heads", True),
    ("model", "max_seq_len", True),
    ("training", "max_epochs", 2.5),
    ("training", "patience", True),
    ("training", "batch_size", 32.0),
    ("training", "kd_batch_size", 16.0),
    ("training", "learning_rate", True),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_counts_must_be_integers_exits_1(tmp_path, capsys, section, field, value, dry_run):
    # before, each passed a dry run; a real run then failed with a TypeError
    # (exit 2), or trained with patience 1 or at learning rate 1
    path = write_config(tmp_path, {section: {**TOY_CONFIG[section], field: value}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field,value", [
    ("sessions_per_cycle", 20.5),
    ("mean_session_length", float("nan")),
    ("mean_session_length", float("inf")),
    ("seed", -1),
    ("cycle_count", True),
    ("cycle_count", 1),
    ("popularity_drift_rate", True),
    ("new_items_per_cycle", 2.5),
    ("initial_vocab", 0),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_synthetic_stream_field_exits_1(tmp_path, capsys, field, value, dry_run):
    # before, each passed a dry run (a zero vocabulary failed, naming no field); a real run then
    # failed with exit 2, or read True as 1 (a one-cycle stream, or training at drift 1.0)
    synthetic = {**TOY_CONFIG["data"]["synthetic"], field: value}
    path = write_config(tmp_path, {"data": {"synthetic": synthetic}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_capacity_sweep_is_for_ablate_only(tmp_path, capsys, dry_run):
    # before, `run` accepted the sweep, which it never reads, and wrote it into config.yaml
    path = write_config(tmp_path, {"capacity_sweep": [20, 40]})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "capacity_sweep" in err and "ablate" in err
    assert not (tmp_path / "run").exists()
    assert main(["ablate", "--config", str(path), "--dry-run"]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["capacity_sweep"] == [20, 40]


@pytest.mark.parametrize("dry_run", [True, False])
def test_negative_run_seed_is_a_usage_error(tmp_path, capsys, dry_run):
    # a dry run printed "seeds: [-1]" and a real run failed after reading the data, with exit 2
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "run"), "--seed", "-1"]
    assert main(argv + (["--dry-run"] if dry_run else [])) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_click_log_runs_through_preprocess_and_cycles(tmp_path, capsys):
    prep = tmp_path / "prep"
    argv = ["preprocess", "--input", str(write_events(tmp_path)), "--out", str(prep), "--min-item-support", "2"]
    assert main(argv) == 0
    cycles = load_cycles(prep / "cycles.txt")
    assert len(cycles) == 3
    path = write_config(tmp_path, {"data": {"cycles": str(prep / "cycles.txt")}, "out": str(tmp_path / "run")})
    assert main(["run", "--config", str(path)]) == 0
    rows = read_cycle_reports(tmp_path / "run")
    assert sorted({(r["method"], r["cycle"]) for r in rows}) == [(m, t) for m in ("ADER", "Finetune") for t in (0, 1)]
    for row in rows:  # a report row of cycle t tests on all of cycle t + 1
        assert row["test_count"] == len(cycles[row["cycle"] + 1].examples)


def test_preprocess_idempotent_bytes(tmp_path, capsys):
    events = write_events(tmp_path)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    args = ["--min-item-support", "2", "--period-days", "7", "--seed", "3"]
    assert main(["preprocess", "--input", str(events), "--out", str(out1)] + args) == 0
    assert main(["preprocess", "--input", str(events), "--out", str(out2)] + args) == 0
    for name in ("cycles.txt", "registry.tsv", "statistics.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("dry_run", [True, False])
def test_ablate_bad_capacity_sweep_exits_1(tmp_path, capsys, dry_run):
    path = write_config(tmp_path, {"capacity_sweep": [20, 0]})
    argv = ["ablate", "--config", str(path), "--out", str(tmp_path / "abl")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "capacity_sweep" in err
    assert not (tmp_path / "abl").exists()


@pytest.mark.parametrize("sweep", [
    pytest.param([2.7], id="float"),  # before, truncated to 2
    pytest.param("12", id="string"),  # before, swept capacities 1 and 2
    pytest.param([True], id="bool"),  # before, swept capacity 1
    pytest.param([20, 20], id="repeat"),  # before, trained the same sweep point twice
    pytest.param([], id="empty"),  # before, fell back to the default sweep
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_ablate_capacity_sweep_must_list_distinct_capacities(tmp_path, capsys, sweep, dry_run):
    path = write_config(tmp_path, {"capacity_sweep": sweep})
    argv = ["ablate", "--config", str(path), "--out", str(tmp_path / "abl")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "capacity_sweep" in err
    assert not (tmp_path / "abl").exists()


REPORT_HEADER = ["method", "seed", "cycle", "k", "recall", "mrr", "unseen_fraction", "test_count"]
REPORT_ROW = ["ADER", "1", "0", "20", "0.500000", "0.250000", "0.000000", "40"]


@pytest.mark.parametrize("lines,line", [
    pytest.param([REPORT_HEADER[:5] + REPORT_HEADER[6:], REPORT_ROW[:5] + REPORT_ROW[6:]], 1, id="missing-column"),
    pytest.param([REPORT_HEADER, REPORT_ROW, REPORT_ROW[:7]], 3, id="short-row"),
    pytest.param([REPORT_HEADER, REPORT_ROW, REPORT_ROW + ["x"]], 3, id="long-row"),
    pytest.param([REPORT_HEADER, REPORT_ROW[:4] + ["abc"] + REPORT_ROW[5:]], 2, id="bad-float"),
    pytest.param([REPORT_HEADER, REPORT_ROW[:1] + ["1.5"] + REPORT_ROW[2:]], 2, id="bad-int"),
])
def test_report_on_a_malformed_cycle_reports_names_path_and_line(tmp_path, capsys, lines, line):
    # before, a missing column or a short row printed "unhandled failure" with a traceback
    path = tmp_path / "cycle_reports.tsv"
    path.write_text("".join("\t".join(cells) + "\n" for cells in lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        read_cycle_reports(tmp_path)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: ") and "Traceback" not in err


@pytest.mark.parametrize("section,value", [
    pytest.param("model", [16], id="model-list"),
    pytest.param("model", None, id="model-null"),
    pytest.param("training", 3, id="training-int"),
    pytest.param("training", "fast", id="training-str"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_model_or_training_section_not_a_mapping_exits_1(tmp_path, capsys, section, value, dry_run):
    # before, resolving the section printed "unhandled failure" with a traceback, exit 2
    path = write_config(tmp_path, {section: value})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{section}' must be a mapping" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_model_seed_is_not_a_config_field(tmp_path, capsys, dry_run):
    # the model is seeded from each run's seed; a model seed would be ignored
    path = write_config(tmp_path, {"model": {**TOY_CONFIG["model"], "seed": 123}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value", [
    ("model", "dropout_rate", 0.9),  # the method owns the rate: the top-level dropout_rate
    ("training", "eval_batch_size", 512),  # every inference pass scores in blocks of model.BLOCK_ROWS
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_settings_with_another_owner_are_config_errors(tmp_path, capsys, section, key, value, dry_run):
    # before, model.dropout_rate was written to config.yaml and then ignored
    path = write_config(tmp_path, {section: {**TOY_CONFIG[section], key: value}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_out_of_range_dropout_rate_exits_1(tmp_path, capsys, dry_run):
    # before, a dry run passed and the run failed in the model config, with exit 2
    path = write_config(tmp_path, {"methods": ["Dropout"], "dropout_rate": 1.5})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "dropout_rate" in err
    assert not (tmp_path / "run").exists()


def test_ablate_reads_the_configured_capacity_from_the_grid(tmp_path, capsys, monkeypatch):
    import numpy as np

    import cyclerec.harness as harness

    calls = []
    run = harness.run_experiment

    def counting(datasets, method, *args, **kwargs):
        calls.append((method.name, method.exemplar_capacity))
        return run(datasets, method, *args, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", counting)
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    # six grid methods plus ADER at half capacity; ADER at capacity 40 is a grid run
    assert sorted(calls) == sorted([(name, 40) for name in
                                    ("ER_random", "ER_loss", "ER_herding", "ADER_equal", "ADER_fix", "ADER")]
                                   + [("ADER", 20)])
    ader = [r for r in (out / "cycle_reports.tsv").read_text().splitlines()[1:]
            if r.split("\t")[0] == "ADER" and r.split("\t")[3] == "20"]
    mean = np.mean([float(r.split("\t")[4]) for r in ader])
    lines = (out / "capacity.txt").read_text().splitlines()
    assert [line.split()[0] for line in lines[3:5]] == ["20", "40"]
    assert lines[4].split()[1] == f"{100 * mean:.2f}%"
    assert (out / "ablation.txt").read_text().startswith("Ablation study")


def test_ablate_dry_run_lists_ablation_methods(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["ablate", "--config", str(cfg), "--dry-run"]) == 0
    printed = yaml.safe_load(capsys.readouterr().out)
    assert printed["methods"] == ["ER_random", "ER_loss", "ER_herding", "ADER_equal", "ADER_fix", "ADER"]
