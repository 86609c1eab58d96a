import os
from pathlib import Path

import pytest
import yaml

from cyclerec.cli import ConfigError, _load_config, build_datasets, main, resolve_config

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
    cfg["data"]["events"] = "somewhere.csv"
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
    ({"events": "events.csv", "columns": {"sesion_col": "sid"}}, "sesion_col"),
    ({"events": "events.csv", "columns": "sid"}, "data.columns"),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_data_key_the_source_does_not_read_exits_1(tmp_path, capsys, data, key, dry_run):
    # such a key was accepted and ignored, and a misspelt column key passed
    # a dry run and then crashed the run with a TypeError
    path = write_config(tmp_path, {"data": data})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_synthetic_source_reads_validation_fraction():
    sizes = {}
    for fraction in (None, 0.5):
        cfg = yaml.safe_load(yaml.safe_dump(TOY_CONFIG))
        if fraction is not None:
            cfg["data"]["validation_fraction"] = fraction
        datasets, _ = build_datasets(resolve_config(cfg))
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


@pytest.mark.parametrize("overrides", [{"methods": ["Finetune", "teleportation"]}, {"exemplar_capacity": 0}])
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
    from cyclerec.data import load_cycles

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
    ("period_days", 0),
    ("period_days", -7),
    ("validation_fraction", -0.2),
    ("validation_fraction", 1.5),
])
def test_bad_split_config_field_exits_1(tmp_path, capsys, field, value):
    path = write_config(tmp_path, {"data": {"events": "events.csv", field: value}})
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
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_ks_or_seeds_exits_1(tmp_path, capsys, field, value, dry_run):
    # before, these passed a dry run and failed with a traceback after (or during) training
    path = write_config(tmp_path, {field: value})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"field '{field}'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field,value", [
    ("eval_batch_size", -5),
    ("eval_batch_size", 0),
    ("kd_batch_size", -4),
    ("learning_rate", -1.0),
])
@pytest.mark.parametrize("dry_run", [True, False])
def test_bad_training_setting_exits_1(tmp_path, capsys, field, value, dry_run):
    # before, eval_batch_size -5 reported a recall from uninitialised features and 0 died with a bare range() error
    path = write_config(tmp_path, {"training": {**TOY_CONFIG["training"], field: value}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [True, False])
def test_negative_run_seed_is_a_usage_error(tmp_path, capsys, dry_run):
    # a dry run printed "seeds: [-1]" and a real run failed after reading the data, with exit 2
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "run"), "--seed", "-1"]
    assert main(argv + (["--dry-run"] if dry_run else [])) == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "non-negative" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("dry_run", [True, False])
def test_model_seed_is_not_a_config_field(tmp_path, capsys, dry_run):
    # the model is seeded from each run's seed; a model seed would be ignored
    path = write_config(tmp_path, {"model": {**TOY_CONFIG["model"], "seed": 123}})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "run")] + (["--dry-run"] if dry_run else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
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
