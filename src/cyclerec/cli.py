"""Command-line entry points: preprocess, run, ablate, report.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import data as data_mod
from .harness import (NO_DROPOUT_KINDS, ComparisonResult, MethodKind, MethodSpec, RunResult, TrainLoopConfig,
                      compare_methods)
from .model import ModelConfig
from .reporting import (
    cycle_rows,
    read_cycle_reports,
    render_reference_footer,
    render_series,
    render_statistics_table,
    summarize_rows,
    write_run_directory,
)

logger = logging.getLogger(__name__)

ABLATION_METHODS = ["ER_random", "ER_loss", "ER_herding", "ADER_equal", "ADER_fix", "ADER"]


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _int_at_least(low: int, what: str):
    """An argparse type: integers >= ``low``, anything else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")


def _delimiter(text: str) -> str:
    if len(text) != 1 or text in "\r\n":
        raise argparse.ArgumentTypeError(f"must be one character other than a line break, got {text!r}")
    return text


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


_MODEL_DEFAULTS = {"embed_dim": 32, "block_count": 2, "attention_heads": 1, "max_seq_len": 50}
_TRAINING_DEFAULTS = {"max_epochs": 100, "patience": 5, "batch_size": 128, "learning_rate": 5e-4}
_TOP_DEFAULTS = {
    "ks": [10, 20],
    "exemplar_capacity": 1000,
    "lambda_base": 0.8,
    "fixed_lambda": 0.8,
    "ewc_strength": 100.0,
    "dropout_rate": 0.3,
    "out": "runs/latest",
}


# keys ``build_datasets`` reads under ``data`` for each source, besides the source itself
_SOURCE_KEYS = {
    "synthetic": {"validation_fraction"},
    "cycles": set(),  # the file holds the split
}
_TOP_KEYS = {"data", "methods", "seeds", "model", "training", "capacity_sweep", *_TOP_DEFAULTS}


def _reject_repeats(values: list, name: str) -> None:
    """A repeated entry would run or write the same thing twice."""
    if len(set(values)) < len(values):
        raise ConfigError(f"field '{name}' must not repeat an entry, got {values!r}")


def _reject_unknown(keys, known: set, where: str, prefix: str = "") -> None:
    unknown = sorted(prefix + str(k) for k in keys if k not in known)
    if unknown:
        raise ConfigError(f"unknown field{'s' if len(unknown) > 1 else ''} {where}: {', '.join(unknown)}")


def resolve_config(raw: dict) -> dict:
    """Validate a run config and fill in defaults; returns the full snapshot.

    ``data`` holds exactly one source: ``synthetic``, a generated stream,
    or ``cycles``, the ``cycles.txt`` that ``cyclerec preprocess`` writes
    from a click log. An unknown key at the top level or under ``model`` or
    ``training``, a key under ``data`` that the chosen source does not
    read, or a ``model`` or ``training`` section that is not a mapping is a
    ``ConfigError``, so no setting is silently ignored or left at a default.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    cfg = dict(raw)
    _reject_unknown(cfg, _TOP_KEYS, "in the config")
    for req in ("data", "methods", "seeds"):
        if req not in cfg:
            raise ConfigError(f"missing required field: {req}")
    if not cfg["methods"]:
        raise ConfigError("field 'methods' must list at least one method")
    data = cfg["data"]
    sources = set(data) & set(_SOURCE_KEYS) if isinstance(data, dict) else set()
    if len(sources) != 1:
        raise ConfigError("field 'data' must hold exactly one of: synthetic, cycles (a click log goes through "
                          "`cyclerec preprocess` first; point 'data.cycles' at the cycles.txt it writes)")
    (source,) = sources
    _reject_unknown(data, {source, *_SOURCE_KEYS[source]}, f"with a '{source}' data source", prefix="data.")
    fraction = data.get("validation_fraction", 0.1)
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0.0 <= fraction < 1.0:
        raise ConfigError(f"field 'data.validation_fraction' must be in [0, 1), got {fraction!r}")
    if "synthetic" in data:
        try:
            stream = data_mod.SyntheticStreamConfig(**data["synthetic"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"field 'data.synthetic': {err}") from err
        if stream.cycle_count < 2:
            raise ConfigError("field 'data.synthetic.cycle_count' must be >= 2: the last cycle is test data only")
    resolved = {**_TOP_DEFAULTS, **cfg}
    for section, defaults in (("model", _MODEL_DEFAULTS), ("training", _TRAINING_DEFAULTS)):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"field '{section}' must be a mapping, got {cfg[section]!r}")
        resolved[section] = {**defaults, **cfg.get(section, {})}
    for name, low in (("ks", 1), ("seeds", 0)):
        values = resolved[name]
        if not isinstance(values, list) or not values or any(type(v) is not int or v < low for v in values):
            raise ConfigError(f"field '{name}' must list integers >= {low}, got {values!r}")
        _reject_repeats(values, name)
    try:
        ModelConfig(**resolved["model"])
        TrainLoopConfig(**resolved["training"], seed=0)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err
    build_methods(resolved["methods"], resolved)
    if "capacity_sweep" in cfg:
        build_sweep(resolved)
    return resolved


def build_datasets(resolved: dict) -> list[data_mod.CycleDataset]:
    """The cycle datasets of a resolved config's source: ``data.cycles`` loaded, or the synthetic stream."""
    data = resolved["data"]
    if "cycles" in data:
        return data_mod.load_cycles(data["cycles"])
    cfg = data_mod.SyntheticStreamConfig(**data["synthetic"])
    datasets, _ = data_mod.generate_synthetic_stream(cfg, max_seq_len=resolved["model"]["max_seq_len"],
                                                     validation_fraction=data.get("validation_fraction", 0.1))
    return datasets


def build_method(name: str, resolved: dict) -> MethodSpec:
    kind = MethodKind.parse(name)
    dropout = None if kind in NO_DROPOUT_KINDS else resolved["dropout_rate"]
    return MethodSpec(
        kind=kind,
        lambda_base=resolved["lambda_base"],
        fixed_lambda=resolved["fixed_lambda"],
        exemplar_capacity=resolved["exemplar_capacity"],
        dropout_rate=dropout,
        ewc_strength=resolved["ewc_strength"],
    )


def build_methods(names: list, resolved: dict) -> list[MethodSpec]:
    """Every named method's spec; a bad name or setting is a ``ConfigError``."""
    try:
        methods = [build_method(str(name), resolved) for name in names]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field 'methods': {err}") from err
    _reject_repeats([m.name for m in methods], "methods")
    return methods


def build_sweep(resolved: dict) -> list[MethodSpec]:
    """ADER at each capacity of the exemplar-budget sweep; a bad or repeated capacity is a ``ConfigError``.

    Without ``capacity_sweep`` the sweep is half and all of ``exemplar_capacity``.
    """
    capacities = resolved.get("capacity_sweep", sorted(
        {max(1, resolved["exemplar_capacity"] // 2), resolved["exemplar_capacity"]}
    ))
    if not isinstance(capacities, list) or not capacities:
        raise ConfigError(f"field 'capacity_sweep' must list capacities, got {capacities!r}")
    ader = build_method("ADER", resolved)
    try:
        sweep = [dataclasses.replace(ader, exemplar_capacity=cap) for cap in capacities]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"field 'capacity_sweep': {err}") from err
    _reject_repeats(capacities, "capacity_sweep")
    return sweep


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid config syntax: {err}") from err


def _execute(
    resolved: dict, methods: list[MethodSpec], out_dir: Path, workers: int, extra: Sequence[MethodSpec] = ()
) -> tuple[ComparisonResult, list[RunResult]]:
    """Run ``methods``, then ``extra``, over every seed as one grid.

    Writes the run directory of ``methods`` and returns it with the runs of ``extra``.
    """
    datasets = build_datasets(resolved)
    loop_cfg = TrainLoopConfig(**resolved["training"], seed=0)
    model_cfg = ModelConfig(**resolved["model"])
    cmp = compare_methods(
        datasets, [*methods, *extra], resolved["seeds"], loop_cfg, model_cfg,
        ks=tuple(resolved["ks"]), workers=workers,
    )
    split = len(methods) * len(resolved["seeds"])
    grid = ComparisonResult(cmp.runs[:split], cmp.ks)
    write_run_directory(out_dir, resolved, grid)
    return grid, cmp.runs[split:]


def cmd_preprocess(args) -> int:
    fmt = data_mod.ColumnFormat(
        session_col=args.session_col, time_col=args.time_col, item_col=args.item_col,
        delimiter=args.delimiter,
    )
    log = data_mod.ingest(args.input, fmt)
    print(f"parsed {len(log)} events ({log.skipped} rows skipped)")
    sessions, registry = data_mod.preprocess(
        log, min_item_support=args.min_item_support, min_session_length=args.min_session_length
    )
    datasets = data_mod.split_cycles(
        sessions, registry,
        period_seconds=args.period_days * 86400,
        validation_fraction=args.validation_fraction,
        seed=args.seed,
        max_seq_len=args.max_seq_len,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.save_cycles(datasets, out / "cycles.txt")
    registry.save(out / "registry.tsv")
    stats = data_mod.stream_statistics(datasets, registry, sessions, args.period_days * 86400)
    table = render_statistics_table(stats)
    (out / "statistics.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"wrote {len(datasets)} cycles to {out}")
    return 0


def cmd_run(args) -> int:
    resolved = resolve_config(_load_config(args.config))
    if "capacity_sweep" in resolved:
        raise ConfigError("field 'capacity_sweep' is read only by `cyclerec ablate`, not by `run`")
    if args.out:
        resolved["out"] = args.out
    if args.seed is not None:
        resolved["seeds"] = [args.seed]
    if args.dry_run:
        print(yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False), end="")
        return 0
    out_dir = Path(resolved["out"])
    grid, _ = _execute(resolved, build_methods(resolved["methods"], resolved), out_dir, args.workers)
    print(summarize_rows(cycle_rows(grid), title="Method comparison"))
    print(f"run directory: {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    resolved = resolve_config(_load_config(args.config))
    if args.out:
        resolved["out"] = args.out
    resolved["methods"] = list(ABLATION_METHODS)
    methods = build_methods(ABLATION_METHODS, resolved)
    sweep = build_sweep(resolved)
    if args.dry_run:
        print(yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False), end="")
        return 0
    # a sweep point equal to a grid method (ADER at the configured capacity) reads the grid's runs
    extra: list[MethodSpec] = []
    for spec in sweep:
        if spec not in methods and spec not in extra:
            extra.append(spec)
    out_dir = Path(resolved["out"])
    grid, extra_runs = _execute(resolved, methods, out_dir, args.workers, extra)
    ablation_text = summarize_rows(cycle_rows(grid), title="Ablation study") + render_reference_footer()
    (out_dir / "ablation.txt").write_text(ablation_text, encoding="utf-8")

    key = f"recall@{max(resolved['ks'])}"
    cap_lines = [f"ADER exemplar-budget sweep ({key})", ""]
    cap_lines.append(f"{'capacity':>10}{'mean':>10}{'std':>10}")
    for spec in sweep:
        vals = np.array([run.means[key] for run in grid.runs + extra_runs if run.method == spec])
        cap_lines.append(f"{spec.exemplar_capacity:>10}{100 * vals.mean():>9.2f}%{100 * vals.std():>9.2f}%")
    (out_dir / "capacity.txt").write_text("\n".join(cap_lines) + "\n" + render_reference_footer(),
                                          encoding="utf-8")
    print(ablation_text)
    print(f"run directory: {out_dir}")
    return 0


def cmd_report(args) -> int:
    rows = read_cycle_reports(args.run_dir)
    summary = summarize_rows(rows, title=f"Run summary: {Path(args.run_dir).name}")
    print(summary, end="")
    if args.out:
        out = Path(args.out)
        if out.resolve() == Path(args.run_dir).resolve():
            raise ConfigError("report --out must differ from the run directory (read-only)")
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.txt").write_text(summary, encoding="utf-8")
        (out / "series.tsv").write_text(render_series(rows), encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cyclerec", description="Continual next-item recommendation benchmark")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v: per-cycle info, -vv: per-epoch debug")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter a raw event log and split update cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--session-col", default="session_id")
    p.add_argument("--time-col", default="timestamp")
    p.add_argument("--item-col", default="item_id")
    p.add_argument("--delimiter", type=_delimiter, default=None)
    p.add_argument("--period-days", type=_positive_int, default=7)
    p.add_argument("--min-item-support", type=_positive_int, default=5)
    p.add_argument("--min-session-length", type=_int_at_least(2, "an integer >= 2"), default=2)
    p.add_argument("--validation-fraction", type=_fraction, default=0.1)
    p.add_argument("--max-seq-len", type=_positive_int, default=50)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("run", help="run a method comparison from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_non_negative_int, default=None, help="override the config's seed list")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run the ablation grid plus an exemplar-budget sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="summarize a completed run directory (read-only)")
    p.add_argument("run_dir")
    p.add_argument("--out", default=None, help="write summary copies to a separate directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        logger.exception("unhandled failure: %s", err)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
