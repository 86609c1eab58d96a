"""Run-directory emission and human-readable tables.

Every number written here is a pure fold over the flat per-cycle records,
so summaries and series can be regenerated from ``cycle_reports.tsv`` at
any time. Nothing in this module embeds timestamps or absolute paths;
identical runs produce byte-identical files.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np
import yaml

from .harness import ComparisonResult

logger = logging.getLogger(__name__)

# Published full-scale reference values (DIGINETICA weekly stream, 30k
# exemplar budget, Recall@20 in percent) for qualitative comparison with
# desk-scale output. Absolute numbers are not reproducible at desk scale.
REFERENCE_FULL_SCALE_RECALL20 = {
    "Finetune": 47.28,
    "Dropout": 49.07,
    "EWC": 47.66,
    "Joint": 50.03,
    "ER_random": 49.14,
    "ER_loss": 49.31,
    "ER_herding": 49.34,
    "ADER_equal": 49.92,
    "ADER_fix": 50.09,
    "ADER": 50.21,
}
REFERENCE_FULL_SCALE_CAPACITY = {10000: 49.59, 20000: 50.05, 30000: 50.21}


def cycle_rows(cmp: ComparisonResult) -> list[dict]:
    """Flatten a comparison into per (method, seed, cycle, k) records."""
    rows = []
    for run in cmp.runs:
        for rep in run.reports:
            for k in cmp.ks:
                rows.append(
                    {
                        "method": run.method.name,
                        "seed": run.seed,
                        "cycle": rep.cycle_id,
                        "k": k,
                        "recall": rep.recall_at[k],
                        "mrr": rep.mrr_at[k],
                        "unseen_fraction": rep.unseen_target_fraction,
                        "test_count": rep.test_example_count,
                    }
                )
    return rows


def _method_order(rows: list[dict]) -> list[str]:
    seen: list[str] = []
    for r in rows:
        if r["method"] not in seen:
            seen.append(r["method"])
    return seen


def render_reference_footer() -> str:
    lines = ["", "Full-scale reference Recall@20 (%) for qualitative ordering:"]
    row = ", ".join(f"{name} {val:.2f}" for name, val in REFERENCE_FULL_SCALE_RECALL20.items())
    lines.append("  " + row)
    lines.append("Full-scale exemplar-budget sensitivity (Recall@20 %): "
                 + ", ".join(f"{n // 1000}k {v:.2f}" for n, v in REFERENCE_FULL_SCALE_CAPACITY.items()))
    return "\n".join(lines) + "\n"


def render_series(rows: list[dict]) -> str:
    """One row per (method, cycle): seed-mean and stdev of each metric."""
    ks = sorted({r["k"] for r in rows})
    cols = []
    for k in ks:
        cols += [f"recall@{k}_mean", f"recall@{k}_std", f"mrr@{k}_mean", f"mrr@{k}_std"]
    lines = ["method\tcycle\t" + "\t".join(cols)]
    for name in _method_order(rows):
        cycles = sorted({r["cycle"] for r in rows if r["method"] == name})
        for cycle in cycles:
            cells = []
            for k in ks:
                sel = [r for r in rows if r["method"] == name and r["cycle"] == cycle and r["k"] == k]
                rec = np.array([r["recall"] for r in sel])
                mrr = np.array([r["mrr"] for r in sel])
                cells += [f"{rec.mean():.6f}", f"{rec.std():.6f}",
                          f"{mrr.mean():.6f}", f"{mrr.std():.6f}"]
            lines.append(f"{name}\t{cycle}\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def summarize_rows(rows: list[dict], title: str = "Run summary") -> str:
    """Seed-mean ± stdev per method from flat per-cycle records.

    Per-seed values are cycle means (each cycle weighted once); the stdev
    is over seeds. Methods and cutoffs keep the order of the records.
    """
    if not rows:
        raise ValueError("no cycle records")
    ks = list(dict.fromkeys(r["k"] for r in rows))
    lines = [title, ""]
    header = (
        f"{'method':<12}"
        + "".join(f"{f'recall@{k}':>22}" for k in ks)
        + "".join(f"{f'mrr@{k}':>22}" for k in ks)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in _method_order(rows):
        seeds = sorted({r["seed"] for r in rows if r["method"] == name})
        per_seed: dict[str, list[float]] = {}
        for seed in seeds:
            for metric in ("recall", "mrr"):
                for k in ks:
                    sel = [
                        r[metric]
                        for r in rows
                        if r["method"] == name and r["seed"] == seed and r["k"] == k
                    ]
                    per_seed.setdefault(f"{metric}@{k}", []).append(float(np.mean(sel)))
        row = f"{name:<12}"
        for metric in ("recall", "mrr"):
            for k in ks:
                vals = np.array(per_seed[f"{metric}@{k}"])
                row += f"{100 * vals.mean():>13.2f} ± {100 * vals.std():<5.2f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_run_directory(out_dir: str | Path, resolved_config: dict, cmp: ComparisonResult) -> Path:
    """Write config snapshot, epoch log, per-cycle records, summary, series."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    snapshot = {k: v for k, v in resolved_config.items() if k != "out"}
    with open(out / "config.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(snapshot, fh, sort_keys=True, default_flow_style=False)

    with open(out / "train_log.tsv", "w", encoding="utf-8") as fh:
        fh.write("method\tseed\tcycle\tepoch\tce\tkd\tlambda\tewc\ttotal\tval_loss\tval_recall\n")
        for run in cmp.runs:
            for r in run.epoch_log:
                fh.write(
                    f"{run.method.name}\t{run.seed}\t{r.cycle}\t{r.epoch}\t"
                    f"{r.ce:.6f}\t{r.kd:.6f}\t{r.lambda_t:.6f}\t{r.ewc:.6f}\t"
                    f"{r.total:.6f}\t{r.val_loss:.6f}\t{r.val_recall:.6f}\n"
                )

    rows = cycle_rows(cmp)
    with open(out / "cycle_reports.tsv", "w", encoding="utf-8") as fh:
        fh.write("method\tseed\tcycle\tk\trecall\tmrr\tunseen_fraction\ttest_count\n")
        for r in rows:
            fh.write(
                f"{r['method']}\t{r['seed']}\t{r['cycle']}\t{r['k']}\t"
                f"{r['recall']:.6f}\t{r['mrr']:.6f}\t{r['unseen_fraction']:.6f}\t{r['test_count']}\n"
            )

    (out / "comparison.txt").write_text(summarize_rows(rows, title="Method comparison"), encoding="utf-8")
    (out / "series.tsv").write_text(render_series(rows), encoding="utf-8")
    return out


def render_statistics_table(stats: list[dict]) -> str:
    """Per-cycle action totals and new-action percentages."""
    lines = [f"{'cycle':>6}{'actions':>10}{'new_actions':>13}{'examples':>10}{'items':>8}"]
    for row in stats:
        lines.append(
            f"{row['cycle']:>6}{row['actions']:>10}{100 * row['new_action_fraction']:>12.2f}%"
            f"{row['examples']:>10}{row['item_count']:>8}"
        )
    return "\n".join(lines) + "\n"


def read_cycle_reports(run_dir: str | Path) -> list[dict]:
    """Parse cycle_reports.tsv back into row dicts."""
    path = Path(run_dir) / "cycle_reports.tsv"
    if not path.exists():
        raise FileNotFoundError(f"incomplete run directory: missing {path}")
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            row = dict(zip(header, cells))
            rows.append(
                {
                    "method": row["method"],
                    "seed": int(row["seed"]),
                    "cycle": int(row["cycle"]),
                    "k": int(row["k"]),
                    "recall": float(row["recall"]),
                    "mrr": float(row["mrr"]),
                    "unseen_fraction": float(row["unseen_fraction"]),
                    "test_count": int(row["test_count"]),
                }
            )
    return rows
