"""The benchmark's workloads and one round of each.

A round builds one continual stream from the run seed and the round
index, times its set-up (``generate_synthetic_stream``, or the
``preprocess`` command on a generated click log) and its run (from the
first update cycle to the last evaluation), and returns what the program
reported in the plain form ``checks`` works on. The program is always
called through its module attributes, so a ``Tracer`` installed around a
round sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from .checks import Cycle, CycleOutput, EpochOutput, Protocol
from .clicklog import ClickLog, write_click_log
from .tracing import LayerStats, Tracer

KS = (10, 20)
SETUP_REPEATS = 3  # set-up is short, so an untraced round times it this many times and keeps the median


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "ADER" (harness, synthetic stream) or "Joint" (CLI, click log)
    model: dict
    training: dict  # TrainLoopConfig fields other than the seed
    stream: dict = field(default_factory=dict)  # SyntheticStreamConfig fields other than the seed
    click_log: ClickLog | None = None
    capacity: int = 0

    @property
    def update_cycles(self) -> int:
        cycles = self.click_log.weeks if self.click_log else self.stream["cycle_count"]
        return cycles - 1

    @property
    def protocol(self) -> Protocol:
        return Protocol(
            method=self.method,
            max_epochs=self.training["max_epochs"],
            patience=self.training["patience"],
            batch_size=self.training["batch_size"],
            kd_batch_size=self.training.get("kd_batch_size") or self.training["batch_size"],
            capacity=self.capacity,
        )


# Sizes are set so that a round takes a few seconds on one core and several
# rounds fit in one run; see README.md for why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ader_drift",
            method="ADER",
            model=dict(embed_dim=32, block_count=2),
            training=dict(max_epochs=12, patience=5, batch_size=256, kd_batch_size=128, learning_rate=3e-3),
            stream=dict(cycle_count=5, sessions_per_cycle=250),
            capacity=300,
        ),
        Workload(
            name="ader_d150",
            method="ADER",
            model=dict(embed_dim=150, block_count=2),
            training=dict(max_epochs=10, patience=5, batch_size=256, kd_batch_size=128, learning_rate=1.5e-3),
            stream=dict(cycle_count=3, sessions_per_cycle=150, initial_vocab=120),
            capacity=300,
        ),
        Workload(
            name="joint_clicklog",
            method="Joint",
            model=dict(embed_dim=32, block_count=2),
            training=dict(max_epochs=4, patience=3, batch_size=256, learning_rate=3e-3),
            click_log=ClickLog(),
        ),
    )
}


@dataclass
class RoundResult:
    setup_s: float
    run_s: float
    cpu_s: float
    cycles: list[Cycle]
    outputs: list[CycleOutput]
    tol: float  # how closely reported fractions can match (the CLI writes 6 decimals)
    setup_trace: dict[str, LayerStats] | None = None
    run_trace: dict[str, LayerStats] | None = None
    samples: dict[str, list] | None = None


def round_seeds(seed: int, index: int) -> tuple[int, int]:
    """(input seed, training seed) of round ``index`` of a run with ``seed``."""
    a, b = np.random.SeedSequence([seed % 2**63, index]).generate_state(2)
    return int(a % 2**31), int(b % 2**31)


def _examples(rows) -> list[tuple[tuple[int, ...], int]]:
    return [(tuple(ex.prefix), int(ex.target)) for ex in rows]


def run_round(wl: Workload, seed: int, index: int, workdir: Path, tracer: Tracer | None = None) -> RoundResult:
    if wl.click_log is not None:
        return _clicklog_round(wl, seed, index, workdir, tracer)
    return _synthetic_round(wl, seed, index, tracer)


def _synthetic_round(wl: Workload, seed: int, index: int, tracer: Tracer | None) -> RoundResult:
    from cyclerec import data, harness, model

    input_seed, train_seed = round_seeds(seed, index)
    cfg = data.SyntheticStreamConfig(seed=input_seed, **wl.stream)
    times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = perf_counter()
        datasets, _ = data.generate_synthetic_stream(cfg)
        times.append(perf_counter() - start)
    setup_s = statistics.median(times)
    setup_trace = tracer.take()[0] if tracer else None

    method = harness.MethodSpec(harness.MethodKind(wl.method), exemplar_capacity=wl.capacity)
    loop = harness.TrainLoopConfig(seed=train_seed, **wl.training)
    model_cfg = model.ModelConfig(**wl.model)
    cpu0, start = process_time(), perf_counter()
    result = harness.run_experiment(datasets, method, loop, model_cfg, ks=KS)
    run_s, cpu_s = perf_counter() - start, process_time() - cpu0
    run_trace, samples = tracer.take() if tracer else (None, None)

    cycles = [Cycle(_examples(ds.train), _examples(ds.validation), ds.item_count_after) for ds in datasets]
    stores = {event[1]: event[2] for event in result.audit if event[0] == "exemplars"}
    outputs = []
    for rep in result.reports:
        epochs = [
            EpochOutput(r.epoch, {"ce": r.ce, "kd": r.kd, "ewc": r.ewc, "total": r.total}, r.lambda_t, r.val_loss)
            for r in result.epoch_log
            if r.cycle == rep.cycle_id
        ]
        outputs.append(CycleOutput(
            cycle=rep.cycle_id, epochs=epochs, recall=dict(rep.recall_at), mrr=dict(rep.mrr_at),
            test_count=rep.test_example_count, unseen_fraction=rep.unseen_target_fraction,
            exemplar_count=stores.get(rep.cycle_id),
        ))
    return RoundResult(setup_s, run_s, cpu_s, cycles, outputs, 1e-9, setup_trace, run_trace, samples)


def _cli(argv: list[str]) -> None:
    from cyclerec import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cyclerec {argv[0]} exited with code {code}")


def _clicklog_round(wl: Workload, seed: int, index: int, workdir: Path, tracer: Tracer | None) -> RoundResult:
    input_seed, train_seed = round_seeds(seed, index)
    rdir = workdir / f"round{index}"
    if rdir.exists():
        shutil.rmtree(rdir)
    rdir.mkdir(parents=True)
    write_click_log(rdir / "clicks.csv", wl.click_log, input_seed)

    times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        start = perf_counter()
        _cli(["preprocess", "--input", str(rdir / "clicks.csv"), "--out", str(rdir / "cycles"),
              "--seed", str(input_seed)])
        times.append(perf_counter() - start)
    setup_s = statistics.median(times)
    setup_trace = tracer.take()[0] if tracer else None

    config = {
        "data": {"cycles": str(rdir / "cycles" / "cycles.txt")},
        "methods": [wl.method],
        "seeds": [train_seed],
        "ks": list(KS),
        "model": wl.model,
        "training": wl.training,
    }
    (rdir / "config.yaml").write_text(json.dumps(config), encoding="utf-8")  # JSON is YAML
    cpu0, start = process_time(), perf_counter()
    _cli(["run", "--config", str(rdir / "config.yaml"), "--out", str(rdir / "run")])
    run_s, cpu_s = perf_counter() - start, process_time() - cpu0
    run_trace, samples = tracer.take() if tracer else (None, None)

    cycles = read_cycles(rdir / "cycles" / "cycles.txt")
    outputs = read_run_directory(rdir / "run")
    return RoundResult(setup_s, run_s, cpu_s, cycles, outputs, 1e-6, setup_trace, run_trace, samples)


def read_cycles(path: Path) -> list[Cycle]:
    """Parse the ``preprocess`` output: '# cycle <id> items <n>' headers, then tab-separated examples.

    Read here rather than with ``cyclerec.data.load_cycles``, so the checks do not rest on the program's reader.
    """
    cycles: list[Cycle] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            words = line.split()
            if int(words[2]) != len(cycles):
                raise ValueError(f"{path}: cycle {words[2]} out of order")
            cycles.append(Cycle([], [], int(words[4])))
        elif line:
            cycle_id, prefix, target, tag = line.split("\t")
            example = (tuple(int(i) for i in prefix.split()), int(target))
            (cycles[int(cycle_id)].train if tag == "train" else cycles[int(cycle_id)].validation).append(example)
    return cycles


def _tsv(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    names = header.split("\t")
    return [dict(zip(names, row.split("\t"))) for row in rows]


def read_run_directory(run_dir: Path) -> list[CycleOutput]:
    """Per-cycle outputs from ``train_log.tsv`` and ``cycle_reports.tsv`` of a one-method, one-seed run."""
    outputs: dict[int, CycleOutput] = {}
    for row in _tsv(run_dir / "cycle_reports.tsv"):
        t, k = int(row["cycle"]), int(row["k"])
        out = outputs.setdefault(t, CycleOutput(t, [], {}, {}, int(row["test_count"]), float(row["unseen_fraction"])))
        out.recall[k] = float(row["recall"])
        out.mrr[k] = float(row["mrr"])
    for row in _tsv(run_dir / "train_log.tsv"):
        losses = {name: float(row[name]) for name in ("ce", "kd", "ewc", "total")}
        outputs[int(row["cycle"])].epochs.append(
            EpochOutput(int(row["epoch"]), losses, float(row["lambda"]), float(row["val_loss"]))
        )
    return [outputs[t] for t in sorted(outputs)]
