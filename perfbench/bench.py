"""Round loop, output checks and metrics of one benchmark run.

A run repeats whole rounds until the next one would overrun the time
budget (at least one round). Round ``r`` of a run with seed ``s`` always
builds the same stream, so a seed fixes every input. Timings and rates
are medians over rounds; Recall@20 and MRR@20 are means over rounds,
each round being a different stream. With tracing on, each round runs
its stream twice, untraced and then traced, so the two run times compare
the same work, and the traced outputs must equal the untraced ones.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from . import checks
from .tracing import LAYER_MODULES, Tracer
from .workloads import RoundResult, Workload, run_round

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "examples_per_s": "examples/s",
    "steps_per_s": "steps/s",
    "recall_at_20": "fraction",
    "mrr_at_20": "fraction",
    "peak_rss_mb": "MB",
}

# Layers reported by the traced run, with the figures kept for each. A layer
# the program no longer defines reads 0 and is counted in trace.absent_layers.
LAYERS = {
    "model.loss_and_gradients": ("self_s", "calls", "rows", "tokens"),
    "model.adam_step": ("self_s", "calls"),
    "model.extract_features_batch": ("self_s", "rows"),
    "model.ModelState.copy": ("self_s", "calls"),
    "losses.ce_from_logits": ("self_s", "calls"),
    "losses.kd_from_logits": ("self_s",),
    "losses.teacher_probabilities": ("self_s",),
    "exemplars.select_exemplars": ("self_s",),
    "exemplars.herding_order": ("self_s", "calls"),
    "metrics.target_ranks": ("self_s", "rows"),
    "harness.update_model": ("self_s", "epochs"),
    "harness.evaluate_model": ("self_s",),
    "data.generate_synthetic_stream": ("self_s",),
    "data.ingest": ("self_s",),
    "data.preprocess": ("self_s",),
    "data.split_cycles": ("self_s",),
    "data.save_cycles": ("self_s",),
    "data.load_cycles": ("self_s",),
    "reporting.write_run_directory": ("self_s",),
}
TRACE_UNITS = {
    "trace.run_s": "s",  # traced run span
    "trace.untraced_run_s": "s",  # the same streams, untraced
    "trace.other_s": "s",  # self time of wrapped layers not listed above, inside the run span
    "trace.remainder_s": "s",  # run span minus the self time of every wrapped layer
    "trace.absent_layers": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, figures in LAYERS.items():
        for fig in figures:
            units[f"{layer}.{fig}"] = "s" if fig == "self_s" else "count"
    units.update(TRACE_UNITS)
    return units


def _layer_exists(layer: str) -> bool:
    module, *attrs = layer.split(".")
    if module not in LAYER_MODULES:
        return False
    try:
        obj = importlib.import_module(f"cyclerec.{module}")
    except ImportError:
        return False
    for attr in attrs:
        obj = getattr(obj, attr, None)
        if obj is None:
            return False
    return True


class Run:
    """Checks and counts gathered over the rounds of one run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.run_failures: list[str] = []

    def record(self, label: str, res: RoundResult | None) -> None:
        """Count one round's update cycles and check them; ``None`` is a round that raised."""
        n = self.wl.update_cycles
        self.attempted += n
        if res is None:
            self.failed += n
            return
        if len(res.cycles) != n + 1 or len(res.outputs) != n:
            self.fail(f"{label}: {len(res.cycles)} cycles and {len(res.outputs)} reports, expected {n + 1} and {n}")
            self.failed += n
            return
        for out in res.outputs:
            fails = checks.check_cycle(out, res.cycles, self.wl.protocol, tol=res.tol)
            for msg in fails:
                self.fail(f"{label}: {msg}")
            self.failed += bool(fails)
        for msg in checks.check_popularity(res.outputs, res.cycles):
            self.fail(f"{label}: {msg}")

    def fail(self, msg: str) -> None:
        self.run_failures.append(msg)
        print(f"CHECK FAILED {msg}", file=sys.stderr)


def _attempt(wl: Workload, seed: int, index: int, workdir: Path, tracer: Tracer | None) -> RoundResult | None:
    try:
        if tracer is None:
            return run_round(wl, seed, index, workdir)
        with tracer:
            return run_round(wl, seed, index, workdir, tracer)
    except Exception:  # noqa: BLE001 - a failed round is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run rounds for about ``seconds`` and return the result object."""
    run = Run(wl)
    plain: list[RoundResult] = []
    traced: list[RoundResult] = []
    start = perf_counter()
    index = 0
    while True:
        res = _attempt(wl, seed, index, workdir, None)
        run.record(f"round {index}", res)
        if res is not None:
            plain.append(res)
        if trace:
            tres = _attempt(wl, seed, index, workdir, Tracer())
            run.record(f"round {index} traced", tres)
            if tres is not None:
                _check_traced(run, f"round {index} traced", res, tres)
                traced.append(tres)
        index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / index > seconds:
            break

    if not plain or (trace and not traced):
        raise RuntimeError("no round completed")
    if trace:
        metrics = _trace_metrics(plain, traced)
    else:
        metrics = _end_to_end_metrics(wl, plain)
    return {
        "correct": not run.run_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def _check_traced(run: Run, label: str, res: RoundResult | None, tres: RoundResult) -> None:
    """Oracle checks on the traced round's samples, and equality with its untraced twin."""
    for msg in checks.check_rank_samples(tres.samples.get("metrics.target_ranks", [])):
        run.fail(f"{label}: {msg}")
    for msg in checks.check_quota_samples(tres.samples.get("exemplars.allocate_quota", [])):
        run.fail(f"{label}: {msg}")
    if res is not None:
        for a, b in zip(res.outputs, tres.outputs):
            if (a.recall, a.mrr, len(a.epochs)) != (b.recall, b.mrr, len(b.epochs)):
                run.fail(f"{label}: cycle {a.cycle} outputs differ from the untraced run")


def _end_to_end_metrics(wl: Workload, rounds: list[RoundResult]) -> dict:
    proto = wl.protocol
    work = [checks.training_work(r.cycles, r.outputs, proto) for r in rounds]
    median = statistics.median
    values = {
        "run_s": median(r.run_s for r in rounds),
        "cpu_s": median(r.cpu_s for r in rounds),
        "setup_s": median(r.setup_s for r in rounds),
        "examples_per_s": median(rows / r.run_s for (_, rows), r in zip(work, rounds)),
        "steps_per_s": median(steps / r.run_s for (steps, _), r in zip(work, rounds)),
        "recall_at_20": statistics.fmean(statistics.fmean(o.recall[20] for o in r.outputs) for r in rounds),
        "mrr_at_20": statistics.fmean(statistics.fmean(o.mrr[20] for o in r.outputs) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _trace_metrics(plain: list[RoundResult], traced: list[RoundResult]) -> dict:
    n = len(traced)
    totals: dict[str, float] = {}
    other = remainder = 0.0
    for res in traced:
        for phase in (res.setup_trace, res.run_trace):
            for layer, stats in phase.items():
                if layer in LAYERS:
                    totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + stats.self_s
                    totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + stats.calls
                    for key, value in stats.counts.items():
                        totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
        self_all = sum(s.self_s for s in res.run_trace.values())
        other += sum(s.self_s for layer, s in res.run_trace.items() if layer not in LAYERS)
        remainder += res.run_s - self_all
    absent = [layer for layer in LAYERS if not _layer_exists(layer)]
    if absent:
        print(f"absent layers: {', '.join(absent)}", file=sys.stderr)
    values = {name: totals.get(name, 0) / n for name in per_layer_units()}
    values.update({
        "trace.run_s": statistics.fmean(r.run_s for r in traced),
        "trace.untraced_run_s": statistics.fmean(r.run_s for r in plain),
        "trace.other_s": other / n,
        "trace.remainder_s": remainder / n,
        "trace.absent_layers": len(absent),
    })
    return {name: _metric(values[name], unit) for name, unit in per_layer_units().items()}
