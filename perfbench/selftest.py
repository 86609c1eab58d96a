"""Tests of the benchmark itself: scaled-down workloads, checks on corrupted values, the contract files.

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so that the program's own test run does
not collect it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.bench import END_TO_END_UNITS, LAYERS, per_layer_units, run_benchmark  # noqa: E402
from perfbench.clicklog import ClickLog  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, run_round  # noqa: E402

# Tiny runs sit close to the most-popular baseline; on this seed every
# scaled-down workload clears it.
SEED = 2
SETUP_LAYERS = {"data.generate_synthetic_stream", "data.ingest", "data.preprocess", "data.split_cycles",
                "data.save_cycles"}


def _small(name: str) -> Workload:
    """The workload with its structure kept and every size cut so a round takes a second or two."""
    wl = WORKLOADS[name]
    training = {**wl.training, "max_epochs": 6, "patience": 3, "learning_rate": 1e-2}
    if wl.click_log is not None:
        log = ClickLog(weeks=3, sessions_per_week=250, clusters=15, cluster_size=12)
        return dataclasses.replace(wl, click_log=log, training=training, model={**wl.model, "embed_dim": 16})
    stream = {**wl.stream, "cycle_count": 3, "sessions_per_cycle": 150, "initial_vocab": 100}
    return dataclasses.replace(wl, stream=stream, training=training, capacity=60,
                               model={**wl.model, "embed_dim": min(wl.model["embed_dim"], 48)})


@pytest.fixture(scope="module")
def ader_round(tmp_path_factory):
    wl = _small("ader_drift")
    return run_round(wl, SEED, 0, tmp_path_factory.mktemp("ader")), wl.protocol


@pytest.fixture(scope="module")
def joint_round(tmp_path_factory):
    wl = _small("joint_clicklog")
    return run_round(wl, SEED, 0, tmp_path_factory.mktemp("joint")), wl.protocol


# ---------------------------------------------------------------------------
# scaled-down workloads end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scaled_down_workload_passes_its_checks(name, tmp_path):
    result = run_benchmark(_small(name), seed=SEED, seconds=0.01, trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == _small(name).update_cycles
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["ader_drift", "joint_clicklog"])
def test_traced_self_times_add_up_to_the_traced_run(name, tmp_path):
    result = run_benchmark(_small(name), seed=SEED, seconds=0.01, trace=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(per_layer_units())
    assert values["trace.absent_layers"] == 0
    run_layers = sum(values[f"{layer}.self_s"] for layer in LAYERS if layer not in SETUP_LAYERS)
    total = run_layers + values["trace.other_s"] + values["trace.remainder_s"]
    assert total == pytest.approx(values["trace.run_s"], rel=1e-9)
    assert 0 <= values["trace.remainder_s"] < values["trace.run_s"]
    assert values["model.loss_and_gradients.calls"] == values["model.adam_step.calls"] > 0


def test_traced_counts_match_the_benchmarks_own_accounting(tmp_path):
    wl = _small("ader_drift")
    tracer = Tracer()
    with tracer:
        res = run_round(wl, SEED, 0, tmp_path, tracer)
    steps, rows = checks.training_work(res.cycles, res.outputs, wl.protocol)
    assert res.run_trace["model.loss_and_gradients"].calls == steps
    assert res.run_trace["model.loss_and_gradients"].counts["rows"] == rows
    assert res.run_trace["harness.update_model"].counts["epochs"] == sum(len(o.epochs) for o in res.outputs)
    assert not checks.check_rank_samples(res.samples["metrics.target_ranks"])
    assert not checks.check_quota_samples(res.samples["exemplars.allocate_quota"])
    assert not tracer.hook_errors


def test_tracer_restores_the_program():
    from cyclerec import harness, model

    before = (harness.loss_and_gradients, model.loss_and_gradients, model.ModelState.copy)
    with Tracer():
        assert harness.loss_and_gradients is not before[0]
        assert model.ModelState.copy is not before[2]
    assert (harness.loss_and_gradients, model.loss_and_gradients, model.ModelState.copy) == before


def test_a_deleted_function_is_an_absent_layer(monkeypatch, tmp_path):
    from cyclerec import losses

    monkeypatch.delattr(losses, "teacher_probabilities")  # harness keeps its own reference
    result = run_benchmark(_small("ader_drift"), seed=SEED, seconds=0.01, trace=True, workdir=tmp_path)
    assert result["correct"]
    assert result["metrics"]["trace.absent_layers"]["value"] == 1
    assert result["metrics"]["losses.teacher_probabilities.self_s"]["value"] == 0


def test_a_round_that_raises_counts_as_failed(monkeypatch, tmp_path):
    from cyclerec import harness

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "run_experiment", broken)
    with pytest.raises(RuntimeError, match="no round completed"):
        run_benchmark(_small("ader_drift"), seed=SEED, seconds=0.01, trace=False, workdir=tmp_path)


# ---------------------------------------------------------------------------
# each check fails on a corrupted value
# ---------------------------------------------------------------------------


def _fails(case, mutate, target=0):
    res, proto = case
    outputs = copy.deepcopy(res.outputs)
    mutate(outputs[target])
    return checks.check_cycle(outputs[target], res.cycles, proto, tol=res.tol)


def test_unmodified_outputs_pass(ader_round, joint_round):
    for res, proto in (ader_round, joint_round):
        for out in res.outputs:
            assert checks.check_cycle(out, res.cycles, proto, tol=res.tol) == []
        assert checks.check_popularity(res.outputs, res.cycles) == []


def _set_lambda(value):
    def mutate(out):
        out.epochs[0].lambda_t = value
    return mutate


def test_wrong_lambda_fails(ader_round, joint_round):
    res, proto = ader_round
    want = checks.expected_lambdas(res.cycles, proto)[1]
    assert want > 0
    assert any("lambda" in m for m in _fails(ader_round, _set_lambda(want * 1.001), target=1))
    assert any("lambda" in m for m in _fails(ader_round, _set_lambda(0.01), target=0))
    assert any("lambda" in m for m in _fails(joint_round, _set_lambda(0.5), target=1))


def test_kd_loss_on_joint_fails(joint_round):
    def mutate(out):
        out.epochs[-1].losses["kd"] = 0.25
    assert any("KD" in m for m in _fails(joint_round, mutate))


def test_swapped_test_count_fails(ader_round):
    cycles = ader_round[0].cycles
    other = len(cycles[1].examples)
    def mutate(out):
        out.test_count = other
    assert len(cycles[2].examples) != other
    assert any("test_count" in m for m in _fails(ader_round, mutate, target=1))


def test_wrong_unseen_fraction_fails(ader_round, joint_round):
    for case in (ader_round, joint_round):
        step = 1.0 / len(case[0].cycles[1].examples)
        def mutate(out):
            out.unseen_fraction += step
        assert any("unseen" in m for m in _fails(case, mutate))


@pytest.mark.parametrize("field,k,value", [
    ("mrr", 20, 0.99),  # MRR above recall
    ("recall", 20, 1.5),  # recall above 1
    ("mrr", 10, -0.01),  # negative MRR
    ("recall", 10, 0.999),  # Recall@10 above Recall@20
])
def test_metric_order_violations_fail(ader_round, field, k, value):
    def mutate(out):
        getattr(out, field)[k] = value
    assert _fails(ader_round, mutate)


def test_recall_below_popularity_fails(ader_round):
    res = ader_round[0]
    outputs = copy.deepcopy(res.outputs)
    baseline = checks.popularity_recall(res.cycles)
    for out in outputs:
        out.recall[20] = baseline * 0.99
    assert checks.check_popularity(outputs, res.cycles)


def test_non_finite_loss_fails(ader_round):
    def mutate(out):
        out.epochs[1].val_loss = math.nan
    assert any("non-finite" in m for m in _fails(ader_round, mutate))
    def mutate_ce(out):
        out.epochs[0].losses["ce"] = math.inf
    assert any("non-finite" in m for m in _fails(ader_round, mutate_ce))


def test_epoch_cap_and_early_stop_rule(ader_round):
    def extra_epoch(out):
        out.epochs.append(copy.deepcopy(out.epochs[-1]))
    assert any("cap" in m for m in _fails(ader_round, extra_epoch))

    def early_stop_while_improving(out):
        del out.epochs[-1]
        for i, ep in enumerate(out.epochs):
            ep.val_loss = 5.0 - i  # still falling when training stopped
    assert any("stopped" in m for m in _fails(ader_round, early_stop_while_improving))

    def early_stop_after_patience(out):
        del out.epochs[-1]
        for i, ep in enumerate(out.epochs):
            ep.val_loss = 4.0 if i == 0 else 4.5
    assert _fails(ader_round, early_stop_after_patience) == []


def test_wrong_exemplar_count_fails(ader_round):
    def mutate(out):
        out.exemplar_count -= 1
    assert any("exemplar" in m for m in _fails(ader_round, mutate))


def test_rank_and_quota_oracles_catch_wrong_values():
    import numpy as np

    logits = np.array([[0.5, 2.0, 0.5, -1.0]])
    assert checks.check_rank_samples([(logits, np.array([2]), np.array([3]))]) == []
    assert checks.check_rank_samples([(logits, np.array([2]), np.array([2]))])  # tie broken the wrong way
    assert checks.check_quota_samples([(np.array([5, 3, 2]), 5, np.array([3, 1, 1]))]) == []
    assert checks.check_quota_samples([(np.array([5, 3, 2]), 5, np.array([2, 2, 1]))])


# ---------------------------------------------------------------------------
# contract files
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ader_drift", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
