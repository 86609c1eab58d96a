"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1-6 are exact-oracle checks; 7-9 are directional desk-scale
experiments on the default synthetic drifting stream (three seeds each,
several minutes of training, marked ``slow``); 10-11 check run
determinism and protocol ordering. Run with
``pytest tests/test_acceptance.py -v -s``; ``-m "not slow"`` skips 7-9.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from cyclerec.cli import main as cli_main
from cyclerec.data import SyntheticStreamConfig, TrainingExample, generate_synthetic_stream
from cyclerec.exemplars import allocate_quota, herding_order
from cyclerec.harness import MethodKind, MethodSpec, TrainLoopConfig, run_experiment
from cyclerec.losses import adaptive_lambda, kd_loss, teacher_probabilities
from cyclerec.metrics import mrr_at_k, rank_of_target, recall_at_k
from cyclerec.model import BatchSpec, ModelConfig, init_model, loss_and_gradients

# Shared configuration of the directional experiments (criteria 7-9).
EXPERIMENT_SEEDS = [1, 2, 3]
EXPERIMENT_MODEL = ModelConfig()  # desk scale: d=32, 2 blocks, float32
EXPERIMENT_LOOP = dict(max_epochs=35, patience=5, batch_size=256, kd_batch_size=128)
EXEMPLAR_CAPACITY = 300


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


# ---------------------------------------------------------------------------
# 1. quota oracle
# ---------------------------------------------------------------------------


def _quota_oracle(counts, capacity):
    total = sum(counts)
    if capacity >= total:
        return list(counts)
    real = [Fraction(capacity * c, total) for c in counts]
    floors = [int(r) for r in real]
    rem = [r - f for r, f in zip(real, floors)]
    order = sorted(range(len(counts)), key=lambda i: (-rem[i], i))
    for i in order[: capacity - sum(floors)]:
        floors[i] += 1
    return floors


def test_criterion_1_quota_matches_rational_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        counts = rng.integers(0, 60, size=n)
        if counts.sum() == 0:
            counts[int(rng.integers(0, n))] = int(rng.integers(1, 9))
        capacity = int(rng.integers(1, 200))
        got = allocate_quota(counts, capacity)
        assert got.tolist() == _quota_oracle([int(c) for c in counts], capacity)
        assert int(got.sum()) == min(capacity, int(counts.sum()))
        if capacity <= counts.sum():
            assert np.all(got <= counts)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("1 quota oracle", f"1000 instances exact, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. herding oracle
# ---------------------------------------------------------------------------


def _herding_oracle(features, quota):
    feats = [[float(v) for v in row] for row in features]
    d, n = len(feats[0]), len(feats)
    total = [sum(f[j] for f in feats) for j in range(d)]
    chosen, sums = [], [0.0] * d
    remaining = list(range(n))
    for k in range(1, quota + 1):
        best, best_dist = None, None
        for i in remaining:
            dist = 0.0
            for j in range(d):
                diff = k * total[j] - n * (feats[i][j] + sums[j])
                dist += diff * diff
            if best_dist is None or dist < best_dist:
                best, best_dist = i, dist
        remaining.remove(best)
        for j in range(d):
            sums[j] += feats[best][j]
        chosen.append(best)
    return chosen


def test_criterion_2_herding_matches_exhaustive_oracle():
    rng = np.random.default_rng(202)
    start = time.time()
    for _ in range(500):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 5))
        feats = rng.integers(-5, 6, size=(n, d)).astype(np.float64)
        quota = int(rng.integers(1, n + 1))
        assert herding_order(feats, quota) == _herding_oracle(feats, quota)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("2 herding oracle", f"500 groups exact, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. gradient check
# ---------------------------------------------------------------------------


def test_criterion_3_gradients_match_finite_differences():
    start = time.time()
    rng = np.random.default_rng(303)
    cfg = ModelConfig(embed_dim=8, block_count=1, attention_heads=1, max_seq_len=10, dtype="float64")
    model = init_model(cfg, item_count=12, seed=33)
    ce_examples = [
        TrainingExample(tuple(int(v) for v in rng.integers(0, 12, size=rng.integers(1, 8))),
                        int(rng.integers(0, 12)))
        for _ in range(6)
    ]
    kd_examples = [
        TrainingExample(tuple(int(v) for v in rng.integers(0, 10, size=rng.integers(1, 6))),
                        int(rng.integers(0, 10)))
        for _ in range(4)
    ]
    teacher = rng.dirichlet(np.ones(10), size=len(kd_examples))
    spec = BatchSpec(
        ce_examples=ce_examples,
        kd_examples=kd_examples,
        kd_teacher_probs=teacher,
        kd_item_range=10,
        kd_weight=0.5,
    )
    _, grads = loss_and_gradients(model, spec)
    grads = {name: g.copy() for name, g in grads.items()}  # the model's next pass reuses their buffer
    h = 1e-5
    names = sorted(model.params)
    worst = 0.0
    for _ in range(60):
        name = names[int(rng.integers(0, len(names)))]
        idx = tuple(int(rng.integers(0, s)) for s in model.params[name].shape)
        orig = model.params[name][idx]
        model.params[name][idx] = orig + h
        up, _ = loss_and_gradients(model, spec)
        model.params[name][idx] = orig - h
        down, _ = loss_and_gradients(model, spec)
        model.params[name][idx] = orig
        fd = (up.total - down.total) / (2 * h)
        an = grads[name][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 30.0
    _report("3 gradient check", f"60 params, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. distillation fixed point
# ---------------------------------------------------------------------------


def test_criterion_4_kd_fixed_point():
    cfg = ModelConfig(embed_dim=16, block_count=2, max_seq_len=12, dtype="float64")
    model = init_model(cfg, item_count=20, seed=44)
    rng = np.random.default_rng(404)
    exemplars = [
        TrainingExample(tuple(int(v) for v in rng.integers(0, 16, size=rng.integers(1, 8))),
                        int(rng.integers(0, 16)))
        for _ in range(25)
    ]
    loss, dlogits = kd_loss(model, model, exemplars, old_item_range=16)
    per_exemplar = np.abs(dlogits) * len(exemplars)  # undo the 1/|E| factor
    teacher = teacher_probabilities(model, exemplars, 16)
    entropy = float(-(teacher * np.log(teacher)).sum(axis=1).mean())
    assert per_exemplar.max() <= 1e-10
    assert abs(loss - entropy) <= 1e-8
    _report("4 KD fixed point", f"max grad {per_exemplar.max():.1e}, |L-H| {abs(loss - entropy):.1e}")


# ---------------------------------------------------------------------------
# 5. adaptive weight formula
# ---------------------------------------------------------------------------


def test_criterion_5_lambda_matches_rational_arithmetic():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        old = int(rng.integers(1, 100_000))
        total = old + int(rng.integers(0, 50_000))
        exemplars = int(rng.integers(1, 1_000_000))
        data = int(rng.integers(1, 1_000_000))
        base = float(rng.uniform(0.05, 3.0))
        expected = base * math.sqrt(float(Fraction(old, total) * Fraction(exemplars, data)))
        got = adaptive_lambda(base, old, total, exemplars, data)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert adaptive_lambda(0.8, 123, 123, 456, 456) == 0.8
    _report("5 adaptive weight", "1000 tuples within 1e-12, equal-ratio case exact")


# ---------------------------------------------------------------------------
# 6. metric oracle
# ---------------------------------------------------------------------------


def test_criterion_6_metrics_match_full_sort_oracle():
    rng = np.random.default_rng(606)
    all_ranks, oracle_ranks = [], []
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        if rng.random() < 0.5:
            logits = rng.integers(0, 6, size=n).astype(np.float64)  # deliberate ties
        else:
            logits = rng.normal(size=n)
        target = int(rng.integers(0, n))
        order = sorted(range(n), key=lambda i: (-logits[i], i))
        oracle_rank = order.index(target) + 1
        got_rank = rank_of_target(logits, target)
        assert got_rank == oracle_rank
        all_ranks.append(got_rank)
        oracle_ranks.append(oracle_rank)
    for k in (1, 5, 10, 20, 50):
        assert recall_at_k(all_ranks, k) == sum(1 for r in oracle_ranks if r <= k) / len(oracle_ranks)
        assert mrr_at_k(all_ranks, k) == pytest.approx(
            sum(1.0 / r for r in oracle_ranks if r <= k) / len(oracle_ranks), abs=0, rel=1e-15
        )
    _report("6 metric oracle", "1000 instances exact, ties included")


# ---------------------------------------------------------------------------
# 7-9. directional desk-scale experiments
# ---------------------------------------------------------------------------


def _seed_mean_recall(datasets, spec):
    means = []
    for seed in EXPERIMENT_SEEDS:
        loop = TrainLoopConfig(seed=seed, **EXPERIMENT_LOOP)
        res = run_experiment(datasets, spec, loop, EXPERIMENT_MODEL)
        means.append(res.means["recall@20"])
    return float(np.mean(means))


@pytest.fixture(scope="module")
def drift_stream():
    datasets, _ = generate_synthetic_stream(SyntheticStreamConfig(seed=0))
    return datasets


@pytest.fixture(scope="module")
def directional_results(drift_stream):
    start = time.time()
    results = {
        "ADER": _seed_mean_recall(drift_stream, MethodSpec(MethodKind.ADER, exemplar_capacity=EXEMPLAR_CAPACITY)),
        "Finetune": _seed_mean_recall(drift_stream, MethodSpec(MethodKind.FINETUNE)),
        "ER_random": _seed_mean_recall(drift_stream, MethodSpec(MethodKind.ER_RANDOM, exemplar_capacity=EXEMPLAR_CAPACITY)),
    }
    results["elapsed"] = time.time() - start
    return results


@pytest.mark.slow
def test_criterion_7_directional_forgetting(directional_results):
    r = directional_results
    assert r["ADER"] >= r["Finetune"], f"ADER {r['ADER']:.4f} < Finetune {r['Finetune']:.4f}"
    assert r["ADER"] >= r["ER_random"], f"ADER {r['ADER']:.4f} < ER_random {r['ER_random']:.4f}"
    assert r["elapsed"] < 600.0
    _report(
        "7 directional forgetting",
        f"recall@20 ADER {100 * r['ADER']:.2f} >= Finetune {100 * r['Finetune']:.2f}, "
        f">= ER_random {100 * r['ER_random']:.2f}, {r['elapsed']:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_zero_drift_control():
    flat, _ = generate_synthetic_stream(
        SyntheticStreamConfig(new_items_per_cycle=0, popularity_drift_rate=0.0, seed=0)
    )
    ader = _seed_mean_recall(flat, MethodSpec(MethodKind.ADER, exemplar_capacity=EXEMPLAR_CAPACITY))
    finetune = _seed_mean_recall(flat, MethodSpec(MethodKind.FINETUNE))
    gap = abs(ader - finetune)
    assert gap <= 0.02, f"stationary gap {100 * gap:.2f} points"
    _report("8 zero-drift control", f"|ADER - Finetune| = {100 * gap:.2f} points (<= 2)")


@pytest.mark.slow
def test_criterion_9_capacity_insensitivity(drift_stream, directional_results):
    half = _seed_mean_recall(
        drift_stream, MethodSpec(MethodKind.ADER, exemplar_capacity=EXEMPLAR_CAPACITY // 2)
    )
    drop = directional_results["ADER"] - half
    assert drop <= 0.02, f"halving the budget cost {100 * drop:.2f} points"
    _report("9 capacity insensitivity", f"drop {100 * drop:.2f} points (<= 2)")


# ---------------------------------------------------------------------------
# 10. determinism of full CLI runs
# ---------------------------------------------------------------------------


def test_criterion_10_cli_run_determinism(tmp_path):
    config = {
        "data": {
            "synthetic": {
                "cycle_count": 3,
                "sessions_per_cycle": 50,
                "mean_session_length": 4,
                "initial_vocab": 40,
                "new_items_per_cycle": 4,
                "popularity_drift_rate": 0.3,
                "seed": 9,
            }
        },
        "model": {"embed_dim": 16, "block_count": 1, "max_seq_len": 12},
        "training": {"max_epochs": 3, "patience": 2, "batch_size": 64},
        "methods": ["ADER", "Finetune"],
        "seeds": [1],
        "exemplar_capacity": 50,
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report("10 determinism", f"{len(files_a)} report files byte-identical")


# ---------------------------------------------------------------------------
# 11. protocol correctness
# ---------------------------------------------------------------------------


class _TrackedList(list):
    """List that records the audit position of its first element access."""

    def arm(self, audit):
        self.audit = audit
        self.first_touch = None
        return self

    def _note(self):
        if getattr(self, "first_touch", None) is None and hasattr(self, "audit"):
            self.first_touch = len(self.audit)

    def __iter__(self):
        self._note()
        return super().__iter__()

    def __getitem__(self, item):
        self._note()
        return super().__getitem__(item)


def test_criterion_11_protocol_order_and_capacity():
    datasets, _ = generate_synthetic_stream(
        SyntheticStreamConfig(cycle_count=4, sessions_per_cycle=60, mean_session_length=4,
                              initial_vocab=50, new_items_per_cycle=5,
                              popularity_drift_rate=0.3, seed=3)
    )
    capacity = 60
    audit: list = []
    for ds in datasets:
        ds.train = _TrackedList(ds.train).arm(audit)
        ds.validation = _TrackedList(ds.validation).arm(audit)

    import dataclasses as dc

    import cyclerec.harness as harness

    method = MethodSpec(MethodKind.ADER, exemplar_capacity=capacity)
    loop = TrainLoopConfig(max_epochs=3, patience=2, batch_size=64, seed=5)
    state = harness.ExperimentState(
        model=init_model(dc.replace(EXPERIMENT_MODEL, embed_dim=16, dropout_rate=method.dropout_rate),
                         datasets[0].item_count_after, seed=7)
    )
    for t in range(len(datasets) - 1):
        harness.update_model(state, datasets[t], method, loop, audit=audit)
        nxt = datasets[t + 1]
        audit.append(("eval", t + 1, len(nxt.train) + len(nxt.validation)))
        test = list(nxt.train) + list(nxt.validation)
        harness.evaluate_model(state.model, test, state.model.item_count)

    # each cycle's data is first touched no earlier than its own audit event:
    # cycle 0 at its "train" event, each later cycle at its "eval" event
    positions = {}
    for pos, event in enumerate(audit):
        positions.setdefault((event[0], event[1]), pos)
    for t, ds in enumerate(datasets):
        touches = [x.first_touch for x in (ds.train, ds.validation) if x.first_touch is not None]
        assert touches, f"cycle {t} untouched"
        gate = positions[("train", 0)] if t == 0 else positions[("eval", t)]
        assert min(touches) >= gate, f"cycle {t} touched at {min(touches)} before event {gate}"

    sizes = [e[2] for e in audit if e[0] == "exemplars"]
    assert sizes and all(s <= capacity for s in sizes)
    _report("11 protocol", f"future-data isolation holds; exemplar sizes {sizes} <= {capacity}")
