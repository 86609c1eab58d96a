import math
from fractions import Fraction

import numpy as np
import pytest

import cyclerec.harness as harness
import kd_reference
from cyclerec.data import CycleDataset, SyntheticStreamConfig, TrainingExample, generate_synthetic_stream
from cyclerec.harness import (
    ExperimentState,
    MethodKind,
    MethodSpec,
    TrainLoopConfig,
    compare_methods,
    evaluate_model,
    run_experiment,
    update_model,
)
from cyclerec.losses import ce_from_logits
from cyclerec.model import DivergenceError, ModelConfig, PrefixTable, extract_features_batch, init_model
from cyclerec.reporting import cycle_rows, summarize_rows

MODEL_CFG = ModelConfig(embed_dim=16, block_count=2, max_seq_len=16)


def tiny_stream(seed=1, cycles=3, vocab=40, new_items=4, sessions=60, drift=0.3):
    cfg = SyntheticStreamConfig(
        cycle_count=cycles, sessions_per_cycle=sessions, mean_session_length=4,
        initial_vocab=vocab, new_items_per_cycle=new_items,
        popularity_drift_rate=drift, seed=seed,
    )
    return generate_synthetic_stream(cfg, max_seq_len=16)


def tiny_loop(seed=1, epochs=4, patience=2):
    return TrainLoopConfig(max_epochs=epochs, patience=patience, batch_size=64, seed=seed)


def params_identical(a, b):
    return all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------


def _train_on_scripted_losses(monkeypatch, losses, patience):
    """One Finetune cycle whose validation losses are ``losses``, epoch by epoch.

    Returns the epoch records, the parameters each epoch validated, and the
    parameters ``update_model`` left in place.
    """
    validated = []

    def scripted(model, examples):
        validated.append(model.flat_params.copy())
        return losses[len(validated) - 1], 0.0

    monkeypatch.setattr(harness, "_validation_scores", scripted)
    datasets, _ = tiny_stream(cycles=2)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=0))
    loop = TrainLoopConfig(max_epochs=len(losses) + 2, patience=patience, batch_size=64)
    records = update_model(state, datasets[0], MethodSpec(MethodKind.FINETUNE), loop)
    assert [r.val_loss for r in records] == losses[: len(records)]
    return records, validated, state.model.flat_params


def test_patience_counter_hand_trace(monkeypatch):
    # losses [.30,.29,.29,.30,.30,.30,.30,.30] with patience 5: epochs 3..7
    # fail to improve, training stops after epoch 7, and epoch 2's model is restored
    losses = [0.30, 0.29, 0.29, 0.30, 0.30, 0.30, 0.30, 0.30]
    records, validated, restored = _train_on_scripted_losses(monkeypatch, losses, patience=5)
    assert [r.epoch for r in records] == [1, 2, 3, 4, 5, 6, 7]
    np.testing.assert_array_equal(restored, validated[1])
    assert not np.array_equal(restored, validated[-1])


def test_stopper_requires_strict_improvement(monkeypatch):
    # an equal loss is not better: epochs 2 and 3 are stale, so patience 2 stops after epoch 3
    records, validated, restored = _train_on_scripted_losses(monkeypatch, [0.5, 0.5, 0.5, 0.4], patience=2)
    assert len(records) == 3
    np.testing.assert_array_equal(restored, validated[0])


# ---------------------------------------------------------------------------
# method specs
# ---------------------------------------------------------------------------


def test_method_dropout_defaults():
    assert MethodSpec(MethodKind.FINETUNE).dropout_rate == 0.0
    assert MethodSpec(MethodKind.EWC).dropout_rate == 0.0
    assert MethodSpec(MethodKind.DROPOUT).dropout_rate == 0.3
    assert MethodSpec(MethodKind.ADER).dropout_rate == 0.3
    assert MethodSpec(MethodKind.ER_RANDOM).dropout_rate == 0.3


def test_method_finetune_rejects_dropout():
    with pytest.raises(ValueError):
        MethodSpec(MethodKind.FINETUNE, dropout_rate=0.3)
    with pytest.raises(ValueError):
        MethodSpec(MethodKind.EWC, dropout_rate=0.1)


@pytest.mark.parametrize("kind", [MethodKind.DROPOUT, MethodKind.ADER])
@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
def test_method_dropout_rate_must_be_in_unit_interval(kind, rate):
    # the method owns the rate, so its spec checks the range the masks' 1 / (1 - rate) scale needs
    with pytest.raises(ValueError, match="dropout_rate"):
        MethodSpec(kind, dropout_rate=rate)


def test_method_exemplar_capacity_required():
    with pytest.raises(ValueError):
        MethodSpec(MethodKind.ADER, exemplar_capacity=0)


def test_method_kind_parsing():
    assert MethodKind.parse("ader") is MethodKind.ADER
    assert MethodKind.parse("ER_random") is MethodKind.ER_RANDOM
    assert MethodKind.parse("FINETUNE") is MethodKind.FINETUNE
    with pytest.raises(ValueError):
        MethodKind.parse("gradient_descent_3000")


@pytest.mark.parametrize("field,value", [
    ("kd_batch_size", 0),
    ("kd_batch_size", -4),
    ("learning_rate", 0.0),
    ("learning_rate", -1.0),
    ("learning_rate", math.inf),
    ("learning_rate", math.nan),
])
def test_train_loop_rejects_settings_that_corrupt_a_run(field, value):
    # before, a negative kd_batch_size skipped distillation, and a negative rate trained uphill
    with pytest.raises(ValueError, match=field):
        TrainLoopConfig(**{field: value})


def test_train_loop_accepts_unset_kd_batch_size():
    assert TrainLoopConfig(kd_batch_size=None, learning_rate=1e-3).kd_batch_size is None


# ---------------------------------------------------------------------------
# evaluate_model
# ---------------------------------------------------------------------------


def test_evaluate_counts_unseen_targets_as_misses():
    m = init_model(ModelConfig(embed_dim=8, block_count=1, max_seq_len=8), 6, seed=0)
    examples = [
        TrainingExample((0, 1), 2),
        TrainingExample((3,), 9),        # target outside the known range
        TrainingExample((9, 9), 1),      # fully-unseen prefix
    ]
    recall, mrr, unseen = evaluate_model(m, examples, item_range=6, ks=(6,))
    assert unseen == pytest.approx(2 / 3)
    assert recall[6] == pytest.approx(1 / 3)  # only the rankable example can hit
    recall, mrr, unseen = evaluate_model(m, examples[1:], item_range=6, ks=(6,))  # nothing to encode
    assert (unseen, recall[6], mrr[6]) == (1.0, 0.0, 0.0)


def test_evaluate_prefix_filtered_to_known_items():
    m = init_model(ModelConfig(embed_dim=8, block_count=1, max_seq_len=8), 6, seed=0)
    full = evaluate_model(m, [TrainingExample((1, 2), 3)], 6, ks=(6,))
    mixed = evaluate_model(m, [TrainingExample((1, 9, 2), 3)], 6, ks=(6,))
    assert full == mixed


# ---------------------------------------------------------------------------
# update_model behavior
# ---------------------------------------------------------------------------


def run_one_cycle(method, datasets, loop, model_seed=17):
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=model_seed))
    records = update_model(state, datasets[0], method, loop)
    return state, records


def test_the_method_sets_the_training_dropout_rate():
    # the model config holds no rate: a Dropout method trains a plain
    # ModelConfig() model with dropout, and at rate 0 it is Finetune
    datasets, _ = tiny_stream()

    def epoch_losses(method):
        state = ExperimentState(model=init_model(ModelConfig(), datasets[0].item_count_after, seed=17))
        return [r.total for r in update_model(state, datasets[0], method, tiny_loop())]

    finetune = epoch_losses(MethodSpec(MethodKind.FINETUNE))
    assert epoch_losses(MethodSpec(MethodKind.DROPOUT)) != finetune
    assert epoch_losses(MethodSpec(MethodKind.DROPOUT, dropout_rate=0.0)) == finetune


def test_first_cycle_ader_identical_to_dropout_baseline():
    datasets, _ = tiny_stream()
    loop = tiny_loop()
    ader_state, ader_recs = run_one_cycle(MethodSpec(MethodKind.ADER, exemplar_capacity=50), datasets, loop)
    drop_state, drop_recs = run_one_cycle(MethodSpec(MethodKind.DROPOUT), datasets, loop)
    assert params_identical(ader_state.model, drop_state.model)
    assert [r.total for r in ader_recs] == [r.total for r in drop_recs]
    assert ader_recs[0].lambda_t == 0.0
    assert ader_state.exemplars is not None and drop_state.exemplars is None


def test_kd_methods_carry_teacher_distributions_across_cycles(monkeypatch):
    # a cycle distils against the previous cycle's restored model: its
    # distributions on the stored exemplars, over the items it knew, read
    # from the features the store kept, so no encoder pass runs before the
    # first step, and no rows are computed when distillation is off.
    # The teacher pass (losses.teacher_probabilities) is the scoring pass over
    # a store's features; every other scoring pass of update_model is an
    # epoch's validation pass.
    import cyclerec.harness as harness_mod
    import cyclerec.model as model_mod

    events = []
    stores = []  # exemplar stores whose feature rows a teacher pass would score
    real_encode, real_step = model_mod._encode_rows, harness_mod.loss_and_gradients
    real_blocks = harness_mod.logit_blocks

    def encoding(state, prefixes, *args, **kwargs):
        events.append("encode")
        return real_encode(state, prefixes, *args, **kwargs)

    def recording(model, spec):
        events.append((spec.kd_examples, spec.kd_teacher_probs))
        return real_step(model, spec)

    def scoring(state, feats, *args, **kwargs):
        events.append("teacher rows" if any(feats is store.features for store in stores) else "validation rows")
        return real_blocks(state, feats, *args, **kwargs)

    monkeypatch.setattr(model_mod, "_encode_rows", encoding)
    monkeypatch.setattr(harness_mod, "loss_and_gradients", recording)
    monkeypatch.setattr(harness_mod, "logit_blocks", scoring)  # validation
    monkeypatch.setattr(model_mod, "logit_blocks", scoring)  # the teacher pass imports it on each call
    datasets, _ = tiny_stream()
    loop = tiny_loop()
    ader = MethodSpec(MethodKind.ADER, exemplar_capacity=50)
    ader_state, records = run_one_cycle(ader, datasets, loop)
    assert "teacher rows" not in events  # cycle 0 has nothing to distil
    assert events.count("validation rows") == len(records)
    store = ader_state.exemplars
    stores.append(store)
    old = datasets[0].item_count_after
    expected = kd_reference.teacher_probabilities(ader_state.model.copy(), store.examples, old)
    assert expected.shape == (len(store.examples), old)

    events.clear()
    records = update_model(ader_state, datasets[1], ader, loop)
    assert events[0] == "teacher rows" and isinstance(events[1], tuple)
    assert events.count("teacher rows") == 1 and events.count("validation rows") == len(records)
    assert records[0].lambda_t > 0.0 and records[0].kd > 0.0
    kd_rows, probs = events[1]
    rows = [store.examples.index(ex) for ex in kd_rows]
    np.testing.assert_allclose(probs, expected[rows], rtol=1e-5, atol=0)

    zero = MethodSpec(MethodKind.ADER, exemplar_capacity=50, lambda_base=0.0)
    state, _ = run_one_cycle(zero, datasets, loop)
    stores.append(state.exemplars)
    events.clear()
    records = update_model(state, datasets[1], zero, loop)
    steps = [e for e in events if isinstance(e, tuple)]
    assert "teacher rows" not in events
    assert events.count("validation rows") == len(records)
    assert steps and all(probs is None for _, probs in steps)


def test_zero_lambda_base_ader_tracks_dropout_across_cycles():
    datasets, _ = tiny_stream(cycles=3)
    loop = tiny_loop()
    ader = MethodSpec(MethodKind.ADER, lambda_base=0.0, exemplar_capacity=50)
    res_a = run_experiment(datasets, ader, loop, MODEL_CFG)
    res_d = run_experiment(datasets, MethodSpec(MethodKind.DROPOUT), loop, MODEL_CFG)
    assert [r.recall_at[20] for r in res_a.reports] == [r.recall_at[20] for r in res_d.reports]
    assert [r.total for r in res_a.epoch_log] == [r.total for r in res_d.epoch_log]


def test_joint_buffer_accumulates_history():
    datasets, _ = tiny_stream(cycles=3)
    loop = tiny_loop(epochs=2, patience=1)
    method = MethodSpec(MethodKind.JOINT)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=3))
    update_model(state, datasets[0], method, loop)
    assert state.joint_buffer == datasets[0].train
    update_model(state, datasets[1], method, loop)
    assert state.joint_buffer == datasets[0].train + datasets[1].train


@pytest.mark.parametrize("method", [MethodKind.DROPOUT, MethodKind.JOINT])
def test_epochs_visit_whole_session_chains_in_steps_of_batch_size(monkeypatch, method):
    import cyclerec.harness as harness_mod

    steps = []
    real = harness_mod.loss_and_gradients

    def recording(model, spec):  # a step's rows, by their index in the cycle's CE pool, and its examples
        steps.append((spec.ce_examples.rows.tolist(), list(spec.ce_examples)))
        return real(model, spec)

    monkeypatch.setattr(harness_mod, "loss_and_gradients", recording)
    datasets, _ = tiny_stream(cycles=3)
    loop = tiny_loop(epochs=2, patience=1)
    spec = MethodSpec(method)
    orders = []
    for _ in range(2):  # the same seed twice
        state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=3))
        steps.clear()
        update_model(state, datasets[0], spec, loop)
        update_model(state, datasets[1], spec, loop)
        orders.append([rows for rows, _ in steps])
    assert orders[0] == orders[1]

    pool = datasets[0].train + datasets[1].train if method is MethodKind.JOINT else datasets[1].train
    chains = harness_mod._session_chains(PrefixTable([ex.prefix for ex in pool], MODEL_CFG.max_seq_len), len(pool))
    assert max(len(chain) for chain in chains) > 1
    chain_of = {i: c for c, chain in enumerate(chains) for i in chain.tolist()}
    for c, chain in enumerate(chains):  # a chain nests in its longest row
        longest = max((pool[i].prefix for i in chain.tolist()), key=len)
        assert all(longest[: len(pool[i].prefix)] == pool[i].prefix for i in chain.tolist())
    per_epoch = math.ceil(len(pool) / loop.batch_size)
    cycle_steps = orders[0][-2 * per_epoch :]  # cycle 1's two epochs
    for rows, examples in steps[-2 * per_epoch :]:  # the rows index the pool
        assert examples == [pool[i] for i in rows]
    for epoch in (cycle_steps[:per_epoch], cycle_steps[per_epoch:]):
        assert [len(step) for step in epoch[:-1]] == [loop.batch_size] * (per_epoch - 1)
        rows = [row for step in epoch for row in step]
        assert sorted(rows) == list(range(len(pool)))  # every pool row once
        runs = [chain_of[row] for k, row in enumerate(rows) if k == 0 or chain_of[row] != chain_of[rows[k - 1]]]
        assert len(runs) == len(set(runs)) == len(chains)  # each chain in one contiguous run
    assert cycle_steps[:per_epoch] != cycle_steps[per_epoch:]  # epochs reorder the chains


def test_update_model_cycle_order_enforced():
    datasets, _ = tiny_stream()
    method = MethodSpec(MethodKind.FINETUNE)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=3))
    with pytest.raises(ValueError, match="expected cycle 0"):
        update_model(state, datasets[1], method, tiny_loop())


def test_update_model_empty_train_errors():
    method = MethodSpec(MethodKind.FINETUNE)
    empty = CycleDataset(0, [], [], 10)
    state = ExperimentState(model=init_model(MODEL_CFG, 10, seed=1))
    with pytest.raises(ValueError, match="no training data"):
        update_model(state, empty, method, tiny_loop())


def test_divergence_aborts_cycle_with_context():
    datasets, _ = tiny_stream()
    method = MethodSpec(MethodKind.FINETUNE)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=1))
    state.model.params["item_emb"][0, 0] = np.nan
    with pytest.raises(DivergenceError, match="cycle 0 epoch 1"):
        update_model(state, datasets[0], method, tiny_loop())


def test_early_stop_restores_best_validation_parameters():
    datasets, _ = tiny_stream(cycles=2, sessions=80)
    # a high learning rate makes validation loss turn up before the epoch cap
    loop = TrainLoopConfig(max_epochs=12, patience=2, batch_size=64, seed=5, learning_rate=5e-3)
    method = MethodSpec(MethodKind.DROPOUT)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=2))
    records = update_model(state, datasets[0], method, loop)
    best_logged = min(r.val_loss for r in records)
    assert records[-1].val_loss > best_logged  # the stop fired after the best epoch
    val = datasets[0].validation
    feats = extract_features_batch(state.model, [ex.prefix for ex in val])
    loss, _ = ce_from_logits(feats @ state.model.params["item_emb"].T, np.array([ex.target for ex in val]))
    assert loss == pytest.approx(best_logged, rel=1e-6)


def test_restored_model_keeps_the_workspace_init_model_made():
    # the early-stopping snapshot is a copy of the model; once restored it must
    # carry the run's workspace on, or every cycle would map its buffers anew
    datasets, _ = tiny_stream(cycles=3, sessions=80)
    loop = TrainLoopConfig(max_epochs=12, patience=2, batch_size=64, seed=5, learning_rate=5e-3)
    method = MethodSpec(MethodKind.ADER, exemplar_capacity=50)
    state = ExperimentState(model=init_model(MODEL_CFG, datasets[0].item_count_after, seed=2))
    workspace = state.model.workspace
    for cycle in (0, 1):
        trained = state.model
        records = update_model(state, datasets[cycle], method, loop)
        assert records[-1].val_loss > min(r.val_loss for r in records)  # an earlier epoch was restored
        assert state.model is not trained
        assert state.model.workspace is workspace
    assert "grads" in workspace._buffers  # the steps ran in it


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


def test_run_experiment_requires_two_cycles():
    datasets, _ = tiny_stream(cycles=2)
    with pytest.raises(ValueError):
        run_experiment(datasets[:1], MethodSpec(MethodKind.FINETUNE), tiny_loop(), MODEL_CFG)


def test_two_cycles_one_train_one_eval():
    datasets, _ = tiny_stream(cycles=2)
    res = run_experiment(datasets, MethodSpec(MethodKind.FINETUNE), tiny_loop(), MODEL_CFG)
    assert len(res.reports) == 1
    trains = [e for e in res.audit if e[0] == "train"]
    evals = [e for e in res.audit if e[0] == "eval"]
    assert [t[1] for t in trains] == [0]
    assert [e[1] for e in evals] == [1]


def test_protocol_never_trains_on_future_cycles():
    datasets, _ = tiny_stream(cycles=4)
    res = run_experiment(datasets, MethodSpec(MethodKind.ADER, exemplar_capacity=60),
                         tiny_loop(epochs=3), MODEL_CFG)
    first_eval = {}
    first_train = {}
    for pos, event in enumerate(res.audit):
        kind, cycle = event[0], event[1]
        if kind == "eval":
            first_eval.setdefault(cycle, pos)
        if kind == "train":
            first_train.setdefault(cycle, pos)
    for cycle, train_pos in first_train.items():
        if cycle in first_eval:
            assert first_eval[cycle] > 0
            # evaluation of cycle t happens before cycle t is ever trained on
            assert train_pos > first_eval[cycle]


def test_exemplar_store_never_exceeds_capacity():
    datasets, _ = tiny_stream(cycles=4)
    capacity = 45
    res = run_experiment(datasets, MethodSpec(MethodKind.ADER, exemplar_capacity=capacity),
                         tiny_loop(epochs=3), MODEL_CFG)
    sizes = [e[2] for e in res.audit if e[0] == "exemplars"]
    assert sizes and all(s <= capacity for s in sizes)


def test_lambda_matches_rational_recomputation():
    datasets, _ = tiny_stream(cycles=4)
    method = MethodSpec(MethodKind.ADER, lambda_base=0.8, exemplar_capacity=60)
    res = run_experiment(datasets, method, tiny_loop(epochs=3), MODEL_CFG)
    sizes = {e[1]: e[2] for e in res.audit if e[0] == "exemplars"}
    item_counts = [d.item_count_after for d in datasets]
    for t in range(1, len(res.reports)):
        old_items = item_counts[t - 1]
        new_items = item_counts[t]
        exemplar_count = sizes[t - 1]
        data_count = len(datasets[t].train)
        expected = 0.8 * math.sqrt(float(Fraction(old_items, new_items) * Fraction(exemplar_count, data_count)))
        lambdas = [r.lambda_t for r in res.epoch_log if r.cycle == t]
        assert lambdas and all(lam == pytest.approx(expected, rel=1e-12) for lam in lambdas)


def test_run_experiment_deterministic():
    datasets, _ = tiny_stream(cycles=3)
    method = MethodSpec(MethodKind.ADER, exemplar_capacity=50)
    r1 = run_experiment(datasets, method, tiny_loop(seed=9), MODEL_CFG)
    r2 = run_experiment(datasets, method, tiny_loop(seed=9), MODEL_CFG)
    assert [r.recall_at for r in r1.reports] == [r.recall_at for r in r2.reports]
    assert [(e.total, e.val_recall) for e in r1.epoch_log] == [(e.total, e.val_recall) for e in r2.epoch_log]


def test_ewc_penalty_active_from_second_cycle():
    datasets, _ = tiny_stream(cycles=3)
    res = run_experiment(datasets, MethodSpec(MethodKind.EWC, exemplar_capacity=50,
                                              ewc_strength=10.0), tiny_loop(epochs=3), MODEL_CFG)
    cycle0 = [e for e in res.epoch_log if e.cycle == 0]
    later = [e for e in res.epoch_log if e.cycle > 0]
    assert all(e.ewc == 0.0 for e in cycle0)
    assert any(e.ewc > 0.0 for e in later)



def test_ewc_trains_in_model_dtype_after_vocabulary_growth(monkeypatch):
    # the anchor and Fisher rows added for new items must keep the model's
    # float32, or the penalty and its gradient silently run in float64; every
    # old parameter keeps its anchor and Fisher value, and the new rows are zero
    import cyclerec.harness as harness_mod

    seen = []
    real = harness_mod.loss_and_gradients

    def recording(model, spec):
        breakdown, grads = real(model, spec)
        if spec.ewc_anchor is not None:
            seen.append((spec.ewc_anchor, spec.ewc_fisher, model.item_count, grads.flat.dtype))
        return breakdown, grads

    monkeypatch.setattr(harness_mod, "loss_and_gradients", recording)
    datasets, _ = tiny_stream(cycles=3, new_items=4)
    assert datasets[1].item_count_after > datasets[0].item_count_after
    cfg = ModelConfig(embed_dim=16, block_count=2, max_seq_len=16, dtype="float32")
    state = ExperimentState(model=init_model(cfg, datasets[0].item_count_after, seed=0))
    method = MethodSpec(MethodKind.EWC, exemplar_capacity=50, ewc_strength=10.0)
    update_model(state, datasets[0], method, tiny_loop(epochs=2, patience=1))
    old_items = state.model.item_count
    previous = (state.ewc_anchor.copy(), state.ewc_fisher.copy())
    assert previous[1].any()
    update_model(state, datasets[1], method, tiny_loop(epochs=2, patience=1))
    assert seen  # cycle 1 trained against the grown cycle-0 anchor
    cut, new = old_items * cfg.embed_dim, (datasets[1].item_count_after - old_items) * cfg.embed_dim
    for anchor, fisher, item_count, grad_dtype in seen:
        assert item_count == datasets[1].item_count_after
        assert anchor is seen[0][0] and fisher is seen[0][1]  # grown once per cycle
        for grown, before in zip((anchor, fisher), previous):
            assert grown.dtype == np.float32 and grown.shape == state.model.flat_params.shape
            np.testing.assert_array_equal(grown[:cut], before[:cut])
            np.testing.assert_array_equal(grown[cut + new :], before[cut:])
            assert not grown[cut : cut + new].any()
        assert grad_dtype == np.float32
    assert state.ewc_anchor.dtype == np.float32 and state.ewc_fisher.dtype == np.float32


def test_er_methods_grow_training_pool_with_exemplars():
    datasets, _ = tiny_stream(cycles=3, sessions=50)
    loop = tiny_loop(epochs=2, patience=1)
    res_er = run_experiment(datasets, MethodSpec(MethodKind.ER_HERDING, exemplar_capacity=80), loop, MODEL_CFG)
    res_ft = run_experiment(datasets, MethodSpec(MethodKind.DROPOUT), loop, MODEL_CFG)
    # same epochs but the replay method reports nonzero exemplars in the audit
    er_sizes = [e[2] for e in res_er.audit if e[0] == "exemplars"]
    assert er_sizes and all(s > 0 for s in er_sizes)
    assert not [e for e in res_ft.audit if e[0] == "exemplars"]


# ---------------------------------------------------------------------------
# compare_methods
# ---------------------------------------------------------------------------


def test_compare_methods_single_row():
    datasets, _ = tiny_stream(cycles=2)
    cmp = compare_methods(datasets, [MethodSpec(MethodKind.FINETUNE)], [1],
                          tiny_loop(epochs=2, patience=1), MODEL_CFG)
    assert [(r.method.name, r.seed) for r in cmp.runs] == [("Finetune", 1)]
    assert "recall@20" in cmp.runs[0].means
    table = summarize_rows(cycle_rows(cmp)).splitlines()
    assert table[-1].startswith("Finetune") and table[-1].count("± 0.00") == 4  # single seed -> zero stdev


def test_compare_methods_grid_and_worker_equivalence():
    datasets, _ = tiny_stream(cycles=2)
    methods = [MethodSpec(MethodKind.FINETUNE), MethodSpec(MethodKind.DROPOUT)]
    loop = tiny_loop(epochs=2, patience=1)
    seq = compare_methods(datasets, methods, [1, 2], loop, MODEL_CFG, workers=1)
    par = compare_methods(datasets, methods, [1, 2], loop, MODEL_CFG, workers=2)
    assert len(seq.runs) == 4
    assert [(r.method.name, r.seed) for r in seq.runs] == [(r.method.name, r.seed) for r in par.runs]
    for a, b in zip(seq.runs, par.runs):
        assert a.means == b.means


def test_compare_methods_rejects_zero_workers():
    datasets, _ = tiny_stream(cycles=2)
    with pytest.raises(ValueError, match="workers"):
        compare_methods(datasets, [MethodSpec(MethodKind.FINETUNE)], [1], tiny_loop(), MODEL_CFG, workers=0)


def test_compare_methods_validates_inputs():
    datasets, _ = tiny_stream(cycles=2)
    with pytest.raises(ValueError):
        compare_methods(datasets, [], [1], tiny_loop(), MODEL_CFG)
    with pytest.raises(ValueError):
        compare_methods(datasets, [MethodSpec(MethodKind.FINETUNE)], [], tiny_loop(), MODEL_CFG)
