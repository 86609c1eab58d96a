from fractions import Fraction

import numpy as np
import pytest

from cyclerec.data import TrainingExample
from cyclerec.exemplars import (
    SelectionStrategy,
    allocate_quota,
    equal_quota,
    herding_order,
    select_exemplars,
)
from cyclerec.model import BatchSpec, ModelConfig, extract_features_batch, init_model, loss_and_gradients

CFG = ModelConfig(embed_dim=8, block_count=1, max_seq_len=10, dtype="float64")


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def quota_oracle(counts, capacity):
    """Largest-remainder rounding recomputed in exact rational arithmetic."""
    total = sum(counts)
    if capacity >= total:
        return list(counts)
    real = [Fraction(capacity * c, total) for c in counts]
    floors = [int(r) for r in real]
    remainders = [r - f for r, f in zip(real, floors)]
    shortfall = capacity - sum(floors)
    order = sorted(range(len(counts)), key=lambda i: (-remainders[i], i))
    for i in order[:shortfall]:
        floors[i] += 1
    return floors


def herding_oracle(features, quota):
    """Exhaustive greedy re-evaluation of all remaining candidates each step.

    Pure python; compares the same scaled distance ||k*total - n*(f+S)||^2,
    which is exact arithmetic whenever features are integer-valued.
    """
    feats = [[float(v) for v in row] for row in features]
    d = len(feats[0])
    n = len(feats)
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


# ---------------------------------------------------------------------------
# quota allocation
# ---------------------------------------------------------------------------


def test_quota_exact_proportionality():
    np.testing.assert_array_equal(allocate_quota([3, 1], 4), [3, 1])


def test_quota_largest_remainder_index_tiebreak():
    # reals {1.0, 0.5, 0.5}: floor {1,0,0}, remainder tie broken toward B
    np.testing.assert_array_equal(allocate_quota([2, 1, 1], 2), [1, 1, 0])


def test_quota_capacity_above_pool_keeps_everything():
    counts = [4, 3, 2, 1]
    np.testing.assert_array_equal(allocate_quota(counts, 100), counts)


def test_quota_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        allocate_quota([0, 0, 0], 5)
    with pytest.raises(ValueError):
        allocate_quota([1, 2], 0)
    with pytest.raises(ValueError):
        allocate_quota([-1, 2], 1)


def test_quota_matches_rational_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        counts = rng.integers(0, 40, size=n)
        if counts.sum() == 0:
            counts[rng.integers(0, n)] = 1
        capacity = int(rng.integers(1, 120))
        got = allocate_quota(counts, capacity)
        expected = quota_oracle([int(c) for c in counts], capacity)
        assert got.tolist() == expected
        assert got.sum() == min(capacity, counts.sum())
        if capacity <= counts.sum():
            assert np.all(got <= counts)


def test_quota_frequency_monotone():
    rng = np.random.default_rng(1)
    for _ in range(100):
        counts = rng.integers(0, 30, size=12)
        if counts.sum() == 0:
            counts[0] = 3
        quotas = allocate_quota(counts, int(rng.integers(1, 40)))
        for i in range(12):
            for j in range(12):
                if counts[i] > counts[j]:
                    assert quotas[i] >= quotas[j]


def test_equal_quota_spreads_capacity():
    np.testing.assert_array_equal(equal_quota([5, 5, 5, 5], 6), [2, 2, 1, 1])


def test_equal_quota_redistributes_clamped_slots():
    # item 1 only has 1 example; its unused share flows to items with spares
    quotas = equal_quota([10, 1, 10], 9)
    assert quotas.sum() == 9
    assert quotas[1] == 1
    np.testing.assert_array_equal(quotas, [4, 1, 4])


def test_equal_quota_pool_smaller_than_capacity():
    quotas = equal_quota([2, 1, 0], 50)
    assert quotas.sum() == 3
    np.testing.assert_array_equal(quotas, [2, 1, 0])


# ---------------------------------------------------------------------------
# herding
# ---------------------------------------------------------------------------


def test_herding_total_tie_keeps_input_order():
    feats = np.ones((4, 3))
    order = herding_order(feats, 3)
    assert order == [0, 1, 2]


def test_herding_two_dimensional_hand_trace():
    # target mean (0,0): step 1 distances 1, 1, 2 -> tie -> index 0 picks
    # (1,0); step 2: adding (-1,0) returns the running average to the mean
    # (distance 0) while (0,2) leaves it at (0.5,1) -> picks (-1,0).
    feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    order = herding_order(feats, 3, mu=np.zeros(2))
    assert order == [0, 1, 2]


def test_herding_full_quota_is_permutation():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(7, 3))
    order = herding_order(feats, 7)
    assert sorted(order) == list(range(7))


def test_herding_first_pick_is_closest_to_mean():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(9, 4))
    mu = feats.mean(axis=0)
    dists = ((feats - mu) ** 2).sum(axis=1)
    assert herding_order(feats, 1)[0] == int(np.argmin(dists))


def test_herding_quota_exceeds_candidates_errors():
    with pytest.raises(ValueError):
        herding_order(np.ones((2, 2)), 3)


def test_herding_matches_exhaustive_oracle_randomized():
    # Integer-valued features keep every distance comparison in exact
    # arithmetic, so the index sequences must agree bit for bit, including
    # duplicate-feature ties.
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 5))
        feats = rng.integers(-4, 5, size=(n, d)).astype(float)
        quota = int(rng.integers(1, n + 1))
        assert herding_order(feats, quota) == herding_oracle(feats, quota)


def test_herding_select_returns_examples_in_selection_order():
    # an item's exemplars are stored in herding order: first the candidate
    # whose feature is closest to the item's mean feature
    m = init_model(CFG, 8, seed=3)
    candidates = [TrainingExample((i,), 5) for i in range(6)]
    store = select_exemplars(m, candidates, capacity=3, strategy=SelectionStrategy.HERDING)
    feats = extract_features_batch(m, [ex.prefix for ex in candidates])
    closest = int(np.argmin(np.linalg.norm(feats - feats.mean(axis=0), axis=1)))
    assert store.examples[0] == candidates[closest]
    assert store.examples == [candidates[i] for i in herding_order(feats, 3)]


# ---------------------------------------------------------------------------
# select_exemplars
# ---------------------------------------------------------------------------


def _pool(rng, item_count, size):
    out = []
    for _ in range(size):
        n = int(rng.integers(1, 5))
        prefix = tuple(int(i) for i in rng.integers(0, item_count, size=n))
        out.append(TrainingExample(prefix, int(rng.integers(0, item_count))))
    return out


def test_select_small_pool_stored_entirely():
    rng = np.random.default_rng(4)
    m = init_model(CFG, 10, seed=1)
    pool = _pool(rng, 10, 12)
    store = select_exemplars(m, pool, capacity=100, strategy=SelectionStrategy.HERDING)
    assert len(store.examples) == len(store.features) == 12
    assert sorted(store.examples, key=repr) == sorted(pool, key=repr)


def test_select_random_deterministic_per_seed():
    rng = np.random.default_rng(5)
    m = init_model(CFG, 8, seed=2)
    pool = _pool(rng, 8, 60)
    a = select_exemplars(m, pool, 20, SelectionStrategy.RANDOM, seed=9)
    b = select_exemplars(m, pool, 20, SelectionStrategy.RANDOM, seed=9)
    c = select_exemplars(m, pool, 20, SelectionStrategy.RANDOM, seed=10)
    assert a.examples == b.examples
    assert a.examples != c.examples
    assert a.features is None  # random selection encodes nothing


def test_select_loss_keeps_smallest_ce():
    rng = np.random.default_rng(6)
    m = init_model(CFG, 6, seed=3)
    candidates = [TrainingExample((0, 1), 3), TrainingExample((2, 4), 3), TrainingExample((5,), 3)]
    losses = [loss_and_gradients(m, BatchSpec(ce_examples=[ex]))[0].ce for ex in candidates]
    store = select_exemplars(m, candidates, capacity=1, strategy=SelectionStrategy.LOSS)
    assert store.examples == [candidates[int(np.argmin(losses))]]


def test_select_capacity_invariant_all_strategies():
    rng = np.random.default_rng(7)
    m = init_model(CFG, 12, seed=4)
    pool = _pool(rng, 12, 90)
    for strategy in SelectionStrategy:
        for capacity in (5, 30, 200):
            store = select_exemplars(m, pool, capacity, strategy, seed=1)
            assert len(store.examples) == min(capacity, len(pool)), strategy
            assert len(store.examples) <= capacity or capacity >= len(pool)


def test_select_groups_sorted_by_item():
    rng = np.random.default_rng(8)
    m = init_model(CFG, 9, seed=5)
    pool = _pool(rng, 9, 40)
    store = select_exemplars(m, pool, 15, SelectionStrategy.HERDING)
    targets = [ex.target for ex in store.examples]
    assert targets == sorted(targets)


def _grouped_reference(model, pool, capacity, strategy, seed):
    """The store as item -> examples in selection order, each rule recomputed per item.

    Features come from one encoder pass over the pool; the loss rule's
    cross entropy from a separate one-row training step per example.
    """
    targets = [ex.target for ex in pool]
    counts = np.bincount(targets, minlength=model.item_count)
    quota_rule = equal_quota if strategy is SelectionStrategy.EQUAL_HERDING else allocate_quota
    quotas = quota_rule(counts, capacity)
    feats = extract_features_batch(model, [ex.prefix for ex in pool])
    groups = {}
    for item in range(model.item_count):
        members = [i for i, t in enumerate(targets) if t == item]
        quota = int(min(quotas[item], len(members)))
        if quota == 0:
            continue
        if strategy is SelectionStrategy.RANDOM:
            rng = np.random.default_rng(np.random.SeedSequence([seed, item]))
            order = rng.choice(len(members), size=quota, replace=False).tolist()
        elif strategy is SelectionStrategy.LOSS:
            ce = [loss_and_gradients(model, BatchSpec(ce_examples=[pool[i]]))[0].ce for i in members]
            order = sorted(range(len(members)), key=lambda j: ce[j])[:quota]
        else:
            order = herding_order(feats[members], quota)
        groups[item] = [pool[members[j]] for j in order]
    return groups


@pytest.mark.parametrize("strategy", list(SelectionStrategy))
def test_flat_store_runs_item_by_item_in_selection_order(strategy):
    rng = np.random.default_rng(12)
    m = init_model(CFG, 9, seed=6)
    pool = _pool(rng, 9, 70)
    store = select_exemplars(m, pool, 25, strategy, seed=4)
    groups = _grouped_reference(m, pool, 25, strategy, seed=4)
    assert store.examples == [ex for item in sorted(groups) for ex in groups[item]]


@pytest.mark.parametrize("strategy", [s for s in SelectionStrategy if s is not SelectionStrategy.RANDOM])
def test_store_features_are_the_pool_pass_rows(strategy):
    # float32, where a row's values could depend on what its call packs: the
    # store keeps the selection pass's rows, not a re-encoding
    rng = np.random.default_rng(13)
    m = init_model(ModelConfig(embed_dim=8, block_count=1, max_seq_len=10), 9, seed=7)
    pool = list(dict.fromkeys(_pool(rng, 9, 70)))  # distinct, so each stored row has one pool row
    store = select_exemplars(m, pool, 25, strategy, batch_size=32)
    feats = extract_features_batch(m, [ex.prefix for ex in pool], batch_size=32)
    assert store.features.dtype == np.float32
    np.testing.assert_array_equal(store.features, feats[[pool.index(ex) for ex in store.examples]])


def test_select_unknown_strategy_errors():
    m = init_model(CFG, 4, seed=0)
    with pytest.raises(ValueError):
        select_exemplars(m, [TrainingExample((0,), 1)], 5, "weird")


def test_select_empty_pool_errors():
    m = init_model(CFG, 4, seed=0)
    with pytest.raises(ValueError):
        select_exemplars(m, [], 5, SelectionStrategy.HERDING)
