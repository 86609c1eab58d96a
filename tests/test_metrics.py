import numpy as np
import pytest

from cyclerec.metrics import CycleReport, aggregate, mrr_at_k, rank_of_target, recall_at_k, target_ranks


def sort_rank_oracle(logits, target):
    """Materialize the full ranking with the same tie rule (higher logit
    first, equal logits by lower index) and read off the target position."""
    order = sorted(range(len(logits)), key=lambda i: (-logits[i], i))
    return order.index(target) + 1


def report(cycle, recall, mrr, count=10, unseen=0.0):
    return CycleReport(cycle, dict(recall), dict(mrr), count, unseen)


# ---------------------------------------------------------------------------
# rank_of_target
# ---------------------------------------------------------------------------


def test_rank_simple():
    assert rank_of_target([0.9, 0.1, 0.5], 0) == 1
    assert rank_of_target([0.9, 0.1, 0.5], 2) == 2
    assert rank_of_target([0.9, 0.1, 0.5], 1) == 3


def test_rank_tie_breaks_by_index():
    assert rank_of_target([0.5, 0.5], 0) == 1
    assert rank_of_target([0.5, 0.5], 1) == 2


def test_rank_all_equal():
    logits = [1.0] * 6
    for i in range(6):
        assert rank_of_target(logits, i) == i + 1


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        rank_of_target([0.1, 0.2], 5)


def test_rank_matches_sort_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        if rng.random() < 0.5:
            logits = rng.integers(0, 5, size=n).astype(float)  # deliberate ties
        else:
            logits = rng.normal(size=n)
        target = int(rng.integers(0, n))
        assert rank_of_target(logits, target) == sort_rank_oracle(logits, target)


def test_target_ranks_match_sort_oracle_row_by_row():
    rng = np.random.default_rng(2)
    logits = rng.integers(0, 4, size=(40, 12)).astype(np.float32)  # many ties
    targets = rng.integers(0, 12, size=40)
    ranks = target_ranks(logits, targets)
    assert ranks.tolist() == [sort_rank_oracle(row, t) for row, t in zip(logits.tolist(), targets)]


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=30)
    for target in range(0, 30, 7):
        base = rank_of_target(logits, target)
        assert rank_of_target(3.0 * logits + 5.0, target) == base
        assert rank_of_target(np.exp(logits), target) == base


# ---------------------------------------------------------------------------
# recall / mrr
# ---------------------------------------------------------------------------


def test_recall_fraction():
    assert recall_at_k([1, 3, 25], 20) == pytest.approx(2 / 3)


def test_recall_all_hits():
    assert recall_at_k([1, 2, 3], 5) == 1.0


def test_recall_counts_unrankable_as_miss():
    assert recall_at_k([1, np.inf, np.inf, 2], 20) == pytest.approx(0.5)


def test_recall_empty_errors():
    with pytest.raises(ValueError):
        recall_at_k([], 10)


def test_mrr_hand_computed():
    assert mrr_at_k([1, 2, 4], 20) == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_mrr_zero_beyond_k():
    assert mrr_at_k([21], 20) == 0.0
    assert mrr_at_k([20], 20) == pytest.approx(1 / 20)


def test_mrr_never_exceeds_recall():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ranks = rng.integers(1, 40, size=rng.integers(1, 30)).tolist()
        for k in (1, 5, 10, 20):
            assert mrr_at_k(ranks, k) <= recall_at_k(ranks, k) + 1e-12


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(3)
    ranks = rng.integers(1, 40, size=25).tolist()
    recalls = [recall_at_k(ranks, k) for k in range(1, 41)]
    mrrs = [mrr_at_k(ranks, k) for k in range(1, 41)]
    assert recalls == sorted(recalls)
    assert mrrs == sorted(mrrs)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_identical_reports():
    reports = [report(i, {20: 0.4}, {20: 0.1}) for i in range(3)]
    means = aggregate(reports)
    assert means["recall@20"] == pytest.approx(0.4)
    assert means["mrr@20"] == pytest.approx(0.1)


def test_aggregate_two_cycles_mean():
    reports = [report(0, {20: 0.4}, {20: 0.1}), report(1, {20: 0.6}, {20: 0.3})]
    means = aggregate(reports)
    assert means["recall@20"] == pytest.approx(0.5)
    assert means["mrr@20"] == pytest.approx(0.2)


def test_aggregate_unweighted_by_cycle_size():
    reports = [
        report(0, {20: 0.0}, {20: 0.0}, count=10),
        report(1, {20: 1.0}, {20: 1.0}, count=1000),
    ]
    assert aggregate(reports)["recall@20"] == pytest.approx(0.5)


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])
