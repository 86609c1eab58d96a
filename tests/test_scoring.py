"""Full-vocabulary scoring in row blocks: bit-identical to one array, and bounded in memory.

Evaluation, validation, the loss rule of exemplar selection and the
teacher rows score their rows through ``model.logit_blocks``. Each caller
is compared here with the one-array formula it replaced, on float32 inputs
and the same features, at block sizes around the row count (set through
``model.BLOCK_ROWS``); and each is run at a large vocabulary under
``tracemalloc``. Every call scores in the
model's own workspace, so the module's calls reuse one set of buffers,
grown and cut to each block size in turn, as a run's passes do.
"""

import tracemalloc

import numpy as np
import pytest

import cyclerec.model as model_mod
from cyclerec.data import TrainingExample
from cyclerec.exemplars import SelectionStrategy, allocate_quota, select_exemplars
from cyclerec.harness import VAL_RECALL_K, _validation_scores, evaluate_model
from cyclerec.losses import _softmax, ce_from_logits, teacher_probabilities
from cyclerec.metrics import recall_at_k, target_ranks
from cyclerec.model import ModelConfig, TableRows, extract_features_batch, init_model, logit_blocks

CFG = ModelConfig(embed_dim=16, block_count=1, max_seq_len=8)  # float32
ROWS, ITEMS = 40, 50
BLOCKS = [1, 7, ROWS - 1, ROWS, ROWS + 1]


def random_examples(n, items, seed, max_len=5):
    rng = np.random.default_rng(seed)
    return [
        TrainingExample(tuple(rng.integers(0, items, size=int(rng.integers(1, max_len + 1))).tolist()),
                        int(rng.integers(0, items)))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def model():
    return init_model(CFG, ITEMS, seed=4)


@pytest.fixture(scope="module")
def examples():
    return random_examples(ROWS, ITEMS, seed=5)


@pytest.fixture(params=BLOCKS)
def batch_size(request, monkeypatch):
    """The block size of every inference pass in the test."""
    monkeypatch.setattr(model_mod, "BLOCK_ROWS", request.param)
    return request.param


def assert_same_floats(got, want, batch_size):
    """Bit-identical, but for one-row blocks: BLAS computes those by gemv, which sums in another order."""
    if batch_size == 1:
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
    else:
        np.testing.assert_array_equal(got, want)


def one_array_logits(model, examples, item_range):
    """The features of the caller's encoder pass, scored as one (rows, item_range) array."""
    feats = extract_features_batch(model, [ex.prefix for ex in examples])
    return feats @ model.params["item_emb"][:item_range].T


def test_logit_blocks_tile_the_one_array_logits(model, examples, batch_size):
    feats = extract_features_batch(model, [ex.prefix for ex in examples])
    whole = feats @ model.params["item_emb"][:30].T
    covered = []
    for block, logits in logit_blocks(model, feats, 30):
        assert logits.shape == (block.stop - block.start, 30) and logits.shape[0] <= batch_size
        assert_same_floats(logits, whole[block], batch_size)
        covered.extend(range(block.start, block.stop))
    assert covered == list(range(ROWS))


def test_logit_blocks_leave_no_small_remainder(model):
    # 1,025 rows at 512 a block are three blocks of 341-342, not 512 + 512 + 1, larger first
    feats = np.zeros((1025, CFG.embed_dim), dtype=np.float32)
    assert model_mod.BLOCK_ROWS == 512
    sizes = [block.stop - block.start for block, _ in logit_blocks(model, feats, ITEMS)]
    assert sizes == [342, 342, 341]
    assert [block for block, _ in logit_blocks(model, feats[:0], ITEMS)] == [slice(0, 0)]


def test_evaluation_ranks_match_one_array(model, examples, batch_size):
    # recall and MRR at every cutoff together fix the multiset of ranks
    ks = tuple(range(1, ITEMS + 1))
    recall, mrr, unseen = evaluate_model(model, examples, ITEMS, ks=ks)
    ranks = target_ranks(one_array_logits(model, examples, ITEMS), np.array([ex.target for ex in examples]))
    assert unseen == 0.0
    assert recall == {k: recall_at_k(ranks, k) for k in ks}
    assert mrr == {k: float(sum(1.0 / r for r in ranks if r <= k) / len(ranks)) for k in ks}


def test_validation_scores_match_one_array(model, examples, batch_size):
    logits = one_array_logits(model, examples, ITEMS)
    targets = np.array([ex.target for ex in examples])
    expected_recall = recall_at_k(target_ranks(logits, targets), VAL_RECALL_K)
    expected_loss, _ = ce_from_logits(logits, targets)
    rows = TableRows.of(examples, model.config.max_seq_len)
    assert _validation_scores(model, rows) == (expected_loss, expected_recall)


def test_loss_rule_picks_the_one_array_rows_in_order(model, batch_size):
    pool = random_examples(ROWS, 6, seed=8)  # few targets, so items hold several candidates
    capacity = 15
    logits = one_array_logits(model, pool, ITEMS)
    targets = np.array([ex.target for ex in pool])
    target_z = logits[np.arange(len(pool)), targets] - logits.max(axis=1)
    loss = _softmax(logits, out=(logits, logits))[1][:, 0] - target_z
    quotas = allocate_quota(np.bincount(targets, minlength=ITEMS), capacity)
    expected = []
    for item in sorted(set(targets.tolist())):
        members = np.flatnonzero(targets == item)
        expected.extend(members[np.argsort(loss[members], kind="stable")[: quotas[item]]].tolist())
    store = select_exemplars(model, pool, capacity, SelectionStrategy.LOSS)
    assert store.examples == [pool[i] for i in expected]


def test_teacher_rows_match_one_array_softmax(model, examples, batch_size):
    feats = extract_features_batch(model, [ex.prefix for ex in examples])
    expected = _softmax(feats @ model.params["item_emb"][:30].T)[2]
    assert_same_floats(teacher_probabilities(model, feats, 30), expected, batch_size)


# ---------------------------------------------------------------------------
# bounded memory at a large vocabulary
# ---------------------------------------------------------------------------

BIG_ITEMS, BIG_ROWS, TEACHER_ROWS = 10_000, 4_000, 1_000
PEAK_BOUND = 64 << 20  # one array of 4,000 x 10,000 float32 logits alone is 153 MiB


@pytest.fixture
def big():
    """A new model per site: its workspace holds no buffer that an earlier site grew."""
    cfg = ModelConfig(embed_dim=32, block_count=1, max_seq_len=8)
    return init_model(cfg, BIG_ITEMS, seed=2), random_examples(BIG_ROWS, BIG_ITEMS, seed=3, max_len=3)


def traced_peak(fn):
    """Peak bytes ``fn`` allocates above what is held when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("site", ["evaluation", "validation", "loss rule", "teacher rows"])
def test_full_vocabulary_pass_holds_a_block_not_the_rows(big, site):
    model, examples = big
    feats = extract_features_batch(model, [ex.prefix for ex in examples[:TEACHER_ROWS]])
    run = {
        "evaluation": lambda: evaluate_model(model, examples, BIG_ITEMS),
        "validation": lambda: _validation_scores(model, TableRows.of(examples, model.config.max_seq_len)),
        "loss rule": lambda: select_exemplars(model, examples, 1000, SelectionStrategy.LOSS),
        "teacher rows": lambda: teacher_probabilities(model, feats, BIG_ITEMS),
    }[site]
    peak = traced_peak(run)
    assert peak < PEAK_BOUND, f"{site}: peak {peak / 2**20:.1f} MiB"
