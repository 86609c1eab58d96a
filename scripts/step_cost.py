"""Time one training step (``loss_and_gradients``) at fixed shapes and hash its gradients.

Prints, for a 4-row and a 256-row cross-entropy step at embed_dim 32 and
150 (2 blocks, dropout 0.3, rows from the first cycle of a 250-session
synthetic stream), the best and median wall time of one step over many
repeats, and a hash of the step's gradient bytes. The 4-row step is
mostly per-call fixed cost; the hash shows whether a change kept every
floating-point operation.

    PYTHONPATH=src python scripts/step_cost.py [--repeats N]

Run it on two checkouts to compare them: equal hashes mean bit-identical
gradients. It runs with one BLAS thread, as the benchmark does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

from cyclerec.data import SyntheticStreamConfig, generate_synthetic_stream  # noqa: E402
from cyclerec.model import BatchSpec, ModelConfig, TableRows, init_model, loss_and_gradients  # noqa: E402

SHAPES = [(32, 4), (32, 256), (150, 4), (150, 256)]  # (embed_dim, CE rows)
TARGET_SECONDS = 1.0  # timed wall time per shape when --repeats is not given


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=0, help="steps timed per shape (default: about 1 s worth)")
    args = parser.parse_args()

    datasets, _ = generate_synthetic_stream(SyntheticStreamConfig(cycle_count=2, sessions_per_cycle=250, seed=3))
    train = datasets[0].train
    print(f"{'d':>4} {'rows':>5} {'best ms':>9} {'median ms':>10} {'steps':>6}  gradient sha256")
    for d, n in SHAPES:
        model = init_model(ModelConfig(embed_dim=d, block_count=2), datasets[0].item_count_after, seed=1)
        rows = TableRows.of(train, model.config.max_seq_len)
        spec = BatchSpec(ce_examples=rows[:n], dropout_rate=0.3, dropout_seed=5)
        _, grads = loss_and_gradients(model, spec)
        digest = hashlib.sha256(grads.flat.tobytes()).hexdigest()[:16]
        start = perf_counter()
        loss_and_gradients(model, spec)
        repeats = args.repeats or max(5, int(TARGET_SECONDS / (perf_counter() - start)))
        times = []
        for _ in range(repeats):
            start = perf_counter()
            loss_and_gradients(model, spec)
            times.append(perf_counter() - start)
        print(f"{d:>4} {n:>5} {1e3 * min(times):>9.3f} {1e3 * statistics.median(times):>10.3f} {repeats:>6}  {digest}")


if __name__ == "__main__":
    main()
