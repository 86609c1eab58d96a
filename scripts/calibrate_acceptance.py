"""Calibration run for the directional desk-scale experiments (criteria 7-9).

Trains the acceptance suite's method x seed grid on the drifting and the
flat synthetic stream and prints seed-mean recall@20 per method, the
criterion margins, wall times, and per cycle the restored epoch and
whether training ran into the epoch cap.

    PYTHONPATH=src python scripts/calibrate_acceptance.py
"""

import os
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from cyclerec.data import SyntheticStreamConfig, generate_synthetic_stream
from cyclerec.harness import MethodKind, MethodSpec, TrainLoopConfig, run_experiment
from cyclerec.model import ModelConfig

SEEDS = [1, 2, 3]
MODEL = ModelConfig()  # d=32, 2 blocks, float32
LOOP = dict(max_epochs=35, patience=5, batch_size=256, kd_batch_size=128)
CAP = 300


def stop_points(epoch_log, max_epochs):
    """Per cycle: the restored (lowest validation loss) epoch, and whether the cycle hit the epoch cap."""
    points = []
    for cycle in sorted({r.cycle for r in epoch_log}):
        records = [r for r in epoch_log if r.cycle == cycle]
        best = min(records, key=lambda r: r.val_loss)  # earliest of equal minima, as update_model keeps
        points.append((best.epoch, records[-1].epoch == max_epochs))
    return points


def timed_runs(datasets, spec, tag):
    means = []
    for seed in SEEDS:
        t0 = time.time()
        res = run_experiment(datasets, spec, TrainLoopConfig(seed=seed, **LOOP), MODEL)
        dt = time.time() - t0
        epochs = [r.epochs_trained for r in res.reports]
        points = stop_points(res.epoch_log, LOOP["max_epochs"])
        restored = " ".join(f"{epoch}{'*' if capped else ''}" for epoch, capped in points)
        capped = sum(capped for _, capped in points)
        means.append(res.means["recall@20"])
        print(f"{tag} seed={seed}: recall@20={means[-1]:.4f}  ({dt:.0f}s, epochs={epochs})", flush=True)
        print(f"    restored epoch per cycle (* = ended at max_epochs): {restored}  "
              f"[{capped}/{len(points)} capped]", flush=True)
    print(f"{tag} MEAN: {np.mean(means):.4f}\n", flush=True)
    return float(np.mean(means))


def main():
    t_start = time.time()
    drift, _ = generate_synthetic_stream(SyntheticStreamConfig(seed=0))
    print("drift stream:", sum(len(d.examples) for d in drift), "examples", flush=True)

    t7 = time.time()
    ader = timed_runs(drift, MethodSpec(MethodKind.ADER, exemplar_capacity=CAP), "ADER")
    ft = timed_runs(drift, MethodSpec(MethodKind.FINETUNE), "Finetune")
    er = timed_runs(drift, MethodSpec(MethodKind.ER_RANDOM, exemplar_capacity=CAP), "ER_random")
    print(f"criterion 7 wall: {time.time()-t7:.0f}s  ADER>=FT: {ader >= ft}  ADER>=ER: {ader >= er}\n", flush=True)

    half = timed_runs(drift, MethodSpec(MethodKind.ADER, exemplar_capacity=CAP // 2), "ADER-half")
    print(f"criterion 9: drop={100*(ader-half):.2f} points (<=2 required)\n", flush=True)

    flat, _ = generate_synthetic_stream(
        SyntheticStreamConfig(new_items_per_cycle=0, popularity_drift_rate=0.0, seed=0)
    )
    ader0 = timed_runs(flat, MethodSpec(MethodKind.ADER, exemplar_capacity=CAP), "ADER-flat")
    ft0 = timed_runs(flat, MethodSpec(MethodKind.FINETUNE), "Finetune-flat")
    print(f"criterion 8: |diff|={100*abs(ader0-ft0):.2f} points (<=2 required)", flush=True)
    print(f"total wall: {time.time()-t_start:.0f}s", flush=True)


if __name__ == "__main__":
    main()
