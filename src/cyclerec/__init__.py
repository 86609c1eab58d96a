"""Continual next-item recommendation with exemplar replay and distillation."""

from .data import (
    ColumnFormat,
    CycleDataset,
    EventLog,
    ItemRegistry,
    Session,
    SyntheticStreamConfig,
    TrainingExample,
    expand_session,
    generate_synthetic_stream,
    ingest,
    load_cycles,
    preprocess,
    save_cycles,
    split_cycles,
    stream_statistics,
)
from .exemplars import (
    ExemplarSet,
    SelectionStrategy,
    allocate_quota,
    equal_quota,
    herding_order,
    select_exemplars,
)
from .harness import (
    ComparisonResult,
    EarlyStopper,
    EpochRecord,
    ExperimentState,
    MethodKind,
    MethodSpec,
    RunResult,
    TrainLoopConfig,
    compare_methods,
    evaluate_model,
    run_experiment,
    update_model,
)
from .losses import (
    LossBreakdown,
    adaptive_lambda,
    ce_from_logits,
    fisher_diagonal,
    kd_from_logits,
    kd_loss,
    teacher_probabilities,
)
from .metrics import CycleReport, aggregate, mrr_at_k, rank_of_target, recall_at_k
from .model import (
    BatchSpec,
    DivergenceError,
    ModelConfig,
    ModelState,
    adam_step,
    extract_features_batch,
    grow_vocabulary,
    init_model,
    loss_and_gradients,
)

__version__ = "0.1.0"
