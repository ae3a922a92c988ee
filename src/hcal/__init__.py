"""Post-hoc classifier recalibration toolkit.

Accuracy-preserving monotonic calibration maps, a sorted-window alignment
training objective with proper-scoring-rule baselines, a full calibration
metric suite, and a CLI for training, evaluating, and reporting.
"""

from types import ModuleType as _ModuleType

from .dataset import (
    LogitDataset,
    check_prob_matrix,
    load_dataset,
    save_dataset,
    softmax_rows,
    split_dataset,
)
from .loss import (
    HCalConfig,
    LossOutput,
    brier_loss,
    build_windows,
    hcal_loss,
    kmeans_1d,
    kmeans_weights,
    nll_loss,
    window_sums,
)
from .maps import (
    CalibrationMap,
    EnsembleTempMap,
    ForwardTrace,
    MonotonicNetMap,
    PiecewiseLinearMap,
    init_map,
    load_map,
    save_map,
)
from .metrics import BinStats, MetricReport, evaluate, get_metric, reliability_data
from .optim import (
    AdamState,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    adam_step,
    standard_grid,
    select_model,
    train_one,
)
from .synthetic import make_calibrated_task, make_overconfident_task

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
