"""Once-for-all Transformer toolkit: a weight-entangled supernet trained by
masked distillation from a frozen teacher, with budgeted random subnet
search. Pure numpy, desk scale."""

__version__ = "0.1.0"

from .autodiff import (
    ComputeGraph,
    Tensor,
    finite_diff_check,
    gelu,
    grouped_conv1d,
    layer_norm,
    matmul,
    no_grad,
    precision,
    slice_prefix,
    softmax_lastdim,
)
from .checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from .data import SyntheticDataset, load_dataset, make_synthetic_dataset, save_dataset
from .distill import (
    MaskSpec,
    TargetConfig,
    TeacherModel,
    compute_targets,
    distill_loss,
)
from .errors import (
    BudgetInfeasibleError,
    ConfigurationError,
    ContractError,
    DimensionError,
    DivergenceError,
)
from .frontend import Frontend, FrontendSpec, desk_frontend, hubert_base_frontend
from .rng import Rng
from .search import SearchBudget, SearchResult, evaluate_subnet, random_search, report_scatter
from .spaces import (
    SearchSpace,
    SubnetConfig,
    base_space,
    count_subnets,
    desk_space,
    max_subnet,
    mid_subnet,
    min_subnet,
    sample_subnet,
    small_space,
)
from .supernet import (
    ParamCount,
    SupernetModel,
    build_supernet,
    count_params,
    extract_subnet,
    forward,
    reference_forward,
    touched_boxes,
)
from .train import Adam, TeacherArch, TrainConfig, TrainLog, make_teacher, stage1_train, stage2_train
