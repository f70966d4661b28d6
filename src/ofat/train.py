"""Two-stage supernet training with masked distillation.

Stage 1 trains the largest architecture from scratch against the frozen
teacher. Stage 2 continues from those weights (or a fresh random build)
while sampling a fresh random subnet every step, updating only the weight
slices that subnet touched. The frontend is shared with the teacher and
never trained.

Optimizer is Adam with decoupled weight decay and a linear
warmup-then-decay schedule; updates are restricted to the touched prefix
boxes of the step's subnet, so untouched slices keep their stale values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .binio import atomic_open
from .checkpoint import Checkpoint, load_model, supernet_to_checkpoint
from .data import CyclicBatcher, SyntheticDataset
from .distill import MaskSpec, TargetConfig, TeacherModel, distill_loss, masked_input, span_mask
from .errors import ConfigurationError, DivergenceError
from .frontend import desk_frontend
from .rng import Rng, STREAM_ARCH, STREAM_MASK, STREAM_TEACHER, STREAM_WEIGHTS
from .spaces import SearchSpace, SubnetConfig, max_subnet, sample_subnet
from .supernet import SupernetModel, build_supernet, clone_supernet, encode, forward, touched_boxes

# Stage-2 init sources: the weights of init_model / init_checkpoint, or a fresh build.
OFA_INITS = ("stage1_weights", "random")


@dataclass
class TrainConfig:
    stage: int
    steps: int
    batch_size: int = 4
    learning_rate: float = 2e-3
    warmup_steps: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.98)
    adam_eps: float = 1e-6
    weight_decay: float = 0.0
    seed: int = 0
    init_checkpoint: str | None = None
    ofa_init: str = "stage1_weights"

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ConfigurationError(f"stage must be 1 or 2, got {self.stage}")
        if self.steps <= 0:
            raise ConfigurationError(f"steps must be positive, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        for i, beta in enumerate(self.adam_betas):
            if not 0.0 <= beta < 1.0:
                raise ConfigurationError(f"adam_beta{i + 1} must be in [0, 1), got {beta}")
        if self.warmup_steps > self.steps:
            raise ConfigurationError(
                f"warmup_steps {self.warmup_steps} exceeds steps {self.steps}"
            )
        if self.ofa_init not in OFA_INITS:
            raise ConfigurationError(f"ofa_init must be one of {OFA_INITS}")
        if self.stage == 2 and self.ofa_init != "random" and not self.init_checkpoint:
            raise ConfigurationError(
                f"stage 2 with ofa_init={self.ofa_init} requires an init checkpoint"
            )


@dataclass
class TrainRecord:
    step: int
    loss: float
    grad_norm: float
    lr: float
    config: SubnetConfig


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def to_csv(self, path, header_lines=()) -> None:
        with atomic_open(path) as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("step,loss,grad_norm,lr,embed,depth,heads,ffn_ratios\n")
            for r in self.records:
                heads = "-".join(str(h) for h in r.config.heads)
                ratios = "-".join(str(x) for x in r.config.ffn_ratio)
                fh.write(
                    f"{r.step},{r.loss:.8e},{r.grad_norm:.8e},{r.lr:.8e},"
                    f"{r.config.embed_dim},{r.config.depth},{heads},{ratios}\n"
                )


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to learning_rate at warmup_steps, then linear decay to 0."""
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    if cfg.steps == cfg.warmup_steps:
        return cfg.learning_rate
    return cfg.learning_rate * (cfg.steps - step) / (cfg.steps - cfg.warmup_steps)


class Adam:
    """Adam with bias correction and decoupled weight decay.

    step() only touches the given per-parameter boxes; moment buffers are
    full-size but entries outside a step's boxes are left alone, matching
    the update-only-touched-weights rule of once-for-all training. Bias
    correction uses the global step count.
    """

    def __init__(self, params: dict[str, Tensor], betas=(0.9, 0.98), eps=1e-6, weight_decay=0.0):
        self.params = params
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float, boxes: dict[str, tuple]) -> None:
        """Update m, v and the weights in each box in place, rounding as the textbook expressions do."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, box in boxes.items():
            p = self.params[name]
            g = p.grad[box] if p.grad is not None else 0.0
            m, v = self.m[name][box], self.v[name][box]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = lr * (m / bc1)
            update /= np.sqrt(v / bc2) + self.eps
            if self.weight_decay:
                update += lr * self.weight_decay * p.data[box]
            p.data[box] -= update


def grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


# -- the shared step loop ------------------------------------------------------


def check_teacher_compat(model: SupernetModel, teacher: TeacherModel) -> None:
    """Refuse a student that does not read the teacher's features or predict its width.

    Targets are the teacher's hidden layers over its own frontend features,
    so a distillation loss means something only when the student's frontend
    has the teacher's spec and bitwise-equal arrays, and its head is as wide
    as the teacher. Each mismatch is a ConfigurationError naming what differs.
    """
    if model.space.frontend != teacher.frontend.spec:
        raise ConfigurationError("student frontend spec differs from the teacher's frontend spec")
    theirs = teacher.frontend.arrays
    for name, arr in model.frontend.arrays.items():
        if arr.tobytes() != theirs[name].tobytes():
            raise ConfigurationError(f"student frontend array {name} differs from the teacher's")
    if model.space.teacher_dim != teacher.dim:
        raise ConfigurationError(
            f"space.teacher_dim {model.space.teacher_dim} != teacher width {teacher.dim}")


def _adopt_teacher_frontend(model: SupernetModel, teacher: TeacherModel) -> None:
    # Student and teacher share the frozen downsampler, weights included,
    # so the distillation task is purely encoder-to-encoder.
    model.frontend = teacher.frontend.copy()


def _run_training(
    model: SupernetModel,
    space: SearchSpace,
    teacher: TeacherModel,
    dataset: SyntheticDataset,
    cfg: TrainConfig,
    mask_spec: MaskSpec,
    target_cfg: TargetConfig,
    pick_config,
    l1_reduction: str = "mean",
) -> TrainLog:
    """The step loop of both stages: each run of consecutive equal-length sequences in a
    batch is one row-stacked graph and one backward, bitwise one graph per sequence."""
    adam = Adam(model.params, cfg.adam_betas, cfg.adam_eps, cfg.weight_decay)
    mask_rng = Rng(cfg.seed, STREAM_MASK)
    batcher = CyclicBatcher(dataset)
    feats_cache: dict[int, np.ndarray] = {}
    log = TrainLog()

    for step in range(cfg.steps):
        config = pick_config(step)
        lr = lr_at(step, cfg)
        adam.zero_grad()
        batch = batcher.next_batch(cfg.batch_size)
        for idx, seq in batch:
            if idx not in feats_cache:
                feats_cache[idx] = model.frontend.forward(seq)
        feats = [feats_cache[idx] for idx, _ in batch]
        targets = teacher.batch_targets(feats, target_cfg, [("train", idx) for idx, _ in batch])
        masks = [span_mask(f.shape[0], mask_spec, mask_rng) for f in feats]
        losses = []
        for t, run in itertools.groupby(range(len(feats)), key=lambda i: feats[i].shape[0]):
            run = list(run)
            h = masked_input(model, config, [feats[i] for i in run], [masks[i] for i in run])
            head_out = encode(model, config, h, seqs=len(run))[2]
            root = 0.0
            for j, i in enumerate(run):
                loss = distill_loss(ad.slice_along(head_out, 0, j * t, (j + 1) * t), targets[i], masks[i],
                                    reduction=l1_reduction)
                losses.append(loss.item())
                root = root + loss * (1.0 / cfg.batch_size)
            root.backward()
        mean_loss = float(np.mean(losses))
        if not math.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss {mean_loss} at step {step}")
        gn = grad_norm(model.params)
        if not math.isfinite(gn):
            raise DivergenceError(f"non-finite grad norm {gn} at step {step}")
        adam.step(lr, touched_boxes(space, config))
        log.records.append(TrainRecord(step, mean_loss, gn, lr, config))
    adam.zero_grad()  # the model outlives the run; its gradient buffers need not
    return log


def stage1_train(
    cfg: TrainConfig,
    space: SearchSpace,
    teacher: TeacherModel,
    dataset: SyntheticDataset,
    mask_spec: MaskSpec = MaskSpec(),
    target_cfg: TargetConfig = TargetConfig(),
    l1_reduction: str = "mean",
    extra_metadata: dict | None = None,
):
    """Train the largest architecture from scratch. Returns (ckpt, model, log)."""
    if cfg.stage != 1:
        raise ConfigurationError("stage1_train requires cfg.stage == 1")
    model = build_supernet(space, Rng(cfg.seed, STREAM_WEIGHTS))
    _adopt_teacher_frontend(model, teacher)
    check_teacher_compat(model, teacher)
    largest = max_subnet(space)
    log = _run_training(
        model, space, teacher, dataset, cfg, mask_spec, target_cfg,
        lambda step: largest, l1_reduction
    )
    meta = {"stage": 1, "seed": cfg.seed, **(extra_metadata or {})}
    return supernet_to_checkpoint(model, meta), model, log


def stage2_train(
    cfg: TrainConfig,
    space: SearchSpace,
    teacher: TeacherModel,
    dataset: SyntheticDataset,
    mask_spec: MaskSpec = MaskSpec(),
    target_cfg: TargetConfig = TargetConfig(),
    l1_reduction: str = "mean",
    init_model: SupernetModel | None = None,
    extra_metadata: dict | None = None,
):
    """Once-for-all training: a fresh random subnet per step.

    Init comes from cfg.ofa_init: the stage 1 weights of init_model (or,
    without one, of the supernet file cfg.init_checkpoint), which must
    already carry the teacher's frontend, or a fresh random build, which
    adopts it.
    """
    if cfg.stage != 2:
        raise ConfigurationError("stage2_train requires cfg.stage == 2")
    if cfg.ofa_init == "random":
        model = build_supernet(space, Rng(cfg.seed, STREAM_WEIGHTS))
        _adopt_teacher_frontend(model, teacher)
    else:
        if init_model is None:
            init_model, _ = load_model(cfg.init_checkpoint, "supernet")
        if init_model.space != space:
            raise ConfigurationError("init checkpoint space does not match the training space")
        model = clone_supernet(init_model)  # never mutate the caller's init model
    check_teacher_compat(model, teacher)
    arch_rng = Rng(cfg.seed, STREAM_ARCH)
    log = _run_training(
        model, space, teacher, dataset, cfg, mask_spec, target_cfg,
        lambda step: sample_subnet(space, arch_rng), l1_reduction,
    )
    meta = {"stage": 2, "seed": cfg.seed, "ofa_init": cfg.ofa_init, **(extra_metadata or {})}
    return supernet_to_checkpoint(model, meta), model, log


# -- teacher construction ------------------------------------------------------


@dataclass(frozen=True)
class TeacherArch:
    dim: int = 64
    depth: int = 8
    heads: int = 8
    ffn_ratio: float = 4.0
    head_dim: int = 8
    conv_groups: int = 4
    conv_kernel: int = 7

    def singleton_space(self, frontend_spec) -> SearchSpace:
        # teacher_dim here is the teacher's own head width, used only for
        # the warmup self-regression against the frontend features.
        return SearchSpace(
            embed_dims=(self.dim,),
            head_choices=(self.heads,),
            ffn_ratios=(self.ffn_ratio,),
            depths=(self.depth,),
            head_dim=self.head_dim,
            conv_groups=self.conv_groups,
            conv_kernel=self.conv_kernel,
            frontend=frontend_spec,
            teacher_dim=frontend_spec.out_dim,
        )


def make_teacher(
    seed: int,
    arch: TeacherArch = TeacherArch(),
    frontend_spec=None,
    warmup_steps: int = 0,
    warmup_lr: float = 1e-3,
    dataset: SyntheticDataset | None = None,
    batch_size: int = 4,
) -> TeacherModel:
    """Build (and optionally warm up) a frozen teacher.

    Warmup is a brief self-regression: the teacher's head learns to
    reproduce the frontend features from the encoder output, which gives
    the hidden layers input-dependent structure. Distillation correctness
    never depends on teacher quality, only on its frozenness.
    """
    if frontend_spec is None:
        frontend_spec = desk_frontend()
    space = arch.singleton_space(frontend_spec)
    rng = Rng(seed, STREAM_TEACHER)
    supernet = build_supernet(space, rng)
    if warmup_steps > 0:
        if dataset is None:
            raise ConfigurationError("teacher warmup needs a dataset")
        _warmup_self_regression(supernet, space, max_subnet(space), dataset, warmup_steps, warmup_lr,
                                batch_size)
    return TeacherModel(encoder=supernet)


def teacher_self_regression_loss(teacher: TeacherModel, sequences) -> float:
    """Mean squared error of the teacher head reproducing frontend features."""
    total = 0.0
    with ad.no_grad():
        for seq in sequences:
            feats = teacher.frontend.forward(seq)
            _, _, head_out = teacher.forward(feats)
            diff = head_out.data - feats
            total += float((diff.astype(np.float64) ** 2).mean())
    return total / len(sequences)


def _warmup_self_regression(model, space, config, dataset, steps, lr, batch_size):
    """Adam steps on the mean squared error of the head against the frontend features.
    As in _run_training, each run of consecutive equal-length sequences in a batch is one
    row-stacked graph and one backward, bitwise one graph per sequence."""
    adam = Adam(model.params)
    boxes = touched_boxes(space, config)
    batcher = CyclicBatcher(dataset)
    for _ in range(steps):
        adam.zero_grad()
        feats = [model.frontend.forward(seq) for _, seq in batcher.next_batch(batch_size)]
        for t, run in itertools.groupby(feats, key=lambda f: f.shape[0]):
            run = list(run)
            head_out = forward(model, config, np.concatenate(run), seqs=len(run))[2]
            root = 0.0
            for j, f in enumerate(run):
                err = ad.slice_along(head_out, 0, j * t, (j + 1) * t) - Tensor(f)
                root = root + ad.tsum(err * err) * (1.0 / (err.size * batch_size))
            root.backward()
        adam.step(lr, boxes)
    adam.zero_grad()  # the teacher is frozen from here on; its gradient buffers need not live


def teacher_to_checkpoint(teacher: TeacherModel, metadata: dict) -> Checkpoint:
    return supernet_to_checkpoint(teacher.encoder, {**metadata, "role": "teacher"})
