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

import contextlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import walkers
from .autodiff import Tensor
from .binio import atomic_open
from .checkpoint import load_model
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

    def step(self, lr: float, boxes: dict[str, tuple]) -> None:
        """Update m, v and the weights in each box in place, rounding as the textbook expressions
        m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * (g * g) and
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) [+ lr * weight_decay * p] do, on two
        box-sized work arrays. Every operand is the parameter's dtype (moments, gradient
        and weights alike) or a Python float, so each step writes into a work array as is."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, box in boxes.items():
            p = self.params[name]
            m, v = self.m[name][box], self.v[name][box]
            g = p.grad[box] if p.grad is not None else np.zeros_like(m)  # adds +0.0, as g = 0.0 would
            m *= self.beta1
            update = np.multiply(g, 1.0 - self.beta1)
            m += update
            v *= self.beta2
            np.multiply(g, g, out=update)
            update *= 1.0 - self.beta2
            v += update
            np.true_divide(m, bc1, out=update)
            update *= lr
            denom = np.true_divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            if self.weight_decay:
                update += np.multiply(p.data[box], lr * self.weight_decay, out=denom)
            p.data[box] -= update


def grad_norm(params: dict[str, Tensor]) -> float:
    """The L2 norm of every gradient buffer, each squared in float64 into one work array and summed."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    work = np.empty(max((g.size for g in grads), default=0))
    total = 0.0
    for g in grads:
        total += float(np.square(g, out=work[:g.size].reshape(g.shape), dtype=np.float64).sum())
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


def _draw_batches(model: SupernetModel, dataset: SyntheticDataset, cfg: TrainConfig):
    """cfg.steps cyclic batches of dataset indices, and the frontend features of each index they visit."""
    batcher = CyclicBatcher(dataset)
    batches = [[idx for idx, _ in batcher.next_batch(cfg.batch_size)] for _ in range(cfg.steps)]
    feats_of = {idx: model.frontend.forward(dataset.sequences[idx])
                for idx in dict.fromkeys(itertools.chain.from_iterable(batches))}
    return batches, feats_of


def _step_loop(model, space, cfg, batches, feats_of, configs, run_loss, lr) -> TrainLog:
    """The one step loop: each run of consecutive equal-length sequences in batches[step] is one
    graph, run_loss(step, positions) -> (root, per-sequence losses), and one root.backward(); then
    Adam steps configs[step]'s touched boxes at lr(step), asked for once as the step starts. A
    non-finite mean loss or grad norm raises DivergenceError before Adam writes.

    Whatever the walker count, the run holds the model's weights in one walkers.shared_zeros
    (MAP_SHARED) mapping and each grad in a buffer of a second one, zeroed in place at the start of
    every step. A step's gradient is a left fold over its sequences, since every parameter op adds
    per sequence, in order. So with two or more walkers, a forked step partner (walkers.partner)
    computes the first half of each step's first run, when that run holds two sequences or more, as
    one graph adding into the zeroed store: exactly the fold's prefix. Meanwhile the caller runs the
    rest of that run as one graph with its leaf gradient additions deferred
    (autodiff.defer_leaf_grads), and adds them onto the store in order once the partner answers.
    After the run, on every path, the weights are private arrays again and every grad is None. Steps
    only read what the caller drew before the loop, so logs and weights are bitwise the same for any
    walker count.
    """
    adam = Adam(model.params, cfg.adam_betas, cfg.adam_eps, cfg.weight_decay)
    # each step's runs of consecutive equal-length sequences, as positions in its batch
    runs = [[list(run) for _, run in itertools.groupby(range(len(batch)), key=lambda i: len(feats_of[batch[i]]))]
            for batch in batches]

    def run_graph(step: int, seqs: list) -> list:
        root, losses = run_loss(step, seqs)
        root.backward()
        return losses

    def first_half(step: int) -> list:
        """In the step partner: the first half of the step's first run, its gradients added into
        the run's gradient store, which the caller zeroed before asking; its losses."""
        first = runs[step][0]
        return run_graph(step, first[:len(first) // 2])

    log = TrainLog()
    split = walkers.walker_count() >= 2 and any(len(step_runs[0]) >= 2 for step_runs in runs)
    with contextlib.ExitStack() as stack:
        stack.callback(_make_private, model.params)
        weights = walkers.shared_zeros({name: p.data for name, p in model.params.items()})
        grads = walkers.shared_zeros(weights)
        for name, p in model.params.items():
            weights[name][...] = p.data
            p.data, p.grad = weights[name], grads[name]
        if split:
            ask, answer = stack.enter_context(walkers.partner(first_half))
        for step, rest in enumerate(runs):
            step_lr = lr(step)
            for g in grads.values():
                g.fill(0)
            losses = []
            if split and len(rest[0]) >= 2:
                first, rest = rest[0], rest[1:]
                ask(step)
                with ad.defer_leaf_grads() as deferred:
                    ours = run_graph(step, first[len(first) // 2:])
                losses = answer()
                ad.add_deferred(deferred)
                losses += ours
            for run in rest:
                losses += run_graph(step, run)
            mean_loss, gn = float(np.mean(losses)), grad_norm(model.params)
            for what, value in (("loss", mean_loss), ("grad norm", gn)):
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite {what} {value} at step {step}")
            adam.step(step_lr, touched_boxes(space, configs[step]))
            log.records.append(TrainRecord(step, mean_loss, gn, step_lr, configs[step]))
    return log


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
    """Both stages' masked distillation through _step_loop, on the lr_at schedule; each run's
    row-stacked graph is bitwise one graph per sequence.

    Targets depend only on the frontend features, never on the student, and the batches are known
    before step 0. So the batches and features are drawn first, then the targets of every sequence
    the run visits, by one teacher.batch_targets call in chunks of batch_size; the batcher first
    visits the sequences in index order, so on a cold cache the chunks are the stacks a step would
    run. Every step's subnet and masks are drawn next, from their own streams.
    """
    mask_rng = Rng(cfg.seed, STREAM_MASK)
    batches, feats_of = _draw_batches(model, dataset, cfg)
    targets_of = dict(zip(feats_of, teacher.batch_targets(list(feats_of.values()), target_cfg, cfg.batch_size)))
    configs = [pick_config(step) for step in range(cfg.steps)]
    masks = [[span_mask(feats_of[idx].shape[0], mask_spec, mask_rng) for idx in batch] for batch in batches]

    def run_loss(step: int, seqs: list):
        batch, step_masks = batches[step], masks[step]
        feats = [feats_of[batch[i]] for i in seqs]
        h = masked_input(model, configs[step], feats, [step_masks[i] for i in seqs])
        head_out = encode(model, configs[step], h, seqs=len(seqs))[2]
        run_targets = Tensor(np.concatenate([targets_of[batch[i]].data for i in seqs]))
        run_losses = distill_loss(head_out, run_targets,
                                  ad.LossMask([step_masks[i] for i in seqs], feats[0].shape[0]),
                                  reduction=l1_reduction)
        # only the root's gradient is read, exactly 1 per term: bitwise a per-sequence sum
        return ad.tsum(run_losses * (1.0 / cfg.batch_size)), run_losses.data.tolist()

    return _step_loop(model, space, cfg, batches, feats_of, configs, run_loss, lambda step: lr_at(step, cfg))


def _make_private(params: dict[str, Tensor]) -> None:
    """Give each parameter a private copy of its array and drop its gradient buffer, so no later
    fork shares writable weights or gradients, and the model outlives the run without them."""
    for p in params.values():
        p.data, p.grad = np.array(p.data), None


def stage1_train(
    cfg: TrainConfig,
    space: SearchSpace,
    teacher: TeacherModel,
    dataset: SyntheticDataset,
    mask_spec: MaskSpec = MaskSpec(),
    target_cfg: TargetConfig = TargetConfig(),
    l1_reduction: str = "mean",
):
    """Train the largest architecture from scratch. Returns (metadata, model, log),
    the metadata being what save_model should record with the model."""
    if cfg.stage != 1:
        raise ConfigurationError("stage1_train requires cfg.stage == 1")
    model = build_supernet(space, Rng(cfg.seed, STREAM_WEIGHTS))
    _adopt_teacher_frontend(model, teacher)
    check_teacher_compat(model, teacher)
    largest = max_subnet(space)
    log = _run_training(model, space, teacher, dataset, cfg, mask_spec, target_cfg, lambda step: largest,
                        l1_reduction)
    return {"stage": 1, "seed": cfg.seed}, model, log


def stage2_train(
    cfg: TrainConfig,
    space: SearchSpace,
    teacher: TeacherModel,
    dataset: SyntheticDataset,
    mask_spec: MaskSpec = MaskSpec(),
    target_cfg: TargetConfig = TargetConfig(),
    l1_reduction: str = "mean",
    init_model: SupernetModel | None = None,
):
    """Once-for-all training: a fresh random subnet per step.

    Init comes from cfg.ofa_init: the stage 1 weights of init_model (or,
    without one, of the supernet file cfg.init_checkpoint), which must
    already carry the teacher's frontend, or a fresh random build, which
    adopts it. Returns (metadata, model, log), as stage1_train does.
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
    log = _run_training(model, space, teacher, dataset, cfg, mask_spec, target_cfg,
                        lambda step: sample_subnet(space, arch_rng), l1_reduction)
    return {"stage": 2, "seed": cfg.seed, "ofa_init": cfg.ofa_init}, model, log


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

    Warmup is a brief self-regression through _step_loop at the constant warmup_lr, with Adam's
    defaults (TrainConfig's): the teacher's head learns to reproduce the frontend features from the
    encoder output, which gives the hidden layers input-dependent structure. A diverging warmup
    raises DivergenceError. Distillation correctness never depends on teacher quality, only on its
    frozenness.
    """
    if frontend_spec is None:
        frontend_spec = desk_frontend()
    space = arch.singleton_space(frontend_spec)
    supernet = build_supernet(space, Rng(seed, STREAM_TEACHER))
    if warmup_steps > 0:
        if dataset is None:
            raise ConfigurationError("teacher warmup needs a dataset")
        cfg = TrainConfig(stage=1, steps=warmup_steps, batch_size=batch_size)
        batches, feats_of = _draw_batches(supernet, dataset, cfg)
        config = max_subnet(space)

        def run_loss(step: int, seqs: list):
            feats = [feats_of[batches[step][i]] for i in seqs]
            stacked = np.concatenate(feats)
            err = forward(supernet, config, stacked, seqs=len(seqs))[2] - Tensor(stacked)
            losses = np.square(err.data).reshape(len(seqs), -1).mean(axis=1).tolist()
            return ad.tsum(err * err) * (1.0 / (feats[0].size * batch_size)), losses

        _step_loop(supernet, space, cfg, batches, feats_of, [config] * warmup_steps, run_loss, lambda step: warmup_lr)
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
