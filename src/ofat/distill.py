"""Masked distillation: targets, span masking, and the masked L1 loss.

Targets are built from a frozen teacher by normalizing each of its top-k
hidden layers per time step (zero mean, unit variance over features) and
averaging them. The student sees the same features with span-masked frames
replaced by its learned mask embedding and is penalized, at masked steps
only, by the L1 distance between its prediction-head output and the
targets.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, ContractError
from .frontend import Frontend
from .rng import Rng
from .spaces import SubnetConfig
from .supernet import SupernetModel, forward, full_config, project_input

_NORM_EPS = 1e-5


@dataclass(frozen=True)
class TargetConfig:
    """How many top teacher layers feed the targets (k=8 by convention)."""

    k: int = 8

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class MaskSpec:
    """Span masking: target fraction p of frames, spans of span_length."""

    p: float = 0.65
    span_length: int = 10
    convention: str = "fraction"  # or "span_start": p is the per-frame start probability

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"masking probability must be in [0, 1], got {self.p}")
        if self.span_length < 1:
            raise ConfigurationError(f"span_length must be >= 1, got {self.span_length}")
        if self.convention not in ("fraction", "span_start"):
            raise ConfigurationError(f"unknown mask convention '{self.convention}'")


def span_mask(t: int, spec: MaskSpec, rng: Rng) -> np.ndarray:
    """Sorted int64 indices of the frames a span mask over t frames covers.

    Under the default "fraction" convention, span starts are drawn without
    replacement until the union of length-span windows (clipped at t)
    reaches ceil(p * t) covered frames; the final window may overshoot by
    at most span_length - 1. Under "span_start", every frame independently
    starts a span with probability p (with one forced span when p > 0 and
    none were drawn).
    """
    if t < 1:
        raise ContractError("a span mask needs at least one frame")
    covered = np.zeros(t, dtype=bool)
    if spec.p > 0.0:
        if spec.convention == "fraction":
            target = math.ceil(spec.p * t)
            for s in rng.permutation(t):
                if int(covered.sum()) >= target:
                    break
                covered[s : s + spec.span_length] = True
        else:
            starts = np.nonzero(rng.uniform(t) < spec.p)[0]
            if starts.size == 0:
                starts = np.array([rng.index(t)])
            for s in starts:
                covered[s : s + spec.span_length] = True
    return np.nonzero(covered)[0].astype(np.int64)


def masked_input(model: SupernetModel, config: SubnetConfig, features: list, masks: list) -> Tensor:
    """The student stem: equal-length feature sequences projected, their masks[i]
    frames (span_mask) set to the mask embedding, as one [seqs*t, e] row stack."""
    seqs, t = len(features), features[0].shape[0]
    x = features[0] if seqs == 1 else np.concatenate(features)
    h = project_input(model, config, x, seqs)
    rows = np.concatenate([m + i * t for i, m in enumerate(masks)])
    return ad.mask_rows(h, model.params["mask_emb"], rows, seqs)


def compute_targets(teacher_hidden: list, cfg: TargetConfig) -> Tensor:
    """Average of the top-k per-step-normalized teacher layers.

    Each layer is standardized per time step over the feature dimension
    (parameter-free, eps 1e-5) before averaging, so every layer contributes
    at the same scale.
    """
    if len(teacher_hidden) < cfg.k:
        raise ConfigurationError(
            f"k={cfg.k} exceeds the {len(teacher_hidden)} available teacher layers"
        )
    shapes = {tuple(h.shape) for h in teacher_hidden}
    if len(shapes) != 1:
        raise ConfigurationError(f"teacher layers disagree in shape: {sorted(shapes)}")
    acc = None
    for h in teacher_hidden[-cfg.k :]:
        arr = h.data if isinstance(h, Tensor) else np.asarray(h)
        mu = arr.mean(axis=-1, keepdims=True)
        var = arr.var(axis=-1, keepdims=True)
        normed = (arr - mu) / np.sqrt(var + _NORM_EPS)
        acc = normed if acc is None else acc + normed
    return Tensor(acc / cfg.k)


def distill_loss(student_head_out: Tensor, targets: Tensor, mask_indices, reduction: str = "mean") -> Tensor:
    """Masked L1: mean over masked steps of the per-step feature distance.

    With reduction="mean" (default) the per-step L1 is averaged over the
    feature dimension, making the loss comparable across target widths;
    "sum" keeps the raw per-step sum. Gradients at unmasked steps are
    exactly zero because the difference is gated by a 0/1 column.
    """
    indices = np.asarray(mask_indices, dtype=np.int64)
    if indices.size == 0:
        raise ContractError("distill_loss needs at least one masked step")
    if student_head_out.shape != targets.shape:
        raise ContractError(
            f"student/target shapes disagree: {student_head_out.shape} vs {targets.shape}"
        )
    if reduction not in ("mean", "sum"):
        raise ContractError(f"unknown reduction '{reduction}'")
    t, d = student_head_out.shape
    gate = np.zeros((t, 1), dtype=student_head_out.dtype)
    gate[indices] = 1.0
    per_entry = ad.tabs(student_head_out - targets) * Tensor(gate)
    denom = float(indices.size * (d if reduction == "mean" else 1))
    return ad.tsum(per_entry) * (1.0 / denom)


@dataclass
class TeacherModel:
    """Frozen exact-size Transformer (a supernet over its one config) with
    its frontend; hidden layers exposed."""

    encoder: SupernetModel
    _target_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for p in self.encoder.params.values():
            p.requires_grad = False

    @property
    def frontend(self) -> Frontend:
        return self.encoder.frontend

    @property
    def depth(self) -> int:
        return self.encoder.space.max_depth

    @property
    def dim(self) -> int:
        return self.encoder.params["input_proj.w"].shape[1]

    def forward(self, features, collect_hidden: bool = False, seqs: int = 1):
        """(final, hidden, head_out) of the teacher's one config."""
        return forward(self.encoder, full_config(self.encoder), features, collect_hidden, seqs)

    def hidden_layers(self, features, seqs: int = 1) -> list:
        """All block outputs on unmasked features, no tape recorded."""
        with ad.no_grad():
            return self.forward(features, collect_hidden=True, seqs=seqs)[1]

    def targets_from_features(self, features, cfg: TargetConfig, cache_key=None) -> Tensor:
        """Distillation targets for one feature sequence, optionally cached (batch_targets)."""
        return self.batch_targets([features], cfg, [cache_key])[0]

    def batch_targets(self, features: list, cfg: TargetConfig, cache_keys: list) -> list:
        """Distillation targets per feature sequence, cached under its key unless None.

        Caching is exact (the teacher is frozen). The key adds a digest of the
        features, so a key reused for another sequence misses. The misses of
        each length run through the teacher as one row stack."""
        arrays = [np.ascontiguousarray(f.data if isinstance(f, Tensor) else f) for f in features]
        keys = [None if k is None else (k, cfg.k, a.shape, a.dtype.str,
                                        hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest())
                for k, a in zip(cache_keys, arrays)]
        out = [self._target_cache.get(key) for key in keys]
        misses = [i for i, hit in enumerate(out) if hit is None]
        for t in dict.fromkeys(arrays[i].shape[0] for i in misses):
            group = [i for i in misses if arrays[i].shape[0] == t]
            hidden = self.hidden_layers(np.concatenate([arrays[i] for i in group]), len(group))
            for j, i in enumerate(group):
                out[i] = compute_targets([h.data[j * t:(j + 1) * t] for h in hidden], cfg)
                if keys[i] is not None:
                    self._target_cache[keys[i]] = out[i]
        return out
