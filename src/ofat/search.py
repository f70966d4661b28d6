"""Budgeted random architecture search over a trained supernet.

Candidates come from the same per-dimension uniform sampler used during
once-for-all training, rejection-filtered by a parameter ceiling, and are
scored with the masked distillation objective on held-out data. Evaluation
masks are fixed by a dedicated seed so every candidate sees identical
masks. The minimal and maximal subnets are always evaluated as performance
bounds, whatever the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .distill import MaskSpec, TargetConfig, TeacherModel, distill_loss, masked_input, span_mask
from .errors import BudgetInfeasibleError, ConfigurationError
from .rng import Rng, STREAM_EVAL_MASK, STREAM_SEARCH
from .spaces import SearchSpace, SubnetConfig, max_subnet, min_subnet, sample_subnet, validate_config
from .supernet import (SupernetModel, attention_half, block_norm, count_params, ffn_half, head_forward,
                       positional_stage)

ATTEMPT_FACTOR = 100  # rejection-sampling cap: 100 x n_candidates attempts


@dataclass(frozen=True)
class SearchBudget:
    max_params: int
    n_candidates: int = 1000
    eval_batches: int = 4
    seed: int = 0
    includes_frontend: bool = True
    includes_head: bool = True

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ConfigurationError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.eval_batches < 1:
            raise ConfigurationError(f"eval_batches must be >= 1, got {self.eval_batches}")


@dataclass
class SearchEntry:
    config: SubnetConfig
    params: int
    loss: float
    index: int  # draw order, the deterministic tie-breaker


@dataclass
class SearchResult:
    entries: list[SearchEntry]  # sorted ascending by (loss, index)
    bound_min: SearchEntry
    bound_max: SearchEntry
    budget: SearchBudget
    acceptance_rate: float

    @property
    def best(self) -> SearchEntry:
        return self.entries[0]


def subnet_params(space: SearchSpace, config: SubnetConfig, budget: SearchBudget) -> int:
    return count_params(
        space, config,
        includes_frontend=budget.includes_frontend,
        includes_head=budget.includes_head,
    ).total


def evaluate_subnet(
    model: SupernetModel,
    config: SubnetConfig,
    val_sequences,
    teacher: TeacherModel,
    mask_spec: MaskSpec,
    target_cfg: TargetConfig,
    eval_seed: int = 0,
    eval_batches: int = 4,
    l1_reduction: str = "mean",
) -> float:
    """Mean masked distillation loss over eval_batches held-out sequences.

    No weights change; masks are drawn from a fresh (eval_seed,
    STREAM_EVAL_MASK) stream, so repeated calls and different candidates
    are scored on identical masks.
    """
    return evaluate_subnets(model, [config], val_sequences, teacher, mask_spec, target_cfg,
                            eval_seed, eval_batches, l1_reduction)[0]


class _PrefixNode:
    """One trie node: a layer prefix shared by the configs below it."""

    __slots__ = ("children", "ends")

    def __init__(self):
        # next layer's heads -> its ffn_ratio -> child, so siblings share an attention half
        self.children: dict[int, dict[float, _PrefixNode]] = {}
        self.ends: list[int] = []  # indices of the configs whose depth ends here


def evaluate_subnets(
    model: SupernetModel,
    configs: list[SubnetConfig],
    val_sequences,
    teacher: TeacherModel,
    mask_spec: MaskSpec,
    target_cfg: TargetConfig,
    eval_seed: int = 0,
    eval_batches: int = 4,
    l1_reduction: str = "mean",
) -> list[float]:
    """evaluate_subnet for every config, bitwise equal to scoring each alone.

    The sliced forward up to block l depends only on (embed_dim, heads[:l],
    ffn_ratio[:l]), and every candidate sees the same masks. So the
    frontend and teacher targets run once per batch; the masked_input stem
    and positional stage once per embed dim on the batches of one sequence
    length stacked as rows; and the blocks over a trie keyed in two levels
    per layer, heads[l] then ffn_ratio[l], walked depth first over that
    stack. A block's attention half depends only on its input and heads, so
    at a node with children ln1 runs once, each heads child runs one
    attention_half and one ln2, and each ratio grandchild one ffn_half.
    Where a config's depth ends, the head runs once on the stack and the
    loss once per batch on its rows. Only the root-to-node path is held:
    per layer the block input, its ln1, one attention half and its ln2, so
    at most about 4 * max_depth stacked arrays.
    """
    tries: dict[int, tuple[SubnetConfig, _PrefixNode]] = {}
    for i, config in enumerate(configs):
        validate_config(model.space, config)
        node = tries.setdefault(config.embed_dim, (config, _PrefixNode()))[1]
        for heads, ratio in zip(config.heads, config.ffn_ratio):
            node = node.children.setdefault(heads, {}).setdefault(ratio, _PrefixNode())
        node.ends.append(i)

    batches = _heldout_batches(model.frontend, val_sequences, teacher, target_cfg, eval_batches)
    stacks: dict[int, list[int]] = {}  # frame count -> the batches of that length, in order
    for b, (feats, _) in enumerate(batches):
        stacks.setdefault(feats.shape[0], []).append(b)
    per_batch = np.zeros((len(configs), len(batches)))

    def walk(node, e, depth, h, scored):
        """h stacks the rows of the batches in `scored`, a list of (batch, targets, mask)."""
        seqs = len(scored)
        if node.ends:
            head_out = head_forward(model, e, h, seqs)[1].data
            t = head_out.shape[0] // seqs
            for j, (b, targets, mask) in enumerate(scored):
                rows = ad.Tensor(head_out[j * t:(j + 1) * t])
                per_batch[node.ends, b] = distill_loss(rows, targets, mask, reduction=l1_reduction).item()
        if node.children:
            hn = block_norm(model, depth, "ln1", h, seqs)
        for heads, by_ratio in node.children.items():
            a = attention_half(model, depth, h, hn, e, heads, seqs)
            an = block_norm(model, depth, "ln2", a, seqs)
            for ratio, child in by_ratio.items():
                walk(child, e, depth + 1, ffn_half(model, depth, a, an, e, ratio, seqs), scored)

    with ad.no_grad():
        for e, (first, root) in tries.items():
            # Each candidate alone draws its masks from a fresh stream, in batch order.
            mask_rng = Rng(eval_seed, STREAM_EVAL_MASK)
            masks = [span_mask(feats.shape[0], mask_spec, mask_rng) for feats, _ in batches]
            for group in stacks.values():
                h = masked_input(model, first, [batches[b][0] for b in group], [masks[b] for b in group])
                walk(root, e, 0, positional_stage(model, e, h, len(group)),
                     [(b, batches[b][1], masks[b]) for b in group])
    return [float(np.mean(row)) for row in per_batch]


def _heldout_batches(frontend, val_sequences, teacher, target_cfg, eval_batches):
    """(features, teacher targets) per eval batch, cycling through the sequences."""
    if len(val_sequences) == 0:
        raise ConfigurationError("validation data is empty")
    idxs = [b % len(val_sequences) for b in range(eval_batches)]
    feats = [frontend.forward(val_sequences[idx]) for idx in idxs]
    return list(zip(feats, teacher.batch_targets(feats, target_cfg, [("val", idx) for idx in idxs])))


def sample_candidates(space: SearchSpace, budget: SearchBudget):
    """Rejection-sample n_candidates budget-satisfying configs.

    Returns (configs, their subnet_params, acceptance_rate). The raw sampler
    is untouched so accepted candidates keep the training-time
    per-dimension uniform distribution, just truncated by the budget.
    """
    floor = subnet_params(space, min_subnet(space), budget)
    if budget.max_params < floor:
        raise ConfigurationError(
            f"budget {budget.max_params} is below the minimal subnet size {floor}"
        )
    rng = Rng(budget.seed, STREAM_SEARCH)
    configs, params = [], []
    attempts = 0
    cap = ATTEMPT_FACTOR * budget.n_candidates
    while len(configs) < budget.n_candidates:
        if attempts >= cap:
            rate = len(configs) / attempts
            raise BudgetInfeasibleError(
                f"found only {len(configs)}/{budget.n_candidates} candidates in "
                f"{attempts} attempts (acceptance rate {rate:.4f})",
                acceptance_rate=rate,
            )
        config = sample_subnet(space, rng)
        attempts += 1
        n = subnet_params(space, config, budget)
        if n <= budget.max_params:
            configs.append(config)
            params.append(n)
    return configs, params, len(configs) / attempts


def random_search(
    model: SupernetModel,
    space: SearchSpace,
    budget: SearchBudget,
    val_sequences,
    teacher: TeacherModel,
    mask_spec: MaskSpec = MaskSpec(),
    target_cfg: TargetConfig = TargetConfig(),
    workers: int = 1,
    l1_reduction: str = "mean",
) -> SearchResult:
    """Score budget-satisfying random subnets; rank ascending by loss.

    Every candidate and both bounds are scored in one evaluate_subnets
    pass. Evaluation is serial: `workers` is accepted for compatibility
    and does not change the result.
    """
    configs, params, acceptance = sample_candidates(space, budget)
    lo, hi = min_subnet(space), max_subnet(space)
    *losses, lo_loss, hi_loss = evaluate_subnets(
        model, configs + [lo, hi], val_sequences, teacher, mask_spec, target_cfg,
        eval_seed=budget.seed, eval_batches=budget.eval_batches, l1_reduction=l1_reduction,
    )

    entries = [
        SearchEntry(config=c, params=n, loss=loss, index=i)
        for i, (c, n, loss) in enumerate(zip(configs, params, losses))
    ]
    entries.sort(key=lambda e: (e.loss, e.index))
    assert all(e.params <= budget.max_params for e in entries)

    bound_min = SearchEntry(lo, subnet_params(space, lo, budget), lo_loss, -1)
    bound_max = SearchEntry(hi, subnet_params(space, hi, budget), hi_loss, -2)
    return SearchResult(
        entries=entries,
        bound_min=bound_min,
        bound_max=bound_max,
        budget=budget,
        acceptance_rate=acceptance,
    )


# -- reporting ----------------------------------------------------------------


def report_scatter(result: SearchResult, header_lines=()) -> str:
    """CSV of every candidate (ranked) plus the min/max bound rows."""
    lines = [f"# {line}" for line in header_lines]
    lines.append("params,loss,embed,depth,tag")
    for e in result.entries:
        lines.append(f"{e.params},{e.loss:.8e},{e.config.embed_dim},{e.config.depth},")
    for tag, e in (("min", result.bound_min), ("max", result.bound_max)):
        lines.append(f"{e.params},{e.loss:.8e},{e.config.embed_dim},{e.config.depth},{tag}")
    return "\n".join(lines) + "\n"


def parse_scatter(text: str):
    """Re-parse report_scatter output into (candidate_rows, bound_rows)."""
    candidates, bounds = [], []
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for ln in rows[1:]:
        params, loss, embed, depth, tag = ln.split(",")
        row = (int(params), float(loss), int(embed), int(depth))
        (bounds if tag else candidates).append(row + (tag,))
    return candidates, bounds


def summarize(result: SearchResult) -> dict:
    """Structured summary: best config, bounds, budget, seed."""
    return {
        "budget": {
            "max_params": result.budget.max_params,
            "n_candidates": result.budget.n_candidates,
            "eval_batches": result.budget.eval_batches,
            "seed": result.budget.seed,
            "includes_frontend": result.budget.includes_frontend,
            "includes_head": result.budget.includes_head,
        },
        "acceptance_rate": result.acceptance_rate,
        "best": {
            "config": result.best.config.to_dict(),
            "params": result.best.params,
            "loss": result.best.loss,
        },
        "bounds": {
            "min": {"params": result.bound_min.params, "loss": result.bound_min.loss},
            "max": {"params": result.bound_max.params, "loss": result.bound_max.loss},
        },
    }
