"""Budgeted random architecture search over a trained supernet.

Candidates come from the same per-dimension uniform sampler used during
once-for-all training, rejection-filtered by a parameter ceiling, and are
scored with the masked distillation objective on held-out data. Evaluation
masks are fixed by a dedicated seed so every candidate sees identical
masks. The minimal and maximal subnets are always evaluated as performance
bounds, whatever the budget.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import walkers
from .distill import MaskSpec, TargetConfig, TeacherModel, distill_loss, masked_input, span_mask
from .errors import BudgetInfeasibleError, ConfigurationError
from .rng import Rng, STREAM_EVAL_MASK, STREAM_SEARCH
from .spaces import SearchSpace, SubnetConfig, max_subnet, min_subnet, sample_subnet, validate_config
from .supernet import (SupernetModel, attention_half, block_norm, block_params, count_params, ffn_half,
                       head_forward, positional_stage)

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


class _ScoredStack(NamedTuple):
    """The held-out batches of one sequence length, scored as one row stack."""

    batches: list[int]  # in batch order
    targets: ad.Tensor  # their teacher targets, stacked as rows
    mask: ad.LossMask  # their masks


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
    frontend, teacher targets and masks run once per batch; the
    masked_input stem and positional stage once per embed dim on the
    batches of one sequence length stacked as rows; and the blocks over a
    trie keyed in two levels per layer, heads[l] then ffn_ratio[l], walked
    depth first over that stack. A block's attention half depends only on
    its input and heads, so at a node with children ln1 runs once, each
    heads child runs one attention_half and one ln2, and each ratio
    grandchild one ffn_half. Where a config's depth ends, the head runs
    once on the stack and distill_loss once, scoring every batch of the
    stack in one fused op against the stack's targets and LossMask, which
    are built once per call.

    Before any walker starts, the caller computes the layer 0 of every
    (embed dim, sequence length) root: its stem, ln1 and, for each heads
    child, the attention half and its ln2, all held at once (about 1-2 MB
    at desk dims). The subtrees below the roots' layer-0 (heads, ratio)
    children are independent. They are the tasks of walkers.run_walkers,
    run by walkers.walker_count() walkers with tape recording off: the
    caller and the children it forks (BENCH_process_walkers.json), which
    read the layer-0 halves from their fork image. A task runs its
    ffn_half and walks its subtree, so every trie node's work runs once
    per search, whatever the walker count. Each task returns the per-batch
    losses of the configs it scored, and every node runs the same ops on
    the same inputs whichever walker takes it, so the result is the same
    for any walker count. Besides the layer-0 halves, each walker holds
    only its root-to-node path: per layer the block input, its ln1, one
    attention half and its ln2, so at most about 4 * max_depth stacked
    arrays.
    """
    tries: dict[int, tuple[SubnetConfig, _PrefixNode]] = {}
    for i, config in enumerate(configs):
        validate_config(model.space, config)
        node = tries.setdefault(config.embed_dim, (config, _PrefixNode()))[1]
        for heads, ratio in zip(config.heads, config.ffn_ratio):
            node = node.children.setdefault(heads, {}).setdefault(ratio, _PrefixNode())
        node.ends.append(i)

    batches = _heldout_batches(model.frontend, val_sequences, teacher, target_cfg, eval_batches)
    groups: dict[int, list[int]] = {}  # frame count -> the batches of that length, in order
    for b, (feats, _) in enumerate(batches):
        groups.setdefault(feats.shape[0], []).append(b)
    # Each candidate alone draws its masks from a fresh stream, in batch order.
    mask_rng = Rng(eval_seed, STREAM_EVAL_MASK)
    masks = [span_mask(feats.shape[0], mask_spec, mask_rng) for feats, _ in batches]
    stacks = [_ScoredStack(group, ad.Tensor(np.concatenate([batches[b][1].data for b in group])),
                           ad.LossMask([masks[b] for b in group], t))
              for t, group in groups.items()]
    roots = [(e, first, root, stack) for e, (first, root) in tries.items() for stack in stacks]
    halves = {}  # (root index, layer-0 heads) -> (that attention half, its ln2)

    def subtree(r, heads, ratio):
        """The scores below root r's layer-0 child (heads, ratio)."""
        e, _, root, stack = roots[r]
        scored = []
        if not walkers.stopped():
            h = ffn_half(model, 0, *halves[r, heads], e, ratio, stack.mask.seqs)
            _walk(model, l1_reduction, root.children[heads][ratio], e, 1, h, stack, scored)
        return scored

    # depths are positive, so no config ends at a root
    tasks = [functools.partial(subtree, r, heads, ratio) for r, (_, _, root, _) in enumerate(roots)
             for heads, by_ratio in root.children.items() for ratio in by_ratio]
    with ad.no_grad():  # the forked walkers start in this context too
        for r, (e, first, root, stack) in enumerate(roots):
            seqs = stack.mask.seqs
            h = masked_input(model, first, [batches[b][0] for b in stack.batches], [masks[b] for b in stack.batches])
            h = positional_stage(model, e, h, seqs)
            hn = block_norm(model, 0, "ln1", h, seqs)
            for heads in root.children:
                a = attention_half(model, 0, h, hn, e, heads, seqs)
                halves[r, heads] = (a, block_norm(model, 0, "ln2", a, seqs))
        results = walkers.run_walkers(tasks, walkers.walker_count())
    per_batch = np.zeros((len(configs), len(batches)))
    for ends, rows, losses in itertools.chain.from_iterable(results):
        per_batch[np.ix_(ends, rows)] = losses
    return per_batch.mean(axis=1).tolist()


def _walk(model, l1_reduction, node, e, depth, h, stack, scored):
    """Append (config indices, batch indices, their losses) to scored for every config at or below node,
    h being the stack's input to block `depth`. Not a closure of evaluate_subnets: a recursive closure
    holds itself, and so the model, in a reference cycle until the next full garbage collection."""
    seqs = stack.mask.seqs
    if node.ends:
        head_out = head_forward(model, e, h, seqs)[1]
        losses = distill_loss(head_out, stack.targets, stack.mask, reduction=l1_reduction)
        scored.append((node.ends, stack.batches, losses.data))
    if node.children:
        hn = block_norm(model, depth, "ln1", h, seqs)
    for heads, by_ratio in node.children.items():
        a = attention_half(model, depth, h, hn, e, heads, seqs)
        an = block_norm(model, depth, "ln2", a, seqs)
        for ratio, child in by_ratio.items():
            if walkers.stopped():
                return
            h_next = ffn_half(model, depth, a, an, e, ratio, seqs)
            _walk(model, l1_reduction, child, e, depth + 1, h_next, stack, scored)


def _heldout_batches(frontend, val_sequences, teacher, target_cfg, eval_batches):
    """(features, teacher targets) per eval batch, cycling through the sequences."""
    if len(val_sequences) == 0:
        raise ConfigurationError("validation data is empty")
    if eval_batches < 1:
        raise ConfigurationError(f"eval_batches must be >= 1, got {eval_batches}")
    feats = [frontend.forward(val_sequences[b % len(val_sequences)]) for b in range(eval_batches)]
    return list(zip(feats, teacher.batch_targets(feats, target_cfg, len(feats))))


def _param_prices(space: SearchSpace, budget: SearchBudget):
    """subnet_params(space, ., budget) from one table: per embed dim the parameters
    outside the blocks, plus block_params per layer's (embed dim, heads, ratio)."""
    outside, block = {}, {}
    for e in space.embed_dims:
        pc = count_params(space, dataclasses.replace(min_subnet(space), embed_dim=e),
                          includes_frontend=budget.includes_frontend, includes_head=budget.includes_head)
        outside[e] = pc.total - pc.by_component["blocks"]
        for h in space.head_choices:
            for r in space.ffn_ratios:
                block[e, h, r] = block_params(space, e, h, r)

    def price(config: SubnetConfig) -> int:
        e = config.embed_dim
        return outside[e] + sum(block[e, h, r] for h, r in zip(config.heads, config.ffn_ratio))

    return price


def sample_candidates(space: SearchSpace, budget: SearchBudget):
    """Rejection-sample n_candidates budget-satisfying configs.

    Returns (configs, their subnet_params, acceptance_rate). The raw sampler
    is untouched so accepted candidates keep the training-time
    per-dimension uniform distribution, just truncated by the budget. Each
    draw is priced from a table built once per call.
    """
    floor = subnet_params(space, min_subnet(space), budget)
    if budget.max_params < floor:
        raise ConfigurationError(
            f"budget {budget.max_params} is below the minimal subnet size {floor}"
        )
    price = _param_prices(space, budget)
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
        n = price(config)
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
    pass, on walkers.walker_count() walkers (BENCH_process_walkers.json).
    `workers` is ignored and changes no result; it stays only until the
    benchmark, which passes it, drops it.
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
