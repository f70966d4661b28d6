"""Budgeted random search: determinism, budget enforcement, reporting."""

from collections import Counter

import numpy as np
import pytest

from ofat import autodiff as ad
from ofat import search
from ofat.data import SyntheticDataset, make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig, compute_targets, distill_loss, span_mask
from ofat.errors import BudgetInfeasibleError, ConfigurationError
from ofat.rng import Rng, STREAM_EVAL_MASK, STREAM_SEARCH
from ofat.search import (
    SearchBudget,
    evaluate_subnet,
    evaluate_subnets,
    parse_scatter,
    random_search,
    report_scatter,
    sample_candidates,
    subnet_params,
    summarize,
)
from ofat.spaces import desk_space, max_subnet, mid_subnet, min_subnet, sample_subnet
from ofat.supernet import build_supernet, extract_subnet
from ofat.train import TeacherArch, make_teacher

from conftest import student_forward_masked

MASK = MaskSpec(p=0.5, span_length=3)
TGT = TargetConfig(k=2)
TEACHER_ARCH = TeacherArch(dim=16, depth=3, heads=4, ffn_ratio=2.0, head_dim=4,
                           conv_groups=4, conv_kernel=3)


@pytest.fixture(scope="module")
def setup():
    space = desk_space(
        embed_dims=(8, 12, 16),
        head_choices=(1, 2),
        ffn_ratios=(2.0, 3.0),
        depths=(1, 2),
        head_dim=4,
        conv_groups=4,
        conv_kernel=3,
        frontend_dim=8,
        teacher_dim=16,
    )
    model = build_supernet(space, Rng(40, 1))
    teacher = make_teacher(seed=41, arch=TEACHER_ARCH, frontend_spec=space.frontend)
    val = make_synthetic_dataset(seed=42, n_sequences=5, length=64)
    return space, model, teacher, val


def max_params_of(space, budget_like=None):
    b = SearchBudget(max_params=1, n_candidates=1)
    return subnet_params(space, max_subnet(space), b)


# -- evaluate_subnet -----------------------------------------------------------


def test_evaluate_deterministic_bitwise(setup):
    space, model, teacher, val = setup
    cfg = sample_subnet(space, Rng(1, 4))
    a = evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT, eval_seed=7, eval_batches=3)
    b = evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT, eval_seed=7, eval_batches=3)
    assert a == b


def test_evaluate_supernet_vs_extracted(setup):
    space, model, teacher, val = setup
    cfg = sample_subnet(space, Rng(2, 4))
    via_supernet = evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT,
                                   eval_seed=8, eval_batches=4)
    enc = extract_subnet(model, cfg)
    via_static = evaluate_subnet(enc, cfg, val.sequences, teacher, MASK, TGT,
                                 eval_seed=8, eval_batches=4)
    assert abs(via_supernet - via_static) < 1e-6


def test_evaluate_cycles_when_batches_exceed_data(setup):
    space, model, teacher, val = setup
    cfg = sample_subnet(space, Rng(21, 4))
    loss = evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT,
                           eval_seed=3, eval_batches=len(val.sequences) + 3)
    assert np.isfinite(loss)
    again = evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT,
                            eval_seed=3, eval_batches=len(val.sequences) + 3)
    assert loss == again


def test_shared_teacher_scores_a_second_val_set_like_a_fresh_teacher(setup):
    """Targets cached under ("val", idx) for one held-out set must not be
    served for another set that reuses the same keys."""
    space, model, _, val_a = setup
    val_b = make_synthetic_dataset(seed=43, n_sequences=5, length=64)
    shared = make_teacher(seed=41, arch=TEACHER_ARCH, frontend_spec=space.frontend)
    fresh = make_teacher(seed=41, arch=TEACHER_ARCH, frontend_spec=space.frontend)
    cfg = mid_subnet(space)
    evaluate_subnet(model, cfg, val_a.sequences, shared, MASK, TGT, eval_seed=4)
    on_b_after_a = evaluate_subnet(model, cfg, val_b.sequences, shared, MASK, TGT, eval_seed=4)
    on_b = evaluate_subnet(model, cfg, val_b.sequences, fresh, MASK, TGT, eval_seed=4)
    assert on_b_after_a == on_b


def test_evaluate_no_weight_updates(setup):
    space, model, teacher, val = setup
    before = {n: p.data.copy() for n, p in model.params.items()}
    evaluate_subnet(model, min_subnet(space), val.sequences, teacher, MASK, TGT)
    for n, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[n])


def test_teacher_as_student_beats_random_subnets(setup):
    """An oracle student built from the teacher's own top layer scores far
    below any untrained random subnet: its only error is the irreducible
    normalization/averaging gap of the target construction."""
    space, model, teacher, val = setup
    mask_rng = Rng(9, STREAM_EVAL_MASK)

    oracle_losses, random_losses = [], []
    for seq in val.sequences[:3]:
        feats = teacher.frontend.forward(seq)
        hidden = teacher.hidden_layers(feats)
        targets = compute_targets(hidden, TGT)
        mask_indices = span_mask(feats.shape[0], MASK, mask_rng)
        oracle_out = hidden[-1]
        oracle_losses.append(distill_loss(oracle_out, targets, mask_indices).item())
    rng = Rng(10, 4)
    for _ in range(5):
        cfg = sample_subnet(space, rng)
        random_losses.append(
            evaluate_subnet(model, cfg, val.sequences, teacher, MASK, TGT, eval_seed=9)
        )
    assert max(oracle_losses) < min(random_losses)


# -- candidate sampling -----------------------------------------------------------


def test_vacuous_budget_acceptance_rate_one(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=50, seed=3)
    configs, params, rate = sample_candidates(space, budget)
    assert rate == 1.0
    assert len(configs) == 50
    # reproducible multiset under the same seed
    configs2, params2, _ = sample_candidates(space, budget)
    assert configs == configs2
    assert params == params2


@pytest.mark.parametrize("includes", [(True, True), (False, False)], ids=["whole", "encoder-only"])
def test_sample_candidates_returns_each_candidates_subnet_params(setup, includes):
    space = setup[0]
    flags = dict(includes_frontend=includes[0], includes_head=includes[1])
    lo, hi = (subnet_params(space, f(space), SearchBudget(max_params=1, n_candidates=1, **flags))
              for f in (min_subnet, max_subnet))
    budget = SearchBudget(max_params=(lo + hi) // 2, n_candidates=40, seed=5, **flags)
    configs, params, rate = sample_candidates(space, budget)
    assert rate < 1.0 and len(params) == len(configs) == 40
    assert params == [subnet_params(space, c, budget) for c in configs]
    assert max(params) <= budget.max_params


def test_budget_below_min_subnet_rejected(setup):
    space, model, teacher, val = setup
    lo = subnet_params(space, min_subnet(space), SearchBudget(max_params=1, n_candidates=1))
    with pytest.raises(ConfigurationError, match="minimal"):
        sample_candidates(space, SearchBudget(max_params=lo - 1, n_candidates=5))


def test_attempt_cap_reports_acceptance_rate():
    # In the standard desk space only 1 of ~22k configs meets a budget equal
    # to the minimal subnet size, so the 100x attempt cap trips quickly.
    space = desk_space()
    lo = subnet_params(space, min_subnet(space), SearchBudget(max_params=1, n_candidates=1))
    with pytest.raises(BudgetInfeasibleError) as err:
        sample_candidates(space, SearchBudget(max_params=lo, n_candidates=10, seed=1))
    assert 0.0 <= err.value.acceptance_rate < 0.01


# -- random_search -----------------------------------------------------------------


def test_search_contract_small_run(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space) - 1, n_candidates=30,
                          eval_batches=2, seed=5)
    result = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    assert len(result.entries) == 30
    losses = [e.loss for e in result.entries]
    assert losses == sorted(losses)
    for e in result.entries:
        assert e.params <= budget.max_params
    assert result.bound_min.params == subnet_params(space, min_subnet(space), budget)
    assert result.bound_max.params == subnet_params(space, max_subnet(space), budget)
    assert result.best.loss <= np.median(losses)


def test_search_bitwise_reproducible(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=12, eval_batches=2, seed=6)
    r1 = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    r2 = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    assert [(e.config, e.loss, e.params, e.index) for e in r1.entries] == \
           [(e.config, e.loss, e.params, e.index) for e in r2.entries]
    assert (r1.bound_min.loss, r1.bound_max.loss) == (r2.bound_min.loss, r2.bound_max.loss)


def _reference_loss(model, config, val, teacher, mask_spec, eval_seed, eval_batches, reduction):
    """One candidate alone: a fresh mask stream and the full masked forward per batch."""
    mask_rng = Rng(eval_seed, STREAM_EVAL_MASK)
    losses = []
    with ad.no_grad():
        for b in range(eval_batches):
            feats = model.frontend.forward(val.sequences[b % len(val.sequences)])
            targets = teacher.targets_from_features(feats, TGT)
            _, _, head_out, (_, mask_indices) = student_forward_masked(model, config, feats, mask_spec, mask_rng)
            losses.append(distill_loss(head_out, targets, mask_indices, reduction=reduction).item())
    return float(np.mean(losses))


@pytest.mark.parametrize("mask_spec,eval_batches,reduction", [
    (MASK, 2, "mean"),
    # more batches than sequences: sequences recur with a different mask
    (MaskSpec(p=0.2, span_length=3, convention="span_start"), 7, "sum"),
])
def test_search_losses_equal_per_candidate_reference(setup, mask_spec, eval_batches, reduction):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=200,
                          eval_batches=eval_batches, seed=13)
    result = random_search(model, space, budget, val.sequences, teacher, mask_spec, TGT,
                           l1_reduction=reduction)
    assert {e.config.depth for e in result.entries} == set(space.depths)
    for e in result.entries + [result.bound_min, result.bound_max]:
        assert e.loss == _reference_loss(model, e.config, val, teacher, mask_spec, budget.seed,
                                         eval_batches, reduction)


@pytest.fixture(scope="module")
def desk_setup():
    """Desk dims: the default space and teacher, 512-sample (128-frame) sequences."""
    space = desk_space()
    model = build_supernet(space, Rng(43, 1))
    teacher = make_teacher(seed=44, arch=TeacherArch(), frontend_spec=space.frontend)
    val = make_synthetic_dataset(seed=45, n_sequences=4, length=512)
    return space, model, teacher, val


@pytest.mark.parametrize("eval_batches", [1, 4])
def test_search_losses_equal_per_candidate_reference_at_desk_dims(desk_setup, eval_batches):
    space, model, teacher, val = desk_setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=30,
                          eval_batches=eval_batches, seed=14)
    result = random_search(model, space, budget, val.sequences, teacher, MaskSpec(), TGT)
    for e in result.entries + [result.bound_min, result.bound_max]:
        assert e.loss == _reference_loss(model, e.config, val, teacher, MaskSpec(), budget.seed,
                                         eval_batches, "mean")


def _two_length_val():
    """Held-out sequences of 64 and 96 samples (16 and 24 frames), interleaved."""
    short = make_synthetic_dataset(seed=46, n_sequences=3, length=64).sequences
    long = make_synthetic_dataset(seed=47, n_sequences=2, length=96).sequences
    return SyntheticDataset([short[0], long[0], short[1], long[1], short[2]])


def test_search_losses_equal_per_candidate_reference_on_two_sequence_lengths(setup):
    space, model, teacher, _ = setup
    val = _two_length_val()
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=60, eval_batches=7, seed=15)
    result = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    for e in result.entries + [result.bound_min, result.bound_max]:
        assert e.loss == _reference_loss(model, e.config, val, teacher, MASK, budget.seed, 7, "mean")


@pytest.mark.parametrize("eval_batches,two_lengths", [(1, False), (4, False), (1, True), (7, True)])
def test_block_forward_runs_once_per_trie_node_per_sequence_length(setup, monkeypatch, eval_batches,
                                                                    two_lengths):
    space, model, teacher, val = setup
    if two_lengths:
        val = _two_length_val()
    calls = Counter()
    for name in ("block_norm", "attention_half", "ffn_half", "head_forward"):
        def counted(*args, _real=getattr(search, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(search, name, counted)
    rng = Rng(16, 4)
    configs = [sample_subnet(space, rng) for _ in range(40)]
    evaluate_subnets(model, configs, val.sequences, teacher, MASK, TGT, eval_batches=eval_batches)

    paths = [(c.embed_dim, tuple(zip(c.heads, c.ffn_ratio))) for c in configs]
    nodes = {(e, path[:l + 1]) for e, path in paths for l in range(len(path))}
    parents = {(e, path[:l]) for e, path in paths for l in range(len(path))}
    attention_keys = {(e, path[:l], path[l][0]) for e, path in paths for l in range(len(path))}
    lengths = {len(val.sequences[b % len(val.sequences)]) for b in range(eval_batches)}
    assert len(lengths) == (2 if two_lengths and eval_batches > 1 else 1)
    assert len(attention_keys) < len(nodes)
    assert calls["attention_half"] == len(attention_keys) * len(lengths)
    assert calls["ffn_half"] == len(nodes) * len(lengths)
    assert calls["block_norm"] == (len(parents) + len(attention_keys)) * len(lengths)  # ln1 + ln2
    assert calls["head_forward"] == len(set(paths)) * len(lengths)


def test_search_workers_match_serial(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=10, eval_batches=2, seed=7)
    serial = random_search(model, space, budget, val.sequences, teacher, MASK, TGT, workers=1)
    threaded = random_search(model, space, budget, val.sequences, teacher, MASK, TGT, workers=4)
    assert [(e.config, e.loss) for e in serial.entries] == \
           [(e.config, e.loss) for e in threaded.entries]


def test_bounds_always_evaluated_even_when_over_budget(setup):
    space, model, teacher, val = setup
    lo = subnet_params(space, min_subnet(space), SearchBudget(max_params=1, n_candidates=1))
    budget = SearchBudget(max_params=lo, n_candidates=3, eval_batches=2, seed=8)
    result = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    # max subnet exceeds the budget but its bound entry exists regardless
    assert result.bound_max.params > budget.max_params
    assert np.isfinite(result.bound_max.loss) and np.isfinite(result.bound_min.loss)
    for e in result.entries:
        assert e.params <= budget.max_params


def test_monotone_budget_property(setup):
    """On a shared candidate stream, a larger budget's accepted superset can
    only improve (never worsen) the best loss over the shared prefix."""
    space, model, teacher, val = setup
    b_small = max_params_of(space) // 2
    b_large = max_params_of(space)
    rng = Rng(99, STREAM_SEARCH)
    shared = [sample_subnet(space, rng) for _ in range(60)]
    probe = SearchBudget(max_params=1, n_candidates=1)

    def best_loss(budget_cap):
        accepted = [c for c in shared if subnet_params(space, c, probe) <= budget_cap]
        losses = [
            evaluate_subnet(model, c, val.sequences, teacher, MASK, TGT, eval_seed=99,
                            eval_batches=2)
            for c in accepted
        ]
        return min(losses)

    assert best_loss(b_large) <= best_loss(b_small)


# -- reporting ---------------------------------------------------------------------


def test_scatter_row_count_and_reparse(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=9, eval_batches=2, seed=11)
    result = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    csv_text = report_scatter(result, header_lines=("seed=11",))
    rows = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 9 + 2  # header + candidates + bounds
    candidates, bounds = parse_scatter(csv_text)
    # ranked order survives the round trip: int fields exactly, losses sorted
    assert [(c[0], c[2], c[3]) for c in candidates] == \
           [(e.params, e.config.embed_dim, e.config.depth) for e in result.entries]
    parsed_losses = [c[1] for c in candidates]
    assert parsed_losses == sorted(parsed_losses)
    np.testing.assert_allclose(parsed_losses, [e.loss for e in result.entries], rtol=1e-7)
    assert {b[4] for b in bounds} == {"min", "max"}


def test_summary_contents(setup):
    space, model, teacher, val = setup
    budget = SearchBudget(max_params=max_params_of(space), n_candidates=5, eval_batches=2, seed=12)
    result = random_search(model, space, budget, val.sequences, teacher, MASK, TGT)
    summary = summarize(result)
    assert summary["budget"]["max_params"] == budget.max_params
    assert summary["budget"]["seed"] == 12
    assert summary["best"]["loss"] == result.best.loss
    assert set(summary["bounds"]) == {"min", "max"}
