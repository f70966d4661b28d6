"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets are asserted with the stated wall-clock limits; the heavy
criteria (two-stage trend, 1000-candidate searches) run well inside them
on a laptop-class CPU.
"""

import time

import numpy as np
import pytest

from ofat import autodiff as ad
from ofat.autodiff import Tensor, finite_diff_check
from ofat.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from ofat.data import load_dataset, make_synthetic_dataset, save_dataset
from ofat.distill import MaskSpec, TargetConfig, distill_loss, span_mask
from ofat.rng import Rng, STREAM_SEARCH
from ofat.search import SearchBudget, random_search, subnet_params
from ofat.spaces import (
    all_subnets,
    base_space,
    count_subnets,
    desk_space,
    max_subnet,
    mid_subnet,
    min_subnet,
    named_subnet,
    sample_subnet,
    small_space,
)
from ofat.supernet import build_supernet, count_params, extract_subnet, forward, reference_forward
from ofat.train import TeacherArch, TrainConfig, make_teacher, stage1_train, stage2_train

MASK = MaskSpec()  # p=0.65, span 10
TGT = TargetConfig(k=8)


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_setup():
    """The documented desk-scale setup shared by criteria 3, 6, 7."""
    space = desk_space()
    teacher = make_teacher(seed=7777, arch=TeacherArch(), frontend_spec=space.frontend)
    train_data = make_synthetic_dataset(seed=101, n_sequences=48, length=512)
    val_data = make_synthetic_dataset(seed=102, n_sequences=16, length=512)
    return space, teacher, train_data, val_data


def test_criterion_1_subnet_counting():
    t0 = time.perf_counter()
    small = count_subnets(small_space())
    base = count_subnets(base_space())
    toy_ok = True
    for dims in [((8, 16), (1, 2), (2.0, 3.0), (1, 2)),
                 ((8,), (1, 2, 3), (2.0, 2.5, 3.0), (2,)),
                 ((8, 16, 24), (1, 2), (2.0,), (1, 3))]:
        toy = desk_space(embed_dims=dims[0], head_choices=dims[1], ffn_ratios=dims[2],
                         depths=dims[3], head_dim=4)
        n_enum = sum(1 for _ in all_subnets(toy))
        toy_ok = toy_ok and n_enum <= 10_000 and count_subnets(toy) == n_enum
    elapsed = time.perf_counter() - t0
    ok = (small == 951_892_141_473 and base == 6_530_347_008 and toy_ok and elapsed < 1.0)
    _report(1, "subnet counting", ok,
            f"small={small} base={base} brute-force toys ok={toy_ok} in {elapsed:.3f}s")


def test_criterion_2_parameter_counting():
    t0 = time.perf_counter()
    b, s = base_space(), small_space()
    largest = count_params(b, max_subnet(b)).total
    a_base = count_params(b, named_subnet(b, "a_base")).total
    a_small = count_params(s, named_subnet(s, "a_small")).total
    small_min = count_params(s, min_subnet(s)).total
    reference_ok = (
        abs(largest - 95e6) / 95e6 < 0.03
        and abs(a_base - 68e6) / 68e6 < 0.03
        and abs(a_small - 27e6) / 27e6 < 0.03
        and abs(small_min - 11e6) / 11e6 < 0.10
    )
    space = desk_space()
    model = build_supernet(space, Rng(1, 1))
    rng = Rng(2, 4)
    exact_ok = True
    for _ in range(100):
        cfg = sample_subnet(space, rng)
        enc = extract_subnet(model, cfg)
        pc = count_params(space, cfg, includes_frontend=False, includes_head=True)
        exact_ok = exact_ok and (sum(t.size for t in enc.params.values()) == pc.total)
    elapsed = time.perf_counter() - t0
    ok = reference_ok and exact_ok and elapsed < 1.0
    _report(2, "parameter counting", ok,
            f"largest={largest/1e6:.2f}M a_base={a_base/1e6:.2f}M a_small={a_small/1e6:.2f}M "
            f"min={small_min/1e6:.2f}M extract-exact={exact_ok} in {elapsed:.3f}s")


def test_criterion_3_weight_sharing_soundness(desk_setup):
    space, _, _, _ = desk_setup
    t0 = time.perf_counter()
    model = build_supernet(space, Rng(3, 1))
    rng = Rng(4, 4)
    x = (Rng(5, 2).uniform((16, space.frontend_dim)) * 2 - 1).astype(np.float32)
    worst = 0.0
    for _ in range(100):
        cfg = sample_subnet(space, rng)
        _, _, sup = forward(model, cfg, x)
        _, _, ext = reference_forward(extract_subnet(model, cfg), cfg, x)
        worst = max(worst, float(np.abs(sup.data - ext.data).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    _report(3, "weight-sharing soundness", ok,
            f"100 configs, max |supernet - extracted| = {worst:.2e} in {elapsed:.1f}s")


def _pipeline_gradcheck(dtype, h=None):
    """Composed subnet-loss gradcheck wrt a deep block weight and the input.

    The float64 run uses a larger probe step (2^-14) than the per-op
    default: a ~80-op composition carries rounding noise ~1e-14 in the
    probes, and the central difference divides it by 2h, so the optimum
    step for this depth sits well above the op-level 2^-20.
    """
    space = desk_space(embed_dims=(8,), head_choices=(2,), ffn_ratios=(2.0,),
                       depths=(2,), head_dim=4, conv_groups=4, conv_kernel=3,
                       frontend_dim=8, teacher_dim=8)
    model = build_supernet(space, Rng(6, 1))
    cfg = max_subnet(space)
    feats = (Rng(7, 2).uniform((6, 8)) * 2 - 1).astype(dtype)
    targets = Tensor(Rng(8, 2).normal((6, 8)).astype(dtype) * 2.0)
    masked = np.array([1, 3, 4])

    def loss_from_weight(w):
        saved = model.params["blocks.0.wq"]
        model.params["blocks.0.wq"] = w
        try:
            _, _, head_out = forward(model, cfg, feats)
            return distill_loss(head_out, targets, masked)
        finally:
            model.params["blocks.0.wq"] = saved

    def loss_from_input(x):
        _, _, head_out = forward(model, cfg, x)
        return distill_loss(head_out, targets, masked)

    w_err = finite_diff_check(loss_from_weight, model.params["blocks.0.wq"], h=h)
    x_err = finite_diff_check(loss_from_input, Tensor(feats, requires_grad=True), h=h)
    return max(w_err, x_err)


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    from test_autodiff import _sweep

    ops = ["matmul", "layer_norm", "gelu", "softmax", "grouped_conv1d", "slice_prefix",
           "add", "mul", "abs", "mask_rows"]
    for op in ops:
        _sweep(op, np.float32, 1e-3)
    with ad.precision(np.float64):
        for op in ops:
            _sweep(op, np.float64, 1e-6)
    pipe32 = _pipeline_gradcheck(np.float32)
    with ad.precision(np.float64):
        pipe64 = _pipeline_gradcheck(np.float64, h=2.0**-14)
    elapsed = time.perf_counter() - t0
    ok = pipe32 < 1e-3 and pipe64 < 1e-6 and elapsed < 120.0
    _report(4, "gradient correctness", ok,
            f"10 ops x 20 trials at f32<1e-3 and f64<1e-6; "
            f"pipeline f32={pipe32:.2e} f64={pipe64:.2e} in {elapsed:.1f}s")


def test_criterion_5_objective_semantics():
    t0 = time.perf_counter()
    rng = Rng(9, 2)
    targets = Tensor(rng.normal((40, 8)).astype(np.float32))
    masked = np.array([3, 11, 29])
    zero_ok = distill_loss(Tensor(targets.data.copy()), targets, masked).item() == 0.0
    off = Tensor(targets.data + 0.25, requires_grad=True)
    loss = distill_loss(off, targets, masked)
    nonzero_ok = loss.item() > 0.0
    loss.backward()
    unmasked = np.setdiff1d(np.arange(40), masked)
    grad_ok = bool(np.all(off.grad[unmasked] == 0.0)) and bool(np.any(off.grad[masked] != 0.0))

    fractions = [span_mask(1000, MASK, Rng(seed, 3)).size / 1000.0 for seed in range(100)]
    frac = float(np.mean(fractions))
    frac_ok = abs(frac - 0.65) < 0.03
    elapsed = time.perf_counter() - t0
    ok = zero_ok and nonzero_ok and grad_ok and frac_ok and elapsed < 10.0
    _report(5, "objective semantics", ok,
            f"zero-iff-equal={zero_ok} unmasked-grad-zero={grad_ok} "
            f"masked fraction={frac:.3f} in {elapsed:.1f}s")


def test_criterion_6_two_stage_trend(desk_setup):
    space, teacher, train_data, val_data = desk_setup
    from ofat.search import evaluate_subnet

    t0 = time.perf_counter()
    probe = mid_subnet(space)
    steps1, steps2, lr = 300, 120, 2e-3

    def ev(model):
        return evaluate_subnet(model, probe, val_data.sequences, teacher, MASK, TGT,
                               eval_seed=900, eval_batches=8)

    wins_vs_random = wins_vs_stage1 = 0
    rows = []
    for seed in range(4):
        c1 = TrainConfig(stage=1, steps=steps1, batch_size=4, learning_rate=lr,
                         warmup_steps=steps1 // 10, seed=seed)
        _, m_stage1, _ = stage1_train(c1, space, teacher, train_data, MASK, TGT)
        c2 = TrainConfig(stage=2, steps=steps2, batch_size=4, learning_rate=lr,
                         warmup_steps=steps2 // 10, seed=seed,
                         ofa_init="stage1_weights", init_checkpoint="-")
        _, m_full, _ = stage2_train(c2, space, teacher, train_data, MASK, TGT,
                                    init_model=m_stage1)
        c2r = TrainConfig(stage=2, steps=steps2, batch_size=4, learning_rate=lr,
                          warmup_steps=steps2 // 10, seed=seed, ofa_init="random")
        _, m_rand, _ = stage2_train(c2r, space, teacher, train_data, MASK, TGT)
        l_full, l_rand, l_s1 = ev(m_full), ev(m_rand), ev(m_stage1)
        wins_vs_random += l_full < l_rand
        wins_vs_stage1 += l_full < l_s1
        rows.append(f"seed{seed}: full={l_full:.4f} rand={l_rand:.4f} stage1={l_s1:.4f}")
    elapsed = time.perf_counter() - t0
    ok = wins_vs_random >= 3 and wins_vs_stage1 >= 3 and elapsed < 1800.0
    _report(6, "two-stage trend", ok,
            f"full<stage2-from-random {wins_vs_random}/4, full<stage1-only "
            f"{wins_vs_stage1}/4 in {elapsed:.0f}s; " + "; ".join(rows))


def test_criterion_7_search_contract(desk_setup):
    space, teacher, train_data, val_data = desk_setup
    t0 = time.perf_counter()
    # A briefly trained supernet: search scores must reflect trained weights.
    c2 = TrainConfig(stage=2, steps=80, batch_size=4, learning_rate=2e-3,
                     warmup_steps=8, seed=5, ofa_init="random")
    _, model, _ = stage2_train(c2, space, teacher, train_data, MASK, TGT)

    cap = subnet_params(space, max_subnet(space), SearchBudget(max_params=1, n_candidates=1))
    budget_cap = int(cap * 0.75)

    main_budget = SearchBudget(max_params=budget_cap, n_candidates=1000, eval_batches=2, seed=0)
    r1 = random_search(model, space, main_budget, val_data.sequences, teacher, MASK, TGT)
    r2 = random_search(model, space, main_budget, val_data.sequences, teacher, MASK, TGT)
    complete_ok = len(r1.entries) == 1000
    budget_ok = all(e.params <= budget_cap for e in r1.entries)
    repro_ok = [(e.config, e.loss, e.index) for e in r1.entries] == \
               [(e.config, e.loss, e.index) for e in r2.entries]
    bounds_ok = (np.isfinite(r1.bound_min.loss) and np.isfinite(r1.bound_max.loss)
                 and r1.bound_max.params > budget_cap)  # evaluated despite the budget

    paired_wins = 0
    from ofat.search import evaluate_subnet

    for seed in range(10):
        budget = SearchBudget(max_params=budget_cap, n_candidates=1000, eval_batches=2, seed=seed)
        result = random_search(model, space, budget, val_data.sequences, teacher, MASK, TGT)
        lone_rng = Rng(10_000 + seed, STREAM_SEARCH)
        while True:
            lone = sample_subnet(space, lone_rng)
            if subnet_params(space, lone, budget) <= budget_cap:
                break
        lone_loss = evaluate_subnet(model, lone, val_data.sequences, teacher, MASK, TGT,
                                    eval_seed=budget.seed, eval_batches=2)
        paired_wins += result.best.loss <= lone_loss
    elapsed = time.perf_counter() - t0
    ok = (complete_ok and budget_ok and repro_ok and bounds_ok
          and paired_wins == 10 and elapsed < 600.0)
    _report(7, "search contract", ok,
            f"1000 candidates complete={complete_ok} budget={budget_ok} repro={repro_ok} "
            f"bounds={bounds_ok} best-beats-single {paired_wins}/10 in {elapsed:.0f}s")


def test_criterion_8_persistence(tmp_path, desk_setup):
    space, teacher, train_data, _ = desk_setup
    t0 = time.perf_counter()
    model = build_supernet(space, Rng(12, 1))
    cfg = mid_subnet(space)
    x = (Rng(13, 2).uniform((10, space.frontend_dim)) * 2 - 1).astype(np.float32)
    _, _, before = forward(model, cfg, x)

    p1, p2 = tmp_path / "m1.ofat", tmp_path / "m2.ofat"
    save_model(p1, model, {"seed": 12})
    save_checkpoint(p2, *load_checkpoint(p1))
    ckpt_bytes_ok = p1.read_bytes() == p2.read_bytes()

    restored = load_model(p1, "supernet")[0]
    _, _, after = forward(restored, cfg, x)
    forward_ok = bool(np.array_equal(before.data, after.data))

    d1, d2 = tmp_path / "d1.ofad", tmp_path / "d2.ofad"
    save_dataset(d1, train_data)
    save_dataset(d2, load_dataset(d1))
    data_bytes_ok = d1.read_bytes() == d2.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = ckpt_bytes_ok and forward_ok and data_bytes_ok
    _report(8, "persistence", ok,
            f"checkpoint bytes={ckpt_bytes_ok} dataset bytes={data_bytes_ok} "
            f"load-then-forward exact={forward_ok} in {elapsed:.1f}s")
