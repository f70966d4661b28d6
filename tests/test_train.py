"""Optimizer semantics, schedules, and the two training stages."""

import dataclasses
import hashlib
import itertools
import os
import time

import numpy as np
import pytest

from ofat.autodiff import Tensor
from ofat.checkpoint import save_model
from ofat.data import make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig
from ofat.errors import ConfigurationError
from ofat.frontend import FrontendLayer
from ofat.rng import Rng, STREAM_ARCH, STREAM_WEIGHTS
from ofat.search import evaluate_subnet
from ofat.spaces import desk_space, max_subnet, sample_subnet
from ofat.supernet import build_supernet, touched_boxes
from ofat.train import (
    Adam,
    TeacherArch,
    TrainConfig,
    check_teacher_compat,
    grad_norm,
    lr_at,
    make_teacher,
    stage1_train,
    stage2_train,
    teacher_self_regression_loss,
)

from conftest import (append_record, assert_no_child_left, mode_row, read_records, reference_distill_loss,
                      student_forward_masked, textbook_adam_step, textbook_grad_norm)

MASK = MaskSpec(p=0.5, span_length=3)
TGT = TargetConfig(k=2)


SMALL_TEACHER = TeacherArch(dim=16, depth=3, heads=4, ffn_ratio=2.0, head_dim=4,
                            conv_groups=4, conv_kernel=3)


def small_setup():
    """A complete, fast training setup shared by the stage tests."""
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
    teacher = make_teacher(seed=99, arch=SMALL_TEACHER, frontend_spec=space.frontend)
    data = make_synthetic_dataset(seed=13, n_sequences=6, length=64)
    val = make_synthetic_dataset(seed=14, n_sequences=4, length=64)
    return space, teacher, data, val


# -- Adam ------------------------------------------------------------------------


def test_adam_zero_grad_changes_nothing_without_decay():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = Adam({"p": p}, weight_decay=0.0)
    before = p.data.copy()
    opt.step(0.1, {"p": (slice(None),)})
    np.testing.assert_array_equal(p.data, before)


def test_adam_zero_grad_applies_only_weight_decay():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    p.grad = np.zeros(2, dtype=np.float32)
    opt = Adam({"p": p}, weight_decay=0.5)
    opt.step(0.1, {"p": (slice(None),)})
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5 * 1.0, -2.0 + 0.1 * 0.5 * 2.0], rtol=1e-6)


def test_adam_first_step_hand_computed():
    # g=1 with bias correction: m_hat = v_hat = 1, so the step is ~lr.
    p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    opt = Adam({"p": p}, betas=(0.9, 0.98), eps=1e-6)
    opt.step(0.1, {"p": (slice(None),)})
    assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-5)


def test_adam_updates_only_given_boxes():
    p = Tensor(np.zeros((4, 4), dtype=np.float32), requires_grad=True)
    p.grad = np.ones((4, 4), dtype=np.float32)
    opt = Adam({"p": p})
    opt.step(0.5, {"p": (slice(0, 2), slice(0, 3))})
    assert np.all(p.data[:2, :3] != 0.0)
    assert np.all(p.data[2:, :] == 0.0)
    assert np.all(p.data[:, 3:] == 0.0)
    assert np.all(opt.m["p"][2:, :] == 0.0)


def test_lr_schedule_contract():
    cfg = TrainConfig(stage=1, steps=100, warmup_steps=10, learning_rate=3e-3)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(10, cfg) == pytest.approx(3e-3)
    assert lr_at(55, cfg) == pytest.approx(3e-3 * 45 / 90)
    assert lr_at(99, cfg) == pytest.approx(3e-3 * 1 / 90)
    flat = TrainConfig(stage=1, steps=10, warmup_steps=0, learning_rate=1e-3)
    assert lr_at(0, flat) == pytest.approx(1e-3)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(stage=3, steps=10)
    with pytest.raises(ConfigurationError):
        TrainConfig(stage=1, steps=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(stage=1, steps=5, warmup_steps=9)
    with pytest.raises(ConfigurationError):
        TrainConfig(stage=2, steps=5, ofa_init="stage1_weights")  # missing init
    TrainConfig(stage=2, steps=5, ofa_init="random")  # fine
    # An empty batch averages nothing; a beta of 1 zeroes Adam's bias correction.
    for fields, named in (({"batch_size": 0}, "batch_size"), ({"adam_betas": (1.0, 0.98)}, "adam_beta1"),
                          ({"adam_betas": (0.9, 1.0)}, "adam_beta2"), ({"adam_betas": (-0.1, 0.9)}, "adam_beta1")):
        with pytest.raises(ConfigurationError, match=named):
            TrainConfig(stage=1, steps=5, **fields)
    TrainConfig(stage=1, steps=5, batch_size=1, adam_betas=(0.0, 0.0))  # fine


# -- stage 1 ---------------------------------------------------------------------


def test_stage1_loss_decreases_on_validation():
    space, teacher, data, val = small_setup()
    cfg = TrainConfig(stage=1, steps=60, batch_size=2, learning_rate=3e-3,
                      warmup_steps=6, seed=1)
    probe = max_subnet(space)

    from ofat.supernet import build_supernet
    from ofat.rng import STREAM_WEIGHTS
    from ofat.train import _adopt_teacher_frontend

    fresh = build_supernet(space, Rng(cfg.seed, STREAM_WEIGHTS))
    _adopt_teacher_frontend(fresh, teacher)
    before = evaluate_subnet(fresh, probe, val.sequences, teacher, MASK, TGT,
                             eval_seed=5, eval_batches=3)
    _, model, log = stage1_train(cfg, space, teacher, data, MASK, TGT)
    after = evaluate_subnet(model, probe, val.sequences, teacher, MASK, TGT,
                            eval_seed=5, eval_batches=3)
    assert after < before
    assert len(log.records) == cfg.steps
    assert all(r.config == probe for r in log.records)


def test_stage1_teacher_and_frontend_bitwise_frozen():
    space, teacher, data, _ = small_setup()
    t_before = {n: p.data.copy() for n, p in teacher.encoder.params.items()}
    fe_before = [w.copy() for w in teacher.frontend.arrays.values()]
    cfg = TrainConfig(stage=1, steps=8, batch_size=2, learning_rate=3e-3, seed=2)
    _, model, _ = stage1_train(cfg, space, teacher, data, MASK, TGT)
    for n, p in teacher.encoder.params.items():
        np.testing.assert_array_equal(p.data, t_before[n])
    for w_now, w_then in zip(teacher.frontend.arrays.values(), fe_before):
        np.testing.assert_array_equal(w_now, w_then)
    # student frontend is the teacher copy and never trains
    for w_model, w_teacher in zip(model.frontend.arrays.values(), teacher.frontend.arrays.values()):
        np.testing.assert_array_equal(w_model, w_teacher)


def _arrays(model):
    """Every array save_model writes of `model`, by tensor name in file order."""
    return {**model.frontend.arrays, **{name: t.data for name, t in model.params.items()}}


def test_stage1_deterministic_checkpoints():
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=1, steps=10, batch_size=2, learning_rate=3e-3, seed=3)
    meta1, model1, log1 = stage1_train(cfg, space, teacher, data, MASK, TGT)
    _, model2, log2 = stage1_train(cfg, space, teacher, data, MASK, TGT)
    arrays2 = _arrays(model2)
    for name, arr in _arrays(model1).items():
        np.testing.assert_array_equal(arr, arrays2[name])
    assert [r.loss for r in log1.records] == [r.loss for r in log2.records]
    assert meta1["stage"] == 1


# -- stage 2 ---------------------------------------------------------------------


def test_stage2_singleton_space_equals_stage1_bitwise():
    space = desk_space(
        embed_dims=(12,), head_choices=(2,), ffn_ratios=(2.0,), depths=(2,),
        head_dim=4, conv_groups=4, conv_kernel=3, frontend_dim=8, teacher_dim=16,
    )
    arch = TeacherArch(dim=16, depth=3, heads=4, ffn_ratio=2.0, head_dim=4,
                       conv_groups=4, conv_kernel=3)
    teacher = make_teacher(seed=98, arch=arch, frontend_spec=space.frontend)
    data = make_synthetic_dataset(seed=15, n_sequences=4, length=64)
    c1 = TrainConfig(stage=1, steps=12, batch_size=2, learning_rate=3e-3, seed=4)
    c2 = TrainConfig(stage=2, steps=12, batch_size=2, learning_rate=3e-3, seed=4,
                     ofa_init="random")
    _, model1, _ = stage1_train(c1, space, teacher, data, MASK, TGT)
    _, model2, _ = stage2_train(c2, space, teacher, data, MASK, TGT)
    arrays2 = _arrays(model2)
    for name, arr in _arrays(model1).items():
        np.testing.assert_array_equal(arr, arrays2[name])


def test_stage2_sampled_config_log_replays_arch_stream():
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=2, steps=25, batch_size=1, learning_rate=1e-3, seed=6,
                      ofa_init="random")
    _, _, log = stage2_train(cfg, space, teacher, data, MASK, TGT)
    replay_rng = Rng(cfg.seed, STREAM_ARCH)
    expected = [sample_subnet(space, replay_rng) for _ in range(cfg.steps)]
    assert [r.config for r in log.records] == expected
    # The stream itself replays exactly at the 1000-step scale.
    a = Rng(cfg.seed, STREAM_ARCH)
    b = Rng(cfg.seed, STREAM_ARCH)
    assert [sample_subnet(space, a) for _ in range(1000)] == \
           [sample_subnet(space, b) for _ in range(1000)]


def test_stage2_requires_init_checkpoint_for_stage1_weights():
    with pytest.raises(ConfigurationError, match="init"):
        TrainConfig(stage=2, steps=5, ofa_init="stage1_weights")


def test_stage2_from_stage1_checkpoint_runs(tmp_path):
    space, teacher, data, _ = small_setup()
    c1 = TrainConfig(stage=1, steps=6, batch_size=2, seed=7)
    meta1, model1, _ = stage1_train(c1, space, teacher, data, MASK, TGT)
    path = tmp_path / "s1.ofat"
    save_model(path, model1, meta1)
    c2 = TrainConfig(stage=2, steps=6, batch_size=2, seed=7,
                     ofa_init="stage1_weights", init_checkpoint=str(path))
    meta2, _, log = stage2_train(c2, space, teacher, data, MASK, TGT)
    assert meta2["ofa_init"] == "stage1_weights"
    assert len(log.records) == 6


def test_stage2_refuses_an_init_model_trained_against_another_teacher():
    space, teacher, data, _ = small_setup()
    other = make_teacher(seed=98, arch=SMALL_TEACHER, frontend_spec=space.frontend)
    _, model, _ = stage1_train(TrainConfig(stage=1, steps=2, batch_size=1, seed=7),
                               space, other, data, MASK, TGT)
    c2 = TrainConfig(stage=2, steps=2, batch_size=1, seed=7, init_checkpoint="-")
    with pytest.raises(ConfigurationError, match="frontend"):
        stage2_train(c2, space, teacher, data, MASK, TGT, init_model=model)


def test_teacher_compat_names_what_differs():
    space, teacher, _, _ = small_setup()

    def student(space):
        model = build_supernet(space, Rng(1, STREAM_WEIGHTS))
        model.frontend = teacher.frontend.copy()
        return model

    check_teacher_compat(student(space), teacher)
    with pytest.raises(ConfigurationError, match="frontend array frontend.conv0.w"):
        check_teacher_compat(build_supernet(space, Rng(1, STREAM_WEIGHTS)), teacher)
    last = space.frontend.layers[-1]
    strided = dataclasses.replace(space.frontend, layers=space.frontend.layers[:-1] + (
        FrontendLayer(last.out_channels, last.kernel, last.stride + 1),))
    with pytest.raises(ConfigurationError, match="frontend spec"):
        check_teacher_compat(student(dataclasses.replace(space, frontend=strided)), teacher)
    with pytest.raises(ConfigurationError, match="teacher_dim 8 != teacher width 16"):
        check_teacher_compat(student(dataclasses.replace(space, teacher_dim=8)), teacher)


def test_stage2_gradients_confined_to_sampled_subnet():
    """Spot-check 10 steps: grads outside the step's touched boxes are zero."""
    space, teacher, data, _ = small_setup()

    from ofat.rng import STREAM_MASK, STREAM_WEIGHTS
    from ofat.supernet import build_supernet
    from ofat.train import _adopt_teacher_frontend
    from ofat.distill import distill_loss

    model = build_supernet(space, Rng(8, STREAM_WEIGHTS))
    _adopt_teacher_frontend(model, teacher)
    params = model.params
    arch_rng = Rng(8, STREAM_ARCH)
    mask_rng = Rng(8, STREAM_MASK)
    for step in range(10):
        config = sample_subnet(space, arch_rng)
        for p in params.values():
            p.grad = None
        seq = data.sequences[step % len(data.sequences)]
        feats = model.frontend.forward(seq)
        targets = teacher.targets_from_features(feats, TGT)
        _, _, head_out, (_, mask_indices) = student_forward_masked(model, config, feats, MASK, mask_rng)
        distill_loss(head_out, targets, mask_indices).backward()
        boxes = touched_boxes(space, config)
        for name, p in params.items():
            if p.grad is None:
                continue
            outside = p.grad.copy()
            if name in boxes:
                outside[boxes[name]] = 0.0
            assert np.all(outside == 0.0), (step, name)


def test_training_log_csv_round_trip(tmp_path):
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=2, steps=5, batch_size=1, seed=9, ofa_init="random")
    _, _, log = stage2_train(cfg, space, teacher, data, MASK, TGT)
    path = tmp_path / "log.csv"
    log.to_csv(path, header_lines=("seed=9",))
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "step,loss,grad_norm,lr,embed,depth,heads,ffn_ratios"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert first[6].count("-") == int(first[5]) - 1  # depth-many dash-separated heads


# -- teacher warmup ------------------------------------------------------------------


def test_warmed_teacher_beats_fresh_on_self_regression():
    space, _, data, _ = small_setup()
    arch = TeacherArch(dim=16, depth=2, heads=4, ffn_ratio=2.0, head_dim=4,
                       conv_groups=4, conv_kernel=3)
    fresh = make_teacher(seed=55, arch=arch, frontend_spec=space.frontend)
    warmed = make_teacher(seed=55, arch=arch, frontend_spec=space.frontend,
                          warmup_steps=40, warmup_lr=3e-3, dataset=data)
    probe = data.sequences[:3]
    assert teacher_self_regression_loss(warmed, probe) < teacher_self_regression_loss(fresh, probe)


def test_l1_sum_reduction_and_span_start_masking_train():
    # Both config switches flow through a real training loop.
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=1, steps=4, batch_size=2, learning_rate=1e-3, seed=21)
    span_mask = MaskSpec(p=0.12, span_length=3, convention="span_start")
    _, _, log_mean = stage1_train(cfg, space, teacher, data, span_mask, TGT,
                                  l1_reduction="mean")
    _, _, log_sum = stage1_train(cfg, space, teacher, data, span_mask, TGT,
                                 l1_reduction="sum")
    # Summing over the 16 target features scales the loss by exactly d.
    assert log_sum.records[0].loss == pytest.approx(16 * log_mean.records[0].loss, rel=1e-6)


def test_stage1_training_orders_bounds_after_training():
    # The trained largest architecture evaluates below the untrained minimal
    # slice, the ordering the eval command reports.
    from ofat.spaces import min_subnet

    space, teacher, data, val = small_setup()
    cfg = TrainConfig(stage=1, steps=60, batch_size=2, learning_rate=3e-3,
                      warmup_steps=6, seed=22)
    _, model, _ = stage1_train(cfg, space, teacher, data, MASK, TGT)
    hi = evaluate_subnet(model, max_subnet(space), val.sequences, teacher, MASK, TGT,
                         eval_seed=7, eval_batches=4)
    lo = evaluate_subnet(model, min_subnet(space), val.sequences, teacher, MASK, TGT,
                         eval_seed=7, eval_batches=4)
    assert hi < lo


def test_divergence_aborts_with_diagnostic():
    space, teacher, _, _ = small_setup()
    from ofat.data import SyntheticDataset
    from ofat.errors import DivergenceError

    poisoned = SyntheticDataset([np.full(64, np.nan, dtype=np.float32)])
    cfg = TrainConfig(stage=1, steps=3, batch_size=1, seed=10)
    with pytest.raises(DivergenceError, match="step 0"):
        stage1_train(cfg, space, teacher, poisoned, MASK, TGT)


def test_nonfinite_grad_norm_aborts_before_adam_writes(monkeypatch):
    """A finite loss with a non-finite gradient must not reach the weights."""
    from ofat import train
    from ofat.errors import DivergenceError
    from ofat.supernet import build_supernet
    from ofat.train import _adopt_teacher_frontend

    space, teacher, data, _ = small_setup()
    model = build_supernet(space, Rng(10, 1))
    _adopt_teacher_frontend(model, teacher)
    before = {n: p.data.copy() for n, p in model.params.items()}
    monkeypatch.setattr(train, "grad_norm", lambda params: float("inf"))
    cfg = TrainConfig(stage=1, steps=3, batch_size=2, seed=10)
    with pytest.raises(DivergenceError, match="grad norm inf at step 0"):
        train._run_training(model, space, teacher, data, cfg, MASK, TGT, lambda step: max_subnet(space))
    for n, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[n])


# -- the stacked step against one graph per sequence --------------------------------


def _per_sequence_training(model, space, teacher, dataset, cfg, mask_spec, target_cfg, pick_config,
                           l1_reduction="mean"):
    """The step loop with one graph and one backward per sequence: the reference
    the stacked step must reproduce bit for bit."""
    import math

    from ofat.data import CyclicBatcher
    from ofat.rng import STREAM_MASK
    from ofat.train import TrainLog, TrainRecord, grad_norm

    adam = Adam(model.params, cfg.adam_betas, cfg.adam_eps, cfg.weight_decay)
    mask_rng = Rng(cfg.seed, STREAM_MASK)
    batcher = CyclicBatcher(dataset)
    log = TrainLog()
    for step in range(cfg.steps):
        config = pick_config(step)
        lr = lr_at(step, cfg)
        adam.zero_grad()
        losses = []
        for idx, seq in batcher.next_batch(cfg.batch_size):
            feats = model.frontend.forward(seq)
            targets = teacher.targets_from_features(feats, target_cfg)
            _, _, head_out, (_, mask_indices) = student_forward_masked(model, config, feats, mask_spec, mask_rng)
            loss = reference_distill_loss(head_out, targets, mask_indices, reduction=l1_reduction)
            (loss * (1.0 / cfg.batch_size)).backward()
            losses.append(loss.item())
        gn = grad_norm(model.params)
        assert math.isfinite(gn)
        adam.step(lr, touched_boxes(space, config))
        log.records.append(TrainRecord(step, float(np.mean(losses)), gn, lr, config))
    return log


def _assert_same_run(a, b):
    (_, model_a, log_a), (_, model_b, log_b) = a, b
    assert [(r.loss, r.grad_norm, r.lr, r.config) for r in log_a.records] == \
           [(r.loss, r.grad_norm, r.lr, r.config) for r in log_b.records]
    arrays_a, arrays_b = _arrays(model_a), _arrays(model_b)
    assert list(arrays_a) == list(arrays_b)
    for name in arrays_a:
        assert arrays_a[name].tobytes() == arrays_b[name].tobytes(), name


def _both_ways(monkeypatch, run):
    from ofat import train

    stacked = run()
    with monkeypatch.context() as m:
        m.setattr(train, "_run_training", _per_sequence_training)
        reference = run()
    _assert_same_run(stacked, reference)
    return stacked


@pytest.mark.parametrize("batch_size", [1, 3, 4])
def test_stacked_steps_equal_per_sequence_graphs_bitwise(monkeypatch, batch_size):
    space, teacher, data, _ = small_setup()
    c1 = TrainConfig(stage=1, steps=4, batch_size=batch_size, learning_rate=3e-3, warmup_steps=1,
                     seed=31, weight_decay=0.01)
    _, model, _ = _both_ways(monkeypatch, lambda: stage1_train(c1, space, teacher, data, MASK, TGT))
    c2 = TrainConfig(stage=2, steps=6, batch_size=batch_size, learning_rate=3e-3, seed=31,
                     init_checkpoint="-")
    _both_ways(monkeypatch, lambda: stage2_train(c2, space, teacher, data, MASK, TGT, init_model=model))


def test_stacked_steps_equal_per_sequence_graphs_for_sum_loss_and_span_start_masks(monkeypatch):
    space, teacher, data, _ = small_setup()
    span_mask = MaskSpec(p=0.12, span_length=3, convention="span_start")
    c2 = TrainConfig(stage=2, steps=6, batch_size=4, learning_rate=3e-3, seed=32, ofa_init="random")
    _both_ways(monkeypatch, lambda: stage2_train(c2, space, teacher, data, span_mask, TGT, l1_reduction="sum"))


def test_stacked_steps_equal_per_sequence_graphs_over_two_sequence_lengths(monkeypatch):
    # Batches of 4 over these lengths hold runs of one, two and three equal lengths.
    from ofat.data import SyntheticDataset

    space, teacher, data, _ = small_setup()
    short = make_synthetic_dataset(seed=16, n_sequences=3, length=48)
    mixed = SyntheticDataset([data.sequences[0], short.sequences[0], short.sequences[1], data.sequences[1],
                              data.sequences[2], data.sequences[3], short.sequences[2]])
    c1 = TrainConfig(stage=1, steps=5, batch_size=4, learning_rate=3e-3, seed=33)
    _both_ways(monkeypatch, lambda: stage1_train(c1, space, teacher, mixed, MASK, TGT))
    c2 = TrainConfig(stage=2, steps=5, batch_size=3, learning_rate=3e-3, seed=33, ofa_init="random")
    _both_ways(monkeypatch, lambda: stage2_train(c2, space, teacher, mixed, MASK, TGT))


def _per_sequence_warmup(model, space, config, dataset, steps, lr, batch_size):
    """The teacher warmup with one graph and one backward per sequence: the
    reference the stacked warmup must reproduce bit for bit."""
    from ofat import autodiff as ad
    from ofat.data import CyclicBatcher
    from ofat.supernet import forward

    adam = Adam(model.params)
    boxes = touched_boxes(space, config)
    batcher = CyclicBatcher(dataset)
    for _ in range(steps):
        adam.zero_grad()
        for _, seq in batcher.next_batch(batch_size):
            feats = model.frontend.forward(seq)
            head_out = forward(model, config, feats)[2]
            err = head_out - Tensor(feats)
            (ad.tsum(err * err) * (1.0 / (head_out.size * batch_size))).backward()
        adam.step(lr, boxes)


@pytest.mark.parametrize("batch_size", [1, 3, 4])
def test_stacked_teacher_warmup_equals_per_sequence_graphs_bitwise(monkeypatch, batch_size):
    from ofat import train
    from ofat.data import SyntheticDataset
    space = small_setup()[0]
    data = make_synthetic_dataset(seed=13, n_sequences=4, length=64)
    short = make_synthetic_dataset(seed=16, n_sequences=3, length=48)
    mixed = SyntheticDataset([data.sequences[0], short.sequences[0], short.sequences[1], data.sequences[1],
                              data.sequences[2], data.sequences[3], short.sequences[2]])

    def warmed(warmup_steps):
        return make_teacher(seed=24, arch=SMALL_TEACHER, frontend_spec=space.frontend,
                            warmup_steps=warmup_steps, warmup_lr=3e-3, dataset=mixed, batch_size=batch_size)

    teacher = warmed(4)
    assert all(p.grad is None for p in teacher.encoder.params.values())
    stacked = _arrays(teacher.encoder)
    with monkeypatch.context() as m:
        m.setattr(train, "_warmup_self_regression", _per_sequence_warmup)
        reference = _arrays(warmed(4).encoder)
    assert list(stacked) == list(reference)
    for name in stacked:
        assert stacked[name].tobytes() == reference[name].tobytes(), name
    fresh = _arrays(warmed(0).encoder)
    assert any(stacked[name].tobytes() != fresh[name].tobytes() for name in fresh)


def test_training_leaves_no_gradient_buffers():
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=1, steps=2, batch_size=2, seed=34)
    _, model, _ = stage1_train(cfg, space, teacher, data, MASK, TGT)
    assert all(p.grad is None for p in model.params.values())


@pytest.mark.parametrize("weight_decay,with_grad", [(0.0, True), (0.01, True), (0.01, False)])
def test_adam_in_place_step_equals_the_out_of_place_expressions_bitwise(weight_decay, with_grad):
    rng = Rng(35, 1)
    p = Tensor(rng.normal((6, 5)).astype(np.float32), requires_grad=True)
    ref = {"p": p.data.copy(), "m": np.zeros((6, 5), np.float32), "v": np.zeros((6, 5), np.float32)}
    opt = Adam({"p": p}, betas=(0.9, 0.98), eps=1e-6, weight_decay=weight_decay)
    box = (slice(0, 4), slice(0, 3))
    for t in range(1, 4):
        p.grad = rng.normal((6, 5)).astype(np.float32) if with_grad else None
        g = p.grad[box] if with_grad else 0.0
        lr = 1e-2 / t
        opt.step(lr, {"p": box})
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.98**t
        m, v, w = ref["m"], ref["v"], ref["p"]
        m[box] = 0.9 * m[box] + (1.0 - 0.9) * g
        v[box] = 0.98 * v[box] + (1.0 - 0.98) * (g * g)
        update = lr * (m[box] / bc1) / (np.sqrt(v[box] / bc2) + 1e-6)
        if weight_decay:
            update = update + lr * weight_decay * w[box]
        w[box] = w[box] - update
        for name, arr in (("p", p.data), ("m", opt.m["p"]), ("v", opt.v["p"])):
            assert arr.tobytes() == ref[name].tobytes(), (t, name)


# -- the teacher targets computed before step 0 ------------------------------------


def _recorded_batch_targets(monkeypatch, rows, fail_on_call: int = 0, delay: float = 0.0):
    """Wrap TeacherModel.batch_targets to append each call's [process, dtype, taped, sequence
    digests] to the file rows, in whichever walker it runs, then sleep `delay` s, raising a
    ConfigurationError on call number fail_on_call counted over every process."""
    from ofat.distill import TeacherModel

    real, calls = TeacherModel.batch_targets, rows.with_suffix(".calls")

    def recorded(self, features, cfg, keys):
        append_record(rows, mode_row() + [[_digest(f) for f in features]])
        number = append_record(calls, 0) // len("0\n")
        time.sleep(delay)
        if number == fail_on_call:
            raise ConfigurationError("injected")
        return real(self, features, cfg, keys)

    monkeypatch.setattr(TeacherModel, "batch_targets", recorded)


def _digest(features) -> str:
    return hashlib.blake2b(np.ascontiguousarray(features).tobytes(), digest_size=8).hexdigest()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths", ["one", "two"])
def test_training_is_bitwise_equal_on_one_and_two_target_walkers(monkeypatch, tmp_path, lengths, dtype):
    from ofat import autodiff as ad
    from ofat import walkers
    from ofat.data import SyntheticDataset

    space, _, data, _ = small_setup()
    if lengths == "two":
        short = make_synthetic_dataset(seed=16, n_sequences=3, length=48)
        data = SyntheticDataset([data.sequences[0], short.sequences[0], short.sequences[1], data.sequences[1],
                                 data.sequences[2], data.sequences[3], short.sequences[2]])
    c1 = TrainConfig(stage=1, steps=9, batch_size=3, learning_rate=3e-3, warmup_steps=2, seed=36)
    c2 = TrainConfig(stage=2, steps=9, batch_size=3, learning_rate=3e-3, seed=36, init_checkpoint="-")
    files, seen = {}, {}
    for n in (1, 2):
        with monkeypatch.context() as m, ad.precision(dtype):
            m.setattr(walkers, "walker_count", lambda n=n: n)
            # a slow teacher call, so the other walker takes the next batch meanwhile
            _recorded_batch_targets(m, tmp_path / f"w{n}.jsonl", delay=0.02 * (n - 1))
            # a fresh teacher per run, so every first epoch's targets are cold
            teacher = make_teacher(seed=99, arch=SMALL_TEACHER, frontend_spec=space.frontend)
            runs = [stage1_train(c1, space, teacher, data, MASK, TGT)]
            runs.append(stage2_train(c2, space, teacher, data, MASK, TGT, init_model=runs[0][1]))
        out = []
        for stage, (meta, model, log) in enumerate(runs, start=1):
            save_model(tmp_path / f"w{n}s{stage}.ofat", model, meta)
            log.to_csv(tmp_path / f"w{n}s{stage}.log.csv")
            out += [(tmp_path / f"w{n}s{stage}{ext}").read_bytes() for ext in (".ofat", ".log.csv")]
        files[n], seen[n] = out, read_records(tmp_path / f"w{n}.jsonl")
    assert files[2] == files[1]
    # stage 1 makes one call per batch holding a sequence no earlier batch holds, with just those;
    # stage 2 finds every target in the teacher's cache and makes none
    index_of = {_digest(teacher.frontend.forward(seq)): i for i, seq in enumerate(data.sequences)}
    n = len(data)
    firsts = [list(range(b, min(b + c1.batch_size, n))) for b in range(0, n, c1.batch_size)]
    for walkers_run in (1, 2):
        stacks = [[index_of[d] for d in digests] for *_, digests in seen[walkers_run]]
        assert sorted(stacks) == sorted(firsts)
    assert all(pid == os.getpid() for pid, *_ in seen[1])
    assert any(pid != os.getpid() for pid, *_ in seen[2])
    # the walkers run in the caller's dtype, with no tape
    assert {d for _, d, _, _ in seen[1] + seen[2]} == {np.dtype(dtype).str}
    assert not any(taped for _, _, taped, _ in seen[1] + seen[2])
    assert_no_child_left()


def test_a_target_failure_reaches_the_caller_with_its_type_before_step_0(monkeypatch, tmp_path):
    from ofat import train, walkers

    space, teacher, data, _ = small_setup()
    monkeypatch.setattr(walkers, "walker_count", lambda: 2)
    steps = []
    monkeypatch.setattr(train, "lr_at", lambda step, cfg: steps.append(step))
    _recorded_batch_targets(monkeypatch, tmp_path / "calls.jsonl", fail_on_call=2)
    with pytest.raises(ConfigurationError, match="injected"):
        stage1_train(TrainConfig(stage=1, steps=10, batch_size=2, seed=37), space, teacher, data, MASK, TGT)
    assert_no_child_left()
    assert steps == []


def test_a_short_run_computes_the_targets_of_the_sequences_it_visits_only():
    space, teacher, data, _ = small_setup()
    cfg = TrainConfig(stage=1, steps=2, batch_size=2, seed=38)
    assert cfg.steps * cfg.batch_size < len(data)
    stage1_train(cfg, space, teacher, data, MASK, TGT)
    assert sorted(key[0] for key in teacher._target_cache) == [("train", i) for i in range(4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_step_equals_the_textbook_expressions_bitwise(weight_decay, dtype):
    rng = Rng(74, 1)
    arrays = {"ffn": rng.normal((256, 512)), "norm": rng.normal(64), "never": rng.normal((8, 3))}
    grads = [{name: rng.normal(a.shape) for name, a in arrays.items()} for _ in range(3)]
    boxes = {"ffn": (slice(0, 192), slice(0, 384)), "norm": (slice(0, 48),), "never": (slice(0, 8), slice(0, 2))}
    twins = [{name: Tensor(a.astype(dtype)) for name, a in arrays.items()} for _ in range(2)]
    adams = [Adam(params, betas=(0.9, 0.98), eps=1e-6, weight_decay=weight_decay) for params in twins]
    for step, step_grads in enumerate(grads):
        for params in twins:
            for name, p in params.items():  # "never" gets no gradient: its box takes g = 0
                p.grad = None if name == "never" else step_grads[name].astype(dtype)
        lr = 2e-3 * (3 - step) / 3
        adams[0].step(lr, boxes)
        textbook_adam_step(adams[1], lr, boxes)
        for name in arrays:
            for ours, ref in ((twins[0][name].data, twins[1][name].data), (adams[0].m[name], adams[1].m[name]),
                              (adams[0].v[name], adams[1].v[name])):
                assert ours.dtype == dtype and np.array_equal(ours, ref), (step, name)


def test_grad_norm_equals_the_textbook_expression_bitwise():
    rng = Rng(75, 1)
    params = {"a": Tensor(rng.normal((256, 512)).astype(np.float32)), "b": Tensor(rng.normal(64)),
              "c": Tensor(rng.normal((3, 5, 7)).astype(np.float32)), "none": Tensor(np.zeros(4, np.float32))}
    for name in "abc":
        params[name].grad = (rng.normal(params[name].shape) * 1e3).astype(params[name].dtype)
    assert grad_norm(params) == textbook_grad_norm(params)
    assert grad_norm({}) == 0.0 == textbook_grad_norm({})
