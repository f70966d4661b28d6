"""Targets, masking, and the masked L1 objective."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ofat
from ofat import autodiff as ad
from ofat.autodiff import Tensor, finite_diff_check
from ofat.distill import MaskSpec, TargetConfig, compute_targets, distill_loss, span_mask
from ofat.errors import ConfigurationError, ContractError
from ofat.frontend import desk_frontend
from ofat.rng import Rng
from ofat.spaces import mid_subnet
from ofat.train import TeacherArch, make_teacher

from conftest import student_forward_masked


def t32(arr, rg=False):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=rg)


# -- compute_targets -------------------------------------------------------------


def test_targets_k1_is_normalized_top_layer():
    layers = [t32(Rng(1, 2).normal((5, 6))), t32(Rng(2, 2).normal((5, 6)))]
    out = compute_targets(layers, TargetConfig(k=1))
    top = layers[-1].data
    mu = top.mean(axis=-1, keepdims=True)
    var = top.var(axis=-1, keepdims=True)
    np.testing.assert_allclose(out.data, (top - mu) / np.sqrt(var + 1e-5), rtol=1e-6)


def test_targets_identical_layers_idempotent():
    layer = t32(Rng(3, 2).normal((4, 8)))
    one = compute_targets([layer], TargetConfig(k=1))
    two = compute_targets([layer, layer], TargetConfig(k=2))
    np.testing.assert_allclose(one.data, two.data, rtol=1e-7)


def test_targets_hand_case_opposite_layers_cancel():
    a = t32([[2.0, 0.0]])
    b = t32([[0.0, 2.0]])
    one = compute_targets([a], TargetConfig(k=1))
    np.testing.assert_allclose(one.data, [[1.0, -1.0]], atol=1e-2)
    both = compute_targets([a, b], TargetConfig(k=2))
    np.testing.assert_allclose(both.data, [[0.0, 0.0]], atol=1e-7)


def test_targets_k_exceeding_layers_rejected():
    with pytest.raises(ConfigurationError):
        compute_targets([t32(np.zeros((2, 2)))], TargetConfig(k=2))


def test_targets_bounded_on_random_inputs():
    layers = [t32(Rng(i, 2).normal((30, 16)) * 5.0) for i in range(8)]
    out = compute_targets(layers, TargetConfig(k=8))
    assert float(np.abs(out.data).max()) < 10.0


# -- span_mask and mask_rows ------------------------------------------------------


def test_mask_p0_is_noop():
    x = t32(Rng(4, 3).normal((12, 4)))
    indices = span_mask(x.shape[0], MaskSpec(p=0.0), Rng(1, 3))
    assert indices.size == 0
    np.testing.assert_array_equal(ad.mask_rows(x, t32(np.ones(4)), indices).data, x.data)


def test_mask_p1_covers_everything():
    x = t32(Rng(5, 3).normal((9, 4)))
    emb = t32(np.full(4, 7.0))
    indices = span_mask(x.shape[0], MaskSpec(p=1.0, span_length=2), Rng(2, 3))
    np.testing.assert_array_equal(indices, np.arange(9))
    np.testing.assert_allclose(ad.mask_rows(x, emb, indices).data, np.full((9, 4), 7.0))


def test_mask_preserves_unmasked_frames_and_replaces_masked():
    x = t32(Rng(6, 3).normal((40, 4)))
    emb = t32(np.arange(4, dtype=np.float32))
    indices = span_mask(x.shape[0], MaskSpec(p=0.3, span_length=5), Rng(3, 3))
    masked = ad.mask_rows(x, emb, indices)
    covered = np.zeros(40, dtype=bool)
    covered[indices] = True
    np.testing.assert_array_equal(masked.data[~covered], x.data[~covered])
    np.testing.assert_allclose(masked.data[covered],
                               np.tile(emb.data, (int(covered.sum()), 1)))


def test_mask_at_least_one_frame_when_p_positive():
    for seed in range(20):
        assert span_mask(50, MaskSpec(p=0.01, span_length=3), Rng(seed, 3)).size >= 1


def test_mask_fraction_statistic_t1000():
    spec = MaskSpec(p=0.65, span_length=10)
    fractions = []
    for seed in range(100):
        fractions.append(span_mask(1000, spec, Rng(seed, 3)).size / 1000.0)
    mean = float(np.mean(fractions))
    assert abs(mean - 0.65) < 0.03, mean


def test_mask_span_start_convention():
    spec = MaskSpec(p=0.065, span_length=10, convention="span_start")
    fractions = []
    for seed in range(50):
        fractions.append(span_mask(400, spec, Rng(seed, 3)).size / 400.0)
    # ~1 - (1 - p)^span expected coverage under independent starts
    expected = 1.0 - (1.0 - 0.065) ** 10
    assert abs(float(np.mean(fractions)) - expected) < 0.05


def test_mask_deterministic_by_seed():
    x = t32(Rng(7, 3).normal((64, 4)))
    emb = t32(np.zeros(4))
    a = span_mask(x.shape[0], MaskSpec(), Rng(11, 3))
    b = span_mask(x.shape[0], MaskSpec(), Rng(11, 3))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ad.mask_rows(x, emb, a).data, ad.mask_rows(x, emb, b).data)


def test_mask_gradient_flows_to_embedding():
    x = t32(Rng(8, 3).normal((20, 4)))
    emb = t32(np.zeros(4), rg=True)
    indices = span_mask(x.shape[0], MaskSpec(p=0.5, span_length=4), Rng(4, 3))
    ad.tsum(ad.mask_rows(x, emb, indices)).backward()
    np.testing.assert_allclose(emb.grad, np.full(4, float(indices.size)))


# -- distill_loss -----------------------------------------------------------------


def test_loss_zero_iff_student_matches_targets():
    targets = t32(Rng(9, 2).normal((6, 4)))
    student = t32(targets.data.copy(), rg=True)
    loss = distill_loss(student, targets, np.array([1, 3]))
    assert loss.item() == 0.0
    nudged = t32(targets.data + 0.5, rg=True)
    assert distill_loss(nudged, targets, np.array([1, 3])).item() > 0.0


def test_loss_hand_case_feature_mean():
    student = t32([[0.0, 0.0]], rg=True)
    targets = t32([[1.0, -1.0]])
    loss = distill_loss(student, targets, np.array([0]))
    assert loss.item() == pytest.approx(1.0)
    loss_sum = distill_loss(student, targets, np.array([0]), reduction="sum")
    assert loss_sum.item() == pytest.approx(2.0)


def test_loss_ignores_unmasked_steps():
    rng = Rng(10, 2)
    targets = t32(rng.normal((8, 4)))
    base = rng.normal((8, 4)).astype(np.float32)
    masked = np.array([2, 5])
    a = distill_loss(t32(base), targets, masked).item()
    perturbed = base.copy()
    perturbed[[0, 1, 3, 4, 6, 7]] += 123.0
    b = distill_loss(t32(perturbed), targets, masked).item()
    assert a == b


def test_loss_gradient_zero_at_unmasked_steps_exactly():
    rng = Rng(11, 2)
    student = t32(rng.normal((10, 4)), rg=True)
    targets = t32(rng.normal((10, 4)))
    masked = np.array([0, 7, 8])
    distill_loss(student, targets, masked).backward()
    unmasked = np.setdiff1d(np.arange(10), masked)
    assert np.all(student.grad[unmasked] == 0.0)
    assert np.any(student.grad[masked] != 0.0)


def test_loss_empty_mask_rejected():
    x = t32(np.zeros((3, 2)))
    with pytest.raises(ContractError):
        distill_loss(x, x, np.array([], dtype=np.int64))


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        distill_loss(t32(np.zeros((3, 2))), t32(np.zeros((3, 3))), np.array([0]))


def test_loss_gradcheck():
    rng = Rng(12, 2)
    # Keep |student - target| away from the L1 kink relative to the probe step.
    targets = t32(rng.normal((6, 5)))
    student = t32(targets.data + np.sign(rng.normal((6, 5))) * (0.5 + rng.uniform((6, 5))), rg=True)
    masked = np.array([0, 2, 5])
    err = finite_diff_check(lambda s: distill_loss(s, targets, masked), student)
    assert err < 1e-3


# -- teacher targets ----------------------------------------------------------------


def test_teacher_targets_deterministic(tiny_teacher):
    raw = (Rng(13, 2).uniform(96) * 2 - 1).astype(np.float32)
    feats = tiny_teacher.frontend.forward(raw)
    a, b = (tiny_teacher._stack_targets([feats], TargetConfig(k=2))[0] for _ in range(2))  # twice, past the cache
    np.testing.assert_array_equal(a.data, b.data)


def test_teacher_targets_record_no_graph(tiny_teacher):
    raw = (Rng(14, 2).uniform(96) * 2 - 1).astype(np.float32)
    out = tiny_teacher.targets_from_features(tiny_teacher.frontend.forward(raw), TargetConfig(k=2))
    assert out.requires_grad is False
    assert out._parents == ()
    for p in tiny_teacher.encoder.params.values():
        assert p.requires_grad is False


def test_teacher_targets_k_equals_depth(tiny_teacher):
    raw = (Rng(15, 2).uniform(96) * 2 - 1).astype(np.float32)
    out = tiny_teacher.targets_from_features(tiny_teacher.frontend.forward(raw),
                                             TargetConfig(k=tiny_teacher.depth))
    assert out.shape == (-(-96 // tiny_teacher.frontend.spec.total_stride), tiny_teacher.dim)


def test_teacher_target_cache_hits_are_identical(tiny_teacher):
    feats = tiny_teacher.frontend.forward((Rng(16, 2).uniform(96) * 2 - 1).astype(np.float32))
    a = tiny_teacher.targets_from_features(feats, TargetConfig(k=2), cache_key=("t", 0))
    b = tiny_teacher.targets_from_features(feats, TargetConfig(k=2), cache_key=("t", 0))
    assert a is b


def test_only_distill_py_names_the_teacher_target_cache():
    """Every target goes through TeacherModel.batch_targets: no other module reads or writes its cache."""
    offenders = []
    for path in sorted(Path(ofat.__file__).parent.glob("*.py")):
        if path.name != "distill.py":
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                          if "_target_cache" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert not offenders, offenders


# -- masked student pipeline ----------------------------------------------------------


def test_student_forward_masked_only_changes_masked_frames(tiny_space, tiny_model):
    cfg = mid_subnet(tiny_space)
    feats = (Rng(17, 2).uniform((24, tiny_space.frontend_dim)) * 2 - 1).astype(np.float32)
    _, _, _, (masked, mask_indices) = student_forward_masked(
        tiny_model, cfg, feats, MaskSpec(p=0.4, span_length=3), Rng(18, 3)
    )
    from ofat.supernet import project_input

    h = project_input(tiny_model, cfg, feats)
    unmasked = np.setdiff1d(np.arange(24), mask_indices)
    np.testing.assert_array_equal(masked.data[unmasked], h.data[unmasked])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", ["tiny", "desk"])
def test_batch_targets_stack_each_length_and_equal_per_sequence_targets_bitwise(tiny_space, shape, dtype):
    """At desk shapes: the default teacher on stacks of 128- and 96-frame sequences."""
    arch, spec, cfg, lengths = {
        "tiny": (TeacherArch(dim=16, depth=4, heads=4, ffn_ratio=2.0, head_dim=4, conv_groups=4, conv_kernel=3),
                 tiny_space.frontend, TargetConfig(k=2), (96, 64, 96, 96, 64)),
        "desk": (TeacherArch(), desk_frontend(), TargetConfig(), (512, 384, 512, 512, 384)),
    }[shape]
    with ad.precision(dtype):
        teacher = make_teacher(seed=77, arch=arch, frontend_spec=spec)  # weights of that dtype
        raws = [(Rng(30 + i, 2).uniform(n) * 2 - 1).astype(np.float32) for i, n in enumerate(lengths)]
        feats = [teacher.frontend.forward(r) for r in raws]
        alone = [teacher._stack_targets([f], cfg)[0] for f in feats]  # uncached, each its own stack
        batch = teacher.batch_targets(feats, cfg, len(feats))
    for a, b in zip(alone, batch):
        assert a.data.dtype == dtype and a.data.tobytes() == b.data.tobytes()
    again = teacher.batch_targets(feats[::-1], cfg, len(feats))
    assert all(x is y for x, y in zip(again, batch[::-1]))  # every one a cache hit
    assert teacher.targets_from_features(feats[1], cfg, cache_key=("b", 1)) is batch[1]
