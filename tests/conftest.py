"""Shared fixtures: small spaces, models and data sized for fast unit tests."""

import numpy as np
import pytest

from ofat import autodiff as ad
from ofat.data import make_synthetic_dataset
from ofat.distill import masked_input, span_mask
from ofat.rng import Rng
from ofat.spaces import desk_space
from ofat.supernet import build_supernet, encode
from ofat.train import TeacherArch, make_teacher


@pytest.fixture(scope="session")
def tiny_space():
    """Smallest structurally-complete space; forwards run in microseconds."""
    return desk_space(
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


@pytest.fixture(scope="session")
def tiny_model(tiny_space):
    return build_supernet(tiny_space, Rng(11, 1))


@pytest.fixture(scope="session")
def std_space():
    """The documented desk-scale defaults."""
    return desk_space()


@pytest.fixture(scope="session")
def std_model(std_space):
    return build_supernet(std_space, Rng(21, 1))


@pytest.fixture(scope="session")
def tiny_teacher(tiny_space):
    """Frozen teacher matching tiny_space (16-dim, 4 layers)."""
    arch = TeacherArch(dim=16, depth=4, heads=4, ffn_ratio=2.0, head_dim=4,
                       conv_groups=4, conv_kernel=3)
    return make_teacher(seed=77, arch=arch, frontend_spec=tiny_space.frontend)


@pytest.fixture(scope="session")
def tiny_dataset():
    return make_synthetic_dataset(seed=5, n_sequences=8, length=96)


@pytest.fixture()
def rng():
    return Rng(123, 9)


def rand32(rng, shape, scale=1.0):
    return (rng.normal(shape) * scale).astype(np.float32)


def student_forward_masked(model, config, features, mask_spec, rng):
    """One sequence alone through the student: span_mask, masked_input, encode.
    The per-candidate reference that stacked training and search must equal.

    Returns (final, hidden, head_out, (masked_input, mask_indices)).
    """
    indices = span_mask(features.shape[0], mask_spec, rng)
    h = masked_input(model, config, [features], [indices])
    final, hidden, head_out = encode(model, config, h)
    return final, hidden, head_out, (h, indices)


def reference_distill_loss(student_head_out, targets, mask_indices, reduction="mean"):
    """One sequence's masked L1 from primitive ops: sub, tabs, a 0/1 gate column,
    tsum and a scale. The composition that distill_loss and the fused
    autodiff.masked_l1 behind it must equal bit for bit, values and gradients."""
    indices = np.asarray(mask_indices, dtype=np.int64)
    t, d = student_head_out.shape
    gate = np.zeros((t, 1), dtype=student_head_out.dtype)
    gate[indices] = 1.0
    per_entry = ad.tabs(student_head_out - targets) * ad.Tensor(gate)
    denom = float(indices.size * (d if reduction == "mean" else 1))
    return ad.tsum(per_entry) * (1.0 / denom)
