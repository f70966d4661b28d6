"""Shared fixtures: small spaces, models and data sized for fast unit tests, and the
textbook expressions that the in-place ops and the optimizer step must equal bit for bit."""

import math
import tracemalloc

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


def traced_peak(fn) -> int:
    """Peak bytes of the Python-traced allocations (numpy's arrays among them) made while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def as_leaf_grad(like, g):
    """g as a leaf tensor shaped like `like` holds it: added into a zeroed buffer of like's dtype."""
    out = np.zeros_like(like)
    out += g
    return out


# -- textbook expressions: the out-of-place forms of the in-place ops ----------------

_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


def textbook_gelu(x, g):
    """The tanh GELU of x and its input gradient for the upstream gradient g: (y, dx)."""
    t = np.tanh(_GELU_C0 * (x + _GELU_C1 * (x * x * x)))
    y = 0.5 * x * (1.0 + t)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * (x * x))
    return y, g * dy


def textbook_layer_norm(x, gain, bias, g, eps=1e-5, seqs=1):
    """Layer norm of x over its last dim d, affine by the first d entries of gain and bias, and
    its backward for the upstream gradient g: (y, dx, dgain, dbias). The parameter gradients
    are each sequence's sums, added in order into zeroed full-length buffers."""
    d = x.shape[-1]
    gv, bv = gain[:d], bias[:d]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = xc * inv_std * gv + bv
    xhat = (x - mu) * inv_std
    dxhat = g * gv
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    dgain, dbias = np.zeros_like(gain), np.zeros_like(bias)
    for dg, db in zip((g * xhat).reshape(seqs, -1, d).sum(axis=1), g.reshape(seqs, -1, d).sum(axis=1)):
        dgain[:d] += dg
        dbias[:d] += db
    return y, dx, dgain, dbias


def textbook_adam_step(adam, lr, boxes):
    """Adam.step by the textbook expressions, on adam's own moments and parameters."""
    adam.t += 1
    bc1 = 1.0 - adam.beta1**adam.t
    bc2 = 1.0 - adam.beta2**adam.t
    for name, box in boxes.items():
        p = adam.params[name]
        g = p.grad[box] if p.grad is not None else 0.0
        m = adam.m[name][box] = adam.beta1 * adam.m[name][box] + (1.0 - adam.beta1) * g
        v = adam.v[name][box] = adam.beta2 * adam.v[name][box] + (1.0 - adam.beta2) * (g * g)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + adam.eps)
        if adam.weight_decay:
            update = update + lr * adam.weight_decay * p.data[box]
        p.data[box] = p.data[box] - update


def textbook_grad_norm(params):
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)
