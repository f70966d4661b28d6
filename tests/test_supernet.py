"""Supernet structure: nesting soundness, extraction oracle, counting, gradients."""

import numpy as np
import pytest

from ofat import autodiff as ad
from ofat import supernet
from ofat.autodiff import ComputeGraph
from ofat.checkpoint import load_checkpoint, load_model, save_model
from ofat.distill import MaskSpec, distill_loss
from ofat.errors import ConfigurationError, DimensionError
from ofat.rng import Rng
from ofat.spaces import (
    SubnetConfig,
    desk_space,
    max_subnet,
    min_subnet,
    sample_subnet,
    validate_config,
)
from ofat.supernet import (
    build_supernet,
    clone_supernet,
    count_params,
    encode,
    extract_subnet,
    forward,
    project_input,
    reference_forward,
    touched_boxes,
)

from conftest import student_forward_masked, traced_peak


def rand_input(seed, t, d):
    return (Rng(seed, 2).uniform((t, d)) * 2.0 - 1.0).astype(np.float32)


# -- build -------------------------------------------------------------------


def test_build_deterministic_same_seed(tiny_space):
    a = build_supernet(tiny_space, Rng(4, 1))
    b = build_supernet(tiny_space, Rng(4, 1))
    for (na, ta), (nb, tb) in zip(a.params.items(), b.params.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    for wa, wb in zip(a.frontend.arrays.values(), b.frontend.arrays.values()):
        np.testing.assert_array_equal(wa, wb)


def test_build_small_desk_analog_succeeds():
    # The reference small supernet scaled down: 512-dim 8-head 4.0-ratio 12-layer maxima.
    space = desk_space(
        embed_dims=(32, 48, 64),
        head_choices=(2, 3, 4),
        ffn_ratios=(3.0, 3.5, 4.0),
        depths=(2, 3, 4),
    )
    model = build_supernet(space, Rng(1, 1))
    hi = max_subnet(space)
    assert model.params["blocks.0.wq"].shape == (64, 4 * 8)
    assert model.params["blocks.0.w1"].shape == (64, 256)
    validate_config(space, hi)


def test_build_count_matches_formula_for_largest(tiny_space, tiny_model):
    hi = max_subnet(tiny_space)
    pc = count_params(tiny_space, hi, includes_frontend=False, includes_head=True)
    total_tensor_sizes = sum(t.size for t in tiny_model.params.values())
    assert pc.total == total_tensor_sizes


# -- forward ------------------------------------------------------------------


def test_forward_shapes_and_t1_guard(tiny_space, tiny_model):
    cfg = min_subnet(tiny_space)
    x = rand_input(1, 1, tiny_space.frontend_dim)
    final, hidden, head_out = forward(tiny_model, cfg, x, collect_hidden=True)
    assert final.shape == (1, cfg.embed_dim)
    assert head_out.shape == (1, tiny_space.teacher_dim)
    assert len(hidden) == cfg.depth


def test_forward_rejects_invalid_config(tiny_space, tiny_model):
    bad = SubnetConfig(40, 1, (1,), (2.0,))
    with pytest.raises(ConfigurationError):
        forward(tiny_model, bad, rand_input(1, 4, tiny_space.frontend_dim))


def test_forward_rejects_bad_input_width(tiny_space, tiny_model):
    with pytest.raises(DimensionError):
        forward(tiny_model, min_subnet(tiny_space), rand_input(1, 4, 5))


def test_largest_forward_equals_static_reference(tiny_space, tiny_model):
    cfg = max_subnet(tiny_space)
    x = rand_input(2, 7, tiny_space.frontend_dim)
    _, _, sup = forward(tiny_model, cfg, x)
    ref = extract_subnet(tiny_model, cfg)  # at max config this is a plain copy
    _, _, st = reference_forward(ref, cfg, x)
    assert float(np.abs(sup.data - st.data).max()) < 1e-6


def _layout(model):
    return [(name, t.shape) for name, t in model.params.items()]


def _boxes_layout(space, config):
    return [(name, tuple(s.stop for s in box)) for name, box in touched_boxes(space, config).items()]


def test_params_are_the_touched_boxes_in_file_order(tiny_space, tiny_model, tmp_path):
    path = tmp_path / "s.ofat"
    save_model(path, tiny_model, {})
    loaded, _ = load_model(path, "supernet")
    full = _boxes_layout(tiny_space, max_subnet(tiny_space))
    for model in (build_supernet(tiny_space, Rng(3, 1)), clone_supernet(tiny_model), loaded):
        assert _layout(model) == full
    assert [n for n in load_checkpoint(path)[0] if n not in tiny_model.frontend.arrays] == list(loaded.params)
    cfg = SubnetConfig(12, 2, (2, 1), (3.0, 2.0))
    assert _layout(extract_subnet(tiny_model, cfg)) == _boxes_layout(tiny_space, cfg)


def test_reference_forward_calls_none_of_the_sliced_path(tiny_space, tiny_model, monkeypatch):
    cfg = SubnetConfig(12, 2, (2, 1), (3.0, 2.0))
    x = rand_input(8, 9, tiny_space.frontend_dim)
    final, hidden, head_out = forward(tiny_model, cfg, x, collect_hidden=True)
    sub = extract_subnet(tiny_model, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("reference_forward used a sliced-path helper")

    for module, name in ((ad, "linear_prefix"), (ad, "attention"), (ad, "slice_prefix"),
                         (supernet, "touched_boxes"), (supernet, "block_forward"),
                         (supernet, "block_norm"), (supernet, "attention_half"), (supernet, "ffn_half")):
        monkeypatch.setattr(module, name, refuse)
    ref_final, ref_hidden, ref_head_out = reference_forward(sub, cfg, x, collect_hidden=True)
    for a, b in zip([final, head_out, *hidden], [ref_final, ref_head_out, *ref_hidden], strict=True):
        assert np.array_equal(a.data, b.data)


def test_weight_sharing_soundness_100_random_configs(std_space, std_model):
    rng = Rng(31, 4)
    x = rand_input(3, 11, std_space.frontend_dim)
    worst = 0.0
    for _ in range(100):
        cfg = sample_subnet(std_space, rng)
        _, _, sup = forward(std_model, cfg, x)
        _, _, ext = reference_forward(extract_subnet(std_model, cfg), cfg, x)
        worst = max(worst, float(np.abs(sup.data - ext.data).max()))
    assert worst < 1e-6, worst


def test_hidden_states_match_between_routes(tiny_space, tiny_model):
    cfg = sample_subnet(tiny_space, Rng(77, 4))
    x = rand_input(4, 6, tiny_space.frontend_dim)
    _, hid_a, _ = forward(tiny_model, cfg, x, collect_hidden=True)
    _, hid_b, _ = reference_forward(extract_subnet(tiny_model, cfg), cfg, x, collect_hidden=True)
    for a, b in zip(hid_a, hid_b):
        assert float(np.abs(a.data - b.data).max()) < 1e-6


def test_sliced_forward_and_backward_equal_the_reference_bitwise(std_space, std_model):
    # The sliced path runs the fused linear_prefix and attention ops on views
    # of the supernet weights; the reference runs primitive ops on exact-size
    # copies. Values and every touched gradient box agree bit for bit.
    rng = Rng(32, 4)
    x = rand_input(7, 16, std_space.frontend_dim)
    c = rand_input(8, 16, std_space.teacher_dim)
    configs = [max_subnet(std_space), min_subnet(std_space)] + [sample_subnet(std_space, rng) for _ in range(4)]
    for cfg in configs:
        model = clone_supernet(std_model)
        sub = extract_subnet(model, cfg)
        _, _, sup = forward(model, cfg, x)
        _, _, ref = reference_forward(sub, cfg, x)
        assert np.array_equal(sup.data, ref.data), cfg
        ad.tsum(sup * c).backward()
        ad.tsum(ref * c).backward()
        params, sub_params = model.params, sub.params
        for name, box in touched_boxes(std_space, cfg).items():
            if name == "mask_emb":  # used only by the masked forward
                continue
            assert np.array_equal(params[name].grad[box], sub_params[name].grad), (cfg, name)


def test_masked_distillation_graph_size(std_space, std_model):
    # One tape node per fused linear_prefix, attention and masked_l1 call: the
    # desk max subnet's per-sequence graph has 130 nodes, against 294 with
    # copied weight prefixes, per-head attention and the loss as primitive ops.
    cfg = max_subnet(std_space)
    feats = rand_input(9, 128, std_space.frontend_dim)
    _, _, head_out, (_, mask_indices) = student_forward_masked(std_model, cfg, feats, MaskSpec(), Rng(3, 5))
    targets = ad.Tensor(rand_input(10, 128, std_space.teacher_dim))
    loss = distill_loss(head_out, targets, mask_indices)
    assert len(ComputeGraph.from_root(loss).nodes) <= 150


def test_masked_distillation_step_graph_size(std_space, monkeypatch):
    # A training step runs its batch of 4 as one row stack and scores it with
    # one fused masked L1: a desk stage-1 step is one graph of 132 nodes
    # (169 with a sub, abs, gate, sum and two scales per sequence), against
    # 4 graphs of 141 (564) when each sequence had its own graph.
    from ofat.data import make_synthetic_dataset
    from ofat.distill import TargetConfig
    from ofat.train import TrainConfig, make_teacher, stage1_train

    sizes = []
    from_root = ComputeGraph.from_root.__func__

    def counted(cls, root):
        graph = from_root(cls, root)
        sizes.append(len(graph.nodes))
        return graph

    monkeypatch.setattr(ComputeGraph, "from_root", classmethod(counted))
    teacher = make_teacher(seed=3, frontend_spec=std_space.frontend)
    data = make_synthetic_dataset(seed=4, n_sequences=4, length=512)
    stage1_train(TrainConfig(stage=1, steps=2, batch_size=4), std_space, teacher, data,
                 MaskSpec(), TargetConfig())
    assert len(sizes) == 2 and max(sizes) <= 155, sizes


def _closure_arrays(fn):
    """Every array a closure captures, through the closures it captures."""
    arrays, todo = [], [fn]
    while todo:
        for cell in todo.pop().__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif callable(value) and getattr(value, "__closure__", None):
                todo.append(value)
    return arrays


def test_stacked_tape_keeps_rows_not_attention_probabilities():
    # Attention keeps its row max and sum and layer norm its mean and 1/std:
    # backward rebuilds the [seqs*heads, t, t] probabilities and the [rows, d]
    # normalized input from the parents, so the tape grows with rows, not t^2.
    space = desk_space(embed_dims=(16,), head_choices=(4,), ffn_ratios=(2.0,), depths=(2, 3, 4),
                       head_dim=4, conv_groups=4, conv_kernel=3, frontend_dim=8, teacher_dim=16)
    model = build_supernet(space, Rng(5, 1))
    seqs, t, heads = 4, 256, 4
    x = ad.Tensor(rand_input(6, seqs * t, 8), requires_grad=True)

    def loss(depth):
        config = SubnetConfig(16, depth, (heads,) * depth, (2.0,) * depth)
        return ad.tsum(forward(model, config, x, seqs=seqs)[2])

    kept = {"attention": [], "layer_norm": []}
    for node in ComputeGraph.from_root(loss(2)).nodes:
        op = node._vjp.__qualname__.split(".")[0] if node._vjp else None
        if op in kept:
            kept[op].append(_closure_arrays(node._vjp))
    assert len(kept["attention"]) == 2 and len(kept["layer_norm"]) == 5
    for arrays in kept["attention"]:
        assert arrays and not any(a.shape[-2:] == (t, t) for a in arrays), [a.shape for a in arrays]
    for arrays in kept["layer_norm"]:
        assert arrays and not any(a.shape == (seqs * t, 16) for a in arrays), [a.shape for a in arrays]

    def peak(depth):
        for p in [x, *model.params.values()]:
            p.grad = None
        return traced_peak(lambda: loss(depth).backward())

    probs_bytes = seqs * heads * t * t * 4
    per_block = (peak(4) - peak(2)) / 2
    assert 0 < per_block < probs_bytes, (per_block, probs_bytes)


# -- extraction ------------------------------------------------------------------


def test_extract_param_total_matches_closed_form(std_space, std_model):
    rng = Rng(32, 4)
    for _ in range(100):
        cfg = sample_subnet(std_space, rng)
        enc = extract_subnet(std_model, cfg)
        pc = count_params(std_space, cfg, includes_frontend=False, includes_head=True)
        assert sum(t.size for t in enc.params.values()) == pc.total
        with_frontend = count_params(std_space, cfg, includes_frontend=True, includes_head=True)
        assert with_frontend.total == pc.total + std_space.frontend.param_count()


def test_extract_equivalence_10_random_inputs(tiny_space, tiny_model):
    cfg = sample_subnet(tiny_space, Rng(33, 4))
    enc = extract_subnet(tiny_model, cfg)
    for i in range(10):
        x = rand_input(100 + i, 9, tiny_space.frontend_dim)
        _, _, a = forward(tiny_model, cfg, x)
        _, _, b = reference_forward(enc, cfg, x)
        assert float(np.abs(a.data - b.data).max()) < 1e-6


def test_extract_rejects_invalid_config(tiny_model):
    with pytest.raises(ConfigurationError):
        extract_subnet(tiny_model, SubnetConfig(13, 1, (1,), (2.0,)))


# -- touched boxes and gradient confinement -----------------------------------------


def _box_index_set(name, boxes, shape):
    if name not in boxes:
        return set()
    grid = np.zeros(shape, dtype=bool)
    grid[boxes[name]] = True
    return set(map(tuple, np.argwhere(grid)))


def test_monotone_nesting_of_touched_indices(tiny_space, tiny_model):
    small = SubnetConfig(8, 1, (1,), (2.0,))
    large = SubnetConfig(16, 2, (2, 2), (3.0, 3.0))
    boxes_small = touched_boxes(tiny_space, small)
    boxes_large = touched_boxes(tiny_space, large)
    params = tiny_model.params
    for name, tensor in params.items():
        idx_small = _box_index_set(name, boxes_small, tensor.shape)
        idx_large = _box_index_set(name, boxes_large, tensor.shape)
        assert idx_small <= idx_large, f"nesting violated for {name}"


def test_gradients_confined_to_touched_slices(tiny_space, tiny_model):
    cfg = SubnetConfig(12, 1, (2,), (2.0,))
    x = rand_input(5, 6, tiny_space.frontend_dim)
    params = tiny_model.params
    for p in params.values():
        p.grad = None
    _, _, head_out = forward(tiny_model, cfg, x)
    ad.tsum(head_out * head_out).backward()
    boxes = touched_boxes(tiny_space, cfg)
    for name, p in params.items():
        if p.grad is None:
            assert name not in boxes or "mask_emb" in name, name
            continue
        outside = p.grad.copy()
        if name in boxes:
            outside[boxes[name]] = 0.0
        assert np.all(outside == 0.0), f"gradient leaked outside touched box of {name}"


def test_frontend_never_has_gradients(tiny_space, tiny_model):
    # Frontend arrays are plain numpy: there is no gradient buffer at all,
    # and a forward+backward leaves the weights bitwise unchanged.
    before = [w.copy() for w in tiny_model.frontend.arrays.values()]
    raw = (Rng(9, 2).uniform(48) * 2 - 1).astype(np.float32)
    _, _, head_out = forward(tiny_model, min_subnet(tiny_space), tiny_model.frontend.forward(raw))
    ad.tsum(head_out).backward()
    for w_before, w_now in zip(before, tiny_model.frontend.arrays.values()):
        np.testing.assert_array_equal(w_before, w_now)
        assert isinstance(w_now, np.ndarray)


def test_project_then_encode_equals_forward(tiny_space, tiny_model):
    cfg = max_subnet(tiny_space)
    x = rand_input(6, 5, tiny_space.frontend_dim)
    h = project_input(tiny_model, cfg, x)
    f1, _, h1 = encode(tiny_model, cfg, h)
    f2, _, h2 = forward(tiny_model, cfg, x)
    np.testing.assert_array_equal(f1.data, f2.data)
    np.testing.assert_array_equal(h1.data, h2.data)


# -- counting -----------------------------------------------------------------------


def test_count_params_components_sum(tiny_space):
    cfg = max_subnet(tiny_space)
    pc = count_params(tiny_space, cfg)
    assert pc.total == sum(pc.by_component.values())
    assert "frontend" in pc.by_component and "prediction_head" in pc.by_component
    no_fe = count_params(tiny_space, cfg, includes_frontend=False)
    assert "frontend" not in no_fe.by_component
    assert no_fe.total == pc.total - tiny_space.frontend.param_count()


def test_count_params_rejects_invalid(tiny_space):
    with pytest.raises(ConfigurationError):
        count_params(tiny_space, SubnetConfig(999, 1, (1,), (2.0,)))
