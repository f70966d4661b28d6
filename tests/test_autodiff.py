"""Engine tests: op semantics, gradient oracle, graph mechanics, determinism."""

import numpy as np
import pytest

from ofat import autodiff as ad
from ofat.autodiff import ComputeGraph, Tensor, finite_diff_check
from ofat.errors import ConfigurationError, ContractError, DimensionError
from ofat.rng import Rng
from ofat.supernet import _attention

F32_TOL = 1e-3
F64_TOL = 1e-6
N_TRIALS = 20


def t32(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=requires_grad)


# -- matmul -------------------------------------------------------------------


def test_matmul_identity():
    out = ad.matmul(t32([[1, 0], [0, 1]]), t32([[3, 4], [5, 6]]))
    assert np.array_equal(out.data, np.array([[3, 4], [5, 6]], dtype=np.float32))


def test_matmul_hand():
    out = ad.matmul(t32([[1, 2]]), t32([[3], [4]]))
    assert out.data.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t32(np.zeros((2, 3))), t32(np.zeros((2, 3))))


def test_matmul_gradcheck_4x5_5x3():
    rng = Rng(42, 1)
    a = t32(rng.normal((4, 5)), requires_grad=True)
    b = t32(rng.normal((5, 3)), requires_grad=True)
    assert finite_diff_check(lambda t: ad.tsum(ad.matmul(t, b)), a) < F32_TOL
    assert finite_diff_check(lambda t: ad.tsum(ad.matmul(a, t)), b) < F32_TOL


# -- layer_norm ---------------------------------------------------------------


def test_layer_norm_two_point():
    out = ad.layer_norm(t32([[2.0, 0.0]]), t32([1.0, 1.0]), t32([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_constant_vector_is_zero():
    out = ad.layer_norm(t32([[3.0, 3.0, 3.0]]), t32(np.ones(3)), t32(np.zeros(3)))
    np.testing.assert_array_equal(out.data, np.zeros((1, 3), dtype=np.float32))


def test_layer_norm_dim_mismatch():
    with pytest.raises(DimensionError):
        ad.layer_norm(t32(np.zeros((2, 4))), t32(np.ones(3)), t32(np.zeros(3)))


def test_layer_norm_gradcheck_3x4():
    rng = Rng(43, 1)
    x = t32(rng.normal((3, 4)), requires_grad=True)
    g = t32(rng.normal(4) * 0.3 + 1.0, requires_grad=True)
    b = t32(rng.normal(4), requires_grad=True)
    c = t32(rng.normal((3, 4)))
    assert finite_diff_check(lambda t: ad.tsum(ad.layer_norm(t, g, b) * c), x) < F32_TOL
    assert finite_diff_check(lambda t: ad.tsum(ad.layer_norm(x, t, b) * c), g) < F32_TOL
    assert finite_diff_check(lambda t: ad.tsum(ad.layer_norm(x, g, t) * c), b) < F32_TOL


# -- gelu ----------------------------------------------------------------------


def test_gelu_zero():
    assert ad.gelu(t32([0.0])).item() == 0.0


def test_gelu_asymptote():
    assert abs(ad.gelu(t32([10.0])).item() - 10.0) < 1e-6


def test_gelu_gradcheck():
    rng = Rng(44, 1)
    x = t32(rng.normal(8), requires_grad=True)
    c = t32(rng.normal(8))
    assert finite_diff_check(lambda t: ad.tsum(ad.gelu(t) * c), x) < F32_TOL


# -- softmax --------------------------------------------------------------------


def test_softmax_symmetry():
    out = ad.softmax_lastdim(t32([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)


def test_softmax_stability_no_overflow():
    out = ad.softmax_lastdim(t32([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-7)


def test_softmax_rows_sum_to_one_large_inputs():
    rng = Rng(45, 1)
    x = t32(rng.uniform((6, 9)) * 2e4 - 1e4)
    out = ad.softmax_lastdim(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)


def test_softmax_gradcheck_2x5():
    rng = Rng(46, 1)
    x = t32(rng.normal((2, 5)), requires_grad=True)
    c = t32(rng.normal((2, 5)))
    assert finite_diff_check(lambda t: ad.tsum(ad.softmax_lastdim(t) * c), x) < F32_TOL


# -- grouped conv ---------------------------------------------------------------


def test_grouped_conv_depthwise_kernel1_identity():
    c = 4
    x = t32(Rng(47, 1).normal((6, c)))
    w = t32(np.ones((c, 1, 1)))
    b = t32(np.zeros(c))
    out = ad.grouped_conv1d(x, w, b, groups=c)
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_grouped_conv_hand_computed():
    # t=3, c=2, G=1, kernel=3; zero padding of one frame each side.
    x = t32([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    w = np.zeros((2, 2, 3), dtype=np.float32)
    # out channel 0: previous frame of input channel 0
    w[0, 0, 0] = 1.0
    # out channel 1: current frame of channel 1, doubled
    w[1, 1, 1] = 2.0
    out = ad.grouped_conv1d(x, t32(w), t32([10.0, 0.0]), groups=1)
    expected = np.array([[10.0, 4.0], [11.0, 8.0], [13.0, 12.0]], dtype=np.float32)
    np.testing.assert_array_equal(out.data, expected)


def test_grouped_conv_divisibility_error():
    with pytest.raises(ConfigurationError):
        ad.grouped_conv1d(t32(np.zeros((4, 6))), t32(np.zeros((6, 2, 3))), t32(np.zeros(6)), groups=4)


def test_grouped_conv_even_kernel_rejected():
    with pytest.raises(DimensionError, match="odd"):
        ad.grouped_conv1d(t32(np.zeros((4, 4))), t32(np.zeros((4, 2, 4))), t32(np.zeros(4)), groups=2)


def test_grouped_conv_gradcheck_5x4_g2_k3():
    rng = Rng(48, 1)
    x = t32(rng.normal((5, 4)), requires_grad=True)
    w = t32(rng.normal((4, 2, 3)) * 0.4, requires_grad=True)
    b = t32(rng.normal(4) * 0.1, requires_grad=True)
    c = t32(rng.normal((5, 4)))
    assert finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(t, w, b, 2) * c), x) < F32_TOL
    assert finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(x, t, b, 2) * c), w) < F32_TOL
    assert finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(x, w, t, 2) * c), b) < F32_TOL


# -- slice_prefix ----------------------------------------------------------------


def test_slice_prefix_values():
    out = ad.slice_prefix(t32([1.0, 2.0, 3.0, 4.0]), 0, 2)
    np.testing.assert_array_equal(out.data, [1.0, 2.0])


def test_slice_prefix_full_extent_is_identity():
    x = t32([5.0, 6.0, 7.0])
    np.testing.assert_array_equal(ad.slice_prefix(x, 0, 3).data, x.data)


def test_slice_prefix_out_of_range():
    with pytest.raises(DimensionError):
        ad.slice_prefix(t32([1.0, 2.0]), 0, 3)


def test_slice_prefix_gradient_exact():
    x = t32(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    ad.tsum(ad.slice_prefix(x, 1, 2)).backward()
    expected = np.array([[1, 1, 0], [1, 1, 0]], dtype=np.float32)
    np.testing.assert_array_equal(x.grad, expected)


# -- finite_diff_check contract ---------------------------------------------------


def test_finite_diff_sum_error_zero():
    x = t32(Rng(49, 1).normal(7), requires_grad=True)
    assert finite_diff_check(lambda t: ad.tsum(t), x) == 0.0


def test_finite_diff_square_matches_analytic():
    x = t32([1.0, 2.0], requires_grad=True)
    err = finite_diff_check(lambda t: ad.tsum(t * t), x)
    assert err < 1e-4
    # The autodiff gradient itself equals [2, 4].
    y = ad.tsum(x * x)
    x.zero_grad()
    y.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-6)


def test_finite_diff_rejects_nonscalar():
    x = t32(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        finite_diff_check(lambda t: t * 2.0, x)


def test_finite_diff_composite_attention_block():
    rng = Rng(50, 1)
    wq = t32(rng.normal((6, 6)) * 0.4, requires_grad=True)
    x = t32(rng.normal((4, 6)), requires_grad=True)
    c = t32(rng.normal((4, 6)))

    def block(inp):
        q = ad.matmul(inp, wq)
        scores = ad.matmul(q, ad.transpose(q)) * (1.0 / np.sqrt(6.0))
        att = ad.matmul(ad.softmax_lastdim(scores), inp)
        return ad.tsum(ad.gelu(att) * c)

    assert finite_diff_check(block, x) < F32_TOL


# -- randomized per-op property sweep ---------------------------------------------


def _rand_shape(rng, lo=1, hi=6, ndim=2):
    return tuple(int(rng.integers(lo, hi + 1)) for _ in range(ndim))


@pytest.mark.parametrize("op_name", [
    "matmul", "layer_norm", "gelu", "softmax", "grouped_conv1d", "slice_prefix",
    "add", "mul", "abs", "linear_prefix", "attention", "attention_seqs",
    "linear_prefix_seqs", "layer_norm_seqs", "grouped_conv1d_seqs", "mask_rows", "mask_rows_seqs",
])
def test_gradcheck_randomized_trials_f32(op_name):
    _sweep(op_name, np.float32, F32_TOL)


@pytest.mark.parametrize("op_name", [
    "matmul", "layer_norm", "gelu", "softmax", "grouped_conv1d", "slice_prefix",
    "add", "mul", "abs", "linear_prefix", "attention", "attention_seqs",
    "linear_prefix_seqs", "layer_norm_seqs", "grouped_conv1d_seqs", "mask_rows", "mask_rows_seqs",
])
def test_gradcheck_randomized_trials_f64(op_name):
    with ad.precision(np.float64):
        _sweep(op_name, np.float64, F64_TOL)


def _sweep(op_name, dtype, tol):
    seed = 1000 + sum(op_name.encode())
    rng = Rng(seed, 3)
    for trial in range(N_TRIALS):
        err = _one_gradcheck(op_name, rng, dtype)
        assert err < tol, f"{op_name} trial {trial}: rel err {err} >= {tol}"


def _one_gradcheck(op_name, rng, dtype):
    def T(arr, rg=False):
        return Tensor(np.asarray(arr, dtype=dtype), requires_grad=rg)

    if op_name == "matmul":
        m, k, n = _rand_shape(rng, 1, 5, 3)
        a = T(rng.normal((m, k)), rg=True)
        b = T(rng.normal((k, n)))
        return finite_diff_check(lambda t: ad.tsum(ad.matmul(t, b)), a)
    if op_name == "layer_norm":
        t_len, d = _rand_shape(rng, 3, 6)
        raw = rng.normal((t_len, d))
        # Condition each row to O(1) variance; near-constant rows make the
        # f32 statistics ill-conditioned, which is measurement noise, not a
        # gradient defect.
        raw = (raw - raw.mean(axis=-1, keepdims=True)) / raw.std(axis=-1, keepdims=True)
        raw *= (rng.uniform((t_len, 1)) * 0.7 + 0.7)
        x = T(raw, rg=True)
        g = T(rng.normal(d) * 0.2 + 1.0)
        b = T(rng.normal(d))
        c = T(rng.normal((t_len, d)))
        return finite_diff_check(lambda t: ad.tsum(ad.layer_norm(t, g, b) * c), x)
    if op_name == "gelu":
        x = T(rng.normal(_rand_shape(rng)), rg=True)
        c = T(rng.normal(x.shape))
        return finite_diff_check(lambda t: ad.tsum(ad.gelu(t) * c), x)
    if op_name == "softmax":
        x = T(rng.normal(_rand_shape(rng, 2, 6)), rg=True)
        c = T(rng.normal(x.shape))
        return finite_diff_check(lambda t: ad.tsum(ad.softmax_lastdim(t) * c), x)
    if op_name == "grouped_conv1d":
        groups = int(rng.integers(1, 3))
        cg = int(rng.integers(1, 3))
        c_ch = groups * cg
        t_len = int(rng.integers(2, 6))
        k = 2 * int(rng.integers(0, 2)) + 1
        x = T(rng.normal((t_len, c_ch)), rg=True)
        w = T(rng.normal((c_ch, cg, k)) * 0.4)
        b = T(rng.normal(c_ch) * 0.1)
        cw = T(rng.normal((t_len, c_ch)))
        return finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(t, w, b, groups) * cw), x)
    if op_name == "slice_prefix":
        shape = _rand_shape(rng, 2, 6)
        dim = int(rng.integers(0, 2))
        n = int(rng.integers(1, shape[dim] + 1))
        x = T(rng.normal(shape), rg=True)
        sliced_shape = list(shape)
        sliced_shape[dim] = n
        c = T(rng.normal(tuple(sliced_shape)))
        return finite_diff_check(lambda t: ad.tsum(ad.slice_prefix(t, dim, n) * c), x)
    if op_name == "add":
        shape = _rand_shape(rng)
        x = T(rng.normal(shape), rg=True)
        b = T(rng.normal(shape[-1]))
        c = T(rng.normal(shape))
        return finite_diff_check(lambda t: ad.tsum((t + b) * c), x)
    if op_name == "mul":
        shape = _rand_shape(rng)
        x = T(rng.normal(shape), rg=True)
        col = T(rng.normal((shape[0], 1)))
        return finite_diff_check(lambda t: ad.tsum(t * col), x)
    if op_name == "abs":
        # Stay away from the |.| kink: the probe step is ~1e-3.
        x = T(rng.normal(_rand_shape(rng)) + 3.0, rg=True)
        c = T(rng.uniform(x.shape) + 0.5)
        return finite_diff_check(lambda t: ad.tsum(ad.tabs(t) * c), x)
    if op_name == "linear_prefix":
        rows, cols = _rand_shape(rng, 1, 5)
        n_in, n_out = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
        x = T(rng.normal((int(rng.integers(1, 5)), n_in)), rg=True)
        w = T(rng.normal((rows, cols)), rg=True)
        b = T(rng.normal(cols), rg=True)
        c = T(rng.normal((x.shape[0], n_out)))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(t, w, b, n_in, n_out) * c), x),
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(x, t, b, n_in, n_out) * c), w),
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(x, w, t, n_in, n_out) * c), b),
        )
    if op_name == "attention":
        # At least three frames: with two, a head's q gradient is a multiple
        # of k0 - k1, and a component where the keys nearly agree gives an
        # entry far below what central differences resolve at |f| ~ 1 (the
        # near-constant layer-norm rows above are the same measurement noise).
        heads, hd = _rand_shape(rng, 1, 3)
        t_len = int(rng.integers(3, 7))
        q, k, v = (T(rng.normal((t_len, heads * hd)), rg=True) for _ in range(3))
        c = T(rng.normal(q.shape))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.attention(t, k, v, heads) * c), q),
            finite_diff_check(lambda t: ad.tsum(ad.attention(q, t, v, heads) * c), k),
            finite_diff_check(lambda t: ad.tsum(ad.attention(q, k, t, heads) * c), v),
        )
    if op_name == "attention_seqs":
        # Two or three sequences stacked as rows, each attending only within itself.
        heads, hd = _rand_shape(rng, 1, 3)
        seqs, t_len = int(rng.integers(2, 4)), int(rng.integers(3, 6))
        q, k, v = (T(rng.normal((seqs * t_len, heads * hd)), rg=True) for _ in range(3))
        c = T(rng.normal(q.shape))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.attention(t, k, v, heads, seqs) * c), q),
            finite_diff_check(lambda t: ad.tsum(ad.attention(q, t, v, heads, seqs) * c), k),
            finite_diff_check(lambda t: ad.tsum(ad.attention(q, k, t, heads, seqs) * c), v),
        )
    if op_name == "linear_prefix_seqs":
        # Two or three sequences stacked as rows, a prefix box of a larger weight.
        seqs, t_len = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        rows, cols = _rand_shape(rng, 2, 5)
        n_in, n_out = int(rng.integers(1, rows + 1)), int(rng.integers(1, cols + 1))
        x = T(rng.normal((seqs * t_len, n_in)), rg=True)
        w = T(rng.normal((rows, cols)), rg=True)
        b = T(rng.normal(cols), rg=True)
        c = T(rng.normal((x.shape[0], n_out)))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(t, w, b, n_in, n_out, seqs) * c), x),
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(x, t, b, n_in, n_out, seqs) * c), w),
            finite_diff_check(lambda t: ad.tsum(ad.linear_prefix(x, w, t, n_in, n_out, seqs) * c), b),
        )
    if op_name == "layer_norm_seqs":
        seqs, t_len = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(3, 6))
        raw = rng.normal((seqs * t_len, d))
        raw = (raw - raw.mean(axis=-1, keepdims=True)) / raw.std(axis=-1, keepdims=True)
        x = T(raw * (rng.uniform((seqs * t_len, 1)) * 0.7 + 0.7), rg=True)
        extra = int(rng.integers(0, 3))  # gain and bias longer than d: a prefix box
        g = T(rng.normal(d + extra) * 0.2 + 1.0, rg=True)
        b = T(rng.normal(d + extra), rg=True)
        c = T(rng.normal(x.shape))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.layer_norm(t, g, b, seqs=seqs) * c), x),
            finite_diff_check(lambda t: ad.tsum(ad.layer_norm(x, t, b, seqs=seqs) * c), g),
            finite_diff_check(lambda t: ad.tsum(ad.layer_norm(x, g, t, seqs=seqs) * c), b),
        )
    if op_name == "grouped_conv1d_seqs":
        groups, cg = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        seqs, t_len = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        k = 2 * int(rng.integers(0, 2)) + 1
        c_ch = groups * cg
        x = T(rng.normal((seqs * t_len, c_ch)), rg=True)
        w = T(rng.normal((c_ch + groups, cg + 1, k)) * 0.4, rg=True)  # a prefix box is used
        b = T(rng.normal(c_ch + 1) * 0.1, rg=True)
        cw = T(rng.normal(x.shape))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(t, w, b, groups, seqs) * cw), x),
            finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(x, t, b, groups, seqs) * cw), w),
            finite_diff_check(lambda t: ad.tsum(ad.grouped_conv1d(x, w, t, groups, seqs) * cw), b),
        )
    if op_name in ("mask_rows", "mask_rows_seqs"):
        seqs = int(rng.integers(2, 4)) if op_name == "mask_rows_seqs" else 1
        t_len, d = _rand_shape(rng, 2, 5)
        x = T(rng.normal((seqs * t_len, d)), rg=True)
        emb = T(rng.normal(d + int(rng.integers(0, 3))), rg=True)
        rows = np.nonzero(rng.uniform(seqs * t_len) < 0.5)[0]
        c = T(rng.normal(x.shape))
        return max(
            finite_diff_check(lambda t: ad.tsum(ad.mask_rows(t, emb, rows, seqs) * c), x),
            finite_diff_check(lambda t: ad.tsum(ad.mask_rows(x, t, rows, seqs) * c), emb),
        )
    raise AssertionError(op_name)


# -- fused ops against their compositions, bit for bit ------------------------------


def _twins(rng, shape, rg=True, scale=1.0):
    """Two independent tensors holding the same float32 values."""
    arr = (rng.normal(shape) * scale).astype(np.float32)
    return Tensor(arr.copy(), requires_grad=rg), Tensor(arr.copy(), requires_grad=rg)


def _grads(*tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _assert_same(a, b):
    for x, y in zip(a, b):
        assert (x is None) == (y is None)
        if x is not None:
            assert np.array_equal(x, y)


@pytest.mark.parametrize("n_in,n_out,frozen", [
    (24, 20, False),  # whole extent
    (16, 12, False),  # strict prefix in both dims
    (24, 12, False),  # strict prefix of the columns only
    (16, 20, True),   # frozen weight and bias
])
def test_linear_prefix_equals_slice_matmul_add_bitwise(n_in, n_out, frozen):
    rng = Rng(53, 1)
    x1, x2 = _twins(rng, (16, n_in))
    w1, w2 = _twins(rng, (24, 20), rg=not frozen, scale=0.3)
    b1, b2 = _twins(rng, (20,), rg=not frozen)
    c = Tensor(rng.normal((16, n_out)).astype(np.float32))

    y1 = ad.linear_prefix(x1, w1, b1, n_in, n_out)
    ws = ad.slice_prefix(ad.slice_prefix(w2, 0, n_in), 1, n_out)
    y2 = ad.matmul(x2, ws) + ad.slice_prefix(b2, 0, n_out)
    assert np.array_equal(y1.data, y2.data)
    ad.tsum(y1 * c).backward()
    ad.tsum(y2 * c).backward()
    _assert_same(_grads(x1, w1, b1), _grads(x2, w2, b2))
    assert (w1.grad is None) == frozen


def test_linear_prefix_two_boxes_of_one_weight_accumulate_like_the_composition():
    # The second use adds into w.grad where the first one left it.
    rng = Rng(54, 1)
    x1, x2 = _twins(rng, (8, 12))
    w1, w2 = _twins(rng, (12, 10), scale=0.3)
    b1, b2 = _twins(rng, (10,))
    fused = ad.tsum(ad.linear_prefix(x1, w1, b1, 12, 10)) + ad.tsum(
        ad.gelu(ad.linear_prefix(ad.slice_prefix(x1, 1, 6), w1, b1, 6, 4)))

    def composed(x, n_in, n_out):
        ws = ad.slice_prefix(ad.slice_prefix(w2, 0, n_in), 1, n_out)
        return ad.matmul(x, ws) + ad.slice_prefix(b2, 0, n_out)

    ref = ad.tsum(composed(x2, 12, 10)) + ad.tsum(ad.gelu(composed(ad.slice_prefix(x2, 1, 6), 6, 4)))
    assert fused.item() == ref.item()
    fused.backward()
    ref.backward()
    _assert_same(_grads(x1, w1, b1), _grads(x2, w2, b2))


def test_linear_prefix_box_out_of_range():
    w, b = t32(np.zeros((4, 3))), t32(np.zeros(3))
    with pytest.raises(DimensionError, match="box"):
        ad.linear_prefix(t32(np.zeros((2, 4))), w, b, 4, 5)
    with pytest.raises(DimensionError, match="input"):
        ad.linear_prefix(t32(np.zeros((2, 3))), w, b, 4, 3)


@pytest.mark.parametrize("heads,hd,t_len,k_frozen", [
    (1, 8, 16, False),
    (4, 8, 16, False),
    (8, 8, 128, False),  # the desk teacher's attention
    (3, 5, 7, True),
])
def test_attention_equals_per_head_composition_bitwise(heads, hd, t_len, k_frozen):
    rng = Rng(55, heads)
    q1, q2 = _twins(rng, (t_len, heads * hd))
    k1, k2 = _twins(rng, (t_len, heads * hd), rg=not k_frozen)
    v1, v2 = _twins(rng, (t_len, heads * hd))
    c = Tensor(rng.normal((t_len, heads * hd)).astype(np.float32))

    y1 = ad.attention(q1, k1, v1, heads)
    y2 = _attention(q2, k2, v2, heads, hd)  # the per-head composition in reference_forward
    assert np.array_equal(y1.data, y2.data)
    ad.tsum(y1 * c).backward()
    ad.tsum(y2 * c).backward()
    _assert_same(_grads(q1, k1, v1), _grads(q2, k2, v2))
    assert (k1.grad is None) == k_frozen


@pytest.mark.parametrize("seqs,heads,hd,t_len", [
    (2, 1, 8, 16),
    (3, 4, 8, 16),
    (2, 4, 8, 128),  # the desk search stack: two 128-frame batches
    (3, 3, 5, 7),
])
def test_attention_over_stacked_sequences_equals_per_sequence_calls_bitwise(seqs, heads, hd, t_len):
    rng = Rng(56, seqs * heads)
    shape = (seqs * t_len, heads * hd)
    arrays = [rng.normal(shape).astype(np.float32) for _ in range(3)]
    c = rng.normal(shape).astype(np.float32)
    stacked = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = ad.attention(*stacked, heads, seqs)
    ad.tsum(y * Tensor(c)).backward()

    for s in range(seqs):
        rows = slice(s * t_len, (s + 1) * t_len)
        alone = [Tensor(a[rows].copy(), requires_grad=True) for a in arrays]
        ys = ad.attention(*alone, heads)
        assert np.array_equal(y.data[rows], ys.data)
        ad.tsum(ys * Tensor(c[rows])).backward()
        for whole, part in zip(stacked, alone):
            assert np.array_equal(whole.grad[rows], part.grad)


def test_attention_shape_errors():
    z = t32(np.zeros((4, 6)))
    with pytest.raises(DimensionError):
        ad.attention(z, z, z, 4)
    with pytest.raises(DimensionError):
        ad.attention(z, t32(np.zeros((3, 6))), z, 2)
    with pytest.raises(DimensionError):
        ad.attention(z, z, z, 0)
    with pytest.raises(DimensionError):
        ad.attention(z, z, z, 2, seqs=3)  # 4 rows are not 3 equal sequences
    with pytest.raises(DimensionError):
        ad.attention(z, z, z, 2, seqs=0)


# -- chain-rule consistency through slicing ----------------------------------------


def test_backward_through_sliced_op_matches_composition():
    # gelu(slice(x)) built two ways must give identical input gradients.
    rng = Rng(51, 1)
    base = rng.normal((4, 6)).astype(np.float32)
    c = Tensor(rng.normal((4, 3)).astype(np.float32))

    x1 = Tensor(base.copy(), requires_grad=True)
    ad.tsum(ad.gelu(ad.slice_prefix(x1, 1, 3)) * c).backward()

    x2 = Tensor(base.copy(), requires_grad=True)
    sliced = ad.slice_prefix(x2, 1, 3)
    ad.tsum(ad.gelu(sliced) * c).backward()

    np.testing.assert_array_equal(x1.grad, x2.grad)
    # and against the dense route: gelu on the full tensor, graded on the prefix
    x3 = Tensor(base.copy(), requires_grad=True)
    full = ad.gelu(x3)
    ad.tsum(ad.slice_prefix(full, 1, 3) * c).backward()
    np.testing.assert_allclose(x3.grad, x1.grad, atol=1e-7)


# -- graph mechanics -----------------------------------------------------------------


def test_backward_visits_each_node_once_diamond():
    # y = x*x + x*x reuses the same intermediate; correct accumulation
    # requires exactly one visit per node.
    x = t32([3.0], requires_grad=True)
    sq = x * x
    y = ad.tsum(sq + sq)
    y.backward()
    np.testing.assert_allclose(x.grad, [12.0])  # d/dx 2x^2 = 4x


def test_graph_topological_order():
    x = t32([1.0, 2.0], requires_grad=True)
    a = x * 2.0
    b = a + 1.0
    y = ad.tsum(b)
    nodes = ComputeGraph.from_root(y).nodes
    pos = {id(n): i for i, n in enumerate(nodes)}
    assert pos[id(x)] < pos[id(a)] < pos[id(b)] < pos[id(y)]
    assert len(nodes) == len(set(id(n) for n in nodes))


def test_requires_grad_leaves_have_grad_buffers_after_backward():
    x = t32([1.0], requires_grad=True)
    w = t32([2.0], requires_grad=True)
    const = t32([5.0])
    y = ad.tsum(x * w + const)
    y.backward()
    assert x.grad is not None and w.grad is not None
    assert const.grad is None


def test_backward_requires_scalar_root():
    x = t32([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_no_grad_records_no_graph():
    x = t32([1.0], requires_grad=True)
    with ad.no_grad():
        y = x * 3.0
    assert y.requires_grad is False and y._parents == ()


def test_no_grad_is_thread_local():
    # Concurrent no-grad evaluators must not disable recording elsewhere.
    import threading

    stop = threading.Event()
    def spin_no_grad():
        x = t32([1.0], requires_grad=True)
        while not stop.is_set():
            with ad.no_grad():
                _ = x * 2.0
    workers = [threading.Thread(target=spin_no_grad) for _ in range(4)]
    for w in workers:
        w.start()
    try:
        x = t32([2.0], requires_grad=True)
        for _ in range(200):
            y = x * 3.0
            assert y.requires_grad, "worker thread no_grad leaked into this thread"
    finally:
        stop.set()
        for w in workers:
            w.join()
    y = t32([1.0], requires_grad=True) * 5.0
    assert y.requires_grad


def test_precision_is_thread_local():
    # A float64 verification in one thread must not widen tensors made elsewhere.
    import threading

    stop = threading.Event()
    seen = []

    def spin_float64():
        while not stop.is_set():
            with ad.precision(np.float64):
                seen.append(Tensor([1]).dtype)
    workers = [threading.Thread(target=spin_float64) for _ in range(4)]
    for w in workers:
        w.start()
    try:
        for _ in range(200):
            assert Tensor([1]).dtype == np.float32, "worker thread precision leaked into this thread"
            assert ad.default_dtype() == np.float32
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    assert seen and all(dt == np.float64 for dt in seen)
    with ad.precision(np.float64):
        assert Tensor([1]).dtype == np.float64
    assert Tensor([1]).dtype == np.float32


def test_precision_rejects_non_float_dtypes():
    with pytest.raises(ContractError):
        with ad.precision(np.int32):
            pass


# -- determinism ------------------------------------------------------------------


def test_ops_bitwise_deterministic_under_seed():
    def run():
        rng = Rng(99, 5)
        x = Tensor(rng.normal((6, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal((8, 8)).astype(np.float32), requires_grad=True)
        g = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        y = ad.tsum(ad.gelu(ad.layer_norm(ad.matmul(x, w), g, b)))
        y.backward()
        return y.item(), x.grad.copy(), w.grad.copy()

    v1, gx1, gw1 = run()
    v2, gx2, gw2 = run()
    assert v1 == v2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_finite_values_preserved_through_pipeline():
    rng = Rng(52, 1)
    x = t32(rng.uniform((20, 10)) * 20.0 - 10.0)
    y = ad.softmax_lastdim(ad.gelu(x) * 50.0)
    assert np.all(np.isfinite(y.data))


# -- stacked sequences against one call per sequence, bit for bit -------------------


def _per_sequence_equal_stacked(op, seqs, t_len, x_arr, params, cotangent):
    """op(x, *params, seqs) on the stack against op(x_s, *params, 1) per sequence.

    Each side has its own leaves with the same values; the per-sequence side
    runs one graph and one backward per sequence, accumulating the parameter
    gradients as separate training passes do. Values, the input gradient and
    every parameter gradient must agree bit for bit.
    """
    stacked_x = Tensor(x_arr.copy(), requires_grad=True)
    stacked_p = [Tensor(p.copy(), requires_grad=True) for p in params]
    y = op(stacked_x, *stacked_p, seqs)
    ad.tsum(y * Tensor(cotangent)).backward()

    alone_p = [Tensor(p.copy(), requires_grad=True) for p in params]
    for s in range(seqs):
        rows = slice(s * t_len, (s + 1) * t_len)
        xs = Tensor(x_arr[rows].copy(), requires_grad=True)
        ys = op(xs, *alone_p, 1)
        assert y.data[rows].tobytes() == ys.data.tobytes(), s
        ad.tsum(ys * Tensor(cotangent[rows])).backward()
        assert stacked_x.grad[rows].tobytes() == xs.grad.tobytes(), s
    for whole, alone in zip(stacked_p, alone_p):
        assert whole.grad.tobytes() == alone.grad.tobytes()


# The desk student's and teacher's layers: (rows of x, n_in, n_out) in a larger weight.
_DESK_LINEARS = [(128, 16, 32), (128, 16, 64), (128, 32, 64), (128, 48, 96), (128, 64, 256),
                 (128, 256, 64), (128, 96, 48), (128, 64, 64), (128, 32, 64), (16, 12, 8)]


@pytest.mark.parametrize("seqs", [2, 3, 4])
@pytest.mark.parametrize("t_len,n_in,n_out", _DESK_LINEARS)
def test_linear_prefix_over_stacked_sequences_equals_per_sequence_calls_bitwise(seqs, t_len, n_in, n_out):
    rng = Rng(57, n_in * n_out + seqs)
    x = rng.normal((seqs * t_len, n_in)).astype(np.float32)
    w = (rng.normal((n_in + 8, n_out + 16)) * 0.2).astype(np.float32)
    b = rng.normal(n_out + 16).astype(np.float32)
    c = rng.normal((seqs * t_len, n_out)).astype(np.float32)
    _per_sequence_equal_stacked(lambda x_, w_, b_, s: ad.linear_prefix(x_, w_, b_, n_in, n_out, s),
                                seqs, t_len, x, [w, b], c)


@pytest.mark.parametrize("seqs,t_len,d,extra", [(2, 128, 64, 0), (4, 128, 32, 32), (3, 128, 48, 16), (3, 5, 7, 2)])
def test_layer_norm_over_stacked_sequences_equals_per_sequence_calls_bitwise(seqs, t_len, d, extra):
    rng = Rng(58, d + seqs)
    x = rng.normal((seqs * t_len, d)).astype(np.float32)
    g = (rng.normal(d + extra) * 0.2 + 1.0).astype(np.float32)
    b = rng.normal(d + extra).astype(np.float32)
    c = rng.normal((seqs * t_len, d)).astype(np.float32)
    _per_sequence_equal_stacked(lambda x_, g_, b_, s: ad.layer_norm(x_, g_, b_, 1e-5, s), seqs, t_len, x, [g, b], c)


@pytest.mark.parametrize("seqs,t_len,c_ch,max_ch", [
    (4, 128, 32, 64),  # the desk conv at e = 32 (8 channels per group) in the 64-wide weight
    (4, 128, 48, 64),
    (2, 128, 64, 64),
    (3, 9, 8, 12),
])
def test_grouped_conv1d_over_stacked_sequences_equals_per_sequence_calls_bitwise(seqs, t_len, c_ch, max_ch):
    rng = Rng(59, c_ch + seqs)
    x = rng.normal((seqs * t_len, c_ch)).astype(np.float32)
    w = (rng.normal((max_ch, max_ch // 4, 7)) * 0.2).astype(np.float32)
    b = rng.normal(max_ch).astype(np.float32)
    c = rng.normal((seqs * t_len, c_ch)).astype(np.float32)
    _per_sequence_equal_stacked(lambda x_, w_, b_, s: ad.grouped_conv1d(x_, w_, b_, 4, s), seqs, t_len, x, [w, b], c)


@pytest.mark.parametrize("seqs,t_len,d,max_d", [(4, 128, 32, 64), (2, 128, 64, 64), (3, 7, 5, 6)])
def test_mask_rows_over_stacked_sequences_equals_per_sequence_calls_bitwise(seqs, t_len, d, max_d):
    rng = Rng(60, d + seqs)
    x = rng.normal((seqs * t_len, d)).astype(np.float32)
    emb = rng.normal(max_d).astype(np.float32)
    c = rng.normal((seqs * t_len, d)).astype(np.float32)
    masks = [np.nonzero(rng.uniform(t_len) < 0.6)[0] for _ in range(seqs)]
    stacked_rows = np.concatenate([m + s * t_len for s, m in enumerate(masks)])
    calls = iter([])

    def op(x_, emb_, s):
        nonlocal calls
        if s > 1:
            calls = iter(masks)
            return ad.mask_rows(x_, emb_, stacked_rows, s)
        return ad.mask_rows(x_, emb_, next(calls), 1)

    _per_sequence_equal_stacked(op, seqs, t_len, x, [emb], c)


@pytest.mark.parametrize("op", ["layer_norm", "grouped_conv1d", "mask_rows"])
def test_prefix_box_ops_equal_slicing_the_parameter_first_bitwise(op):
    # Reading a parameter's prefix box in the op equals slice_prefix and then the op.
    rng = Rng(61, len(op))
    x_arr = rng.normal((16, 8)).astype(np.float32)
    if op == "layer_norm":
        params = [(rng.normal(12) * 0.2 + 1.0).astype(np.float32), rng.normal(12).astype(np.float32)]
        run = ad.layer_norm
        prefix = [lambda p: ad.slice_prefix(p, 0, 8)] * 2
    elif op == "grouped_conv1d":
        params = [(rng.normal((12, 3, 3)) * 0.3).astype(np.float32), rng.normal(12).astype(np.float32)]
        run = lambda x, w, b: ad.grouped_conv1d(x, w, b, 4)
        prefix = [lambda p: ad.slice_prefix(ad.slice_prefix(p, 0, 8), 1, 2), lambda p: ad.slice_prefix(p, 0, 8)]
    else:
        params = [rng.normal(12).astype(np.float32)]
        run = lambda x, e: ad.mask_rows(x, e, np.array([1, 2, 7, 11]))
        prefix = [lambda p: ad.slice_prefix(p, 0, 8)]
    c = Tensor(rng.normal((16, 8)).astype(np.float32))
    x1, x2 = Tensor(x_arr.copy(), requires_grad=True), Tensor(x_arr.copy(), requires_grad=True)
    p1 = [Tensor(p.copy(), requires_grad=True) for p in params]
    p2 = [Tensor(p.copy(), requires_grad=True) for p in params]
    y1 = run(x1, *p1)
    y2 = run(x2, *[f(p) for f, p in zip(prefix, p2)])
    assert y1.data.tobytes() == y2.data.tobytes()
    ad.tsum(y1 * c).backward()
    ad.tsum(y2 * c).backward()
    _assert_same(_grads(x1, *p1), _grads(x2, *p2))


def test_mask_rows_equals_the_elementwise_composition_bitwise():
    rng = Rng(62, 1)
    x_arr = rng.normal((12, 4)).astype(np.float32)
    emb_arr = rng.normal(4).astype(np.float32)
    rows = np.array([0, 3, 4, 5, 10])
    c = Tensor(rng.normal((12, 4)).astype(np.float32))
    x1, e1 = Tensor(x_arr.copy(), requires_grad=True), Tensor(emb_arr.copy(), requires_grad=True)
    x2, e2 = Tensor(x_arr.copy(), requires_grad=True), Tensor(emb_arr.copy(), requires_grad=True)
    covered = np.zeros((12, 1), dtype=np.float32)
    covered[rows] = 1.0
    col = Tensor(covered)
    y1 = ad.mask_rows(x1, e1, rows)
    y2 = x2 * (1.0 - col) + e2 * col
    assert y1.data.tobytes() == y2.data.tobytes()
    ad.tsum(y1 * c).backward()
    ad.tsum(y2 * c).backward()
    _assert_same(_grads(x1, e1), _grads(x2, e2))


def test_stacked_ops_refuse_rows_that_do_not_split_into_sequences():
    x = t32(np.zeros((5, 4)))
    with pytest.raises(DimensionError, match="sequences"):
        ad.linear_prefix(x, t32(np.zeros((4, 4))), t32(np.zeros(4)), 4, 4, 2)
    with pytest.raises(DimensionError, match="sequences"):
        ad.layer_norm(x, t32(np.ones(4)), t32(np.zeros(4)), seqs=3)
    with pytest.raises(DimensionError, match="sequences"):
        ad.grouped_conv1d(x, t32(np.zeros((4, 1, 3))), t32(np.zeros(4)), 4, 2)
    with pytest.raises(DimensionError, match="sequences"):
        ad.mask_rows(x, t32(np.zeros(4)), [0], 2)
    with pytest.raises(DimensionError):
        ad.mask_rows(x, t32(np.zeros(3)), [0])


# -- the tape is freed as backward runs ---------------------------------------------


def test_backward_frees_intermediates_and_leaves_keep_their_grads():
    rng = Rng(63, 1)
    x = t32(rng.normal((6, 4)), requires_grad=True)
    w = t32(rng.normal((4, 3)), requires_grad=True)
    b = t32(rng.normal(3), requires_grad=True)
    const = t32(rng.normal((6, 3)))
    h = ad.linear_prefix(x, w, b, 4, 3)
    a = ad.gelu(h)
    y = ad.tsum(a * const + h)
    nodes = ComputeGraph.from_root(y).nodes
    inner = [n for n in nodes if n._vjp is not None]
    assert len(inner) == 5
    y.backward()
    for n in inner:
        assert n.grad is None and n._vjp is None and n._parents == ()
    assert all(t.grad is not None for t in (x, w, b))
    assert const.grad is None


def test_a_fortran_ordered_first_contribution_sums_like_zeros_then_add():
    # h's only gradient arrives as c.T, a Fortran-ordered view. The bias
    # gradient sums h's gradient over rows, and must do so in the order a
    # zeroed C-ordered buffer gives, not in the transposed view's order.
    rng = Rng(64, 1)
    x = t32(rng.normal((64, 8)), requires_grad=True)
    w = t32(rng.normal((8, 16)), requires_grad=True)
    b = t32(rng.normal(16), requires_grad=True)
    c = rng.normal((16, 64)).astype(np.float32)
    h = ad.linear_prefix(x, w, b, 8, 16)
    ad.tsum(ad.transpose(h) * Tensor(c)).backward()
    zeros_then_add = np.zeros((64, 16), dtype=np.float32)
    zeros_then_add += c.T
    assert b.grad.tobytes() == zeros_then_add.sum(axis=0).tobytes()
    assert w.grad.tobytes() == (x.data.T @ zeros_then_add).tobytes()
    assert c.T.sum(axis=0).tobytes() != zeros_then_add.sum(axis=0).tobytes()  # the order shows


# -- the fused masked L1 ---------------------------------------------------------------


def _span_masks(rng, seqs, t_len, convention):
    from ofat.distill import MaskSpec, span_mask

    spec = MaskSpec(p=0.4, span_length=2, convention=convention)
    return [span_mask(t_len, spec, rng) for _ in range(seqs)]


@pytest.mark.parametrize("dtype,tol", [(np.float32, F32_TOL), (np.float64, F64_TOL)])
@pytest.mark.parametrize("seqs", [1, 3, 4])
@pytest.mark.parametrize("convention", ["fraction", "span_start"])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_masked_l1_gradcheck(reduction, convention, seqs, dtype, tol):
    rng = Rng(64, seqs)
    with ad.precision(dtype):
        for _ in range(4):
            t_len, d = _rand_shape(rng, 3, 6)
            mask = ad.LossMask(_span_masks(rng, seqs, t_len, convention), t_len)
            # Keep |x - targets| away from the L1 kink relative to the probe step.
            tgt = rng.normal((seqs * t_len, d))
            x_arr = tgt + np.sign(rng.normal(tgt.shape)) * (0.5 + rng.uniform(tgt.shape))
            x = Tensor(x_arr.astype(dtype), requires_grad=True)
            targets = Tensor(tgt.astype(dtype))
            c = Tensor(rng.normal(seqs).astype(dtype))
            err = finite_diff_check(lambda v: ad.tsum(ad.masked_l1(v, targets, mask, reduction) * c), x)
            assert err < tol, (t_len, d, err)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seqs,t_len,d", [(1, 128, 64), (3, 128, 64), (4, 128, 64), (4, 16, 16), (3, 7, 5)])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
def test_masked_l1_equals_the_composition_per_sequence_bitwise(reduction, seqs, t_len, d, dtype):
    from conftest import reference_distill_loss

    rng = Rng(65, seqs * t_len + d)
    masks = _span_masks(rng, seqs, t_len, "fraction")
    x_arr = rng.normal((seqs * t_len, d)).astype(dtype)
    x_arr[::5] = 0.0  # rows where x equals the targets below: sign 0
    tgt = rng.normal((seqs * t_len, d)).astype(dtype)
    tgt[::5] = 0.0
    weights = rng.normal(seqs).astype(dtype)

    x = Tensor(x_arr.copy(), requires_grad=True)
    targets = Tensor(tgt.copy())
    losses = ad.masked_l1(x, targets, ad.LossMask(masks, t_len), reduction)
    assert losses.shape == (seqs,) and losses.dtype == dtype
    ad.tsum(losses * Tensor(weights)).backward()
    for s in range(seqs):
        rows = slice(s * t_len, (s + 1) * t_len)
        xs = Tensor(x_arr[rows].copy(), requires_grad=True)
        alone = reference_distill_loss(xs, Tensor(tgt[rows].copy()), masks[s], reduction)
        assert losses.data[s].tobytes() == np.asarray(alone.data).tobytes(), s
        (alone * Tensor(weights[s])).backward()
        assert x.grad[rows].tobytes() == xs.grad.tobytes(), s

    lone_x = Tensor(x_arr[:t_len].copy(), requires_grad=True)
    lone = ad.masked_l1(lone_x, Tensor(tgt[:t_len]), ad.LossMask(masks[0], t_len), reduction)
    ref_x = Tensor(x_arr[:t_len].copy(), requires_grad=True)
    ref = reference_distill_loss(ref_x, Tensor(tgt[:t_len]), masks[0], reduction)
    assert lone.shape == () and np.asarray(lone.data).tobytes() == np.asarray(ref.data).tobytes()
    lone.backward()
    ref.backward()
    assert lone_x.grad.tobytes() == ref_x.grad.tobytes()


def test_masked_l1_contract_errors():
    x = t32(np.zeros((6, 2)))
    mask = ad.LossMask([np.array([0]), np.array([1, 2])], 3)
    with pytest.raises(ContractError, match="masked step"):
        ad.LossMask([np.array([0]), np.array([], dtype=np.int64)], 3)
    with pytest.raises(ContractError, match="masked step"):
        ad.LossMask(np.array([], dtype=np.int64), 3)
    with pytest.raises(ContractError, match="masked step"):
        ad.LossMask([], 3)
    with pytest.raises(ContractError, match="shapes disagree"):
        ad.masked_l1(x, t32(np.zeros((6, 3))), mask)
    with pytest.raises(ContractError, match="unknown reduction 'max'"):
        ad.masked_l1(x, x, mask, "max")
    with pytest.raises(ContractError, match="2 sequences of 3 rows"):
        ad.masked_l1(t32(np.zeros((9, 2))), t32(np.zeros((9, 2))), mask)
    with pytest.raises(ContractError, match="2 sequences of 2 rows"):
        ad.masked_l1(x, x, ad.LossMask([np.array([0]), np.array([1])], 2))
