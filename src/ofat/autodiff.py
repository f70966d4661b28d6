"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: float32 row-major arrays (float64 behind
a per-context switch used by the gradient-check tests), a tape built from
parent pointers, and exactly the operations the encoder needs:

- elementwise add, sub, mul, neg, tabs; the reduction tsum;
- matmul, transpose, concat, slice_along, slice_prefix;
- gelu, softmax_lastdim, layer_norm, grouped_conv1d, mask_rows;
- two fused ops for the sliced supernet forward: linear_prefix (a layer on
  a prefix box of a larger weight, reading views, no weight copy) and
  attention (every head of every sequence in a row stack, one tape node);
- one fused loss, masked_l1: the masked L1 of every sequence in a row stack,
  one tape node, over the rows a LossMask names.

The ops that take parameters (linear_prefix, layer_norm, grouped_conv1d,
mask_rows) read a prefix box of a larger parameter and add into that box
of its gradient. Their `seqs` reads the rows as that many equal-length
stacked sequences: products whose rounding depends on the row count run
per sequence, and each parameter gradient is added per sequence, in order,
so results equal one call per sequence bit for bit.

Broadcasting in binary elementwise ops is limited to the patterns the
models use: equal shapes, python scalars, a trailing [d] vector against
[..., d], and a column [t, 1] against [t, d].

backward() drops each intermediate node's gradient, closure and parents
once its vector-Jacobian product has run; leaves keep their gradients.
Until then the tape holds what each closure keeps. attention and
layer_norm keep per-row statistics, not their [seqs*heads, t, t]
probabilities or [rows, d] normalized input, which backward rebuilds bit
for bit, so a training graph grows with its rows, not with t^2.

The hot ops (gelu, layer_norm, linear_prefix, attention, mask_rows,
masked_l1) run their expressions as in-place ufunc chains on one or two
new work arrays per call, so a call allocates little beyond what it
returns. Each chain runs the out-of-place expression's IEEE operations in
its order, swapping operands only of commutative ops, so values and
gradients are bitwise those of the expression. Two rules keep it so:
- a step writes into a work array only when the result_type of its
  operands is that array's dtype (_into); otherwise it allocates where the
  expression promotes, as float64 oracle probes meeting float32 parameters
  do;
- a chain never writes into g (add's vjp hands one g to both parents, and
  an intermediate node adopts it as its gradient), into a parent's data,
  or into an array a closure still reads, such as gelu's saved tanh.
tests/conftest.py keeps the out-of-place expressions as references.

Gradient correctness is enforced by :func:`finite_diff_check`, a central
finite-difference oracle that every differentiable op is tested against.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Tape recording and the default dtype are per-context, so a mode set in one
# thread changes no other; a forked walker starts with the caller's.
_DTYPE = contextvars.ContextVar("ofat_dtype", default=_FLOAT_DTYPES[0])
_GRAD_ENABLED = contextvars.ContextVar("ofat_grad_enabled", default=True)

_GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
_GELU_C1 = 0.044715


def default_dtype() -> np.dtype:
    """The dtype new tensors are created with in this context (float32 unless in precision())."""
    return _DTYPE.get()


@contextlib.contextmanager
def precision(dtype):
    """Switch this context's default dtype (the float64 verification mode)."""
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ContractError(f"unsupported dtype {dt}; use float32 or float64")
    token = _DTYPE.set(dt)
    try:
        yield
    finally:
        _DTYPE.reset(token)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording in this context (evaluation-only forwards)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """A dense float array plus an optional gradient buffer.

    Tensors are immutable after creation apart from gradient accumulation.
    Results of ops on at least one requires_grad input carry the parent
    references and the vector-Jacobian product needed for backward().
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(default_dtype())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root."""
        if self.size != 1:
            raise ContractError(f"backward() needs a scalar root, got shape {self.shape}")
        ComputeGraph.from_root(self).backward()

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


@dataclass
class ComputeGraph:
    """Topologically ordered view of the tape reachable from one root."""

    nodes: list  # topological order: parents before children

    @classmethod
    def from_root(cls, root: Tensor) -> "ComputeGraph":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)

    def backward(self) -> None:
        """Visit every node exactly once in reverse topological order, freeing
        each intermediate node (grad, vjp, parents) once its vjp has run."""
        nodes = self.nodes
        nodes[-1].grad = np.ones_like(nodes[-1].data)
        while nodes:
            node = nodes.pop()
            if node._vjp is None:
                continue
            if node.grad is not None:
                node._vjp(node.grad)
            node.grad, node._vjp, node._parents = None, None, ()


def _result(data: np.ndarray, parents, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    needs = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    if needs:
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accum(t: Tensor, g: np.ndarray) -> None:
    _accum_box(t, (), g)


def _accum_box(t: Tensor, box: tuple, g: np.ndarray) -> None:
    """Add g into the `box` region of t.grad (frozen and no-grad tensors skip). A leaf
    adds into one zeroed buffer; an intermediate node adopts its first whole-extent g,
    C-ordered so sums over it run as over a zeroed buffer, and adds the rest out of
    place, since an adopted g may be shared."""
    if not (t.requires_grad or t._vjp is not None):
        return
    if t._vjp is None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[box] += g
    elif box == () and g.shape == t.shape and g.dtype == t.dtype:
        t.grad = np.asarray(g, order="C") if t.grad is None else np.add(t.grad, g, order="C")
    else:
        grad = np.zeros(t.shape, t.dtype) if t.grad is None else t.grad.copy()
        grad[box] += g
        t.grad = grad


def _into(ufunc, a, b, work: np.ndarray) -> np.ndarray:
    """ufunc(a, b) written into `work` when the out-of-place result has work's dtype,
    else into a new array of the dtype the out-of-place expression promotes to: a
    narrower work array would round where the expression does not."""
    return ufunc(a, b, out=work if np.result_type(a, b) == work.dtype else None)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) by ndarray.mean's own two ufunc calls, without its wrapper."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def _per_seq(a: np.ndarray, seqs: int) -> np.ndarray:
    """[seqs*t, d] rows (or any leading dims over d) as [seqs, t, d]."""
    return a.reshape(seqs, -1, a.shape[-1])


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ops -------------------------------------------------------
#
# Python scalars get a dedicated path so they never widen a float32 graph
# (wrapping them in a Tensor would make float64 0-d arrays).


def _py_scalar(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def add(a, b) -> Tensor:
    if _py_scalar(b) or _py_scalar(a):
        if _py_scalar(a):
            a, b = b, a
        a = _as_tensor(a)
        s = float(b)

        def vjp_s(g):
            _accum(a, g)

        return _result(a.data + s, (a,), vjp_s)
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _result(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    if _py_scalar(b):
        return add(a, -float(b))
    if _py_scalar(a):
        return add(neg(b), float(a))
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _result(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    if _py_scalar(b) or _py_scalar(a):
        if _py_scalar(a):
            a, b = b, a
        a = _as_tensor(a)
        s = float(b)

        def vjp_s(g):
            _accum(a, g * s)

        return _result(a.data * s, (a,), vjp_s)
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        _accum(a, -g)

    return _result(-a.data, (a,), vjp)


def tabs(a) -> Tensor:
    a = _as_tensor(a)
    data = np.abs(a.data)

    def vjp(g):
        _accum(a, g * np.sign(a.data))

    return _result(data, (a,), vjp)


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    data = np.asarray(a.data.sum())

    def vjp(g):
        _accum(a, np.broadcast_to(g, a.shape).copy())

    return _result(data, (a,), vjp)


# -- linear algebra --------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def vjp(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(data, (a, b), vjp)


def linear_prefix(x, w, b, n_in: int, n_out: int, seqs: int = 1) -> Tensor:
    """x @ w[:n_in, :n_out] + b[:n_out], the layer nested in a larger one.

    The product reads views of the weight prefix box, and backward adds into
    that box of w.grad and b.grad, so a sliced layer copies no weights and
    costs one tape node.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.ndim != 2 or b.ndim != 1 or not (n_in <= w.shape[0] and 0 <= n_out <= min(w.shape[1], b.shape[0])):
        raise DimensionError(
            f"linear_prefix box [{n_in}, {n_out}] out of range for weight {w.shape} and bias {b.shape}")
    if x.ndim != 2 or x.shape[1] != n_in or x.shape[0] % seqs:
        raise DimensionError(f"linear_prefix input {x.shape} does not match prefix width {n_in} "
                             f"and {seqs} sequences")
    box = (slice(0, n_in), slice(0, n_out))
    wv = w.data[box]
    data = x.data @ wv
    data = _into(np.add, data, b.data[:n_out], data)

    def vjp(g):
        if x.requires_grad:  # not the stem's raw features
            _accum(x, g @ wv.T)
        g3 = _per_seq(g, seqs)
        for dw, db in zip(np.matmul(_per_seq(x.data, seqs).transpose(0, 2, 1), g3), g3.sum(axis=1)):
            _accum_box(w, box, dw)
            _accum_box(b, box[1:], db)

    return _result(data, (x, w, b), vjp)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got {a.shape}")

    def vjp(g):
        _accum(a, g.T)

    return _result(a.data.T.copy(), (a,), vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def vjp(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, g[tuple(idx)])

    return _result(data, tuple(tensors), vjp)


def slice_along(a, dim: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one dimension; backward scatters into place."""
    a = _as_tensor(a)
    if not (0 <= start <= stop <= a.shape[dim]):
        raise DimensionError(
            f"slice [{start}:{stop}] out of range for extent {a.shape[dim]} along dim {dim}"
        )
    idx = [slice(None)] * a.ndim
    idx[dim] = slice(start, stop)
    idx = tuple(idx)
    data = a.data[idx].copy()

    def vjp(g):
        _accum_box(a, idx, g)

    return _result(data, (a,), vjp)


def slice_prefix(a, dim: int, n: int) -> Tensor:
    """First n entries along dim; the nesting primitive for weight sharing.
    The whole extent is `a` itself (no copy, no tape node), so exact-size
    models (extracted subnets, the teacher) slice at no cost."""
    a = _as_tensor(a)
    if not (0 <= n <= a.shape[dim]):
        raise DimensionError(f"prefix length {n} out of range for extent {a.shape[dim]} along dim {dim}")
    if n == a.shape[dim]:
        return a
    return slice_along(a, dim, 0, n)


# -- neural-net ops --------------------------------------------------------


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(C0 * (x + C1 * (x * x * x))) in one new array."""
    t = np.multiply(x, x)
    t *= x
    t *= _GELU_C1
    t += x
    t *= _GELU_C0
    return np.tanh(t, out=t)


def gelu_array(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation) on a plain array, 0.5 * x * (1.0 + t); also the frontend activation."""
    t = _gelu_tanh(x)
    y = np.multiply(x, 0.5)
    y *= np.add(t, 1.0, out=t)
    return y


def gelu(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    if not (_GRAD_ENABLED.get() and a.requires_grad):
        return _result(gelu_array(x), (a,), None)
    t = _gelu_tanh(x)
    y = np.multiply(x, 0.5)
    y *= np.add(t, 1.0)  # not into t: the vjp reads it

    def vjp(g):
        # g * dy from the saved tanh, for
        # dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C0 * (1.0 + 3.0 * C1 * (x * x))
        w = np.multiply(t, t)  # the work array, allocated before the result it serves
        np.subtract(1.0, w, out=w)
        dy = np.multiply(x, 0.5)
        dy *= w
        dy *= _GELU_C0
        np.multiply(x, x, out=w)
        w *= 3.0 * _GELU_C1
        w += 1.0
        dy *= w
        np.add(t, 1.0, out=w)
        w *= 0.5
        dy += w
        _accum(a, _into(np.multiply, g, dy, dy))

    return _result(y, (a,), vjp)


def softmax_lastdim(a) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    return _result(y, (a,), vjp)


def attention(q, k, v, heads: int, seqs: int = 1) -> Tensor:
    """Multi-head scaled dot-product attention over [seqs*t, heads*hd] q, k, v.

    The rows hold `seqs` sequences of t frames each, one after the other;
    each attends only within itself. One tape node over [seqs*heads, t, hd]
    stacks. Each (sequence, head) pair runs the expressions of slicing it
    out and composing matmul, transpose, softmax_lastdim and concat, in
    their order, so values and gradients equal that composition, and one
    call per sequence, bit for bit.

    The tape keeps q, k, v and the softmax's [seqs*heads, t, 1] row max and
    row sum. Backward splits q, k and v again and rebuilds the probabilities
    from them by the forward's expressions, so no [t, t] array outlives the
    forward: one more score product and exp per call buys that memory.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (heads < 1 or seqs < 1 or q.ndim != 2 or k.shape != q.shape or v.shape != q.shape
            or q.shape[1] % heads or q.shape[0] % seqs):
        raise DimensionError(
            f"attention needs equal [seqs*t, heads*hd] q, k, v for {seqs} sequences and {heads} heads, "
            f"got {q.shape}, {k.shape}, {v.shape}")
    rows, width = q.shape
    t, hd, n = rows // seqs, width // heads, seqs * heads
    scale = 1.0 / math.sqrt(hd)

    def split(x):  # [seqs*t, heads*hd] -> contiguous [seqs*heads, t, hd]
        return np.ascontiguousarray(x.reshape(seqs, t, heads, hd).transpose(0, 2, 1, 3)).reshape(n, t, hd)

    def merge(x):  # [seqs*heads, t, hd] -> [seqs*t, heads*hd]
        return x.reshape(seqs, heads, t, hd).transpose(0, 2, 1, 3).reshape(rows, width)

    def split_t(x):  # [seqs*t, heads*hd] -> contiguous [seqs*heads, hd, t]
        return np.ascontiguousarray(x.reshape(seqs, t, heads, hd).transpose(0, 2, 3, 1)).reshape(n, hd, t)

    # The [seqs*heads, t, t] scores are updated in place: one large temporary,
    # not one per step, and the same values as the out-of-place expressions.
    P = np.matmul(split(q.data), split_t(k.data))
    P *= scale
    mx = P.max(axis=-1, keepdims=True)
    P -= mx
    np.exp(P, out=P)
    sm = P.sum(axis=-1, keepdims=True)
    P /= sm

    def vjp(g):
        # P again, from the parents and the forward's row max and sum, by its expressions.
        Q, V, KT = split(q.data), split(v.data), split_t(k.data)
        P = np.matmul(Q, KT)
        P *= scale
        P -= mx
        np.exp(P, out=P)
        P /= sm
        G = split(g)
        dV = np.matmul(P.transpose(0, 2, 1), G)
        dS = np.matmul(G, V.transpose(0, 2, 1))  # dP, turned into dS in place:
        # P * (dP - sum(dP * P)) * scale, the row sums taken one [t, t] slice at a time
        prod = np.empty(dS.shape[1:], np.result_type(dS, P))
        dots = np.empty(dS.shape[:2] + (1,), prod.dtype)
        for i in range(n):
            np.add.reduce(np.multiply(dS[i], P[i], out=prod), axis=-1, keepdims=True, out=dots[i])
        dS -= dots
        dS *= P
        dS *= scale
        _accum(q, merge(np.matmul(dS, KT.transpose(0, 2, 1))))
        _accum(k, merge(np.matmul(Q.transpose(0, 2, 1), dS).transpose(0, 2, 1)))
        _accum(v, merge(dV))

    return _result(merge(np.matmul(P, split(v.data))), (q, k, v), vjp)


def layer_norm(x, gain, bias, eps: float = 1e-5, seqs: int = 1) -> Tensor:
    """Zero-mean unit-variance over the last dimension d, then affine by the
    first d entries of gain and bias (a prefix box of longer ones).

    The tape keeps x and the [rows, 1] mean and 1/std; backward rebuilds
    the normalized input from them, as the forward computed it."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.ndim != 1 or gain.shape != bias.shape or gain.shape[0] < d or x.shape[0] % seqs:
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d} "
            f"or {x.shape} does not hold {seqs} sequences")
    box = (slice(0, d),)
    gv, bv = gain.data[box], bias.data[box]
    mu = _row_mean(x.data)
    y = np.subtract(x.data, mu)  # xc, turned into xc * inv_std * gv + bv in place
    inv_std = 1.0 / np.sqrt(_row_mean(y * y) + eps)
    y *= inv_std
    y = _into(np.multiply, y, gv, y)
    y = _into(np.add, y, bv, y)

    def vjp(g):
        xhat = np.subtract(x.data, mu)  # the forward's xhat, from the parent
        xhat *= inv_std
        dxhat = np.multiply(g, gv)
        # Standard layer-norm backward, folded:
        # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        work = np.multiply(dxhat, xhat)
        m1, m2 = _row_mean(dxhat), _row_mean(work)
        work = _into(np.multiply, g, xhat, work)
        for dg, db in zip(_per_seq(work, seqs).sum(axis=1), _per_seq(g, seqs).sum(axis=1)):
            _accum_box(gain, box, dg)
            _accum_box(bias, box, db)
        dxhat = _into(np.subtract, dxhat, m1, dxhat)
        xhat = _into(np.multiply, xhat, m2, xhat)
        dxhat = _into(np.subtract, dxhat, xhat, dxhat)
        _accum(x, _into(np.multiply, dxhat, inv_std, dxhat))

    return _result(y, (x, gain, bias), vjp)


def grouped_conv1d(x, weight, bias, groups: int, seqs: int = 1) -> Tensor:
    """Grouped 1-D convolution over time with same-length output.

    x is [t, c]; weight is [c, c // groups, k] with odd k; bias is [c].
    Group g maps input channels [g*c/G, (g+1)*c/G) to the same output range.
    Of a larger weight and bias the op reads these prefix boxes (the weight
    box copied: BLAS rounds a strided one differently). Each of `seqs`
    stacked sequences is padded and convolved on its own.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.ndim != 2 or x.shape[0] % seqs:
        raise DimensionError(f"grouped_conv1d input must be [t, c] rows of {seqs} sequences, got {x.shape}")
    c = x.shape[1]
    if c % groups != 0:
        raise ConfigurationError(f"channel count {c} not divisible by {groups} groups")
    cg = c // groups
    if weight.ndim != 3 or weight.shape[0] < c or weight.shape[1] < cg or bias.ndim != 1 or bias.shape[0] < c:
        raise DimensionError(f"grouped_conv1d weight {weight.shape} and bias {bias.shape} "
                             f"do not fit channels {c} with {groups} groups")
    k = weight.shape[2]
    if k % 2 != 1:
        raise DimensionError(f"grouped_conv1d kernel must be odd, got {k}")

    box = (slice(0, c), slice(0, cg), slice(0, k))
    wv = np.ascontiguousarray(weight.data[box])
    t, pad = x.shape[0] // seqs, k // 2
    xp = np.zeros((seqs, t + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + t] = _per_seq(x.data, seqs)
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)  # [seqs, t, c, k]
    out = np.empty(x.shape, dtype=np.result_type(x.dtype, weight.dtype, bias.dtype))
    all_cols = [slice(g_idx * cg, (g_idx + 1) * cg) for g_idx in range(groups)]
    for s in range(seqs):
        for cols in all_cols:
            out[s * t : (s + 1) * t, cols] = np.tensordot(win[s, :, cols], wv[cols], axes=([1, 2], [1, 2]))
    out += bias.data[:c]

    def vjp(g):
        g3 = _per_seq(g, seqs)
        dxp = np.zeros_like(xp)
        for cols in all_cols:
            for kk in range(k):
                dxp[:, kk : kk + t, cols] += np.matmul(g3[:, :, cols], wv[cols, :, kk])
        _accum(x, dxp[:, pad : pad + t].reshape(x.shape))
        for s in range(seqs):
            dw = np.zeros_like(wv)
            for cols in all_cols:
                dw[cols] = np.tensordot(g3[s, :, cols], win[s, :, cols], axes=([0], [0]))
            _accum_box(weight, box, dw)
            _accum_box(bias, box[:1], g3[s].sum(axis=0))

    return _result(out, (x, weight, bias), vjp)


def mask_rows(x, emb, rows, seqs: int = 1) -> Tensor:
    """x [seqs*t, d] with the given rows replaced by emb's first d entries:
    x * (1 - c) + emb * c for the 0/1 row column c, as elementwise ops would."""
    x, emb = _as_tensor(x), _as_tensor(emb)
    if x.ndim != 2 or emb.ndim != 1 or emb.shape[0] < x.shape[1] or x.shape[0] % seqs:
        raise DimensionError(f"mask_rows needs [n, d] rows of {seqs} sequences and a [>= d] embedding, "
                             f"got {x.shape} and {emb.shape}")
    box = (slice(0, x.shape[1]),)
    col = np.zeros((x.shape[0], 1), dtype=x.dtype)
    col[rows] = 1.0
    keep = 1.0 - col

    def vjp(g):
        work = np.multiply(g, col)
        for de in _per_seq(work, seqs).sum(axis=1):
            _accum_box(emb, box, de)
        _accum(x, _into(np.multiply, g, keep, work))

    y = np.multiply(x.data, keep)
    return _result(_into(np.add, y, emb.data[box] * col, y), (x, emb), vjp)


class LossMask:
    """The rows masked_l1 scores: masks[s] indexes the masked rows of the s-th of the
    stacked sequences of t rows (one index array alone: one sequence, a scalar loss).

    Built once, it serves any number of masked_l1 calls on such stacks: it
    keeps the 0/1 row column and the per-sequence scales of each (width,
    reduction, dtype) asked for.
    """

    __slots__ = ("seqs", "t", "_rows", "_counts", "_shape", "_weights")

    def __init__(self, masks, t: int):
        lone = isinstance(masks, np.ndarray)
        masks = [masks] if lone else [np.asarray(m, dtype=np.int64) for m in masks]
        if not masks or any(m.size == 0 for m in masks):
            raise ContractError("masked_l1 needs at least one masked step in every sequence")
        self.seqs, self.t = len(masks), t
        self._rows = np.zeros((self.seqs * t, 1), dtype=bool)
        for s, m in enumerate(masks):
            self._rows[s * t:(s + 1) * t][m] = True
        self._counts = [m.size for m in masks]
        self._shape = () if lone else (self.seqs,)
        self._weights = {}

    def weights(self, d: int, reduction: str, dtype) -> tuple[np.ndarray, np.ndarray]:
        """The [seqs*t, 1] 0/1 gate column and the per-sequence scales,
        1 / (masked steps, times d under "mean"), both in dtype."""
        key = (d, reduction, np.dtype(dtype))
        if key not in self._weights:
            if reduction not in ("mean", "sum"):
                raise ContractError(f"unknown reduction '{reduction}'")
            per = d if reduction == "mean" else 1
            scales = np.array([1.0 / float(n * per) for n in self._counts], dtype=dtype)
            self._weights[key] = (self._rows.astype(dtype), scales.reshape(self._shape))
        return self._weights[key]


def masked_l1(x, targets, mask: LossMask, reduction: str = "mean") -> Tensor:
    """Masked L1 of each of mask.seqs stacked sequences, as one tape node.

    x and targets are [seqs*t, d]. Sequence s's loss is the sum of
    |x - targets| over its masked rows times its scale from mask.weights: the
    mean per-step feature distance under "mean", the per-step sum under
    "sum". The [seqs] losses (0-d for a lone mask) and the gradients equal
    tsum(tabs(x_s - targets_s) * gate_s) * scale_s on each sequence's rows
    alone, bit for bit: each sequence's sum is numpy's pairwise sum over its
    contiguous [t, d] block, as tsum's over the block alone. Gradients at
    unmasked rows are exactly zero. targets are constants, the teacher's, so
    no gradient flows into them. The tape keeps no [rows, d] array of its
    own: backward takes x - targets again.
    """
    x, targets = _as_tensor(x), _as_tensor(targets)
    if x.shape != targets.shape:
        raise ContractError(f"student/target shapes disagree: {x.shape} vs {targets.shape}")
    seqs = mask.seqs
    if x.ndim != 2 or x.shape[0] != seqs * mask.t:
        raise ContractError(f"masked_l1 rows {x.shape} do not hold the mask's {seqs} sequences "
                            f"of {mask.t} rows")
    per_entry = x.data - targets.data
    gate, scales = mask.weights(x.shape[1], reduction, per_entry.dtype)
    np.abs(per_entry, out=per_entry)
    per_entry *= gate

    def vjp(g):
        # (g * scale) * gate * sign(diff) per sequence, in the composition's order
        g_seq = (np.reshape(g, seqs) * scales.reshape(seqs))[:, None, None]
        sign = _per_seq(np.subtract(x.data, targets.data), seqs)
        np.sign(sign, out=sign)
        _accum(x, _into(np.multiply, g_seq * gate.reshape(seqs, -1, 1), sign, sign).reshape(x.shape))

    return _result(per_entry.reshape(seqs, -1).sum(axis=1).reshape(scales.shape) * scales, (x,), vjp)


# -- gradient oracle -------------------------------------------------------


def finite_diff_check(f, x: Tensor, h: float | None = None) -> float:
    """Max relative error between autodiff and central finite differences.

    f must map the tensor to a scalar Tensor and be a pure function of its
    argument. The numeric side evaluates f at float64-perturbed copies with
    a power-of-two step (default 2^-10, or 2^-16 when x is float64) so the
    probes stay exactly representable; the relative error uses an absolute
    floor of 1e-6 in the denominator. The float64 step is near the
    cube root of machine epsilon, where rounding in f (about eps * |f| / h)
    and the truncation error (about h^2) balance; a smaller step cannot
    resolve gradient entries far below |f|.
    """
    if not x.requires_grad:
        raise ContractError("finite_diff_check needs a requires_grad tensor")
    if h is None:
        h = 2.0**-16 if x.dtype == np.float64 else 2.0**-10
    y = f(x)
    if not isinstance(y, Tensor) or y.size != 1:
        raise ContractError("finite_diff_check needs a scalar-valued function")
    x.zero_grad()
    y.backward()
    g_ad = np.zeros_like(x.data, dtype=np.float64) if x.grad is None else x.grad.astype(np.float64)

    base = x.data.astype(np.float64)
    g_fd = np.zeros_like(base)
    flat = base.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            probe = flat.copy()
            probe[i] = flat[i] + h
            fp = f(Tensor(probe.reshape(base.shape))).item()
            probe[i] = flat[i] - h
            fm = f(Tensor(probe.reshape(base.shape))).item()
            fd_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(g_fd)), 1e-6)
    return float((np.abs(g_ad - g_fd) / denom).max())
