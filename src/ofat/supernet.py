"""Once-for-all Transformer: maximal weight store plus prefix-slicing rules.

All weights live at the maximal dimensions of a SearchSpace. A subnet
forward touches only prefix slices of those stores: the first embed_dim
rows/columns of every projection, the first heads*head_dim attention
columns, the first ffn_hidden FFN units, and the first `depth` blocks. No
subnet owns private weights, so smaller architectures are literally nested
in larger ones.

extract_subnet copies the touched slices into a StaticEncoder, a plain
non-dynamic Transformer with its own straight-line forward. The pair
(sliced supernet forward, extracted static forward) is the equivalence
oracle the tests lean on, so the two code paths are kept independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .frontend import Frontend
from .rng import Rng
from .spaces import SearchSpace, SubnetConfig, ffn_hidden, validate_config

ATTN_EPS = 1e-5  # layer-norm eps, fixed repo-wide


_BLOCK_FIELDS = (
    "ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
    "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2",
)


@dataclass
class BlockWeights:
    """One pre-norm Transformer block at maximal dimensions."""

    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor  # [E, A]
    bq: Tensor  # [A]
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor  # [A, E]
    bo: Tensor  # [E]
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor  # [E, F]
    b1: Tensor  # [F]
    w2: Tensor  # [F, E]
    b2: Tensor  # [E]


@dataclass
class SupernetModel:
    space: SearchSpace
    frontend: Frontend
    input_w: Tensor  # [frontend_dim, E]
    input_b: Tensor  # [E]
    pos_w: Tensor  # [E, E // G, kernel]
    pos_b: Tensor  # [E]
    mask_emb: Tensor  # [E]
    blocks: list[BlockWeights] = field(default_factory=list)
    final_g: Tensor = None
    final_b: Tensor = None
    head_w: Tensor = None  # [E, teacher_dim]
    head_b: Tensor = None  # [teacher_dim]

    def named_parameters(self) -> dict[str, Tensor]:
        """Trainable tensors in a fixed order (frontend excluded: frozen)."""
        params = {
            "input_proj.w": self.input_w,
            "input_proj.b": self.input_b,
            "pos_conv.w": self.pos_w,
            "pos_conv.b": self.pos_b,
            "mask_emb": self.mask_emb,
        }
        for i, blk in enumerate(self.blocks):
            for name in _BLOCK_FIELDS:
                params[f"blocks.{i}.{name}"] = getattr(blk, name)
        params["final_norm.g"] = self.final_g
        params["final_norm.b"] = self.final_b
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params


def _uniform_init(rng: Rng, shape, fan_in: int, dtype) -> Tensor:
    bound = 1.0 / math.sqrt(fan_in)
    data = ((rng.uniform(shape) * 2.0 - 1.0) * bound).astype(dtype)
    return Tensor(data, requires_grad=True)


def build_supernet(space: SearchSpace, rng: Rng) -> SupernetModel:
    """Initialize every weight at maximal dimensions, deterministically.

    Linear and conv weights are uniform with bound 1/sqrt(fan_in) at the
    maximal fan-in, biases zero, layer norms identity, and the mask
    embedding standard normal scaled by 0.02. The frontend comes from the
    same rng but stays frozen forever.
    """
    dtype = ad.default_dtype()
    E, A, F = space.max_embed, space.max_attn, space.max_ffn
    G, k = space.conv_groups, space.conv_kernel
    fd, dt = space.frontend_dim, space.teacher_dim

    frontend = Frontend.build(space.frontend, rng)

    def zeros(n):
        return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype), requires_grad=True)

    model = SupernetModel(
        space=space,
        frontend=frontend,
        input_w=_uniform_init(rng, (fd, E), fd, dtype),
        input_b=zeros(E),
        pos_w=_uniform_init(rng, (E, E // G, k), (E // G) * k, dtype),
        pos_b=zeros(E),
        mask_emb=Tensor((rng.normal(E) * 0.02).astype(dtype), requires_grad=True),
    )
    for _ in range(space.max_depth):
        model.blocks.append(
            BlockWeights(
                ln1_g=ones(E), ln1_b=zeros(E),
                wq=_uniform_init(rng, (E, A), E, dtype), bq=zeros(A),
                wk=_uniform_init(rng, (E, A), E, dtype), bk=zeros(A),
                wv=_uniform_init(rng, (E, A), E, dtype), bv=zeros(A),
                wo=_uniform_init(rng, (A, E), A, dtype), bo=zeros(E),
                ln2_g=ones(E), ln2_b=zeros(E),
                w1=_uniform_init(rng, (E, F), E, dtype), b1=zeros(F),
                w2=_uniform_init(rng, (F, E), F, dtype), b2=zeros(E),
            )
        )
    model.final_g = ones(E)
    model.final_b = zeros(E)
    model.head_w = _uniform_init(rng, (E, dt), E, dtype)
    model.head_b = zeros(dt)
    return model


def clone_supernet(model: SupernetModel) -> SupernetModel:
    """Independent deep copy (weights and frontend); training one never
    touches the other."""
    out = build_supernet(model.space, _null_rng())
    src = model.named_parameters()
    for name, t in out.named_parameters().items():
        t.data = src[name].data.copy()
    out.frontend.weights = [w.copy() for w in model.frontend.weights]
    out.frontend.biases = [None if b is None else b.copy() for b in model.frontend.biases]
    if model.frontend.norm_gain is not None:
        out.frontend.norm_gain = model.frontend.norm_gain.copy()
        out.frontend.norm_bias = model.frontend.norm_bias.copy()
    return out


def _null_rng() -> Rng:
    return Rng(0, 0)


# -- sliced forward ----------------------------------------------------------


def _sliced_linear(x: Tensor, w: Tensor, b: Tensor, n_in: int, n_out: int) -> Tensor:
    ws = ad.slice_prefix(ad.slice_prefix(w, 0, n_in), 1, n_out)
    return ad.matmul(x, ws) + ad.slice_prefix(b, 0, n_out)


def _attention(q: Tensor, k: Tensor, v: Tensor, heads: int, head_dim: int) -> Tensor:
    scale = 1.0 / math.sqrt(head_dim)
    outs = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh = ad.slice_along(q, 1, lo, hi)
        kh = ad.slice_along(k, 1, lo, hi)
        vh = ad.slice_along(v, 1, lo, hi)
        scores = ad.matmul(qh, ad.transpose(kh)) * scale
        outs.append(ad.matmul(ad.softmax_lastdim(scores), vh))
    return outs[0] if heads == 1 else ad.concat(outs, axis=1)


def project_input(model: SupernetModel, config: SubnetConfig, x) -> Tensor:
    """Frontend features [t, frontend_dim] -> embedding [t, embed_dim]."""
    validate_config(model.space, config)
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 2 or x.shape[1] != model.space.frontend_dim:
        raise DimensionError(
            f"expected input [t, {model.space.frontend_dim}], got {x.shape}"
        )
    e = config.embed_dim
    ws = ad.slice_prefix(model.input_w, 1, e)
    return ad.matmul(x, ws) + ad.slice_prefix(model.input_b, 0, e)


def positional_stage(model: SupernetModel, e: int, h: Tensor) -> Tensor:
    """Sliced grouped positional conv on an [t, e] embedding, added through a GELU."""
    G = model.space.conv_groups
    pw = ad.slice_prefix(ad.slice_prefix(model.pos_w, 0, e), 1, e // G)
    pc = ad.grouped_conv1d(h, pw, ad.slice_prefix(model.pos_b, 0, e), G)
    return h + ad.gelu(pc)


def block_forward(model: SupernetModel, l: int, h: Tensor, e: int, heads: int, ratio: float) -> Tensor:
    """Sliced pre-norm block `l` at embed `e` with `heads` heads and FFN `ratio`.

    The output depends only on `h` and these dims, so subnets that share a
    layer prefix share every block output up to it.
    """
    blk = model.blocks[l]
    hd = model.space.head_dim
    a = heads * hd
    f = ffn_hidden(ratio, e)

    hn = ad.layer_norm(h, ad.slice_prefix(blk.ln1_g, 0, e), ad.slice_prefix(blk.ln1_b, 0, e), ATTN_EPS)
    q = _sliced_linear(hn, blk.wq, blk.bq, e, a)
    k = _sliced_linear(hn, blk.wk, blk.bk, e, a)
    v = _sliced_linear(hn, blk.wv, blk.bv, e, a)
    att = _attention(q, k, v, heads, hd)
    h = h + _sliced_linear(att, blk.wo, blk.bo, a, e)

    hn2 = ad.layer_norm(h, ad.slice_prefix(blk.ln2_g, 0, e), ad.slice_prefix(blk.ln2_b, 0, e), ATTN_EPS)
    ff = ad.gelu(_sliced_linear(hn2, blk.w1, blk.b1, e, f))
    return h + _sliced_linear(ff, blk.w2, blk.b2, f, e)


def head_forward(model: SupernetModel, e: int, h: Tensor):
    """Sliced final norm and prediction head. Returns (final [t, e], head_out [t, teacher_dim])."""
    final = ad.layer_norm(h, ad.slice_prefix(model.final_g, 0, e), ad.slice_prefix(model.final_b, 0, e), ATTN_EPS)
    head_out = ad.matmul(final, ad.slice_prefix(model.head_w, 0, e)) + model.head_b
    return final, head_out


def encode(model: SupernetModel, config: SubnetConfig, h: Tensor, collect_hidden: bool = False):
    """Positional conv, `depth` sliced blocks, final norm, prediction head.

    Returns (final [t, e], hidden per-block outputs, head_out [t, teacher_dim]).
    """
    e = config.embed_dim
    h = positional_stage(model, e, h)
    hidden = []
    for l in range(config.depth):
        h = block_forward(model, l, h, e, config.heads[l], config.ffn_ratio[l])
        if collect_hidden:
            hidden.append(h)
    final, head_out = head_forward(model, e, h)
    return final, hidden, head_out


def forward(model: SupernetModel, config: SubnetConfig, x, collect_hidden: bool = False):
    """Full subnet forward from frontend features (no masking)."""
    return encode(model, config, project_input(model, config, x), collect_hidden)


def forward_raw(model: SupernetModel, config: SubnetConfig, raw, collect_hidden: bool = False):
    """Entry point from a raw 1-D signal: frontend first, then forward."""
    return forward(model, config, model.frontend.forward(raw), collect_hidden)


# -- touched-slice bookkeeping ------------------------------------------------


def touched_boxes(space: SearchSpace, config: SubnetConfig) -> dict[str, tuple]:
    """Per-parameter prefix boxes a subnet forward touches.

    Everything is a hyper-rectangle anchored at the origin, which is what
    makes weight entanglement monotone: config A's boxes are contained in
    config B's whenever A <= B elementwise.
    """
    validate_config(space, config)
    e, G, hd = config.embed_dim, space.conv_groups, space.head_dim
    full = slice(None)
    boxes: dict[str, tuple] = {
        "input_proj.w": (full, slice(0, e)),
        "input_proj.b": (slice(0, e),),
        "pos_conv.w": (slice(0, e), slice(0, e // G), full),
        "pos_conv.b": (slice(0, e),),
        "mask_emb": (slice(0, e),),
    }
    for l in range(config.depth):
        a = config.heads[l] * hd
        f = ffn_hidden(config.ffn_ratio[l], e)
        p = f"blocks.{l}."
        boxes[p + "ln1_g"] = (slice(0, e),)
        boxes[p + "ln1_b"] = (slice(0, e),)
        for w in ("wq", "wk", "wv"):
            boxes[p + w] = (slice(0, e), slice(0, a))
        for b in ("bq", "bk", "bv"):
            boxes[p + b] = (slice(0, a),)
        boxes[p + "wo"] = (slice(0, a), slice(0, e))
        boxes[p + "bo"] = (slice(0, e),)
        boxes[p + "ln2_g"] = (slice(0, e),)
        boxes[p + "ln2_b"] = (slice(0, e),)
        boxes[p + "w1"] = (slice(0, e), slice(0, f))
        boxes[p + "b1"] = (slice(0, f),)
        boxes[p + "w2"] = (slice(0, f), slice(0, e))
        boxes[p + "b2"] = (slice(0, e),)
    boxes["final_norm.g"] = (slice(0, e),)
    boxes["final_norm.b"] = (slice(0, e),)
    boxes["head.w"] = (slice(0, e), full)
    boxes["head.b"] = (full,)
    return boxes


def touched_index_count(space: SearchSpace, config: SubnetConfig, params: dict[str, Tensor]) -> int:
    total = 0
    for name, box in touched_boxes(space, config).items():
        total += params[name].data[box].size
    return total


# -- standalone extraction -----------------------------------------------------


@dataclass
class StaticBlock:
    heads: int
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


class StaticEncoder:
    """A plain, non-dynamic Transformer holding exact-size weights.

    Used for extracted subnets and for the frozen teacher. The forward is
    written straight-line so it stays an independent reference
    implementation for the sliced supernet path. `blocks` is a list of
    dicts: {"heads": int, <field>: array} per layer.
    """

    def __init__(self, embed_dim, head_dim, groups, input_w, input_b, pos_w, pos_b,
                 mask_emb, blocks, final_g, final_b, head_w, head_b, trainable=False):
        self.embed_dim = embed_dim
        self.head_dim = head_dim
        self.groups = groups
        self.input_w = Tensor(input_w, requires_grad=trainable)
        self.input_b = Tensor(input_b, requires_grad=trainable)
        self.pos_w = Tensor(pos_w, requires_grad=trainable)
        self.pos_b = Tensor(pos_b, requires_grad=trainable)
        self.mask_emb = Tensor(mask_emb, requires_grad=trainable)
        self.blocks = [
            StaticBlock(
                heads=blk["heads"],
                **{name: Tensor(blk[name], requires_grad=trainable) for name in _BLOCK_FIELDS},
            )
            for blk in blocks
        ]
        self.final_g = Tensor(final_g, requires_grad=trainable)
        self.final_b = Tensor(final_b, requires_grad=trainable)
        self.head_w = Tensor(head_w, requires_grad=trainable)
        self.head_b = Tensor(head_b, requires_grad=trainable)

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def teacher_dim(self) -> int:
        return self.head_w.shape[1]

    def project(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        return ad.matmul(x, self.input_w) + self.input_b

    def encode(self, h: Tensor, collect_hidden: bool = False):
        h = h + ad.gelu(ad.grouped_conv1d(h, self.pos_w, self.pos_b, self.groups))
        hidden = []
        for blk in self.blocks:
            hn = ad.layer_norm(h, blk.ln1_g, blk.ln1_b, ATTN_EPS)
            q = ad.matmul(hn, blk.wq) + blk.bq
            k = ad.matmul(hn, blk.wk) + blk.bk
            v = ad.matmul(hn, blk.wv) + blk.bv
            att = _attention(q, k, v, blk.heads, self.head_dim)
            h = h + (ad.matmul(att, blk.wo) + blk.bo)
            hn2 = ad.layer_norm(h, blk.ln2_g, blk.ln2_b, ATTN_EPS)
            ff = ad.gelu(ad.matmul(hn2, blk.w1) + blk.b1)
            h = h + (ad.matmul(ff, blk.w2) + blk.b2)
            if collect_hidden:
                hidden.append(h)
        final = ad.layer_norm(h, self.final_g, self.final_b, ATTN_EPS)
        head_out = ad.matmul(final, self.head_w) + self.head_b
        return final, hidden, head_out

    def forward(self, x, collect_hidden: bool = False):
        return self.encode(self.project(x), collect_hidden)

    def named_parameters(self) -> dict[str, Tensor]:
        params = {
            "input_proj.w": self.input_w,
            "input_proj.b": self.input_b,
            "pos_conv.w": self.pos_w,
            "pos_conv.b": self.pos_b,
            "mask_emb": self.mask_emb,
        }
        for i, blk in enumerate(self.blocks):
            for name in _BLOCK_FIELDS:
                params[f"blocks.{i}.{name}"] = getattr(blk, name)
        params["final_norm.g"] = self.final_g
        params["final_norm.b"] = self.final_b
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def param_total(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    def heads_per_layer(self) -> tuple[int, ...]:
        return tuple(blk.heads for blk in self.blocks)


def extract_subnet(model: SupernetModel, config: SubnetConfig) -> StaticEncoder:
    """Copy the touched prefix slices into a self-contained static model."""
    validate_config(model.space, config)
    space = model.space
    e, G, hd = config.embed_dim, space.conv_groups, space.head_dim
    blocks = []
    for l in range(config.depth):
        blk = model.blocks[l]
        a = config.heads[l] * hd
        f = ffn_hidden(config.ffn_ratio[l], e)
        blocks.append(
            {
                "heads": config.heads[l],
                "ln1_g": blk.ln1_g.data[:e].copy(),
                "ln1_b": blk.ln1_b.data[:e].copy(),
                "wq": blk.wq.data[:e, :a].copy(),
                "bq": blk.bq.data[:a].copy(),
                "wk": blk.wk.data[:e, :a].copy(),
                "bk": blk.bk.data[:a].copy(),
                "wv": blk.wv.data[:e, :a].copy(),
                "bv": blk.bv.data[:a].copy(),
                "wo": blk.wo.data[:a, :e].copy(),
                "bo": blk.bo.data[:e].copy(),
                "ln2_g": blk.ln2_g.data[:e].copy(),
                "ln2_b": blk.ln2_b.data[:e].copy(),
                "w1": blk.w1.data[:e, :f].copy(),
                "b1": blk.b1.data[:f].copy(),
                "w2": blk.w2.data[:f, :e].copy(),
                "b2": blk.b2.data[:e].copy(),
            }
        )
    return StaticEncoder(
        embed_dim=e,
        head_dim=hd,
        groups=G,
        input_w=model.input_w.data[:, :e].copy(),
        input_b=model.input_b.data[:e].copy(),
        pos_w=model.pos_w.data[:e, : e // G, :].copy(),
        pos_b=model.pos_b.data[:e].copy(),
        mask_emb=model.mask_emb.data[:e].copy(),
        blocks=blocks,
        final_g=model.final_g.data[:e].copy(),
        final_b=model.final_b.data[:e].copy(),
        head_w=model.head_w.data[:e, :].copy(),
        head_b=model.head_b.data.copy(),
    )


# -- parameter counting --------------------------------------------------------


@dataclass(frozen=True)
class ParamCount:
    total: int
    by_component: dict[str, int]
    includes_frontend: bool
    includes_head: bool


def count_params(
    space: SearchSpace,
    config: SubnetConfig,
    includes_frontend: bool = True,
    includes_head: bool = True,
) -> ParamCount:
    """Closed-form parameter count for one subnet.

    Exactly matches the tensor sizes extract_subnet would copy: per layer
    QKV 3(e*a + a), output a*e + e, FFN e*f + f + f*e + e, two norms 4e;
    plus input projection, positional conv, final norm, mask embedding,
    and optionally the frontend and the prediction head.
    """
    validate_config(space, config)
    e = config.embed_dim
    G, k = space.conv_groups, space.conv_kernel
    by = {}
    if includes_frontend:
        by["frontend"] = space.frontend.param_count()
    by["input_proj"] = space.frontend_dim * e + e
    by["pos_conv"] = e * (e // G) * k + e
    blocks = 0
    for l in range(config.depth):
        a = config.heads[l] * space.head_dim
        f = ffn_hidden(config.ffn_ratio[l], e)
        blocks += 3 * (e * a + a) + (a * e + e) + (e * f + f + f * e + e) + 4 * e
    by["blocks"] = blocks
    by["final_norm"] = 2 * e
    by["mask_embedding"] = e
    if includes_head:
        by["prediction_head"] = e * space.teacher_dim + space.teacher_dim
    return ParamCount(
        total=sum(by.values()),
        by_component=by,
        includes_frontend=includes_frontend,
        includes_head=includes_head,
    )
