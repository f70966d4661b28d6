"""Once-for-all Transformer: maximal weight store plus prefix-slicing rules.

All weights live at the maximal dimensions of a SearchSpace. A subnet
forward touches only prefix slices of those stores: the first embed_dim
rows/columns of every projection, the first heads*head_dim attention
columns, the first ffn_hidden FFN units, and the first `depth` blocks. No
subnet owns private weights, so smaller architectures are literally nested
in larger ones. The ops read those prefix boxes of the whole parameters,
and autodiff.attention runs all heads as one op. Every stage also takes
`seqs` equal-length sequences stacked as rows, each attending and convolved
only within itself, so a batch runs at once.

extract_subnet copies the touched slices into an exact-size SupernetModel
over a space that holds only that config, and the frozen teacher is a
supernet over its one architecture, so supernet, subnets and teacher all
run the same sliced forward. reference_forward is the one independent
straight-line forward over such an exact-size model, built from primitive
ops (a per-head attention loop, plain matmul and bias); the pair (sliced
supernet forward, reference forward on the extracted copy) is the
equivalence oracle that `ofat extract` and the tests lean on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .frontend import Frontend
from .rng import Rng
from .spaces import SearchSpace, SubnetConfig, ffn_hidden, max_subnet, validate_config

ATTN_EPS = 1e-5  # layer-norm eps, fixed repo-wide


@dataclass
class SupernetModel:
    """A search space, its frozen frontend and the trainable weights, keyed by
    checkpoint name in file order: touched_boxes of the max subnet for a
    supernet, of the one config for an extracted subnet or teacher."""

    space: SearchSpace
    frontend: Frontend
    params: dict[str, Tensor]


def model_from_arrays(space: SearchSpace, frontend: Frontend, arrays: dict) -> SupernetModel:
    """A model over `space` holding `arrays`, in the order given, as trainable tensors."""
    return SupernetModel(space, frontend, {name: Tensor(a, requires_grad=True) for name, a in arrays.items()})


def build_supernet(space: SearchSpace, rng: Rng) -> SupernetModel:
    """Initialize every weight at maximal dimensions, deterministically.

    Each tensor's shape is its box in the max subnet. Linear and conv
    weights are uniform with bound 1/sqrt(fan_in) at the maximal fan-in,
    layer-norm gains one, biases zero, and the mask embedding standard
    normal scaled by 0.02. The frontend comes from the same rng but stays
    frozen forever.
    """
    dtype = ad.default_dtype()
    frontend = Frontend.build(space.frontend, rng)
    # Draw order is part of the seed contract: stem, blocks in order, head.
    arrays = {}
    for name, box in touched_boxes(space, max_subnet(space)).items():
        shape = tuple(s.stop for s in box)
        if len(shape) > 1:
            fan_in = shape[1] * shape[2] if len(shape) == 3 else shape[0]
            arr = (rng.uniform(shape) * 2.0 - 1.0) * (1.0 / math.sqrt(fan_in))
        elif name == "mask_emb":
            arr = rng.normal(shape) * 0.02
        else:
            arr = np.ones(shape) if name.endswith(("_g", ".g")) else np.zeros(shape)  # norm gains
        arrays[name] = arr.astype(dtype)
    return model_from_arrays(space, frontend, arrays)


def clone_supernet(model: SupernetModel) -> SupernetModel:
    """Independent deep copy (weights and frontend); training one never
    touches the other."""
    arrays = {name: t.data.copy() for name, t in model.params.items()}
    return model_from_arrays(model.space, model.frontend.copy(), arrays)


# -- sliced forward ----------------------------------------------------------


def _attention(q: Tensor, k: Tensor, v: Tensor, heads: int, head_dim: int) -> Tensor:
    """Per-head attention from primitive ops: the reference for ad.attention."""
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


def project_input(model: SupernetModel, config: SubnetConfig, x, seqs: int = 1) -> Tensor:
    """Frontend features [t, frontend_dim] -> embedding [t, embed_dim]."""
    validate_config(model.space, config)
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 2 or x.shape[1] != model.space.frontend_dim:
        raise DimensionError(
            f"expected input [t, {model.space.frontend_dim}], got {x.shape}"
        )
    p = model.params
    return ad.linear_prefix(x, p["input_proj.w"], p["input_proj.b"], x.shape[1], config.embed_dim, seqs)


def positional_stage(model: SupernetModel, e: int, h: Tensor, seqs: int = 1) -> Tensor:
    """Sliced grouped positional conv on an [t, e] embedding, added through a GELU."""
    p = model.params
    pc = ad.grouped_conv1d(h, p["pos_conv.w"], p["pos_conv.b"], model.space.conv_groups, seqs)
    return h + ad.gelu(pc)


def block_norm(model: SupernetModel, l: int, name: str, h: Tensor, seqs: int = 1) -> Tensor:
    """Sliced layer norm `name` ("ln1" or "ln2") of block `l` on an [t, e] input."""
    p, b = model.params, f"blocks.{l}.{name}"
    return ad.layer_norm(h, p[b + "_g"], p[b + "_b"], ATTN_EPS, seqs)


def _block_linear(model: SupernetModel, l: int, x: Tensor, name: str, n_in: int, n_out: int,
                  seqs: int) -> Tensor:
    p, b = model.params, f"blocks.{l}."
    return ad.linear_prefix(x, p[b + "w" + name], p[b + "b" + name], n_in, n_out, seqs)


def attention_half(model: SupernetModel, l: int, h: Tensor, hn: Tensor, e: int, heads: int,
                   seqs: int = 1) -> Tensor:
    """First residual half of block `l`: h + o(attention(q, k, v)) with `heads`
    heads, the projections read from hn = block_norm(model, l, "ln1", h)."""
    a = heads * model.space.head_dim
    q, k, v = (_block_linear(model, l, hn, x, e, a, seqs) for x in "qkv")
    return h + _block_linear(model, l, ad.attention(q, k, v, heads, seqs), "o", a, e, seqs)


def ffn_half(model: SupernetModel, l: int, h: Tensor, hn: Tensor, e: int, ratio: float,
             seqs: int = 1) -> Tensor:
    """Second residual half of block `l`: h + w2(gelu(w1 hn)) at FFN `ratio`,
    with hn = block_norm(model, l, "ln2", h)."""
    f = ffn_hidden(ratio, e)
    ff = ad.gelu(_block_linear(model, l, hn, "1", e, f, seqs))
    return h + _block_linear(model, l, ff, "2", f, e, seqs)


def block_forward(model: SupernetModel, l: int, h: Tensor, e: int, heads: int, ratio: float,
                  seqs: int = 1) -> Tensor:
    """Sliced pre-norm block `l` at embed `e` with `heads` heads and FFN `ratio`.

    The output depends only on `h` and these dims, so subnets that share a
    layer prefix share every block output up to it; the attention half
    depends only on `h` and `heads`. `h` may stack `seqs` equal-length
    sequences as [seqs*t, e] rows: only attention mixes rows, and it
    attends within each sequence, so every sequence's rows equal its own
    block_forward bit for bit, and so does every parameter gradient.
    """
    h = attention_half(model, l, h, block_norm(model, l, "ln1", h, seqs), e, heads, seqs)
    return ffn_half(model, l, h, block_norm(model, l, "ln2", h, seqs), e, ratio, seqs)


def head_forward(model: SupernetModel, e: int, h: Tensor, seqs: int = 1):
    """Sliced final norm and prediction head. Returns (final [t, e], head_out [t, teacher_dim])."""
    p = model.params
    final = ad.layer_norm(h, p["final_norm.g"], p["final_norm.b"], ATTN_EPS, seqs)
    head_out = ad.linear_prefix(final, p["head.w"], p["head.b"], e, p["head.w"].shape[1], seqs)
    return final, head_out


def encode(model: SupernetModel, config: SubnetConfig, h: Tensor, collect_hidden: bool = False,
           seqs: int = 1):
    """Positional conv, `depth` sliced blocks, final norm, prediction head.

    Returns (final [t, e], hidden per-block outputs, head_out [t, teacher_dim]).
    """
    e = config.embed_dim
    h = positional_stage(model, e, h, seqs)
    hidden = []
    for l in range(config.depth):
        h = block_forward(model, l, h, e, config.heads[l], config.ffn_ratio[l], seqs)
        if collect_hidden:
            hidden.append(h)
    final, head_out = head_forward(model, e, h, seqs)
    return final, hidden, head_out


def forward(model: SupernetModel, config: SubnetConfig, x, collect_hidden: bool = False, seqs: int = 1):
    """Full subnet forward from frontend features (no masking)."""
    return encode(model, config, project_input(model, config, x, seqs), collect_hidden, seqs)


# -- touched-slice bookkeeping ------------------------------------------------


def touched_boxes(space: SearchSpace, config: SubnetConfig) -> dict[str, tuple]:
    """Per-parameter prefix boxes a subnet forward touches.

    Everything is a hyper-rectangle anchored at the origin, which is what
    makes weight entanglement monotone: config A's boxes are contained in
    config B's whenever A <= B elementwise. Every slice is bounded, so the
    box extents are the shapes of the tensors extract_subnet copies, and
    the max subnet's boxes are the supernet's layout (build_supernet).
    """
    validate_config(space, config)
    e, G, hd = config.embed_dim, space.conv_groups, space.head_dim
    dt = slice(0, space.teacher_dim)
    boxes: dict[str, tuple] = {
        "input_proj.w": (slice(0, space.frontend_dim), slice(0, e)),
        "input_proj.b": (slice(0, e),),
        "pos_conv.w": (slice(0, e), slice(0, e // G), slice(0, space.conv_kernel)),
        "pos_conv.b": (slice(0, e),),
        "mask_emb": (slice(0, e),),
    }
    for l in range(config.depth):
        a = config.heads[l] * hd
        f = ffn_hidden(config.ffn_ratio[l], e)
        p = f"blocks.{l}."
        boxes[p + "ln1_g"] = (slice(0, e),)
        boxes[p + "ln1_b"] = (slice(0, e),)
        for x in "qkv":
            boxes[p + "w" + x] = (slice(0, e), slice(0, a))
            boxes[p + "b" + x] = (slice(0, a),)
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
    boxes["head.w"] = (slice(0, e), dt)
    boxes["head.b"] = (dt,)
    return boxes


# -- exact-size models: extraction and the reference forward -------------------


def config_dims(config: SubnetConfig) -> dict:
    """SearchSpace choice sets that hold only `config`."""
    return {
        "embed_dims": (config.embed_dim,),
        "head_choices": tuple(sorted(set(config.heads))),
        "ffn_ratios": tuple(sorted(set(config.ffn_ratio))),
        "depths": (config.depth,),
    }


def extract_subnet(model: SupernetModel, config: SubnetConfig) -> SupernetModel:
    """Copy the touched prefix boxes into an exact-size model over a space
    that holds only `config`; it runs the same sliced forward as the supernet."""
    arrays = {name: model.params[name].data[box].copy()
              for name, box in touched_boxes(model.space, config).items()}
    space = dataclasses.replace(model.space, **config_dims(config))
    return model_from_arrays(space, model.frontend.copy(), arrays)


def full_config(model: SupernetModel) -> SubnetConfig:
    """The config that uses every weight whole, read off the tensor shapes:
    max_subnet for a supernet, the extracted config for a subnet or teacher."""
    p, space = model.params, model.space
    e, layers = p["input_proj.w"].shape[1], range(space.max_depth)
    ratios = tuple(next(r for r in space.ffn_ratios if ffn_hidden(r, e) == p[f"blocks.{l}.w1"].shape[1])
                   for l in layers)
    heads = tuple(p[f"blocks.{l}.wq"].shape[1] // space.head_dim for l in layers)
    return SubnetConfig(e, space.max_depth, heads, ratios)


def reference_forward(model: SupernetModel, config: SubnetConfig, x, collect_hidden: bool = False):
    """Straight-line forward over an exact-size model: every weight used whole, no slicing.

    This is the independent reference for the sliced path: the soundness
    tests and `ofat extract` compare forward(supernet, config) against it
    on extract_subnet(supernet, config). Returns what forward returns.
    """
    p, e, hd = model.params, config.embed_dim, model.space.head_dim
    blocks = [{n.split(".")[-1]: t for n, t in p.items() if n.startswith(f"blocks.{l}.")}
              for l in range(sum(n.endswith(".wq") for n in p))]
    if (p["input_proj.w"].shape[1] != e or len(blocks) != config.depth
            or any(blk["wq"].shape[1] != h * hd or blk["w1"].shape[1] != ffn_hidden(r, e)
                   for blk, h, r in zip(blocks, config.heads, config.ffn_ratio))):
        raise DimensionError(f"model weights are not the exact size of {config}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    h = ad.matmul(x, p["input_proj.w"]) + p["input_proj.b"]
    h = h + ad.gelu(ad.grouped_conv1d(h, p["pos_conv.w"], p["pos_conv.b"], model.space.conv_groups))
    hidden = []
    for blk, heads in zip(blocks, config.heads):
        hn = ad.layer_norm(h, blk["ln1_g"], blk["ln1_b"], ATTN_EPS)
        q = ad.matmul(hn, blk["wq"]) + blk["bq"]
        k = ad.matmul(hn, blk["wk"]) + blk["bk"]
        v = ad.matmul(hn, blk["wv"]) + blk["bv"]
        att = _attention(q, k, v, heads, hd)
        h = h + (ad.matmul(att, blk["wo"]) + blk["bo"])
        hn2 = ad.layer_norm(h, blk["ln2_g"], blk["ln2_b"], ATTN_EPS)
        ff = ad.gelu(ad.matmul(hn2, blk["w1"]) + blk["b1"])
        h = h + (ad.matmul(ff, blk["w2"]) + blk["b2"])
        if collect_hidden:
            hidden.append(h)
    final = ad.layer_norm(h, p["final_norm.g"], p["final_norm.b"], ATTN_EPS)
    head_out = ad.matmul(final, p["head.w"]) + p["head.b"]
    return final, hidden, head_out


# -- parameter counting --------------------------------------------------------


@dataclass(frozen=True)
class ParamCount:
    total: int
    by_component: dict[str, int]
    includes_frontend: bool
    includes_head: bool


def block_params(space: SearchSpace, e: int, heads: int, ratio: float) -> int:
    """One block's parameters at embed dim e: QKV 3(e*a + a), output a*e + e,
    FFN e*f + f + f*e + e and two norms 4e, for a = heads * head_dim."""
    a = heads * space.head_dim
    f = ffn_hidden(ratio, e)
    return 3 * (e * a + a) + (a * e + e) + (e * f + f + f * e + e) + 4 * e


def count_params(
    space: SearchSpace,
    config: SubnetConfig,
    includes_frontend: bool = True,
    includes_head: bool = True,
) -> ParamCount:
    """Closed-form parameter count for one subnet.

    Exactly matches the tensor sizes extract_subnet copies: block_params per
    layer, plus input projection, positional conv, final norm, mask embedding,
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
    by["blocks"] = sum(block_params(space, e, h, r) for h, r in zip(config.heads, config.ffn_ratio))
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
