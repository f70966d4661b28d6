"""Search spaces and subnet configurations for the once-for-all Transformer.

A SearchSpace declares the choice sets for the five variable dimensions:
embedding dim and depth are global per subnet, head count and FFN ratio
vary per layer, and the attention dim is always head_dim * heads. A
SubnetConfig is one concrete point in that space.

Counting, sampling and the named presets (the reference-scale "small" and
"base" supernets and the desk-scale space) all live here; the weight store
and forward rules are in supernet.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError
from .frontend import FrontendSpec, desk_frontend, hubert_base_frontend
from .rng import Rng


def ffn_hidden(ratio: float, embed_dim: int) -> int:
    """FFN hidden width: round-half-up of ratio * embed_dim."""
    return int(math.floor(ratio * embed_dim + 0.5))


@dataclass(frozen=True)
class SearchSpace:
    embed_dims: tuple[int, ...]
    head_choices: tuple[int, ...]
    ffn_ratios: tuple[float, ...]
    depths: tuple[int, ...]
    head_dim: int
    conv_groups: int
    conv_kernel: int
    frontend: FrontendSpec
    teacher_dim: int

    def __post_init__(self):
        for name, values in (
            ("embed_dims", self.embed_dims),
            ("head_choices", self.head_choices),
            ("ffn_ratios", self.ffn_ratios),
            ("depths", self.depths),
        ):
            if len(values) == 0:
                raise ConfigurationError(f"{name} must be non-empty")
            if any(not 0 < v < math.inf for v in values):  # NaN fails too
                raise ConfigurationError(f"{name} must be positive and finite, got {values}")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigurationError(f"{name} must be strictly increasing, got {values}")
        # Odd kernels are enforced by the conv op itself; counting-only spaces
        # may carry the even reference-scale kernel.
        for name in ("head_dim", "conv_groups", "conv_kernel", "teacher_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        for e in self.embed_dims:
            if e % self.conv_groups != 0:
                raise ConfigurationError(
                    f"embed dim {e} not divisible by conv_groups {self.conv_groups}"
                )

    @property
    def frontend_dim(self) -> int:
        return self.frontend.out_dim

    @property
    def max_depth(self) -> int:
        return self.depths[-1]

    def to_dict(self) -> dict:
        return {
            "embed_dims": list(self.embed_dims),
            "head_choices": list(self.head_choices),
            "ffn_ratios": list(self.ffn_ratios),
            "depths": list(self.depths),
            "head_dim": self.head_dim,
            "conv_groups": self.conv_groups,
            "conv_kernel": self.conv_kernel,
            "frontend": self.frontend.to_dict(),
            "teacher_dim": self.teacher_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        return cls(
            embed_dims=tuple(int(v) for v in d["embed_dims"]),
            head_choices=tuple(int(v) for v in d["head_choices"]),
            ffn_ratios=tuple(float(v) for v in d["ffn_ratios"]),
            depths=tuple(int(v) for v in d["depths"]),
            head_dim=int(d["head_dim"]),
            conv_groups=int(d["conv_groups"]),
            conv_kernel=int(d["conv_kernel"]),
            frontend=FrontendSpec.from_dict(d["frontend"]),
            teacher_dim=int(d["teacher_dim"]),
        )


@dataclass(frozen=True)
class SubnetConfig:
    embed_dim: int
    depth: int
    heads: tuple[int, ...]
    ffn_ratio: tuple[float, ...]

    def __post_init__(self):
        if len(self.heads) != self.depth or len(self.ffn_ratio) != self.depth:
            raise ConfigurationError(
                f"per-layer lists must have length depth={self.depth}, "
                f"got {len(self.heads)} heads and {len(self.ffn_ratio)} ratios"
            )

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "depth": self.depth,
            "heads": list(self.heads),
            "ffn_ratio": list(self.ffn_ratio),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SubnetConfig":
        return cls(
            embed_dim=int(d["embed_dim"]),
            depth=int(d["depth"]),
            heads=tuple(int(v) for v in d["heads"]),
            ffn_ratio=tuple(float(v) for v in d["ffn_ratio"]),
        )


def validate_config(space: SearchSpace, config: SubnetConfig) -> None:
    """Raise ConfigurationError unless config is a member of space."""
    if config.embed_dim not in space.embed_dims:
        raise ConfigurationError(f"embed_dim {config.embed_dim} not in {space.embed_dims}")
    if config.depth not in space.depths:
        raise ConfigurationError(f"depth {config.depth} not in {space.depths}")
    for l, h in enumerate(config.heads):
        if h not in space.head_choices:
            raise ConfigurationError(f"heads[{l}]={h} not in {space.head_choices}")
    for l, r in enumerate(config.ffn_ratio):
        if r not in space.ffn_ratios:
            raise ConfigurationError(f"ffn_ratio[{l}]={r} not in {space.ffn_ratios}")


def count_subnets(space: SearchSpace) -> int:
    """Exact number of distinct subnets, big-integer arithmetic.

    Embed dim is global, depth picks how many per-layer (head, ratio) pairs
    are free, so the count is sum over depths of
    |embed| * (|heads| * |ratios|)^depth.
    """
    per_layer = len(space.head_choices) * len(space.ffn_ratios)
    return sum(len(space.embed_dims) * per_layer**d for d in space.depths)


def sample_subnet(space: SearchSpace, rng: Rng) -> SubnetConfig:
    """Uniform draw: global embed and depth, independent per-layer heads/ratios.

    Draw order is fixed (embed index, depth index, head indices, ratio
    indices) so logs can be replayed against the same stream.
    """
    embed = space.embed_dims[rng.index(len(space.embed_dims))]
    depth = space.depths[rng.index(len(space.depths))]
    head_idx = rng.integers(0, len(space.head_choices), size=depth)
    ratio_idx = rng.integers(0, len(space.ffn_ratios), size=depth)
    return SubnetConfig(
        embed_dim=embed,
        depth=depth,
        heads=tuple(space.head_choices[i] for i in head_idx),
        ffn_ratio=tuple(space.ffn_ratios[i] for i in ratio_idx),
    )


def min_subnet(space: SearchSpace) -> SubnetConfig:
    d = space.depths[0]
    return SubnetConfig(
        embed_dim=space.embed_dims[0],
        depth=d,
        heads=(space.head_choices[0],) * d,
        ffn_ratio=(space.ffn_ratios[0],) * d,
    )


def max_subnet(space: SearchSpace) -> SubnetConfig:
    d = space.depths[-1]
    return SubnetConfig(
        embed_dim=space.embed_dims[-1],
        depth=d,
        heads=(space.head_choices[-1],) * d,
        ffn_ratio=(space.ffn_ratios[-1],) * d,
    )


def mid_subnet(space: SearchSpace) -> SubnetConfig:
    """Middle choice in every dimension; the fixed probe for trend runs."""
    d = space.depths[len(space.depths) // 2]
    return SubnetConfig(
        embed_dim=space.embed_dims[len(space.embed_dims) // 2],
        depth=d,
        heads=(space.head_choices[len(space.head_choices) // 2],) * d,
        ffn_ratio=(space.ffn_ratios[len(space.ffn_ratios) // 2],) * d,
    )


def all_subnets(space: SearchSpace):
    """Brute-force enumeration; only sane for toy spaces (counting oracle)."""
    import itertools

    for embed in space.embed_dims:
        for depth in space.depths:
            per_layer = list(itertools.product(space.head_choices, space.ffn_ratios))
            for combo in itertools.product(per_layer, repeat=depth):
                yield SubnetConfig(
                    embed_dim=embed,
                    depth=depth,
                    heads=tuple(c[0] for c in combo),
                    ffn_ratio=tuple(c[1] for c in combo),
                )


# -- presets ----------------------------------------------------------------


def small_space() -> SearchSpace:
    """Reference-scale small supernet (256/384/512 embed, 10-12 layers)."""
    return SearchSpace(
        embed_dims=(256, 384, 512),
        head_choices=(4, 6, 8),
        ffn_ratios=(3.0, 3.5, 4.0),
        depths=(10, 11, 12),
        head_dim=64,
        conv_groups=16,
        conv_kernel=128,
        frontend=hubert_base_frontend(),
        teacher_dim=768,
    )


def base_space() -> SearchSpace:
    """Reference-scale base supernet (512/640/768 embed, 12 layers)."""
    return SearchSpace(
        embed_dims=(512, 640, 768),
        head_choices=(8, 10, 12),
        ffn_ratios=(3.5, 4.0),
        depths=(12,),
        head_dim=64,
        conv_groups=16,
        conv_kernel=128,
        frontend=hubert_base_frontend(),
        teacher_dim=768,
    )


def desk_space(
    embed_dims=(32, 48, 64),
    head_choices=(2, 3, 4),
    ffn_ratios=(3.0, 3.5, 4.0),
    depths=(2, 3, 4),
    head_dim: int = 8,
    conv_groups: int = 4,
    conv_kernel: int = 7,
    frontend_dim: int = 16,
    teacher_dim: int = 64,
) -> SearchSpace:
    """Minutes-scale CPU space with the full structural mechanics."""
    return SearchSpace(
        embed_dims=tuple(embed_dims),
        head_choices=tuple(head_choices),
        ffn_ratios=tuple(ffn_ratios),
        depths=tuple(depths),
        head_dim=head_dim,
        conv_groups=conv_groups,
        conv_kernel=conv_kernel,
        frontend=desk_frontend(frontend_dim),
        teacher_dim=teacher_dim,
    )


def named_subnet(space: SearchSpace, name: str) -> SubnetConfig:
    """Resolve a preset subnet name: min, max, mid, a_base, a_small."""
    name = name.lower()
    if name == "min":
        return min_subnet(space)
    if name == "max":
        return max_subnet(space)
    if name == "mid":
        return mid_subnet(space)
    if name == "a_base":
        cfg = SubnetConfig(embed_dim=640, depth=12, heads=(10,) * 12, ffn_ratio=(4.0,) * 12)
    elif name == "a_small":
        cfg = SubnetConfig(embed_dim=384, depth=12, heads=(6,) * 12, ffn_ratio=(4.0,) * 12)
    else:
        raise ConfigurationError(f"unknown subnet preset '{name}'")
    validate_config(space, cfg)
    return cfg


def parse_subnet_spec(space: SearchSpace, text: str) -> SubnetConfig:
    """Parse a subnet spec: a preset name or 'embed=48,depth=3,heads=2-3-4,ratios=3.0-3.5-4.0'.

    Scalar heads/ratios broadcast over all layers.
    """
    text = text.strip()
    if "=" not in text:
        return named_subnet(space, text)
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigurationError(f"bad subnet spec fragment '{part}'")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"embed", "depth", "heads", "ratios"}
    if unknown:
        raise ConfigurationError(f"unknown subnet spec keys {sorted(unknown)}")
    try:
        embed = _spec_number("embed", fields["embed"], int)
        depth = _spec_number("depth", fields["depth"], int)
    except KeyError as exc:
        raise ConfigurationError(f"subnet spec needs '{exc.args[0]}'") from exc
    if depth not in space.depths:  # before heads/ratios broadcast to `depth` items
        raise ConfigurationError(f"depth {depth} not in {space.depths}")
    heads = _parse_layer_list("heads", fields.get("heads", str(space.head_choices[-1])), depth, int)
    ratios = _parse_layer_list("ratios", fields.get("ratios", str(space.ffn_ratios[-1])), depth, float)
    cfg = SubnetConfig(embed_dim=embed, depth=depth, heads=heads, ffn_ratio=ratios)
    validate_config(space, cfg)
    return cfg


def _spec_number(key: str, text: str, cast):
    try:
        return cast(text)
    except ValueError:
        raise ConfigurationError(f"subnet spec '{key}' takes {cast.__name__} values, got '{text}'") from None


def _parse_layer_list(key: str, text: str, depth: int, cast):
    values = tuple(_spec_number(key, v, cast) for v in text.split("-"))
    if len(values) == 1:
        values = values * depth
    if len(values) != depth:
        raise ConfigurationError(f"expected 1 or {depth} values, got {len(values)} in '{text}'")
    return values
