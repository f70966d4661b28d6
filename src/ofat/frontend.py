"""Frozen convolutional downsampling frontend.

The frontend turns a raw 1-D signal into a [t, dim] feature sequence and is
never trained, so it runs as plain numpy outside the autodiff tape. Each
layer is a strided conv with "same" padding, giving output length
ceil(n / stride) per layer and ceil(n / total_stride) overall, followed by
GELU. The first layer can carry a per-channel norm (the convention of the
reference speech encoder this mirrors).

Two presets:
* desk_frontend  - 2 layers, stride 2 each, with biases; minutes-scale CPU runs.
* hubert_base_frontend - the 7-layer, 512-channel stack (bias-free, normed
  first layer, ~4.2M parameters); used for reference-scale counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import gelu_array
from .errors import ConfigurationError
from .rng import Rng

_NORM_EPS = 1e-5


@dataclass(frozen=True)
class FrontendLayer:
    out_channels: int
    kernel: int
    stride: int

    def __post_init__(self):
        if min(self.out_channels, self.kernel, self.stride) < 1:
            raise ConfigurationError(f"frontend layer sizes must be positive, got {self}")


@dataclass(frozen=True)
class FrontendSpec:
    layers: tuple[FrontendLayer, ...]
    bias: bool = True
    first_layer_norm: bool = False

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_channels

    @property
    def total_stride(self) -> int:
        s = 1
        for layer in self.layers:
            s *= layer.stride
        return s

    def param_count(self) -> int:
        total = 0
        in_ch = 1
        for i, layer in enumerate(self.layers):
            total += layer.out_channels * in_ch * layer.kernel
            if self.bias:
                total += layer.out_channels
            if i == 0 and self.first_layer_norm:
                total += 2 * layer.out_channels
            in_ch = layer.out_channels
        return total

    def array_shapes(self) -> dict:
        """Checkpoint name -> shape of every frontend array, in file order."""
        shapes, in_ch = {}, 1
        for i, layer in enumerate(self.layers):
            shapes[f"frontend.conv{i}.w"] = (layer.out_channels, in_ch, layer.kernel)
            if self.bias:
                shapes[f"frontend.conv{i}.b"] = (layer.out_channels,)
            in_ch = layer.out_channels
        if self.first_layer_norm:
            shapes["frontend.norm.g"] = shapes["frontend.norm.b"] = (self.layers[0].out_channels,)
        return shapes

    def to_dict(self) -> dict:
        return {
            "layers": [[l.out_channels, l.kernel, l.stride] for l in self.layers],
            "bias": self.bias,
            "first_layer_norm": self.first_layer_norm,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrontendSpec":
        return cls(
            layers=tuple(FrontendLayer(*row) for row in d["layers"]),
            bias=bool(d["bias"]),
            first_layer_norm=bool(d["first_layer_norm"]),
        )


def desk_frontend(dim: int = 16, kernel: int = 5) -> FrontendSpec:
    """Two stride-2 layers: raw length n -> ceil(n / 4) frames."""
    return FrontendSpec(
        layers=(FrontendLayer(dim, kernel, 2), FrontendLayer(dim, kernel, 2)),
        bias=True,
        first_layer_norm=False,
    )


def hubert_base_frontend() -> FrontendSpec:
    """The 7-layer 512-channel downsampler of the reference speech encoder."""
    layers = [FrontendLayer(512, 10, 5)]
    layers += [FrontendLayer(512, 3, 2)] * 4
    layers += [FrontendLayer(512, 2, 2)] * 2
    return FrontendSpec(layers=tuple(layers), bias=False, first_layer_norm=True)


class Frontend:
    """Frozen frontend arrays, keyed as in FrontendSpec.array_shapes, plus the numpy-only forward pass."""

    def __init__(self, spec: FrontendSpec, arrays: dict):
        self.spec = spec
        self.arrays = arrays  # checkpoint name -> float32 array, file order

    @classmethod
    def build(cls, spec: FrontendSpec, rng: Rng) -> "Frontend":
        """Conv weights uniform with bound 1/sqrt(fan_in), drawn in layer
        order; biases zero, norm gain one, norm bias zero."""
        arrays = {}
        for name, shape in spec.array_shapes().items():
            if name.endswith(".w"):
                bound = 1.0 / math.sqrt(shape[1] * shape[2])
                arrays[name] = ((rng.uniform(shape) * 2.0 - 1.0) * bound).astype(np.float32)
            else:
                arrays[name] = (np.ones if name == "frontend.norm.g" else np.zeros)(shape, dtype=np.float32)
        return cls(spec, arrays)

    @classmethod
    def from_arrays(cls, spec: FrontendSpec, tensors: dict) -> "Frontend":
        """The frontend of `spec` holding its arrays out of `tensors`; each
        must be there with the shape the spec gives it."""
        return cls(spec, {name: checkpoint_array(tensors, name, shape)
                          for name, shape in spec.array_shapes().items()})

    def copy(self) -> "Frontend":
        """Independent copy: same spec, every array copied."""
        return Frontend(self.spec, {name: arr.copy() for name, arr in self.arrays.items()})

    def forward(self, raw: np.ndarray) -> np.ndarray:
        """Raw [n] float signal -> [ceil(n / total_stride), out_dim] features."""
        raw = np.asarray(raw, dtype=np.float32)
        if raw.ndim != 1:
            raise ConfigurationError(f"frontend input must be 1-D, got shape {raw.shape}")
        x = raw[None, :]  # [channels, time]
        for i, layer in enumerate(self.spec.layers):
            x = _strided_conv_same(x, self.arrays[f"frontend.conv{i}.w"],
                                   self.arrays.get(f"frontend.conv{i}.b"), layer.stride)
            if i == 0 and self.spec.first_layer_norm:
                mu = x.mean(axis=1, keepdims=True)
                var = x.var(axis=1, keepdims=True)
                x = (x - mu) / np.sqrt(var + _NORM_EPS)
                x = x * self.arrays["frontend.norm.g"][:, None] + self.arrays["frontend.norm.b"][:, None]
            x = gelu_array(x)
        return np.ascontiguousarray(x.T)


def checkpoint_array(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """tensors[name], which must be there with `shape`; else a ConfigurationError naming both."""
    arr = tensors.get(name)
    if arr is None or arr.shape != shape:
        got = "nothing" if arr is None else f"shape {arr.shape}"
        raise ConfigurationError(f"checkpoint tensor {name} has {got}, expected {shape}")
    return arr


def _strided_conv_same(x: np.ndarray, w: np.ndarray, b, stride: int) -> np.ndarray:
    """Channels-first strided conv with "same" padding: out = ceil(in / stride)."""
    in_ch, n = x.shape
    out_ch, _, k = w.shape
    out_len = math.ceil(n / stride)
    pad_total = max(0, (out_len - 1) * stride + k - n)
    pad_left = pad_total // 2
    xp = np.zeros((in_ch, n + pad_total), dtype=x.dtype)
    xp[:, pad_left : pad_left + n] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=1)[:, ::stride, :]  # [in, out_len, k]
    y = np.tensordot(w, windows, axes=([1, 2], [0, 2]))  # [out_ch, out_len]
    if b is not None:
        y = y + b[:, None]
    return y
