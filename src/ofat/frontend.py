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

import copy
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

    def output_length(self, n: int) -> int:
        return math.ceil(n / self.total_stride)

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
    """Frozen frontend weights plus the numpy-only forward pass."""

    def __init__(self, spec: FrontendSpec, weights, biases, norm_gain=None, norm_bias=None):
        self.spec = spec
        self.weights = weights  # list of [out, in, k] float32 arrays
        self.biases = biases  # list of [out] arrays or None entries
        self.norm_gain = norm_gain
        self.norm_bias = norm_bias

    @classmethod
    def build(cls, spec: FrontendSpec, rng: Rng) -> "Frontend":
        weights, biases = [], []
        in_ch = 1
        for layer in spec.layers:
            fan_in = in_ch * layer.kernel
            bound = 1.0 / math.sqrt(fan_in)
            w = (rng.uniform((layer.out_channels, in_ch, layer.kernel)) * 2.0 - 1.0) * bound
            weights.append(w.astype(np.float32))
            biases.append(np.zeros(layer.out_channels, dtype=np.float32) if spec.bias else None)
            in_ch = layer.out_channels
        norm_gain = norm_bias = None
        if spec.first_layer_norm:
            c0 = spec.layers[0].out_channels
            norm_gain = np.ones(c0, dtype=np.float32)
            norm_bias = np.zeros(c0, dtype=np.float32)
        return cls(spec, weights, biases, norm_gain, norm_bias)

    def copy(self) -> "Frontend":
        """Independent copy: same spec, every array copied."""
        return copy.deepcopy(self)

    def forward(self, raw: np.ndarray) -> np.ndarray:
        """Raw [n] float signal -> [ceil(n / total_stride), out_dim] features."""
        raw = np.asarray(raw, dtype=np.float32)
        if raw.ndim != 1:
            raise ConfigurationError(f"frontend input must be 1-D, got shape {raw.shape}")
        x = raw[None, :]  # [channels, time]
        for i, layer in enumerate(self.spec.layers):
            x = _strided_conv_same(x, self.weights[i], self.biases[i], layer.stride)
            if i == 0 and self.spec.first_layer_norm:
                mu = x.mean(axis=1, keepdims=True)
                var = x.var(axis=1, keepdims=True)
                x = (x - mu) / np.sqrt(var + _NORM_EPS)
                x = x * self.norm_gain[:, None] + self.norm_bias[:, None]
            x = gelu_array(x)
        return np.ascontiguousarray(x.T)

    def named_arrays(self) -> dict:
        """Checkpoint view: name -> array, fixed order."""
        out = {}
        for i, w in enumerate(self.weights):
            out[f"frontend.conv{i}.w"] = w
            if self.biases[i] is not None:
                out[f"frontend.conv{i}.b"] = self.biases[i]
        if self.norm_gain is not None:
            out["frontend.norm.g"] = self.norm_gain
            out["frontend.norm.b"] = self.norm_bias
        return out

    def load_arrays(self, tensors: dict) -> None:
        """Adopt the arrays named as in named_arrays; each must have the shape this spec builds."""
        for name, built in self.named_arrays().items():
            if tensors[name].shape != built.shape:
                raise ConfigurationError(
                    f"checkpoint tensor {name} has shape {tensors[name].shape}, expected {built.shape}")
        for i in range(len(self.weights)):
            self.weights[i] = tensors[f"frontend.conv{i}.w"]
            if self.biases[i] is not None:
                self.biases[i] = tensors[f"frontend.conv{i}.b"]
        if self.norm_gain is not None:
            self.norm_gain = tensors["frontend.norm.g"]
            self.norm_bias = tensors["frontend.norm.b"]

    def param_count(self) -> int:
        return self.spec.param_count()


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
