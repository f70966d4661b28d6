"""Named-tensor checkpoint archive, shared by teacher, supernet and subnets.

Layout (all integers little-endian):

    magic "OFAT" | version u32 | metadata_len u32 | metadata UTF-8 JSON |
    tensor_count u64 | per tensor: name_len u16, name UTF-8, rank u8,
    extents u64 each, payload raw f32

Metadata is canonical JSON (sorted keys, no whitespace) so load-then-save
reproduces the file byte for byte. Tensor order is preserved.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .binio import ByteReader, atomic_open
from .errors import ConfigurationError
from .frontend import Frontend, FrontendSpec, checkpoint_array
from .spaces import SearchSpace, SubnetConfig, max_subnet
from .supernet import SupernetModel, config_dims, count_params, full_config, model_from_arrays, touched_boxes

MAGIC = b"OFAT"
VERSION = 1
MAX_RANK = 32  # the array rank every numpy release supports


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]  # insertion order == file order
    metadata: dict

    def save(self, path) -> None:
        save_checkpoint(path, self.tensors, self.metadata)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        tensors, metadata = load_checkpoint(path)
        return cls(tensors, metadata)


def canonical_metadata(metadata: dict) -> bytes:
    return json.dumps(metadata, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def save_checkpoint(path, tensors: dict[str, np.ndarray], metadata: dict) -> None:
    meta = canonical_metadata(metadata)
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode()
            arr32 = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr32.ndim))
            for extent in arr32.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(arr32.tobytes())


def load_checkpoint(path):
    """(tensors, metadata) of a checkpoint file; a malformed file raises
    ConfigurationError naming the byte offset."""
    r = ByteReader(path, MAGIC, VERSION, "checkpoint")
    meta_len = r.unpack("<I", "metadata length")
    meta_at = r.pos
    try:
        metadata = json.loads(r.text(meta_len, "metadata"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: metadata is not JSON ({exc.msg}) at byte {meta_at + exc.pos}") from None
    if not isinstance(metadata, dict):
        raise ConfigurationError(f"{path}: metadata is not a JSON object at byte {meta_at}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<Q", "tensor count")):
        name = r.text(r.unpack("<H", "tensor name length"), "tensor name")
        rank = r.unpack("<B", f"rank of {name}")
        if rank > MAX_RANK:
            raise ConfigurationError(f"{path}: rank {rank} of {name} at byte {r.pos - 1} exceeds {MAX_RANK}")
        shape = tuple(r.unpack("<Q", f"extent of {name}") for _ in range(rank))
        tensors[name] = r.floats(shape, f"payload of {name} {shape}")
    r.end()
    return tensors, metadata


# -- model <-> checkpoint ----------------------------------------------------------


def supernet_to_checkpoint(model: SupernetModel, metadata: dict) -> Checkpoint:
    """Snapshot a supernet, extracted subnet or teacher.

    The metadata role defaults to "supernet"; a supernet file records its
    search space, any other role (subnet, teacher) its exact architecture.
    """
    # Copies, not views: a checkpoint must stay a snapshot even if the model
    # keeps training in place afterwards.
    tensors = {name: arr.copy() for name, arr in model.frontend.arrays.items()}
    tensors.update((name, t.data.copy()) for name, t in model.params.items())
    meta = {"role": "supernet", **metadata}
    if meta["role"] == "supernet":
        meta["space"] = model.space.to_dict()
    else:
        config = full_config(model)
        meta["arch"] = {
            "embed_dim": config.embed_dim,
            "head_dim": model.space.head_dim,
            "groups": model.space.conv_groups,
            "heads": list(config.heads),
            "frontend": model.frontend.spec.to_dict(),
        }
    return Checkpoint(tensors, meta)


def supernet_from_checkpoint(ckpt: Checkpoint) -> SupernetModel:
    """Rebuild the model of a supernet, extracted-subnet or teacher checkpoint.

    A supernet file carries its space; for the others the space holding only
    their one config comes from the `arch` metadata plus the tensor shapes
    (FFN widths, conv kernel, head width).
    """
    tensors, meta = ckpt.tensors, ckpt.metadata
    try:
        if meta.get("role", "supernet") == "supernet":
            space = SearchSpace.from_dict(meta["space"])
            config = max_subnet(space)
        else:
            arch = meta["arch"]
            e, heads = int(arch["embed_dim"]), tuple(int(h) for h in arch["heads"])
            ratios = tuple(tensors[f"blocks.{l}.w1"].shape[1] / e for l in range(len(heads)))
            config = SubnetConfig(e, len(heads), heads, ratios)
            space = SearchSpace(
                **config_dims(config),
                head_dim=int(arch["head_dim"]),
                conv_groups=int(arch["groups"]),
                conv_kernel=tensors["pos_conv.w"].shape[2],
                frontend=FrontendSpec.from_dict(arch["frontend"]),
                teacher_dim=tensors["head.w"].shape[1],
            )
        frontend = Frontend.from_arrays(space.frontend, tensors)
    except (KeyError, IndexError, TypeError) as exc:
        raise ConfigurationError(
            f"checkpoint does not describe a model ({type(exc).__name__}: {exc})") from None
    arrays = {name: checkpoint_array(tensors, name, tuple(s.stop for s in box)).astype(ad.default_dtype())
              for name, box in touched_boxes(space, config).items()}
    # A tensor the model does not read means the metadata describes less
    # than the file holds, such as an `arch.heads` list that lost a layer.
    unread = tensors.keys() - arrays.keys() - frontend.arrays.keys()
    if unread:
        raise ConfigurationError(f"checkpoint tensor {min(unread)} is not part of the model its metadata describes")
    recorded, params = meta.get("params_with_frontend_and_head"), count_params(space, config).total
    if recorded is not None and recorded != params:
        raise ConfigurationError(
            f"checkpoint records params_with_frontend_and_head={recorded}, its architecture has {params}")
    return model_from_arrays(space, frontend, arrays)


def load_model(path, *roles: str) -> tuple[SupernetModel, dict]:
    """(model, metadata) of the checkpoint file at `path`, parsed once.

    `roles` are the metadata roles the caller accepts ("supernet",
    "subnet", "teacher"; a file without one is a supernet). Any other role,
    like a missing or malformed file, raises ConfigurationError.
    """
    ckpt = Checkpoint.load(path)
    role = ckpt.metadata.get("role", "supernet")
    if role not in roles:
        expected = " or ".join(f"'{r}'" for r in roles)
        raise ConfigurationError(f"{path}: checkpoint role is '{role}', expected {expected}")
    return supernet_from_checkpoint(ckpt), ckpt.metadata


def file_digest(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
