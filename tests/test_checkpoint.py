"""Checkpoint format: byte-exact round trips, and the model writer and reader."""

import numpy as np
import pytest

from ofat.binio import atomic_open
from ofat.checkpoint import (
    canonical_metadata,
    file_digest,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from ofat.data import make_synthetic_dataset
from ofat.errors import ConfigurationError
from ofat.rng import Rng
from ofat.spaces import SubnetConfig, max_subnet, sample_subnet
from ofat.supernet import build_supernet, extract_subnet, forward, full_config, reference_forward
from ofat.distill import TeacherModel
from ofat.train import make_teacher, TeacherArch


def test_round_trip_bytes_exact(tmp_path):
    tensors = {
        "alpha": np.arange(12, dtype=np.float32).reshape(3, 4),
        "beta": np.linspace(-1, 1, 7, dtype=np.float32),
        "gamma.w": Rng(1, 1).normal((2, 2, 2)).astype(np.float32),
    }
    meta = {"role": "supernet", "seed": 9, "note": "abc"}
    p1, p2 = tmp_path / "a.ofat", tmp_path / "b.ofat"
    save_checkpoint(p1, tensors, meta)
    loaded, meta2 = load_checkpoint(p1)
    assert meta2 == meta
    for name in tensors:
        np.testing.assert_array_equal(loaded[name], tensors[name])
    save_checkpoint(p2, loaded, meta2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_and_version_guards(tmp_path):
    bad = tmp_path / "bad.ofat"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ConfigurationError, match="magic"):
        load_checkpoint(bad)
    versioned = tmp_path / "v9.ofat"
    versioned.write_bytes(b"OFAT" + (9).to_bytes(4, "little") + b"\x00" * 16)
    with pytest.raises(ConfigurationError, match="version"):
        load_checkpoint(versioned)


def test_supernet_checkpoint_forward_identical(tmp_path, tiny_space, tiny_model):
    cfg = max_subnet(tiny_space)
    x = (Rng(2, 2).uniform((6, tiny_space.frontend_dim)) * 2 - 1).astype(np.float32)
    _, _, before = forward(tiny_model, cfg, x)
    path = tmp_path / "model.ofat"
    save_model(path, tiny_model, {"seed": 11})
    restored = load_model(path, "supernet")[0]
    _, _, after = forward(restored, cfg, x)
    np.testing.assert_array_equal(before.data, after.data)


def test_supernet_checkpoint_metadata_has_space_and_role(tmp_path, tiny_model):
    path = tmp_path / "model.ofat"
    save_model(path, tiny_model, {"seed": 3})
    metadata = load_checkpoint(path)[1]
    assert metadata["role"] == "supernet"
    assert "space" in metadata


def test_extracted_checkpoint_round_trip_reverify(tmp_path, tiny_space, tiny_model):
    cfg = sample_subnet(tiny_space, Rng(3, 4))
    enc = extract_subnet(tiny_model, cfg)
    path = tmp_path / "subnet.ofat"
    save_model(path, enc, {"role": "subnet", "seed": 0})
    enc2 = load_model(path, "subnet")[0]
    for i in range(3):
        x = (Rng(50 + i, 2).uniform((8, tiny_space.frontend_dim)) * 2 - 1).astype(np.float32)
        _, _, a = reference_forward(enc, cfg, x)
        _, _, b = reference_forward(enc2, cfg, x)
        np.testing.assert_array_equal(a.data, b.data)
        _, _, s = forward(tiny_model, cfg, x)
        assert float(np.abs(b.data - s.data).max()) < 1e-6


def test_teacher_checkpoint_round_trip(tmp_path, tiny_space):
    arch = TeacherArch(dim=16, depth=3, heads=4, ffn_ratio=2.0, head_dim=4,
                       conv_groups=4, conv_kernel=3)
    teacher = make_teacher(seed=5, arch=arch, frontend_spec=tiny_space.frontend)
    path = tmp_path / "teacher.ofat"
    save_model(path, teacher.encoder, {"seed": 5, "role": "teacher"})
    loaded = TeacherModel(encoder=load_model(path, "teacher")[0])
    raw = (Rng(6, 2).uniform(72) * 2 - 1).astype(np.float32)
    feats_a = teacher.frontend.forward(raw)
    feats_b = loaded.frontend.forward(raw)
    np.testing.assert_array_equal(feats_a, feats_b)
    ha = teacher.hidden_layers(feats_a)
    hb = loaded.hidden_layers(feats_b)
    for a, b in zip(ha, hb):
        np.testing.assert_array_equal(a.data, b.data)
    for p in loaded.encoder.params.values():
        assert p.requires_grad is False


def test_teacher_loader_rejects_wrong_role(tmp_path, tiny_model):
    path = tmp_path / "supernet.ofat"
    save_model(path, tiny_model, {"seed": 1})
    with pytest.raises(ConfigurationError, match="role"):
        load_model(path, "teacher")


def test_load_then_save_supernet_is_byte_identical(tmp_path, tiny_model):
    p1 = tmp_path / "one.ofat"
    p2 = tmp_path / "two.ofat"
    save_model(p1, tiny_model, {"seed": 4})
    save_checkpoint(p2, *load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def _saved_then_edited(path, model, metadata, edit):
    """Save `model`, apply edit(tensors, metadata) to the file's contents
    and write them back through the raw format; returns `path`."""
    save_model(path, model, metadata)
    tensors, meta = load_checkpoint(path)
    edit(tensors, meta)
    save_checkpoint(path, tensors, meta)
    return path


def test_supernet_loader_rejects_mismatched_tensor_shape(tmp_path, tiny_model):
    def cut_head(tensors, meta):
        tensors["head.w"] = tensors["head.w"][:-1]

    path = _saved_then_edited(tmp_path / "m.ofat", tiny_model, {"seed": 4}, cut_head)
    with pytest.raises(ConfigurationError, match="head.w"):
        load_model(path, "supernet")


def test_supernet_loader_rejects_a_tensor_the_metadata_leaves_out(tmp_path, tiny_space, tiny_model):
    config = max_subnet(tiny_space)

    def drop_a_layer(tensors, meta):
        meta["arch"]["heads"] = meta["arch"]["heads"][:-1]

    path = _saved_then_edited(tmp_path / "m.ofat", extract_subnet(tiny_model, config), {"role": "subnet"},
                              drop_a_layer)
    with pytest.raises(ConfigurationError, match=f"blocks.{config.depth - 1}"):
        load_model(path, "subnet")


def test_loading_a_checkpoint_draws_no_random_numbers(monkeypatch, tmp_path, tiny_space, tiny_model, tiny_teacher):
    files = {"supernet": tiny_model,
             "subnet": extract_subnet(tiny_model, max_subnet(tiny_space)),
             "teacher": tiny_teacher.encoder}
    for role, model in files.items():
        save_model(tmp_path / f"{role}.ofat", model, {"seed": 4, "role": role})

    def no_rng(*args, **kwargs):
        raise AssertionError("a loader built an Rng")

    monkeypatch.setattr(Rng, "__init__", no_rng)
    for role in files:
        load_model(tmp_path / f"{role}.ofat", role)


# -- malformed files and metadata -------------------------------------------------


def test_truncation_at_every_byte_offset_is_a_configuration_error(tmp_path):
    path = tmp_path / "small.ofat"
    tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2, dtype=np.float32)}
    save_checkpoint(path, tensors, {"role": "supernet", "seed": 1})
    data = path.read_bytes()
    cut = tmp_path / "cut.ofat"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ConfigurationError, match="byte|magic"):
            load_checkpoint(cut)


@pytest.mark.parametrize("meta, match", [
    (b"\xff\xfe", "not UTF-8 at byte 12"),
    (b'{"role": ', "not JSON .* at byte 21"),
    (b"[1, 2]", "not a JSON object at byte 12"),
])
def test_bad_metadata_is_a_configuration_error(tmp_path, meta, match):
    path = tmp_path / "bad.ofat"
    path.write_bytes(b"OFAT" + (1).to_bytes(4, "little") + len(meta).to_bytes(4, "little") + meta)
    with pytest.raises(ConfigurationError, match=match):
        load_checkpoint(path)


def test_extents_overrunning_the_file_are_a_configuration_error(tmp_path):
    meta = canonical_metadata({})
    head = b"OFAT" + (1).to_bytes(4, "little") + len(meta).to_bytes(4, "little") + meta
    path = tmp_path / "huge.ofat"
    path.write_bytes(head + (1).to_bytes(8, "little") + b"\x01\x00w\x01" + (2**40).to_bytes(8, "little"))
    with pytest.raises(ConfigurationError, match=f"payload of w .* at byte {len(head) + 20}"):
        load_checkpoint(path)


def test_bytes_after_the_last_tensor_are_a_configuration_error(tmp_path):
    path = tmp_path / "long.ofat"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)}, {})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ConfigurationError, match=f"4 unread bytes after the last field at byte {size}"):
        load_checkpoint(path)


def test_absurd_rank_or_extent_is_a_configuration_error(tmp_path):
    meta = canonical_metadata({})
    head = b"OFAT" + (1).to_bytes(4, "little") + len(meta).to_bytes(4, "little") + meta
    tensor = (1).to_bytes(8, "little") + b"\x01\x00w"
    path = tmp_path / "bad.ofat"
    # A rank no numpy array has, followed by 200 extents the file does hold.
    path.write_bytes(head + tensor + bytes([200]) + b"\xff" * 1600)
    with pytest.raises(ConfigurationError, match=f"rank 200 of w at byte {len(head) + 11}"):
        load_checkpoint(path)
    # An empty array with an extent numpy cannot index.
    path.write_bytes(head + tensor + b"\x02" + (0).to_bytes(8, "little") + (2**63).to_bytes(8, "little"))
    with pytest.raises(ConfigurationError, match=f"payload of w .* at byte {len(head) + 28} is not an array"):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, match", [
    ("conv_groups", 0, "conv_groups must be positive"),
    ("frontend", {"layers": [[8, 5, 0], [8, 5, 2]]}, "frontend layer sizes must be positive"),
    ("frontend", {"layers": [[0, 5, 2], [8, 5, 2]]}, "frontend layer sizes must be positive"),
    ("frontend", {"layers": [[8, 7, 2], [8, 5, 2]]}, r"frontend.conv0.w has shape \(8, 1, 5\), expected \(8, 1, 7\)"),
])
def test_loader_maps_bad_space_values_to_configuration_error(tmp_path, tiny_model, key, value, match):
    def set_value(tensors, meta):
        space = meta["space"]
        space[key] = {**space[key], **value} if isinstance(value, dict) else value

    path = _saved_then_edited(tmp_path / "m.ofat", tiny_model, {"seed": 1}, set_value)
    with pytest.raises(ConfigurationError, match=match):
        load_model(path, "supernet")


def test_a_write_that_fails_part_way_keeps_the_previous_file(tmp_path):
    path = tmp_path / "c.ofat"
    save_checkpoint(path, {"a": np.ones(3, dtype=np.float32)}, {"k": 1})
    before = path.read_bytes()
    with pytest.raises(ValueError):  # the second tensor fails after the first is written
        save_checkpoint(path, {"a": np.zeros(3, dtype=np.float32), "b": np.array(["x"])}, {"k": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ofat"]


def test_atomic_open_leaves_no_file_on_failure_and_plain_permissions_on_success(tmp_path):
    new = tmp_path / "new.csv"
    with pytest.raises(RuntimeError):
        with atomic_open(new) as fh:
            fh.write("half a row")
            raise RuntimeError("interrupted")
    assert list(tmp_path.iterdir()) == []
    with atomic_open(new) as fh:
        fh.write("a,b\n")
    plain = tmp_path / "plain.csv"
    plain.write_text("a,b\n")
    assert new.read_bytes() == plain.read_bytes()
    assert new.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "plain.csv"]


@pytest.mark.parametrize("drop", ["space", "arch", "heads"])
def test_loader_maps_missing_metadata_keys_to_configuration_error(tmp_path, tiny_space, tiny_model, drop):
    def drop_key(tensors, meta):
        del (meta if drop in ("space", "arch") else meta["arch"])[drop]

    if drop == "space":
        role, model = "supernet", tiny_model
    else:
        role, model = "subnet", extract_subnet(tiny_model, sample_subnet(tiny_space, Rng(3, 4)))
    path = _saved_then_edited(tmp_path / "m.ofat", model, {"role": role}, drop_key)
    with pytest.raises(ConfigurationError, match=drop):
        load_model(path, role)


# -- golden files -----------------------------------------------------------------

# sha256 of the files below as written before extracted subnets and the
# teacher ran on the sliced supernet path; the formats must not move.
GOLDEN_SHA256 = {
    "teacher": "4e55028b2c381a48107d6c141986285476585e0b068070fe6bf5b8a3c83d05bb",
    "supernet": "5b77522cbf4171fe3c94d4d95d7908dc2c79c89a2280531cc2034f4155e4db97",
    "subnet": "df86b6ac71db19e9aab001dbf4f93ef97afce414b33c21dc7dc5c6171b5134a1",
}


def test_golden_checkpoints_keep_their_bytes_and_load_to_the_reference(tmp_path, tiny_space):
    arch = TeacherArch(dim=16, depth=3, heads=4, ffn_ratio=2.0, head_dim=4,
                       conv_groups=4, conv_kernel=3)
    teacher = make_teacher(seed=77, arch=arch, frontend_spec=tiny_space.frontend, warmup_steps=2,
                           dataset=make_synthetic_dataset(seed=5, n_sequences=4, length=64), batch_size=2)
    model = build_supernet(tiny_space, Rng(11, 1))
    cfg = SubnetConfig(12, 2, (2, 1), (3.0, 2.0))
    saves = {
        "teacher": (teacher.encoder, {"seed": 77, "role": "teacher"}),
        "supernet": (model, {"seed": 11, "stage": 1}),
        "subnet": (extract_subnet(model, cfg), {"role": "subnet", "seed": 11, "config": cfg.to_dict()}),
    }
    x = (Rng(7, 2).uniform((9, tiny_space.frontend_dim)) * 2 - 1).astype(np.float32)
    for role, (saved, metadata) in saves.items():
        path = tmp_path / f"{role}.ofat"
        save_model(path, saved, metadata)
        assert file_digest(path) == GOLDEN_SHA256[role], role
        loaded = load_model(path, role)[0]
        config = full_config(loaded)
        if role == "subnet":
            assert config == cfg
        final_a, hid_a, out_a = forward(loaded, config, x, collect_hidden=True)
        final_b, hid_b, out_b = reference_forward(loaded, config, x, collect_hidden=True)
        for a, b in zip([final_a, out_a, *hid_a], [final_b, out_b, *hid_b]):
            np.testing.assert_array_equal(a.data, b.data)
