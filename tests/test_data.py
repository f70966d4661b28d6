"""Synthetic dataset: determinism, bounds, file format, batching."""

import numpy as np
import pytest

from ofat.data import CyclicBatcher, load_dataset, make_synthetic_dataset, save_dataset
from ofat.errors import ConfigurationError
from ofat.frontend import desk_frontend


def test_same_seed_byte_identical_file(tmp_path):
    p1, p2 = tmp_path / "a.ofad", tmp_path / "b.ofad"
    save_dataset(p1, make_synthetic_dataset(7, 5, 128))
    save_dataset(p2, make_synthetic_dataset(7, 5, 128))
    assert p1.read_bytes() == p2.read_bytes()
    save_dataset(p2, make_synthetic_dataset(8, 5, 128))
    assert p1.read_bytes() != p2.read_bytes()


def test_values_bounded():
    ds = make_synthetic_dataset(3, 10, 500)
    for seq in ds.sequences:
        assert float(np.abs(seq).max()) <= 1.0
        assert seq.dtype == np.float32


def test_signal_is_not_degenerate():
    ds = make_synthetic_dataset(4, 4, 400)
    for seq in ds.sequences:
        assert float(np.abs(seq).max()) > 0.05
        assert float(seq.std()) > 0.02


def test_round_trip_preserves_sequences(tmp_path):
    ds = make_synthetic_dataset(9, 6, 200)
    path = tmp_path / "d.ofad"
    save_dataset(path, ds)
    loaded = load_dataset(path)
    assert len(loaded) == 6
    for a, b in zip(ds.sequences, loaded.sequences):
        np.testing.assert_array_equal(a, b)


def test_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ofad", tmp_path / "b.ofad"
    save_dataset(p1, make_synthetic_dataset(11, 3, 64))
    save_dataset(p2, load_dataset(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    bad = tmp_path / "bad.ofad"
    bad.write_bytes(b"WHAT" + b"\x00" * 16)
    with pytest.raises(ConfigurationError, match="magic"):
        load_dataset(bad)


def test_truncation_at_every_byte_offset_is_a_configuration_error(tmp_path):
    path = tmp_path / "small.ofad"
    save_dataset(path, make_synthetic_dataset(13, 2, 5))
    data = path.read_bytes()
    cut = tmp_path / "cut.ofad"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(ConfigurationError, match="byte|magic"):
            load_dataset(cut)


def test_short_final_payload_names_its_offset(tmp_path):
    # np.frombuffer alone would hand back a shorter last sequence.
    path = tmp_path / "short.ofad"
    save_dataset(path, make_synthetic_dataset(13, 2, 5))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ConfigurationError, match=r"samples of sequence 1 \(5\) at byte 52 \(needs 20 bytes, 16 left\)"):
        load_dataset(path)


def test_a_lowered_sequence_count_leaves_unread_bytes(tmp_path):
    # Without the check the second sequence would be dropped silently.
    path = tmp_path / "fewer.ofad"
    save_dataset(path, make_synthetic_dataset(13, 2, 5))
    data = bytearray(path.read_bytes())
    data[8] = 1
    path.write_bytes(bytes(data))
    with pytest.raises(ConfigurationError, match="28 unread bytes after the last field at byte 44"):
        load_dataset(path)


def test_frontend_length_arithmetic():
    spec = desk_frontend()
    for n in (64, 100, 511, 512):
        ds = make_synthetic_dataset(1, 1, n)
        from ofat.frontend import Frontend
        from ofat.rng import Rng

        fe = Frontend.build(spec, Rng(1, 8))
        feats = fe.forward(ds.sequences[0])
        assert feats.shape[0] == int(np.ceil(n / spec.total_stride))


def test_cyclic_batcher_wraps_deterministically():
    ds = make_synthetic_dataset(2, 3, 32)
    batcher = CyclicBatcher(ds)
    idx = [i for i, _ in batcher.next_batch(7)]
    assert idx == [0, 1, 2, 0, 1, 2, 0]
    idx2 = [i for i, _ in batcher.next_batch(2)]
    assert idx2 == [1, 2]


def test_empty_dataset_rejected_by_batcher():
    from ofat.data import SyntheticDataset

    with pytest.raises(ConfigurationError):
        CyclicBatcher(SyntheticDataset([]))


def test_negative_count_rejected():
    with pytest.raises(ConfigurationError):
        make_synthetic_dataset(1, -1, 10)
    with pytest.raises(ConfigurationError):
        make_synthetic_dataset(1, 2, 0)
