"""Synthetic 1-D signal dataset and its binary file format.

Signals imitate the coarse structure of speech at desk scale: each
sequence is a chain of piecewise-constant segments ("phoneme-like" spans),
each segment a fresh mixture of random sinusoids plus uniform noise. Total
sinusoid amplitude is capped at 0.85 and noise at 0.1, so samples stay
inside [-1, 1] by construction.

File layout (little-endian): magic "OFAD" | version u32 | n_sequences u64 |
per sequence: length u64, samples raw f32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import ByteReader, atomic_open
from .errors import ConfigurationError
from .rng import Rng, STREAM_DATA

MAGIC = b"OFAD"
VERSION = 1

_MAX_AMP = 0.85


@dataclass
class SyntheticDataset:
    sequences: list[np.ndarray]  # float32 [length] each

    def __len__(self) -> int:
        return len(self.sequences)


def make_synthetic_dataset(seed: int, n_sequences: int, length: int) -> SyntheticDataset:
    """Deterministic sinusoid-mixture signals, one stream per seed."""
    if n_sequences < 0 or length <= 0:
        raise ConfigurationError(f"bad dataset shape: n_sequences={n_sequences}, length={length}")
    rng = Rng(seed, STREAM_DATA)
    sequences = []
    for _ in range(n_sequences):
        sequences.append(_one_sequence(rng, length))
    return SyntheticDataset(sequences)


def _one_sequence(rng: Rng, length: int) -> np.ndarray:
    out = np.empty(length, dtype=np.float64)
    pos = 0
    lo = max(4, length // 16)
    hi = max(lo + 1, length // 4)
    while pos < length:
        seg_len = min(int(rng.integers(lo, hi)), length - pos)
        n_waves = 3
        freqs = rng.uniform(n_waves) * 0.22 + 0.005  # cycles per sample
        phases = rng.uniform(n_waves) * 2.0 * np.pi
        amps = rng.uniform(n_waves)
        amps = amps / amps.sum() * _MAX_AMP
        t = np.arange(pos, pos + seg_len, dtype=np.float64)
        seg = sum(a * np.sin(2.0 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
        seg += (rng.uniform(seg_len) * 2.0 - 1.0) * 0.1
        out[pos : pos + seg_len] = seg
        pos += seg_len
    return out.astype(np.float32)


def save_dataset(path, dataset: SyntheticDataset) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(dataset.sequences)))
        for seq in dataset.sequences:
            arr = np.ascontiguousarray(seq, dtype="<f4")
            fh.write(struct.pack("<Q", arr.size))
            fh.write(arr.tobytes())


def load_dataset(path) -> SyntheticDataset:
    """Read an OFAD file; a malformed one raises ConfigurationError naming the byte offset."""
    r = ByteReader(path, MAGIC, VERSION, "dataset")
    sequences = []
    for i in range(r.unpack("<Q", "sequence count")):
        n = r.unpack("<Q", f"length of sequence {i}")
        sequences.append(r.floats((n,), f"samples of sequence {i} ({n})"))
    r.end()
    return SyntheticDataset(sequences)


class CyclicBatcher:
    """Deterministic round-robin batches over a fixed sequence list."""

    def __init__(self, dataset: SyntheticDataset):
        if len(dataset) == 0:
            raise ConfigurationError("dataset is empty")
        self.sequences = dataset.sequences
        self._cursor = 0

    def next_batch(self, batch_size: int):
        """Next batch_size (index, sequence) pairs, cycling."""
        batch = []
        for _ in range(batch_size):
            idx = self._cursor % len(self.sequences)
            batch.append((idx, self.sequences[idx]))
            self._cursor += 1
        return batch
