"""File I/O shared by every output: bounds-checked reads of the binary
formats (OFAT checkpoints, OFAD datasets) and atomic writes.

A reader holds a whole file's bytes and a cursor. Every read claims its
bytes first, so a short or malformed file raises ConfigurationError naming
what was being read and the byte offset, never struct.error or a silently
short array. A missing file raises ConfigurationError naming its path.

Every file the package writes goes through atomic_open: a reader sees the
previous file or the complete new one, never a half-written one.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


class ByteReader:
    def __init__(self, path, magic: bytes, version: int, kind: str):
        """Read the whole file and check its header: `magic`, then a u32 `version`."""
        self.path = path
        try:
            self.data = Path(path).read_bytes()
        except FileNotFoundError:
            raise ConfigurationError(f"{kind} not found: {path}") from None
        if self.data[:len(magic)] != magic:
            raise ConfigurationError(f"{path}: not a {kind} file (bad magic)")
        self.pos = len(magic)
        found = self.unpack("<I", "version")
        if found != version:
            raise ConfigurationError(f"{path}: unsupported {kind} version {found}")

    def take(self, n: int, what: str) -> int:
        """Claim the next n bytes; returns their offset."""
        if self.pos + n > len(self.data):
            raise ConfigurationError(
                f"{self.path}: truncated {what} at byte {self.pos} "
                f"(needs {n} bytes, {len(self.data) - self.pos} left)")
        self.pos += n
        return self.pos - n

    def unpack(self, fmt: str, what: str) -> int:
        return struct.unpack_from(fmt, self.data, self.take(struct.calcsize(fmt), what))[0]

    def text(self, n: int, what: str) -> str:
        at = self.take(n, what)
        try:
            return self.data[at:at + n].decode()
        except UnicodeDecodeError:
            raise ConfigurationError(f"{self.path}: {what} is not UTF-8 at byte {at}") from None

    def end(self) -> None:
        """Refuse bytes after the last field, such as those a lowered count or length leaves."""
        if self.pos != len(self.data):
            raise ConfigurationError(
                f"{self.path}: {len(self.data) - self.pos} unread bytes after the last field at byte {self.pos}")

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """A little-endian f32 array of `shape`, copied out of the file bytes."""
        n = math.prod(shape)
        at = self.take(4 * n, what)
        try:
            return np.frombuffer(self.data, dtype="<f4", count=n, offset=at).reshape(shape).copy()
        except ValueError as exc:  # an extent numpy cannot index, in an empty array
            raise ConfigurationError(f"{self.path}: {what} at byte {at} is not an array ({exc})") from None


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Write `path` through a temp file beside it, moved over `path` on a clean exit.

    `mode` is "w" or "wb". If the block raises, `path` keeps its previous
    contents (or stays absent) and the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x")) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
