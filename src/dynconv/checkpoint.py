"""Binary checkpoints for model state.

Layout (all integers little-endian):

    magic   4 bytes  b"DCD1"
    version u32      currently 2
    count   u32      number of tensors
    count * manifest entries:
        name_len u16, name utf-8 bytes, ndim u8, ndim * u32 shape,
        offset u64   (byte offset into the payload region)
    payload  concatenated float64 C-order tensor data
    checksum u64     CRC-32 (``zlib.crc32``) of every preceding byte, zero-extended

Version-1 files (same layout, FNV-1a 64 trailer from `fnv1a64`) still load;
any other version is refused.  Version 1 stored a k×k W0 as (C_in, C_out, k²)
rather than in conv layout (C_out, C_in, k, k), so `load_into` rejects it with
a `ShapeMismatchError` naming the ``.w0`` instead of loading it transposed.

State covers every parameter plus batch-norm running statistics, in model
iteration order.  Loading verifies magic, version, checksum, and per-tensor
shapes before touching the model, and reports the first offending tensor by
name; it then writes into the model's own arrays, so views of them (a static
twin's kernel) stay live.  Tensor names are unique: saving or loading a
repeated name is an error.
Saving streams the header, manifest and each tensor to a temporary file next
to the target, checksumming as it writes, and renames it into place, so an
interrupted save leaves any earlier checkpoint intact.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from . import tensor as T

MAGIC = b"DCD1"
VERSION = 2

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64 of `data`: the version-1 checksum."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class CheckpointError(Exception):
    pass


class BadMagicError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


class ShapeMismatchError(CheckpointError):
    pass


class MissingTensorError(CheckpointError):
    pass


class UnexpectedTensorError(CheckpointError):
    pass


def save_checkpoint(path: str | Path, state: list[tuple[str, np.ndarray]]) -> None:
    names = [name for name, _ in state]
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise CheckpointError(f"{path}: duplicate tensor name {dup!r}; nothing written")
    arrays = [np.asarray(value, dtype="<f8", order="C") for _, value in state]
    header = bytearray(MAGIC + struct.pack("<II", VERSION, len(state)))
    offset = 0
    for name, arr in zip(names, arrays):
        encoded = name.encode("utf-8")
        header += struct.pack("<H", len(encoded)) + encoded
        header += struct.pack(f"<B{arr.ndim}IQ", arr.ndim, *arr.shape, offset)
        offset += arr.nbytes
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for chunk in (header, *(arr.data for arr in arrays)):
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<Q", crc))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Name -> tensor, verified; every tensor is a read-only view of the file's bytes."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    if len(blob) < 20:
        raise CheckpointError(f"{path}: truncated checkpoint ({len(blob)} bytes, header and checksum need 20)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version not in (1, VERSION):
        raise CheckpointError(f"{path}: unsupported version {version}")
    body, stored = memoryview(blob)[:-8], struct.unpack("<Q", blob[-8:])[0]
    actual = fnv1a64(body) if version == 1 else zlib.crc32(body)
    if actual != stored:
        raise ChecksumError(
            f"{path}: checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )
    pos = 12
    entries: list[tuple[str, tuple[int, ...], int]] = []
    for i in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", body, pos)
            pos += 2
            name = str(body[pos : pos + name_len], "utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", body, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", body, pos)
            pos += 4 * ndim
            (offset,) = struct.unpack_from("<Q", body, pos)
            pos += 8
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed manifest entry {i} of {count}: {exc}") from None
        entries.append((name, shape, offset))
    out: dict[str, np.ndarray] = {}
    for i, (name, shape, offset) in enumerate(entries):
        if name in out:
            raise CheckpointError(f"{path}: manifest entry {i} repeats tensor name {name!r}")
        n = int(np.prod(shape, dtype=object))  # Python ints: a forged shape cannot overflow
        start = pos + offset
        if start + 8 * n > len(body):
            raise CheckpointError(f"{path}: manifest entry {i} ({name!r}, shape {shape}) runs past the payload")
        out[name] = np.frombuffer(body, dtype="<f8", count=n, offset=start).reshape(shape)
    return out


def load_into(graph, path: str | Path) -> None:
    """Copy a checkpoint into the arrays of `graph.state_items()`, in place
    through `tensor.write_state`, after validating every name and shape; the
    file's bytes are the only other copy."""
    data = load_checkpoint(path)
    expected = graph.state_items()
    for name, current in expected:
        if name not in data:
            raise MissingTensorError(f"{path}: checkpoint is missing tensor {name!r}")
        have, want = data[name].shape, current.shape
        if have != want:
            raise ShapeMismatchError(
                f"{path}: tensor {name!r} has shape {have}, model expects {want}"
            )
    known = {name for name, _ in expected}
    for name in data:
        if name not in known:
            raise UnexpectedTensorError(f"{path}: checkpoint has unknown tensor {name!r}")
    for name, current in expected:
        T.write_state(current, data[name])


def save_model(graph, path: str | Path) -> None:
    save_checkpoint(path, graph.state_items())
