"""Versioned binary checkpoints: schema + model config + parameter tensors.

Byte layout (all integers little-endian, documented in the README):

    magic   8 bytes  b"FCNCKPT1"
    version u32      currently 1
    config  u32 field count, u32 d, u32 lcn_depth, u32 ecn_depth,
            u32 mask mode (0 paper, 1 no_ln, 2 identity),
            f64 dropout_rate, f64 ln_epsilon,
            u32 discretize mode (0 lnsq, 1 log2)
    schema  per field: u32 name length + UTF-8 name,
            u32 kind (0 categorical, 1 numeric), u32 min_count,
            u32 vocab size, then vocab tokens as u32 length + UTF-8
            in id order (id 0, the OOV token, first)
    tensors in the fixed order: embeddings per field, then per lcn layer
            (w, b, gain, beta), per ecn layer likewise, then w_deep, b_deep,
            w_shallow, b_shallow. Each tensor: u32 rank, u32 dims, payload
            float32 little-endian.
    crc     u32 CRC32 of every preceding byte

Loading reproduces the float32-stored values exactly (widened to float64)
and fails with a distinct error for a bad magic, an unsupported version, a
truncated file, a checksum mismatch, or content no valid file holds (an
invalid code or config value, an undecodable string, a repeated vocab token,
a tensor shaped other than d, the depths and the vocab sizes give, an inf or NaN).
Saving refuses parameters whose float32 cast is not finite.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
import struct
import zlib

import numpy as np

from fcn_ctr.features import (DISCRETIZE_MODES, FIELD_KINDS, FeatureSchema, FieldSpec,
                              atomic_open)
from fcn_ctr.model import (MASK_MODES, ModelConfig, ModelParams, dense_layout, dense_size,
                           named_tensors)

MAGIC = b"FCNCKPT1"
VERSION = 1

_CONFIG = struct.Struct("<5I2dI")  # the config of the layout above, read and written whole
_U32 = struct.Struct("<I")


class CheckpointError(Exception):
    """Base class for malformed checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class ChecksumError(CheckpointError):
    pass


class FormatError(CheckpointError):
    """Bytes that decode to something no valid checkpoint holds."""


def checkpoint_bytes(params: ModelParams, config: ModelConfig,
                     schema: FeatureSchema) -> bytearray:
    """The file, written into one buffer sized up front: each tensor is cast straight
    into its float32 view of the buffer, so the file is held once."""
    parts = [MAGIC, _U32.pack(VERSION),
             _CONFIG.pack(schema.num_fields, config.d, config.lcn_depth, config.ecn_depth,
                          MASK_MODES.index(config.mask_mode), config.dropout_rate,
                          config.ln_epsilon, DISCRETIZE_MODES.index(schema.discretize))]
    for spec, vocab in zip(schema.fields, schema.vocabs):
        name = spec.name.encode("utf-8")
        parts += [_U32.pack(len(name)), name,
                  struct.pack("<3I", FIELD_KINDS.index(spec.kind), spec.min_count, len(vocab)),
                  b"".join(_U32.pack(len(tok)) + tok
                           for tok in map(str.encode, sorted(vocab, key=vocab.get)))]
    tensors = [(name, tensor, struct.pack(f"<{tensor.ndim + 1}I", tensor.ndim, *tensor.shape))
               for name, tensor in named_tensors(params)]

    data = bytearray(sum(map(len, parts)) + sum(len(h) + 4 * t.size for _, t, h in tensors) + 4)
    pos = 0
    for part in parts:
        data[pos:pos + len(part)] = part
        pos += len(part)
    for name, tensor, header in tensors:
        data[pos:pos + len(header)] = header
        pos += len(header)
        stored = np.frombuffer(data, "<f4", tensor.size, pos).reshape(tensor.shape)
        with np.errstate(over="ignore"):
            np.copyto(stored, tensor)
        if not np.isfinite(stored).all():
            raise ValueError(f"cannot save tensor {name}: a value is not finite as float32")
        pos += stored.nbytes
    _U32.pack_into(data, pos, zlib.crc32(memoryview(data)[:pos]))
    return data


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    schema: FeatureSchema) -> None:
    """Write the checkpoint to ``path`` through a temporary file beside it, so that
    a failed write leaves what was there before."""
    data = checkpoint_bytes(params, config, schema)
    with atomic_open(path, "wb") as fh:
        fh.write(data)


_CHUNK = 1 << 18  # bytes a file is read by: the schema's read-ahead, a payload's step


class _Reader:
    """Reads a checkpoint front to back, from bytes or from an open file: the one
    parser of both. Every read goes through one window, ``data``, the file's bytes
    from offset ``base`` on: bytes are a window that holds the whole file, and a
    file's window is refilled as the parse needs more, so only ``__init__`` and
    ``need`` tell the two apart. ``crc`` is the CRC32 of every byte before base."""

    def __init__(self, data, fh=None):
        self.data, self.fh = data, fh
        self.size = len(data) if fh is None else os.fstat(fh.fileno()).st_size
        self.base = self.pos = self.crc = 0

    def truncated(self, n: int, at: int) -> TruncatedCheckpointError:
        return TruncatedCheckpointError(
            f"checkpoint truncated: needed {n} bytes at offset {at}, file has {self.size}")

    def need(self, at: int, n: int, ahead: int = 0) -> None:
        """Have the n bytes at offset at (at or past pos) in data. Where a file's
        data ends before them, it drops the bytes before pos, after the CRC has
        run over them, and reads on to them and ``ahead`` more."""
        if at + n > self.size:
            raise self.truncated(n, at)
        end = self.base + len(self.data)
        if at + n > end:
            more = self.fh.read(min(at + n + ahead, self.size) - end)
            if at + n > end + len(more):  # the file shrank while it was read
                raise self.truncated(n, at)
            self.checksum(self.pos)
            self.data, self.base = self.data[self.pos - self.base:] + more, self.pos

    def advance(self, n: int) -> int:
        """Move past the next n bytes and return their index in data: every read
        unpacks or views the bytes in place, and only a string is sliced out."""
        self.need(self.pos, n)
        self.pos += n
        return self.pos - n - self.base

    def unpack(self, fmt: str) -> tuple:
        at = self.advance(struct.calcsize(fmt))  # before data is read: it may replace data
        return struct.unpack_from(fmt, self.data, at)

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def strings(self, count: int) -> dict[str, int]:
        """The next ``count`` strings, each a u32 length and UTF-8 bytes, as string ->
        index: one loop that checks each string's bound before decoding it, and
        reads more of a file where data ends inside a string."""
        unpack = _U32.unpack_from
        out, i = {}, 0
        while True:
            data, base = self.data, self.base
            pos, end = self.pos - base, len(data)
            try:
                for i in range(i, count):
                    start = pos + 4
                    stop = start + unpack(data, pos)[0]
                    if stop > end:
                        break
                    out[data[start:stop].decode()] = i
                    pos = stop
                else:
                    i = count
            except struct.error:  # fewer than 4 bytes left for the length at pos
                pass
            except UnicodeDecodeError as exc:
                raise FormatError(f"invalid UTF-8 string ending at offset {base + stop}") from exc
            self.pos = base + pos
            if i == count:
                return out
            if pos + 4 > end:
                self.need(self.pos, 4, _CHUNK)
            else:
                self.need(self.pos + 4, unpack(data, pos)[0], _CHUNK)

    def checksum(self, upto: int) -> None:
        """Run the CRC on over data's bytes from base up to offset ``upto``."""
        self.crc = zlib.crc32(memoryview(self.data)[:upto - self.base], self.crc)

    def floats(self, count: int, out: np.ndarray | None) -> None:
        """Move past the next ``count`` float32s, widening them into ``out`` (C-contiguous,
        of ``count`` values) where given, ``_CHUNK`` bytes at a time."""
        if 4 * count > self.size - self.pos:
            raise self.truncated(4 * count, self.pos)
        flat, step = None if out is None else out.reshape(-1), _CHUNK // 4
        for lo in range(0, count, step):
            k = min(step, count - lo)
            at = self.advance(4 * k)
            if flat is not None:
                flat[lo:lo + k] = np.frombuffer(self.data, "<f4", k, at)


def _parse(r: _Reader):
    """Decode the checkpoint ``r`` reads into (params, config, schema)."""
    (magic,) = r.unpack(f"{len(MAGIC)}s")
    if magic != MAGIC:
        raise BadMagicError(f"not a checkpoint: magic {magic!r}")
    version = r.u32()
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported checkpoint version {version}")

    (num_fields, d, lcn_depth, ecn_depth, mask_idx, dropout, ln_epsilon,
     disc_idx) = r.unpack(_CONFIG.format)
    if mask_idx >= len(MASK_MODES):
        raise FormatError(f"invalid mask mode code {mask_idx}")
    if disc_idx >= len(DISCRETIZE_MODES):
        raise FormatError(f"invalid discretize mode code {disc_idx}")

    fields = []
    vocabs = []
    for _ in range(num_fields):
        (name,) = r.strings(1)
        kind_idx, min_count, size = r.unpack("<3I")
        if kind_idx >= len(FIELD_KINDS):
            raise FormatError(f"invalid field kind code {kind_idx}")
        if min_count < 1:
            raise FormatError(f"field {name!r}: invalid min_count {min_count}")
        if size > (r.size - r.pos) // 4:  # every token takes at least its u32 length
            raise TruncatedCheckpointError(
                f"checkpoint truncated: {size} vocab tokens need at least {4 * size} bytes "
                f"at offset {r.pos}, file has {r.size}")
        vocab = r.strings(size)
        if len(vocab) != size:
            raise FormatError(f"field {name!r}: vocab repeats a token")
        fields.append(FieldSpec(name, FIELD_KINDS[kind_idx], min_count))
        vocabs.append(vocab)
    schema = FeatureSchema(fields, vocabs, DISCRETIZE_MODES[disc_idx])

    # every tensor's shape follows from d, the depths and the vocab sizes; a tensor
    # of any other shape is refused before its payload is read. Each payload is
    # widened into its tensor of the params, made only if every tensor fits in the
    # rest of the file (a layer's four headers take 36 bytes): if not, one is refused
    sizes, width, depths = schema.sizes, d * num_fields, (lcn_depth, ecn_depth)
    rows, values = int(sum(sizes)), dense_size(width, *depths)
    params = (ModelParams(np.empty((rows, d)), sizes, np.empty(values), *depths)
              if 4 * (rows * d + values) + 36 * sum(depths) <= r.size - r.pos else None)
    homes = itertools.repeat(None) if params is None else [t for _, t in named_tensors(params)]
    expected = [(f"embeddings[{j}]", (size, d)) for j, size in enumerate(sizes)]
    for (name, shape), home in zip(itertools.chain(expected, dense_layout(width, *depths)),
                                   homes):
        rank = r.u32()
        if rank != len(shape):
            raise FormatError(f"tensor {name}: expected rank {len(shape)}, found rank {rank}")
        dims = r.unpack(f"<{rank}I")
        if dims != shape:
            raise FormatError(f"tensor {name}: expected dims {shape}, found {dims}")
        r.floats(math.prod(shape), home)

    stored_crc = r.u32()
    if r.pos != r.size:
        raise ChecksumError(f"{r.size - r.pos} trailing bytes after checksum")
    r.checksum(r.pos - 4)
    if stored_crc != r.crc:
        raise ChecksumError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {r.crc:#010x}"
        )

    for name, t in named_tensors(params):
        if not np.isfinite(t).all():
            raise FormatError(f"tensor {name} holds a non-finite value")
    try:
        config = ModelConfig(d=d, lcn_depth=lcn_depth, ecn_depth=ecn_depth,
                             mask_mode=MASK_MODES[mask_idx], dropout_rate=dropout,
                             ln_epsilon=ln_epsilon, seed=0)
    except ValueError as exc:
        raise FormatError(f"invalid model config: {exc}") from exc
    return params, config, schema


def parse_checkpoint(data: bytes):
    """Decode checkpoint bytes into (params, config, schema), reading them in place."""
    return _parse(_Reader(data))


def load_checkpoint(path):
    """Read and validate a checkpoint file. Returns (params, config, schema). A
    regular file is streamed: its bytes are never held whole, and each payload is
    widened into its tensor in chunks as it is read."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe: no size to stream against
            return parse_checkpoint(fh.read())
        return _parse(_Reader(b"", fh))
