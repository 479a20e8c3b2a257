"""Binary checkpoint container shared by layers, decoders and the trainer.

Layout, all little-endian:

    8 bytes   magic "HLSTMAT1"
    u32       variant tag length, then utf-8 tag bytes
    u32       record count
    per record:
        u32       name length, then utf-8 name bytes
        u32       rank
        rank*u32  dims
        float64   payload, row-major

A save writes a temporary file next to ``path`` and renames it onto
``path``, so a save that fails midway leaves the previous checkpoint
intact and no temporary file behind.  A load renames the records of DA
files written before its scorers became ``AdditiveAttention``
(``_DA_RENAMES``), and stacks the per-gate records of files written
before an ``LstmCell`` held one weight per input: each complete quartet
``<p>.W_i`` ... ``<p>.W_g`` (likewise ``U``, ``b``) becomes ``<p>.W``,
its blocks in ``LstmCell.GATES`` order.  Both apply to optimizer state
``opt/<name>/<slot>`` too.

A load reads each payload straight into the array it returns, so the
file's bytes are copied once, into arrays that own their data.  Every
length and dims count is still checked against what is left of the file
before anything is allocated for it.
"""

from __future__ import annotations

import math
import os
import re
import struct
import threading

import numpy as np

from .errors import FormatError
from .layers import LstmCell

MAGIC = b"HLSTMAT1"

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint"]

# DA record names of the older layout -> the names its parameters have now
_DA_RENAMES = {"attn1.W_v": "attn1.U_a", "attn1.W_h": "attn1.W_a",
               "attn2.W_v": "attn2.U_a", "attn2.W_h": "attn2.W_a",
               "W_s": "sentinel.U_a", "W_h3": "sentinel.W_a", "w_a": "sentinel.w"}
# a per-gate LSTM record of the older layout: "opt/top.U_f/Eg" is gate f of "opt/top.U/Eg"
_GATE_RECORD = re.compile(rf"(.+\.[WUb])_([{''.join(LstmCell.GATES)}])(|/[^/]+)")


def save_checkpoint(path, variant: str, arrays: dict[str, np.ndarray]) -> None:
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write(fh, variant, arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write(fh, variant: str, arrays: dict[str, np.ndarray]) -> None:
    fh.write(MAGIC)
    tag = variant.encode("utf-8")
    fh.write(struct.pack("<I", len(tag)))
    fh.write(tag)
    fh.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        # a little-endian, C-ordered float64 view: a copy only when the input is not one
        arr = np.asarray(arr, dtype="<f8", order="C")
        nb = name.encode("utf-8")
        fh.write(struct.pack("<I", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<I", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(arr.reshape(-1).view(np.uint8))


def _check_left(fh, n: int, what: str, size: int) -> None:
    """Fail unless ``n`` bytes are left in a file of ``size`` bytes, so a
    corrupt length or dims never makes the reader allocate for it."""
    at = fh.tell()
    if n > size - at:
        raise FormatError(f"truncated checkpoint while reading {what}: expected {n} bytes, "
                          f"got {size - at} (at byte offset {at})")


def _read_exact(fh, n: int, what: str, size: int) -> bytes:
    """The next ``n`` bytes of a file of ``size`` bytes, checked first."""
    _check_left(fh, n, what, size)
    return fh.read(n)


def _read_payload(fh, dims: tuple[int, ...], name: str, size: int) -> np.ndarray:
    """The next record payload, read into a new little-endian float64
    array of shape ``dims`` once its byte count is checked."""
    what = f"payload of {name!r}"
    n = 8 * math.prod(dims)
    _check_left(fh, n, what, size)
    arr = np.empty(dims, dtype="<f8")
    got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != n:
        raise FormatError(f"truncated checkpoint while reading {what}: expected {n} bytes, "
                          f"got {got}")
    return arr


def _read_text(fh, n: int, what: str, size: int) -> str:
    at = fh.tell()
    try:
        return _read_exact(fh, n, what, size).decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"checkpoint {what} is not UTF-8 (at byte offset {at})") from None


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"checkpoint {path}: {exc.strerror}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte offset 0")
        (tag_len,) = struct.unpack("<I", _read_exact(fh, 4, "tag length", size))
        variant = _read_text(fh, tag_len, "variant tag", size)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "record count", size))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length", size))
            name = _read_text(fh, name_len, "name", size)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank", size))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims", size))
            arrays[name] = _read_payload(fh, dims, name, size)
        if fh.tell() != size:
            raise FormatError(f"trailing bytes after the last record at byte offset {fh.tell()}")
    if variant == "da":
        arrays = {"/".join(_DA_RENAMES.get(part, part) for part in name.split("/")): arr
                  for name, arr in arrays.items()}
    for m in filter(None, map(_GATE_RECORD.fullmatch, list(arrays))):
        quartet = [f"{m[1]}_{g}{m[3]}" for g in LstmCell.GATES]
        if m[2] == LstmCell.GATES[0] and all(q in arrays for q in quartet):
            arrays[m[1] + m[3]] = np.concatenate([arrays.pop(q) for q in quartet])
    return variant, arrays
