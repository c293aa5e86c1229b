"""Binary/CSV serialization: packed variables, data matrices, key-value reports.

Formats are deliberately simple:

* variables: magic ``SPGAEZ1\\n``, three little-endian int64 (N, N0, N1), then
  the packed coefficients as little-endian float64 in pack order;
* matrix: magic ``SPGAEM1\\n``, two little-endian int64 (rows, cols), then
  row-major little-endian float64;
* reports/configs: ``key = value`` lines, ``#`` comments allowed.

The binary formats here and the two IDX formats ``data`` reads (images,
labels) share one framing: magic, a header of dimensions, a payload whose
length the header fixes, nothing after it.  ``read_framed`` owns the checks
of that framing for all four.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import Variables, packed_size

VAR_MAGIC = b"SPGAEZ1\n"
MAT_MAGIC = b"SPGAEM1\n"


class FormatError(ValueError):
    """Bad magic / truncation; message carries the byte offset."""


def _read_exact(fh, count, path, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(f"{path}: truncated {what}: wanted {count} bytes at "
                          f"offset {fh.tell() - len(buf)}, got {len(buf)}")
    return buf


def read_framed(path, magic: bytes, header: str, min_dim: int, payload_bytes,
                payload: str = "payload") -> tuple[tuple, bytes]:
    """Read ``magic``, the struct ``header`` of dimensions (each >= ``min_dim``),
    then exactly ``payload_bytes(dims)`` bytes; returns (dims, payload bytes).

    Every error names the byte offset where the file departs from the format.
    """
    with open(path, "rb") as fh:
        got = _read_exact(fh, len(magic), path, "magic")
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r} at offset 0, "
                              f"expected {magic!r}")
        dims = struct.unpack(header, _read_exact(fh, struct.calcsize(header), path,
                                                 "header"))
        if min(dims) < min_dim:
            raise FormatError(f"{path}: {'nonpositive' if min_dim else 'negative'} "
                              f"dimension in header at offset {len(magic)}")
        raw = _read_exact(fh, payload_bytes(dims), path, payload)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes at offset {fh.tell() - 1}")
    return dims, raw


def save_variables(path, z: Variables) -> None:
    """Write z under the header (N, N0, N1), read from the shapes of z.W and z.V."""
    (n1, n0), n = z.W.shape, z.V.shape[1]
    with open(path, "wb") as fh:
        fh.write(VAR_MAGIC)
        fh.write(struct.pack("<qqq", n, n0, n1))
        fh.write(z.pack().astype("<f8").tobytes())


def load_variables(path) -> tuple[Variables, tuple[int, int, int]]:
    dims, raw = read_framed(path, VAR_MAGIC, "<qqq", 1, lambda d: 8 * packed_size(d))
    vec = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return Variables.unpack(vec, dims), dims


def save_matrix(path, M) -> None:
    M = np.ascontiguousarray(np.asarray(M, dtype=np.float64))
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    with open(path, "wb") as fh:
        fh.write(MAT_MAGIC)
        fh.write(struct.pack("<qq", M.shape[0], M.shape[1]))
        fh.write(M.astype("<f8").tobytes())


def load_matrix(path) -> np.ndarray:
    dims, raw = read_framed(path, MAT_MAGIC, "<qq", 0, lambda d: 8 * math.prod(d))
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)


def save_matrix_csv(path, M) -> None:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    np.savetxt(path, M, fmt="%.17g", delimiter=",")


def format_value(v) -> str:
    """The text of one value in every text output: blank for None, 17
    significant digits (lossless) for a float, ``str`` for anything else."""
    if v is None:
        return ""
    return format(v, ".17g") if isinstance(v, float) else str(v)


def save_kv(path, mapping: dict) -> None:
    """Write ``key = value`` lines, each value in ``format_value``'s text."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {format_value(value)}\n")


def load_kv(path) -> dict:
    """Read ``key = value`` lines into a str -> str dict."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
