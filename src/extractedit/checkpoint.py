"""Checkpoint serialization.

Tensor container format (version 1): a plain-text manifest, then the raw
bytes. The manifest's first line is ``tensors <format-version> <count>``;
each following line is ``name<TAB>comma-separated-shape<TAB>byte-offset``
(offset into the binary section); a single blank line terminates the
manifest. Tensors are raw little-endian float64, row-major, stored back
to back in manifest order; the payload holds nothing else, and a manifest
that does not tile it exactly, or lists a name twice, is rejected on load.

A checkpoint directory holds ``params.bin`` and ``optim.bin`` (the arrays
of ``training._checkpoint_arrays``: weights, Adam moments), ``index.bin``
(embedding-index snapshots), and ``state.json`` (counters, RNG state,
config echo, vocabulary, metric history) so a run can resume bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint payload."""


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named arrays as manifest + raw little-endian float64."""
    lines = [f"tensors {FORMAT_VERSION} {len(tensors)}"]
    offset = 0
    blobs = []
    for name, arr in tensors.items():
        if "\t" in name or "\n" in name:
            raise CheckpointError(f"tensor name contains separators: {name!r}")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        shape = ",".join(str(d) for d in arr.shape) if arr.ndim else ""
        lines.append(f"{name}\t{shape}\t{offset}")
        blobs.append(arr.tobytes())
        offset += len(blobs[-1])
    manifest = ("\n".join(lines) + "\n\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(manifest)
        for blob in blobs:
            f.write(blob)


def load_tensors(path) -> dict[str, np.ndarray]:
    """Named arrays, read-only float64 views of the file's payload, uncopied."""
    with open(path, "rb") as f:
        raw = f.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing manifest terminator")
    try:
        header_lines = raw[:sep].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: manifest is not UTF-8") from None
    binary = raw[sep + 2 :]
    head = header_lines[0].split()
    if len(head) != 3 or head[0] != "tensors" or not (head[1] + head[2]).isdecimal():
        raise CheckpointError(f"{path}: bad manifest header {header_lines[0]!r}")
    version, count = int(head[1]), int(head[2])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if len(header_lines) - 1 != count:
        raise CheckpointError(f"{path}: manifest count mismatch")
    out: dict[str, np.ndarray] = {}
    end = 0
    for line in header_lines[1:]:
        fields = line.split("\t")
        if len(fields) != 3:
            raise CheckpointError(f"{path}: bad manifest line {line!r}")
        name, shape_s, offset_s = fields
        if name in out:
            raise CheckpointError(f"{path}: tensor {name!r} is listed twice")
        try:
            shape = tuple(int(d) for d in shape_s.split(",")) if shape_s else ()
            offset = int(offset_s)
        except ValueError:
            raise CheckpointError(
                f"{path}: tensor {name!r}: bad shape or offset in {line!r}") from None
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: tensor {name!r}: negative dimension {shape}")
        if offset != end:
            raise CheckpointError(
                f"{path}: tensor {name!r}: offset {offset}, expected {end}")
        n = math.prod(shape)
        end += 8 * n
        if end > len(binary):
            raise CheckpointError(
                f"{path}: tensor {name!r}: payload ends at byte {len(binary)}, "
                f"tensor needs {end}")
        arr = np.frombuffer(binary, dtype="<f8", count=n, offset=offset)
        out[name] = arr.reshape(shape).astype(np.float64, copy=False)
    if end != len(binary):
        raise CheckpointError(
            f"{path}: {len(binary) - end} trailing bytes after the last tensor")
    return out


def save_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


def load_json(path) -> dict:
    """A JSON file's object; malformed UTF-8 or JSON, or a payload that is
    not an object, is a CheckpointError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except ValueError as e:  # json.JSONDecodeError and UnicodeDecodeError
        raise CheckpointError(f"{path}: malformed JSON: {e}") from e
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: not a JSON object")
    return payload
