"""Tensor container format: roundtrip fidelity and manifest structure."""

from __future__ import annotations

import numpy as np
import pytest

from extractedit.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_json,
    load_tensors,
    save_tensors,
)


def test_roundtrip_bit_exact(tmp_path, rng):
    tensors = {
        "embedding": rng.normal(size=(10, 4)),
        "encoder.l0.w_ih": rng.normal(size=(4, 12)),
        "bias": rng.normal(size=7),
        "scalar": np.array(3.5),
    }
    path = tmp_path / "params.bin"
    save_tensors(path, tensors)
    back = load_tensors(path)
    assert list(back) == list(tensors)
    for k in tensors:
        assert back[k].dtype == np.float64
        np.testing.assert_array_equal(back[k], tensors[k])


def test_manifest_is_plain_text_with_version(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.zeros((2, 3))})
    raw = path.read_bytes()
    header = raw.split(b"\n\n", 1)[0].decode("utf-8").split("\n")
    assert header[0] == f"tensors {FORMAT_VERSION} 1"
    name, shape, offset = header[1].split("\t")
    assert (name, shape, offset) == ("w", "2,3", "0")


def test_payload_is_little_endian_f64_at_offsets(tmp_path):
    a = np.arange(6, dtype=np.float64).reshape(2, 3)
    b = np.array([9.25, -1.5])
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": a, "b": b})
    raw = path.read_bytes()
    binary = raw.split(b"\n\n", 1)[1]
    np.testing.assert_array_equal(
        np.frombuffer(binary, dtype="<f8", count=6, offset=0).reshape(2, 3), a)
    np.testing.assert_array_equal(
        np.frombuffer(binary, dtype="<f8", count=2, offset=48), b)


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a manifest\n\nxxxx")
    with pytest.raises(CheckpointError):
        load_tensors(p)


@pytest.mark.parametrize("header,fault", [
    (b"\xfftensors 1 0", "manifest is not UTF-8"),
    (b"tensors x 1", "bad manifest header 'tensors x 1'"),
    (b"tensors 1 y", "bad manifest header 'tensors 1 y'"),
], ids=["not UTF-8", "version", "count"])
def test_malformed_header_names_the_file(tmp_path, header, fault):
    p = tmp_path / "bad.bin"
    p.write_bytes(header + b"\n\n")
    with pytest.raises(CheckpointError, match=f"bad.bin: {fault}"):
        load_tensors(p)


@pytest.mark.parametrize("content", [b'{"a": 1', b'{"a": "\xff"}'],
                         ids=["truncated", "not UTF-8"])
def test_malformed_json_names_the_file(tmp_path, content):
    p = tmp_path / "state.json"
    p.write_bytes(content)
    with pytest.raises(CheckpointError, match="state.json: malformed JSON"):
        load_json(p)


def test_tab_in_name_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_tensors(tmp_path / "t.bin", {"a\tb": np.zeros(1)})


def test_written_bytes_deterministic(tmp_path, rng):
    tensors = {"x": rng.normal(size=(3, 3)), "y": rng.normal(size=2)}
    save_tensors(tmp_path / "a.bin", tensors)
    save_tensors(tmp_path / "b.bin", tensors)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def rewrite_manifest(path, edit_lines=None, payload=None):
    """Rewrite a saved file's manifest lines and/or payload in place."""
    head, body = path.read_bytes().split(b"\n\n", 1)
    lines = head.decode("utf-8").split("\n")
    if edit_lines is not None:
        lines = edit_lines(lines)
    path.write_bytes("\n".join(lines).encode("utf-8") + b"\n\n"
                     + (body if payload is None else payload(body)))


@pytest.fixture
def two_tensors(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.array([9.25, -1.5])})
    return path


def test_negative_dimension_rejected(two_tensors):
    rewrite_manifest(two_tensors, lambda ls: [ls[0], "a\t-2,-3\t0", ls[2]])
    with pytest.raises(CheckpointError, match=r"t\.bin.*'a'.*negative"):
        load_tensors(two_tensors)


def test_overlapping_offset_rejected(two_tensors):
    rewrite_manifest(two_tensors, lambda ls: [ls[0], ls[1], "b\t2\t40"])
    with pytest.raises(CheckpointError, match=r"t\.bin.*'b'.*offset 40, expected 48"):
        load_tensors(two_tensors)


def test_name_listed_twice_rejected(two_tensors):
    """A manifest that lists ``a`` twice tiles the payload exactly, but the
    second entry would silently replace the first: refused by name."""
    rewrite_manifest(two_tensors, lambda ls: [ls[0], ls[1], "a\t2\t48"])
    with pytest.raises(CheckpointError, match=r"t\.bin: tensor 'a' is listed twice"):
        load_tensors(two_tensors)


def test_trailing_bytes_rejected(two_tensors):
    rewrite_manifest(two_tensors, payload=lambda body: body + bytes(8))
    with pytest.raises(CheckpointError, match=r"t\.bin.*8 trailing bytes"):
        load_tensors(two_tensors)


def test_truncated_payload_rejected(two_tensors):
    rewrite_manifest(two_tensors, payload=lambda body: body[:-1])
    with pytest.raises(CheckpointError, match=r"t\.bin.*'b'.*payload ends at byte 63"):
        load_tensors(two_tensors)
