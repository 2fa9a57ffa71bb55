"""Atomic writes: a failed write leaves no temp file and the old bytes."""

import json

import pytest

from repro.atomic import write_atomic
from repro.netmon import write_qmon


def _boom(fh):
    fh.write(b"half a file")
    raise RuntimeError("disk full")


def test_text_bytes_and_callable_content(tmp_path):
    assert write_atomic(tmp_path / "a.txt", "héllo").read_bytes() == \
        "héllo".encode("utf-8")
    assert (write_atomic(tmp_path / "b.bin", b"\x00\x01").read_bytes()
            == b"\x00\x01")
    path = write_atomic(tmp_path / "c.bin", lambda fh: fh.write(b"cb"))
    assert path.read_bytes() == b"cb"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["a.txt", "b.bin", "c.bin"]


def test_failed_write_leaves_no_temp_and_keeps_old_file(tmp_path):
    path = tmp_path / "entry.bin"
    write_atomic(path, b"old")
    with pytest.raises(RuntimeError):
        write_atomic(path, _boom)
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]


def test_unserializable_qmon_leaves_no_temp(tmp_path):
    path = tmp_path / "run.qmon.json"
    write_qmon(path, {"schema": 1})
    with pytest.raises(TypeError):
        write_qmon(path, {"bad": object()})
    assert json.loads(path.read_text()) == {"schema": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["run.qmon.json"]
