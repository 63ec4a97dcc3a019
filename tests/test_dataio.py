import struct

import numpy as np
import pytest

from ldme import (
    DataFormatError,
    load_hypotheses_json,
    load_points,
    load_points_binary,
    load_points_csv,
    save_hypotheses_json,
    save_points_binary,
    save_points_csv,
)


def test_csv_round_trip(tmp_path):
    # %.17g round-trips every float64 exactly, subnormals and -0.0 included.
    rng = np.random.default_rng(60)
    scales = 10.0 ** np.arange(-300, 301, 25)
    pts = rng.normal(size=(len(scales), 5)) * scales[:, None]
    info = np.finfo(np.float64)
    pts = np.vstack([pts, [-0.0, 5e-324, -5e-324, info.max, info.tiny]])
    path = tmp_path / "pts.csv"
    save_points_csv(path, pts)
    assert load_points_csv(path).tobytes() == pts.tobytes()


def test_binary_round_trip_and_header(tmp_path):
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(9, 4))
    path = tmp_path / "pts.ldme"
    save_points_binary(path, pts)
    raw = path.read_bytes()
    assert raw[:4] == b"LDME"
    n, d = struct.unpack("<II", raw[4:12])
    assert (n, d) == (9, 4)
    vals = struct.unpack("<36d", raw[12:])
    np.testing.assert_array_equal(np.array(vals).reshape(9, 4), pts)
    np.testing.assert_array_equal(load_points_binary(path), pts)


def test_load_points_sniffs_format(tmp_path):
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    csv_path = tmp_path / "a.csv"
    bin_path = tmp_path / "b.dat"
    save_points_csv(csv_path, pts)
    save_points_binary(bin_path, pts)
    np.testing.assert_allclose(load_points(csv_path), pts)
    np.testing.assert_array_equal(load_points(bin_path), pts)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.ldme"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        load_points_binary(path)


def test_truncated_binary_raises(tmp_path):
    path = tmp_path / "trunc.ldme"
    path.write_bytes(b"LDME" + struct.pack("<II", 5, 3) + b"\x00" * 8)
    with pytest.raises(DataFormatError):
        load_points_binary(path)


def test_csv_garbage_raises(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not,a\nnumber,at all\n")
    with pytest.raises(DataFormatError):
        load_points_csv(path)


def test_hypotheses_json_round_trip(tmp_path):
    path = tmp_path / "h.json"
    vecs = np.array([[1.5, -2.0], [0.0, 3.25]])
    save_hypotheses_json(path, vecs, extra={"alpha": 0.2})
    np.testing.assert_array_equal(load_hypotheses_json(path), vecs)


def test_hypotheses_json_missing_key(tmp_path):
    path = tmp_path / "h.json"
    path.write_text("{}")
    with pytest.raises(DataFormatError):
        load_hypotheses_json(path)
