import json
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
from ldme.cli import main


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


def test_empty_hypothesis_list_round_trips(tmp_path):
    path = tmp_path / "h.json"
    save_hypotheses_json(path, np.zeros((0, 3)))
    assert json.loads(path.read_text()) == {"vectors": []}
    assert load_hypotheses_json(path).shape == (0, 0)


@pytest.mark.parametrize(
    "vectors", [[[1.0, 2.0], [3.0]], [["a", "b"]], [[1.0, None]], [[[1.0]]], 5.0]
)
def test_ragged_or_non_numeric_hypotheses_raise(tmp_path, vectors):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"vectors": vectors}))
    with pytest.raises(DataFormatError):
        load_hypotheses_json(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n  \n", "# a comment only\n"])
def test_csv_without_points_raises(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="no points"):
        load_points_csv(path)
    with pytest.raises(DataFormatError, match="no points"):
        load_points(path)


@pytest.mark.parametrize("n, d", [(0, 3), (4, 0)])
def test_binary_without_points_raises(tmp_path, n, d):
    path = tmp_path / "empty.ldme"
    path.write_bytes(b"LDME" + struct.pack("<II", n, d))
    with pytest.raises(DataFormatError, match="no points"):
        load_points(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_non_finite_points_raise_and_exit_4(tmp_path, capsys, fmt, bad):
    # As for a hypotheses file, a non-finite value is a data error, not a
    # config error: the CLI exits 4 before estimating anything.
    pts = np.arange(12.0).reshape(6, 2)
    pts[3, 1] = bad
    path = tmp_path / f"pts.{fmt}"
    (save_points_csv if fmt == "csv" else save_points_binary)(path, pts)
    with pytest.raises(DataFormatError, match="finite"):
        load_points(path)
    out = tmp_path / "hyps.json"
    assert main(["estimate", "--input", str(path), "--alpha", "0.3", "--out", str(out)]) == 4
    assert "ldme: data error: " in capsys.readouterr().err and not out.exists()
