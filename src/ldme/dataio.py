"""Point-set and hypothesis file formats, and the JSON writer.

CSV: one point per row, comma-separated decimal floats, no header.
Binary: magic "LDME", then u32 n, u32 d, then n*d little-endian float64
values in row-major order. A points file with no points is refused, and
load_points refuses one with a non-finite value too.
Hypotheses: {"vectors": [[...], ...]} plus optional metadata.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .driver import HypothesisList

MAGIC = b"LDME"


class DataFormatError(ValueError):
    """Raised when a data file cannot be parsed."""


def save_points_csv(path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    np.savetxt(path, pts, delimiter=",", fmt="%.17g")


def write_json(payload, path=None) -> None:
    """Write payload as indented, key-sorted JSON and a newline, to path or stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def load_points_csv(path) -> np.ndarray:
    # loadtxt warns on a file without rows, so look for a first row here.
    with open(path, errors="replace") as fh:
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise DataFormatError(f"{path}: no points")
    try:
        pts = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as err:
        raise DataFormatError(f"{path}: not a valid points CSV ({err})") from err
    return pts


def save_points_binary(path, points) -> None:
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype="<f8")))
    n, d = pts.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([n, d], dtype="<u4").tobytes())
        fh.write(pts.tobytes())


def load_points_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = np.frombuffer(fh.read(8), dtype="<u4")
        if header.size != 2:
            raise DataFormatError(f"{path}: truncated header")
        n, d = int(header[0]), int(header[1])
        if n == 0 or d == 0:
            raise DataFormatError(f"{path}: no points (n={n}, d={d})")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * d:
        raise DataFormatError(
            f"{path}: expected {n * d} values for n={n}, d={d}, found {data.size}"
        )
    return data.reshape(n, d).astype(np.float64)


def load_points(path) -> np.ndarray:
    """Load a point file, sniffing the binary magic first."""
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.read(4)
    pts = load_points_binary(p) if head == MAGIC else load_points_csv(p)
    if not np.isfinite(pts).all():
        raise DataFormatError(f"{path}: points must have finite coordinates")
    return pts


def save_hypotheses_json(path, vectors, extra: dict | None = None) -> None:
    """An empty list is written as {"vectors": []}."""
    arr = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    write_json({"vectors": arr.tolist(), **(extra or {})}, path)


def load_hypotheses_json(path) -> np.ndarray:
    """The vectors as an (m, d) array, read as HypothesisList reads them:
    one flat list is one vector, and an empty list gives shape (0, 0)."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise DataFormatError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(payload, dict) or "vectors" not in payload:
        raise DataFormatError(f"{path}: missing 'vectors' key")
    try:
        arr = HypothesisList(payload["vectors"]).vectors
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
    except (TypeError, ValueError) as err:
        raise DataFormatError(f"{path}: 'vectors' is not a list of number lists ({err})") from err
    return arr
