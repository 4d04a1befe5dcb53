"""File formats.

Signals travel as CSV with header ``index,re,im`` plus a JSON sidecar
(`<name>.json` next to the CSV) holding ``{"x0": ..., "dx": ...}``.
Matrices are a single binary file: a 4-byte little-endian header length,
a UTF-8 JSON header describing the grid, then row-major interleaved
(re, im) float64 little-endian values.  All writes are atomic
(temporary file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .grid import PhaseSpaceGrid, SampledSignal, TFMatrix

MATRIX_FORMAT = "tfq-matrix"
MATRIX_VERSION = 1
MATRIX_DTYPE = "float64-le-interleaved"


def _atomic_write(path: Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name)
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            # mkstemp creates 0600; give the file the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fields(header, types: dict, path) -> list:
    """The required header values, each converted by its type."""
    try:
        return [t(header[k]) for k, t in types.items()]
    except KeyError as exc:
        raise ValueError(f"{path}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad header value: {exc}") from None


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_signal(sig: SampledSignal, path, meta: dict | None = None) -> None:
    path = Path(path)
    buf = ["index,re,im"]
    for i, v in enumerate(sig.samples):
        buf.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    _atomic_write(path, ("\n".join(buf) + "\n").encode())
    side = {"x0": sig.x0, "dx": sig.dx}
    if meta:
        side.update(meta)
    _atomic_write(sidecar_path(path), json.dumps(side, indent=2).encode())


def read_signal(path) -> SampledSignal:
    path = Path(path)
    with open(sidecar_path(path)) as fh:
        x0, dx = _fields(json.load(fh), {"x0": float, "dx": float}, sidecar_path(path))
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != [
            "index",
            "re",
            "im",
        ]:
            raise ValueError(f"{path}: expected header index,re,im")
        for row in reader:
            rows.append((int(row["index"]), float(row["re"]), float(row["im"])))
    rows.sort()
    if [i for i, _, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: indices must be 0..n-1, each exactly once")
    samples = np.array([complex(r, i) for _, r, i in rows])
    return SampledSignal(samples, x0=x0, dx=dx)


def write_matrix(m: TFMatrix, path) -> None:
    g = m.grid
    header = {
        "format": MATRIX_FORMAT,
        "version": MATRIX_VERSION,
        "nx": g.nx,
        "x0": g.x0,
        "dx": g.dx,
        "nw": g.nw,
        "w0": g.w0,
        "dw": g.dw,
        "domain": m.domain_tag,
        "dtype": MATRIX_DTYPE,
    }
    head = json.dumps(header).encode()
    inter = np.empty((g.nx, g.nw, 2), dtype="<f8")
    inter[..., 0] = m.values.real
    inter[..., 1] = m.values.imag
    _atomic_write(Path(path), struct.pack("<I", len(head)) + head + inter.tobytes())


def read_matrix(path) -> TFMatrix:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated matrix file")
    (hlen,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + hlen].decode())
    if not isinstance(header, dict) or header.get("format") != MATRIX_FORMAT:
        raise ValueError(f"{path}: not a {MATRIX_FORMAT} file")
    for key, want in (("version", MATRIX_VERSION), ("dtype", MATRIX_DTYPE)):
        got = header.get(key)
        if type(got) is not type(want) or got != want:  # true == 1 in Python
            raise ValueError(f"{path}: {key} {got!r} is not {want!r}")
    nx, x0, dx, nw, w0, dw, domain = _fields(header, {
        "nx": int, "x0": float, "dx": float, "nw": int, "w0": float, "dw": float,
        "domain": str,
    }, path)
    data = np.frombuffer(raw[4 + hlen :], dtype="<f8")
    if data.size != nx * nw * 2:
        raise ValueError(f"{path}: payload size mismatch")
    data = data.reshape(nx, nw, 2)
    grid = PhaseSpaceGrid(nx=nx, x0=x0, dx=dx, nw=nw, w0=w0, dw=dw)
    return TFMatrix(data[..., 0] + 1j * data[..., 1], grid, domain)
