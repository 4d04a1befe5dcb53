"""File formats.

Signals travel as CSV with header ``index,re,im`` plus a JSON sidecar
(`<name>.json` next to the CSV) holding ``{"x0": ..., "dx": ...}``; a CSV
named ``*.json`` would be its own sidecar, and is refused.
Matrices are a single binary file: a 4-byte little-endian header length,
a UTF-8 JSON header describing the grid, then row-major interleaved
(re, im) float64 little-endian values, which is the memory layout of a
little-endian complex128 array: a real matrix is written with imag 0 and
reads back complex.  A write puts each file in a new temporary beside it
and renames them only once all are written, a signal's sidecar before its
CSV.  The kernel sets modes (umask, default ACLs); the process umask is
never touched.  A crash between the two renames, or a CSV path that is a
directory, can leave a new sidecar by the old CSV.  No fsync: not durable.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import AMBIGUITY, PHASE_SPACE, PhaseSpaceGrid, SampledSignal, TFMatrix

MATRIX_FORMAT = "tfq-matrix"
MATRIX_VERSION = 1
MATRIX_DTYPE = "float64-le-interleaved"


def _atomic_write(files: dict) -> None:
    """Write ``{path: byte chunks}`` as the module docstring says, renaming in the mapping's order."""
    made = []  # a temporary is ours once its O_EXCL open has returned, never before
    try:
        for path, chunks in files.items():
            path = Path(path)
            tmp = Path(f"{path}.{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made.append((tmp, path))
            with open(fd, "wb") as fh:
                fh.writelines(chunks)
        for tmp, path in made:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in made:
            tmp.unlink(missing_ok=True)
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
    path, side = Path(path), sidecar_path(path)
    if side == path:
        raise DomainError(f"{path}: a signal's CSV cannot end in .json, the name of its sidecar")
    buf = ["index,re,im"]
    for i, v in enumerate(sig.samples):
        buf.append(f"{i},{float(v.real)!r},{float(v.imag)!r}")
    head = {"x0": sig.x0, "dx": sig.dx, **(meta or {})}
    _atomic_write({side: [json.dumps(head, indent=2).encode()],
                   path: [("\n".join(buf) + "\n").encode()]})


def read_signal(path) -> SampledSignal:
    path = Path(path)
    with open(sidecar_path(path)) as fh:
        x0, dx = _fields(json.load(fh), {"x0": float, "dx": float}, sidecar_path(path))
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if [f.strip() for f in next(reader, [])] != ["index", "re", "im"]:
            raise ValueError(f"{path}: expected header index,re,im")
        for row in filter(None, reader):  # blank lines carry no fields
            if len(row) != 3:
                raise ValueError(f"{path}: row of index {row[0]!r} has {len(row)} fields, not 3")
            rows.append((int(row[0]), float(row[1]), float(row[2])))
    rows.sort()
    if [i for i, _, _ in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: indices must be 0..n-1, each exactly once")
    samples = np.array([complex(r, i) for _, r, i in rows])
    return SampledSignal(samples, x0=x0, dx=dx)


def write_matrix(m: TFMatrix, path) -> None:
    """Header, then the values as contiguous little-endian complex128: no
    copy when they already are (real values are cast, imag exactly 0)."""
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
    values = np.ascontiguousarray(m.values, "<c16")
    _atomic_write({path: [struct.pack("<I", len(head)), head, values]})


def read_matrix(path) -> TFMatrix:
    """Check the header, then read the payload straight into one aligned
    complex128 array; its size must match the file's length exactly."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(4)
        if len(prefix) < 4:
            raise ValueError(f"{path}: truncated matrix file")
        (hlen,) = struct.unpack("<I", prefix)
        if 4 + hlen > size:  # before the read, which would allocate hlen bytes
            raise ValueError(f"{path}: truncated matrix file: {hlen} header bytes, {size} in all")
        header = json.loads(fh.read(hlen).decode())
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
        for key in ("nx", "nw"):  # int() above would pass 2.9 as 2 and true as 1
            if type(header[key]) is not int or header[key] < 1:
                raise ValueError(f"{path}: {key} {header[key]!r} is not an integer >= 1")
        if domain not in (PHASE_SPACE, AMBIGUITY):  # str() above would pass [1] as "[1]"
            raise ValueError(f"{path}: bad header value: domain {header['domain']!r}")
        if size - 4 - hlen != nx * nw * 16:
            raise ValueError(f"{path}: payload size mismatch")
        values = np.fromfile(fh, "<c16", count=nx * nw).reshape(nx, nw)
    grid = PhaseSpaceGrid(nx=nx, x0=x0, dx=dx, nw=nw, w0=w0, dw=dw)
    return TFMatrix(values, grid, domain)
