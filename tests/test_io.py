"""Matrix files: copy-free writes and reads, real matrices, header checks;
the one write primitive: all temporaries before any rename, modes from the
kernel."""

import json
import os
import stat
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tfq import PHASE_SPACE, DomainError, PhaseSpaceGrid, TFMatrix, born_jordan
from tfq import io as tfq_io
from tfq.synth import SignalRecipe, synth


def _grid(n, dx=1 / 16):
    """The quadratic engines' grid: dw = 1/(2 n dx)."""
    return PhaseSpaceGrid.centered(n, dx, n, 1.0 / (2 * n * dx))


def test_real_matrix_writes_the_bytes_of_its_complex_cast(tmp_path):
    rng = np.random.default_rng(7)
    grid = _grid(64)
    real = TFMatrix(rng.normal(size=(64, 64)), grid, PHASE_SPACE)
    cplx = TFMatrix(real.values.astype(complex), grid, PHASE_SPACE)
    assert real.values.dtype == np.float64 and cplx.values.dtype == np.complex128
    tfq_io.write_matrix(real, tmp_path / "r.mat")
    tfq_io.write_matrix(cplx, tmp_path / "c.mat")
    assert (tmp_path / "r.mat").read_bytes() == (tmp_path / "c.mat").read_bytes()
    back = tfq_io.read_matrix(tmp_path / "r.mat")
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values.real, real.values)
    assert not back.values.imag.any()


def test_transposed_values_round_trip(tmp_path):
    # a non-contiguous view (symplectic_fourier returns a transpose)
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    m = TFMatrix(vals.T, _grid(32), PHASE_SPACE)
    tfq_io.write_matrix(m, tmp_path / "t.mat")
    back = tfq_io.read_matrix(tmp_path / "t.mat")
    assert np.array_equal(back.values, vals.T) and back.grid == m.grid


def _traced_peak(call) -> int:
    call()  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_matrix_io_traced_peak(tmp_path):
    # in units of 16 n^2 bytes: a write streams the values it is given, a
    # read allocates the one array it returns
    n = 1024
    f = synth(SignalRecipe(kind="gabor_atom", n=n, dx=1 / 16))
    m = born_jordan(f, f.with_samples(f.samples.copy()))
    assert m.values.dtype == np.complex128 and m.values.flags.c_contiguous
    path = tmp_path / "bj.mat"
    assert _traced_peak(lambda: tfq_io.write_matrix(m, path)) <= 0.1 * 16 * n * n
    assert _traced_peak(lambda: tfq_io.read_matrix(path)) <= 1.1 * 16 * n * n
    assert np.array_equal(tfq_io.read_matrix(path).values, m.values)


def _matrix_file(path, nx, nw, count):
    """A matrix file whose header claims nx x nw and whose payload holds
    ``count`` complex values."""
    header = {"format": tfq_io.MATRIX_FORMAT, "version": tfq_io.MATRIX_VERSION,
              "nx": nx, "x0": -1.0, "dx": 0.5, "nw": nw, "w0": -1.0, "dw": 0.5,
              "domain": PHASE_SPACE, "dtype": tfq_io.MATRIX_DTYPE}
    head = json.dumps(header).encode()
    payload = np.arange(count, dtype="<c16").tobytes()
    path.write_bytes(struct.pack("<I", len(head)) + head + payload)
    return path


@pytest.mark.parametrize("nx, nw, count, key", [
    (2.9, 4, 8, "nx"),  # int() would read a 2 x 4 matrix
    (True, 4, 4, "nx"),  # and a 1 x 4 one
    (4, 4.0, 16, "nw"),
    (-4, -4, 16, "nx"),  # the payload matches (-4) * (-4)
    (0, 4, 0, "nx"),
])
def test_read_matrix_requires_integer_grid_counts(tmp_path, nx, nw, count, key):
    path = _matrix_file(tmp_path / "a.mat", nx, nw, count)
    with pytest.raises(ValueError, match=f"{key} .* is not an integer >= 1"):
        tfq_io.read_matrix(path)


@pytest.mark.parametrize("count", [15, 17])
def test_read_matrix_checks_payload_size(tmp_path, count):
    path = _matrix_file(tmp_path / "a.mat", 4, 4, count)
    with pytest.raises(ValueError, match="payload size mismatch"):
        tfq_io.read_matrix(path)
    assert tfq_io.read_matrix(_matrix_file(tmp_path / "b.mat", 4, 4, 16)).values.shape == (4, 4)


def _failing_chunks():
    yield b"partial"
    raise RuntimeError("disk on fire")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_atomic_write_leaves_no_file_behind(tmp_path, existing):
    # a write that fails mid-stream removes its temporary file and leaves the
    # target as it was: absent, or with its old bytes
    target = tmp_path / "out.mat"
    if existing:
        target.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="disk on fire"):
        tfq_io._atomic_write({target: _failing_chunks()})
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.mat"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old"


def test_failed_second_file_replaces_neither(tmp_path):
    # every temporary is written before any rename: the first file's
    # complete temporary is removed, not renamed
    first, second = tmp_path / "a.json", tmp_path / "a.csv"
    first.write_bytes(b"old a")
    second.write_bytes(b"old b")
    with pytest.raises(RuntimeError, match="disk on fire"):
        tfq_io._atomic_write({first: [b"new a"], second: _failing_chunks()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]
    assert first.read_bytes() == b"old a" and second.read_bytes() == b"old b"


def test_temporary_name_clash_deletes_nothing(tmp_path, monkeypatch):
    # a temporary name that exists already is not ours: the O_EXCL open
    # fails, and the file that held the name keeps its bytes
    target = tmp_path / "out.mat"
    monkeypatch.setattr(os, "urandom", lambda k: bytes(k))
    theirs = tmp_path / f"out.mat.{bytes(6).hex()}.tmp"
    theirs.write_bytes(b"theirs")
    with pytest.raises(FileExistsError):
        tfq_io._atomic_write({target: [b"ours"]})
    assert sorted(p.name for p in tmp_path.iterdir()) == [theirs.name]
    assert theirs.read_bytes() == b"theirs"


def test_signal_pair_is_not_torn(tmp_path):
    # the sidecar and the CSV are both written before either is renamed,
    # the sidecar first: when its rename fails the old CSV is untouched
    sig = tmp_path / "f.csv"
    tfq_io.write_signal(synth(SignalRecipe(kind="gaussian", n=64, dx=0.25)), sig)
    old = sig.read_bytes()
    side = tfq_io.sidecar_path(sig)
    side.unlink()
    side.mkdir()
    with pytest.raises(OSError):
        tfq_io.write_signal(synth(SignalRecipe(kind="gabor_atom", n=64, dx=0.25)), sig)
    assert sig.read_bytes() == old
    assert not list(tmp_path.glob("*.tmp"))


def test_concurrent_writers_keep_the_umask(tmp_path):
    # writer threads share the process umask: no write may change it, and
    # each file gets the mode a plain open gives
    f = synth(SignalRecipe(kind="gaussian", n=64, dx=0.25))
    paths = [tmp_path / f"s{k}.csv" for k in range(8)]
    threads = [threading.Thread(target=tfq_io.write_signal, args=(f, p)) for p in paths]
    old, interval = os.umask(0o022), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        after = os.umask(old)
    assert after == 0o022 and not any(t.is_alive() for t in threads)
    for p in paths:
        for q in (p, tfq_io.sidecar_path(p)):
            assert stat.S_IMODE(q.stat().st_mode) == 0o644, q


@pytest.mark.parametrize("name", ["x.json", "x"])
def test_signal_named_like_its_sidecar_is_refused_before_any_write(tmp_path, name):
    # x.json is its own sidecar: the CSV would land under the sidecar's
    # name and the signal would never read back.  A name without a suffix
    # keeps the two apart
    f = synth(SignalRecipe(kind="gaussian", n=64, dx=0.25))
    path = tmp_path / name
    if name.endswith(".json"):
        with pytest.raises(DomainError, match="x.json"):
            tfq_io.write_signal(f, path)
        assert list(tmp_path.iterdir()) == []
    else:
        tfq_io.write_signal(f, path)
        assert tfq_io.read_signal(path).samples.tolist() == f.samples.tolist()
