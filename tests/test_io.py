"""Matrix files: copy-free writes and reads, real matrices, header checks."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from tfq import PHASE_SPACE, PhaseSpaceGrid, TFMatrix, born_jordan
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


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_failed_atomic_write_leaves_no_file_behind(tmp_path, existing):
    # a write that fails mid-stream removes its temporary file and leaves the
    # target as it was: absent, or with its old bytes
    target = tmp_path / "out.mat"
    if existing:
        target.write_bytes(b"old")

    def chunks():
        yield b"partial"
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        tfq_io._atomic_write(target, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.mat"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old"
