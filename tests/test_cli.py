import json
import os
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from tfq import io as tfq_io
from tfq.cli import run


@pytest.fixture(scope="module")
def schema():
    import jsonschema

    path = Path(__file__).resolve().parents[1] / "src/tfq/schemas/report.schema.json"
    with open(path) as fh:
        doc = json.load(fh)
    return lambda report: jsonschema.validate(report, doc)


def test_synth_writes_signal(tmp_path):
    out = tmp_path / "phi.csv"
    code = run(["synth", "--kind", "gaussian", "--lam", "1", "--n", "256",
                "--dx", "0.0625", "--output", str(out)])
    assert code == 0
    sig = tfq_io.read_signal(out)
    assert sig.n == 256
    x = sig.axis
    assert np.abs(sig.samples - np.exp(-np.pi * x**2)).max() == 0.0


def test_synth_two_atoms_energy(tmp_path):
    out = tmp_path / "atoms.csv"
    assert run(["synth", "--kind", "two_atoms", "--dt", "4", "--dnu", "0",
                "--n", "512", "--output", str(out)]) == 0
    sig = tfq_io.read_signal(out)
    assert abs(sig.energy() - 2.0) < 1e-8


def test_synth_from_file_roundtrip(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(["synth", "--kind", "chirp", "--rate", "0.5", "--n", "256",
                "--output", str(first)]) == 0
    assert run(["synth", "--kind", "from_file", "--path", str(first),
                "--output", str(second)]) == 0
    a = tfq_io.read_signal(first)
    b = tfq_io.read_signal(second)
    assert np.array_equal(a.samples, b.samples)
    assert a.same_grid(b)


def test_transform_wigner_roundtrip(tmp_path):
    sig = tmp_path / "phi.csv"
    mat = tmp_path / "w.mat"
    run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)])
    code = run(["transform", "--method", "wigner", "--input", str(sig),
                "--output", str(mat)])
    assert code == 0
    m = tfq_io.read_matrix(mat)
    assert m.grid.nx == 256 and m.grid.nw == 256
    assert m.domain_tag == "phase_space"
    # matches the library call byte for byte
    from tfq import wigner

    f = tfq_io.read_signal(sig)
    direct = wigner(f, f)
    assert np.array_equal(m.values, direct.values)


def test_transform_methods_agree_with_library(tmp_path):
    sig = tmp_path / "f.csv"
    run(["synth", "--kind", "gaussian", "--lam", "2", "--n", "256",
         "--output", str(sig)])
    for method, extra in [("stft", []), ("bj", []), ("tau", ["--tau", "0.3"])]:
        mat = tmp_path / f"{method}.mat"
        assert run(["transform", "--method", method, "--input", str(sig),
                    "--output", str(mat)] + extra) == 0


def test_kernel_subcommand(tmp_path, schema):
    out = tmp_path / "bj.mat"
    assert run(["kernel", "--kind", "bj", "--n", "64", "--dx", "0.125",
                "--output", str(out)]) == 0
    m = tfq_io.read_matrix(out)
    assert m.domain_tag == "ambiguity"
    n = m.grid.nx
    assert abs(m.values[n // 2, n // 2] - 1.0) < 1e-12


def test_norm_subcommand_json(tmp_path, capsys, schema):
    sig = tmp_path / "phi.csv"
    run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)])
    capsys.readouterr()  # drop the synth status line
    assert run(["norm", "--input", str(sig), "--p", "2", "--q", "2",
                "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    assert abs(report["value"] - 2.0**-0.5) < 1e-5
    assert run(["norm", "--input", str(sig), "--p", "inf", "--q", "1",
                "--amalgam", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    assert report["nesting"] == "frequency_inner"


def test_op_subcommand_identity(tmp_path):
    sig = tmp_path / "f.csv"
    assert run(["synth", "--kind", "gaussian", "--n", "128", "--dx", "0.125",
                "--output", str(sig)]) == 0
    f = tfq_io.read_signal(sig)
    from tfq import symbol_grid_for
    from tfq.grid import TFMatrix, PHASE_SPACE

    grid = symbol_grid_for(f)
    sym = tmp_path / "one.mat"
    tfq_io.write_matrix(
        TFMatrix(np.ones((grid.nx, grid.nw), dtype=complex), grid, PHASE_SPACE), sym
    )
    out = tmp_path / "g.csv"
    assert run(["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig),
                "--output", str(out)]) == 0
    g = tfq_io.read_signal(out)
    assert np.abs(g.samples - f.samples).max() < 1e-6


def test_op_with_stft_grid_symbol_exits_2(tmp_path, capsys):
    sig = tmp_path / "f.csv"
    assert run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)]) == 0
    sym = tmp_path / "s.mat"
    assert run(["transform", "--method", "stft", "--input", str(sig),
                "--output", str(sym)]) == 0
    out = tmp_path / "g.csv"
    assert run(["op", "--rule", "weyl", "--symbol", str(sym), "--input", str(sig),
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid" in err and "Traceback" not in err
    assert not out.exists()


def test_op_with_ambiguity_domain_symbol_exits_2(tmp_path, capsys):
    # a kernel file samples the ambiguity domain, not phase space
    sig, sym, out = tmp_path / "f.csv", tmp_path / "k.mat", tmp_path / "g.csv"
    assert run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)]) == 0
    assert run(["kernel", "--kind", "bj", "--n", "256", "--output", str(sym)]) == 0
    capsys.readouterr()
    assert run(["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig),
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "symbols live in phase space" in err and "Traceback" not in err
    assert not out.exists()


def test_stft_with_cross_exits_2(tmp_path, capsys):
    # the STFT has no cross form; --cross must not be dropped silently
    sig, out = tmp_path / "f.csv", tmp_path / "s.mat"
    assert run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)]) == 0
    capsys.readouterr()
    assert run(["transform", "--method", "stft", "--input", str(sig), "--cross", str(sig),
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--cross" in err and "Traceback" not in err
    assert not out.exists()


def test_accuracy_error_exits_4(tmp_path, monkeypatch, capsys):
    from tfq import cli
    from tfq.errors import AccuracyError

    def short_of_tolerance(args):
        raise AccuracyError("node budget exhausted", achieved=1e-3)

    monkeypatch.setitem(cli._HANDLERS, "oracle", short_of_tolerance)
    assert run(["oracle", "--which", "wigner", "--lam", "1"]) == 4
    captured = capsys.readouterr()
    assert "achieved 1.000e-03" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_oracle_subcommand(capsys, schema):
    assert run(["oracle", "--which", "fourier-symplectic", "--lam", "3",
                "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    assert abs(report["re"] - 0.5) < 1e-12
    assert report["im"] == 0.0


def test_experiment_scaling_json(capsys, schema):
    assert run(["experiment", "scaling", "--family", "gaussian_mod",
                "--p", "2", "--q", "2", "--lambda-min", "16",
                "--lambda-max", "256", "--points", "6", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    assert abs(report["exponent"] + 0.25) < 0.03
    assert len(report["table"]) == 6


def test_experiment_ghost_json(capsys, schema):
    assert run(["experiment", "ghost", "--signal", "two_atoms", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    rows = {r["kernel"]: r for r in report["rows"]}
    assert rows["delta"]["ratio_vs_wigner"] == 1.0
    assert rows["born_jordan"]["ratio_vs_wigner"] < 0.5


def test_usage_errors_exit_2(capsys):
    assert run(["transform", "--method", "nope", "--input", "x",
                "--output", "y"]) == 2
    assert run(["norm", "--input", "f.csv", "--p", "2", "--q", "2",
                "--unknown-flag"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_input_exits_3(tmp_path):
    assert run(["transform", "--method", "wigner",
                "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "out.mat")]) == 3


def test_domain_error_exits_2(tmp_path):
    sig = tmp_path / "f.csv"
    run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)])
    assert run(["transform", "--method", "tau", "--tau", "1.7",
                "--input", str(sig), "--output", str(tmp_path / "o.mat")]) == 2


def test_synth_support_violation_exits_2(tmp_path):
    # a wide two-tone envelope cannot fit a small window
    assert run(["synth", "--kind", "two_tone", "--n", "128", "--dx", "0.0625",
                "--output", str(tmp_path / "x.csv")]) == 2


def test_synth_from_file_without_path_exits_2(tmp_path, capsys):
    assert run(["synth", "--kind", "from_file", "--output", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "path" in err and "Traceback" not in err


def test_duplicate_or_missing_index_exits_3(tmp_path, capsys):
    sig = tmp_path / "f.csv"
    run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25", "--output", str(sig)])
    lines = sig.read_text().splitlines()
    lines[5] = lines[4]  # index 3 twice, index 4 gone
    sig.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="indices"):
        tfq_io.read_signal(sig)
    assert run(["norm", "--input", str(sig), "--p", "2", "--q", "2"]) == 3
    err = capsys.readouterr().err
    assert str(sig) in err and "Traceback" not in err


@pytest.mark.parametrize("row", ["0,1.0", "0,1.0,0.0,7"], ids=["short", "long"])
def test_row_field_count_exits_3(tmp_path, capsys, row):
    sig, sym = tmp_path / "f.csv", tmp_path / "a.mat"
    run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25", "--output", str(sig)])
    run(["transform", "--method", "wigner", "--input", str(sig), "--output", str(sym)])
    lines = sig.read_text().splitlines()
    lines[1] = row  # the data row of index 0
    sig.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="index '0'"):
        tfq_io.read_signal(sig)
    capsys.readouterr()
    for argv in (["norm", "--input", str(sig), "--p", "2", "--q", "2"],
                 ["transform", "--method", "wigner", "--input", str(sig),
                  "--output", str(tmp_path / "w.mat")],
                 ["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig),
                  "--output", str(tmp_path / "o.csv")]):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert str(sig) in err and "Traceback" not in err


def test_written_files_get_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        sig = tmp_path / "f.csv"
        report = tmp_path / "ghost.json"
        assert run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)]) == 0
        assert run(["experiment", "ghost", "--output", str(report)]) == 0
    finally:
        os.umask(old)
    for path in (sig, tfq_io.sidecar_path(sig), report):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert json.loads(report.read_text())["report"] == "ghost"


@pytest.mark.parametrize("drop", ["dx", "x0"])
def test_sidecar_missing_key_exits_3(tmp_path, capsys, drop):
    sig = tmp_path / "f.csv"
    run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)])
    side = tfq_io.sidecar_path(sig)
    meta = json.loads(side.read_text())
    del meta[drop]
    side.write_text(json.dumps(meta))
    assert run(["norm", "--input", str(sig), "--p", "2", "--q", "2"]) == 3
    err = capsys.readouterr().err
    assert drop in err and "Traceback" not in err


def _op_on_edited_symbol(tmp_path, edit) -> int:
    """Exit code of ``op`` on a symbol file whose JSON header ``edit`` changed."""
    sig = tmp_path / "f.csv"
    mat = tmp_path / "a.mat"
    run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25", "--output", str(sig)])
    run(["transform", "--method", "wigner", "--input", str(sig), "--output", str(mat)])
    raw = mat.read_bytes()
    (hlen,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + hlen])
    edit(header)
    head = json.dumps(header).encode()
    mat.write_bytes(struct.pack("<I", len(head)) + head + raw[4 + hlen :])
    return run(["op", "--rule", "weyl", "--symbol", str(mat), "--input", str(sig),
                "--output", str(tmp_path / "out.csv")])


@pytest.mark.parametrize("drop", ["domain", "nx", "nw"])
def test_matrix_header_missing_key_exits_3(tmp_path, capsys, drop):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.pop(drop)) == 3
    err = capsys.readouterr().err
    assert drop in err and "Traceback" not in err


def test_bad_threads_variable_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("TFQ_THREADS", "x")
    assert run(["experiment", "scaling", "--family", "gaussian_mod", "--p", "2",
                "--q", "2", "--lambda-min", "16", "--lambda-max", "64",
                "--points", "6"]) == 2
    err = capsys.readouterr().err
    assert "TFQ_THREADS" in err and "Traceback" not in err


_SCALING = ["experiment", "scaling", "--family", "gaussian_mod", "--p", "2", "--q", "2"]


@pytest.mark.parametrize("argv, needle", [
    (["kernel", "--kind", "bj", "--n", "0"], "n=0"),
    (["kernel", "--kind", "bj", "--dx", "0"], "dx=0"),
    (["synth", "--kind", "gaussian", "--n", "0"], "sample count"),
    (["experiment", "ghost", "--n", "0"], "sample count"),
    (["oracle", "--which", "wigner", "--lam", "nan", "--json"], "dilation"),
    (["oracle", "--which", "fourier-plain", "--lam", "inf"], "dilation"),
    (_SCALING + ["--lambda-min", "1", "--lambda-max", "inf"], "--lambda-max"),
    (_SCALING + ["--lambda-min", "nan", "--lambda-max", "4"], "--lambda-min"),
    (_SCALING + ["--lambda-min", "0", "--lambda-max", "4"], "--lambda-min"),
    (_SCALING + ["--lambda-min", "1", "--lambda-max", "4", "--points", "-1"], "--points"),
    (_SCALING + ["--lambda-min", "5", "--lambda-max", "5"], "distinct"),
])
def test_bad_numeric_arguments_exit_2(tmp_path, capsys, argv, needle):
    out = tmp_path / "k.mat"
    if argv[0] in ("kernel", "synth"):
        argv = argv + ["--output", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key, value", [
    ("version", 2), ("version", True), ("dtype", "float32-le-interleaved"),
])
def test_matrix_header_unsupported_value_exits_3(tmp_path, capsys, key, value):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.update({key: value})) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("edits", [{"nx": 2.9}, {"nw": True}, {"nx": -4, "nw": -4}])
def test_matrix_header_non_integer_count_exits_3(tmp_path, capsys, edits):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.update(edits)) == 3
    err = capsys.readouterr().err
    assert "is not an integer >= 1" in err and next(iter(edits)) in err
    assert "Traceback" not in err
