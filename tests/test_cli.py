import contextlib
import io
import json
import os
import stat
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfq import io as tfq_io
from tfq.cli import run
from tfq.synth import KINDS


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
    # the mode a plain open gives, and the process umask as it was
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        sig = tmp_path / f"f{umask:o}.csv"
        report = tmp_path / f"ghost{umask:o}.json"
        old = os.umask(umask)
        try:
            assert run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)]) == 0
            assert run(["experiment", "ghost", "--output", str(report)]) == 0
        finally:
            after = os.umask(old)
        assert after == umask
        for path in (sig, tfq_io.sidecar_path(sig), report):
            assert stat.S_IMODE(path.stat().st_mode) == mode, (path, umask)
        assert json.loads(report.read_text())["report"] == "ghost"


def test_writes_never_touch_the_process_umask(tmp_path, monkeypatch):
    # the umask belongs to the whole process: reading it means setting it
    from tfq import wigner

    sig = tmp_path / "f.csv"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0

    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    f = tfq_io.read_signal(sig)
    tfq_io.write_signal(f, tmp_path / "g.csv")
    tfq_io.write_matrix(wigner(f, f), tmp_path / "w.mat")
    assert run(["experiment", "scaling", "--family", "gaussian_mod", "--p", "2", "--q", "2",
                "--lambda-min", "16", "--lambda-max", "64", "--points", "6",
                "--output", str(tmp_path / "s.json")]) == 0
    assert tfq_io.read_signal(tmp_path / "g.csv").samples.tolist() == f.samples.tolist()
    assert json.loads((tmp_path / "s.json").read_text())["report"] == "scaling"


def test_synth_onto_a_directory_sidecar_leaves_no_csv(tmp_path, capsys):
    # the sidecar is renamed first; its rename fails, so the CSV never lands
    sig = tmp_path / "x.csv"
    tfq_io.sidecar_path(sig).mkdir()
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


def test_signal_output_named_json_exits_2_and_writes_nothing(tmp_path, capsys):
    # x.json is its own sidecar: synth used to exit 0 and leave a file that
    # the next read refused with exit 3
    sig, sym = tmp_path / "f.csv", tmp_path / "one.mat"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0
    from tfq import symbol_grid_for
    from tfq.grid import PHASE_SPACE, TFMatrix

    grid = symbol_grid_for(tfq_io.read_signal(sig))
    tfq_io.write_matrix(TFMatrix(np.ones((grid.nx, grid.nw)), grid, PHASE_SPACE), sym)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    out = tmp_path / "x.json"
    for argv in (["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25"],
                 ["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig)]):
        assert run([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "x.json" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("header", [None, "index,im,re"], ids=["missing", "swapped"])
def test_csv_without_its_header_exits_3(tmp_path, capsys, header):
    # without the header the first data row would be read as one; with the
    # columns swapped every sample would be read conjugated and times i
    sig, out = tmp_path / "f.csv", tmp_path / "w.mat"
    run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25", "--output", str(sig)])
    lines = sig.read_text().splitlines()
    lines[:1] = [] if header is None else [header]
    sig.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["transform", "--method", "wigner", "--input", str(sig),
                "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert "expected header index,re,im" in err and "Traceback" not in err
    assert not out.exists()


# a bool, a numeric string or an int past the float range is no grid value
@pytest.mark.parametrize("value", ["abc", None, True, "0.25", 10**400],
                         ids=["str", "null", "bool", "numeric-str", "huge-int"])
def test_sidecar_value_of_wrong_type_exits_3(tmp_path, capsys, value):
    sig = tmp_path / "f.csv"
    run(["synth", "--kind", "gaussian", "--n", "256", "--output", str(sig)])
    side = tfq_io.sidecar_path(sig)
    side.write_text(json.dumps({**json.loads(side.read_text()), "dx": value}))
    assert run(["norm", "--input", str(sig), "--p", "2", "--q", "2"]) == 3
    err = capsys.readouterr().err
    assert f"{side}: bad header value" in err and "Traceback" not in err


def _op_on_symbol_bytes(tmp_path, edit) -> int:
    """Exit code of ``op`` on a symbol file whose bytes ``edit`` rewrote."""
    sig = tmp_path / "f.csv"
    mat = tmp_path / "a.mat"
    run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25", "--output", str(sig)])
    run(["transform", "--method", "wigner", "--input", str(sig), "--output", str(mat)])
    mat.write_bytes(edit(mat.read_bytes()))
    return run(["op", "--rule", "weyl", "--symbol", str(mat), "--input", str(sig),
                "--output", str(tmp_path / "out.csv")])


def _op_on_edited_symbol(tmp_path, edit) -> int:
    """Exit code of ``op`` on a symbol file whose JSON header ``edit`` changed."""

    def rewrite(raw):
        (hlen,) = struct.unpack("<I", raw[:4])
        header = json.loads(raw[4 : 4 + hlen])
        edit(header)
        head = json.dumps(header).encode()
        return struct.pack("<I", len(head)) + head + raw[4 + hlen :]

    return _op_on_symbol_bytes(tmp_path, rewrite)


@pytest.mark.parametrize("drop", ["domain", "nx", "nw"])
def test_matrix_header_missing_key_exits_3(tmp_path, capsys, drop):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.pop(drop)) == 3
    err = capsys.readouterr().err
    assert drop in err and "Traceback" not in err


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
    # checked before the centred axis is built, where inf * 0 would warn
    (["synth", "--kind", "gaussian", "--dx", "inf"], "dx must be positive and finite"),
    (["experiment", "ghost", "--dx", "inf"], "dx must be positive and finite"),
    # a non-finite point used to print (nan+nanj) and exit 0
    (["oracle", "--which", "fourier-plain", "--lam", "1", "--w", "inf"], "--w: must be finite"),
    (["oracle", "--which", "wigner", "--lam", "1", "--x", "nan"], "--x: must be finite"),
    (["synth", "--kind", "gabor_atom", "--t0", "inf"], "--t0: must be finite"),
    # an atom far off the window underflows to zeros, which the support
    # check passed vacuously
    (["synth", "--kind", "gabor_atom", "--t0", "1e6"], "all-zero signal"),
    # a non-finite parameter used to warn, then blame the samples
    (["synth", "--kind", "gabor_atom", "--nu0", "inf"], "--nu0: must be finite"),
    (["synth", "--kind", "chirp", "--rate", "inf"], "--rate: must be finite"),
    (["synth", "--kind", "two_tone", "--nu1", "inf"], "--nu1: must be finite"),
    (["experiment", "ghost", "--dnu", "inf"], "--dnu: must be finite"),
    (["experiment", "ghost", "--dt", "nan"], "--dt: must be finite"),
    # pi lam overflows above 5.7e307; these printed a numpy warning and
    # (nan+nanj), or NaN in the JSON report, and exited 0
    (["oracle", "--which", "wigner", "--lam", "1e308", "--x", "1", "--w", "1"], "dilation"),
    (["oracle", "--which", "fourier-plain", "--lam", "5e-324", "--x", "1e300", "--w", "1e300"],
     "oracle is not finite"),
    (["oracle", "--which", "fourier-symplectic", "--lam", "1e308", "--x", "1e200", "--w", "1e200",
      "--json"], "dilation"),
    (["oracle", "--which", "fourier-symplectic", "--lam", "1e300", "--x", "1e200", "--w", "1e200",
      "--json"], "oracle is not finite"),
    # inf * 0 at x = 0 made a NaN sample, blamed on the samples
    (["synth", "--kind", "gaussian", "--lam", "1e308"], "dilation must be positive with pi"),
    (["synth", "--kind", "gabor_atom", "--lam", "1e308"], "dilation must be positive with pi"),
    # printed an overflow warning and energy=inf ratio=nan
    (["experiment", "ghost", "--dx", "1e300"], "region energy overflows"),
])
def test_bad_numeric_arguments_exit_2(tmp_path, capsys, argv, needle):
    out = tmp_path / "k.mat"
    if argv[0] in ("kernel", "synth") or argv[:2] == ["experiment", "ghost"]:
        argv = argv + ["--output", str(out)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key, value", [
    ("dx", "abc"), ("w0", None),
    # any domain but the two tags is a malformed file, not a usage error
    ("domain", [1]), ("domain", 7), ("domain", None), ("domain", "foo"),
    # a bool, a numeric string or an int past the float range is no grid value
    ("dx", True), ("x0", "-2.0"), pytest.param("dw", 10**400, id="dw-huge-int"),
])
def test_matrix_header_value_of_wrong_type_exits_3(tmp_path, capsys, key, value):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.update({key: value})) == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'a.mat'}: bad header value" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("keep, needle", [
    (3, "truncated matrix file"),  # not even the header length
    (-16, "payload size mismatch"),  # one complex value short
], ids=["prefix", "payload"])
def test_truncated_matrix_exits_3(tmp_path, capsys, keep, needle):
    assert _op_on_symbol_bytes(tmp_path, lambda raw: raw[:keep]) == 3
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_symbol_exits_2(tmp_path, capsys, bad):
    # rejected when the symbol is built, before an FFT could warn or the
    # output check could blame the result
    def poison(raw):
        (hlen,) = struct.unpack("<I", raw[:4])
        return raw[: 4 + hlen] + struct.pack("<d", bad) + raw[4 + hlen + 8 :]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _op_on_symbol_bytes(tmp_path, poison) == 2
    assert not caught
    err = capsys.readouterr().err
    assert "symbol values must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_matrix_with_wrong_format_tag_exits_3(tmp_path, capsys):
    assert _op_on_edited_symbol(tmp_path, lambda header: header.update(format="npy")) == 3
    err = capsys.readouterr().err
    assert "not a tfq-matrix file" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_tau_method_without_tau_exits_2(tmp_path, capsys):
    sig, out = tmp_path / "f.csv", tmp_path / "t.mat"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0
    capsys.readouterr()
    assert run(["transform", "--method", "tau", "--input", str(sig),
                "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--tau is required" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["transform", "--method", "bj", "--tau", "0.3"],
    ["kernel", "--kind", "delta", "--tau", "nan"],
    ["op", "--rule", "weyl", "--tau", "0.3"],
    ["transform", "--method", "stft", "--tau", "0.3"],
], ids=["transform", "kernel", "op", "stft"])
def test_tau_off_the_tau_kernel_exits_2(tmp_path, capsys, argv):
    # --tau used to be dropped silently by every other kernel and by stft
    sig, sym, out = tmp_path / "f.csv", tmp_path / "w.mat", tmp_path / "out"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0
    assert run(["transform", "--method", "wigner", "--input", str(sig),
                "--output", str(sym)]) == 0
    capsys.readouterr()
    inputs = {"transform": ["--input", str(sig)], "kernel": [],
              "op": ["--symbol", str(sym), "--input", str(sig)]}[argv[0]]
    assert run(argv + inputs + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--tau applies only to the tau kernel" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["synth", "transform", "kernel", "op"])
def test_file_reports_match_schema(tmp_path, capsys, schema, kind):
    sig, sym = tmp_path / "f.csv", tmp_path / "w.mat"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0
    assert run(["transform", "--method", "wigner", "--input", str(sig),
                "--output", str(sym)]) == 0
    capsys.readouterr()
    out = tmp_path / ("out.csv" if kind in ("synth", "op") else "out.mat")
    argv = {
        "synth": ["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25"],
        "transform": ["transform", "--method", "bj", "--input", str(sig)],
        "kernel": ["kernel", "--kind", "bj", "--n", "64", "--dx", "0.25"],
        "op": ["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig)],
    }[kind]
    assert run(argv + ["--output", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    schema(report)
    assert list(report)[:2] == ["schema_version", "report"]
    assert report["report"] == kind and report["output"] == str(out)


_ENVELOPE = ["schema_version", "report"]
_WROTE = _ENVELOPE + ["output"]


def _contract(kind, sig, sym, out):
    """argv, envelope keys and the text lines (from the ``--json`` report)
    of one report kind."""

    def wrote(suffix):
        return lambda report: [f"wrote {out}{suffix}"]

    return {
        "synth": (["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                   "--output", str(out)], _WROTE, wrote(" (64 samples)")),
        "transform": (["transform", "--method", "bj", "--input", str(sig), "--output", str(out)],
                      _WROTE, wrote(" (64 x 64)")),
        "kernel": (["kernel", "--kind", "tau", "--tau", "0.3", "--n", "64", "--output", str(out)],
                   _WROTE, wrote(" (tau(0.3))")),
        "norm": (["norm", "--input", str(sig), "--p", "2", "--q", "oo", "--amalgam"],
                 _ENVELOPE + ["value", "p", "q", "nesting", "input"],
                 lambda r: [repr(r["value"])]),
        "op": (["op", "--rule", "bj", "--symbol", str(sym), "--input", str(sig),
                "--output", str(out)], _WROTE, wrote("")),
        "oracle": (["oracle", "--which", "fourier-plain", "--lam", "2", "--x", "0.5", "--w", "0.25"],
                   _ENVELOPE + ["which", "lam", "at", "re", "im"],
                   lambda r: [repr(complex(r["re"], r["im"]))]),
        "scaling": (_SCALING + ["--lambda-min", "16", "--lambda-max", "64", "--points", "6"],
                    _ENVELOPE + ["family", "p", "q", "exponent", "stderr", "lambda_min",
                                 "lambda_max", "points", "table"],
                    lambda r: [f"exponent {r['exponent']:+.6f} +- {r['stderr']:.6f} "
                               f"({r['points']} points)"]),
        "ghost": (["experiment", "ghost", "--tau", "0.3"],
                  _ENVELOPE + ["signal", "region", "rows"],
                  lambda r: [f"{row['kernel']:12s} energy={row['energy']:.6e} "
                             f"ratio={row['ratio_vs_wigner']:.6f}" for row in r["rows"]]),
    }[kind]


@pytest.mark.parametrize("kind", ["synth", "transform", "kernel", "norm", "op", "oracle",
                                  "scaling", "ghost"])
def test_report_output_contract(signal_and_symbol, tmp_path, capsys, schema, kind):
    # text mode prints the lines, --json the envelope; an experiment's
    # --output file holds the --json text without print's final newline
    sig, sym = signal_and_symbol
    out = tmp_path / ("out.mat" if kind in ("transform", "kernel") else "out.csv")
    argv, keys, lines = _contract(kind, sig, sym, out)
    capsys.readouterr()
    assert run(argv + ["--json"]) == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    schema(report)
    assert list(report) == keys
    assert report["report"] == kind
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines(report) and captured.err == ""
    if kind in ("scaling", "ghost"):
        saved = tmp_path / "report.json"
        assert run(argv + ["--output", str(saved), "--json"]) == 0
        assert saved.read_text() + "\n" == capsys.readouterr().out == stdout


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    # a size numpy cannot allocate (tfq kernel --n 1000000); raised by a
    # stand-in handler, since a real huge array may be granted by an
    # overcommitting host and the process killed when its pages are touched
    from tfq import cli

    def too_large(args):
        raise MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                          "(1000000, 1000000) and data type complex128")

    monkeypatch.setitem(cli._HANDLERS, "kernel", too_large)
    out = tmp_path / "k.mat"
    assert run(["kernel", "--kind", "bj", "--n", "1000000", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate 14.6 TiB")
    assert "Traceback" not in captured.err and captured.out == "" and not out.exists()


_EXTREME = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e300, 1e-300, 5e-324, -5e-324, 0.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_SYNTH_FLOATS = ("--dx", "--lam", "--t0", "--nu0", "--dt", "--dnu", "--nu1", "--nu2", "--rate")


def _all_finite(value):
    """Every number in a parsed ``--json`` report is finite."""
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


def _fuzzed_run(argv, output=None, codes=(0, 2, 3, 4)):
    """Run the CLI on fuzzed flags: a documented exit code, no traceback or
    numpy warning on stderr, no output file or stdout after a failure, and
    only finite numbers in the report and the output file after exit 0;
    returns what was written to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        code = run(argv)
    err = err.getvalue()
    assert code in codes, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code:
        assert err.startswith(("error:", "i/o error:", "accuracy error:", "usage:")), (argv, err)
        assert output is None or not (output.exists() or tfq_io.sidecar_path(output).exists())
        assert out.getvalue() == "", (argv, out.getvalue())
        return err
    if "--json" in argv:
        assert _all_finite(json.loads(out.getvalue())), (argv, out.getvalue())
    if output is not None and output.suffix == ".mat":
        assert np.isfinite(tfq_io.read_matrix(output).values).all(), argv
    elif output is not None and output.suffix == ".csv":
        assert np.isfinite(tfq_io.read_signal(output).samples).all(), argv
    return err


def _flags(values):
    return [f"{flag}={value!r}" for flag, value in values.items()]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from([k for k in KINDS if k != "from_file"]),
       values=st.dictionaries(st.sampled_from(_SYNTH_FLOATS), _EXTREME, max_size=3))
def test_fuzzed_synth_flags_exit_0_or_2(kind, values):
    # any float on any numeric flag: a signal, or a usage error with a
    # message, never a traceback, a numpy warning or a stray file
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "s.csv"
        _fuzzed_run(["synth", "--kind", kind, "--output", str(out)] + _flags(values),
                    out, codes=(0, 2))


# small sizes only: a huge --n would allocate for real (on a host that
# overcommits, the process is killed once the pages are touched)
_SIZES = st.sampled_from([-8, 0, 3, 8, 12, 64, 256, 1024])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(which=st.sampled_from(["wigner", "fourier-plain", "fourier-symplectic"]),
       lam=_EXTREME,
       point=st.dictionaries(st.sampled_from(("--x", "--w")), _EXTREME, max_size=2))
def test_fuzzed_oracle_flags(which, lam, point):
    _fuzzed_run(["oracle", "--which", which, f"--lam={lam!r}", "--json"] + _flags(point))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(values=st.dictionaries(st.sampled_from(("--dt", "--dnu", "--dx", "--tau")), _EXTREME,
                              max_size=3),
       n=st.one_of(st.none(), _SIZES))
def test_fuzzed_ghost_flags(values, n):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ghost.json"
        argv = ["experiment", "ghost", "--json", "--output", str(out)] + _flags(values)
        _fuzzed_run(argv + ([] if n is None else [f"--n={n}"]), out)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=st.sampled_from(["bj", "tau", "delta"]),
       values=st.dictionaries(st.sampled_from(("--tau", "--dx")), _EXTREME, max_size=2),
       n=st.one_of(st.none(), _SIZES))
def test_fuzzed_kernel_flags(kind, values, n):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "k.mat"
        argv = ["kernel", "--kind", kind, "--n", str(64 if n is None else n),
                "--output", str(out), "--json"]
        _fuzzed_run(argv + _flags(values), out)


@pytest.fixture(scope="module")
def signal_and_symbol(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    sig, sym = tmp / "f.csv", tmp / "w.mat"
    assert run(["synth", "--kind", "gaussian", "--n", "64", "--dx", "0.25",
                "--output", str(sig)]) == 0
    assert run(["transform", "--method", "wigner", "--input", str(sig),
                "--output", str(sym)]) == 0
    return sig, sym


@settings(derandomize=True, max_examples=100, deadline=None)
@given(command=st.sampled_from(["transform", "op"]),
       method=st.sampled_from(["tau", "bj", "wigner", "weyl", "stft"]),
       tau=st.one_of(_EXTREME, st.floats(0.0, 1.0)))
def test_fuzzed_tau_on_transform_and_op(signal_and_symbol, command, method, tau):
    sig, sym = signal_and_symbol
    with tempfile.TemporaryDirectory() as tmp:
        if command == "transform":
            out = Path(tmp) / "t.mat"
            argv = ["transform", "--method", method, "--input", str(sig)]
        else:
            out = Path(tmp) / "o.csv"
            argv = ["op", "--rule", method, "--symbol", str(sym), "--input", str(sig)]
        _fuzzed_run(argv + [f"--tau={tau!r}", "--output", str(out), "--json"], out)


# --- malformed input files: every mutation of a good signal, sidecar or
# symbol file ends in a documented exit code with a message, and a failed
# command leaves no output file

_FIELD = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "63", "64", "1e308", "-1e308", "1e999", "5e-324", "nan",
                     "inf", "-inf", "0x10", "1_0", " 2", "2 ", '"', '"1"', "\x00", "\ufeff", "é"]),
    st.text(max_size=4),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4,
)
_DROP = object()  # a header value that deletes its key
_FILE_COMMANDS = st.sampled_from(["transform", "stft", "op", "norm"])
# the other two commands that read a signal file: the --cross operand (the
# --input beside it, g.csv, is intact) and synth's from_file recipe
_READ_SIGNAL_COMMANDS = st.sampled_from(["cross", "from_file"])


def _fuzz_files(signal_and_symbol) -> dict:
    sig, sym = signal_and_symbol
    files = {"f.csv": sig.read_bytes(), "f.json": tfq_io.sidecar_path(sig).read_bytes(),
             "w.mat": sym.read_bytes()}
    return {**files, "g.csv": files["f.csv"], "g.json": files["f.json"]}


def _with_line(files: dict, line: int, insert: bool, row: str) -> dict:
    """``files`` with ``row`` in place of line ``line`` of the CSV, or
    inserted before it."""
    lines = files["f.csv"].decode().split("\n")
    lines[line : line + (not insert)] = [row]
    return {**files, "f.csv": "\n".join(lines).encode()}


def _with_row(files: dict, index: int, row: str) -> dict:
    """``files`` with the CSV data row of ``index`` replaced by ``row``."""
    lines = files["f.csv"].decode().split("\n")
    lines[index + 1] = row
    return {**files, "f.csv": "\n".join(lines).encode()}


def _fuzzed_file_run(files: dict, command: str, codes=(0, 2, 3, 4)):
    """Write ``files`` to a fresh directory and fuzz-run ``command`` on them;
    returns its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        sig, sym = str(tmp / "f.csv"), str(tmp / "w.mat")
        out = tmp / ("o.csv" if command in ("op", "from_file") else "t.mat")
        argv = {
            "transform": ["transform", "--method", "bj", "--input", sig],
            "stft": ["transform", "--method", "stft", "--input", sig],
            "op": ["op", "--rule", "bj", "--symbol", sym, "--input", sig],
            "norm": ["norm", "--input", sig, "--p", "2", "--q", "oo", "--json"],
            "cross": ["transform", "--method", "bj", "--input", str(tmp / "g.csv"),
                      "--cross", sig],
            "from_file": ["synth", "--kind", "from_file", "--path", sig],
        }[command]
        if command == "norm":
            return _fuzzed_run(argv, codes=codes)
        return _fuzzed_run(argv + ["--output", str(out), "--json"], out, codes)


def _edited(raw: bytes, key, value) -> dict:
    doc = json.loads(raw)
    if value is _DROP:
        doc.pop(key, None)
    else:
        doc[key] = value
    return doc


@settings(derandomize=True, max_examples=120, deadline=None)
@given(command=_FILE_COMMANDS, line=st.integers(0, 66), insert=st.booleans(),
       row=st.lists(_FIELD, max_size=4).map(",".join))
def test_fuzzed_csv_rows(signal_and_symbol, command, line, insert, row):
    _fuzzed_file_run(_with_line(_fuzz_files(signal_and_symbol), line, insert, row), command)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(command=_READ_SIGNAL_COMMANDS, line=st.integers(0, 66), insert=st.booleans(),
       row=st.lists(_FIELD, max_size=4).map(",".join))
def test_fuzzed_csv_rows_through_cross_and_from_file(signal_and_symbol, command, line, insert,
                                                     row):
    files = _with_line(_fuzz_files(signal_and_symbol), line, insert, row)
    _fuzzed_file_run(files, command, codes=(0, 2, 3))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(command=_FILE_COMMANDS, index=st.integers(0, 63), value=_EXTREME, part=st.booleans())
def test_fuzzed_csv_sample_values(signal_and_symbol, command, index, value, part):
    # one sample set to an extreme float, in its real or its imaginary part
    row = f"{index},{value!r},0.0" if part else f"{index},0.0,{value!r}"
    _fuzzed_file_run(_with_row(_fuzz_files(signal_and_symbol), index, row), command)


@pytest.mark.parametrize("command", ["transform", "norm"])
def test_overflowing_sample_exits_2(signal_and_symbol, command):
    # a central sample of 1e308 overflowed the correlation (transform) or
    # |V|^p (norm): numpy warnings, then NaN in the written file or inf in
    # the report, and exit 0
    files = _with_row(_fuzz_files(signal_and_symbol), 16, "16,1e+308,0.0")
    _fuzzed_file_run(files, command, codes=(2,))


def test_header_length_past_the_end_exits_3(signal_and_symbol):
    # the reader asked for a 4 GiB header buffer, then failed on its JSON
    # with a misleading message, or exited 2 where the allocation was refused
    files = _fuzz_files(signal_and_symbol)
    files["w.mat"] = struct.pack("<I", 0xFFFFFFF0) + files["w.mat"][4:]
    assert "truncated matrix file" in _fuzzed_file_run(files, "op", codes=(3,))


@pytest.mark.parametrize("name", ["f.json", "w.mat"])
def test_json_nested_too_deep_exits_3(signal_and_symbol, name):
    # the JSON parser's RecursionError ended in a traceback and exit 1
    files, deep = _fuzz_files(signal_and_symbol), b"[" * 100_000
    files[name] = struct.pack("<I", len(deep)) + deep if name == "w.mat" else deep
    _fuzzed_file_run(files, "op", codes=(3,))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(command=_FILE_COMMANDS, key=st.sampled_from(["x0", "dx", "kind"]),
       value=st.one_of(st.just(_DROP), _JSON))
def test_fuzzed_sidecar_values(signal_and_symbol, command, key, value):
    files = _fuzz_files(signal_and_symbol)
    files["f.json"] = json.dumps(_edited(files["f.json"], key, value)).encode()
    _fuzzed_file_run(files, command)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(command=_READ_SIGNAL_COMMANDS, key=st.sampled_from(["x0", "dx", "kind"]),
       value=st.one_of(st.just(_DROP), _JSON))
def test_fuzzed_sidecar_values_through_cross_and_from_file(signal_and_symbol, command, key,
                                                           value):
    files = _fuzz_files(signal_and_symbol)
    files["f.json"] = json.dumps(_edited(files["f.json"], key, value)).encode()
    _fuzzed_file_run(files, command, codes=(0, 2, 3))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(key=st.sampled_from(["format", "version", "nx", "x0", "dx", "nw", "w0", "dw", "domain",
                            "dtype"]),
       value=st.one_of(st.just(_DROP), _JSON, st.integers(-2, 130)))
def test_fuzzed_matrix_headers(signal_and_symbol, key, value):
    files = _fuzz_files(signal_and_symbol)
    raw = files["w.mat"]
    (hlen,) = struct.unpack("<I", raw[:4])
    head = json.dumps(_edited(raw[4 : 4 + hlen], key, value)).encode()
    files["w.mat"] = struct.pack("<I", len(head)) + head + raw[4 + hlen :]
    _fuzzed_file_run(files, "op")


@settings(derandomize=True, max_examples=120, deadline=None)
@given(command=_FILE_COMMANDS, name=st.sampled_from(["f.csv", "f.json", "w.mat"]),
       cut=st.integers(0, 2**20), garbage=st.binary(max_size=8))
def test_fuzzed_truncated_files(signal_and_symbol, command, name, cut, garbage):
    # cut anywhere, then a few stray bytes (none: a plain truncation)
    files = _fuzz_files(signal_and_symbol)
    files[name] = files[name][: cut % (len(files[name]) + 1)] + garbage
    _fuzzed_file_run(files, "op" if name == "w.mat" else command)
