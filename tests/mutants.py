"""A runnable mutant list: every constant and guard below, changed, must
fail the test file named next to it.

    python tests/mutants.py

Each mutant copies ``src/``, ``tests/`` and ``pytest.ini`` to a temporary
directory, replaces one text in one file there, and runs
``python -m pytest -q -x -p no:cacheprovider`` on its target test file.
The old text must occur exactly once in its file, so a stale entry raises
instead of testing nothing.  A run prints killed or survived per mutant
and exits 1 if any survived.  It needs the unmutated suite to pass, takes
2-30 s per mutant, and uses the standard library only.

A mutant that is equivalent at the documented accuracy has no entry; the
comment by its constant says so (``s = 0.5 - 0.5 |x|`` and ``_U_EXACT``
= 4096 in ``theta_growth_integral``).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, the test file expected to kill it)
MUTANTS = [
    ("dft constant e^{-+i pi n/2} dropped", "src/tfq/grid.py",
     "quarter = (1, sign * 1j, -1, -sign * 1j)[n % 4]", "quarter = 1",
     "tests/test_operators.py"),
    ("dft post-phase mod-1 reduction removed", "src/tfq/grid.py",
     "(turns - np.round(turns))", "turns", "tests/test_grid.py"),
    ("relative flush floor 2^-100 -> 2^-60", "src/tfq/distributions.py",
     "2.0**-100 * mag.max()", "2.0**-60 * mag.max()", "tests/test_fused_core.py"),
    ("absolute flush floor 2^-510 -> 2^-300", "src/tfq/distributions.py",
     "floor = 2.0**-510 /", "floor = 2.0**-300 /", "tests/test_fused_core.py"),
    ("support guard hi >= 3n/4 -> hi > 3n/4", "src/tfq/grid.py",
     "hi >= 3 * n // 4", "hi > 3 * n // 4", "tests/test_grid.py"),
    ("support guard lo < n/4 -> lo <= n/4", "src/tfq/grid.py",
     "lo < n // 4", "lo <= n // 4", "tests/test_grid.py"),
    ("_SUPPORT_FLOOR 1e-13 -> 1e-11", "src/tfq/grid.py",
     "_SUPPORT_FLOOR = 1e-13", "_SUPPORT_FLOOR = 1e-11", "tests/test_grid.py"),
    ("fit_loglog degrees of freedom len - 2 -> len", "src/tfq/norms.py",
     "/ (len(lams) - 2)", "/ len(lams)", "tests/test_norms.py"),
    ("_GRADED depth 2^-45 -> 2^-30", "src/tfq/kernels.py",
     "2.0 ** np.arange(-45.0, 0.0)", "2.0 ** np.arange(-30.0, 0.0)", "tests/test_kernels.py"),
    ("_U_EXACT 16384 -> 64", "src/tfq/kernels.py",
     "_U_EXACT = 16384.0", "_U_EXACT = 64.0", "tests/test_kernels.py"),
    ("growth tail's second-moment term dropped", "src/tfq/kernels.py",
     "float(tail + m2 * (dh(j_top) - dh(j_hi)))", "float(tail)", "tests/test_kernels.py"),
    ("special._TINY 2^-60 -> 2^-40", "src/tfq/special.py",
     "_TINY = 2.0 ** -60", "_TINY = 2.0 ** -40", "tests/test_special.py"),
    ("_SERIES_CUT 4 -> 5", "src/tfq/special.py",
     "_SERIES_CUT = 4.0", "_SERIES_CUT = 5.0", "tests/test_special.py"),
    ("_HALF_CELLS 2 -> 3", "src/tfq/norms.py",
     "_HALF_CELLS = 2 ", "_HALF_CELLS = 3 ", "tests/test_distributions.py"),
    ("region reach +1e-9 -> -1e-9", "src/tfq/norms.py",
     "_HALF_CELLS + 1e-9", "_HALF_CELLS - 1e-9", "tests/test_distributions.py"),
    ("Born-Jordan sine-table fold removed", "src/tfq/kernels.py",
     "np.minimum(u, n // 2 - u)", "u", "tests/test_fused_core.py"),
    ("vg_theta_grid panels rate/8 -> rate/16", "src/tfq/kernels.py",
     "initial=0.0) / 8.0", "initial=0.0) / 16.0", "tests/test_kernels.py"),
    ("read_matrix payload size != -> <", "src/tfq/io.py",
     "size - 4 - hlen != nx * nw * 16", "size - 4 - hlen < nx * nw * 16", "tests/test_io.py"),
]


def killed(path: str, old: str, new: str, target: str) -> bool:
    """Run ``target`` on a copy of the tree with ``old`` replaced by ``new``
    in ``path``; True if a test fails."""
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        raise ValueError(f"stale mutant: {old!r} occurs {text.count(old)} times in {path}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pytest.ini", work)
        (work / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", target],
            cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed; anything else did not run
        raise RuntimeError(f"pytest exited {proc.returncode} on {target}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 1


def main() -> int:
    survived = 0
    for name, path, old, new, target in MUTANTS:
        dead = killed(path, old, new, target)
        survived += not dead
        print(f"{'killed  ' if dead else 'SURVIVED'}  {name}  ({target})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
