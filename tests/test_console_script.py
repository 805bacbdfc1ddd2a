"""``triqent random`` run as a separate process, its report compared byte for byte.

With ``CI=true`` in the environment every check runs the installed
``triqent`` console script, and fails if there is none on PATH.
Elsewhere it runs ``python -m triqent.cli`` on this package.
"""

import os
import shlex
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import triqent.cli
from triqent import PureState, classify_pure, sample_haar_pure
from triqent.cli import _REPORT_LINE


@pytest.fixture(scope="module")
def script():
    """(command, environment) that run the console script."""
    if os.environ.get("CI") == "true":
        path = shutil.which("triqent")
        if path is None:
            pytest.fail("CI=true, but no triqent console script is on PATH")
        return [path], dict(os.environ)
    src = os.path.dirname(os.path.dirname(triqent.cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "triqent.cli"], env


def report(script, *argv):
    """The stdout bytes of ``triqent ARGV``, which must exit 0."""
    command, env = script
    proc = subprocess.run([*command, *argv], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def report_line(i, res):
    code = res.label.code + ("?" if res.ambiguous else "")
    m = res.measures
    return code, _REPORT_LINE % (i, code, m.n_abc, m.q_mult, m.eta_mult, m.three_tangle)


def test_rerun_is_byte_identical(script):
    assert report(script, "random", "--count", "200", "--seed", "7") == report(
        script, "random", "--count", "200", "--seed", "7")


def test_stdout_equals_out_file(script, tmp_path):
    # the templated report, across two chunk boundaries and with ? codes
    argv = ["random", "--count", "2100", "--seed", "7", "--tol", "0.1"]
    out = tmp_path / "random_file.txt"
    stdout = report(script, *argv)
    report(script, *argv, "--out", str(out))
    assert stdout == out.read_bytes()


def test_ambiguous_codes_at_a_wide_tolerance(script, tmp_path):
    out = tmp_path / "random_file.txt"
    report(script, "random", "--count", "2100", "--seed", "7", "--tol", "0.1", "--out", str(out))
    fields = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
    assert any(len(f) > 1 and f[1].endswith("?") for f in fields)


@pytest.mark.parametrize("tol", ["1e-8", "1e-3", "0.1"])
def test_report_equals_classify_pure_row_by_row(script, tol):
    # state i is row i of default_rng(seed).standard_normal((count, 16)),
    # drawn one chunk at a time, so the report must equal one drawn as a
    # single array by this numpy's default_rng and classified row by row;
    # the 1100 states cross a chunk boundary.  At --tol 1e-3 and 0.1 the
    # margins reach the ambiguity band, so a stacked decision that read
    # other columns than classify_pure would show there
    seed, count = 4294966796, 1100
    lines, histogram = [], Counter()
    x = np.random.default_rng(seed).standard_normal((count, 16))
    for i, z in enumerate(x[:, :8] + 1j * x[:, 8:]):
        code, line = report_line(i, classify_pure(PureState(z / np.sqrt((np.abs(z) ** 2).sum())), zero_tol=float(tol)))
        histogram[code] += 1
        lines.append(line)
    lines.append("subtype histogram:\n")
    lines += [f"  {code}\t{histogram[code]}\n" for code in sorted(histogram)]
    assert report(script, "random", "--count", str(count), "--seed", str(seed), "--tol", tol) == "".join(lines).encode()


def test_line_zero_is_sample_haar_pure(script, tmp_path):
    out = tmp_path / "random_one.txt"
    report(script, "random", "--count", "1", "--seed", "4294966796", "--out", str(out))
    _, line = report_line(0, classify_pure(sample_haar_pure(4294966796)))
    assert out.read_bytes().splitlines(keepends=True)[0] == line.encode()


def test_head_closes_the_pipe(script, tmp_path):
    # a reader that closes the pipe early ends the output: under pipefail the
    # pipeline must exit 0, with nothing on stderr, and the line read must be
    # line 0 of the report written through --out
    command, env = script
    err = tmp_path / "pipe_err.txt"
    pipeline = f"{shlex.join(command)} random --count 5000 --seed 7 2> {shlex.quote(str(err))} | head -n 1"
    proc = subprocess.run(["bash", "-o", "pipefail", "-c", pipeline], capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0
    assert err.read_bytes() == b""
    out = tmp_path / "random_5000.txt"
    report(script, "random", "--count", "5000", "--seed", "7", "--out", str(out))
    assert proc.stdout == out.read_bytes().splitlines(keepends=True)[0]
