"""The ``triqent`` console script run as a separate process.

Every check of the command line end to end lives here: the ``random``
report compared byte for byte, sweep CSVs against the library, exit
codes with their error, warning or pattern lines, and the negativities
of a mixed file against plain numpy.  With ``CI=true`` in the environment
every check runs the installed ``triqent`` console script, and fails if
there is none on PATH.  Elsewhere it runs ``python -m triqent.cli`` on
this package.
"""

import copy
import csv
import functools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import triqent.cli
from triqent import (
    DensityMatrix,
    PureState,
    apply_local_unitary,
    classify_mixed,
    classify_pure,
    default_grid,
    from_gsd_coefficients,
    ghz_noise,
    make_state,
    sample_haar_pure,
    sample_hs_mixed,
    w_prime,
)
from triqent.cli import _REPORT_LINE, save_state_file


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


def run(script, *argv):
    """The finished process of ``triqent ARGV``, its output as bytes."""
    command, env = script
    return subprocess.run([*command, *argv], capture_output=True, env=env, timeout=300)


def report(script, *argv):
    """The stdout bytes of ``triqent ARGV``, which must exit 0."""
    proc = run(script, *argv)
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


def canonical(*c):
    """The state with the gsd coefficients (alpha, beta, delta, epsilon, omega) c, normalized."""
    n = sum(x * x for x in c) ** 0.5
    return from_gsd_coefficients(*(x / n for x in c))


def rotation(t, p):
    return np.array([[np.cos(t), -np.exp(1j * p) * np.sin(t)], [np.exp(-1j * p) * np.sin(t), np.cos(t)]])


IDENTITY = [[[0.125 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]


def with_entry(value):
    """IDENTITY / 8 as JSON pairs, with entry (2, 5) replaced by ``value``."""
    rows = copy.deepcopy(IDENTITY)
    rows[2][5] = value
    return rows


#: state files written by save_state_file, by name
STATES = {
    # a mixed state whose witness lies within 10x of the zero tolerance
    "near_threshold": lambda: ghz_noise(0.2 + 4e-8),
    # a W state hidden by local unitaries
    "hidden_w": lambda: apply_local_unitary(w_prime(), rotation(0.3, 0.5), rotation(1.1, -0.7), rotation(0.8, 2.0)),
    # delta = epsilon = 2e-7 with omega = 0 entangle pairs AC and AB, and
    # their product leaves pair BC separable: the star S''
    "star": lambda: canonical(1.0, 0.0, 2e-7, 2e-7, 0.0),
    # a lone coefficient near the tolerance decides nothing: beta = 3e-8
    # leaves every margin far from it, so the form is W, unflagged
    "lone_beta": lambda: canonical(0.6, 3e-8, 0.5, 0.4, 0.0),
    # C_AB = 2|alpha delta| of about 3e-8 is a margin in the band
    "near_pair": lambda: canonical(1.0, 0.0, 2e-8, 0.5, 0.0),
    **{f"hs_{seed}": functools.partial(sample_hs_mixed, seed) for seed in (3, 4, 5)},
}

#: state files written as this text, by name
TEXTS = {
    "product": json.dumps({"kind": "pure", "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 7}),
    # a JSON string is not a number, even where float() would read it
    "string": json.dumps({"kind": "pure", "amplitudes": [["1", 0]] + [[0, 0]] * 7}),
    # a nesting too deep for json.load
    "deep": "[" * 200000 + "]" * 200000,
    # an integer of 401 digits, beyond the float range
    "huge": '{"kind": "pure", "amplitudes": [[1' + "0" * 400 + ", 0]" + ", [0, 0]" * 7 + "]}",
    # files that are not one array of pairs in the kind's shape
    "seven_rows": json.dumps({"kind": "mixed", "matrix": IDENTITY[:7]}),
    "true_entry": json.dumps({"kind": "mixed", "matrix": with_entry([True, 0.0])}),
    "three_part_pair": json.dumps({"kind": "mixed", "matrix": with_entry([0.0, 0.0, 0.0])}),
    "seven_pairs": json.dumps({"kind": "pure", "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 6}),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The path of each state file above, by name, and of the directory that holds them, as "dir"."""
    d = tmp_path_factory.mktemp("state_files")
    paths = {name: str(d / f"{name}.json") for name in [*STATES, *TEXTS]}
    for name, make in STATES.items():
        save_state_file(paths[name], make())
    for name, text in TEXTS.items():
        (d / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    return paths | {"dir": str(d)}


#: argv ({name} is the path of a state file), exit code, and a line that
#: stderr (for exit 2, an input error) or else stdout must hold
EXIT_CODES = {
    # a rejected seed or tolerance is a typed error, not a traceback
    "negative_seed": ("random --count 2 --seed -1", 2, r"^error: "),
    "negative_tol": ("classify {product} --tol -1", 2, r"^error: "),
    # below the accuracy floor a product projector reads as holding an entangled pair
    "tol_below_floor": ("classify {product} --tol 1e-16", 2, r"^error: "),
    # a grid count numpy cannot size is bad input, and no partial file is left
    "unsizable_points": ("sweep --family ghz_like --points 9223372036854775807 --out {dir}/huge.csv", 2, r"^error: "),
    "gsd_of_mixed_file": ("gsd {near_threshold}", 2, r"^error: "),
    "string_amplitude": ("classify {string}", 2, r"^error: "),
    "deep_nesting": ("classify {deep}", 2, r"^error: "),
    # a typed error of the library, which the state file reader reports
    "huge_integer": ("classify {huge}", 2, r"^error: "),
    # the reader's walk names the first problem of a file, for either kind
    "seven_rows": ("classify {seven_rows}", 2, r"^error: "),
    "true_entry": ("classify {true_entry}", 2, r"^error: "),
    "three_part_pair": ("classify {three_part_pair}", 2, r"^error: "),
    "seven_pairs": ("classify {seven_pairs}", 2, r"^error: "),
    # an ambiguous verdict or pattern is printed, and the exit code is 3
    "near_threshold_mixed": ("classify {near_threshold}", 3, r"^warning: "),
    "near_pair_gsd": ("gsd {near_pair}", 3, r"^pattern: ambiguous: "),
    "near_pair_classify": ("classify {near_pair}", 3, r"^warning: "),
    "hidden_w_raw": ("gsd {hidden_w} --mode raw", 0, r"^pattern: W \("),
    "hidden_w_normal": ("gsd {hidden_w} --mode normal", 0, r"^pattern: W \("),
    "star_gsd": ("gsd {star}", 0, r"^pattern: S'' \(subtype 2-2\)$"),
    "lone_beta_gsd": ("gsd {lone_beta}", 0, r"^pattern: W \(subtype 2-3\)$"),
}


@pytest.mark.parametrize("case", EXIT_CODES)
def test_exit_code(script, files, case):
    template, code, line = EXIT_CODES[case]
    argv = [word.format(**files) for word in template.split()]
    proc = run(script, *argv)
    output = (proc.stderr if code == 2 else proc.stdout).decode()
    assert proc.returncode == code, (proc.stdout.decode(), proc.stderr.decode())
    assert re.search(line, output, re.MULTILINE), output
    if "--out" in argv:
        assert not os.path.exists(argv[argv.index("--out") + 1])


@pytest.mark.parametrize("name, subtype, pairs", [
    ("star", "2-2", ["AC", "AB"]),
    ("lone_beta", "2-3", ["BC", "AC", "AB"]),
], ids=["star", "lone_beta"])
def test_classify_agrees_with_gsd_pattern(script, files, name, subtype, pairs):
    # the subtype and pairs of the pattern line test_exit_code reads from gsd (star_gsd, lone_beta_gsd)
    r = json.loads(report(script, "classify", files[name], "--json"))
    assert (r["subtype"], r["entangled_pairs"], r["ambiguous"]) == (subtype, pairs, False)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_mixed_negativities_equal_numpy(script, files, seed):
    # each one-vs-two negativity must equal the doubled negative spectrum of
    # the file's partial transpose, computed here with plain numpy alone
    path = files[f"hs_{seed}"]
    measures = json.loads(report(script, "classify", path, "--json"))["measures"]
    with open(path, encoding="utf-8") as fh:
        rho = np.array([[complex(re, im) for re, im in row] for row in json.load(fh)["matrix"]])
    for side, name in enumerate(("n_a_bc", "n_b_ac", "n_c_ab")):
        w = np.linalg.eigvalsh(rho.reshape((2,) * 6).swapaxes(side, side + 3).reshape(8, 8))
        assert abs(measures[name] - float(-2.0 * w[w < 0.0].sum())) <= 1e-9, name


@pytest.fixture(scope="module")
def sweep_rows(script, tmp_path_factory):
    """rows(family, points): the CSV rows of that sweep, header first, swept once."""
    d = tmp_path_factory.mktemp("sweeps")

    @functools.cache
    def rows(family, points):
        out = d / f"{family}_{points}.csv"
        report(script, "sweep", "--family", family, "--points", str(points), "--out", str(out))
        with open(out, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    return rows


@pytest.mark.parametrize("family, points", [("sigma_b", 1001), ("ghz_noise", 2500)])
def test_sweep_writes_one_row_per_point(sweep_rows, family, points):
    # the streamed CSV, across chunk boundaries: one line per point, and
    # every line as many cells as the header
    header, *rows = sweep_rows(family, points)
    assert len(rows) == points
    assert [i for i, row in enumerate(rows, 2) if len(row) != len(header)] == []


@pytest.mark.parametrize("family", ["ghz_w_mix", "sigma_b"])
def test_sweep_verdicts_equal_validated_matrices(sweep_rows, family):
    # a sweep measures each family's closed form without validating it
    # again; its verdicts must equal those on the validated matrices.  The
    # sign LAPACK gives a zero eigenvalue depends on the backend, and these
    # two families have zero eigenvalues on most points
    header, *rows = sweep_rows(family, 1001)
    verdicts = [row[header.index("verdict")] for row in rows]
    grid = default_grid(family, 1001).grid
    assert verdicts == ["; ".join(classify_mixed(DensityMatrix(make_state(family, *p).matrix)).claims()) for p in grid]
